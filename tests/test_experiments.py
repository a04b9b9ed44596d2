import math

import numpy as np
import pytest

from memtp import (BetaOrder, decompose_neighbour_transpositions,
                   future_cone_vertices, gibbs_state, thermomajorizes,
                   two_level_thermalize)
from memtp.experiments import (COOLING_OPS, WorkExtractionConfig, cone_export,
                               converge_sweep, cooling_closed_form,
                               cooling_demo, critical_beta, cycle_family_orders,
                               free_energy_trace, inaccessible_convergence,
                               inaccessible_target, min_epsilon_transform,
                               nested_cycle_order, work_extraction)


# ---------------------------------------------------------------------------
# convergence sweeps
# ---------------------------------------------------------------------------

def test_nested_cycle_orders():
    assert nested_cycle_order(6, 1).order == (5, 0, 1, 2, 3, 4)
    assert nested_cycle_order(6, 2).order == (5, 4, 0, 1, 2, 3)
    assert nested_cycle_order(6, 4, 1).order == (5, 4, 3, 2, 1, 0)
    assert len(cycle_family_orders(6)) == 15


def test_converge_sweep_trivial_target():
    rows = converge_sweep([0.6, 0.4], [0.0, 1.0], 0.3, (0, 1), [1, 2, 4])
    assert all(r["delta"] < 1e-14 for r in rows)


def test_converge_sweep_attaches_chain_prediction_at_beta0():
    p = [0.7, 0.2, 0.1]
    rows = converge_sweep(p, [0, 1, 2], 0.0, (1, 0, 2), [16, 64, 256])
    for r in rows:
        expected = abs(p[0] - p[1]) / math.sqrt(math.pi * r["N"])
        assert r["delta_predicted"] == pytest.approx(expected)
        assert r["delta"] == pytest.approx(expected, rel=0.1)


def test_converge_sweep_validation():
    rows = converge_sweep((0.6, 0.4), (0.0, 1.0), 0.3, (1, 0), (2, 4, 8))
    assert [r["N"] for r in rows] == [2, 4, 8]
    with pytest.raises(ValueError):
        converge_sweep((0.6, 0.4), (0.0, 1.0), 0.3, (1, 0), (4, 4))
    with pytest.raises(ValueError):
        converge_sweep((0.6, 0.4), (0.0, 1.0), -0.1, (1, 0), (2, 4))


# ---------------------------------------------------------------------------
# minimum epsilon
# ---------------------------------------------------------------------------

def test_min_epsilon_from_reachable_target():
    gS = gibbs_state([0.0, 1.0], 1.0)
    gB = gibbs_state([0.0, 0.8], 1.0)
    source = np.kron(gS, [0.3, 0.7])
    assert min_epsilon_transform(source, gS, gB) <= 0.3 + 1e-9


def test_min_epsilon_thermal_source_sits_at_thermal_battery_weight():
    # the thermal joint state reaches nothing but itself, so the smallest
    # feasible epsilon is the thermal battery ground weight
    gS = gibbs_state([0.0, 1.0], 1.0)
    for w in [-0.4, 0.3, 1.2]:
        gB = gibbs_state([0.0, w], 1.0)
        eps = min_epsilon_transform(np.kron(gS, gB), gS, gB)
        assert eps == pytest.approx(gB[0], abs=1e-9)


def test_min_epsilon_matches_grid_scan():
    gS = gibbs_state([0.0, 1.0], 1.0)
    for w in [0.3, 0.9]:
        gB = gibbs_state([0.0, w], 1.0)
        source = np.kron(gibbs_state([0.0, 1.0], 2.0), [1.0, 0.0])
        eps = min_epsilon_transform(source, gS, gB)
        joint_gamma = np.kron(gS, gB)
        grid = np.arange(0.0, 1.0001, 1e-4)
        feas = [e for e in grid
                if thermomajorizes(source, np.kron(gS, [e, 1 - e]), joint_gamma)]
        assert eps == pytest.approx(min(feas), abs=2e-4)


def test_min_epsilon_sits_on_the_feasibility_boundary():
    # oracle: the closed form's target is thermomajorised by the source,
    # and moving epsilon 1e-9 lower leaves the reachable set
    rng = np.random.default_rng(5)
    for _ in range(300):
        d = int(rng.integers(1, 5))
        beta = rng.uniform(0.0, 3.0)
        gS = gibbs_state(rng.uniform(0.0, 2.0, d), beta)
        gB = gibbs_state([0.0, rng.uniform(-1.0, 3.0)], beta)
        src = rng.dirichlet(np.ones(2 * d))
        if rng.random() < 0.5:
            src[rng.random(2 * d) < 0.5] = 0.0
            if src.sum() == 0.0:
                src[0] = 1.0
            src /= src.sum()
        joint_gamma = np.kron(gS, gB)
        eps = min_epsilon_transform(src, gS, gB)
        assert 0.0 <= eps <= gB[0] + 1e-12
        assert thermomajorizes(src, np.kron(gS, [eps, 1 - eps]), joint_gamma)
        if eps > 1e-9:
            lower = eps - 1e-9
            assert not thermomajorizes(src, np.kron(gS, [lower, 1 - lower]),
                                       joint_gamma)


def test_min_epsilon_far_from_equilibrium_source():
    gS = gibbs_state([0.0, 1.0], 1.0)
    gB = gibbs_state([0.0, -0.8], 1.0)  # negative work: free excitation
    source = np.kron([1.0, 0.0], [1.0, 0.0])
    assert min_epsilon_transform(source, gS, gB) < 1e-3


def test_min_epsilon_rejects_bad_shapes():
    gS = gibbs_state([0.0, 1.0], 1.0)
    with pytest.raises(ValueError, match="two-level"):
        min_epsilon_transform(np.ones(6) / 6, gS, np.ones(3) / 3)
    with pytest.raises(ValueError, match="system x battery"):
        min_epsilon_transform(np.ones(6) / 6, gS, [0.5, 0.5])


# ---------------------------------------------------------------------------
# work extraction
# ---------------------------------------------------------------------------

def test_work_extraction_small_grid():
    cfg = WorkExtractionConfig(gap=1.0, beta_source=2.0, beta=1.0,
                               works=(-0.4, 0.2, 0.8, 1.5),
                               memory_sizes=(1, 2, 8, 32))
    result = work_extraction(cfg)
    assert result.monotone
    assert result.kink == pytest.approx(math.log(1 + math.exp(-1.0)))
    eps_to = {r["W"]: r["epsilon_to"] for r in result.reference}
    for row in result.rows:
        assert row["epsilon"] >= eps_to[row["W"]] - 1e-10
        assert 0.0 <= row["epsilon"] <= 1.0


def test_work_extraction_epsilon_to_equals_cone_vertex_minimum():
    # slow oracle: the best epsilon over every future-cone vertex of the
    # initial state is the epsilon of the initial state itself
    gap, beta_s, beta = 1.0, 2.0, 1.0
    works = (-0.5, -0.1, 0.2, 0.6, 1.1, 2.0)
    cfg = WorkExtractionConfig(gap=gap, beta_source=beta_s, beta=beta,
                               works=works, memory_sizes=(1,))
    result = work_extraction(cfg)
    E_s = np.array([0.0, gap])
    gS = gibbs_state(E_s, beta)
    p_joint = np.kron(gibbs_state(E_s, beta_s), [1.0, 0.0])
    for ref in result.reference:
        E_joint = (E_s[:, None] + np.array([0.0, ref["W"]])[None, :]).ravel()
        gB = gibbs_state([0.0, ref["W"]], beta)
        scan = min(min_epsilon_transform(v.state, gS, gB) for v in
                   future_cone_vertices(p_joint, gibbs_state(E_joint, beta)))
        assert abs(ref["epsilon_to"] - scan) <= 1e-12


def test_work_extraction_vertex_order_does_not_follow_rounding():
    # the optimal target's ratios tie within each battery level, so the
    # order is fixed by the tie rule (ascending level index) at every W
    cfg = WorkExtractionConfig(gap=1.0, beta_source=2.0, beta=1.0,
                               works=tuple(np.linspace(-0.5, 2.0, 51)),
                               memory_sizes=(1,))
    result = work_extraction(cfg)
    assert all(ref["vertex_order"] == [1, 3, 0, 2]
               for ref in result.reference)


def test_work_extraction_n1_equals_memoryless_pipeline():
    # with a single memory slot the protocol degenerates to two-level
    # thermalisations on the system-battery pair alone
    gap, beta_s, beta, W = 1.0, 2.0, 1.0, 0.6
    E_s = np.array([0.0, gap])
    E_b = np.array([0.0, W])
    E_joint = (E_s[:, None] + E_b[None, :]).ravel()
    gS, gB = gibbs_state(E_s, beta), gibbs_state(E_b, beta)
    g_joint = gibbs_state(E_joint, beta)
    p_joint = np.kron(gibbs_state(E_s, beta_s), [1.0, 0.0])
    cfg = WorkExtractionConfig(gap=gap, beta_source=beta_s, beta=beta,
                               works=(W,), memory_sizes=(1,))
    result = work_extraction(cfg)
    order = BetaOrder(tuple(result.reference[0]["vertex_order"]))
    chain = decompose_neighbour_transpositions(p_joint, g_joint, order)
    assert len(chain) > 0
    manual = p_joint.copy()
    for (i, j) in chain:
        manual = two_level_thermalize(manual, g_joint, i, j, 1.0)
    eps_manual = min_epsilon_transform(manual, gS, gB)
    assert result.rows[0]["epsilon"] == pytest.approx(eps_manual, abs=1e-12)
    assert result.rows[0]["epsilon"] > result.reference[0]["epsilon_to"]


def test_work_extraction_large_w_epsilon_saturates_high():
    cfg = WorkExtractionConfig(gap=1.0, beta_source=2.0, beta=1.0,
                               works=(6.0,), memory_sizes=(1, 4))
    result = work_extraction(cfg)
    for row in result.rows:
        assert row["epsilon"] > 0.95


@pytest.mark.parametrize("beta", [0.0, -0.5])
def test_work_extraction_config_rejects_nonpositive_beta(beta):
    # the kink log(1 + e^(-beta gap)) / beta has no value at beta = 0
    with pytest.raises(ValueError, match="kink"):
        WorkExtractionConfig(gap=1.0, beta_source=2.0, beta=beta,
                             works=(0.2,), memory_sizes=(1,))


# ---------------------------------------------------------------------------
# cooling
# ---------------------------------------------------------------------------

def test_cooling_engine_matches_closed_form():
    report = cooling_demo(1.0, 0.4, 1.0)
    assert np.abs(report.q_engine - report.q_closed_form).max() < 1e-12
    assert report.distance_engine == pytest.approx(
        report.distance_closed_form, abs=1e-12)


def test_cooling_closed_form_infinite_temperature_distance():
    _, dist = cooling_closed_form(1.0, 0.4, 0.0)
    assert dist == pytest.approx(1 / 4)


def test_cooling_distance_positive_on_grid():
    for es in [0.6, 1.0, 1.5]:
        for em in [0.25, 0.4, 0.7]:
            report = cooling_demo(es, em, 1.0)
            assert report.distance_engine > 0
            # cooled below ambient: more ground population than thermal
            assert report.q_engine[0] > report.gamma_system[0]


def _cooling_closed_form_direct(es, em, beta):
    # the closed forms as plain sums of exponentials (overflow past
    # beta * (em + 2 es) ~ 709)
    ex = math.exp
    q1 = (ex(beta * em) + ex(beta * (em + es)) + ex(beta * (2 * em + es))
          + ex(beta * (em + 2 * es)) + ex(beta * es)) / (
        (ex(beta * es) + 1) * (ex(beta * (em - es)) + 1)
        * (ex(beta * (em + es)) + 1))
    q2 = (ex(beta * em) + ex(beta * (2 * em + es)) + ex(beta * es)) / (
        (ex(beta * es) + 1) * (ex(beta * em) + ex(beta * es))
        * (ex(beta * (em + es)) + 1))
    dist = 1.0 / ((ex(-beta * es) + 1)
                  * (math.cosh(beta * em) + math.cosh(beta * es)))
    return np.array([q1, q2]), dist


def test_cooling_log_form_matches_direct_sums_on_the_gap_grid():
    betas = (0.5, 1.0, 2.0)
    for a, es in enumerate((0.6, 1.0, 1.5)):
        for b, em in enumerate((0.25, 0.4, 0.7)):
            beta = betas[(a + b) % 3]
            q, dist = cooling_closed_form(es, em, beta)
            q_ref, dist_ref = _cooling_closed_form_direct(es, em, beta)
            assert np.abs(q - q_ref).max() < 1e-14
            assert abs(dist - dist_ref) < 1e-14


def test_cooling_at_large_beta():
    # beta * (E_M + 2 E_S) = 960 overflows exp; the log form does not
    report = cooling_demo(1.0, 0.4, 400.0)
    assert np.all(np.isfinite(report.q_closed_form))
    assert np.abs(report.q_engine - report.q_closed_form).max() < 1e-12
    assert abs(report.distance_engine - report.distance_closed_form) < 1e-12
    # at beta = 800 the two top joint levels underflow to weight 0, and
    # their thermalisation is rejected instead of returning NaN
    with pytest.raises(ValueError, match="underflow"):
        cooling_demo(1.0, 0.4, 800.0)


def test_cooling_rejects_unaddressable_gaps():
    with pytest.raises(ValueError):
        cooling_demo(0.8, 0.4, 1.0)  # E_S - E_M == E_M
    with pytest.raises(ValueError):
        cooling_demo(-1.0, 0.4, 1.0)


def test_cooling_same_gap_pairs_commute(monkeypatch):
    # ops 3 and 4 each touch disjoint pairs; swapping their order inside
    # the op must not change the outcome
    import memtp.experiments as xp
    swapped_ops = dict(COOLING_OPS)
    swapped_ops[3] = tuple(reversed(COOLING_OPS[3]))
    swapped_ops[4] = tuple(reversed(COOLING_OPS[4]))
    base = cooling_demo(1.0, 0.4, 1.3)
    monkeypatch.setattr(xp, "COOLING_OPS", swapped_ops)
    swapped = cooling_demo(1.0, 0.4, 1.3)
    assert np.array_equal(base.q_engine, swapped.q_engine)


def test_cooling_sequence_is_the_memory_swap_protocol():
    # the op sequence must reproduce the N=2 default swap of the excited
    # state through the nontrivial memory
    from memtp import run_full_swap
    es, em, beta = 1.2, 0.5, 0.9
    q_swap = run_full_swap([0.0, 1.0], [0.0, es], beta, (0, 1), 2,
                           memory_spectrum=[0.0, em])
    report = cooling_demo(es, em, beta)
    assert np.abs(report.q_engine - q_swap).max() < 1e-14


# ---------------------------------------------------------------------------
# inaccessible states
# ---------------------------------------------------------------------------

def test_critical_beta_golden_ratio():
    bc = critical_beta([0.0, 1.0, 2.0])
    assert bc == pytest.approx(math.log((1 + math.sqrt(5)) / 2), abs=1e-12)


def test_inaccessible_target_is_the_identity_chamber_boundary():
    E = [0.0, 1.0, 2.0]
    beta = 1.1 * critical_beta(E)
    q = inaccessible_target(E, beta)
    assert q[0] > 0
    assert np.allclose(q[1:], np.exp(-beta * np.array(E[1:])))
    with pytest.raises(ValueError):
        inaccessible_target(E, 0.9 * critical_beta(E))


def test_inaccessible_convergence_report():
    res = inaccessible_convergence([0.0, 1.0, 2.0], 1.1, [8, 16, 32, 64])
    assert res.monotone
    assert res.n0 == 8
    assert res.beta == pytest.approx(1.1 * res.beta_crit)
    for r in res.rows:
        assert r["delta"] <= r["bound"]


def test_inaccessible_bound_holds_up_to_ten_levels():
    # harmonic-ladder spectra keep the convergence below the half-sqrt
    # bound as the dimension grows
    res = inaccessible_convergence(np.arange(10, dtype=float), 1.1,
                                   [8, 16, 32, 64], beta=1.1 * np.log(2))
    assert res.monotone
    for r in res.rows:
        assert r["delta"] <= r["bound"]


def test_inaccessible_explicit_beta_override():
    res = inaccessible_convergence([0.0, 1.0, 2.0], 1.1, [8, 16],
                                   beta=1.1 * math.log(2))
    assert res.beta == pytest.approx(1.1 * math.log(2))
    with pytest.raises(ValueError):
        inaccessible_convergence([0.0, 1.0, 2.0], 1.1, [8], beta=0.1)


# ---------------------------------------------------------------------------
# free-energy traces and cone export
# ---------------------------------------------------------------------------

def test_free_energy_trace_monotone_joint_and_dip():
    for beta in [0.0, 0.5]:
        trace = free_energy_trace([0.7, 0.2, 0.1], [0, 1, 2], beta, (0, 1), 16)
        assert trace["monotone_joint"]
        ds = [r["D_S"] for r in trace["rows"]]
        assert min(ds) < ds[0] - 1e-6          # dips below the start
        assert ds[-1] > min(ds) + 1e-6         # and recovers
        mi = [r["I_SM"] for r in trace["rows"]]
        assert mi[-2] > 1e-8                   # correlated before discard
        assert mi[-1] < 1e-12                  # product after discard


def test_free_energy_trace_rejects_empty_memory():
    # the runner's error, not a ZeroDivisionError from the recorder template
    with pytest.raises(ValueError, match="N must be >= 1"):
        free_energy_trace([0.7, 0.2, 0.1], [0, 1, 2], 0.5, (0, 1), 0)


def test_free_energy_trace_thermal_input_is_flat():
    g = gibbs_state([0, 1, 2], 0.5)
    trace = free_energy_trace(g, [0, 1, 2], 0.5, (0, 1), 8)
    for row in trace["rows"]:
        assert abs(row["D_S"]) < 1e-12
        assert abs(row["D_SM"]) < 1e-12
        assert abs(row["I_SM"]) < 1e-12


def test_cone_export_payload():
    g3 = gibbs_state([0, 1, 2], 0.3)
    payload = cone_export([0.7, 0.2, 0.1], g3)
    assert len(payload["vertices"]) == 6
    single = cone_export(g3, g3)
    assert len(single["vertices"]) == 1
    flat = cone_export([0.6, 0.3, 0.1], np.ones(3) / 3)
    states = {tuple(np.round(v["state"], 12)) for v in flat["vertices"]}
    assert len(states) == 6
