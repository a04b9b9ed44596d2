import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from memtp import (TrajectoryRecorder, build_schedule, gibbs_state,
                   joint_gibbs, marginalize, mutual_information,
                   relative_entropy, run_composed, run_full_swap,
                   run_truncated, tensor, thermalize_memory, thermomajorizes,
                   total_variation, two_level_thermalize)
from memtp.engine import (FAMILIES, ProtocolSchedule, _execute, _stars, _swap,
                          _thermal_joint)


def rand_state(rng, d):
    return rng.dirichlet(np.ones(d))


def make_joint(p, beta, N, energies=None):
    d = len(p)
    E = np.arange(d, dtype=float) if energies is None else np.asarray(energies)
    return tensor(p, gibbs_state(np.zeros(N), beta), E, np.zeros(N))


# ---------------------------------------------------------------------------
# two_level_thermalize
# ---------------------------------------------------------------------------

def test_lambda_zero_is_identity():
    p = np.array([0.3, 0.5, 0.2])
    g = gibbs_state([0.0, 1.0, 2.0], 0.7)
    assert np.array_equal(two_level_thermalize(p, g, 0, 2, 0.0), p)


def test_full_thermalisation_averages_at_beta0():
    out = two_level_thermalize([0.5, 0.0, 0.5], np.ones(3) / 3, 0, 1, 1.0)
    assert np.allclose(out, [0.25, 0.25, 0.5])


def test_full_thermalisation_splits_by_gibbs_weights():
    out = two_level_thermalize([1.0, 0.0], [2 / 3, 1 / 3], 0, 1, 1.0)
    assert np.allclose(out, [2 / 3, 1 / 3], atol=1e-15)


def test_thermalize_validates_input():
    g = np.ones(2) / 2
    with pytest.raises(ValueError):
        two_level_thermalize([0.5, 0.5], g, 1, 1, 1.0)
    with pytest.raises(ValueError):
        two_level_thermalize([0.5, 0.5], g, 0, 1, 1.5)


def test_pair_sum_preserved_exactly():
    rng = np.random.default_rng(0)
    p = rand_state(rng, 4)
    g = gibbs_state(rng.uniform(0, 2, 4), 1.3)
    for _ in range(1000):
        i, j = rng.choice(4, size=2, replace=False)
        p = two_level_thermalize(p, g, int(i), int(j), rng.uniform())
    assert abs(p.sum() - 1.0) < 1e-14


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

def test_default_schedule_matches_round_major_layout():
    sched = build_schedule("default", (0, 1), 2)
    assert sched.steps() == [(0, 2), (0, 3), (1, 2), (1, 3)]


def test_all_families_coincide_for_single_slot_memory():
    for family in FAMILIES:
        sched = build_schedule(family, (0, 1), 1)
        assert sched.steps() == [(0, 1)]


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("N", [1, 2, 3, 5, 8])
def test_every_family_visits_the_grid_once(family, N):
    for variant in ([0] if family in ("default", "blue", "red") else [0, 1, 5, 12]):
        sched = build_schedule(family, (0, 1), N, variant)
        pts = [(a, b - N) for a, b in sched.steps()]
        assert len(pts) == N * N
        assert len(set(pts)) == N * N
        assert all(0 <= k < N and 0 <= l < N for k, l in pts)


def test_schedule_validation():
    with pytest.raises(ValueError):
        build_schedule("violet", (0, 1), 4)
    with pytest.raises(ValueError):
        build_schedule("default", (1, 1), 4)
    with pytest.raises(ValueError):
        build_schedule("cyan", (0, 1), 4, variant=-2)


# ---------------------------------------------------------------------------
# run_truncated / thermalize_memory
# ---------------------------------------------------------------------------

def test_four_step_walkthrough_matches_hand_computation():
    joint = make_joint([1.0, 0.0], 0.0, 2, [0.0, 0.0])
    sched = build_schedule("default", (0, 1), 2)
    out = run_truncated(joint, 0.0, sched)
    assert np.allclose(out.probs, [1 / 8, 1 / 4, 3 / 8, 1 / 4], atol=1e-15)


def test_empty_schedule_is_identity():
    joint = make_joint([0.6, 0.4], 0.7, 3)
    sched = ProtocolSchedule("default", 0, (0, 1), 3, ())
    out = run_truncated(joint, 0.7, sched)
    assert np.array_equal(out.probs, joint.probs)


def test_joint_gibbs_state_is_a_fixed_point():
    rng = np.random.default_rng(1)
    for family in FAMILIES:
        beta = rng.uniform(0, 2)
        E = np.sort(rng.uniform(0, 2, 3))
        N = 4
        g_sys = gibbs_state(E, beta)
        joint = tensor(g_sys, np.ones(N) / N, E, np.zeros(N))
        sched = build_schedule(family, (0, 2), N)
        out = run_truncated(joint, beta, sched)
        assert np.abs(out.probs - joint.probs).max() < 1e-15


def test_thermalize_memory_examples():
    joint = make_joint([0.3, 0.7], 0.0, 2)
    assert np.allclose(thermalize_memory(joint, 0.0).probs, joint.probs)
    corr = joint.replace_probs(np.array([1 / 8, 1 / 4, 3 / 8, 1 / 4]))
    out = thermalize_memory(corr, 0.0)
    assert np.allclose(out.probs, np.kron([3 / 8, 5 / 8], [0.5, 0.5]))
    assert mutual_information(out) < 1e-14
    assert np.allclose(marginalize(out, "system"),
                       marginalize(corr, "system"), atol=1e-15)


# ---------------------------------------------------------------------------
# full and composed protocols
# ---------------------------------------------------------------------------

def test_full_swap_two_slot_hand_value():
    out = run_full_swap([1.0, 0.0], [0.0, 0.0], 0.0, (0, 1), 2)
    assert np.allclose(out, [3 / 8, 5 / 8], atol=1e-15)


def test_full_swap_error_scales_like_inverse_sqrt():
    out = run_full_swap([1.0, 0.0], [0.0, 0.0], 0.0, (0, 1), 512)
    delta = total_variation(out, [0.0, 1.0])
    assert delta * np.sqrt(np.pi * 512) == pytest.approx(1.0, abs=0.02)


def test_full_swap_fixes_thermal_state():
    for N in [1, 2, 5]:
        E = [0.0, 1.3]
        g = gibbs_state(E, 0.8)
        out = run_full_swap(g, E, 0.8, (0, 1), N)
        assert total_variation(out, g) < 1e-14


def test_composed_empty_chain_returns_input():
    p = np.array([0.6, 0.4])
    out = run_composed(p, [0.0, 1.0], 0.5, [], 4)
    assert np.allclose(out, p, atol=1e-15)


def test_composed_single_swap_equals_full_swap():
    p = np.array([0.7, 0.2, 0.1])
    E = [0.0, 0.5, 1.0]
    for mode in ("full", "truncated"):
        a = run_composed(p, E, 0.4, [(0, 1)], 8, mode=mode)
        b = run_full_swap(p, E, 0.4, (0, 1), 8)
        assert np.array_equal(a, b)


def test_truncated_keeps_memory_across_blocks():
    # with correlations kept, outputs differ from block-wise discards
    p = np.array([0.5, 0.3, 0.2])
    E = [0.0, 0.6, 1.2]
    full = run_composed(p, E, 0.0, [(0, 1), (0, 2)], 8, mode="full")
    trunc = run_composed(p, E, 0.0, [(0, 1), (0, 2)], 8, mode="truncated")
    assert total_variation(full, trunc) > 1e-6


def test_probability_conserved_through_long_runs():
    rng = np.random.default_rng(2)
    p = rand_state(rng, 3)
    out = run_composed(p, [0.0, 0.7, 1.4], 0.9, [(0, 1), (1, 2), (0, 1)], 64)
    assert abs(out.sum() - 1.0) < 1e-14


@pytest.mark.parametrize("graded", [False, True])
@pytest.mark.parametrize("beta", [0.0, 0.7])
@pytest.mark.parametrize("N", [1, 2, 3, 17, 64])
def test_unrecorded_runners_equal_stepwise_reference(N, beta, graded):
    # the wavefront kernel must reproduce the step-by-step default schedule
    # bit for bit, for trivial and graded memory spectra alike
    rng = np.random.default_rng(N)
    p = rand_state(rng, 3)
    E = [0.0, 0.6, 1.5]
    em = np.sort(rng.uniform(0.0, 1.2, N)) if graded else np.zeros(N)
    chain = [(0, 1), (2, 1), (0, 2)]

    template = tensor(p, gibbs_state(em, beta), E, em)

    def reference(pairs, mode, recorder):
        joint = template
        for i, j in pairs:
            joint = run_truncated(joint, beta,
                                  build_schedule("default", (i, j), N),
                                  recorder)
            if mode == "full":
                joint = thermalize_memory(joint, beta)
        if mode == "truncated":
            joint = thermalize_memory(joint, beta)
        return joint

    def recorders(recorded):
        if not recorded:
            return None, None
        return (TrajectoryRecorder(template, beta),
                TrajectoryRecorder(template, beta))

    # with a recorder the runners take the step-by-step path; their outputs
    # and every recorded point must match the reference's as well
    for recorded in (False, True):
        rec, ref = recorders(recorded)
        out = run_full_swap(p, E, beta, (2, 0), N, memory_spectrum=em,
                            recorder=rec)
        joint = reference([(2, 0)], "truncated", ref)
        assert np.array_equal(out, marginalize(joint, "system"))
        if recorded:
            ref.record(joint.probs)     # the full swap records its discard
            assert rec.points == ref.points
        for mode in ("full", "truncated"):
            rec, ref = recorders(recorded)
            out = run_composed(p, E, beta, chain, N, mode=mode,
                               memory_spectrum=em, recorder=rec)
            joint = reference(chain, mode, ref)
            assert np.array_equal(out, marginalize(joint, "system")), mode
            assert rec is None or rec.points == ref.points, mode


def memory_spectra(N, rng):
    """Zero, constant, graded with ties, and sorted random memory levels."""
    return {"zeros": np.zeros(N), "constant": np.full(N, 0.3),
            "ties": np.repeat([0.0, 0.4, 1.1], -(-N // 3))[:N],
            "random": np.sort(rng.uniform(0.0, 1.2, N))}


@pytest.mark.parametrize("levels", [(0, 1), (2, 0)])
@pytest.mark.parametrize("beta", [0.0, 0.7])
@pytest.mark.parametrize("N", [1, 2, 3, 17, 64, 257])
def test_swap_kernel_equals_default_schedule_on_the_whole_joint(N, beta,
                                                                levels):
    # every joint entry, not just the system marginal: a kernel that
    # misroutes mass between memory slots of one row must fail here
    rng = np.random.default_rng(N)
    p = rand_state(rng, 3)
    E = [0.0, 0.6, 1.5]
    for name, em in memory_spectra(N, rng).items():
        grid, g, gm, flat = _thermal_joint(p, E, beta, [levels], N, em)
        assert flat == (name in ("zeros", "constant") or N == 1
                        or beta == 0.0)
        joint = tensor(p, gm, E, em)
        i, j = levels
        _swap(grid, g, [i], [j], flat)
        ref = run_truncated(joint, beta, build_schedule("default", levels, N))
        assert np.array_equal(grid.ravel(), ref.probs), name


@pytest.mark.parametrize("levels", [(0, 1), (1, 0)])
@pytest.mark.parametrize("N", [1, 2, 3, 17, 64, 257])
def test_swap_kernel_is_exact_with_one_underflowing_weight_per_cell(N,
                                                                     levels):
    # beta = 1000 on [0, 1]: the excited row of the Gibbs grid is all 0; a
    # graded memory below 0.5 keeps the ground row positive
    rng = np.random.default_rng(N)
    spectra = memory_spectra(N, rng)
    spectra["random"] *= 0.4
    spectra["ties"] *= 0.4
    for name, em in spectra.items():
        grid, g, gm, flat = _thermal_joint([0.5, 0.5], [0.0, 1.0], 1000.0,
                                           [levels], N, em)
        joint = tensor([0.5, 0.5], gm, [0.0, 1.0], em)
        i, j = levels
        with np.errstate(invalid="raise", divide="raise"):
            _swap(grid, g, [i], [j], flat)
            ref = run_truncated(joint, 1000.0,
                                build_schedule("default", levels, N))
        assert np.array_equal(grid.ravel(), ref.probs), name
        assert grid[1].sum() == 0.0


# a star of swaps in each role, each broken by a level it already holds
STAR_CHAIN = [(1, 0), (2, 0), (1, 0), (0, 1), (0, 2), (0, 1)]


def test_stars_group_consecutive_swaps_that_share_a_level():
    assert _stars([(4, 5), (3, 5), (2, 5)]) == [([4, 3, 2], [5])]
    assert _stars([(0, 1), (0, 2), (0, 1)]) == [([0], [1, 2]), ([0], [1])]
    assert _stars(STAR_CHAIN) == [([1, 2], [0]), ([1], [0]), ([0], [1, 2]),
                                  ([0], [1])]
    # a shared level in the other role does not group
    assert _stars([(0, 1), (1, 2), (2, 0)]) == [([0], [1]), ([1], [2]),
                                                ([2], [0])]
    assert _stars([]) == []


def test_only_unrecorded_truncated_runs_group(monkeypatch):
    calls = []

    def spy(grid, gibbs, rows, cols, flat):
        calls.append((list(rows), list(cols)))
        _swap(grid, gibbs, rows, cols, flat)

    monkeypatch.setattr("memtp.engine._swap", spy)
    p, E, N = np.full(6, 1 / 6), np.arange(6.0), 3
    chain = [(4, 5), (3, 5), (2, 5)]
    run_composed(p, E, 0.5, chain, N)
    assert calls == [([4, 3, 2], [5])]
    calls.clear()
    run_composed(p, E, 0.5, chain, N, mode="full")
    assert calls == [([4], [5]), ([3], [5]), ([2], [5])]
    calls.clear()
    for mode in ("full", "truncated"):
        rec = TrajectoryRecorder(tensor(p, np.ones(N) / N, E, np.zeros(N)),
                                 0.5)
        run_composed(p, E, 0.5, chain, N, mode=mode, recorder=rec)
        assert len(rec.points) == 1 + len(chain) * N * N
    assert calls == []


def stepwise_and_grouped(state, E, beta, N, em):
    """Whole joint grids after STAR_CHAIN: per-step ``_execute``, and one
    ``_swap`` per ``_stars`` group."""
    grid, g, gm, flat = _thermal_joint(state, E, beta, STAR_CHAIN, N, em)
    ref = grid.ravel().copy()
    for i, j in STAR_CHAIN:
        _execute(ref, g.ravel(), build_schedule("default", (i, j), N).runs)
    for rows, cols in _stars(STAR_CHAIN):
        _swap(grid, g, rows, cols, flat)
    return grid, ref.reshape(grid.shape)


@pytest.mark.parametrize("beta", [0.0, 0.7])
@pytest.mark.parametrize("N", [1, 2, 3, 17, 64, 257])
def test_star_groups_equal_stepwise_swaps_on_the_whole_joint(N, beta):
    rng = np.random.default_rng(N)
    p = rand_state(rng, 3)
    for name, em in memory_spectra(N, rng).items():
        grid, ref = stepwise_and_grouped(p, [0.0, 0.6, 1.5], beta, N, em)
        assert np.array_equal(grid, ref), name


@pytest.mark.parametrize("N", [1, 2, 3, 17, 64, 257])
def test_star_groups_are_exact_with_one_underflowing_weight_per_cell(N):
    # beta = 1000 on [0, 1, 2]: rows 1 and 2 of the Gibbs grid are all 0,
    # and every swap of the chain pairs one of them with the ground level
    rng = np.random.default_rng(N)
    spectra = memory_spectra(N, rng)
    spectra["random"] *= 0.4
    spectra["ties"] *= 0.4
    for name, em in spectra.items():
        with np.errstate(invalid="raise", divide="raise"):
            grid, ref = stepwise_and_grouped([0.5, 0.3, 0.2], [0.0, 1.0, 2.0],
                                             1000.0, N, em)
        assert np.array_equal(grid, ref), name
        assert grid[1:].sum() == 0.0


@settings(max_examples=80, deadline=None)
@given(d=st.integers(2, 5), N=st.integers(1, 6),
       beta=st.sampled_from([0.0, 0.4, 1.5]),
       equal_energies=st.booleans(),
       memory=st.sampled_from(["zeros", "constant", "graded"]),
       picks=st.lists(st.integers(0, 19), max_size=8),
       seed=st.integers(0, 2 ** 32 - 1))
@example(d=3, N=1, beta=0.0, equal_energies=True, memory="constant",
         picks=[0, 0, 2, 3, 2, 1], seed=0)
def test_truncated_runs_equal_stepwise_reference_at_the_edges(
        d, N, beta, equal_energies, memory, picks, seed):
    # N = 1, beta = 0, equal energies, a constant memory spectrum and chains
    # that repeat pairs: the unrecorded run is the per-step run, bit for bit
    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(d) for j in range(d) if i != j]
    chain = [pairs[k % len(pairs)] for k in picks]
    p = rand_state(rng, d)
    E = np.zeros(d) if equal_energies else np.sort(rng.uniform(0, 2, d))
    em = {"zeros": np.zeros(N), "constant": np.full(N, 0.3),
          "graded": np.sort(rng.uniform(0.0, 1.2, N))}[memory]
    joint = tensor(p, gibbs_state(em, beta), E, em)
    for i, j in chain:
        joint = run_truncated(joint, beta,
                              build_schedule("default", (i, j), N))
    ref = marginalize(thermalize_memory(joint, beta), "system")
    out = run_composed(p, E, beta, chain, N, memory_spectrum=em)
    assert np.array_equal(out, ref)


@pytest.mark.parametrize("runner", ["full_swap", "composed"])
def test_runners_reject_bad_input(runner):
    p, E = [0.5, 0.3, 0.2], [0.0, 1.0, 2.0]

    def call(levels, N, memory_spectrum=None, energies=E):
        if runner == "full_swap":
            return run_full_swap(p, energies, 0.5, levels, N,
                                 memory_spectrum=memory_spectrum)
        return run_composed(p, energies, 0.5, [(0, 1), levels], N,
                            memory_spectrum=memory_spectrum)

    for levels in [(1, 1), (0, 3), (-1, 0)]:
        with pytest.raises(ValueError, match="levels"):
            call(levels, 4)
    with pytest.raises(ValueError, match="N must be >= 1"):
        call((0, 1), 0)
    with pytest.raises(ValueError, match="memory spectrum length"):
        call((0, 1), 4, memory_spectrum=[0.0, 1.0])
    for energies in ([0.0, 1.0], [0.0, 1.0, 2.0, 3.0]):
        with pytest.raises(ValueError, match="spectrum lengths must match"):
            call((0, 1), 4, energies=energies)


def test_runners_reject_pairs_whose_gibbs_weights_underflow():
    # at beta = 1000 both weights of levels 1 and 2 are exactly 0, so every
    # cell factor of their swap would be 0/0
    p, E = [0.5, 0.3, 0.2], [0.0, 1.0, 2.0]
    with pytest.raises(ValueError, match="underflow"):
        run_composed(p, E, 1000.0, [(1, 2)], 4)
    with pytest.raises(ValueError, match="underflow"):
        run_full_swap(p, E, 1000.0, (1, 2), 4)
    with pytest.raises(ValueError, match="underflow"):
        two_level_thermalize(p, gibbs_state(E, 1000.0), 1, 2)


def test_one_underflowing_weight_per_cell_stays_finite():
    # only the excited level's weight is 0: every cell has one positive
    # weight, and the swap drains the excited level without 0/0
    with np.errstate(invalid="raise", divide="raise"):
        q = run_full_swap([0.5, 0.5], [0.0, 1.0], 1000.0, (0, 1), 4)
    assert np.array_equal(q, [1.0, 0.0])


def test_families_produce_identical_truncated_outputs():
    rng = np.random.default_rng(3)
    p = rand_state(rng, 2)
    E = [0.0, 1.1]
    beta = 0.9
    for N in (12, 64):
        outs = {}
        for family in FAMILIES:
            joint = make_joint(p, beta, N, E)
            sched = build_schedule(family, (0, 1), N)
            outs[family] = run_truncated(joint, beta, sched).probs
        ref = outs["default"]
        for family, probs in outs.items():
            assert np.abs(probs - ref).max() < 1e-13, (family, N)


def dense_step_matrix(dim, g, a, b):
    """Explicit stochastic matrix of one full pair thermalisation."""
    m = np.eye(dim)
    s = g[a] + g[b]
    m[a, a] = m[a, b] = g[a] / s
    m[b, a] = m[b, b] = g[b] / s
    return m


def test_engine_matches_dense_matrix_reference():
    # multiply out every elementary step as an explicit stochastic matrix;
    # exercises trivial and nontrivial memory spectra
    rng = np.random.default_rng(5)
    for mem_spectrum in (None, [0.0, 0.3, 0.9]):
        for _ in range(10):
            d = int(rng.integers(2, 4))
            N = 3
            beta = rng.uniform(0, 2)
            E = np.sort(rng.uniform(0, 2, d))
            p = rand_state(rng, d)
            em = np.zeros(N) if mem_spectrum is None else np.array(mem_spectrum)
            joint = tensor(p, gibbs_state(em, beta), E, em)
            G = joint_gibbs(joint, beta)
            i, j = map(int, rng.choice(d, size=2, replace=False))
            sched = build_schedule("blue", (i, j), N)
            expected = joint.probs.copy()
            for (a, b) in sched.steps():
                expected = dense_step_matrix(d * N, G, a, b) @ expected
            got = run_truncated(joint, beta, sched).probs
            assert np.abs(got - expected).max() < 1e-14


def test_per_step_thermomajorisation_and_monotone_divergence():
    rng = np.random.default_rng(4)
    for _ in range(10):
        d = int(rng.integers(2, 4))
        N = int(rng.integers(2, 6))
        beta = rng.uniform(0, 1.5)
        E = np.sort(rng.uniform(0, 2, d))
        p = rand_state(rng, d)
        joint = tensor(p, np.ones(N) / N, E, np.zeros(N))
        G = joint_gibbs(joint, beta)
        i, j = rng.choice(d, size=2, replace=False)
        rec = TrajectoryRecorder(joint, beta, store_states=True)
        run_truncated(joint, beta, build_schedule("default", (int(i), int(j)), N),
                      recorder=rec)
        div = rec.joint_divergences()
        assert np.all(np.diff(div) <= 1e-10)
        states = [pt["joint"] for pt in rec.points]
        for prev, cur in zip(states, states[1:]):
            assert thermomajorizes(prev, cur, G)


def test_recorder_records_final_discard_for_full_protocol():
    joint = make_joint([0.7, 0.3], 0.0, 3)
    rec = TrajectoryRecorder(joint, 0.0)
    run_full_swap([0.7, 0.3], [0.0, 0.0], 0.0, (0, 1), 3, recorder=rec)
    assert len(rec.points) == 3 * 3 + 2
    assert rec.points[-1]["mutual_information"] < 1e-14
    assert [pt["step"] for pt in rec.points] == list(range(3 * 3 + 2))


def test_recorder_rows_equal_recompute_from_stored_joint():
    rng = np.random.default_rng(11)
    for _ in range(5):
        d, N = int(rng.integers(2, 4)), int(rng.integers(2, 5))
        beta = rng.uniform(0, 1.5)
        E = np.sort(rng.uniform(0, 2, d))
        em = np.sort(rng.uniform(0, 1, N))
        p = rand_state(rng, d)
        joint = tensor(p, gibbs_state(em, beta), E, em)
        rec = TrajectoryRecorder(joint, beta, store_states=True)
        run_composed(p, E, beta, [(0, 1), (d - 1, 0)], N, memory_spectrum=em,
                     recorder=rec)
        gS, gM = gibbs_state(E, beta), gibbs_state(em, beta)
        for pt in rec.points:
            state = joint.replace_probs(pt["joint"])
            pS = marginalize(state, "system")
            pM = marginalize(state, "memory")
            assert pt["d_system"] == relative_entropy(pS, gS)
            assert pt["d_memory"] == relative_entropy(pM, gM)
            assert pt["d_joint"] == relative_entropy(pt["joint"],
                                                     np.kron(gS, gM))
            assert pt["mutual_information"] == mutual_information(state)


def test_stacked_record_equals_row_by_row_and_recompute():
    # one record(stack) call gives the points of recording each row on its
    # own, and every point equals a recompute from its stored joint; a
    # source level at zero puts zero entries into the first rows
    rng = np.random.default_rng(29)
    for case in range(6):
        d, N = int(rng.integers(2, 5)), int(rng.integers(2, 6))
        beta = rng.uniform(0, 1.5)
        E = np.sort(rng.uniform(0, 2, d))
        em = np.sort(rng.uniform(0, 1, N)) if case % 2 else np.zeros(N)
        p = rand_state(rng, d)
        p[d - 1] = 0.0
        p /= p.sum()
        joint = tensor(p, gibbs_state(em, beta), E, em)
        run = TrajectoryRecorder(joint, beta, store_states=True)
        run_composed(p, E, beta, [(0, d - 1), (0, 1)], N, memory_spectrum=em,
                     recorder=run)
        stack = np.array([pt["joint"] for pt in run.points])
        assert (stack == 0.0).any(axis=1).any()
        stacked = TrajectoryRecorder(joint, beta, store_states=True)
        stacked.record(stack)
        rowwise = TrajectoryRecorder(joint, beta, store_states=True)
        for row in stack:
            rowwise.record(row)
        gS, gM = gibbs_state(E, beta), gibbs_state(em, beta)
        for a, b, c in zip(stacked.points, rowwise.points, run.points):
            assert a.keys() == b.keys() == c.keys()
            for key in ("step", "d_system", "d_memory", "d_joint",
                        "mutual_information"):
                assert a[key] == b[key] == c[key]
            assert np.array_equal(a["joint"], b["joint"])
            state = joint.replace_probs(a["joint"])
            assert a["d_system"] == relative_entropy(
                marginalize(state, "system"), gS)
            assert a["d_memory"] == relative_entropy(
                marginalize(state, "memory"), gM)
            assert a["d_joint"] == relative_entropy(a["joint"],
                                                    np.kron(gS, gM))
            assert a["mutual_information"] == mutual_information(state)
        assert [pt["step"] for pt in stacked.points] == list(range(len(stack)))


def test_recorded_two_swap_run_numbers_steps_once():
    # one step index across all swaps: the initial state, then N^2 steps
    # per swap, with no restart at the second swap
    N = 3
    joint = tensor([0.5, 0.3, 0.2], np.ones(N) / N, [0, 1, 2], np.zeros(N))
    rec = TrajectoryRecorder(joint, 0.5)
    q = run_composed([0.5, 0.3, 0.2], [0, 1, 2], 0.5, [(0, 1), (1, 2)], N,
                     recorder=rec)
    assert [pt["step"] for pt in rec.points] == list(range(2 * N * N + 1))
    assert np.array_equal(q, run_composed([0.5, 0.3, 0.2], [0, 1, 2], 0.5,
                                          [(0, 1), (1, 2)], N))
