"""Acceptance suite: one test per exit criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines. Tolerances are fixed here and are not calibration knobs.
"""

import math
from contextlib import contextmanager

import numpy as np

from memtp import (TrajectoryRecorder, beta_order, build_schedule,
                   decompose_neighbour_transpositions, extreme_point,
                   fit_exponential_rate, future_cone_vertices, gibbs_state,
                   joint_gibbs, predict_delta, run_composed, run_full_swap,
                   run_truncated, tensor, thermomajorizes, total_variation)
from memtp.closed_forms import (PairGibbsFactors, closed_form_entry_b,
                                closed_form_entry_c, final_state)
from memtp.engine import FAMILIES
from memtp.experiments import (WorkExtractionConfig, cooling_demo,
                               cycle_family_orders, inaccessible_convergence,
                               nested_cycle_order, work_extraction)
from memtp.special import log_beta, reg_inc_beta

P6 = np.array([0.37, 0.24, 0.16, 0.11, 0.07, 0.05])


@contextmanager
def criterion(num, text):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:2d}: FAIL - {text}")
        raise
    print(f"ACCEPTANCE {num:2d}: PASS - {text}")


def test_01_two_slot_swap_regression():
    with criterion(1, "two-slot memory swap of (1,0) gives (3/8, 5/8)"):
        out = run_full_swap([1.0, 0.0], [0.0, 0.0], 0.0, (0, 1), 2)
        assert np.abs(out - np.array([0.375, 0.625])).max() < 1e-12


def test_02_closed_form_oracle_equivalence():
    with criterion(2, "engine matches entry-wise closed forms on 200 tuples"):
        rng = np.random.default_rng(20)
        for _ in range(200):
            N = int(rng.integers(1, 65))
            beta = rng.uniform(0.0, 2.0)
            gap = rng.uniform(0.0, 2.0)
            b = rng.uniform(0.0, 1.0)
            c = 1.0 - b
            E = np.array([0.0, gap])
            joint = tensor([b, c], np.ones(N) / N, E, np.zeros(N))
            sched = build_schedule("default", (0, 1), N)
            probs = run_truncated(joint, beta, sched).probs
            pair = PairGibbsFactors.from_gibbs(gibbs_state(E, beta), 0, 1)
            for j in range(1, N + 1):
                bj = closed_form_entry_b(j, N, N, pair, b, c) / N
                cj = closed_form_entry_c(j, N, pair, b, c) / N
                assert abs(probs[j - 1] - bj) < 1e-10
                assert abs(probs[N + j - 1] - cj) < 1e-10
            q_engine = run_full_swap([b, c], E, beta, (0, 1), N)
            q_cf = final_state(N, pair, b, c)
            assert np.abs(q_engine - q_cf).max() < 1e-10


def test_03_infinite_temperature_rate_at_four_thousand_slots():
    with criterion(3, "delta * sqrt(pi N) within 2% of 1 at N = 4096"):
        N = 4096
        out = run_full_swap([1.0, 0.0], [0.0, 0.0], 0.0, (0, 1), N)
        ratio = total_variation(out, [0.0, 1.0]) * math.sqrt(math.pi * N)
        assert 0.98 <= ratio <= 1.02


def test_04_finite_temperature_rate_and_fitted_exponent():
    with criterion(4, "finite-temperature swap rate and fitted exponent"):
        gap = math.log(2.0)         # ground weight 2/3 at beta = 1
        E = np.array([0.0, gap])
        pair = PairGibbsFactors(2.0 / 3.0)
        target = np.array([0.5, 0.5])
        deltas = {}
        for N in (64, 96, 128, 160):
            q = run_full_swap([1.0, 0.0], E, 1.0, (0, 1), N)
            deltas[N] = total_variation(q, target)
        ratio = deltas[128] / predict_delta("swap_exponential", 128, p=(1.0, 0.0),
                                            pair=pair)
        assert 0.9 <= ratio <= 1.1
        fit = fit_exponential_rate(list(deltas), list(deltas.values()))
        a_true = math.log(9.0 / 8.0)
        assert abs(fit.exponent - a_true) / a_true < 0.05


def test_05_beta0_cycle_scaling_and_truncated_advantage():
    with criterion(5, "beta-0 cycle slope -0.5 and truncated <= full"):
        d = 6
        gamma = np.ones(d) / d
        sizes = [2 ** k for k in range(4, 11)]
        target = extreme_point(P6, gamma, nested_cycle_order(d, 1))
        chain = decompose_neighbour_transpositions(P6, gamma, target.order)
        deltas = np.array([
            total_variation(
                run_composed(P6, np.zeros(d), 0.0, chain, N, mode="truncated"),
                target.state)
            for N in sizes])
        slope = np.polyfit(np.log(sizes), np.log(deltas), 1)[0]
        assert abs(slope + 0.5) <= 0.05
        for cycles in range(1, d):
            tgt = extreme_point(P6, gamma, nested_cycle_order(d, cycles))
            ch = decompose_neighbour_transpositions(P6, gamma, tgt.order)
            for N in sizes:
                dt = total_variation(
                    run_composed(P6, np.zeros(d), 0.0, ch, N,
                                 mode="truncated"), tgt.state)
                df = total_variation(
                    run_composed(P6, np.zeros(d), 0.0, ch, N, mode="full"),
                    tgt.state)
                assert dt <= df + 1e-12


def test_06_finite_temperature_family_beats_sqrt_rate():
    with criterion(6, "15 finite-temperature targets beat the sqrt(N) rate"):
        beta = 0.1
        E = np.arange(6, dtype=float)
        g = gibbs_state(E, beta)
        sizes = np.array([16, 32, 64, 128, 256, 512])
        for _, _, order in cycle_family_orders(6):
            target = extreme_point(P6, g, order)
            chain = decompose_neighbour_transpositions(P6, g, order)
            deltas = np.array([
                total_variation(
                    run_composed(P6, E, beta, chain, int(N), mode="truncated"),
                    target.state)
                for N in sizes])
            assert np.all(deltas < 1.0 / np.sqrt(np.pi * sizes))
            ratios = deltas * np.sqrt(np.pi * sizes)
            assert np.all(np.diff(ratios) < 0)


def test_07_three_cycle_convergence_at_finite_temperature():
    with criterion(7, "beta-3-cycle halving and positive fitted exponent"):
        E = np.array([0.0, 0.6, 1.2])
        p = np.array([0.7, 0.2, 0.1])
        sizes = [2 ** k for k in range(3, 9)]
        for beta in (0.3, 1.0):
            g = gibbs_state(E, beta)
            order = beta_order(p, g)
            from memtp import beta_cycle_permutation
            tgt = beta_cycle_permutation(p, g, order.order, "forward")
            target = extreme_point(p, g, tgt)
            chain = decompose_neighbour_transpositions(p, g, tgt)
            deltas = [total_variation(
                run_composed(p, E, beta, chain, N, mode="truncated"),
                target.state) for N in sizes]
            for a, b in zip(deltas, deltas[1:]):
                assert b < a
            clean = [(N, dv) for N, dv in zip(sizes, deltas) if dv > 1e-13]
            fit = fit_exponential_rate([N for N, _ in clean],
                                  [dv for _, dv in clean])
            assert fit.exponent > 0


def test_08_traversal_families_agree():
    with criterion(8, "all traversal families give identical truncated output"):
        rng = np.random.default_rng(88)
        for _ in range(50):
            d = int(rng.integers(2, 4))
            N = int(rng.integers(2, 33))
            beta = rng.uniform(0.0, 2.0)
            E = np.sort(rng.uniform(0.0, 2.0, d))
            p = rng.dirichlet(np.ones(d))
            i, j = map(int, rng.choice(d, size=2, replace=False))
            joint = tensor(p, np.ones(N) / N, E, np.zeros(N))
            outputs = []
            for family in FAMILIES:
                variants = [0] if family in ("default", "blue", "red") \
                    else [0, 5]
                for variant in variants:
                    sched = build_schedule(family, (i, j), N, variant)
                    outputs.append(run_truncated(joint, beta, sched).probs)
            ref = outputs[0]
            for probs in outputs[1:]:
                assert np.abs(probs - ref).max() < 1e-12


def test_09_stepwise_monotonicity_suite():
    with criterion(9, "stepwise divergence decrease and thermomajorisation"):
        rng = np.random.default_rng(99)
        for _ in range(200):
            d = int(rng.integers(2, 5))
            N = int(rng.integers(2, 17))
            beta = rng.uniform(0.0, 2.0)
            E = np.sort(rng.uniform(0.0, 2.0, d))
            p = rng.dirichlet(np.ones(d))
            i, j = map(int, rng.choice(d, size=2, replace=False))
            joint = tensor(p, np.ones(N) / N, E, np.zeros(N))
            recorder = TrajectoryRecorder(joint, beta, store_states=True)
            run_truncated(joint, beta, build_schedule("default", (i, j), N),
                          recorder=recorder)
            div = recorder.joint_divergences()
            assert np.all(np.diff(div) <= 1e-10)
            G = joint_gibbs(joint, beta)
            states = [pt["joint"] for pt in recorder.points]
            for prev, cur in zip(states, states[1:]):
                assert thermomajorizes(prev, cur, G)


def test_10_special_function_identities():
    with criterion(10, "beta-CDF identities, binomial form, telescoping sum"):
        rng = np.random.default_rng(10)
        for _ in range(1000):
            x = rng.uniform(0.02, 0.98)
            a = rng.uniform(1.2, 60.0)
            b = rng.uniform(1.2, 60.0)
            i_ab = reg_inc_beta(x, a, b)
            # symmetry
            assert abs(i_ab + reg_inc_beta(1 - x, b, a) - 1.0) < 1e-12
            # equal arguments (on its half-domain)
            xa = x / 2.0
            assert abs(reg_inc_beta(xa, a, a)
                       - 0.5 * reg_inc_beta(4 * xa * (1 - xa), a, 0.5)) < 1e-12
            # the four one-step argument shifts
            t = math.exp(a * math.log(x) + b * math.log1p(-x) - log_beta(a, b))
            assert abs(i_ab - reg_inc_beta(x, a + 1, b) - t / a) < 1e-12
            assert abs(i_ab - reg_inc_beta(x, a, b + 1) + t / b) < 1e-12
            assert abs(i_ab - reg_inc_beta(x, a + 1, b - 1)
                       - t / (1 - x) / a) < 1e-12
            assert abs(i_ab - reg_inc_beta(x, a - 1, b + 1)
                       + t / x / b) < 1e-12
        for _ in range(200):
            a = int(rng.integers(1, 65))
            b = int(rng.integers(1, 65))
            x = rng.uniform(0.05, 0.95)
            n = a + b - 1
            tail = sum(math.comb(n, m) * x ** m * (1 - x) ** (n - m)
                       for m in range(a, n + 1))
            assert abs(reg_inc_beta(x, a, b) - tail) < 1e-12
        for N in (128, 256, 512):
            for x in (0.05, 0.1, 0.2, 0.3) + ((0.4,) if N == 512 else ()):
                s = sum(reg_inc_beta(x, N + 1 - i, N) for i in range(1, N + 1))
                expected = N * x / (1.0 - x)
                assert abs(s - expected) / expected < 1e-9


def test_11_work_extraction_memory_interpolation():
    with criterion(11, "work extraction errors shrink with memory to the"
                       " reference curve"):
        gap, beta = 1.0, 1.0
        config = WorkExtractionConfig(
            gap=gap, beta_source=2.0, beta=beta,
            works=tuple(np.linspace(-0.5, 2.0, 200)),
            memory_sizes=(1, 2, 4, 8, 16, 32, 64, 128))
        result = work_extraction(config)
        assert result.monotone
        eps_to = {r["W"]: r["epsilon_to"] for r in result.reference}
        for row in result.rows:
            assert row["epsilon"] >= eps_to[row["W"]] - 1e-10
        kink = result.kink
        for ref in result.reference:
            W = ref["W"]
            if abs(W) < 0.1 * gap or abs(W - kink) < 0.1 * gap:
                continue
            eps128 = next(r["epsilon"] for r in result.rows
                          if r["W"] == W and r["N"] == 128)
            assert abs(eps128 - ref["epsilon_to"]) <= 0.02


def test_12_cooling_grid_matches_closed_forms():
    with criterion(12, "cooling engine equals closed forms on the gap grid"):
        betas = (0.5, 1.0, 2.0)
        for a, es in enumerate((0.6, 1.0, 1.5)):
            for b, em in enumerate((0.25, 0.4, 0.7)):
                report = cooling_demo(es, em, betas[(a + b) % 3])
                assert np.abs(report.q_engine - report.q_closed_form).max() < 1e-12
                assert abs(report.distance_engine
                           - report.distance_closed_form) < 1e-12
                assert report.distance_closed_form > 0


def test_13_convergence_to_inaccessible_states():
    with criterion(13, "inaccessible-state convergence below 1/(2 sqrt N)"):
        sizes = [2 ** k for k in range(3, 9)]
        for d in (3, 4, 5, 6):
            res = inaccessible_convergence(np.arange(d, dtype=float), 1.1,
                                           sizes, beta=1.1 * math.log(2.0))
            assert res.monotone
            for row in res.rows:
                assert row["delta"] <= row["bound"]
        rng = np.random.default_rng(13)
        # interior of the (0, E1, E2, 1) grid: the extreme row E1 = 1/64
        # sits exactly on the bound and is excluded
        for _ in range(50):
            k1 = int(rng.integers(2, 63))
            k2 = int(rng.integers(k1 + 1, 64))
            res = inaccessible_convergence(
                np.array([0.0, k1 / 64.0, k2 / 64.0, 1.0]), 1.1, sizes)
            assert res.monotone
            for row in res.rows:
                assert row["delta"] <= row["bound"]


def test_14_future_cone_vertices_are_sound():
    with criterion(14, "cone vertices dominated by the source and complete"):
        rng = np.random.default_rng(14)
        for _ in range(100):
            d = int(rng.integers(2, 6))
            p = rng.dirichlet(np.ones(d))
            g = gibbs_state(rng.uniform(0.0, 2.0, d), rng.uniform(0.0, 2.0))
            identity_vertex = extreme_point(p, g, beta_order(p, g))
            assert total_variation(identity_vertex.state, p) < 1e-12
            for v in future_cone_vertices(p, g):
                assert thermomajorizes(p, v.state, g)
        for _ in range(20):
            d = int(rng.integers(2, 6))
            p = rng.dirichlet(np.ones(d))
            flat = np.ones(d) / d
            verts = future_cone_vertices(p, flat)
            from itertools import permutations
            expected = {tuple(np.round(np.array(s), 12))
                        for s in permutations(p)}
            got = {tuple(np.round(v.state, 12)) for v in verts}
            assert got == expected
