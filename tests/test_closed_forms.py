import math

import mpmath
import numpy as np
import pytest
from scipy.special import betainc

from memtp import (build_schedule, gibbs_state, run_composed, run_full_swap,
                   run_truncated, tensor, total_variation)
from memtp.closed_forms import (PairGibbsFactors, closed_form_entry_b,
                                closed_form_entry_c, target_residual, start_residual,
                                final_state, truncated_swap)
from memtp.engine import ProtocolSchedule, Run, _swap, _thermal_joint


def run_default_engine(b, c, gap, beta, N):
    """Joint entries of the default truncated protocol on a two-level system."""
    E = np.array([0.0, gap])
    joint = tensor([b, c], np.ones(N) / N, E, np.zeros(N))
    sched = build_schedule("default", (0, 1), N)
    return run_truncated(joint, beta, sched).probs


def test_pair_factors_sum_to_one_exactly():
    pair = PairGibbsFactors.from_gibbs([0.3, 0.5, 0.2], 0, 2)
    assert pair.gamma_i + pair.gamma_j == 1.0
    assert pair.gamma_i == pytest.approx(0.6)
    with pytest.raises(ValueError):
        PairGibbsFactors(1.0)


def test_round_zero_is_the_initial_condition():
    pair = PairGibbsFactors(0.7)
    for j in [1, 3, 9]:
        assert closed_form_entry_b(j, 0, 9, pair, 0.42, 0.1) == 0.42


def test_two_slot_walkthrough_sums():
    pair = PairGibbsFactors(0.5)
    bsum = sum(closed_form_entry_b(j, 2, 2, pair, 1.0, 0.0) for j in [1, 2]) / 2
    csum = sum(closed_form_entry_c(j, 2, pair, 1.0, 0.0) for j in [1, 2]) / 2
    assert bsum == pytest.approx(3 / 8, abs=1e-15)
    assert csum == pytest.approx(5 / 8, abs=1e-15)
    assert bsum == pytest.approx(start_residual(2, pair), abs=1e-15)


def test_target_entries_reduce_to_beta_cdf():
    # with all mass starting on the target side, slot j ends at I_gj(N, j)
    rng = np.random.default_rng(0)
    for _ in range(50):
        N = int(rng.integers(1, 40))
        j = int(rng.integers(1, N + 1))
        pair = PairGibbsFactors(rng.uniform(0.1, 0.9))
        val = closed_form_entry_c(j, N, pair, 0.0, 1.0)
        assert val == pytest.approx(betainc(N, j, pair.gamma_j), abs=1e-13)


def test_entries_match_engine_on_random_tuples():
    rng = np.random.default_rng(1)
    for _ in range(40):
        N = int(rng.integers(1, 33))
        beta = rng.uniform(0, 2)
        gap = rng.uniform(0, 2)
        b = rng.uniform(0, 1)
        c = 1.0 - b
        probs = run_default_engine(b, c, gap, beta, N)
        pair = PairGibbsFactors.from_gibbs(gibbs_state([0, gap], beta), 0, 1)
        for j in range(1, N + 1):
            assert probs[j - 1] * N == pytest.approx(
                closed_form_entry_b(j, N, N, pair, b, c), abs=1e-12)
            assert probs[N + j - 1] * N == pytest.approx(
                closed_form_entry_c(j, N, pair, b, c), abs=1e-12)


def test_intermediate_rounds_match_row_major_engine():
    # entry forms track rounds that fix one target slot and sweep all
    # source slots; run that order directly for a partial protocol
    rng = np.random.default_rng(2)
    for _ in range(20):
        N = int(rng.integers(2, 12))
        k = int(rng.integers(1, N))
        beta = rng.uniform(0, 2)
        gap = rng.uniform(0, 2)
        b = rng.uniform(0, 1)
        c = 1.0 - b
        E = np.array([0.0, gap])
        joint = tensor([b, c], np.ones(N) / N, E, np.zeros(N))
        runs = tuple(Run(N + m, np.arange(N)) for m in range(k))
        sched = ProtocolSchedule("default", 0, (0, 1), N, runs)
        probs = run_truncated(joint, beta, sched).probs
        pair = PairGibbsFactors.from_gibbs(gibbs_state(E, beta), 0, 1)
        for j in range(1, N + 1):
            assert probs[j - 1] * N == pytest.approx(
                closed_form_entry_b(j, k, N, pair, b, c), abs=1e-12)


def test_index_validation():
    pair = PairGibbsFactors(0.6)
    with pytest.raises(ValueError):
        closed_form_entry_b(0, 1, 4, pair, 1, 0)
    with pytest.raises(ValueError):
        closed_form_entry_b(2, 5, 4, pair, 1, 0)
    with pytest.raises(ValueError):
        closed_form_entry_c(5, 4, pair, 1, 0)
    for args in [(2.5, 1, 4), (2, 2.5, 4), (2, 1, 4.5)]:
        with pytest.raises(TypeError):
            closed_form_entry_b(*args, pair, 1, 0)
    with pytest.raises(TypeError):
        closed_form_entry_c(2.5, 4, pair, 1, 0)
    with pytest.raises(TypeError):
        closed_form_entry_c(2, 4.5, pair, 1, 0)
    with pytest.raises(TypeError):
        target_residual(2.5, pair)


# ---------------------------------------------------------------------------
# error functions
# ---------------------------------------------------------------------------

def test_error_functions_at_beta0_n2():
    pair = PairGibbsFactors(0.5)
    assert target_residual(2, pair) == pytest.approx(3 / 8, abs=1e-15)
    assert start_residual(2, pair) == pytest.approx(3 / 8, abs=1e-15)


def test_error_functions_match_cdf_identities():
    # E = I(N,N) - (gi/gj) I(N+1,N-1), F the mirrored combination
    rng = np.random.default_rng(3)
    for _ in range(40):
        N = int(rng.integers(2, 200))
        pair = PairGibbsFactors(rng.uniform(0.15, 0.85))
        gi, gj = pair.gamma_i, pair.gamma_j
        e_id = betainc(N, N, gj) - gi / gj * betainc(N + 1, N - 1, gj)
        f_id = ((1 - betainc(N, N, gj))
                - gj / gi * (1 - betainc(N - 1, N + 1, gj)))
        assert target_residual(N, pair) == pytest.approx(e_id, abs=1e-13)
        assert start_residual(N, pair) == pytest.approx(f_id, abs=1e-13)


def _mp_betainc(a, b, x):
    """I_x(a, b) in mpmath, for integer a, b >= 0 and the float x.

    Small arguments (and the a = 0, b = 0 edges) sum the binomial tail
    P[Binomial(a + b - 1, x) >= a]; larger ones use mpmath's betainc.
    """
    x = mpmath.mpf(x)
    n = a + b - 1
    if n <= 80 or a * b == 0:
        return mpmath.fsum(mpmath.binomial(n, m) * x**m * (1 - x)**(n - m)
                           for m in range(a, n + 1))
    return mpmath.betainc(a, b, 0, x, regularized=True)


@mpmath.workdps(50)
def test_closed_forms_match_high_precision_oracle():
    # every closed form against 50-digit references; the residual at N <= 40
    # is the slot mean of the target entries, its definition. mpmath's
    # betainc fails to converge for some arguments from N = 4096 on.
    rng = np.random.default_rng(5)
    for N in [1, 2, 3, 7, 16, 40, 64, 256, 1024, 2048]:
        for sigma in rng.uniform(0.2, 0.85, size=3):
            pair = PairGibbsFactors(1.0 - sigma)
            rho, sigma = pair.gamma_i, pair.gamma_j
            b = rng.uniform()
            c = 1.0 - b
            j = int(rng.integers(1, N + 1))
            k = int(rng.integers(0, N + 1))
            ref_b = (b * _mp_betainc(k, j, rho)
                     + c * rho / sigma * _mp_betainc(j, k, sigma))
            ref_c = (b * sigma / rho * _mp_betainc(j, N, rho)
                     + c * _mp_betainc(N, j, sigma))
            assert closed_form_entry_b(j, k, N, pair, b, c) == pytest.approx(
                float(ref_b), abs=1e-13)
            assert closed_form_entry_c(j, N, pair, b, c) == pytest.approx(
                float(ref_c), abs=1e-13)
            for p, x, y in [(target_residual, rho, sigma),
                            (start_residual, sigma, rho)]:
                if N <= 40:
                    ref = mpmath.fsum(_mp_betainc(N, i, y)
                                      for i in range(1, N + 1)) / N
                else:
                    ref = (_mp_betainc(N, N, y)
                           - x / y * _mp_betainc(N + 1, N - 1, y))
                assert p(N, pair) == pytest.approx(float(ref), abs=1e-13)


def test_start_residual_beta0_large_N_limit():
    pair = PairGibbsFactors(0.5)
    for N in [512, 4096, 100_000]:
        assert start_residual(N, pair) * math.sqrt(math.pi * N) == pytest.approx(
            1.0, abs=0.01)


def test_start_residual_finite_temperature_splits_into_swap_plus_tail():
    # F - (1 - gamma_j/gamma_i) approaches the exponentially small tail
    pair = PairGibbsFactors(2 / 3)
    gi, gj = pair.gamma_i, pair.gamma_j

    def tail_ratio(N):
        tail = (gj * (4 * gi * gj) ** N
                / ((N + 1) * math.sqrt(math.pi * N) * (gi - gj) ** 2))
        return (start_residual(N, pair) - (gi - gj) / gi) / tail

    assert tail_ratio(128) == pytest.approx(1.0, abs=0.1)
    assert abs(tail_ratio(128) - 1.0) < abs(tail_ratio(64) - 1.0)


def test_final_state_reconstructs_protocol_output():
    rng = np.random.default_rng(4)
    for _ in range(20):
        N = int(rng.integers(1, 64))
        beta = rng.uniform(0, 2)
        gap = rng.uniform(0, 2)
        b = rng.uniform(0, 1)
        q_engine = run_full_swap([b, 1 - b], [0, gap], beta, (0, 1), N)
        pair = PairGibbsFactors.from_gibbs(gibbs_state([0, gap], beta), 0, 1)
        q_cf = final_state(N, pair, b, 1 - b)
        assert total_variation(q_engine, q_cf) < 1e-12


@pytest.mark.parametrize("beta", [0.0, 0.1, 0.5])
@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_full_mode_chain_is_the_product_of_two_level_maps(d, beta):
    # full mode rethermalises the memory after every swap, so each swap
    # (i, j) maps (q_i, q_j) through final_state of its pair; the oracle
    # makes no engine call
    rng = np.random.default_rng(10 * d + int(10 * beta))
    E = np.sort(rng.uniform(0.0, 2.0, d))
    g = gibbs_state(E, beta)
    p = rng.dirichlet(np.ones(d))
    chain = [tuple(int(x) for x in rng.choice(d, 2, replace=False))
             for _ in range(d + 1)]
    for N in (64, 256, 1024, 2048):
        q = p.copy()
        for i, j in chain:
            q[[i, j]] = final_state(N, PairGibbsFactors.from_gibbs(g, i, j),
                                    q[i], q[j])
        out = run_composed(p, E, beta, chain, N, mode="full")
        assert np.abs(out - q).max() < 1e-12, N


@pytest.mark.parametrize("N", [1, 2, 5, 64, 256, 1024])
def test_truncated_swap_matches_the_kernel_on_any_rows(N):
    # the rows are moved off the thermal product state, as they are after
    # earlier swaps of a truncated run
    rng = np.random.default_rng(N)
    for levels, beta in [((0, 1), 0.0), ((0, 1), 0.7), ((1, 0), 2.0)]:
        E = [0.0, rng.uniform(0.2, 1.5)]
        grid, g, _, flat = _thermal_joint(rng.dirichlet([1, 1]), E, beta,
                                          [levels], N, None)
        grid *= rng.uniform(0.5, 1.5, grid.shape)
        i, j = levels
        out_a, out_b = truncated_swap(grid[i], grid[j],
                                      PairGibbsFactors.from_gibbs(g[:, 0], i, j))
        _swap(grid, g, [i], [j], flat)
        assert np.abs(out_a - grid[i]).max() < 1e-12
        assert np.abs(out_b - grid[j]).max() < 1e-12


def test_truncated_swap_rejects_rows_of_different_lengths():
    with pytest.raises(ValueError):
        truncated_swap([0.5, 0.5], [1.0], PairGibbsFactors(0.5))
    with pytest.raises(ValueError):
        truncated_swap([], [], PairGibbsFactors(0.5))


@pytest.mark.parametrize("beta", [0.0, 0.1, 0.5])
@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_truncated_chain_is_the_product_of_path_weight_swaps(d, beta):
    # truncated mode keeps the memory between swaps, so the oracle carries
    # the whole (d, N) grid through truncated_swap, swap by swap, and
    # discards the memory once; it makes no engine call. The chain starts
    # with a star in each role, which the runner runs as one wavefront each.
    rng = np.random.default_rng(20 * d + int(10 * beta))
    E = np.sort(rng.uniform(0.0, 2.0, d))
    g = gibbs_state(E, beta)
    p = rng.dirichlet(np.ones(d))
    hub, x, y = (int(v) for v in rng.permutation(d)[:3])
    chain = [(hub, x), (hub, y), (x, hub), (y, hub)] + [
        tuple(int(v) for v in rng.choice(d, 2, replace=False))
        for _ in range(d - 3)]
    for N in (64, 256, 1024) if d == 3 else (64, 256):
        grid = np.outer(p, np.full(N, 1.0 / N))
        for i, j in chain:
            grid[i], grid[j] = truncated_swap(
                grid[i], grid[j], PairGibbsFactors.from_gibbs(g, i, j))
        out = run_composed(p, E, beta, chain, N)
        assert np.abs(out - grid.sum(axis=1)).max() < 1e-12, N
