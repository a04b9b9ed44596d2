import math

import numpy as np
import pytest

from memtp.closed_forms import PairGibbsFactors
from memtp.rates import (RateSingularityError, correction_operator,
                         fit_exponential_rate, predict_delta,
                         transposition_matrix)


def test_swap_beta0_value():
    assert predict_delta("swap_beta0", 100) == pytest.approx(
        1.0 / math.sqrt(100 * math.pi))
    assert predict_delta("swap_beta0", 100) == pytest.approx(0.0564, abs=1e-4)


def test_dimension_bound_two_levels_matches_swap_rate():
    for N in [4, 64, 1000]:
        assert predict_delta("dimension_bound", N, dim=2) == pytest.approx(
            predict_delta("swap_beta0", N))


def test_chain_model_single_swap_reduces_to_population_difference():
    p = np.array([0.7, 0.2, 0.1])
    for N in [16, 256]:
        val = predict_delta("chain_beta0", N, p=p, chain=[(0, 2)])
        assert val == pytest.approx(abs(p[0] - p[2]) / math.sqrt(math.pi * N))


def test_correction_operator_combines_chain_errors():
    # two disjoint swaps: errors add because the other swap carries through
    d = 4
    chain = [(0, 1), (2, 3)]
    delta = correction_operator(d, chain)
    p01 = transposition_matrix(d, 0, 1)
    p23 = transposition_matrix(d, 2, 3)
    expected = p23 @ (np.eye(d) - p01) + (np.eye(d) - p23) @ p01
    assert np.allclose(delta, expected)


def _correction_operator_sum(d, chain):
    """sum_l (P_m ... P_{l+1}) (1 - P_l) (P_{l-1} ... P_1), term by term."""
    mats = [transposition_matrix(d, i, j) for (i, j) in chain]
    prefix = [np.eye(d)]
    for mat in mats:
        prefix.append(mat @ prefix[-1])
    suffix = [np.eye(d)]
    for mat in reversed(mats):
        suffix.append(suffix[-1] @ mat)
    suffix.reverse()  # suffix[l] = P_m ... P_{l+1} with 1-based l
    total = np.zeros((d, d))
    for l, mat in enumerate(mats):
        total += suffix[l + 1] @ (np.eye(d) - mat) @ prefix[l]
    return total


def test_correction_operator_equals_prefix_suffix_sum():
    rng = np.random.default_rng(5)
    for _ in range(500):
        d = int(rng.integers(2, 8))
        chain = [tuple(int(k) for k in rng.choice(d, size=2, replace=False))
                 for _ in range(int(rng.integers(0, 22)))]
        assert np.array_equal(correction_operator(d, chain),
                              _correction_operator_sum(d, chain))


def test_swap_exponential_value():
    pair = PairGibbsFactors(2 / 3)
    N = 64
    expected = ((8 / 9) ** N * (1 / 3)
                / ((1 / 3) ** 2 * (N + 1) * math.sqrt(math.pi * N)))
    got = predict_delta("swap_exponential", N, p=(1.0, 0.0), pair=pair)
    assert got == pytest.approx(expected, rel=1e-12)


def test_swap_exponential_rejects_degenerate_pair():
    with pytest.raises(RateSingularityError):
        predict_delta("swap_exponential", 16, p=(1.0, 0.0),
                      pair=PairGibbsFactors(0.5))


def test_subset_bound_sum():
    p = np.array([0.5, 0.3, 0.15, 0.05])
    N = 25
    got = predict_delta("subset_bound", N, p=p, levels=[0, 1, 2])
    pairwise = 2 * (abs(0.5 - 0.3) + abs(0.5 - 0.15) + abs(0.3 - 0.15))
    assert got == pytest.approx(pairwise / (2 * math.sqrt(math.pi * N)))


def test_predictions_decay_in_memory_size():
    vals = [predict_delta("swap_exponential", N, p=(0.9, 0.1),
                          pair=PairGibbsFactors(0.7))
            for N in [4, 8, 16, 32, 64]]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert all(v >= 0 for v in vals)


def test_fit_recovers_synthetic_exponent():
    A, c0 = 0.1, 1.7
    ns = np.array([8, 16, 32, 64, 128, 256])
    ds = np.exp(c0 - A * ns) * ns ** -1.5
    fit = fit_exponential_rate(ns, ds)
    assert fit.exponent == pytest.approx(A, rel=1e-10)
    assert fit.intercept == pytest.approx(c0, rel=1e-10)
    assert fit.residual < 1e-10
    assert fit.delta(64) == pytest.approx(ds[3], rel=1e-9)


def test_fit_on_pure_power_law_gives_small_exponent():
    # a 1/sqrt(N) series has no exponential part; the fitted exponent only
    # absorbs the log N mismatch and shrinks as the grid moves out
    ns = np.array([2 ** k for k in range(4, 11)])
    fit = fit_exponential_rate(ns, 1.0 / np.sqrt(np.pi * ns))
    assert abs(fit.exponent) < 5e-3
    far = np.array([2 ** k for k in range(8, 12)])
    fit_far = fit_exponential_rate(far, 1.0 / np.sqrt(np.pi * far))
    assert abs(fit_far.exponent) < abs(fit.exponent)


def test_fit_validates_input():
    with pytest.raises(ValueError):
        fit_exponential_rate([8, 16, 32], [1e-2, 1e-3, 1e-4])
    with pytest.raises(ValueError):
        fit_exponential_rate([8, 16, 32, 64], [1e-2, 1e-3, 0.0, 1e-5])


def test_unknown_model_rejected():
    with pytest.raises(ValueError):
        predict_delta("parabolic", 8)
