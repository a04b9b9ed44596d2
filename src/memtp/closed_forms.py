"""Closed forms for the two-level memory-assisted swap protocol.

For a two-level system started in (b, c) with an N-slot trivial memory, the
default truncated protocol admits explicit entry-wise expressions built
from binomial sums in the rescaled Gibbs factors of the level pair. These
serve as an independent oracle for the step-by-step engine, and yield the
two error functions whose large-N behaviour sets every convergence rate in
the package.

Sums are evaluated with multiplicative term updates in log space (naive
factorials overflow long before N = 4096), weighted through a single
log-sum-exp per sum. ``scipy.special`` is imported inside the functions
that sum, so importing the package does not load scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PairGibbsFactors", "closed_form_entry_b", "closed_form_entry_c",
    "target_residual", "start_residual", "final_state",
]


@dataclass(frozen=True)
class PairGibbsFactors:
    """Rescaled Gibbs factors of a level pair: gamma_i / (gamma_i + gamma_j).

    Only the first factor is stored; the second is derived, so the two sum
    to one exactly.
    """

    gamma_i: float

    def __post_init__(self):
        if not 0.0 < self.gamma_i < 1.0:
            raise ValueError("rescaled Gibbs factor must lie strictly in (0, 1)")

    @property
    def gamma_j(self) -> float:
        return 1.0 - self.gamma_i

    def swapped(self) -> "PairGibbsFactors":
        return PairGibbsFactors(self.gamma_j)

    @classmethod
    def from_gibbs(cls, gamma, i: int, j: int) -> "PairGibbsFactors":
        g = np.asarray(gamma, dtype=float)
        return cls(float(g[i] / (g[i] + g[j])))


def _log_binom_series(log_t0: float, count: int, ratio_num, ratio_den,
                      log_x: float) -> np.ndarray:
    """log of terms t_u = t0 * prod_{v<u} x * ratio_num(v)/ratio_den(v)."""
    out = np.empty(count)
    lt = log_t0
    for u in range(count):
        out[u] = lt
        lt += log_x + math.log(ratio_num(u)) - math.log(ratio_den(u))
    return out


def closed_form_entry_b(j: int, k: int, N: int, pair: PairGibbsFactors,
                        b: float, c: float) -> float:
    """Entry of memory slot j on the starting level after k protocol rounds.

    Round 0 returns the initial value b. Indices are 1-based with
    1 <= j <= N and 0 <= k <= N.
    """
    from scipy.special import logsumexp

    if not (1 <= j <= N):
        raise ValueError(f"slot index j={j} outside 1..{N}")
    if not (0 <= k <= N):
        raise ValueError(f"round index k={k} outside 0..{N}")
    if k == 0:
        return float(b)
    gi, gj = pair.gamma_i, pair.gamma_j
    lgi, lgj = math.log(gi), math.log(gj)
    # sum over i < k of C(j+i-1, i) gi^i, prefactor gi * gj^(j-1)
    c_part = math.exp(logsumexp(_log_binom_series(
        lgi + (j - 1) * lgj, k, lambda u: j + u, lambda u: u + 1, lgi)))
    # sum over 1 <= i <= j of C(j+k-1-i, k-1) gj^(j-i), prefactor gi^k;
    # substituting u = j - i gives terms C(k-1+u, k-1) gj^u from u = 0
    b_terms = _log_binom_series(
        k * lgi, j, lambda u: k + u, lambda u: u + 1, lgj)
    b_part = math.exp(logsumexp(b_terms))
    return c * c_part + b * b_part


def closed_form_entry_c(j: int, N: int, pair: PairGibbsFactors,
                        b: float, c: float) -> float:
    """Final entry of memory slot j on the target level after all N rounds.

    The coefficient of c is the regularised incomplete beta value
    I_{gamma_j}(N, j); the coefficient of b is the matching positive
    binomial sum with the finite-N depletion factors 1 - gamma_j^(N-u)
    kept explicitly.
    """
    from scipy.special import logsumexp

    if not (1 <= j <= N):
        raise ValueError(f"slot index j={j} outside 1..{N}")
    gi, gj = pair.gamma_i, pair.gamma_j
    lgi, lgj = math.log(gi), math.log(gj)
    c_terms = _log_binom_series(
        N * lgj, j, lambda u: N + u, lambda u: u + 1, lgi)
    c_part = math.exp(logsumexp(c_terms))
    if j == 1:
        b_part = gj * (-math.expm1(N * lgj)) / gi
    else:
        b_terms = _log_binom_series(
            lgj + (j - 2) * lgi, N, lambda u: u + j - 1, lambda u: u + 1, lgj)
        depletion = -np.expm1((N - np.arange(N)) * lgj)
        b_part = math.exp(logsumexp(b_terms, b=depletion))
    return c * c_part + b * b_part


def target_residual(N: int, pair: PairGibbsFactors) -> float:
    """Final population left on the swap's target level when starting there.

    Exact finite sum (1/N) sum_j c_j^(N) at b = 0, c = 1, reduced to a
    single weighted binomial sum. Vanishes as N grows: an ideal swap
    empties the target level completely.
    """
    from scipy.special import logsumexp

    if N < 1:
        raise ValueError("N must be >= 1")
    gi, gj = pair.gamma_i, pair.gamma_j
    terms = _log_binom_series(
        N * math.log(gj), N, lambda u: N + u, lambda u: u + 1, math.log(gi))
    weights = (N - np.arange(N)) / N
    return float(math.exp(logsumexp(terms, b=weights)))


def start_residual(N: int, pair: PairGibbsFactors) -> float:
    """Final population left on the swap's starting level when starting there.

    Mirror of ``target_residual`` with the Gibbs factors exchanged; its
    large-N limit is 1 - gamma_j / gamma_i rather than zero, and the
    deviation from that limit carries the exponential convergence tail.
    """
    return target_residual(N, pair.swapped())


def final_state(N: int, pair: PairGibbsFactors, b: float, c: float) -> np.ndarray:
    """System state after the full protocol, from the two residuals.

    q = b (F, 1 - F) + c (1 - E, E) with F and E the start and target
    residuals; reconstructs the engine output of the default swap
    protocol exactly.
    """
    e = target_residual(N, pair)
    f = start_residual(N, pair)
    return np.array([b * f + c * (1.0 - e), b * (1.0 - f) + c * e])
