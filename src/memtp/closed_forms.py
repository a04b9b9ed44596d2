"""Closed forms for the two-level memory-assisted swap protocol.

For a two-level system started in (b, c) with an N-slot trivial memory,
the default truncated protocol has explicit entry-wise expressions. They
serve as an independent oracle for the step-by-step engine, and give the
two residuals whose large-N behaviour sets every convergence rate in the
package.

With a flat memory spectrum every cell of the N×N thermalisation grid has
the same factors rho = gamma_i / (gamma_i + gamma_j) and sigma = 1 - rho:
it passes the fraction rho of its pair sum on along its row (the starting
level) and sigma down its column (the target level), whichever channel
the mass came in on. So each unit of input mass takes a directed random
walk over the grid, and each final entry is an exit probability of that
walk: the chance that a steps of one kind come before b steps of the
other. That negative-binomial probability is one regularised incomplete
beta value,

    I_x(a, b) = P[Binomial(a + b - 1, x) >= a] = betainc(a, b, x).

Mass that enters on the other channel takes one step fewer of one kind and
one more of the other, which the ratio rho / sigma (or its inverse)
accounts for. ``scipy.special`` is imported inside the functions that call
``betainc``, so importing the package does not load scipy.

The same walk gives one truncated swap exactly from any input rows, not
just a thermal memory (``truncated_swap``): mass that enters the grid at
row k' (or column l') leaves it at row k (or column l) with the
negative-binomial probability of the steps in between. Those weights are
an engine-free oracle for the wavefront kernel in truncated mode, where
the memory is not rethermalised between swaps.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PairGibbsFactors", "closed_form_entry_b", "closed_form_entry_c",
    "target_residual", "start_residual", "final_state", "truncated_swap",
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


def _slot(j: int, N: int) -> int:
    j = operator.index(j)
    if not 1 <= j <= operator.index(N):
        raise ValueError(f"slot index j={j} outside 1..{N}")
    return j


def closed_form_entry_b(j: int, k: int, N: int, pair: PairGibbsFactors,
                        b: float, c: float) -> float:
    """Entry of memory slot j on the starting level after k protocol rounds.

    b I_rho(k, j) + c (rho/sigma) I_sigma(j, k); round 0 returns the initial
    value b. Indices are 1-based with 1 <= j <= N and 0 <= k <= N.
    """
    from scipy.special import betainc

    j = _slot(j, N)
    k = operator.index(k)
    if not 0 <= k <= N:
        raise ValueError(f"round index k={k} outside 0..{N}")
    rho, sigma = pair.gamma_i, pair.gamma_j
    return float(b * betainc(k, j, rho)
                 + c * (rho / sigma) * betainc(j, k, sigma))


def closed_form_entry_c(j: int, N: int, pair: PairGibbsFactors,
                        b: float, c: float) -> float:
    """Final entry of memory slot j on the target level after all N rounds.

    b (sigma/rho) I_rho(j, N) + c I_sigma(N, j).
    """
    from scipy.special import betainc

    j = _slot(j, N)
    rho, sigma = pair.gamma_i, pair.gamma_j
    return float(b * (sigma / rho) * betainc(j, N, rho)
                 + c * betainc(N, j, sigma))


def target_residual(N: int, pair: PairGibbsFactors) -> float:
    """Final population left on the swap's target level when starting there.

    The mean over slots of I_sigma(N, j) (the target entries at b = 0,
    c = 1), summed in closed form to I_sigma(N, N) - (rho/sigma)
    I_sigma(N + 1, N - 1). Vanishes as N grows: an ideal swap empties the
    target level completely.
    """
    from scipy.special import betainc

    if operator.index(N) < 1:
        raise ValueError("N must be >= 1")
    rho, sigma = pair.gamma_i, pair.gamma_j
    return float(betainc(N, N, sigma)
                 - rho / sigma * betainc(N + 1, N - 1, sigma))


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


def truncated_swap(a, b, pair: PairGibbsFactors) -> tuple[np.ndarray, np.ndarray]:
    """One default-schedule swap of levels i and j with a flat memory.

    ``a`` and ``b`` are the N memory slots of levels i and j in the joint
    state (any non-negative rows, not only thermal ones), and ``pair``
    holds rho = gamma_i / (gamma_i + gamma_j). Returns the two rows after
    the swap, from the path weights of the walk in the module docstring:

        out_a[k] = sum_{k' <= k} C(N-1+n, n) rho^N sigma^n a[k']      (n = k - k')
                   + sum_l C(N-1-l+k, k) rho^(N-l) sigma^k b[l]
        out_b[l] = sum_{k'} C(N-1-k'+l, l) rho^l sigma^(N-k') a[k']
                   + sum_{l' <= l} C(N-1+m, m) sigma^N rho^m b[l']    (m = l - l')

    Each weight is a negative-binomial probability, C(r-1+k, k) x^r
    (1-x)^k, taken from ``scipy.stats.nbinom.pmf`` so that it neither
    overflows nor loses digits at large N. Column 0 of each cross block
    holds the Toeplitz weights of its row's own block, which is one
    ``np.convolve``. The cross blocks are dense N x N arrays: this is a
    test oracle, O(N^2) in time and memory, and no runner calls it.
    """
    from scipy.stats import nbinom

    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    N = a.size
    if a.shape != (N,) or b.shape != (N,) or N < 1:
        raise ValueError("a and b must be two rows of the same length N >= 1")
    k = np.arange(N)[:, None]
    r = N - np.arange(N)
    to_a = nbinom.pmf(k, r, pair.gamma_i)    # [k, l]: b[l] -> out_a[k]
    to_b = nbinom.pmf(k, r, pair.gamma_j)    # [l, k']: a[k'] -> out_b[l]
    return (np.convolve(a, to_a[:, 0])[:N] + to_a @ b,
            np.convolve(b, to_b[:, 0])[:N] + to_b @ a)
