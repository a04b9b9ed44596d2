"""Convergence-rate predictions for memory-assisted swap protocols.

Leading-order total-variation errors as functions of the memory size N:

* ``swap_beta0``       : per-swap error at infinite temperature,
  (pi N)^(-1/2).
* ``chain_beta0``      : infinite-temperature error of a composed protocol,
  (2 sqrt(pi N))^(-1) * sum_i |(D p)_i| with D the first-order correction
  operator assembled from the chain's transpositions.
* ``dimension_bound``  : the state-independent bound d(d-1) / (2 sqrt(pi N)).
* ``subset_bound``     : the refined bound over the subset of levels the
  permutation touches.
* ``swap_exponential`` : the finite-temperature swap error, exponential in
  N with base 4 G_i G_j in the rescaled Gibbs factors of the pair.
* ``fitted``           : the fitted exponential model exp(c0 - A N) N^(-3/2).

``fit_exponential_rate`` recovers the exponent A from a measured series by
least squares with the N^(-3/2) prefactor power held fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closed_forms import PairGibbsFactors

SINGULARITY_TOL = 1e-9

__all__ = [
    "SINGULARITY_TOL", "RateSingularityError", "ExponentialRateFit",
    "transposition_matrix", "correction_operator", "predict_delta",
    "fit_exponential_rate",
]


class RateSingularityError(ValueError):
    """Raised where a finite-temperature formula degenerates."""


def transposition_matrix(d: int, i: int, j: int) -> np.ndarray:
    """Permutation matrix exchanging levels i and j."""
    m = np.eye(d)
    m[[i, j]] = m[[j, i]]
    return m


def correction_operator(d: int, chain) -> np.ndarray:
    """First-order correction operator of a composed swap protocol.

    For a chain of transpositions P_1 ... P_m (P_1 applied first) this is
    sum_l (P_m ... P_{l+1}) (1 - P_l) (P_{l-1} ... P_1): each summand
    replaces the l-th swap by its error direction and carries the rest of
    the chain through. One pass builds it, D <- P D + (1 - P) M, M <- P M
    from D = 0, M = 1; every entry is a small integer, so the sum is exact.
    """
    eye = np.eye(d)
    total = np.zeros((d, d))
    carried = eye
    for (i, j) in chain:
        P = transposition_matrix(d, i, j)
        total = P @ total + (eye - P) @ carried
        carried = P @ carried
    return total


def predict_delta(model: str, N: int, *, p=None, chain=None, dim=None,
                  levels=None, pair: PairGibbsFactors | None = None,
                  exponent: float | None = None,
                  intercept: float = 0.0) -> float:
    """Predicted total-variation distance of a protocol with memory size N."""
    if N < 1:
        raise ValueError("N must be >= 1")
    root = math.sqrt(math.pi * N)
    if model == "swap_beta0":
        return 1.0 / root
    if model == "chain_beta0":
        p = np.asarray(p, dtype=float)
        delta_op = correction_operator(p.size, chain)
        return float(np.abs(delta_op @ p).sum()) / (2.0 * root)
    if model == "dimension_bound":
        return dim * (dim - 1) / (2.0 * root)
    if model == "subset_bound":
        p = np.asarray(p, dtype=float)
        sub = p[np.asarray(levels, dtype=int)]
        return float(np.abs(sub[:, None] - sub[None, :]).sum()) / (2.0 * root)
    if model == "swap_exponential":
        gi, gj = pair.gamma_i, pair.gamma_j
        if abs(gi - gj) < SINGULARITY_TOL:
            raise RateSingularityError(
                "equal rescaled Gibbs factors: use the infinite-temperature "
                "(swap_beta0 / chain_beta0) model instead")
        pi_, pj_ = float(p[0]), float(p[1])
        base = math.exp(N * math.log(4.0 * gi * gj))
        return base * abs(pi_ * gj - pj_ * gi) / ((gi - gj) ** 2 * (N + 1) * root)
    if model == "fitted":
        return math.exp(intercept - exponent * N) * N ** -1.5
    raise ValueError(f"unknown model {model!r}")


@dataclass(frozen=True)
class ExponentialRateFit:
    """Least-squares fit of log delta = -A*N - (3/2) log N + c0."""

    exponent: float
    intercept: float
    residual: float

    def delta(self, N: int) -> float:
        return predict_delta("fitted", N, exponent=self.exponent,
                             intercept=self.intercept)


def fit_exponential_rate(memory_sizes, deltas) -> ExponentialRateFit:
    """Fit the exponential convergence model to a measured (N, delta) series.

    Requires at least four points with strictly positive deltas. The
    N^(-3/2) prefactor power is held fixed; only the exponent and the
    constant are estimated, which keeps the exponent stable on short
    desk-scale series.
    """
    ns = np.asarray(memory_sizes, dtype=float)
    ds = np.asarray(deltas, dtype=float)
    if ns.size != ds.size:
        raise ValueError("memory_sizes and deltas must have equal length")
    if ns.size < 4:
        raise ValueError("need at least 4 points to fit")
    if np.any(ds <= 0.0):
        raise ValueError("deltas must be strictly positive")
    y = np.log(ds) + 1.5 * np.log(ns)
    design = np.stack([-ns, np.ones_like(ns)], axis=1)
    coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    residual = float(np.linalg.norm(design @ coef - y))
    return ExponentialRateFit(float(coef[0]), float(coef[1]), residual)
