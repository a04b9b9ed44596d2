"""Energy-incoherent states, Gibbs states and the thermomajorisation order.

A state of a d-level system is a probability vector over energy eigenstates.
This module provides the basic value types (validated probability vectors,
energy spectra, beta-orders, thermomajorisation curves, joint system-memory
states) and the order-theoretic and entropic operations built on them.

All functions are pure: inputs are never mutated and returned arrays are
fresh. Natural logarithms are used throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Numerical tolerances shared across the package.
TOL_NEG = 1e-12     # distribution entries in [-TOL_NEG, 0) are clamped to 0
TOL_NORM = 1e-10    # allowed deviation of a distribution's sum from 1
TOL_CMP = 1e-12     # slack when comparing thermomajorisation curves
TOL_SLOPE = 1e-10   # slack when checking curve concavity

__all__ = [
    "TOL_NEG", "TOL_NORM", "TOL_CMP", "TOL_SLOPE",
    "spectrum", "distribution", "gibbs_state",
    "BetaOrder", "beta_order",
    "ThermoCurve", "thermo_curve", "curve_eval", "thermomajorizes",
    "total_variation", "relative_entropy",
    "JointState", "tensor", "marginalize", "joint_gibbs", "mutual_information",
]


def spectrum(energies) -> np.ndarray:
    """Validate an energy spectrum: finite floats, length >= 1, any order."""
    arr = np.array(energies, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("spectrum must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(arr)):
        raise ValueError("spectrum entries must be finite")
    return arr


def distribution(probs) -> np.ndarray:
    """Validate a probability vector, clamping tiny negatives to zero.

    Entries below ``-TOL_NEG`` and sums deviating from 1 by more than
    ``TOL_NORM`` are rejected. The returned array is a fresh copy.
    """
    arr = np.array(probs, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("distribution must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(arr)):
        raise ValueError("distribution entries must be finite")
    if np.any(arr < -TOL_NEG):
        raise ValueError(f"distribution has entry below -{TOL_NEG}")
    arr[arr < 0.0] = 0.0
    total = arr.sum()
    if abs(total - 1.0) > TOL_NORM:
        raise ValueError(f"distribution sums to {total}, not 1")
    return arr


def gibbs_state(energies, beta: float) -> np.ndarray:
    """Thermal state exp(-beta * E_i) / Z for inverse temperature beta >= 0.

    Energies are shifted by their minimum before exponentiation so that
    large spectra do not underflow.
    """
    E = spectrum(energies)
    if not np.isfinite(beta) or beta < 0:
        raise ValueError("beta must be finite and non-negative")
    w = np.exp(-beta * (E - E.min()))
    return w / w.sum()


@dataclass(frozen=True)
class BetaOrder:
    """A beta-order: the permutation sorting p_i / gamma_i non-increasingly.

    ``order[k]`` is the (0-based) level occupying beta-position k; the
    forward rank map is exposed as ``ranks``. Ties are broken by ascending
    level index, so the order is deterministic.
    """

    order: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.order) != list(range(len(self.order))):
            raise ValueError(f"not a permutation of 0..{len(self.order) - 1}")

    def __len__(self) -> int:
        return len(self.order)

    @property
    def ranks(self) -> np.ndarray:
        """ranks[i] = beta-position of level i (the forward permutation)."""
        r = np.empty(len(self.order), dtype=int)
        r[list(self.order)] = np.arange(len(self.order))
        return r


def _check_pair(p, gamma) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(p, dtype=float)
    g = np.asarray(gamma, dtype=float)
    if p.shape != g.shape:
        raise ValueError(f"state has {p.size} levels but gamma has {g.size}")
    if np.any(g <= 0.0):
        raise ValueError("gamma must be strictly positive: the Gibbs weights "
                         f"of levels {np.flatnonzero(g <= 0.0).tolist()} "
                         "are 0")
    return p, g


def beta_order(p, gamma) -> BetaOrder:
    """Beta-order of p relative to the thermal state gamma.

    Sorts the ratios p_i / gamma_i non-increasingly; equal ratios keep
    ascending level index (stable).
    """
    p, g = _check_pair(p, gamma)
    idx = np.lexsort((np.arange(p.size), -(p / g)))
    return BetaOrder(tuple(int(i) for i in idx))


@dataclass(frozen=True, eq=False)
class ThermoCurve:
    """Piecewise-linear thermomajorisation curve through d+1 knots.

    Knot k is the pair of beta-ordered partial sums
    (sum gamma, sum p) with endpoints pinned to (0,0) and (1,1); the curve
    is concave by construction.
    """

    xs: np.ndarray
    ys: np.ndarray


def thermo_curve(p, gamma) -> ThermoCurve:
    """Thermomajorisation curve of p relative to gamma.

    Partial sums are normalised by their totals so that curves always end
    exactly at (1,1); inputs already sum to 1 within TOL_NORM so this moves
    knots by at most that much.
    """
    p, g = _check_pair(p, gamma)
    order = list(beta_order(p, g).order)
    xs = np.concatenate([[0.0], np.cumsum(g[order])])
    ys = np.concatenate([[0.0], np.cumsum(p[order])])
    xs /= xs[-1]
    ys /= ys[-1]
    return ThermoCurve(xs, ys)


def curve_eval(curve: ThermoCurve, x):
    """Evaluate a curve at x in [0, 1] by linear interpolation (exact at knots)."""
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0.0) or np.any(x_arr > 1.0):
        raise ValueError("curve argument outside [0, 1]")
    out = np.interp(x_arr, curve.xs, curve.ys)
    return float(out) if np.isscalar(x) or x_arr.ndim == 0 else out


def thermomajorizes(p, q, gamma) -> bool:
    """Whether p thermomajorizes q relative to gamma.

    True iff the curve of p lies above the curve of q everywhere, checked
    at the union of knot x-coordinates (sufficient for piecewise-linear
    curves with a concave upper member). With uniform gamma this is
    ordinary majorisation.
    """
    cp = thermo_curve(p, gamma)
    cq = thermo_curve(q, gamma)
    xs = np.union1d(cp.xs, cq.xs)
    return bool(np.all(np.interp(xs, cp.xs, cp.ys)
                       >= np.interp(xs, cq.xs, cq.ys) - TOL_CMP))


def total_variation(p, q) -> float:
    """Total variation distance, half the 1-norm of p - q."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {q.shape}")
    return 0.5 * float(np.abs(p - q).sum())


def _divergence(q, g):
    return np.sum(q * (np.log(q) - np.log(g)), axis=-1)


def relative_entropy(p, gamma):
    """Relative entropy D(p || gamma) in nats, with 0 log 0 := 0.

    ``p`` is one distribution (n,) or a stack of them (m, n); ``gamma`` is
    one reference (n,) for every row or one per row (m, n). A 1-d ``p``
    gives a float, a stack an array of m values. A row with a zero entry
    is summed over its positive entries only, so each stacked value is
    bitwise equal to the 1-d call on its row. Raises if p puts mass where
    gamma vanishes (cannot happen for Gibbs reference states at finite
    beta).
    """
    p = np.asarray(p, dtype=float)
    g = np.asarray(gamma, dtype=float)
    if p.ndim not in (1, 2) or g.shape not in (p.shape, p.shape[-1:]):
        raise ValueError(f"length mismatch: {p.shape} vs {g.shape}")
    q = np.atleast_2d(p)
    G = np.broadcast_to(g, q.shape)
    pos = q > 0.0
    if np.any(G[pos] <= 0.0):
        raise ValueError("p has mass where gamma vanishes")
    full = pos.all(axis=1)
    if full.all():
        out = _divergence(q, g)
    else:
        out = np.empty(len(q))
        out[full] = _divergence(q[full], G[full])
        for r in np.flatnonzero(~full):
            out[r] = _divergence(q[r][pos[r]], G[r][pos[r]])
    return float(out[0]) if p.ndim == 1 else out


@dataclass(frozen=True, eq=False)
class JointState:
    """A system (x) memory state with both spectra attached.

    Entry ``N*i + j`` (0-based) holds system level i, memory level j, so
    ``probs.reshape(d, N)`` has systems along rows and memory along columns.
    """

    system_dim: int
    memory_dim: int
    probs: np.ndarray
    system_spectrum: np.ndarray
    memory_spectrum: np.ndarray

    def __post_init__(self):
        if self.system_dim < 1 or self.memory_dim < 1:
            raise ValueError("dimensions must be >= 1")
        if self.probs.size != self.system_dim * self.memory_dim:
            raise ValueError("probs length does not match d * N")
        if self.system_spectrum.size != self.system_dim:
            raise ValueError("system spectrum length mismatch")
        if self.memory_spectrum.size != self.memory_dim:
            raise ValueError("memory spectrum length mismatch")

    @property
    def grid(self) -> np.ndarray:
        """View of probs as a (d, N) array."""
        return self.probs.reshape(self.system_dim, self.memory_dim)

    def replace_probs(self, probs: np.ndarray) -> "JointState":
        return JointState(self.system_dim, self.memory_dim,
                          np.asarray(probs, dtype=float),
                          self.system_spectrum, self.memory_spectrum)


def tensor(system, memory, system_spectrum, memory_spectrum=None) -> JointState:
    """Product state system (x) memory under the N*i + j index convention."""
    p = distribution(system)
    m = distribution(memory)
    es = spectrum(system_spectrum)
    em = (np.zeros(m.size) if memory_spectrum is None
          else spectrum(memory_spectrum))
    if es.size != p.size or em.size != m.size:
        raise ValueError("spectrum lengths must match state lengths")
    return JointState(p.size, m.size, np.kron(p, m), es, em)


def marginalize(joint: JointState, keep: str) -> np.ndarray:
    """Marginal of a joint state; ``keep`` is "system" or "memory"."""
    if keep == "system":
        return joint.grid.sum(axis=1)
    if keep == "memory":
        return joint.grid.sum(axis=0)
    raise ValueError(f"keep must be 'system' or 'memory', got {keep!r}")


def joint_gibbs(joint: JointState, beta: float) -> np.ndarray:
    """Gibbs state of the composite spectrum, as a product of the parts."""
    return np.kron(gibbs_state(joint.system_spectrum, beta),
                   gibbs_state(joint.memory_spectrum, beta))


def mutual_information(joint: JointState) -> float:
    """Mutual information between system and memory, in nats."""
    pS = marginalize(joint, "system")
    pM = marginalize(joint, "memory")
    return relative_entropy(joint.probs, np.kron(pS, pM))
