"""Extreme points of the future thermal cone and beta-order combinatorics.

The set of states reachable from p by Gibbs-preserving stochastic maps is a
polytope with at most d! vertices, one candidate per beta-order. Vertices
are built by reading the thermomajorisation curve of p at the cumulative
Gibbs weights of the candidate order. This module also provides the
beta-swap matrix (the Gibbs-stochastic analogue of a transposition), cyclic
rearrangements of beta-neighbouring levels, and the decomposition of a
target order change into neighbour transpositions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .states import (BetaOrder, beta_order, curve_eval, distribution,
                     thermo_curve, total_variation)

MAX_ENUM_DIM = 8            # d! vertex enumeration guard
VERTEX_DEDUP_TOL = 1e-12    # total-variation threshold for duplicate vertices

__all__ = [
    "CapacityError", "ExtremePoint",
    "extreme_point", "future_cone_vertices", "beta_swap_matrix",
    "decompose_neighbour_transpositions", "beta_cycle_permutation",
    "MAX_ENUM_DIM", "VERTEX_DEDUP_TOL",
]


class CapacityError(ValueError):
    """Requested enumeration exceeds the desk-scale guard."""


@dataclass(frozen=True, eq=False)
class ExtremePoint:
    """A future-cone vertex: the state together with the order labelling it."""

    state: np.ndarray
    order: BetaOrder


def _as_order(pi, d: int) -> BetaOrder:
    if isinstance(pi, BetaOrder):
        order = pi
    else:
        order = BetaOrder(tuple(int(i) for i in pi))
    if len(order) != d:
        raise ValueError(f"permutation length {len(order)} != dimension {d}")
    return order


def extreme_point(p, gamma, pi) -> ExtremePoint:
    """Vertex of the future thermal cone of p labelled by the order pi.

    ``pi`` gives the level sequence of the target beta-order (position k is
    occupied by level pi[k]). Knot abscissas are the cumulative Gibbs
    weights in that order; ordinates are read off the curve of p; entries
    of the vertex are consecutive differences routed back to level indices.
    """
    p = distribution(p)
    g = distribution(gamma)
    order = _as_order(pi, p.size)
    curve = thermo_curve(p, g)
    xs = np.concatenate([[0.0], np.cumsum(g[list(order.order)])])
    xs /= xs[-1]
    ys = curve_eval(curve, xs)
    state = (ys[1:] - ys[:-1])[order.ranks]
    # differences of a monotone curve: clamp roundoff, keep exact total
    state[state < 0.0] = 0.0
    return ExtremePoint(state, order)


def future_cone_vertices(p, gamma) -> list[ExtremePoint]:
    """All distinct vertex candidates of the future thermal cone of p.

    Enumerates one candidate per permutation (d! of them, guarded at
    ``MAX_ENUM_DIM``) and keeps a candidate when it lies farther than
    ``VERTEX_DEDUP_TOL`` in total variation from every vertex kept before
    it. Every returned state is thermomajorised by p.

    Kept vertices are filed in buckets of one scalar key,
    ``floor(state @ w / width)`` with ``w = linspace(1, 0.5, d)`` and
    ``width = 4 * VERTEX_DEDUP_TOL``, and a candidate is compared only with
    those in its own and the two neighbouring buckets. This skips no
    duplicate: two states within total variation tol differ by at most
    2 * tol in 1-norm, so their projections on w (max |w| = 1) differ by at
    most 2 * tol, half a bucket. Float rounding of the dot product is of
    order d * 1e-16, far below the other half, so the keys of a duplicate
    pair differ by at most one.
    """
    p = distribution(p)
    g = distribution(gamma)
    d = p.size
    if d > MAX_ENUM_DIM:
        raise CapacityError(
            f"dimension {d} exceeds enumeration guard {MAX_ENUM_DIM}")
    w = np.linspace(1.0, 0.5, d)
    width = 4.0 * VERTEX_DEDUP_TOL
    buckets: dict[int, list[np.ndarray]] = {}
    vertices: list[ExtremePoint] = []
    for perm in permutations(range(d)):
        cand = extreme_point(p, g, perm)
        key = math.floor(cand.state @ w / width)
        if all(total_variation(cand.state, kept) > VERTEX_DEDUP_TOL
               for k in (key - 1, key, key + 1)
               for kept in buckets.get(k, ())):
            vertices.append(cand)
            buckets.setdefault(key, []).append(cand.state)
    return vertices


def beta_swap_matrix(i: int, j: int, gamma) -> np.ndarray:
    """Gibbs-stochastic matrix swapping the beta-order of levels i and j.

    The 2x2 block is [[1 - r, 1], [r, 0]] with r = gamma_j / gamma_i on the
    lower-energy level i; roles are swapped automatically when the caller
    passes them the other way round (r must not exceed 1). At beta = 0 the
    block degenerates to an exact transposition. Leaves gamma invariant.
    """
    g = distribution(gamma)
    if i == j:
        raise ValueError("i and j must differ")
    if not (0 <= i < g.size and 0 <= j < g.size):
        raise ValueError("level index out of range")
    if g[i] < g[j]:
        i, j = j, i
    r = g[j] / g[i]
    m = np.eye(g.size)
    m[i, i] = 1.0 - r
    m[i, j] = 1.0
    m[j, i] = r
    m[j, j] = 0.0
    return m


def decompose_neighbour_transpositions(
        p, gamma, target_pi) -> tuple[tuple[int, int], ...]:
    """Neighbour-transposition chain from the beta-order of p to target_pi.

    A tuple of level pairs, each adjacent in the beta-order as it stands
    after the earlier swaps; composing them all maps the order of p to the
    target. Built by bubble sort: repeated left-to-right passes swapping
    beta-adjacent levels inverted relative to the target, so the length is
    the inversion count, at most d(d-1)/2.
    """
    p = distribution(p)
    g = distribution(gamma)
    target = _as_order(target_pi, p.size)
    cur = list(beta_order(p, g).order)
    rank_t = {lvl: k for k, lvl in enumerate(target.order)}
    swaps: list[tuple[int, int]] = []
    changed = True
    while changed:
        changed = False
        for pos in range(len(cur) - 1):
            if rank_t[cur[pos]] > rank_t[cur[pos + 1]]:
                swaps.append((cur[pos], cur[pos + 1]))
                cur[pos], cur[pos + 1] = cur[pos + 1], cur[pos]
                changed = True
    return tuple(swaps)


def beta_cycle_permutation(p, gamma, levels, direction: str = "forward") -> BetaOrder:
    """Target beta-order produced by a beta-k-cycle on the given levels.

    ``levels`` must be listed in beta-order of p and occupy consecutive
    beta-positions. For ``direction="forward"`` each level moves one
    position down the order and the last wraps to the front (a full
    d-cycle turns the identity order into (d, 1, ..., d-1)); "backward"
    cycles the other way (giving (2, ..., d, 1)).
    """
    p = distribution(p)
    g = distribution(gamma)
    levels = [int(x) for x in levels]
    if len(set(levels)) != len(levels) or len(levels) < 2:
        raise ValueError("levels must be at least two distinct indices")
    order = beta_order(p, g)
    ranks = order.ranks
    pos = [int(ranks[lvl]) for lvl in levels]
    if pos != list(range(pos[0], pos[0] + len(levels))):
        raise ValueError("levels are not neighbouring in the beta-order of p")
    if direction == "forward":
        block = [levels[-1]] + levels[:-1]
    elif direction == "backward":
        block = levels[1:] + levels[:1]
    else:
        raise ValueError(f"direction must be 'forward' or 'backward', got {direction!r}")
    new_order = list(order.order)
    new_order[pos[0]:pos[0] + len(levels)] = block
    return BetaOrder(tuple(new_order))
