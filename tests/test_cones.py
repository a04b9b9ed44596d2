import math
from itertools import combinations, permutations

import numpy as np
import pytest

from memtp import (CapacityError, beta_cycle_permutation, beta_order,
                   beta_swap_matrix, decompose_neighbour_transpositions,
                   extreme_point, future_cone_vertices, gibbs_state,
                   thermomajorizes, total_variation)
from memtp.cones import VERTEX_DEDUP_TOL


def rand_state(rng, d):
    return rng.dirichlet(np.ones(d))


# ---------------------------------------------------------------------------
# extreme_point
# ---------------------------------------------------------------------------

def test_own_order_returns_the_state_itself():
    gamma = gibbs_state([0.0, 1.0, 2.0], 0.3)
    p = np.array([0.7, 0.2, 0.1])
    vertex = extreme_point(p, gamma, beta_order(p, gamma))
    assert np.allclose(vertex.state, p, atol=1e-14)


def test_beta0_vertices_are_permutations_of_sorted_state():
    p = np.array([0.6, 0.3, 0.1])
    gamma = np.ones(3) / 3
    for perm in permutations(range(3)):
        vertex = extreme_point(p, gamma, perm)
        expected = np.empty(3)
        ranks = np.empty(3, dtype=int)
        ranks[list(perm)] = np.arange(3)
        expected = np.sort(p)[::-1][ranks]
        assert np.allclose(vertex.state, expected, atol=1e-14)


def test_two_level_reversal_hand_value():
    # curve of (1,0) against gamma=(2/3,1/3) evaluated at x=1/3 gives 1/2
    vertex = extreme_point([1.0, 0.0], [2 / 3, 1 / 3], (1, 0))
    assert np.allclose(vertex.state, [0.5, 0.5], atol=1e-15)


def test_vertex_order_label_matches_its_beta_order():
    rng = np.random.default_rng(0)
    for _ in range(50):
        d = int(rng.integers(2, 6))
        p = rand_state(rng, d)
        g = gibbs_state(rng.uniform(0, 2, d), rng.uniform(0, 2))
        perm = tuple(rng.permutation(d))
        vertex = extreme_point(p, g, perm)
        got = beta_order(vertex.state, g)
        # ties can relabel; the curves must agree
        assert thermomajorizes(vertex.state, extreme_point(p, g, got).state, g)


def test_extreme_point_rejects_bad_permutation():
    with pytest.raises(ValueError):
        extreme_point([0.5, 0.5], [0.5, 0.5], (0, 0))
    with pytest.raises(ValueError):
        extreme_point([0.5, 0.5], [0.5, 0.5], (0, 1, 2))


# ---------------------------------------------------------------------------
# future_cone_vertices
# ---------------------------------------------------------------------------

def test_thermal_state_has_single_vertex():
    g = gibbs_state([0.0, 1.0, 2.0], 0.5)
    verts = future_cone_vertices(g, g)
    assert len(verts) == 1
    assert np.allclose(verts[0].state, g, atol=1e-12)


def test_beta0_generic_state_has_factorial_vertices():
    p = np.array([0.45, 0.3, 0.15, 0.1])
    verts = future_cone_vertices(p, np.ones(4) / 4)
    assert len(verts) == math.factorial(4)
    states = {tuple(np.round(v.state, 12)) for v in verts}
    expected = {tuple(np.round(np.array(s), 12)) for s in permutations(p)}
    assert states == expected


def test_three_level_example_has_six_vertices():
    gamma = gibbs_state([0.0, 1.0, 2.0], 0.3)
    verts = future_cone_vertices([0.7, 0.2, 0.1], gamma)
    assert len(verts) == 6


def test_all_vertices_thermomajorised_by_source():
    rng = np.random.default_rng(1)
    for _ in range(30):
        d = int(rng.integers(2, 6))
        p = rand_state(rng, d)
        g = gibbs_state(rng.uniform(0, 2, d), rng.uniform(0, 2))
        for v in future_cone_vertices(p, g):
            assert thermomajorizes(p, v.state, g)


def test_dimension_guard():
    with pytest.raises(CapacityError):
        future_cone_vertices(np.ones(9) / 9, np.ones(9) / 9)


def all_pairs_vertices(p, gamma):
    """Greedy dedup oracle: each candidate against every kept vertex.

    One row per kept vertex; half the row sums of |kept - state| are the
    same floats as ``total_variation`` (one sum over d entries per row).
    """
    d = len(p)
    kept = np.empty((math.factorial(d), d))
    vertices = []
    for perm in permutations(range(d)):
        cand = extreme_point(p, gamma, perm)
        n = len(vertices)
        tv = 0.5 * np.abs(kept[:n] - cand.state).sum(axis=1)
        if np.all(tv > VERTEX_DEDUP_TOL):
            kept[n] = cand.state
            vertices.append(cand)
    return vertices


def assert_same_vertices(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.order == b.order
        assert np.array_equal(a.state, b.state)


def test_bucketed_dedup_matches_all_pairs_oracle():
    rng = np.random.default_rng(14)
    kinds = ("dense", "sparse", "thermal")
    for case in range(300):
        # 1440 extreme_point calls make a d = 6 case slow: every 16th case,
        # which cycles it through the three kinds
        d = 6 if case % 16 == 0 else int(rng.integers(1, 6))
        flat = rng.random() < 0.3
        g = np.ones(d) / d if flat else gibbs_state(
            rng.uniform(0, 2, d), rng.uniform(0, 2))
        kind = kinds[case % 3]
        if kind == "thermal":
            p = g
        else:
            p = rand_state(rng, d)
            if kind == "sparse":
                p[rng.random(d) < 0.4] = 0.0
                p = p / p.sum() if p.sum() > 0 else np.eye(d)[0]
        assert_same_vertices(future_cone_vertices(p, g),
                             all_pairs_vertices(p, g))


@pytest.mark.parametrize("delta, halves",
                         [(1e-13, True), (9e-13, True), (1e-11, False)])
def test_duplicates_at_the_dedup_tolerance(delta, halves):
    # at beta = 0 the vertices are the permutations of p; swapping the
    # entries 0.1 and 0.1 + delta moves a vertex by delta in TV
    d = 5
    p = np.array([0.1, 0.1 + delta, 0.35, 0.2, 0.25 - delta])
    g = np.ones(d) / d
    verts = future_cone_vertices(p, g)
    assert len(verts) == math.factorial(d) // (2 if halves else 1)
    assert_same_vertices(verts, all_pairs_vertices(p, g))


def test_one_level_cone_is_the_state():
    verts = future_cone_vertices([1.0], [1.0])
    assert len(verts) == 1
    assert np.array_equal(verts[0].state, [1.0])
    assert verts[0].order.order == (0,)


def test_beta0_vertex_count_is_distinct_permutations():
    g = np.ones(6) / 6
    for p in ([0.3, 0.3, 0.1, 0.1, 0.1, 0.1], [0.25, 0.25, 0.2, 0.2, 0.1, 0.0],
              [0.5, 0.5, 0.0, 0.0, 0.0, 0.0]):
        counts = np.unique(p, return_counts=True)[1]
        distinct = math.factorial(6) // math.prod(
            math.factorial(int(c)) for c in counts)
        assert len(future_cone_vertices(p, g)) == distinct


def test_seven_level_cone_finishes_inside_the_cone():
    rng = np.random.default_rng(7)
    p = rand_state(rng, 7)
    g = gibbs_state(rng.uniform(0, 2, 7), 0.4)
    verts = future_cone_vertices(p, g)
    assert len(verts) > 1000
    assert all(thermomajorizes(p, v.state, g) for v in verts)


# ---------------------------------------------------------------------------
# beta_swap_matrix
# ---------------------------------------------------------------------------

def test_beta0_swap_is_transposition():
    m = beta_swap_matrix(0, 1, np.ones(3) / 3)
    expected = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=float)
    assert np.allclose(m, expected)


def test_swap_block_for_ratio_one_half():
    gamma = np.array([2 / 3, 1 / 3])
    m = beta_swap_matrix(0, 1, gamma)
    assert np.allclose(m, [[0.5, 1.0], [0.5, 0.0]])
    # passing the levels reversed must give the same matrix
    assert np.allclose(beta_swap_matrix(1, 0, gamma), m)


def test_swap_is_gibbs_preserving_and_stochastic():
    rng = np.random.default_rng(2)
    for _ in range(50):
        d = int(rng.integers(2, 7))
        g = gibbs_state(rng.uniform(0, 2, d), rng.uniform(0, 2))
        i, j = rng.choice(d, size=2, replace=False)
        m = beta_swap_matrix(int(i), int(j), g)
        assert np.allclose(m.sum(axis=0), 1.0, atol=1e-15)
        assert np.all(m >= 0)
        assert np.abs(m @ g - g).max() < 1e-14


def test_swap_rejects_equal_levels():
    with pytest.raises(ValueError):
        beta_swap_matrix(1, 1, [0.5, 0.5])


def test_two_level_vertices_are_state_and_swapped_state():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = rand_state(rng, 2)
        g = gibbs_state([0.0, rng.uniform(0.2, 2)], rng.uniform(0.1, 2))
        verts = future_cone_vertices(p, g)
        swapped = beta_swap_matrix(0, 1, g) @ extreme_point(
            p, g, beta_order(p, g)).state
        states = [v.state for v in verts]
        assert any(total_variation(s, p) < 1e-12 for s in states)
        assert any(total_variation(s, swapped) < 1e-12 for s in states)


# ---------------------------------------------------------------------------
# decompose_neighbour_transpositions
# ---------------------------------------------------------------------------

def _inversions(seq, target):
    rank = {lvl: k for k, lvl in enumerate(target)}
    s = [rank[x] for x in seq]
    return sum(1 for a, b in combinations(range(len(s)), 2) if s[a] > s[b])


def test_decompose_identity_is_empty():
    g = gibbs_state([0.0, 1.0, 2.0], 0.4)
    p = np.array([0.7, 0.2, 0.1])
    chain = decompose_neighbour_transpositions(p, g, beta_order(p, g))
    assert len(chain) == 0


def test_decompose_reversal_counts():
    p3 = np.array([0.5, 0.3, 0.2])
    assert len(decompose_neighbour_transpositions(
        p3, np.ones(3) / 3, (2, 1, 0))) == 3
    p6 = np.array([0.37, 0.24, 0.16, 0.11, 0.07, 0.05])
    assert len(decompose_neighbour_transpositions(
        p6, np.ones(6) / 6, tuple(range(5, -1, -1)))) == 15


def test_decompose_length_equals_inversions_and_composes_to_target():
    rng = np.random.default_rng(4)
    for _ in range(100):
        d = int(rng.integers(2, 7))
        p = rand_state(rng, d)
        g = gibbs_state(rng.uniform(0, 2, d), rng.uniform(0, 2))
        target = tuple(rng.permutation(d))
        start = list(beta_order(p, g).order)
        chain = decompose_neighbour_transpositions(p, g, target)
        assert len(chain) == _inversions(start, target)
        seq = start[:]
        for (a, b) in chain:
            ia, ib = seq.index(a), seq.index(b)
            assert abs(ia - ib) == 1, "swap not adjacent in evolving order"
            seq[ia], seq[ib] = seq[ib], seq[ia]
        assert tuple(seq) == target


# ---------------------------------------------------------------------------
# beta_cycle_permutation
# ---------------------------------------------------------------------------

def test_two_cycle_is_a_neighbour_transposition():
    g = gibbs_state([0.0, 1.0, 2.0], 0.4)
    p = np.array([0.7, 0.2, 0.1])
    order = beta_order(p, g)
    new = beta_cycle_permutation(p, g, order.order[:2], "forward")
    assert new.order == (order.order[1], order.order[0], order.order[2])


def test_full_cycle_directions():
    d = 4
    p = np.array([0.4, 0.3, 0.2, 0.1])
    g = np.ones(d) / d
    fwd = beta_cycle_permutation(p, g, range(d), "forward")
    bwd = beta_cycle_permutation(p, g, range(d), "backward")
    assert fwd.order == (3, 0, 1, 2)
    assert bwd.order == (1, 2, 3, 0)


def test_cycle_rejects_non_neighbouring_levels():
    p = np.array([0.4, 0.3, 0.2, 0.1])
    g = np.ones(4) / 4
    with pytest.raises(ValueError):
        beta_cycle_permutation(p, g, [0, 2], "forward")
    with pytest.raises(ValueError):
        beta_cycle_permutation(p, g, [1, 0], "forward")


def test_nonoverlapping_swap_reachable_orders_follow_fibonacci():
    # orders reachable by disjoint neighbour transpositions: F(d+1) of them
    d = 4
    p = np.array([0.4, 0.3, 0.2, 0.1])
    g = np.ones(d) / d
    base = beta_order(p, g).order
    reached = {base}
    pairs = [(k, k + 1) for k in range(d - 1)]
    for r in range(1, d // 2 + 1):
        for combo in combinations(pairs, r):
            if any(a2 <= b1 for (_, b1), (a2, _) in zip(combo, combo[1:])):
                continue
            order = list(base)
            for (a, b) in combo:
                order[a], order[b] = order[b], order[a]
            reached.add(tuple(order))
    assert len(reached) == 5  # F(5)
