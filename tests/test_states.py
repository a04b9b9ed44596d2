import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memtp import (beta_order, curve_eval, distribution, gibbs_state,
                   marginalize, mutual_information, relative_entropy,
                   spectrum, tensor, thermo_curve, thermomajorizes,
                   total_variation, two_level_thermalize)
from memtp.states import TOL_SLOPE, joint_gibbs


def rand_state(rng, d):
    return rng.dirichlet(np.ones(d))


# ---------------------------------------------------------------------------
# gibbs_state
# ---------------------------------------------------------------------------

def test_gibbs_infinite_temperature_is_uniform():
    assert np.allclose(gibbs_state([0.0, 17.3], 0.0), [0.5, 0.5])


def test_gibbs_hand_value():
    g = gibbs_state([0.0, math.log(2)], 1.0)
    assert np.allclose(g, [2 / 3, 1 / 3], atol=1e-15)


def test_gibbs_equidistant_proportions():
    g = gibbs_state([0.0, 1.0, 2.0], 0.3)
    w = np.array([1.0, math.exp(-0.3), math.exp(-0.6)])
    assert np.allclose(g, w / w.sum(), atol=1e-15)


def test_gibbs_rejects_bad_input():
    with pytest.raises(ValueError):
        gibbs_state([0.0, np.inf], 1.0)
    with pytest.raises(ValueError):
        gibbs_state([0.0, 1.0], -0.1)
    with pytest.raises(ValueError):
        gibbs_state([0.0, 1.0], np.nan)


def test_distribution_clamps_and_validates():
    p = distribution([1.0, -1e-13])
    assert p[1] == 0.0
    with pytest.raises(ValueError):
        distribution([1.0, -1e-9])
    with pytest.raises(ValueError):
        distribution([0.7, 0.7])


# ---------------------------------------------------------------------------
# beta_order
# ---------------------------------------------------------------------------

def test_beta_order_of_thermal_state_is_identity():
    g = gibbs_state([0.0, 0.3, 1.1], 0.7)
    assert beta_order(g, g).order == (0, 1, 2)


def test_beta_order_infinite_temperature_sorts_descending():
    order = beta_order([0.2, 0.5, 0.3], np.ones(3) / 3)
    assert order.order == (1, 2, 0)


def test_beta_order_hand_ratios():
    gamma = gibbs_state([0.0, 1.0, 2.0], 0.3)
    order = beta_order([0.7, 0.2, 0.1], gamma)
    assert order.order == (0, 1, 2)


def test_beta_order_rejects_zero_gamma():
    with pytest.raises(ValueError):
        beta_order([0.5, 0.5], [1.0, 0.0])


def test_beta_order_applies_permutation():
    gamma = np.ones(3) / 3
    p = np.array([0.2, 0.5, 0.3])
    order = beta_order(p, gamma)
    assert np.allclose(p[list(order.order)], np.sort(p)[::-1])
    assert np.array_equal(order.ranks[list(order.order)], np.arange(3))


@given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6))
def test_beta_order_sorts_ratios_nonincreasing(vals):
    p = np.array(vals) / np.sum(vals)
    g = np.ones(len(vals)) / len(vals)
    ratios = (p / g)[list(beta_order(p, g).order)]
    assert np.all(np.diff(ratios) <= 1e-12)


# ---------------------------------------------------------------------------
# thermo_curve / curve_eval
# ---------------------------------------------------------------------------

def test_curve_of_thermal_state_is_diagonal():
    g = gibbs_state([0.0, 1.0, 2.0], 0.4)
    c = thermo_curve(g, g)
    assert np.allclose(c.ys, c.xs, atol=1e-12)
    assert curve_eval(c, 0.3) == pytest.approx(0.3, abs=1e-12)


def test_curve_sharp_state_beta0():
    c = thermo_curve([1.0, 0.0], [0.5, 0.5])
    assert np.allclose(c.xs, [0, 0.5, 1])
    assert np.allclose(c.ys, [0, 1, 1])


def test_curve_knots_follow_beta_order():
    gamma = gibbs_state([0.0, 1.0, 2.0], 0.3)
    c = thermo_curve([0.7, 0.2, 0.1], gamma)
    assert np.allclose(c.xs, [0.0, gamma[0], gamma[0] + gamma[1], 1.0])


def test_curve_eval_endpoints_and_domain():
    c = thermo_curve([0.7, 0.3], [0.5, 0.5])
    assert curve_eval(c, 0.0) == 0.0
    assert curve_eval(c, 1.0) == 1.0
    with pytest.raises(ValueError):
        curve_eval(c, 1.5)


def test_curve_concavity_random():
    rng = np.random.default_rng(7)
    for _ in range(200):
        d = rng.integers(2, 7)
        p = rand_state(rng, d)
        g = gibbs_state(rng.uniform(0, 3, d), rng.uniform(0, 2))
        c = thermo_curve(p, g)
        slopes = np.diff(c.ys) / np.diff(c.xs)
        assert np.all(np.diff(slopes) <= TOL_SLOPE)


# ---------------------------------------------------------------------------
# thermomajorizes
# ---------------------------------------------------------------------------

def test_everything_thermomajorizes_gamma():
    rng = np.random.default_rng(8)
    for _ in range(50):
        d = rng.integers(2, 6)
        g = gibbs_state(rng.uniform(0, 2, d), rng.uniform(0, 2))
        p = rand_state(rng, d)
        assert thermomajorizes(p, g, g)
        assert thermomajorizes(p, p, g)


def test_gibbs_state_is_a_thermalisation_fixed_point():
    g = gibbs_state([0.0, 0.8, 1.7], 1.2)
    assert thermomajorizes(g, g, g)
    for i, j in [(0, 1), (0, 2), (1, 2)]:
        out = two_level_thermalize(g, g, i, j, 1.0)
        assert np.abs(out - g).max() < 1e-15


def test_thermomajorizes_beta0_hand_case():
    g = np.array([0.5, 0.5])
    assert thermomajorizes([1.0, 0.0], [0.6, 0.4], g)
    assert not thermomajorizes([0.6, 0.4], [1.0, 0.0], g)


def test_thermomajorizes_transitive_along_thermalisation_paths():
    # q reached from p (and r from q) by elementary steps, so dominance
    # must chain through
    rng = np.random.default_rng(9)
    for _ in range(100):
        d = int(rng.integers(2, 6))
        g = gibbs_state(rng.uniform(0, 2, d), rng.uniform(0, 2))
        p = rand_state(rng, d)
        q = p
        for _ in range(3):
            i, j = rng.choice(d, size=2, replace=False)
            q = two_level_thermalize(q, g, i, j, rng.uniform())
        r = q
        for _ in range(3):
            i, j = rng.choice(d, size=2, replace=False)
            r = two_level_thermalize(r, g, i, j, rng.uniform())
        assert thermomajorizes(p, q, g)
        assert thermomajorizes(q, r, g)
        assert thermomajorizes(p, r, g)


def test_beta0_thermomajorisation_equals_subsum_majorisation():
    rng = np.random.default_rng(10)
    for _ in range(1000):
        d = int(rng.integers(2, 9))
        p, q = rand_state(rng, d), rand_state(rng, d)
        g = np.ones(d) / d
        subsums = np.all(np.cumsum(np.sort(p)[::-1])
                         >= np.cumsum(np.sort(q)[::-1]) - 1e-12)
        assert thermomajorizes(p, q, g) == bool(subsums)


# ---------------------------------------------------------------------------
# distances and entropies
# ---------------------------------------------------------------------------

def test_total_variation_values():
    assert total_variation([0.3, 0.7], [0.3, 0.7]) == 0.0
    assert total_variation([1.0, 0.0], [0.0, 1.0]) == 1.0
    assert total_variation([1.0, 0.0], [3 / 8, 5 / 8]) == pytest.approx(5 / 8)
    with pytest.raises(ValueError):
        total_variation([1.0], [0.5, 0.5])


def test_total_variation_triangle_inequality():
    rng = np.random.default_rng(11)
    for _ in range(200):
        p, q, r = (rand_state(rng, 5) for _ in range(3))
        assert total_variation(p, r) <= (total_variation(p, q)
                                         + total_variation(q, r) + 1e-12)


def test_relative_entropy_values():
    g = np.array([0.5, 0.5])
    assert relative_entropy(g, g) == 0.0
    assert relative_entropy([1.0, 0.0], g) == pytest.approx(math.log(2))
    expected = 0.5 * math.log(3 / 4) + 0.5 * math.log(3 / 2)
    assert relative_entropy([0.5, 0.5], [2 / 3, 1 / 3]) == pytest.approx(expected)
    with pytest.raises(ValueError):
        relative_entropy([0.5, 0.5], [1.0, 0.0])


def test_relative_entropy_on_a_stack_equals_rowwise_calls():
    rng = np.random.default_rng(13)
    for n in (1, 3, 8, 40, 301):
        P = rng.dirichlet(np.ones(n), size=5)
        P[1, 0] = 0.0
        P[3, : (n + 1) // 2] = 0.0
        g = rng.dirichlet(np.ones(n))
        G = rng.dirichlet(np.ones(n), size=5)
        for out, refs in ((relative_entropy(P, g), [g] * 5),
                          (relative_entropy(P, G), G)):
            assert isinstance(out, np.ndarray) and out.shape == (5,)
            for row, ref, value in zip(P, refs, out):
                assert value == relative_entropy(row, ref)
                # zero entries are dropped before the sum, as in a 1-d row
                # of the positive entries alone
                q, r = row[row > 0.0], ref[row > 0.0]
                assert value == np.sum(q * (np.log(q) - np.log(r)))
        assert isinstance(relative_entropy(P[0], g), float)
    with pytest.raises(ValueError, match="mismatch"):
        relative_entropy(P, G[:3])
    G[2, 5] = 0.0
    with pytest.raises(ValueError, match="vanishes"):
        relative_entropy(P, G)


def test_relative_entropy_nonnegative_zero_only_at_gamma():
    rng = np.random.default_rng(12)
    g = gibbs_state([0.0, 0.7, 1.9], 0.8)
    for _ in range(200):
        p = rand_state(rng, 3)
        dv = relative_entropy(p, g)
        assert dv >= -1e-10
        if dv < 1e-10:
            assert total_variation(p, g) < 1e-4


# ---------------------------------------------------------------------------
# joint states
# ---------------------------------------------------------------------------

def test_tensor_index_convention():
    joint = tensor([1.0, 0.0], [0.5, 0.5], [0.0, 1.0])
    assert np.allclose(joint.probs, [0.5, 0.5, 0.0, 0.0])
    joint = tensor([0.5, 0.5], [1 / 3, 2 / 3], [0.0, 1.0])
    assert np.allclose(joint.probs, [1 / 6, 1 / 3, 1 / 6, 1 / 3])


def test_tensor_with_trivial_memory_is_identity():
    joint = tensor([0.2, 0.8], [1.0], [0.0, 1.0])
    assert np.allclose(joint.probs, [0.2, 0.8])


@settings(max_examples=50)
@given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=4),
       st.lists(st.floats(0.01, 1.0), min_size=2, max_size=4))
def test_tensor_marginalize_round_trip(sys_w, mem_w):
    p = np.array(sys_w) / np.sum(sys_w)
    m = np.array(mem_w) / np.sum(mem_w)
    joint = tensor(p, m, np.zeros(p.size), np.zeros(m.size))
    assert np.allclose(marginalize(joint, "system"), p, atol=1e-15)
    assert np.allclose(marginalize(joint, "memory"), m, atol=1e-15)


def test_marginalize_correlated_state():
    joint = tensor([0.5, 0.5], [0.5, 0.5], [0.0, 1.0])
    joint = joint.replace_probs(np.array([1 / 8, 1 / 4, 3 / 8, 1 / 4]))
    assert np.allclose(marginalize(joint, "system"), [3 / 8, 5 / 8])
    assert np.allclose(marginalize(joint, "memory"), [1 / 2, 1 / 2])


def test_mutual_information_product_state_is_zero():
    joint = tensor([0.3, 0.7], [0.2, 0.5, 0.3], [0.0, 1.0])
    assert mutual_information(joint) == pytest.approx(0.0, abs=1e-14)


def test_mutual_information_perfectly_correlated():
    joint = tensor([0.5, 0.5], [0.5, 0.5], [0.0, 1.0])
    joint = joint.replace_probs(np.array([0.5, 0.0, 0.0, 0.5]))
    assert mutual_information(joint) == pytest.approx(math.log(2))


def test_mutual_information_protocol_state():
    r = np.array([1 / 8, 1 / 4, 3 / 8, 1 / 4])
    joint = tensor([0.5, 0.5], [0.5, 0.5], [0.0, 1.0]).replace_probs(r)
    prod = np.kron([3 / 8, 5 / 8], [1 / 2, 1 / 2])
    expected = float(np.sum(r * np.log(r / prod)))
    assert expected > 0
    assert mutual_information(joint) == pytest.approx(expected, abs=1e-15)


def test_joint_gibbs_matches_composite_spectrum():
    joint = tensor([0.4, 0.6], [0.5, 0.5], [0.0, 1.0], [0.0, 0.4])
    composite = (joint.system_spectrum[:, None]
                 + joint.memory_spectrum[None, :]).ravel()
    assert np.allclose(joint_gibbs(joint, 0.9),
                       gibbs_state(composite, 0.9), atol=1e-15)


def test_spectrum_validation():
    with pytest.raises(ValueError):
        spectrum([])
    with pytest.raises(ValueError):
        spectrum([1.0, np.nan])
