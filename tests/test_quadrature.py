"""Gaussian rules from the Golub-Welsch procedure, cross-checked against
closed-form moments and an independently implemented eigensolver route."""

import math

import numpy as np
import pytest
from scipy.special import roots_jacobi

import polydelay as pdl


def test_legendre_single_node_is_midpoint():
    rule = pdl.gauss_legendre(1, 0, 1)
    assert rule.nodes[0] == pytest.approx(0.5, abs=1e-15)
    assert rule.weights[0] == pytest.approx(1.0, abs=1e-15)


def test_legendre_two_nodes_hand_solved():
    # exactness for 1, x, x^2, x^3 forces nodes +-1/sqrt(3) and equal
    # weights; normalised weights are 1/2 each
    rule = pdl.gauss_legendre(2, -1, 1)
    root = 1.0 / math.sqrt(3.0)
    assert rule.nodes == pytest.approx((-root, root), abs=1e-14)
    assert rule.weights == pytest.approx((0.5, 0.5), abs=1e-14)


def test_legendre_moment_nine_exact():
    w = pdl.beta_polynomial(30, 150, 0, 0)
    rule = pdl.gauss_legendre(5, 30, 150)
    approx = pdl.apply(rule, lambda t: t ** 9)
    assert approx == pytest.approx(pdl.moment(w, 9), rel=1e-10)


def test_jacobi_single_node_is_distribution_mean():
    r1 = pdl.gauss_jacobi(1, 2, 2, 30, 150)
    r2 = pdl.gauss_jacobi(1, 2, 2, 150, 250)
    assert r1.nodes[0] == pytest.approx(90.0, abs=1e-10)
    assert r1.weights[0] == pytest.approx(1.0, abs=1e-14)
    assert r2.nodes[0] == pytest.approx(200.0, abs=1e-10)
    assert r2.weights[0] == pytest.approx(1.0, abs=1e-14)


def test_jacobi_three_node_exactness():
    w = pdl.beta_polynomial(30, 150, 2, 2)
    rule = pdl.gauss_jacobi(3, 2, 2, 30, 150)
    for i in range(6):
        approx = pdl.apply(rule, lambda t, i=i: t ** i)
        assert approx == pytest.approx(pdl.moment(w, i), rel=1e-10)


@pytest.mark.parametrize("m,p,q", [(1, 2, 2), (2, 0, 0), (3, 1, 2),
                                   (4, 2, 2), (5, 0, 3), (8, 2, 2),
                                   (12, 0, 3), (20, 4, 1), (32, 8, 8)])
def test_rules_match_independent_eigensolver(m, p, q):
    # scipy computes the same nodes from its own Jacobi-matrix route; the
    # density (tau-a)^p (b-tau)^q maps to the classical weight
    # (1-x)^q (1+x)^p on [-1, 1]
    rule = pdl.gauss_jacobi(m, p, q, 30, 150)
    x, wts = roots_jacobi(m, q, p)
    nodes = 30 + (150 - 30) * (x + 1) / 2
    wts = wts / wts.sum()
    assert np.max(np.abs(rule.nodes - nodes)) <= 1e-12 * 150
    assert np.max(np.abs(rule.weights - wts)) <= 1e-12


@pytest.mark.parametrize("m", range(1, 9))
def test_rule_invariants(m):
    rule = pdl.gauss_jacobi(m, 2, 2, 30, 150)
    a, b = rule.interval
    assert a == 30.0 and b == 150.0
    assert rule.exactness == 2 * m - 1
    assert np.all(np.diff(rule.nodes) > 0)
    assert rule.nodes[0] > a and rule.nodes[-1] < b
    assert np.all(rule.weights > 0)
    assert float(rule.weights.sum()) == pytest.approx(1.0, abs=1e-12)
    # the Legendre recurrence has a zero diagonal, so its nodes on
    # [-1, 1] are symmetric about the origin
    legendre = pdl.gauss_legendre(m, -1, 1)
    assert legendre.nodes == pytest.approx(-legendre.nodes[::-1], abs=1e-15)


def test_apply_normalisation():
    rule = pdl.gauss_jacobi(4, 2, 2, 30, 150)
    assert pdl.apply(rule, lambda t: 1.0) == pytest.approx(1.0, abs=1e-14)


def test_apply_mean_of_symmetric_density():
    rule = pdl.gauss_jacobi(2, 2, 2, 30, 150)
    assert pdl.apply(rule, lambda t: t) == pytest.approx(90.0, rel=1e-13)


def test_apply_second_moment_uniform():
    rule = pdl.gauss_legendre(2, 0, 1)
    assert pdl.apply(rule, lambda t: t * t) == \
        pytest.approx(1.0 / 3.0, rel=1e-13)


def test_rule_argument_validation():
    with pytest.raises(ValueError):
        pdl.gauss_legendre(0, 0, 1)
    with pytest.raises(ValueError):
        pdl.gauss_legendre(2, 1, 1)
    with pytest.raises(TypeError):
        pdl.gauss_legendre(2.5, 0, 1)
    with pytest.raises(TypeError):
        pdl.gauss_legendre(True, 0, 1)
    with pytest.raises(ValueError):
        pdl.gauss_jacobi(2, -1, 0, 0, 1)
    with pytest.raises(ValueError):
        pdl.gauss_jacobi(0, 2, 2, 30, 150)
    with pytest.raises(TypeError):
        pdl.gauss_jacobi(2, math.nan, 2, 30, 150)
    with pytest.raises(TypeError):
        pdl.gauss_jacobi(2, 2, 0.5, 30, 150)
    for a, b in ((30, math.inf), (-math.inf, 150), (math.nan, 150)):
        with pytest.raises(ValueError):
            pdl.gauss_jacobi(2, 2, 2, a, b)


def test_node_count_bound():
    # the dense eigenproblem costs O(m^2) memory and O(m^3) time, so the
    # count is capped; the cap itself still builds
    assert pdl.gauss_jacobi(pdl.MAX_NODES, 0, 0, 0, 1).nodes.size \
        == pdl.MAX_NODES
    with pytest.raises(ValueError, match="must lie in \\[1, %d\\]"
                       % pdl.MAX_NODES):
        pdl.gauss_jacobi(pdl.MAX_NODES + 1, 2, 2, 30, 150)


def test_rule_rejects_nonfinite_nodes_and_weights():
    # nan compares false, so it would slip past the ordering checks
    with pytest.raises(ValueError, match="finite"):
        pdl.QuadratureRule(nodes=[0.25, math.nan, 0.75],
                           weights=[0.25, 0.5, 0.25], exactness=5,
                           interval=(0.0, 1.0))
    with pytest.raises(ValueError, match="finite"):
        pdl.QuadratureRule(nodes=[0.25, 0.75], weights=[math.nan, 0.5],
                           exactness=3, interval=(0.0, 1.0))


def test_rule_rejects_malformed_nodes_and_weights():
    for nodes, weights, message in (
            ([], [], "nonempty"),
            ([0.25, 0.75], [0.25, 0.5, 0.25], "matching"),
            ([0.75, 0.25], [0.5, 0.5], "increasing"),
            ([0.0, 0.75], [0.5, 0.5], "inside the interval"),
            ([0.25, 0.75], [1.0, 0.0], "positive"),
            ([0.25, 0.75], [0.5, 0.6], "sum to one")):
        with pytest.raises(ValueError, match=message):
            pdl.QuadratureRule(nodes=nodes, weights=weights, exactness=3,
                               interval=(0.0, 1.0))


def test_quadrature_dde_single_node_sits_at_mean(case_i_params):
    base = pdl.sir_distributed(case_i_params)
    rule = pdl.gauss_jacobi(1, 2, 2, 30, 150)
    dde = pdl.build_quadrature_dde(base, rule)
    assert dde.dimension == 3
    assert len(dde.delays) == 1
    assert dde.delays[0] == pytest.approx(90.0, abs=1e-10)


def test_quadrature_dde_constant_history_recovers_base_rhs(case_i_params):
    # with Z constant, the discretised integral collapses to that constant
    # because the weights sum to one
    base = pdl.sir_distributed(case_i_params)
    rule = pdl.gauss_jacobi(4, 2, 2, 30, 150)
    dde = pdl.build_quadrature_dde(base, rule)
    y0 = np.array(case_i_params.y0)
    Z = np.tile(y0[:, None], (1, 4))
    z = np.zeros(3)
    z[1] = y0[1]
    got = dde.rhs(0.0, y0, Z)
    want = base.rhs(0.0, y0, z)
    assert got == pytest.approx(want, abs=1e-15)


def test_quadrature_dde_rejects_interval_mismatch(case_i_params):
    base = pdl.sir_distributed(case_i_params)
    rule = pdl.gauss_jacobi(3, 2, 2, 150, 250)
    with pytest.raises(ValueError):
        pdl.build_quadrature_dde(base, rule)
