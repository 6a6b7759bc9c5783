"""Equivalent-system assembly, auxiliary values, time scaling, and the
structure matrix of the auxiliary chain."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate
from scipy.linalg import expm

import polydelay as pdl


def _scalar_distributed(weight, rhs=None, hist=None):
    if rhs is None:
        rhs = lambda t, y, z: np.array([-z[0]])
    if hist is None:
        hist = lambda t: np.array([1.0])
    return pdl.DistributedDelayDde(dimension=1, rhs=rhs, weight=weight,
                                   delayed_components=frozenset({0}),
                                   history=hist)


def test_scalar_uniform_assembly():
    w = pdl.beta_polynomial(0.5, 2.0, 0, 0)
    system = pdl.build_equivalent(_scalar_distributed(w))
    assert system.degree == 0
    # the chain length is dimension - d and the delay pair is the weight's
    assert system.assembled.dimension - 1 == 1
    assert system.assembled.dimension == 2
    assert system.assembled.delays == (0.5, 2.0)
    assert (w.a, w.b) == (0.5, 2.0)


def test_scalar_uniform_aux_equation():
    # x_0' = y(t - a) - y(t - b), independent of the current state
    w = pdl.beta_polynomial(0.5, 2.0, 0, 0)
    system = pdl.build_equivalent(_scalar_distributed(w))
    Y = np.array([7.0, 3.0])
    Z = np.array([[4.0, 9.0],
                  [1.0, 1.0]])
    dY = system.assembled.rhs(0.0, Y, Z)
    assert dY[1] == pytest.approx(4.0 - 9.0, abs=1e-15)


def test_degree_two_chain_hand_values():
    # density 6 tau (1 - tau) on [0, 1]; a = 0 is degenerate, so the only
    # true delay is b and the a-terms read the current state
    w = pdl.beta_polynomial(0.0, 1.0, 1, 1)
    system = pdl.build_equivalent(_scalar_distributed(w))
    assert system.assembled.delays == (1.0,)
    y, yb = 2.0, 5.0
    x = np.array([0.3, 0.1, 0.07])
    Y = np.concatenate([[y], x])
    Z = np.array([[yb], [0.0], [0.0], [0.0]])
    dY = system.assembled.rhs(0.0, Y, Z)
    z = 6.0 * x[1] - 6.0 * x[2]
    assert dY[0] == pytest.approx(-z, rel=1e-15)
    assert dY[1] == pytest.approx(y - yb, rel=1e-15)
    assert dY[2] == pytest.approx(-yb + x[0], rel=1e-15)
    assert dY[3] == pytest.approx(-yb + 2.0 * x[1], rel=1e-15)


def test_degenerate_interval_solve_matches_quadrature():
    # route cross-check for a = 0: the equivalent system against a dense
    # quadrature discretisation of the same problem
    w = pdl.beta_polynomial(0.0, 1.0, 0, 0)
    dde = _scalar_distributed(w)
    eq = pdl.solve(pdl.build_equivalent(dde).assembled, 3.0)
    rule = pdl.gauss_legendre(12, 0.0, 1.0)
    qd = pdl.solve(pdl.build_quadrature_dde(dde, rule), 3.0)
    ts = np.linspace(0.5, 3.0, 11)
    ye = pdl.dense_eval(eq, ts)[:, 0]
    yq = pdl.dense_eval(qd, ts)[:, 0]
    assert ye == pytest.approx(yq, abs=2e-4)


def test_two_delayed_components_match_quadrature_and_direct_moments():
    # components 0 and 2 are delayed, each with its own degree-3 chain;
    # the history is non-constant, so the chains start from quadrature
    a, b = 0.5, 2.0
    w = pdl.beta_polynomial(a, b, 1, 2)
    dde = pdl.DistributedDelayDde(
        dimension=3, weight=w, delayed_components=frozenset({0, 2}),
        rhs=lambda t, y, z: np.array([-0.5 * z[0],
                                      0.2 * z[0] - 0.3 * y[1],
                                      -0.25 * z[2] + 0.1 * y[1]]),
        history=lambda t: np.array([math.cos(t), 1.0, 1.0 + 0.5 * t]))
    system = pdl.build_equivalent(dde)
    assert system.assembled.dimension == 11
    opts = pdl.SolverOptions(rtol=1e-11, atol=1e-13)
    eq = pdl.solve(system.assembled, 4.0, opts)
    qd = pdl.solve(pdl.build_quadrature_dde(
        dde, pdl.gauss_jacobi(12, 1, 2, a, b)), 4.0, opts)
    ts = np.linspace(0.0, 4.0, 41)
    gap = pdl.dense_eval(eq, ts)[:, :3] - pdl.dense_eval(qd, ts)
    assert np.max(np.abs(gap)) <= 1e-4
    # x_i(4) = integral_a^b y_c(4 - tau) tau^i dtau, per chain in
    # ascending component order
    rule = pdl.gauss_legendre(32, a, b)
    state = pdl.dense_eval(eq, 4.0)
    past = pdl.dense_eval(eq, 4.0 - rule.nodes)
    powers = np.vander(rule.nodes, 4, increasing=True)
    for k, c in enumerate((0, 2)):
        direct = (b - a) * ((rule.weights * past[:, c]) @ powers)
        block = state[3 + 4 * k:7 + 4 * k]
        assert np.max(np.abs(block - direct)) <= 1e-8, c


def test_sir_equivalent_dimension(case_i_params):
    system = pdl.build_equivalent(pdl.sir_distributed(case_i_params))
    assert system.degree == 4
    assert system.assembled.dimension - 3 == 5
    assert system.assembled.dimension == 8
    assert system.assembled.delays == (30.0, 150.0)


def test_aux_derivative_identity_against_quadrature():
    # with y = sin t, x_i(t) computed by dense quadrature must satisfy
    # x_i' = a^i y(t-a) - b^i y(t-b) + i x_{i-1} (checked by central
    # differences)
    a, b = 0.5, 2.0
    rule = pdl.gauss_legendre(32, a, b)
    span = b - a

    def x_i(i, t):
        return span * math.fsum(
            wk * math.sin(t - tau) * tau ** i
            for tau, wk in zip(rule.nodes, rule.weights))

    delta = 1e-5
    for i in range(3):
        for t in (3.0, 5.0):
            lhs = (x_i(i, t + delta) - x_i(i, t - delta)) / (2 * delta)
            rhs = (a ** i * math.sin(t - a) - b ** i * math.sin(t - b)
                   + i * (x_i(i - 1, t) if i else 0.0))
            assert lhs == pytest.approx(rhs, abs=1e-8)


def test_aux_initial_values_constant_histories():
    w = pdl.beta_polynomial(0.0, 1.0, 0, 0)
    vals = pdl.aux_initial_values(lambda t: 1.0, w)
    assert vals[0] == pytest.approx(1.0, rel=1e-14)

    w2 = pdl.beta_polynomial(30.0, 150.0, 2, 2)
    vals2 = pdl.aux_initial_values(lambda t: 0.01, w2)
    assert vals2[0] == pytest.approx(1.2, rel=1e-14)
    for i in range(5):
        closed = 0.01 * (150.0 ** (i + 1) - 30.0 ** (i + 1)) / (i + 1)
        assert vals2[i] == pytest.approx(closed, rel=1e-12)


def test_aux_initial_values_linear_history():
    # phi(t) = t gives x_0(0) = integral_0^1 (-tau) dtau = -1/2
    w = pdl.beta_polynomial(0.0, 1.0, 0, 0)
    vals = pdl.aux_initial_values(lambda t: t, w)
    assert vals[0] == pytest.approx(-0.5, rel=1e-13)


def test_aux_initial_values_oscillatory_history_oracle():
    a, b = 0.5, 2.0
    w = pdl.beta_polynomial(a, b, 2, 2)
    vals = pdl.aux_initial_values(lambda t: math.cos(t), w)
    for i in range(5):
        want, _ = integrate.quad(lambda tau, i=i: math.cos(-tau) * tau ** i,
                                 a, b, epsabs=1e-13, epsrel=1e-13)
        assert vals[i] == pytest.approx(want, rel=1e-10)


def test_stationary_aux_values():
    w = pdl.beta_polynomial(0.0, 1.0, 1, 1)
    assert np.all(pdl.stationary_aux(0.0, w) == 0.0)
    vals = pdl.stationary_aux(1.0, w)
    for i in range(3):
        assert vals[i] == pytest.approx(1.0 / (i + 1), rel=1e-14)
    same = pdl.aux_initial_values(lambda t: 1.0, w)
    assert vals == pytest.approx(same, rel=1e-14)


def test_scale_distributed_moves_support_and_history():
    w = pdl.beta_polynomial(30.0, 150.0, 2, 2)
    hist_calls = []

    def hist(t):
        hist_calls.append(t)
        return np.array([math.cos(t)])

    dde = pdl.DistributedDelayDde(dimension=1,
                                  rhs=lambda t, y, z: np.array([-z[0]]),
                                  weight=w,
                                  delayed_components=frozenset({0}),
                                  history=hist)
    scaled = pdl.scale_distributed(dde)
    assert scaled.weight.a == pytest.approx(0.2)
    assert scaled.weight.b == 1.0
    assert scaled.weight.degree == 4
    # history is read in original time
    assert scaled.history(-1.0)[0] == pytest.approx(math.cos(-150.0))
    assert hist_calls[-1] == -150.0
    # rhs gains the factor b
    val = scaled.rhs(0.0, np.array([1.0]), np.array([2.0]))
    assert val[0] == pytest.approx(-300.0, rel=1e-15)


def test_scale_system_case_i_delays(case_i_params):
    scaled = pdl.build_equivalent(pdl.scale_distributed(
        pdl.sir_distributed(case_i_params)))
    assert scaled.assembled.delays == pytest.approx((0.2, 1.0), abs=1e-15)
    assert scaled.assembled.dimension == 8


def test_scaled_and_unscaled_solves_agree(case_i_params):
    # y_scaled(t / b) = y(t); the gap tracks the integration error of the
    # two solves (it shrinks linearly with rtol), so rtol 1e-8 keeps it
    # well under 1e-4
    opts = pdl.SolverOptions(rtol=1e-8, atol=1e-10)
    sir = pdl.sir_distributed(case_i_params)
    system = pdl.build_equivalent(sir)
    scaled = pdl.build_equivalent(pdl.scale_distributed(sir))
    plain = pdl.solve(system.assembled, 1000.0, opts)
    fast = pdl.solve(scaled.assembled, 20.0 / 3.0, opts)
    ts = np.linspace(0.0, 1000.0, 100)
    yu = pdl.dense_eval(plain, ts)[:, :3]
    ys = pdl.dense_eval(fast, ts / 150.0)[:, :3]
    assert np.max(np.abs(yu - ys)) <= 1e-4


def test_scaled_aux_initial_values(case_i_params):
    # x_scaled_i(0) = x_i(0) / b^{i+1}
    sir = pdl.sir_distributed(case_i_params)
    system = pdl.build_equivalent(sir)
    scaled = pdl.build_equivalent(pdl.scale_distributed(sir))
    plain0 = system.assembled.history(0.0)[3:]
    scaled0 = scaled.assembled.history(0.0)[3:]
    b = 150.0
    for i in range(5):
        assert scaled0[i] == pytest.approx(plain0[i] / b ** (i + 1),
                                           rel=1e-12)


def test_structure_matrix_shapes():
    assert np.array_equal(pdl.structure_matrix(0), np.zeros((1, 1)))
    A2 = pdl.structure_matrix(2)
    assert np.array_equal(A2, np.array([[0.0, 0.0, 0.0],
                                        [1.0, 0.0, 0.0],
                                        [0.0, 2.0, 0.0]]))
    with pytest.raises(ValueError):
        pdl.structure_matrix(-1)


@pytest.mark.parametrize("n", range(0, 7))
def test_structure_matrix_rank_and_nilpotency(n):
    A = pdl.structure_matrix(n)
    assert np.linalg.matrix_rank(A) == n
    assert np.all(np.linalg.matrix_power(A, n + 1) == 0.0)
    if n >= 1:
        assert np.any(np.linalg.matrix_power(A, n) != 0.0)


def test_structure_matrix_single_eigenvector():
    A = pdl.structure_matrix(4)
    # kernel of A is the single eigenvector direction (0, 0, 0, 0, 1)
    _, s, vh = np.linalg.svd(A)
    kernel = vh[-1]
    kernel = kernel / kernel[np.argmax(np.abs(kernel))]
    assert kernel == pytest.approx(np.array([0, 0, 0, 0, 1.0]), abs=1e-12)


def test_nilpotent_exponential_identity_at_zero():
    for n in range(5):
        out = pdl.nilpotent_exponential(pdl.structure_matrix(n), 0.0)
        assert np.array_equal(out, np.eye(n + 1))


def test_nilpotent_exponential_two_by_two():
    sm = pdl.structure_matrix(1)
    for t in (0.5, 2.0, -3.0):
        out = pdl.nilpotent_exponential(sm, t)
        assert out == pytest.approx(np.array([[1.0, 0.0], [t, 1.0]]),
                                    abs=1e-15)


def test_nilpotent_exponential_matches_expm():
    A = pdl.structure_matrix(4)
    out = pdl.nilpotent_exponential(A, 1.0)
    assert np.max(np.abs(out - expm(A))) <= 1e-12


def _exact_exponential(n, t):
    # entry (col+k, col) of e^{tA} is t^k/k! * (col+1)...(col+k); each is
    # one exact rational term, so this oracle has no rounding beyond the
    # final float conversion
    t = Fraction(t)
    E = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
    for col in range(n + 1):
        for k in range(n + 1 - col):
            prod = Fraction(1)
            for j in range(col + 1, col + k + 1):
                prod *= j
            E[col + k][col] = t ** k / math.factorial(k) * prod
    return np.array([[float(v) for v in row] for row in E])


@pytest.mark.parametrize("n", [1, 3, 4, 6])
@pytest.mark.parametrize("t", [1, 10, 100])
def test_nilpotent_exponential_exact_rational_oracle(n, t):
    out = pdl.nilpotent_exponential(pdl.structure_matrix(n), float(t))
    want = _exact_exponential(n, t)
    scale = np.max(np.abs(want))
    assert np.max(np.abs(out - want)) <= 1e-14 * scale


def test_find_stationary_on_sir(case_i_params):
    dde = pdl.sir_distributed(case_i_params)
    y = pdl.find_stationary(dde, np.array([0.6, 0.2, 0.2]))
    z = np.zeros(3)
    z[1] = y[1]
    assert np.max(np.abs(dde.rhs(0.0, y, z))) <= 1e-10
    # the equilibria are S = theta/sigma with I free, or I = 0
    assert abs(y[0] - 0.5) <= 1e-6 or abs(y[1]) <= 1e-6


def test_find_stationary_reports_failure():
    w = pdl.beta_polynomial(0.0, 1.0, 0, 0)
    dde = _scalar_distributed(w, rhs=lambda t, y, z: np.array(
        [z[0] * z[0] + 1.0]))
    with pytest.raises(RuntimeError):
        pdl.find_stationary(dde, np.array([0.0]))


def test_distributed_dde_validation():
    w = pdl.beta_polynomial(0.0, 1.0, 0, 0)
    with pytest.raises(ValueError, match="dimension must be at least 1"):
        pdl.DistributedDelayDde(dimension=0,
                                rhs=lambda t, y, z: -y, weight=w,
                                delayed_components=frozenset({0}),
                                history=lambda t: np.array([1.0]))
    with pytest.raises(ValueError):
        pdl.DistributedDelayDde(dimension=1,
                                rhs=lambda t, y, z: -y, weight=w,
                                delayed_components=frozenset(),
                                history=lambda t: np.array([1.0]))
    with pytest.raises(ValueError):
        pdl.DistributedDelayDde(dimension=1,
                                rhs=lambda t, y, z: -y, weight=w,
                                delayed_components=frozenset({1}),
                                history=lambda t: np.array([1.0]))
