"""Equivalent-system assembly, auxiliary values, time scaling, and the
structure matrix of the auxiliary chain."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate
from scipy.linalg import expm

import polydelay as pdl


def _scalar_distributed(weight):
    # y' = -z with history 1
    return pdl.DistributedDelayDde(dimension=1,
                                   rhs=lambda t, y, z: np.array([-z[0]]),
                                   weight=weight,
                                   delayed_components=frozenset({0}),
                                   history=lambda t: np.array([1.0]))


def test_scalar_uniform_assembly():
    w = pdl.beta_polynomial(0.5, 2.0, 0, 0)
    system = pdl.build_equivalent(_scalar_distributed(w))
    assert system.degree == 0
    # the chain length is dimension - d and the delay pair is the weight's
    assert system.assembled.dimension - 1 == 1
    assert system.assembled.dimension == 2
    assert system.assembled.delays == (0.5, 2.0)
    assert (w.a, w.b) == (0.5, 2.0)


def _forcing(dde, Z):
    # the one column solve() hands the assembled rhs for the delayed
    # states Z: U[e, 0] = sum_j W[e, j] Z[sources[e], j], added in order j
    W, rows = dde.weights, dde.sources
    U = W[:, 0] * Z[rows, 0]
    for j in range(1, len(dde.delays)):
        U = U + W[:, j] * Z[rows, j]
    return U[:, None]


def test_scalar_uniform_aux_equation():
    # x_0' = y(t - a) - y(t - b), independent of the current state
    w = pdl.beta_polynomial(0.5, 2.0, 0, 0)
    system = pdl.build_equivalent(_scalar_distributed(w))
    Y = np.array([7.0, 3.0])
    Z = np.array([[4.0, 9.0],
                  [1.0, 1.0]])
    dY = system.assembled.rhs(0.0, Y, _forcing(system.assembled, Z))
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
    dY = system.assembled.rhs(0.0, Y, _forcing(system.assembled, Z))
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


def _chain_loop(Y, Z, d, comps, alpha, apow, bpow, base):
    # reference for the assembled rhs: one chain at a time, x_i' =
    # a^i y_c(t-a) - b^i y_c(t-b) + i x_{i-1} and z_c = alpha . x; with a
    # single delay column (a = 0) the a-terms read the current state
    n = len(alpha) - 1
    y_a = Y[:d] if Z.shape[1] == 1 else Z[:d, 0]
    y_b = Z[:d, -1]
    z = np.zeros(d)
    dY = np.empty(len(Y))
    for o, c in zip(range(d, len(Y), n + 1), comps):
        x = Y[o:o + n + 1]
        z[c] = alpha @ x
        dx = y_a[c] * apow - y_b[c] * bpow
        dx[1:] += np.arange(1, n + 1) * x[:-1]
        dY[o:o + n + 1] = dx
    dY[:d] = base(Y[:d], z)
    return dY


@settings(max_examples=80, deadline=None)
@given(a=st.one_of(st.just(0.0), st.floats(0.05, 2.0)),
       width=st.floats(0.1, 2.0),
       pq=st.integers(0, pdl.MAX_EQUIVALENT_DEGREE).flatmap(
           lambda n: st.tuples(st.integers(0, n), st.just(n))),
       comps=st.lists(st.integers(0, 2), min_size=1, max_size=2,
                      unique=True),
       seed=st.integers(0, 2 ** 32 - 1))
def test_assembled_rhs_matches_chain_loop(a, width, pq, comps, seed):
    # p + q runs over every degree build_equivalent takes
    p, degree = pq
    w = pdl.beta_polynomial(a, a + width, p, degree - p)
    n = w.degree
    dde = pdl.DistributedDelayDde(
        dimension=3, rhs=lambda t, y, z: z - y, weight=w,
        delayed_components=frozenset(comps), history=lambda t: np.ones(3))
    assembled = pdl.build_equivalent(dde).assembled
    comps = sorted(comps)
    dim = 3 + (n + 1) * len(comps)
    assert assembled.dimension == dim
    rng = np.random.default_rng(seed)

    def draw(shape):
        return rng.uniform(-1.0, 1.0, shape) * 10.0 ** rng.uniform(-3, 3,
                                                                   shape)

    Y = draw(dim)
    Z = draw((dim, len(assembled.delays)))
    alpha = np.array(w.coeffs)
    apow = w.a ** np.arange(n + 1)
    bpow = w.b ** np.arange(n + 1)
    ref = _chain_loop(Y, Z, 3, comps, alpha, apow, bpow,
                      lambda y, z: z - y)
    # the same loop on absolute values, with the b-terms and y added,
    # gives sum |terms| of each entry; each side sums at most n + 3
    # products and then subtracts y, so each is within (n + 4) u of that
    # sum (u = eps / 2, Higham's dot-product bound) and they differ by at
    # most (n + 4) eps of it
    scale = _chain_loop(np.abs(Y), np.abs(Z), 3, comps, np.abs(alpha),
                        apow, -bpow, lambda y, z: z + y)
    got = assembled.rhs(0.0, Y, _forcing(assembled, Z))
    assert np.all(np.abs(got - ref) <= (n + 4) * np.finfo(float).eps * scale)


def test_model_keeps_the_z_it_is_handed():
    # a model rhs may keep z: later calls leave each kept z holding its
    # own call's alpha . x, zero in the components without a delay
    w = pdl.beta_polynomial(0.5, 2.0, 1, 2)
    kept = []

    def keep(t, y, z):
        kept.append((z, z.copy()))
        return z - y

    dde = pdl.DistributedDelayDde(
        dimension=3, rhs=keep, weight=w, delayed_components=frozenset({0, 2}),
        history=lambda t: np.ones(3))
    assembled = pdl.build_equivalent(dde).assembled
    rng = np.random.default_rng(5)
    Ys = rng.uniform(-1.0, 1.0, (4, assembled.dimension))
    for Y in Ys:
        assembled.rhs(0.0, Y, rng.uniform(-1.0, 1.0, (assembled.dimension, 1)))
    alpha = np.array(w.coeffs)
    for (z, snapshot), Y in zip(kept, Ys):
        assert np.array_equal(z, snapshot)
        want = [alpha @ Y[3:7], 0.0, alpha @ Y[7:11]]
        assert z == pytest.approx(want, rel=1e-14, abs=1e-15)


@pytest.mark.parametrize("a", [0.0, 30.0])
def test_equivalent_degree_bound(a):
    # past MAX_EQUIVALENT_DEGREE the chain's drift outgrows the solver's
    # accuracy, so the route refuses rather than answering
    assert pdl.MAX_EQUIVALENT_DEGREE == 4
    for p, q in ((2, 2), (0, 4), (4, 0)):
        w = pdl.beta_polynomial(a, 150.0, p, q)
        assert pdl.build_equivalent(_scalar_distributed(w)).degree == 4
    for p, q in ((3, 2), (2, 3), (4, 4), (15, 15)):
        w = pdl.beta_polynomial(a, 150.0, p, q)
        with pytest.raises(ValueError, match="degree %d is above 4.*"
                                             "quadrature" % (p + q)):
            pdl.build_equivalent(_scalar_distributed(w))


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

    # constant on [-b, -a] but not at t = 0: the chains integrate only the
    # window, so the closed form of the window value holds exactly
    w3 = pdl.beta_polynomial(0.5, 2.0, 2, 2)
    vals3 = pdl.aux_initial_values(lambda t: 0.25 if t < 0 else 4.0, w3)
    assert vals3.tobytes() == pdl.stationary_aux(0.25, w3).tobytes()


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
    # a vector gives the scalar values stacked as columns, bit for bit
    for a, b, p, q in ((0.0, 1.0, 1, 1), (0.2, 1.0, 2, 2),
                       (30.0, 150.0, 2, 2)):
        w = pdl.beta_polynomial(a, b, p, q)
        y = np.array([0.99, 0.01, 0.0, -3.5])
        got = pdl.stationary_aux(y, w)
        want = np.column_stack([pdl.stationary_aux(v, w) for v in y])
        assert got.shape == (w.degree + 1, 4)
        assert got.tobytes() == want.tobytes()


def _aux_per_component(history, weight):
    # the scalar route build_equivalent used to take once per component:
    # closed form when every sample equals history(0), else quadrature
    a, b = weight.a, weight.b
    rule = pdl.gauss_legendre(32, a, b)
    h0 = float(history(0.0))
    hv = np.array([float(history(-tau)) for tau in rule.nodes])
    if np.all(hv == h0):
        return pdl.stationary_aux(h0, weight)
    powers = np.vander(rule.nodes, weight.degree + 1, increasing=True)
    return (b - a) * (rule.weights @ (hv[:, None] * powers))


def test_aux_initial_values_of_a_vector_is_one_scalar_call_per_component():
    w = pdl.beta_polynomial(0.5, 2.0, 1, 2)
    # a constant history takes the closed form in both routes
    y0 = np.array([0.99, 0.01, 0.0])
    got = pdl.aux_initial_values(lambda t: y0, w)
    want = np.column_stack([_aux_per_component(lambda t, c=c: y0[c], w)
                            for c in range(3)])
    assert got.tobytes() == want.tobytes()

    # a non-constant history takes the quadrature for every component, the
    # constant one included, which the scalar route gave in closed form;
    # both are sums of 32 products, so they agree to 64 eps of the sum of
    # the absolute terms (the rule is exact for these polynomials)
    def hist(t):
        return np.array([math.cos(t), 1.0, 1.0 + 0.5 * t])

    got = pdl.aux_initial_values(hist, w)
    want = np.column_stack([_aux_per_component(lambda t, c=c: hist(t)[c], w)
                            for c in range(3)])
    rule = pdl.gauss_legendre(32, w.a, w.b)
    powers = np.vander(rule.nodes, w.degree + 1, increasing=True)
    absvals = np.abs([hist(-tau) for tau in rule.nodes])
    scale = (w.b - w.a) * ((rule.weights[:, None] * powers).T @ absvals)
    assert got.shape == want.shape == (4, 3)
    assert np.all(np.abs(got - want) <= 64 * np.finfo(float).eps * scale)


@pytest.mark.parametrize("comps", [{1}, {0, 2}])
def test_build_equivalent_reads_the_history_32_times(comps):
    w = pdl.beta_polynomial(0.5, 2.0, 2, 2)
    calls = []

    def hist(t):
        calls.append(t)
        return np.array([math.cos(t), 1.0, 1.0 + 0.5 * t])

    system = pdl.build_equivalent(pdl.DistributedDelayDde(
        dimension=3, rhs=lambda t, y, z: z - y, weight=w,
        delayed_components=frozenset(comps), history=hist))
    assert len(calls) == 32
    # the assembled history is the base state followed by every chain's x(0)
    x0 = pdl.aux_initial_values(hist, w)
    Y = system.assembled.history(-1.0)
    assert Y.tobytes() == np.concatenate(
        (hist(-1.0), *(x0[:, c] for c in sorted(comps)))).tobytes()


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


@pytest.mark.parametrize("a, b, p, big", [
    (30.0, 150.0, 2, 1e10), (30.0, 150.0, 4, 1e18),
    (150.0, 250.0, 2, 1e11), (150.0, 250.0, 4, 1e20)])
def test_scaling_bounds_the_chain_but_not_its_cancellation(a, b, p, big):
    # at y* = 1 the time scaling t -> t/b keeps the chain's stationary
    # values at most 1 - a/b, where in days they reach 1e10 to 4e20; but
    # it moves that magnitude from x into alpha, so the cancellation factor
    # kappa = sum |alpha_i x_i*| / |alpha . x*| (150 to 4.5e7 here) is the
    # same either way, to the rounding it amplifies
    plain = pdl.beta_polynomial(a, b, p, p)
    scaled = pdl.rescale_to_unit(plain)
    x_plain = pdl.stationary_aux(1.0, plain)
    x_scaled = pdl.stationary_aux(1.0, scaled)
    assert np.max(np.abs(x_scaled)) == pytest.approx(1.0 - a / b, rel=1e-15)
    assert np.max(np.abs(x_plain)) >= big

    def kappa(w, x):
        terms = np.array(w.coeffs) * x
        return np.sum(np.abs(terms)) / abs(np.sum(terms))

    k = kappa(scaled, x_scaled)
    assert k > 100.0
    assert abs(kappa(plain, x_plain) / k - 1.0) <= \
        64.0 * k * np.finfo(float).eps


def test_scaled_and_unscaled_routes_are_equally_accurate():
    # 600 days, uncapped, at rtol 1e-8 with an atol of 1e-12 that acts on
    # neither route: max |dS| against a scaled solve at rtol 1e-10 reads
    # 2.14e-7 scaled and 2.15e-7 unscaled in case i, 2.66e-7 and 2.81e-7
    # in case ii. At the default atol 1e-8 the two part (README)
    opts = pdl.SolverOptions(rtol=1e-8, atol=1e-12)
    ts = np.linspace(0.0, 600.0, 1000)
    for a, b in ((30.0, 150.0), (150.0, 250.0)):
        sir = pdl.sir_distributed(pdl.SirParameters(
            sigma=0.1, theta=0.05, weight=pdl.beta_polynomial(a, b, 2, 2),
            y0=(0.99, 0.01, 0.0)))
        plain = pdl.build_equivalent(sir).assembled
        scaled = pdl.build_equivalent(pdl.scale_distributed(sir)).assembled
        ref = pdl.solve(scaled, 600.0 / b,
                        pdl.SolverOptions(rtol=1e-10, atol=1e-13))
        s_ref = pdl.dense_eval(ref, ts / b)[:, 0]
        err_scaled = np.max(np.abs(pdl.dense_eval(
            pdl.solve(scaled, 600.0 / b, opts), ts / b)[:, 0] - s_ref))
        err_plain = np.max(np.abs(pdl.dense_eval(
            pdl.solve(plain, 600.0, opts), ts)[:, 0] - s_ref))
        assert 0.5 <= err_plain / err_scaled <= 2.0, (a, err_scaled,
                                                       err_plain)


def test_equivalent_characteristic_function_is_the_models_times_lambda5():
    # linearised at the endemic point, the degree-4 equivalent system's
    # characteristic matrix lambda I - J0 - sum_j JU Dj exp(-lambda tau_j)
    # has the determinant lambda^5 det(lambda I - J(lambda)) of the
    # model's 3x3 matrix, whose z = g^(lambda) I is the Laplace transform
    # of the density: the chain adds n + 1 roots at 0 (relative gaps
    # 1.2e-10 to 3.3e-9 in case i, 1.9e-9 to 3.9e-8 in case ii)
    lams = (0.3 + 0.7j, -0.4 + 2.5j, 1.5 - 0.5j)
    h = 1e-6

    def jacobian(f, x):
        steps = h * np.eye(len(x))
        return np.column_stack([(f(x + e) - f(x - e)) / (2.0 * h)
                                for e in steps])

    for a, b in ((30.0, 150.0), (150.0, 250.0)):
        weight = pdl.beta_polynomial(a, b, 2, 2)
        params = pdl.SirParameters(sigma=0.1, theta=0.05, weight=weight,
                                   y0=(0.99, 0.01, 0.0))
        sigma, theta = 0.1 * b, 0.05 * b
        base = pdl.sir_distributed(pdl.SirParameters(
            sigma=sigma, theta=theta, weight=pdl.rescale_to_unit(weight),
            y0=params.y0))
        dde = pdl.build_equivalent(base).assembled
        s, i, r = pdl.sir_equilibrium(params)[1]
        Y = np.concatenate(([s, i, r], pdl.stationary_aux(i, base.weight)))
        dim = len(Y)
        # row e of Dj reads component sources[e] with weight W[e, j]
        D = np.zeros((len(dde.delays), dim, dim))
        D[:, np.arange(dim), dde.sources] = dde.weights.T
        U = D.sum(axis=0) @ Y
        J0 = jacobian(lambda y: dde.rhs(0.0, y, U[:, None]), Y)
        JU = jacobian(lambda u: dde.rhs(0.0, Y, u[:, None]), U)
        rule = pdl.gauss_jacobi(40, 2, 2, base.weight.a, base.weight.b)
        for lam in lams:
            delayed = np.tensordot(np.exp(-lam * np.array(dde.delays)), D, 1)
            full = np.linalg.det(lam * np.eye(dim) - J0 - JU @ delayed)
            g = np.sum(rule.weights * np.exp(-lam * rule.nodes))
            model = np.linalg.det(lam * np.eye(3) - np.array([
                [-sigma * i, -sigma * s + theta * g, 0.0],
                [sigma * i, sigma * s - theta, 0.0],
                [0.0, theta - theta * g, 0.0]]))
            assert abs(full / (lam ** 5 * model) - 1.0) <= 1e-6, (a, lam)


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
