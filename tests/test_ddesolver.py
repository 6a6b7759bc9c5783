"""Method-of-steps integrator: hand-computed benchmark values, order
behaviour of the continuous extension, and input validation."""

import itertools
import math

import numpy as np
import pytest

import polydelay as pdl
from polydelay.ddesolver import _breakpoints


def _benchmark():
    # y'(t) = -y(t - 1), history 1; piecewise polynomial by hand:
    # y = 1 - t on [0, 1], y = 1 - t + (t-1)^2/2 on [1, 2], so y(1) = 0,
    # y(1.5) = -3/8, y(2) = -1/2
    def rhs(t, y, Z):
        return -Z[:, 0]

    def hist(t):
        return np.array([1.0])

    return pdl.DiscreteDelayDde(dimension=1, delays=(1.0,), rhs=rhs,
                                history=hist)


def _decay():
    # no delay dependence in the rhs; reduces to y' = -y
    def rhs(t, y, Z):
        return -y

    def hist(t):
        return np.array([1.0])

    return pdl.DiscreteDelayDde(dimension=1, delays=(10.0,), rhs=rhs,
                                history=hist)


def test_benchmark_hand_values():
    traj = pdl.solve(_benchmark(), 4.0)
    tol = 10.0 * (1e-8 + 1e-6)
    assert abs(pdl.dense_eval(traj, 1.0)[0] - 0.0) <= tol
    assert abs(pdl.dense_eval(traj, 1.5)[0] - (-0.375)) <= tol
    assert abs(pdl.dense_eval(traj, 2.0)[0] - (-0.5)) <= tol


def test_benchmark_lands_on_breakpoints():
    traj = pdl.solve(_benchmark(), 4.0)
    mesh = np.asarray(traj.mesh)
    for stop in (1.0, 2.0, 3.0):
        assert np.min(np.abs(mesh - stop)) == 0.0


def test_step_size_never_exceeds_min_delay():
    traj = pdl.solve(_benchmark(), 4.0)
    assert np.max(np.diff(traj.mesh)) <= 1.0 + 1e-12


def test_exponential_decay_without_delay_use():
    traj = pdl.solve(_decay(), 1.0)
    assert pdl.dense_eval(traj, 1.0)[0] == \
        pytest.approx(math.exp(-1.0), abs=1e-5)


def test_zero_rhs_keeps_state_constant():
    def rhs(t, y, Z):
        return np.zeros(1)

    dde = pdl.DiscreteDelayDde(dimension=1, delays=(0.5,), rhs=rhs,
                               history=lambda t: np.array([2.5]))
    traj = pdl.solve(dde, 3.0)
    assert traj.steps_rejected == 0
    for t in np.linspace(0, 3, 7):
        assert pdl.dense_eval(traj, t)[0] == 2.5


def test_dense_eval_reproduces_mesh_states():
    traj = pdl.solve(_decay(), 1.0)
    for k in (0, len(traj.mesh) // 2, len(traj.mesh) - 1):
        t = traj.mesh[k]
        assert np.array_equal(pdl.dense_eval(traj, t), traj.states[k])
    # one array call equals the per-point scalar calls bit for bit, at
    # mesh points, both endpoints and between mesh points
    mids = 0.5 * (traj.mesh[:-1] + traj.mesh[1:])
    times = np.concatenate([traj.mesh, mids, np.linspace(0.0, 1.0, 37)])
    batch = pdl.dense_eval(traj, times)
    assert batch.shape == (times.size, 1)
    singles = np.array([pdl.dense_eval(traj, t) for t in times])
    assert np.array_equal(batch, singles)
    assert np.array_equal(batch[:traj.mesh.size], traj.states)


def test_dense_eval_rejects_out_of_range_times():
    traj = pdl.solve(_decay(), 1.0)
    with pytest.raises(ValueError):
        pdl.dense_eval(traj, -0.01)
    with pytest.raises(ValueError):
        pdl.dense_eval(traj, 1.01)
    with pytest.raises(ValueError, match="t = 1.01 outside"):
        pdl.dense_eval(traj, np.array([0.0, 0.5, 1.01, 1.0]))
    with pytest.raises(ValueError, match="t = -0.01 outside"):
        pdl.dense_eval(traj, np.array([-0.01, 0.5]))


def test_linear_solution_exact():
    def rhs(t, y, Z):
        return np.ones(1)

    dde = pdl.DiscreteDelayDde(dimension=1, delays=(0.7,), rhs=rhs,
                               history=lambda t: np.array([t]))
    traj = pdl.solve(dde, 2.0)
    for t in (0.1, 0.33, 1.0, 1.9):
        assert pdl.dense_eval(traj, t)[0] == pytest.approx(t, abs=1e-15)


def test_cubic_solution_exact():
    # third-order pair integrates t^2 exactly and the cubic Hermite
    # extension reproduces cubics, so y = t^3 has no discretisation error
    def rhs(t, y, Z):
        return np.array([3.0 * t * t])

    dde = pdl.DiscreteDelayDde(dimension=1, delays=(0.7,), rhs=rhs,
                               history=lambda t: np.array([t ** 3]))
    traj = pdl.solve(dde, 2.0)
    for t in (0.1, 0.33, 1.0, 1.9):
        assert pdl.dense_eval(traj, t)[0] == pytest.approx(t ** 3,
                                                           abs=1e-13)


def _fixed_step_options(h):
    # loose error test plus h_init = h_max = h forces a fixed step size
    return pdl.SolverOptions(rtol=1e-1, atol=1e6, h_max=h, h_init=h)


def test_dense_output_order_at_step_midpoints():
    errors = []
    for h in (1.0 / 8, 1.0 / 16, 1.0 / 32):
        traj = pdl.solve(_decay(), 1.0, _fixed_step_options(h))
        mesh = np.asarray(traj.mesh)
        mids = 0.5 * (mesh[:-1] + mesh[1:])
        err = max(abs(pdl.dense_eval(traj, t)[0] - math.exp(-t))
                  for t in mids)
        errors.append(err)
    order1 = math.log2(errors[0] / errors[1])
    order2 = math.log2(errors[1] / errors[2])
    assert order1 >= 3.0 - 0.3
    assert order2 >= 3.0 - 0.3


def test_sample_endpoints_and_monotonicity():
    traj = pdl.solve(_benchmark(), 4.0)
    two, _ = pdl.sample(traj, 2)
    assert two[0] == 0.0 and two[1] == 4.0
    times, states = pdl.sample(traj, 1000)
    assert times.shape == (1000,) and states.shape == (1000, 1)
    assert np.all(np.diff(times) > 0)
    with pytest.raises(ValueError):
        pdl.sample(traj, 1)


def test_solver_counters_consistent():
    traj = pdl.solve(_benchmark(), 4.0)
    assert traj.steps_taken == len(traj.mesh) - 1
    assert traj.steps_rejected >= 0
    assert traj.states.shape == (len(traj.mesh), 1)
    assert traj.derivs.shape == traj.states.shape


def test_dde_validation():
    rhs = lambda t, y, Z: -y
    hist = lambda t: np.array([1.0])
    with pytest.raises(ValueError):
        pdl.DiscreteDelayDde(dimension=0, delays=(1.0,), rhs=rhs,
                             history=hist)
    with pytest.raises(ValueError):
        pdl.DiscreteDelayDde(dimension=1, delays=(0.0,), rhs=rhs,
                             history=hist)
    with pytest.raises(ValueError):
        pdl.DiscreteDelayDde(dimension=1, delays=(-1.0,), rhs=rhs,
                             history=hist)
    with pytest.raises(ValueError):
        pdl.DiscreteDelayDde(dimension=1, delays=(1.0, 1.0), rhs=rhs,
                             history=hist)
    for delays in ((math.nan,), (1.0, math.inf), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="finite"):
            pdl.DiscreteDelayDde(dimension=1, delays=delays, rhs=rhs,
                                 history=hist)


def test_solver_options_bounds():
    with pytest.raises(ValueError):
        pdl.SolverOptions(rtol=1e-14)
    with pytest.raises(ValueError):
        pdl.SolverOptions(rtol=0.2)
    with pytest.raises(ValueError):
        pdl.SolverOptions(atol=0.0)
    # an infinite atol would switch error control off
    with pytest.raises(ValueError, match="finite"):
        pdl.SolverOptions(atol=math.inf)
    with pytest.raises(ValueError):
        pdl.SolverOptions(h_max=0.0)
    with pytest.raises(ValueError):
        pdl.SolverOptions(h_init=0.0)
    with pytest.raises(ValueError):
        pdl.SolverOptions(max_steps=0)


def test_invalid_horizon_rejected():
    with pytest.raises(ValueError):
        pdl.solve(_benchmark(), 0.0)
    with pytest.raises(ValueError):
        pdl.solve(_benchmark(), -1.0)
    with pytest.raises(ValueError, match="finite"):
        pdl.solve(_benchmark(), math.inf)


def _pair_sums(delays, t_end):
    # brute force: the sum of every multiset of at most four delays with
    # at most two distinct values, inside (0, t_end - 1e-12)
    return [sum(combo) for r in range(1, 5)
            for combo in itertools.combinations_with_replacement(delays, r)
            if len(set(combo)) <= 2 and sum(combo) < t_end - 1e-12]


@pytest.mark.parametrize("delays, count", [
    (tuple(pdl.gauss_jacobi(8, 2, 2, 0.2, 1.0).nodes), 194),
    ((0.2, 1.0), 14)])
def test_breakpoints_match_brute_force_delay_sums(delays, count):
    t_end = 20.0 / 3.0
    stops = np.array(_breakpoints(delays, t_end))
    want = np.array(_pair_sums(delays, t_end))
    assert len(stops) == count
    assert np.all(np.diff(stops) > 1e-12)
    assert stops[0] > 0.0 and stops[-1] < t_end - 1e-12
    # every brute-force sum is represented, and every stop is such a sum
    gaps = np.abs(np.subtract.outer(stops, want))
    assert gaps.min(axis=0).max() <= 1e-12
    assert gaps.min(axis=1).max() <= 1e-12


def test_breakpoints_empty_without_delays():
    assert _breakpoints((), 5.0) == []


def test_history_dimension_mismatch_rejected():
    dde = pdl.DiscreteDelayDde(dimension=2, delays=(1.0,),
                               rhs=lambda t, y, Z: -y,
                               history=lambda t: np.array([1.0]))
    with pytest.raises(ValueError):
        pdl.solve(dde, 1.0)
    # the rhs output is checked the same way
    dde = pdl.DiscreteDelayDde(dimension=1, delays=(1.0,),
                               rhs=lambda t, y, Z: np.array([1.0, 2.0]),
                               history=lambda t: np.array([1.0]))
    with pytest.raises(ValueError, match="length-1 derivatives"):
        pdl.solve(dde, 1.0)


def test_step_size_underflow_raises_solver_error():
    # y' jumps from 0 to 1e12 at t = 0.5: every step across the jump is
    # rejected until the step size falls below roundoff of t
    dde = pdl.DiscreteDelayDde(
        dimension=1, delays=(1.0,),
        rhs=lambda t, y, Z: np.array([1e12 if t > 0.5 else 0.0]),
        history=lambda t: np.array([1.0]))
    with pytest.raises(pdl.SolverError, match="underflow"):
        pdl.solve(dde, 1.0, pdl.SolverOptions(max_steps=10000))


def test_nonfinite_rhs_raises_solver_error():
    def rhs(t, y, Z):
        return np.array([float("nan")])

    dde = pdl.DiscreteDelayDde(dimension=1, delays=(1.0,), rhs=rhs,
                               history=lambda t: np.array([1.0]))
    with pytest.raises(pdl.SolverError):
        pdl.solve(dde, 2.0)


def test_step_budget_enforced():
    opts = pdl.SolverOptions(max_steps=3)
    with pytest.raises(pdl.SolverError):
        pdl.solve(_benchmark(), 4.0, opts)

    # a horizon beyond max_steps * h_max fails before the first rhs call;
    # one that fits exactly (eight steps of 0.5 to t = 4) is solved
    calls = []

    def rhs(t, y, Z):
        calls.append(t)
        return np.zeros(1)

    dde = pdl.DiscreteDelayDde(dimension=1, delays=(1.0,), rhs=rhs,
                               history=lambda t: np.array([1.0]))
    with pytest.raises(pdl.SolverError, match="cannot reach"):
        pdl.solve(dde, 4.0, pdl.SolverOptions(h_max=0.5, h_init=0.5,
                                              max_steps=7))
    assert calls == []
    traj = pdl.solve(dde, 4.0, pdl.SolverOptions(h_max=0.5, h_init=0.5,
                                                 max_steps=8))
    assert traj.steps_taken == 8


def test_nonfinite_rhs_mid_run_raises_solver_error():
    # finite until t = 1.3, so the f0 check passes and the error has to
    # come from the per-step check
    bad_calls = []

    def rhs(t, y, Z):
        if t > 1.3:
            bad_calls.append(t)
            return np.array([math.inf])
        return -Z[:, 0]

    dde = pdl.DiscreteDelayDde(dimension=1, delays=(1.0,), rhs=rhs,
                               history=lambda t: np.array([1.0]))
    # the inf stage makes the error norm nan, which numpy reports
    with pytest.raises(pdl.SolverError, match="non-finite"):
        with pytest.warns(RuntimeWarning, match="invalid value"):
            pdl.solve(dde, 4.0)
    # one attempt's three stages at most: no rejection loop
    assert 1 <= len(bad_calls) <= 3


def _linear_history(t):
    if t > 0.0:
        raise AssertionError("history read at t = %g > 0" % t)
    return np.array([1.0 + t])


def test_single_delay_with_linear_history_matches_hand_solution():
    # y' = -y(t - 1), history 1 + t: y = 1 - t^2/2 on [0, 1], then
    # y = 1/2 - (t-1) + (t-1)^3/6 on [1, 2], so y(2) = -1/3
    dde = pdl.DiscreteDelayDde(dimension=1, delays=(1.0,),
                               rhs=lambda t, y, Z: -Z[:, 0],
                               history=_linear_history)
    traj = pdl.solve(dde, 2.0, pdl.SolverOptions(rtol=1e-10, atol=1e-12))
    ts = np.linspace(0.0, 1.0, 11)
    assert np.allclose(pdl.dense_eval(traj, ts)[:, 0], 1.0 - ts ** 2 / 2.0,
                       rtol=0.0, atol=1e-9)
    assert pdl.dense_eval(traj, 2.0)[0] == pytest.approx(-1.0 / 3.0,
                                                         abs=1e-9)


_DELAYS3 = (0.3, 0.7, 1.0)
_COEFFS3 = (0.5, 0.3, 0.2)


def _method_of_steps_polynomials(t_end):
    """Exact solution of y' = -sum_j c_j y(t - tau_j) with history 1 + t,
    as (breakpoints, polynomials in t) built interval by interval."""
    P = np.polynomial.Polynomial
    sums = {0.0}
    for _ in range(int(t_end / min(_DELAYS3)) + 1):
        sums |= {round(s + tau, 12) for s in sums for tau in _DELAYS3}
    cuts = sorted(s for s in sums if s < t_end) + [t_end]
    pieces = []

    def piece_at(s):
        # the polynomial valid on a delayed interval starting at s
        if s < 0.0:
            return P([1.0, 1.0])
        k = max(i for i, c in enumerate(cuts[:-1]) if c <= s + 1e-12)
        return pieces[k]

    y_left = 1.0
    for lo, hi in zip(cuts, cuts[1:]):
        mid = 0.5 * (lo + hi)
        slope = sum(-c * piece_at(mid - tau)(P([-tau, 1.0]))
                    for c, tau in zip(_COEFFS3, _DELAYS3))
        poly = slope.integ(lbnd=lo) + y_left
        pieces.append(poly)
        y_left = poly(hi)
    return cuts, pieces


def test_three_delays_match_method_of_steps():
    history_args = []
    stage_calls = []

    def hist(t):
        history_args.append(t)
        return _linear_history(t)

    def rhs(t, y, Z):
        stage_calls.append((t, Z.copy()))
        return np.array([-(Z[0] @ _COEFFS3)])

    dde = pdl.DiscreteDelayDde(dimension=1, delays=_DELAYS3, rhs=rhs,
                               history=hist)
    t_end = 2.0
    traj = pdl.solve(dde, t_end, pdl.SolverOptions(rtol=1e-10, atol=1e-12))
    assert max(history_args) <= 0.0

    cuts, pieces = _method_of_steps_polynomials(t_end)
    for lo, hi, poly in zip(cuts, cuts[1:], pieces):
        ts = np.linspace(lo, hi, 7)
        assert np.allclose(pdl.dense_eval(traj, ts)[:, 0], poly(ts),
                           rtol=0.0, atol=1e-8)

    # every batched lookup reads the continuous extension that dense_eval
    # reports afterwards, and the history at or below zero
    for t, Z in stage_calls:
        assert Z.shape == (1, 3)
        for j, tau in enumerate(_DELAYS3):
            q = t - tau
            want = 1.0 + q if q <= 0.0 else pdl.dense_eval(traj, q)[0]
            assert Z[0, j] == pytest.approx(want, rel=0.0, abs=1e-14)


def test_zero_delay_dde_decays_exponentially():
    dde = pdl.DiscreteDelayDde(dimension=1, delays=(),
                               rhs=lambda t, y, Z: -y,
                               history=lambda t: np.array([1.0]))
    traj = pdl.solve(dde, 1.0)
    assert pdl.dense_eval(traj, 1.0)[0] == \
        pytest.approx(math.exp(-1.0), abs=1e-5)


def test_long_solve_returns_exact_length_arrays():
    opts = pdl.SolverOptions(h_max=1e-3)
    traj = pdl.solve(_benchmark(), 2.0, opts)
    assert traj.steps_taken > 1024
    rows = traj.steps_taken + 1
    assert traj.mesh.shape == (rows,)
    assert traj.states.shape == (rows, 1)
    assert traj.derivs.shape == (rows, 1)
    assert traj.mesh[-1] == 2.0
    assert np.all(np.diff(traj.mesh) > 0.0)
