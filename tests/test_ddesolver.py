"""Method-of-steps integrator: hand-computed benchmark values, order
behaviour of the continuous extension, and input validation."""

import dataclasses
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import polydelay as pdl
from polydelay import cli, ddesolver
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
    # y'' jumps at the delay 1, so the mesh must land there exactly
    traj = pdl.solve(_benchmark(), 4.0)
    assert np.min(np.abs(traj.mesh - 1.0)) == 0.0


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


def _interval(t0, t1):
    # sample_times reads only the covered interval
    return pdl.Trajectory(mesh=np.array([t0, t1]), states=np.zeros((2, 1)),
                          derivs=np.zeros((2, 1)), steps_taken=1,
                          steps_rejected=0)


def _grid_blocks(traj, k):
    blocks = list(ddesolver.sample_times(traj, k))
    # full blocks, but for the last
    assert [len(b) for b in blocks[:-1]] == \
        [ddesolver._BLOCK_ROWS] * (len(blocks) - 1)
    assert 1 <= len(blocks[-1]) <= ddesolver._BLOCK_ROWS
    return blocks


@pytest.mark.parametrize("k", [2, 1023, 1024, 1025, 2049])
def test_sample_times_blocks_join_to_linspace(k):
    for traj in (pdl.solve(_benchmark(), 4.0), _interval(0.1, 7.3)):
        want = np.linspace(traj.mesh[0], traj.mesh[-1], k)
        ts = np.concatenate(_grid_blocks(traj, k))
        assert ts.tobytes() == want.tobytes()
        assert pdl.sample(traj, k)[0].tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(t0=st.floats(-1e6, 1e6), width=st.floats(1e-6, 1e6),
       k=st.integers(2, 5000))
def test_sample_times_equal_linspace_bit_for_bit(t0, width, k):
    traj = _interval(t0, t0 + width)
    ts = np.concatenate(_grid_blocks(traj, k))
    assert ts.tobytes() == np.linspace(t0, t0 + width, k).tobytes()


def test_sample_times_need_two_points():
    for k in (1, 0, -3):
        with pytest.raises(ValueError, match="at least two"):
            list(ddesolver.sample_times(_interval(0.0, 1.0), k))
        with pytest.raises(ValueError, match="at least two"):
            pdl.sample(_interval(0.0, 1.0), k)


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
    # every delay is a mesh stop of its own, so delays closer than the
    # stops' 1e-12 resolution are rejected, not merged; delays out of
    # order are rejected, not sorted
    for delays in ((0.5 + 1e-13, 0.5), (0.5, 0.5 + 1e-13), (1.0, 0.5)):
        with pytest.raises(ValueError, match="must ascend"):
            pdl.DiscreteDelayDde(dimension=1, delays=delays, rhs=rhs,
                                 history=hist)
    assert pdl.DiscreteDelayDde(dimension=1, delays=(0.5, 0.5 + 1e-11),
                                rhs=rhs, history=hist).delays \
        == (0.5, 0.5 + 1e-11)
    for delays in ((math.nan,), (1.0, math.inf), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="finite"):
            pdl.DiscreteDelayDde(dimension=1, delays=delays, rhs=rhs,
                                 history=hist)


def test_dde_weights_validation():
    rhs = lambda t, y, Z: -Z[:, 0]
    hist = lambda t: np.array([1.0, 0.0])
    for bad in (np.ones((2, 3)), np.ones((1, 2)), np.ones(2)):
        with pytest.raises(ValueError, match=r"shape \(2, 2\)"):
            pdl.DiscreteDelayDde(dimension=2, delays=(0.5, 1.0), rhs=rhs,
                                 history=hist, weights=bad)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            pdl.DiscreteDelayDde(dimension=2, delays=(0.5, 1.0), rhs=rhs,
                                 history=hist,
                                 weights=[[1.0, bad], [0.0, 0.0]])
    assert pdl.DiscreteDelayDde(dimension=2, delays=(0.5, 1.0), rhs=rhs,
                                history=hist).weights is None
    with pytest.raises(ValueError, match="must ascend"):
        pdl.DiscreteDelayDde(dimension=2, delays=(1.0, 0.25, 0.5), rhs=rhs,
                             history=hist,
                             weights=[[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    # column j of W stays with delays[j], as given
    dde = pdl.DiscreteDelayDde(dimension=2, delays=(0.25, 0.5, 1.0), rhs=rhs,
                               history=hist,
                               weights=[[2.0, 3.0, 1.0], [5.0, 6.0, 4.0]])
    assert dde.delays == (0.25, 0.5, 1.0)
    assert np.array_equal(dde.weights, [[2.0, 3.0, 1.0], [5.0, 6.0, 4.0]])
    # replace keeps them
    again = dataclasses.replace(dde, rhs=lambda t, y, Z: Z[:, 0])
    assert again.delays == dde.delays
    assert np.array_equal(again.weights, dde.weights)
    # sources: one component index in [0, d) per row of W, and only with W
    assert dde.sources is None
    for bad in ((0,), (0, 1, 1), [[0, 1]], (0, 2), (-1, 0), (0.0, 1.0),
                (True, False)):
        with pytest.raises(ValueError, match=r"2 component indices in "
                                             r"\[0, 2\)"):
            pdl.DiscreteDelayDde(dimension=2, delays=(0.5, 1.0), rhs=rhs,
                                 history=hist, weights=np.ones((2, 2)),
                                 sources=bad)
    with pytest.raises(ValueError, match="sources need weights"):
        pdl.DiscreteDelayDde(dimension=2, delays=(0.5, 1.0), rhs=rhs,
                             history=hist, sources=(0, 0))
    # W and the rows' sources are kept as given
    dde = pdl.DiscreteDelayDde(dimension=2, delays=(0.25, 0.5, 1.0), rhs=rhs,
                               history=hist,
                               weights=[[2.0, 3.0, 1.0], [5.0, 6.0, 4.0]],
                               sources=np.array([1, 0], dtype=np.int32))
    assert np.array_equal(dde.sources, [1, 0])
    assert np.array_equal(dde.weights, [[2.0, 3.0, 1.0], [5.0, 6.0, 4.0]])
    again = dataclasses.replace(dde, rhs=lambda t, y, Z: Z[:, 0])
    assert np.array_equal(again.sources, [1, 0])
    assert np.array_equal(again.weights, dde.weights)


def _weighted_pair(sources=None):
    """One DDE twice: with weights (and sources), and with an rhs that
    forms the weighted sums itself from the full Z."""
    delays = (0.3, 0.7, 1.0)
    W = np.array([[0.5, 0.3, 0.2], [0.1, 0.0, -0.4]])
    rows = [0, 1] if sources is None else list(sources)

    def f(t, y, z):
        return np.array([-z[0] + 0.1 * y[1], -z[1] - 0.5 * y[0]])

    def hist(t):
        return np.array([1.0 + t, math.cos(3.0 * t)])

    full = pdl.DiscreteDelayDde(
        dimension=2, delays=delays, history=hist,
        rhs=lambda t, y, Z: f(t, y, (W * Z[rows]).sum(1)))
    weighted = pdl.DiscreteDelayDde(
        dimension=2, delays=delays, history=hist, weights=W, sources=sources,
        rhs=lambda t, y, Z: f(t, y, Z[:, 0]))
    return full, weighted


def test_weighted_lookups_match_an_rhs_that_sums(monkeypatch):
    # run lookups serve the weighted sums of single lookups bit for bit;
    # with sources (0, 0), row 1 of W reads component 0
    for sources in (None, (0, 0)):
        full, weighted = _weighted_pair(sources)
        opts = pdl.SolverOptions(h_max=0.01)
        got = _solve_with_and_without_blocks(monkeypatch, weighted, 4.0,
                                             opts)
        # the reference and the next pass use the uncounted _hermite
        monkeypatch.undo()
        want = pdl.solve(full, 4.0, opts)
        # the cap sets every step on both, so the meshes agree; the sums
        # may be added in another order, which moves each step's state by
        # a few ulps of its O(1) entries at most
        assert got.steps_taken == want.steps_taken
        assert got.steps_rejected == want.steps_rejected == 0
        assert np.array_equal(got.mesh, want.mesh)
        tol = 4 * ddesolver._EPS * got.steps_taken
        assert np.max(np.abs(got.states - want.states)) <= tol
        assert np.max(np.abs(got.derivs - want.derivs)) <= tol


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


_M8_NODES = tuple(pdl.gauss_jacobi(8, 2, 2, 0.2, 1.0).nodes)


@pytest.mark.parametrize("delays, t_end, want", [
    (_M8_NODES, 20.0 / 3.0, list(_M8_NODES)),
    ((0.2, 1.0), 20.0 / 3.0, [0.2, 1.0]),
    ((0.5, 0.5 + 1e-13), 2.0, [0.5, 0.5 + 1e-13]),
    ((0.5, 2.0 - 1e-13, 3.0), 2.0, [0.5])],
    ids=["quadrature-m8", "two-delays", "merged-pair", "past-horizon"])
def test_breakpoints_are_the_delays_below_the_horizon(delays, t_end, want):
    # only the delays themselves: sums of delays carry jumps in y''' and
    # higher derivatives, which the 3(2) pair's error estimate covers.
    # Nothing is merged: a pair closer than 1e-12 stays two stops here,
    # because DiscreteDelayDde rejects such pairs (test_dde_validation).
    assert _breakpoints(delays, t_end) == want


def test_breakpoints_empty_without_delays():
    assert _breakpoints((), 5.0) == []


def test_tiny_first_step_runs_clean():
    # the first mesh interval is [0, 1e-300]; extrapolating delayed
    # queries below zero through it would overflow, so they must not reach
    # the Hermite before the history replaces them. y = 1 - 2t on
    # [0, 1/2], so y(1/2) = 0.
    dde = pdl.DiscreteDelayDde(
        dimension=1, delays=(0.5, 1.0),
        rhs=lambda t, y, Z: -Z[:, 0] - Z[:, 1],
        history=lambda t: np.array([1.0]))
    traj = pdl.solve(dde, 3.0, pdl.SolverOptions(h_init=1e-300))
    assert traj.mesh[1] == 1e-300
    assert traj.mesh[-1] == 3.0
    assert abs(pdl.dense_eval(traj, 0.5)[0]) <= 10.0 * (1e-8 + 1e-6)


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
    # y' = 1e300 y: the curvature probe overflows and the first step
    # rounds to zero, which must raise at t = 0 instead of taking
    # zero-length steps until the budget runs out
    dde = pdl.DiscreteDelayDde(
        dimension=1, delays=(1.0,), rhs=lambda t, y, Z: 1e300 * y,
        history=lambda t: np.array([1.0]))
    with pytest.raises(pdl.SolverError, match="underflow at t = 0"):
        pdl.solve(dde, 1.0, pdl.SolverOptions(max_steps=1000))
    # the probe's df/dt estimate overflows instead, and fails the same
    # way, without a warning
    c = 1.5e308
    dde = pdl.DiscreteDelayDde(
        dimension=2, delays=(0.5,),
        rhs=lambda t, y, Z: c * t * np.array(
            [1.0, 1.0 + 0.1 * math.sin(20.0 * t) + 0.1 * Z[0, 0] / c]),
        history=lambda t: np.zeros(2))
    with pytest.raises(pdl.SolverError, match="underflow at t = 0"):
        pdl.solve(dde, 1.0, pdl.SolverOptions(h_max=0.01))


def test_nonfinite_rhs_raises_solver_error():
    def rhs(t, y, Z):
        return np.array([float("nan")])

    dde = pdl.DiscreteDelayDde(dimension=1, delays=(1.0,), rhs=rhs,
                               history=lambda t: np.array([1.0]))
    with pytest.raises(pdl.SolverError):
        pdl.solve(dde, 2.0)


def test_step_budget_enforced():
    # five steps of at most the delay 1 could reach t = 4, but error
    # control needs more, so the budget runs out inside the loop
    opts = pdl.SolverOptions(max_steps=5)
    with pytest.raises(pdl.SolverError, match="exhausted"):
        pdl.solve(_benchmark(), 4.0, opts)

    # a horizon beyond max_steps * min(h_max, smallest delay) fails before
    # the first rhs call; one that fits exactly is solved
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
    # without h_max the delay caps the steps: four of 1 reach t = 4
    calls.clear()
    with pytest.raises(pdl.SolverError,
                       match="min\\(h_max, smallest delay\\) = 1$"):
        pdl.solve(dde, 4.0, pdl.SolverOptions(h_init=1.0, max_steps=3))
    assert calls == []
    traj = pdl.solve(dde, 4.0, pdl.SolverOptions(h_init=1.0, max_steps=4))
    assert traj.steps_taken == 4


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


def _assert_served_states_exact(dde, traj, stages):
    """Every recorded stage (t, Z) has Z[:, j] equal, bit for bit, to
    the trajectory's continuous extension at t - delays[j], or to the
    history there at or below 0; with weights W, Z[e, 0] equals the sum
    of W[e, j] times those states of component sources[e] (or e), added
    in order j = 0, 1, ... Holds while no step reaches the smallest delay,
    where a query past the mesh end is clamped."""
    Zs = np.array([Z for _, Z in stages])
    q = np.subtract.outer([t for t, _ in stages], dde.delays)
    expected = np.empty((len(stages), dde.dimension, len(dde.delays)))
    past = q > 0.0
    expected.transpose(0, 2, 1)[past] = pdl.dense_eval(traj, q[past])
    for s, j in zip(*np.nonzero(~past)):
        expected[s, :, j] = dde.history(q[s, j])
    if dde.weights is not None:
        W = dde.weights
        rows = (np.arange(dde.dimension) if dde.sources is None
                else dde.sources)
        column = W[:, 0] * expected[:, rows, 0]
        for j in range(1, len(dde.delays)):
            column = column + W[:, j] * expected[:, rows, j]
        expected = column[:, :, None]
    assert np.array_equal(Zs, expected)


def _solve_with_and_without_blocks(monkeypatch, dde, t_end, opts):
    """Solve once with run lookups and once with per-attempt lookups
    only; require identical trajectories, fewer Hermite evaluations with
    runs, and delayed states that match an independent dense evaluation.
    Returns the trajectory with runs."""
    hermite = ddesolver._hermite
    calls = [0]
    stages = []

    def counted(*args):
        calls[0] += 1
        return hermite(*args)

    def recording(t, y, Z):
        stages.append((t, Z.copy()))
        return dde.rhs(t, y, Z)

    recorded = dataclasses.replace(dde, rhs=recording)
    monkeypatch.setattr(ddesolver, "_hermite", counted)
    with_runs = pdl.solve(recorded, t_end, opts)
    run_calls = calls[0]
    run_stages, stages = stages, []
    calls[0] = 0
    per_step = _per_step(recorded, t_end, opts)
    assert run_calls < calls[0]
    for name in ("mesh", "states", "derivs"):
        assert np.array_equal(getattr(with_runs, name),
                              getattr(per_step, name)), name
    assert with_runs.steps_taken == per_step.steps_taken
    assert with_runs.steps_rejected == per_step.steps_rejected
    _assert_served_states_exact(dde, with_runs, run_stages)
    _assert_served_states_exact(dde, per_step, stages)
    return with_runs


def _scaled_sir():
    weight = pdl.beta_polynomial(30.0, 150.0, 2, 2)
    params = pdl.SirParameters(sigma=0.1, theta=0.05, weight=weight,
                               y0=(0.99, 0.01, 0.0))
    return pdl.scale_distributed(pdl.sir_distributed(params))


@pytest.mark.parametrize("problem, t_end, h_max", [
    # h_max-bound, and past tau_max = 1, so early runs read the history
    ("equivalent", 1.5, 1e-3),
    ("quadrature-m8", 1.5, 1e-3),
    # error control and h_max take turns setting the step
    ("equivalent", 20.0 / 3.0, 0.012),
    ("benchmark", 4.0, 0.01)])
def test_block_lookups_equal_per_step_lookups(monkeypatch, problem, t_end,
                                              h_max):
    if problem == "benchmark":
        dde = _benchmark()
    elif problem == "equivalent":
        dde = pdl.build_equivalent(_scaled_sir()).assembled
    else:
        base = _scaled_sir()
        dde = pdl.build_quadrature_dde(base, pdl.gauss_jacobi(
            8, 2, 2, base.weight.a, base.weight.b))
    opts = pdl.SolverOptions(rtol=1e-6, atol=1e-8, h_max=h_max)
    _solve_with_and_without_blocks(monkeypatch, dde, t_end, opts)


def test_rejection_inside_a_block_falls_back(monkeypatch):
    # forcing that switches on at t = 1.537, inside a run of h_max steps
    # after the breakpoint 1; the h_max step across it is rejected, which
    # leaves the cap and ends the run
    def rhs(t, y, Z):
        return -Z[:, 0] + (50.0 if t > 1.537 else 0.0)

    dde = pdl.DiscreteDelayDde(dimension=1, delays=(1.0,), rhs=rhs,
                               history=lambda t: np.array([1.0]))
    opts = pdl.SolverOptions(h_max=0.01)
    traj = _solve_with_and_without_blocks(monkeypatch, dde, 3.0, opts)
    assert traj.steps_rejected > 0
    assert np.all(np.diff(traj.mesh) > 0.0)


@settings(max_examples=40, deadline=None)
@given(delays=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=4,
                       unique=True).filter(
           # DiscreteDelayDde refuses delays 1e-12 apart or closer
           lambda ds: np.all(np.diff(sorted(ds)) > 1e-12)),
       h_max=st.sampled_from([0.003, 0.01, 0.02, 0.05]),
       switch=st.floats(0.0, 3.0),
       rtol=st.sampled_from([1e-3, 1e-6]))
def test_runs_equal_per_step_lookups(delays, h_max, switch, rtol):
    # a run serves an attempt only while the step sits at its cap; the
    # forcing switch rejects steps at random places inside runs
    def rhs(t, y, Z):
        return -Z.mean(axis=1) + (50.0 if t > switch else 0.0)

    dde = pdl.DiscreteDelayDde(dimension=1, delays=tuple(sorted(delays)),
                               rhs=rhs,
                               history=lambda t: np.array([1.0 + t]))
    opts = pdl.SolverOptions(rtol=rtol, h_max=h_max)
    with_runs = pdl.solve(dde, 3.0, opts)
    per_step = _per_step(dde, 3.0, opts)
    for name in ("mesh", "states", "derivs", "steps_taken",
                 "steps_rejected"):
        assert np.array_equal(getattr(with_runs, name),
                              getattr(per_step, name)), name


def _per_step(dde, t_end, opts):
    """solve() with every attempt on its own: no run lookups, no batched
    steps. It patches _RUN_STEPS itself because function-scoped fixtures
    such as monkeypatch do not reset between hypothesis examples."""
    with mock.patch.object(ddesolver, "_RUN_STEPS", 1):
        return pdl.solve(dde, t_end, opts)


def _counted(dde):
    """dde with an rhs that counts its calls in the returned list."""
    calls = [0]

    def rhs(t, y, Z):
        calls[0] += 1
        return dde.rhs(t, y, Z)

    return dataclasses.replace(dde, rhs=rhs), calls


@settings(max_examples=60, deadline=None)
@given(delays=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=3,
                       unique=True).filter(
           lambda ds: np.all(np.diff(sorted(ds)) > 1e-12)),
       h_max=st.sampled_from([0.003, 0.01, 0.02, 0.05]),
       rtol=st.sampled_from([1e-3, 1e-4, 1e-5, 1e-6]),
       amp=st.floats(0.0, 5.0), w=st.floats(0.5, 30.0))
def test_batched_runs_equal_per_step_solve(delays, h_max, rtol, amp, w):
    # the forcing makes the cap and error control take turns, so batched
    # runs are cut at random places and their first failing step is
    # retried alone
    dde, calls = _counted(pdl.DiscreteDelayDde(
        dimension=1, delays=tuple(sorted(delays)),
        rhs=lambda t, y, Z: -Z.mean(axis=1) + amp * math.sin(w * t) * y,
        history=lambda t: np.array([1.0 + t])))
    opts = pdl.SolverOptions(rtol=rtol, h_max=h_max)
    batched = pdl.solve(dde, 3.0, opts)
    # a run is never longer than the accepted steps before it, so the
    # discarded steps cost at most as many calls as the taken ones
    attempts = batched.steps_taken + batched.steps_rejected
    assert calls[0] <= 2 * (3 * attempts + 2)
    per_step = _per_step(dde, 3.0, opts)
    for name in ("mesh", "states", "derivs", "steps_taken",
                 "steps_rejected"):
        assert np.array_equal(getattr(batched, name),
                              getattr(per_step, name)), name


def test_batched_runs_discard_steps_and_keep_the_trajectory():
    # one problem of the family above on which batched runs are cut: the
    # discarded steps show as extra rhs calls (about 1.3 times the
    # per-step count), and the trajectory is the per-step one. Runs as
    # long as the lookup allows, without the held bound, would make about
    # 3.2 times the calls here.
    dde, calls = _counted(pdl.DiscreteDelayDde(
        dimension=1, delays=(0.41, 0.92),
        rhs=lambda t, y, Z: -Z.mean(axis=1) + 0.74 * math.sin(23.5 * t) * y,
        history=lambda t: np.array([1.0 + t])))
    opts = pdl.SolverOptions(rtol=1e-5, h_max=0.01)
    batched = pdl.solve(dde, 3.0, opts)
    batched_calls, calls[0] = calls[0], 0
    per_step = _per_step(dde, 3.0, opts)
    assert calls[0] == 3 * (per_step.steps_taken
                            + per_step.steps_rejected) + 2
    assert calls[0] < batched_calls <= 2 * calls[0]
    for name in ("mesh", "states", "derivs"):
        assert np.array_equal(getattr(batched, name), getattr(per_step, name))


@pytest.mark.parametrize("preset, m, changes, rejected, calls", [
    ("case-i", None, {}, 0, 20006), ("case-ii", None, {}, 0, 24008),
    ("case-i", 8, {}, 0, 20015), ("case-ii", 8, {}, 0, 24014),
    # error control sets these steps: the dense-output solve, whose
    # attempts are all single ones, and the uncapped case i, whose
    # attempts at the smallest delay get one-step runs
    ("case-ii", None, dict(h_max=math.inf, rtol=1e-9, atol=1e-12), 1,
     29795),
    ("case-i", None, dict(h_max=math.inf), 0, 1502)],
    ids=["case-i-None-20006", "case-ii-None-24008", "case-i-8-20015",
         "case-ii-8-24014", "case-ii-dense-29795", "case-i-hmax-inf-1502"])
def test_published_runs_discard_no_step(preset, m, changes, rejected,
                                        calls):
    # no step is discarded: 3 rhs calls an attempt, plus the first
    # derivative and the first-step probe. The preset solves are
    # h_max-bound with no error above the margin, so every batched step
    # is taken.
    config = dataclasses.replace(cli.PRESETS[preset], **changes)
    _, base = cli._problem(config)
    t_end, opts = cli._integration(config)
    dde, count = _counted(cli._route(config, base, m))
    traj = pdl.solve(dde, t_end, opts)
    assert traj.steps_rejected == rejected
    assert count[0] == 3 * (traj.steps_taken + rejected) + 2 == calls


def test_nonfinite_rhs_deep_in_a_run_raises_at_its_step():
    # with h_max = 0.01 the steps from t = 1.99 on run back to back, 99 at
    # a time; the rhs turns infinite inside that run
    bad_calls = []

    def rhs(t, y, Z):
        if t > 2.5:
            bad_calls.append(t)
            return np.array([math.inf])
        return -Z[:, 0]

    dde = pdl.DiscreteDelayDde(dimension=1, delays=(1.0,), rhs=rhs,
                               history=lambda t: np.array([1.0]))
    opts = pdl.SolverOptions(h_max=0.01)
    messages = []
    for solver in (pdl.solve, _per_step):
        bad_calls.clear()
        with pytest.raises(pdl.SolverError) as info:
            with pytest.warns(RuntimeWarning, match="invalid value"):
                solver(dde, 4.0, opts)
        messages.append(str(info.value))
        # the stages of the one step that meets the bad times
        assert 1 <= len(bad_calls) <= 3
    assert messages[0] == messages[1]
    assert messages[0].startswith(
        "non-finite right-hand side in the step from t = 2.5")


def test_budget_running_out_inside_a_run_matches_per_step():
    # from h_init = 1e-6 the steps need about ten more than t_end / h_max;
    # these budgets pass the pre-check and run out inside the last run
    dde = _benchmark()
    for max_steps in range(400, 407):
        opts = pdl.SolverOptions(h_max=0.01, h_init=1e-6,
                                 max_steps=max_steps)
        messages = []
        for solver in (pdl.solve, _per_step):
            with pytest.raises(pdl.SolverError, match="exhausted") as info:
                solver(dde, 4.0, opts)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert "(%d accepted, 0 rejected)" % max_steps in messages[0]


def _history_loop(Z, q, history):
    """The per-query fill that _fill_from_history replaces, kept as its
    reference: one history call per query at or below 0, row-major."""
    for s, j in zip(*np.nonzero(q <= 0.0)):
        Z[s, j] = history(float(q[s, j]))


def _assert_fill_matches_loop(Z, q, history):
    """Both fills write the same bits into copies of Z and make the same
    history calls, with the same Python float arguments, in order."""
    out, calls = [], []
    for fill in (ddesolver._fill_from_history, _history_loop):
        seen = []

        def recording(t):
            seen.append((type(t), t))
            return history(t)

        target = Z.copy()
        fill(target, q, recording)
        out.append(target.tobytes())
        calls.append(seen)
    assert out[0] == out[1]
    assert calls[0] == calls[1]


@pytest.mark.parametrize("q, d, history", [
    # d = 1, queries on both sides of 0
    (np.subtract.outer([0.1, 0.3, 0.7], [0.2, 0.5]), 1,
     lambda t: np.array([1.0 + t])),
    # a history that returns a list
    (np.subtract.outer([0.05, 0.25], [0.1, 0.2, 0.3]), 3,
     lambda t: [math.cos(t), t * t, -0.0]),
    # the empty selection of a zero-delay DDE's lookup at t = 0
    (np.empty((1, 0)), 2, lambda t: np.ones(2)),
    # no query at or below 0
    (np.subtract.outer([1.5, 2.0], [0.5, 1.0]), 2, lambda t: np.ones(2)),
])
def test_history_fill_matches_per_query_loop(q, d, history):
    # entries the history does not set must stay as they are
    Z = np.arange(q.size * d, dtype=float).reshape(q.shape + (d,)) + 0.5
    _assert_fill_matches_loop(Z, q, history)


def test_history_fill_matches_loop_on_run_lookups(monkeypatch):
    # with h_max = 1e-3 below the delays, the first runs look up 128
    # steps whose 384 stage times all query the history; each fill the
    # solve makes is replayed against the per-query loop
    fills = []
    fill = ddesolver._fill_from_history

    def recording(Z, q, history):
        fills.append((Z.copy(), q.copy(), history))
        fill(Z, q, history)

    monkeypatch.setattr(ddesolver, "_fill_from_history", recording)
    dde = pdl.DiscreteDelayDde(
        dimension=2, delays=(0.5, 0.8),
        rhs=lambda t, y, Z: -Z.sum(axis=1) + np.array([0.0, math.sin(t)]),
        history=lambda t: [1.0 + t, math.exp(t)])
    pdl.solve(dde, 1.0, pdl.SolverOptions(h_max=1e-3))
    assert max(np.count_nonzero(q <= 0.0) for _, q, _ in fills) >= 300
    monkeypatch.undo()
    for Z, q, history in fills:
        _assert_fill_matches_loop(Z, q, history)


def test_derivative_sum_overflow_keeps_the_per_step_solve():
    # finite derivative entries whose sum passes the float range from
    # t = 0.6 on: each such step ends its batched run early, and the
    # steps taken stay those of the per-attempt loop
    c = 1.5e308
    dde = pdl.DiscreteDelayDde(
        dimension=2, delays=(0.5,),
        rhs=lambda t, y, Z: c * t * np.array(
            [1.0, 1.0 + 0.1 * math.sin(20.0 * t) + 0.1 * Z[0, 0] / c]),
        history=lambda t: np.zeros(2))
    # h_init skips the first-step probe, whose derivative estimate
    # overflows on this rhs
    opts = pdl.SolverOptions(h_max=0.01, h_init=0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        batched = pdl.solve(dde, 1.0, opts)
        per_step = _per_step(dde, 1.0, opts)
    assert any(math.isinf(sum(row)) for row in batched.derivs.tolist())
    for name in ("mesh", "states", "derivs", "steps_taken",
                 "steps_rejected"):
        assert np.array_equal(getattr(batched, name),
                              getattr(per_step, name)), name
