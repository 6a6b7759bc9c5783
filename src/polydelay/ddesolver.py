"""Explicit Runge-Kutta integration of DDEs with discrete delays.

The integrator is an embedded 3(2) pair with first-same-as-last stage
reuse and a cubic Hermite continuous extension. Delayed states are looked
up by the method of steps: the step size never exceeds the smallest
delay, so every delayed query of a step falls inside territory that is
already accepted when the step starts (or in the history function for
arguments at or below zero). The 3 * (number of delays) queries of an
attempt are therefore answered at its start, with one searchsorted over
the mesh and one vectorised Hermite evaluation. Mesh, states and
derivatives live in preallocated arrays that double when full, and the
stages are checked for finiteness once per step, through the error norm.
Derivative discontinuities propagating from t = 0 are handled by forcing
the mesh onto all sums of up to four delays.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

_EPS = float(np.finfo(float).eps)

# Embedded 3(2) tableau (Bogacki-Shampine). The advancing solution has
# order 3; the _E coefficients give the difference against the embedded
# order-2 solution and sum to zero. Stage 4 is the derivative at the new
# point, reused as stage 1 of the next step.
_C2 = 0.5
_C3 = 0.75
_B = np.array([2.0 / 9.0, 1.0 / 3.0, 4.0 / 9.0])
_E = np.array([-5.0 / 72.0, 1.0 / 12.0, 1.0 / 9.0, -1.0 / 8.0])

# rows of the mesh arrays before their first doubling
_INITIAL_CAPACITY = 1024
_BREAKPOINT_ORDER = 4
_BREAKPOINT_MERGE = 1e-12


class SolverError(RuntimeError):
    """Integration failed: step budget, step underflow, or bad rhs output."""


@dataclass(frozen=True)
class DiscreteDelayDde:
    """DDE y'(t) = rhs(t, y(t), Z) with Z[:, j] = y(t - delays[j]).

    Attributes
    ----------
    dimension : int
        State dimension d.
    delays : tuple of float
        Strictly positive, finite, pairwise distinct lags; stored sorted
        ascending.
    rhs : callable
        rhs(t, y, Z) -> length-d derivative; Z has one column per delay.
    history : callable
        history(t) -> length-d state for t <= 0.
    """

    dimension: int
    delays: tuple
    rhs: object
    history: object

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be at least 1")
        delays = tuple(sorted(float(tau) for tau in self.delays))
        if not all(0.0 < tau < math.inf for tau in delays):
            raise ValueError("delays must be strictly positive and finite")
        if any(t1 <= t0 for t0, t1 in zip(delays, delays[1:])):
            raise ValueError("delays must be pairwise distinct")
        object.__setattr__(self, "delays", delays)


@dataclass(frozen=True)
class SolverOptions:
    """Error-control settings for solve()."""

    rtol: float = 1e-6
    atol: float = 1e-8
    h_max: float = math.inf
    h_init: float = None
    max_steps: int = 1000000

    def __post_init__(self):
        if not 1e-13 <= self.rtol <= 1e-1:
            raise ValueError("rtol must lie in [1e-13, 1e-1]")
        if not 0.0 < self.atol < math.inf:
            raise ValueError("atol must be positive and finite")
        if not self.h_max > 0.0:
            raise ValueError("h_max must be positive")
        if self.h_init is not None and not self.h_init > 0.0:
            raise ValueError("h_init must be positive when given")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")


@dataclass
class Trajectory:
    """Accepted mesh with states, derivatives and step counters.

    dense_eval interpolates between mesh points with the cubic Hermite of
    the endpoint states and derivatives; at the mesh points themselves it
    returns the stored states exactly, so the extension is globally
    continuous.
    """

    mesh: np.ndarray
    states: np.ndarray
    derivs: np.ndarray
    steps_taken: int
    steps_rejected: int


def _hermite(mesh, states, derivs, t):
    """Cubic Hermite interpolant of the mesh data at the times t.

    states and derivs have one row per mesh point (at least two); t is an
    array or numpy scalar inside [mesh[0], mesh[-1]]. The result has shape
    t.shape + (d,). At a mesh point the basis weights are exactly 0 and 1,
    so the stored state comes back exactly (a stored -0.0 may come back as
    0.0).
    """
    # Searching the interior points gives the left end of t's interval,
    # and the last interval also for t = mesh[-1]; the right end of
    # interval lo is row lo of the [1:] views.
    lo = mesh[1:-1].searchsorted(t, side="right")
    t0 = mesh[lo]
    h = mesh[1:][lo] - t0
    th = (t - t0) / h
    omt = 1.0 - th
    h01 = th * th * (3.0 - (th + th))
    a = th * omt * h
    # take() gathers rows several times faster than fancy indexing
    return ((1.0 - h01)[..., None] * states.take(lo, 0)
            + (a * omt)[..., None] * derivs.take(lo, 0)
            + h01[..., None] * states[1:].take(lo, 0)
            - (a * th)[..., None] * derivs[1:].take(lo, 0))


def _doubled(a):
    """a with twice the rows; the new rows stay unwritten."""
    out = np.empty((2 * len(a),) + a.shape[1:])
    out[:len(a)] = a
    return out


def _breakpoints(delays, t_end):
    """Delay sums k*tau_i + l*tau_j with 1 <= k+l <= 4 inside (0, t_end).

    Points within 1e-12 of each other are merged; anything within 1e-12
    of t_end is dropped (the horizon itself is always a stop).
    """
    pts = {k * ti + l * tj
           for ti, tj in itertools.combinations_with_replacement(delays, 2)
           for k in range(_BREAKPOINT_ORDER + 1)
           for l in range(_BREAKPOINT_ORDER + 1 - k) if k + l >= 1}
    merged = []
    for s in sorted(x for x in pts if x < t_end - _BREAKPOINT_MERGE):
        if not merged or s - merged[-1] > _BREAKPOINT_MERGE:
            merged.append(s)
    return merged


def solve(dde, t_end, opts=None):
    """Integrate the DDE over [0, t_end].

    Steps are error-controlled by the embedded pair with the norm
    max_i |err_i| / (atol + rtol |y_i|); the step size is capped by
    opts.h_max and by the smallest delay, and the mesh lands exactly on
    every delay-sum breakpoint up to order four so derivative
    discontinuities never sit inside a step.

    Returns a Trajectory. Raises SolverError when the step budget is
    exhausted (before the first step when t_end exceeds max_steps * h_max),
    the step size underflows, or the rhs returns non-finite values.
    """
    if opts is None:
        opts = SolverOptions()
    if not 0.0 < t_end < math.inf:
        raise ValueError("t_end must be positive and finite")
    # no attempt advances more than h_max; the margin keeps a horizon that
    # fits the budget exactly from being rejected for rounding
    if t_end > opts.h_max * opts.max_steps * (1.0 + 1e-6):
        raise SolverError(
            "step budget of %d cannot reach t = %g with h_max = %g"
            % (opts.max_steps, t_end, opts.h_max))
    d = dde.dimension
    delays = np.array(dde.delays)
    tau_min, tau_max = ((dde.delays[0], dde.delays[-1]) if dde.delays
                        else (math.inf, 0.0))
    history = dde.history
    rhs = dde.rhs

    y0 = np.asarray(history(0.0), dtype=float)
    if y0.shape != (d,):
        raise ValueError("history must return length-%d states" % d)

    mesh = np.empty(_INITIAL_CAPACITY)
    states = np.empty((_INITIAL_CAPACITY, d))
    derivs = np.empty((_INITIAL_CAPACITY, d))
    mesh[0] = 0.0
    states[0] = y0
    n = 1

    def delayed(times):
        """Delayed states for the ascending stage times, shape
        (len(times), d, len(delays)); the Z of stage s is [s]."""
        q = np.subtract.outer(times, delays)
        q_min = times[0] - tau_max
        q_max = times[-1] - tau_min
        t_last = mesh[n - 1]
        # method-of-steps soundness: the step cap guarantees delayed
        # queries stay inside the accepted mesh
        if q_max > t_last * (1.0 + 1e-12) + 1e-300:
            raise RuntimeError(
                "delayed lookup at t = %g beyond accepted mesh %g"
                % (q_max, t_last))
        if q_max <= 0.0:
            Z = np.empty(q.shape + (d,))
        else:
            # queries past the last mesh point read its state; those at or
            # below zero are overwritten from the history below
            Z = _hermite(mesh[:n], states[:n], derivs[:n],
                         np.minimum(q, t_last) if q_max > t_last else q)
        if q_min <= 0.0:
            for s, j in zip(*np.nonzero(q <= 0.0)):
                Z[s, j] = history(float(q[s, j]))
        return Z.transpose(0, 2, 1)

    def checked_rhs(t, y):
        out = np.asarray(rhs(t, y, delayed((t,))[0]), dtype=float)
        if out.shape != (d,):
            raise ValueError("rhs must return length-%d derivatives" % d)
        if not np.all(np.isfinite(out)):
            raise SolverError("non-finite right-hand side at t = %g" % t)
        return out

    stops = _breakpoints(dde.delays, t_end)
    stops.append(t_end)

    f0 = checked_rhs(0.0, y0)
    derivs[0] = f0

    cap = min(opts.h_max, tau_min, stops[0])
    if opts.h_init is not None:
        h = min(opts.h_init, cap)
    else:
        # curvature probe: one Euler step at a crude first guess, then
        # size from the larger of |f| and the observed df/dt
        scale = opts.atol + opts.rtol * np.abs(y0)
        d0 = float(np.max(np.abs(y0) / scale))
        d1 = float(np.max(np.abs(f0) / scale))
        h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, cap)
        f1 = checked_rhs(h0, y0 + h0 * f0)
        dm = max(d1, float(np.max(np.abs(f1 - f0) / scale)) / h0)
        h1 = ((0.01 / dm) ** (1.0 / 3.0) if dm > 1e-15
              else max(1e-6, h0 * 1e-3))
        h = min(100.0 * h0, h1, cap)
    atol, rtol, h_max = opts.atol, opts.rtol, opts.h_max
    # stage derivatives; row 0 is the derivative at the current point
    K = np.empty((4, d))
    K[0] = f0
    t = 0.0
    y = y0
    abs_y = np.abs(y0)
    stop_idx = 0
    taken = 0
    rejected = 0

    while t < t_end:
        if taken + rejected >= opts.max_steps:
            raise SolverError(
                "step budget of %d exhausted at t = %g "
                "(%d accepted, %d rejected)"
                % (opts.max_steps, t, taken, rejected))
        next_stop = stops[stop_idx]
        remaining = next_stop - t
        h = min(h, h_max, tau_min)
        # land exactly on the stop; take half the gap instead of leaving
        # a sliver behind
        on_stop = False
        if h >= remaining:
            h = remaining
            on_stop = True
        elif h >= 0.5 * remaining:
            h = 0.5 * remaining
        if h < 1e3 * _EPS * abs(t):
            raise SolverError("step size underflow at t = %.17g" % t)

        t2 = t + _C2 * h
        t3 = t + _C3 * h
        t_new = next_stop if on_stop else t + h
        Z = delayed((t2, t3, t_new))
        K[1] = rhs(t2, y + (_C2 * h) * K[0], Z[0])
        K[2] = rhs(t3, y + (_C3 * h) * K[1], Z[1])
        y_new = y + h * (_B @ K[:3])
        K[3] = rhs(t_new, y_new, Z[2])
        abs_new = np.abs(y_new)
        # a non-finite stage makes the norm nan or inf
        enorm = h * float((np.abs(_E @ K)
                           / (atol + rtol * np.maximum(abs_y, abs_new))).max())

        if enorm <= 1.0:
            if n == mesh.size:
                mesh, states, derivs = map(_doubled, (mesh, states, derivs))
            mesh[n] = t_new
            states[n] = y_new
            derivs[n] = K[3]
            n += 1
            t = t_new
            y = y_new
            abs_y = abs_new
            K[0] = K[3]
            taken += 1
            if on_stop:
                stop_idx += 1
        elif not (math.isfinite(enorm) or np.isfinite(K).all()):
            raise SolverError(
                "non-finite right-hand side in the step from t = %g" % t)
        else:
            rejected += 1
        h *= (5.0 if enorm == 0.0
              else min(5.0, max(0.2, 0.9 * enorm ** (-1.0 / 3.0))))

    # Exact-length views: rows past n were never written, so they take
    # address space but no memory. Copies would briefly double the result
    # and then free large blocks, which raises glibc's mmap threshold and
    # kept later temporaries resident (+3.7 MB peak RSS when sampling
    # 100000 points).
    return Trajectory(mesh=mesh[:n], states=states[:n], derivs=derivs[:n],
                      steps_taken=taken, steps_rejected=rejected)


def dense_eval(traj, t):
    """State at time t from the trajectory's continuous extension.

    t is a scalar or an array; the result is a new array of shape
    t.shape + (d,). Times outside the covered interval raise ValueError.
    """
    mesh = traj.mesh
    t = np.asarray(t, dtype=float)
    inside = (t >= mesh[0]) & (t <= mesh[-1])
    if not inside.all():
        raise ValueError(
            "t = %g outside the covered interval [%g, %g]"
            % (np.extract(~inside, t)[0], mesh[0], mesh[-1]))
    # [()] makes a 0-d t a numpy scalar, which is faster
    return _hermite(mesh, traj.states, traj.derivs, t[()])


def sample(traj, k):
    """(ts, states) at k equidistant times over the covered interval;
    states has shape (k, d)."""
    if k < 2:
        raise ValueError("need at least two sample points")
    ts = np.linspace(traj.mesh[0], traj.mesh[-1], k)
    return ts, dense_eval(traj, ts)
