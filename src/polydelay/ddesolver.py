"""Explicit Runge-Kutta integration of DDEs with discrete delays.

The integrator is an embedded 3(2) pair with first-same-as-last stage
reuse and a cubic Hermite continuous extension. Delayed states are looked
up by the method of steps: the step size never exceeds the smallest
delay, so every delayed query falls inside already-accepted territory (or
in the history function for arguments at or below zero). Derivative
discontinuities propagating from t = 0 are handled by forcing the mesh
onto all sums of up to four delays.
"""

import bisect
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
_B1, _B2, _B3 = 2.0 / 9.0, 1.0 / 3.0, 4.0 / 9.0
_E1, _E2, _E3, _E4 = -5.0 / 72.0, 1.0 / 12.0, 1.0 / 9.0, -1.0 / 8.0

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
        Strictly positive, pairwise distinct lags; stored sorted
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
        if any(tau <= 0.0 for tau in delays):
            raise ValueError("delays must be strictly positive")
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
        if not self.atol > 0.0:
            raise ValueError("atol must be positive")
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


def _hermite(t0, y0, f0, t1, y1, f1, t):
    h = t1 - t0
    th = (t - t0) / h
    omt = 1.0 - th
    h00 = (1.0 + 2.0 * th) * omt * omt
    h10 = th * omt * omt
    h01 = th * th * (3.0 - 2.0 * th)
    h11 = th * th * (th - 1.0)
    return h00 * y0 + (h10 * h) * f0 + h01 * y1 + (h11 * h) * f1


def _breakpoints(delays, t_end):
    """Delay sums k*tau_i + l*tau_j with 1 <= k+l <= 4 inside (0, t_end).

    Points within 1e-12 of each other are merged; anything within 1e-12
    of t_end is dropped (the horizon itself is always a stop).
    """
    pts = set()
    for i, ti in enumerate(delays):
        for tj in delays[i:]:
            for k in range(_BREAKPOINT_ORDER + 1):
                for l in range(_BREAKPOINT_ORDER + 1 - k):
                    if k + l == 0:
                        continue
                    s = k * ti + l * tj
                    if 0.0 < s < t_end - _BREAKPOINT_MERGE:
                        pts.add(s)
    merged = []
    for s in sorted(pts):
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
    exhausted, the step size underflows, or the rhs returns non-finite
    values.
    """
    if opts is None:
        opts = SolverOptions()
    if not t_end > 0.0:
        raise ValueError("t_end must be positive")
    d = dde.dimension
    delays = dde.delays
    tau_min = delays[0] if delays else math.inf
    history = dde.history

    y0 = np.asarray(history(0.0), dtype=float)
    if y0.shape != (d,):
        raise ValueError("history must return length-%d states" % d)

    ts = [0.0]
    ys = [y0]
    fs = []

    def eval_past(tq):
        if tq <= 0.0:
            return np.asarray(history(tq), dtype=float)
        # method-of-steps soundness: the step cap guarantees delayed
        # queries stay inside the accepted mesh
        if tq > ts[-1] * (1.0 + 1e-12) + 1e-300:
            raise RuntimeError(
                "delayed lookup at t = %g beyond accepted mesh %g"
                % (tq, ts[-1]))
        if tq >= ts[-1]:
            return ys[-1]
        k = bisect.bisect_right(ts, tq) - 1
        if ts[k] == tq:
            return ys[k]
        return _hermite(ts[k], ys[k], fs[k], ts[k + 1], ys[k + 1],
                        fs[k + 1], tq)

    nd = len(delays)

    def frhs(t, y):
        Z = np.empty((d, nd))
        for j, tau in enumerate(delays):
            Z[:, j] = eval_past(t - tau)
        out = np.asarray(dde.rhs(t, y, Z), dtype=float)
        if out.shape != (d,):
            raise ValueError("rhs must return length-%d derivatives" % d)
        if not np.all(np.isfinite(out)):
            raise SolverError("non-finite right-hand side at t = %g" % t)
        return out

    stops = _breakpoints(delays, t_end)
    stops.append(t_end)

    f0 = frhs(0.0, y0)
    fs.append(f0)

    def initial_step():
        cap = min(opts.h_max, tau_min, stops[0])
        if opts.h_init is not None:
            return min(opts.h_init, cap)
        # curvature probe: one Euler step at a crude first guess, then
        # size from the larger of |f| and the observed df/dt
        scale = opts.atol + opts.rtol * np.abs(y0)
        d0 = float(np.max(np.abs(y0) / scale))
        d1 = float(np.max(np.abs(f0) / scale))
        if d0 < 1e-5 or d1 < 1e-5:
            h0 = 1e-6
        else:
            h0 = 0.01 * d0 / d1
        h0 = min(h0, cap)
        f1 = frhs(h0, y0 + h0 * f0)
        d2 = float(np.max(np.abs(f1 - f0) / scale)) / h0
        dm = max(d1, d2)
        if dm > 1e-15:
            h1 = (0.01 / dm) ** (1.0 / 3.0)
        else:
            h1 = max(1e-6, h0 * 1e-3)
        return min(100.0 * h0, h1, cap)

    h = initial_step()
    k1 = f0
    t = 0.0
    y = y0
    stop_idx = 0
    taken = 0
    rejected = 0
    attempts = 0

    while t < t_end:
        if attempts >= opts.max_steps:
            raise SolverError(
                "step budget of %d exhausted at t = %g "
                "(%d accepted, %d rejected)"
                % (opts.max_steps, t, taken, rejected))
        next_stop = stops[stop_idx]
        remaining = next_stop - t
        h = min(h, opts.h_max, tau_min)
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
        attempts += 1

        k2 = frhs(t + _C2 * h, y + (_C2 * h) * k1)
        k3 = frhs(t + _C3 * h, y + (_C3 * h) * k2)
        y_new = y + h * (_B1 * k1 + _B2 * k2 + _B3 * k3)
        t_new = next_stop if on_stop else t + h
        k4 = frhs(t_new, y_new)
        err = h * (_E1 * k1 + _E2 * k2 + _E3 * k3 + _E4 * k4)
        scale = opts.atol + opts.rtol * np.maximum(np.abs(y), np.abs(y_new))
        enorm = float(np.max(np.abs(err) / scale))

        if enorm <= 1.0:
            t = t_new
            y = y_new
            k1 = k4
            ts.append(t)
            ys.append(y)
            fs.append(k4)
            taken += 1
            if on_stop:
                stop_idx += 1
            if enorm == 0.0:
                h *= 5.0
            else:
                h *= min(5.0, max(0.2, 0.9 * enorm ** (-1.0 / 3.0)))
        else:
            rejected += 1
            h *= min(5.0, max(0.2, 0.9 * enorm ** (-1.0 / 3.0)))

    return Trajectory(mesh=np.array(ts), states=np.vstack(ys),
                      derivs=np.vstack(fs), steps_taken=taken,
                      steps_rejected=rejected)


def dense_eval(traj, t):
    """State at time t from the trajectory's continuous extension.

    t is a scalar or an array; the result is a new array of shape
    t.shape + (d,). Times outside the covered interval raise ValueError.
    """
    mesh = traj.mesh
    # Work on t.T: y[:, lo] then has shape (d,) + t.T.shape, the Hermite
    # weights (shaped like t.T) broadcast against it, and the final .T
    # puts d last. [()] makes a 0-d t a numpy scalar, which is faster.
    t = np.asarray(t, dtype=float).T[()]
    inside = (t >= mesh[0]) & (t <= mesh[-1])
    if not inside.all():
        raise ValueError(
            "t = %g outside the covered interval [%g, %g]"
            % (np.extract(~inside, t)[0], mesh[0], mesh[-1]))
    k = np.searchsorted(mesh, t, side="right") - 1
    # the last mesh point has no successor; clamp so k + 1 stays valid
    lo = np.minimum(k, mesh.size - 2)
    y, f = traj.states.T, traj.derivs.T
    out = _hermite(mesh[lo], y[:, lo], f[:, lo],
                   mesh[lo + 1], y[:, lo + 1], f[:, lo + 1], t)
    # mesh points, t_end included, return the stored states exactly
    return np.where(mesh[k] == t, y[:, k], out).T


def sample(traj, k):
    """(ts, states) at k equidistant times over the covered interval;
    states has shape (k, d)."""
    if k < 2:
        raise ValueError("need at least two sample points")
    ts = np.linspace(traj.mesh[0], traj.mesh[-1], k)
    return ts, dense_eval(traj, ts)
