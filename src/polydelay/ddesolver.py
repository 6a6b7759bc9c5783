"""Explicit Runge-Kutta integration of DDEs with discrete delays.

The integrator is an embedded 3(2) pair with first-same-as-last stage
reuse and a cubic Hermite continuous extension. Delayed states are looked
up by the method of steps: the step size never exceeds the smallest
delay, so every delayed query of a step falls inside territory that is
already accepted when the step starts (or in the history function for
arguments at or below zero). A lookup serves all its queries with one
searchsorted over the mesh and one vectorised Hermite evaluation; its
queries at or below zero take their states from one history call each,
gathered in one masked assignment. A DDE with weights W gets one column
per stage in place of one per delay: the lookup forms Z[e, 0] = sum_j
W[e, j] y_{sources[e]}(t - delays[j]) for all its stage times at once,
adding in the order j = 0, 1, ... for every element, as a quadrature
rule's weighted sum or an equivalent chain's delayed forcing.
The current lookup holds only its untaken steps; an attempt at the step
cap (h_max or the smallest delay) reads the first of them. Any other
attempt, or one that finds none left, makes a lookup: at the cap, unless
it lands on a stop or halves the gap to one, a run of steps at that size,
up to _RUN_STEPS and short of the next stop and the mesh end; otherwise
its own three stage times. An in-order cumsum gives the run the loop's
own start times, so its values equal those of single lookups bit for bit.
Every attempt goes through one step body: it takes k >= 1 steps of its
lookup back to back, computes their k error norms in one pass and
commits the accepted steps with one set of slice writes. k exceeds 1
only at the cap, once the cap has held for `held` accepted steps in a
row, and is at most `held`. A single step meets the controller: accept
at a norm up to 1.0, reject above, resize h. Of k >= 2 steps the prefix
up to the first norm above 0.7 is taken and h stays at the cap; the
controller keeps the cap after any norm up to 0.729, so these are the
steps single attempts take, and the first step past them is tried again
alone. The discarded steps are speculative work, not rejections. A
non-finite stage makes its step's norm nan or inf; inside a run, a
derivative whose entries do not sum to a finite float ends the steps at
once. Mesh, states and derivatives live in arrays that double when full.
When y' jumps at t = 0, as under a constant history, y'' jumps at each
delay, and the mesh lands exactly there; the later jumps, at sums of
delays, are in y''' and higher and are left to the error estimate.
"""

import math
from dataclasses import dataclass

import numpy as np

_EPS = float(np.finfo(float).eps)

# Embedded 3(2) tableau (Bogacki-Shampine). The advancing solution has
# order 3; the _E coefficients give the difference against the embedded
# order-2 solution and sum to zero. Stage 4 is the derivative at the new
# point, reused as stage 1 of the next step. The state update uses
# ndarray.dot, about half the cost of `@` on so few entries; the error
# products of an attempt's steps are one stacked `@`, which at one step
# gives the bits of ndarray.dot.
_C2 = 0.5
_C3 = 0.75
_B = np.array([2.0 / 9.0, 1.0 / 3.0, 4.0 / 9.0])
_E = np.array([-5.0 / 72.0, 1.0 / 12.0, 1.0 / 9.0, -1.0 / 8.0])

# rows of the mesh arrays before their first doubling
_INITIAL_CAPACITY = 1024
# Resolution of the mesh stops: DiscreteDelayDde rejects delays closer
# than this, and a delay this close to the horizon is not a stop.
_BREAKPOINT_MERGE = 1e-12
# Most steps one run lookup covers; it bounds the lookup's memory. With 1
# every lookup covers only the attempt that makes it, and no steps are
# taken back to back.
_RUN_STEPS = 128
# Most times in one block of the sampling grid (sample_times)
_BLOCK_ROWS = 1024


class SolverError(RuntimeError):
    """Integration failed: step budget, step underflow, or bad rhs output."""


@dataclass(frozen=True)
class DiscreteDelayDde:
    """DDE y'(t) = rhs(t, y(t), Z) with Z[:, j] = y(t - delays[j]), or,
    with weights W, the single column Z[e, 0] = sum_j W[e, j]
    y_{sources[e]}(t - delays[j]).

    Attributes
    ----------
    dimension : int
        State dimension d.
    delays : tuple of float
        Strictly positive, finite lags in ascending order, each more than
        1e-12 above the one before.
    rhs : callable
        rhs(t, y, Z) -> length-d derivative; Z has one column per delay,
        or one column in all with weights.
    history : callable
        history(t) -> length-d state for t <= 0. solve() may also call it
        at times that a run of steps cut short never uses, so it must be
        deterministic and free of side effects.
    weights : array or None
        Finite (d, len(delays)) constants: solve() then hands rhs the
        weighted sum of the delayed states of each row's component (see
        sources), formed once per lookup for all its stage times. Column
        j weighs delays[j].
    sources : array or None
        With weights only: d component indices in [0, d), where row e of
        W reads component sources[e]. Without them row e reads
        component e.
    """

    dimension: int
    delays: tuple
    rhs: object
    history: object
    weights: object = None
    sources: object = None

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be at least 1")
        delays = tuple(float(tau) for tau in self.delays)
        if not all(0.0 < tau < math.inf for tau in delays):
            raise ValueError("delays must be strictly positive and finite")
        if np.any(np.diff(delays) <= _BREAKPOINT_MERGE):
            raise ValueError("delays must ascend, each more than 1e-12 "
                             "above the one before")
        object.__setattr__(self, "delays", delays)
        if self.weights is not None:
            weights = np.array(self.weights, dtype=float)
            if weights.shape != (self.dimension, len(delays)):
                raise ValueError("weights must have shape (%d, %d)"
                                 % (self.dimension, len(delays)))
            if not np.all(np.isfinite(weights)):
                raise ValueError("weights must be finite")
            object.__setattr__(self, "weights", weights)
        if self.sources is not None:
            if self.weights is None:
                raise ValueError("sources need weights")
            sources = np.asarray(self.sources)
            if (sources.shape != (self.dimension,)
                    or sources.dtype.kind not in "iu"
                    or not np.all((0 <= sources)
                                  & (sources < self.dimension))):
                raise ValueError("sources must be %d component indices in "
                                 "[0, %d)" % (self.dimension, self.dimension))
            object.__setattr__(self, "sources", sources.astype(np.intp))


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


def _fill_from_history(Z, q, history):
    """Set Z[s, j] = history(q[s, j]) wherever q[s, j] <= 0, calling
    history once per such query in row-major order.

    Z has shape q.shape + (d,). One masked assignment stores all the
    history's states; without such a query (a DDE without delays has
    none) Z stays as it is.
    """
    below = q <= 0.0
    states = [history(x) for x in q[below].tolist()]
    if states:
        Z[below] = states


def _breakpoints(delays, t_end):
    """The stops of the mesh: the delays inside (0, t_end).

    delays are ascending, as DiscreteDelayDde requires. When y' jumps
    at 0, as under a constant history, y'' jumps at each delay. A step
    across a y'' jump has an O(h^3) local error, worse than the 3(2)
    pair's O(h^4), so the mesh must land there. Sums of two or more
    delays carry jumps in y''' and higher derivatives, which cost O(h^4)
    or less and are left to the error estimate. A delay within 1e-12 of
    t_end is dropped (the horizon itself is always a stop).
    """
    return [s for s in delays if s < t_end - _BREAKPOINT_MERGE]


def solve(dde, t_end, opts=None):
    """Integrate the DDE over [0, t_end].

    Steps are error-controlled by the embedded pair with the norm
    max_i |err_i| / (atol + rtol |y_i|); the step size is capped by
    opts.h_max and by the smallest delay, and the mesh lands exactly on
    every delay, so no jump in y'' sits inside a step.

    Returns a Trajectory. Raises SolverError when the step budget is
    exhausted (before the first step when t_end exceeds max_steps times
    min(h_max, smallest delay)),
    the step size underflows (a first step that rounds to zero among
    them), or the rhs returns non-finite values.
    """
    if opts is None:
        opts = SolverOptions()
    if not 0.0 < t_end < math.inf:
        raise ValueError("t_end must be positive and finite")
    d = dde.dimension
    delays = np.array(dde.delays)
    tau_min, tau_max = ((dde.delays[0], dde.delays[-1]) if dde.delays
                        else (math.inf, 0.0))
    # the step loop clamps every attempt, the first too, to h_cap and
    # stops; the margin keeps a horizon that fits the budget exactly from
    # being rejected for rounding
    h_cap = min(opts.h_max, tau_min)
    if t_end > h_cap * opts.max_steps * (1.0 + 1e-6):
        raise SolverError(
            "step budget of %d cannot reach t = %g with steps of at most "
            "min(h_max, smallest delay) = %g"
            % (opts.max_steps, t_end, h_cap))
    history = dde.history
    rhs = dde.rhs

    y0 = np.asarray(history(0.0), dtype=float)
    if y0.shape != (d,):
        raise ValueError("history must return length-%d states" % d)

    # with weights, a lookup collapses its delays into one column
    WT = None if dde.weights is None else dde.weights.T.copy()
    sources = dde.sources

    mesh = np.empty(_INITIAL_CAPACITY)
    states = np.empty((_INITIAL_CAPACITY, d))
    derivs = np.empty((_INITIAL_CAPACITY, d))
    mesh[0] = 0.0
    states[0] = y0
    n = 1

    def delayed(times):
        """The Z of each ascending stage time, stacked: shape
        (len(times), d, len(delays)), or one column with weights."""
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
            # queries past the last mesh point read its state; those below
            # zero are overwritten from the history below, and clamping
            # them first keeps the Hermite from extrapolating (which
            # overflows when the first step is tiny)
            Z = _hermite(mesh[:n], states[:n], derivs[:n],
                         q.clip(0.0, t_last) if q_min < 0.0 or q_max > t_last
                         else q)
        if q_min <= 0.0:
            _fill_from_history(Z, q, history)
        if WT is None:
            return Z.transpose(0, 2, 1)
        if sources is not None:
            Z = Z.take(sources, 2)
        # the weighted sum reduces the delay axis in order j = 0, 1, ...
        # for every element, however many times the lookup holds
        Z *= WT
        return Z.sum(1)[..., None]

    def run(t, h, next_stop):
        """The step of size h from t and the following steps of that
        size, up to _RUN_STEPS in all, while they stay short of next_stop
        by more than 2h and their queries stay below t: the list of their
        start times followed by the last end time, and their delayed
        states, shape (steps, 3) + the shape of one Z."""
        # cumsum adds in order, so starts[k] is the float the step loop
        # reaches after k additions t + h
        ends = np.full(_RUN_STEPS + 1, h)
        ends[0] = t
        ends = ends.cumsum()
        starts = ends[:-1]
        # both conditions are monotone in k, so the passing steps are a
        # prefix of the run
        k = max(1, int(np.count_nonzero((ends[1:] - tau_min < t)
                                        & (h < 0.5 * (next_stop - starts)))))
        times = np.column_stack((starts[:k] + _C2 * h, starts[:k] + _C3 * h,
                                 ends[1:k + 1]))
        return (ends[:k + 1].tolist(),
                delayed(times.ravel()).reshape(k, 3, d, -1))

    def checked_rhs(t, y):
        out = np.asarray(rhs(t, y, delayed((t,))[0]), dtype=float)
        if out.shape != (d,):
            raise ValueError("rhs must return length-%d derivatives" % d)
        if not np.all(np.isfinite(out)):
            raise SolverError("non-finite right-hand side at t = %g" % t)
        return out

    stops = _breakpoints(dde.delays, t_end) + [t_end]

    f0 = checked_rhs(0.0, y0)
    derivs[0] = f0

    if opts.h_init is not None:
        h = opts.h_init
    else:
        # curvature probe: one Euler step at a crude first guess, then
        # size from the larger of |f| and the observed df/dt; the guess
        # stays within tau_min, so its delayed query is sound; an infinite
        # norm sizes h0 to 0, which fails below
        scale = opts.atol + opts.rtol * np.abs(y0)
        with np.errstate(over="ignore"):
            d0 = float(np.max(np.abs(y0) / scale))
            d1 = float(np.max(np.abs(f0) / scale))
        h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1,
                 h_cap, stops[0])
        if not h0 > 0.0:
            raise SolverError("step size underflow at t = 0")
        f1 = checked_rhs(h0, y0 + h0 * f0)
        with np.errstate(over="ignore"):
            dm = max(d1, float(np.max(np.abs(f1 - f0) / scale)) / h0)
        h1 = ((0.01 / dm) ** (1.0 / 3.0) if dm > 1e-15
              else max(1e-6, h0 * 1e-3))
        h = min(100.0 * h0, h1)
    atol, rtol = opts.atol, opts.rtol
    # the untaken steps of the current lookup: their start times and last
    # end time, and their delayed states
    run_t, run_Z = [], ()
    # accepted attempts in a row at the cap; an attempt below it, a
    # rejection and a cut run start the count afresh
    held = 0
    # stage derivatives of an attempt's steps; K[j, 0] is the derivative
    # at the start of step j, so K[0, 0] is the one at the current point
    K = np.empty((_RUN_STEPS + 1, 4, d))
    K[0, 0] = f0
    t = 0.0
    y = y0
    stop_idx = 0
    rejected = 0

    while t < t_end:
        # the n - 1 steps after the initial point are the accepted ones
        if n - 1 + rejected >= opts.max_steps:
            raise SolverError(
                "step budget of %d exhausted at t = %g "
                "(%d accepted, %d rejected)"
                % (opts.max_steps, t, n - 1, rejected))
        next_stop = stops[stop_idx]
        remaining = next_stop - t
        h = min(h, h_cap)
        # land exactly on the stop; take half the gap instead of leaving
        # a sliver behind
        on_stop = False
        if h >= remaining:
            h = remaining
            on_stop = True
        elif h >= 0.5 * remaining:
            h = 0.5 * remaining
        if h <= 1e3 * _EPS * abs(t):
            raise SolverError("step size underflow at t = %.17g" % t)

        # an attempt below the cap ends the run: it follows a rejection or
        # a shrinking step
        if not (len(run_Z) and h == h_cap):
            if h == h_cap and not on_stop:
                run_t, run_Z = run(t, h, next_stop)
            else:
                t_new = next_stop if on_stop else t + h
                run_t = [t, t_new]
                run_Z = delayed((t + _C2 * h, t + _C3 * h, t_new))[None]
        # k steps of the lookup back to back, more than one only once the
        # cap has held. No step after the first underflows: that needs
        # t >= h_cap / (1e3 eps), over 4e12 steps of the budget checked
        # above.
        k = min(held, len(run_Z), opts.max_steps - (n - 1) - rejected) or 1
        if n + k > mesh.size:
            mesh, states, derivs = map(_doubled, (mesh, states, derivs))
        for j in range(k):
            Kj = K[j]
            tj = run_t[j]
            Z = run_Z[j]
            Kj[1] = rhs(tj + _C2 * h, y + (_C2 * h) * Kj[0], Z[0])
            Kj[2] = rhs(tj + _C3 * h, y + (_C3 * h) * Kj[1], Z[1])
            states[n + j] = y + h * _B.dot(Kj[:3])
            y = states[n + j]
            Kj[3] = K[j + 1, 0] = rhs(run_t[j + 1], y, Z[2])
            # a non-finite derivative ends the steps at once; so do finite
            # entries whose sum overflows, which only shortens the attempt
            if j + 1 < k and not math.isfinite(sum(Kj[3].tolist())):
                k = j + 1
                break
        # a non-finite stage makes its step's norm nan or inf
        A = np.abs(states[n - 1:n + k])
        norms = (np.abs(_E @ K[:k])
                 / (atol + rtol * np.maximum(A[:-1], A[1:]))).max(1)
        if k == 1:
            # the controller: accept a norm up to 1.0, then resize
            enorm = h * float(norms[0])
            kk = int(enorm <= 1.0)
            rejected += 1 - kk
            grow = (5.0 if enorm == 0.0
                    else min(5.0, max(0.2, 0.9 * enorm ** (-1.0 / 3.0))))
        else:
            # the controller keeps h_cap after a norm up to 0.729, and 0.7
            # leaves room for the rounding of the stacked product: the
            # steps before the first norm above it are the ones single
            # attempts take, the first one after is tried again alone, and
            # h stays at the cap
            kk = int((h * norms <= 0.7).cumprod().sum())
            grow = 1.0
        if kk < k and not np.isfinite(K[kk]).all():
            raise SolverError(
                "non-finite right-hand side in the step from t = %g"
                % run_t[kk])
        held = held + kk if kk == k and h == h_cap else 0
        h *= grow
        if kk:
            mesh[n:n + kk] = run_t[1:kk + 1]
            derivs[n:n + kk] = K[:kk, 3]
            n += kk
            t = run_t[kk]
            run_t, run_Z = run_t[kk:], run_Z[kk:]
            K[0, 0] = K[kk, 0]
            if on_stop:
                stop_idx += 1
        # the steps moved y on; it returns to the last accepted state
        y = states[n - 1]

    # Exact-length views: rows past n were never written, so they take
    # address space but no memory. Copies would briefly double the result
    # and then free large blocks, which raises glibc's mmap threshold and
    # kept later temporaries resident (+3.7 MB peak RSS when sampling
    # 100000 points).
    return Trajectory(mesh=mesh[:n], states=states[:n], derivs=derivs[:n],
                      steps_taken=n - 1, steps_rejected=rejected)


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


def sample_times(traj, k):
    """Yield the k equidistant times of `sample` in blocks of at most
    _BLOCK_ROWS times, so the whole grid need never be held.

    The blocks join to np.linspace(mesh[0], mesh[-1], k) bit for bit:
    they use its arithmetic, and the last time is the interval's end."""
    if k < 2:
        raise ValueError("need at least two sample points")
    t0, t1 = traj.mesh[0], traj.mesh[-1]
    step = (t1 - t0) / (k - 1)
    for i in range(0, k, _BLOCK_ROWS):
        t = np.arange(i, min(i + _BLOCK_ROWS, k)) * step + t0
        if i + len(t) == k:
            t[-1] = t1
        yield t


def sample(traj, k):
    """(ts, states) at k equidistant times over the covered interval;
    states has shape (k, d)."""
    ts = np.concatenate(list(sample_times(traj, k)))
    return ts, dense_eval(traj, ts)
