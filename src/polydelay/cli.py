"""Command-line front end.

Subcommands: `solve` integrates a configured experiment and writes the
sampled trajectory as CSV; `convergence` compares quadrature
discretisations of increasing node count against one equivalent-system
reference solve; `quad` prints a quadrature rule with its exactness
residuals; `stationary` prints the model equilibria.

Configuration is a flat set of key=value pairs, assembled from built-in
defaults, an optional named preset, an optional config file, and
command-line flags, in that order of precedence. Floats are written with
17 significant digits so the CSV round-trips bit-exactly: a cell is
`_fmt`, '%.17g' of the value. `write_csv` makes the same bytes a block
at a time: each x with 1e-4 <= x < 1e7 is rounded from its exact
product with a power of ten, a sum of two floats; its 17 digits are
written once into a fixed-point frame, the integer ones slid into the
first word and the trailing zeros found by a byte smear. `_fmt` writes
the other cells: 4 of a preset run, 281 of the dense-output run's 900,000.
"""

import argparse
import functools
import os
import pickle
import signal
import sys
from contextlib import contextmanager, suppress
from dataclasses import dataclass, fields, replace

import numpy as np

from .ddesolver import (SolverError, SolverOptions, dense_eval, sample,
                        sample_times, solve)
from .models import SirParameters, sir_distributed, sir_equilibrium
from .quadrature import build_quadrature_dde, gauss_jacobi
# scale_distributed is not called here, but stays one of the builders
# the benchmark wraps on this module by name
from .transform import build_equivalent, scale_distributed, stationary_aux
from .weightfn import beta_polynomial, moment, rescale_to_unit

# Step budget for CLI-driven solves; module level so harnesses can lower
# it to exercise failure handling.
MAX_STEPS = 1000000

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_NUMERICAL = 4

_VARIANTS = ("equivalent", "quadrature")


class ConfigError(Exception):
    """Invalid configuration input (file, flags, or their combination)."""


@contextmanager
def _config_values():
    # the values come from the configuration, so a ValueError or TypeError
    # raised while turning them into model objects is a config error
    try:
        yield
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one experiment run.

    The experiment is the delayed SIR model, integrated in the scaled time
    t/b where the largest delay is 1, so its rates are taken per b days;
    h_max is in that time, t_end and the rates sigma, theta in days. The
    defaults are case i."""

    variant: str = "equivalent"
    sigma: float = 0.1
    theta: float = 0.05
    a: float = 30.0
    b: float = 150.0
    p: int = 2
    q: int = 2
    m: int = 4
    rtol: float = 1e-6
    atol: float = 1e-8
    h_max: float = 1e-3
    t_end: float = 1000.0
    samples: int = 1000

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ConfigError("variant must be one of %s" % (_VARIANTS,))
        if not 0.0 < self.t_end < np.inf:
            raise ConfigError("t_end must be positive and finite")
        if self.samples < 2:
            raise ConfigError("samples must be at least 2")
        with _config_values():
            SolverOptions(rtol=self.rtol, atol=self.atol, h_max=self.h_max)


# The named presets are the two published experiment setups: delay
# density C (tau-a)^p (b-tau)^q with exponents p = q = 2, i.e.
# 30 (tau-a)^2 (b-tau)^2 / (b-a)^5 (Beta(3,3) in the usual shape
# parametrisation), rates sigma = 0.1 and theta = 0.05, horizon 1000
# sampled at 1000 points, rtol 1e-6 and atol 1e-8. They differ in the
# delay interval and the reference maximum step size.
PRESETS = {
    "case-i": ExperimentConfig(),
    "case-ii": ExperimentConfig(a=150.0, b=250.0, h_max=5e-4),
}

_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def parse_config_file(path, command="solve"):
    """Read key=value overrides; '#' starts a comment, blanks are skipped.

    Only keys that the subcommand reads are known (solve reads them all).
    Unknown keys and unparseable values raise ConfigError with the file
    name and line number."""
    # the keys of the subcommand's flags, and the model keys, which no
    # flag sets; quad reads no rates
    flags = vars(_build_parser().parse_args([command]))
    keys = flags.keys() & _FIELD_TYPES.keys() | {"a", "b", "p", "q"} | (
        set() if command == "quad" else {"sigma", "theta"})
    overrides = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("cannot read config file %s: %s" % (path, exc))
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("%s, line %d: expected key=value, got %r"
                              % (path, lineno, raw.strip()))
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in keys:
            raise ConfigError("%s, line %d: unknown key %r for %s"
                              % (path, lineno, key, command))
        try:
            overrides[key] = _FIELD_TYPES[key](value)
        except ValueError:
            raise ConfigError("%s, line %d: invalid %s value %r"
                              % (path, lineno, _FIELD_TYPES[key].__name__,
                                 value))
    return overrides


def assemble_config(preset=None, config_path=None, command="solve",
                    **flag_overrides):
    """Merge defaults, preset, config file, and flags into a config."""
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(
                "unknown preset %r (available: %s)"
                % (preset, ", ".join(sorted(PRESETS))))
        config = PRESETS[preset]
    else:
        config = ExperimentConfig()
    if config_path is not None:
        config = replace(config, **parse_config_file(config_path, command))
    overrides = {k: v for k, v in flag_overrides.items() if v is not None}
    if overrides:
        config = replace(config, **overrides)
    return config


def _problem(config):
    # (params, base): the SIR parameters, and the model in the scaled time
    # t/b, where the largest delay is 1. The model is autonomous, so its
    # rates in units of b days give what scale_distributed would, without
    # a wrapper around every rhs call
    with _config_values():
        weight = beta_polynomial(config.a, config.b, config.p, config.q)
        params = SirParameters(sigma=config.sigma, theta=config.theta,
                               weight=weight, y0=(0.99, 0.01, 0.0))
        return params, sir_distributed(SirParameters(
            sigma=config.sigma * config.b, theta=config.theta * config.b,
            weight=rescale_to_unit(weight), y0=params.y0))


def _integration(config):
    # (t_end, opts) of the subcommands that integrate: the horizon in the
    # scaled time t/b, and the solver options
    t_end = config.t_end / config.b
    if not 0.0 < t_end < np.inf:
        raise ConfigError("the horizon t_end / b = %g in the scaled time t/b "
                          "must be positive and finite" % t_end)
    return t_end, SolverOptions(rtol=config.rtol, atol=config.atol,
                                h_max=config.h_max, max_steps=MAX_STEPS)


def _route(config, base, m=None):
    # the assembled equivalent DDE, or the m-node quadrature DDE
    with _config_values():
        if m is None:
            return build_equivalent(base).assembled
        return build_quadrature_dde(base, gauss_jacobi(
            m, config.p, config.q, base.weight.a, base.weight.b))


def run_solve(config):
    """Solve the configured experiment.

    The solve runs here, so a solver failure raises before any output is
    opened; the sampling waits for the caller. Returns (header, blocks,
    info): CSV header names, a generator of row blocks, one for each block
    of `sample_times` over the samples-point grid of `sample`, each row the
    time rescaled back to original time followed by the state, and a dict
    with the step counters."""
    _, base = _problem(config)
    t_end, opts = _integration(config)
    dde = _route(config, base,
                 config.m if config.variant == "quadrature" else None)
    # the equivalent route appends the auxiliary chain x_0..x_n
    header = "t S I R".split() + ["x%d" % i for i in range(dde.dimension - 3)]
    traj = solve(dde, t_end, opts)
    blocks = (np.column_stack((t * config.b, dense_eval(traj, t)))
              for t in sample_times(traj, config.samples))
    return header, blocks, {"steps_taken": traj.steps_taken,
                          "steps_rejected": traj.steps_rejected}


def _cpus():
    # the CPUs this process may run on; 1 where it cannot fork or ask
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _diff(traj, ts, ref_sir):
    # the maximum absolute S, I, R differences from the reference on its
    # grid ts, which every solve shares, as each ends exactly on t_end
    return np.max(np.abs(dense_eval(traj, ts)[:, :3] - ref_sir), axis=0)


def _diffs(ddes, t_end, opts, reference):
    # _diff of each dde's solve, the reference being (ts, S I R) from
    # reference(), which is first called once a solve is done; a
    # trajectory is freed before the next solve, and the first exception
    # ends the list
    out = []
    try:
        for dde in ddes:
            out.append(_diff(solve(dde, t_end, opts), *reference()))
    except Exception as exc:
        out.append(exc)
    return out


def _fork_diffs(children, group, ddes, t_end, opts):
    # fork a child that reads the reference from one pipe and sends the
    # _diffs of the ddes, pickled, through another, and list it in
    # children as (group, pid, its reference pipe, its result pipe);
    # SIGINT waits until it is listed, so a KeyboardInterrupt cannot
    # orphan it
    ref_r, ref_w = os.pipe()
    out_r, out_w = os.pipe()
    to_child, from_child = open(ref_w, "wb"), open(out_r, "rb")
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        pid = os.fork()
        if pid == 0:
            # the child never returns into the caller's stack
            try:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                to_child.close()
                from_child.close()
                with open(ref_r, "rb") as ref, open(out_w, "wb") as out:
                    reference = functools.cache(lambda: pickle.load(ref))
                    pickle.dump(_diffs(ddes, t_end, opts, reference), out,
                                pickle.HIGHEST_PROTOCOL)
            finally:
                os._exit(0)
        children.append((group, pid, to_child, from_child))
    except OSError:
        to_child.close()
        from_child.close()
        raise
    finally:
        os.close(ref_r)
        os.close(out_w)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def _received(fh):
    # the list a child sent; a child that ended without sending it fails
    # at the first count of its group
    try:
        return pickle.load(fh)
    except Exception:
        return [RuntimeError("a convergence worker process ended without "
                             "sending its results")]


def _reap(children):
    # kill every child still running, then close its pipes and wait for
    # it; a reference left unsent fails to flush once the child is gone
    for _, pid, _, _ in children:
        with suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
    for _, pid, to_child, from_child in children:
        with suppress(BrokenPipeError):
            to_child.close()
        from_child.close()
        # absent where SIGCHLD is ignored, which reaps them already
        with suppress(ChildProcessError):
            os.waitpid(pid, 0)


def run_convergence(config, m_list):
    """Compare quadrature solves for each m against one reference solve.

    The reference is the equivalent system integrated with the config's
    tolerances and h_max. Returns (diffs, reference_steps): diffs is a
    (len(m_list), 3) array of the maximum absolute S, I, R differences on
    a samples-point equidistant grid.

    The solves are independent and are spread, with no setting, over the
    CPUs this process may run on: the quadrature DDEs are dealt round
    robin to this process and to forked child processes, and this
    process also solves and samples the reference, which it then sends
    to the children. Each process reduces each solve to its three
    differences at once. The diffs, and the error raised (the
    reference's, else that of the lowest failing m), are those of one
    process solving them all. No child outlives the call."""
    if not m_list:
        raise ConfigError("need at least one node count")
    _, base = _problem(config)
    t_end, opts = _integration(config)
    # every DDE is built before the first solve, the last count first, so
    # a bad node count, or one over the rule's bound, fails at once, and
    # the range 1..M fails at M before it is ever listed
    quads = [_route(config, base, m) for m in m_list[::-1]][::-1]
    if list(m_list) != sorted(set(int(m) for m in m_list)):
        raise ConfigError("node counts must be ascending and distinct")
    # P processes deal the n quadrature solves round robin, this one
    # taking group 0 and the reference as well: a solve's cost rises only
    # slowly with m, so the children finish about a reference solve
    # before this process, and the run ends on one CPU
    n = len(quads)
    procs = min(_cpus(), n)
    local, children = [range(0, n, procs)], []
    try:
        for j in range(1, procs):
            group = range(j, n, procs)
            try:
                _fork_diffs(children, group, [quads[i] for i in group],
                            t_end, opts)
            except OSError:
                # no process to spare: this one solves the group itself
                local.append(group)
        ref = solve(_route(config, base), t_end, opts)
        ts, ref_vals = sample(ref, config.samples)
        reference = (ts, ref_vals[:, :3])
        for _, _, to_child, _ in children:
            # a child whose first solve failed reads no reference
            with suppress(BrokenPipeError):
                pickle.dump(reference, to_child, pickle.HIGHEST_PROTOCOL)
                to_child.close()
        results = [(group, _diffs([quads[i] for i in group], t_end, opts,
                                  lambda: reference)) for group in local]
        results += [(group, _received(fh)) for group, _, _, fh in children]
    finally:
        _reap(children)
    diffs = [None] * n
    for group, values in results:
        for i, d in zip(group, values):
            diffs[i] = d
    # a group's counts ascend and its list stops at its first exception,
    # so in m order the lowest failing m comes before any count unsolved
    for d in diffs:
        if isinstance(d, Exception):
            raise d
    return np.array(diffs), ref.steps_taken


def run_quad_table(config):
    """Rule table for the configured density: nodes, weights, and the
    exactness residuals for i = 0..2m-1, m = config.m; returns the lines."""
    m = config.m
    # the rule of the unscaled density, in days
    weight = _problem(config)[0].weight
    with _config_values():
        rule = gauss_jacobi(m, config.p, config.q, weight.a, weight.b)
    lines = ["# %d-node rule for the degree-%d density on [%s, %s]"
             % (m, weight.degree, _fmt(config.a), _fmt(config.b)),
             "node,weight"]
    for node, wgt in zip(rule.nodes, rule.weights):
        lines.append("%s,%s" % (_fmt(node), _fmt(wgt)))
    lines.append("degree,residual")
    try:
        exact = [moment(weight, i) for i in range(2 * m)]
    except OverflowError:
        raise ConfigError(
            "m = %d is too large for [%s, %s]: the moments up to degree %d "
            "overflow" % (m, _fmt(config.a), _fmt(config.b), 2 * m - 1))
    for i, ex in enumerate(exact):
        approx = float(np.dot(rule.weights, rule.nodes ** i))
        lines.append("%d,%s" % (i, _fmt(abs(approx - ex) / max(1.0, abs(ex)))))
    return lines


def run_stationary(config):
    """Equilibria of the configured model as printable lines; the aux
    values are the scaled moments x_i / b^{i+1} that solve integrates."""
    params, base = _problem(config)
    lines = []
    for name, y in zip(("disease-free", "endemic"), sir_equilibrium(params)):
        aux = stationary_aux(y[1], base.weight)
        lines += ["%s: S=%s I=%s R=%s" % (name, *map(_fmt, y)),
                  "  aux: %s" % " ".join(map(_fmt, aux))]
    return lines


# 17 significant digits round-trip to the identical float
_FMT = "%.17g"


def _fmt(value):
    return _FMT % float(value)


# write_csv gives each cell the bytes of _fmt without a % per cell: for a
# whole block, numpy rounds every float x to 17 significant digits from
# the exact product x 10**(16 - e) as the sum of two floats, and writes
# each cell into a fixed-point frame of _CELL bytes, NUL wherever '%.17g'
# writes nothing (leading and trailing zeros, a point with no digit after
# it); one bytes.translate drops the NULs, so no byte moves to another
# word. The 17 digits are written once, the integer digits slid into
# word 0, and the trailing zeros found with a byte smear. This covers
# 1e-4 <= x < 1e7, which '%.17g' writes without sign or exponent; any
# other cell, and the rare one next to a power of ten whose decade log10
# misjudges, is written by _fmt itself.
_U = np.uint64
_CELL = 32
_E16, _E17 = _U(10 ** 16), _U(10 ** 17)
# by the decimal exponent e = -4..6, at index e + 4: _SLIDE is 8 bits
# for each of the e + 1 integer digits, none below 1; _INTEGER is the
# text of word 0: "0" on each integer digit and the point after them, or
# "0." and -e - 1 zeros. _TEN is 10**(16 - e), exact as 5**20 < 2**53
_DECADES = range(-4, 7)
_SLIDE = np.array([8 * max(e + 1, 0) for e in _DECADES], dtype=_U)
_INTEGER = np.array([int.from_bytes(
    (b"0" * (e + 1) + b"." if e >= 0 else b"0." + b"0" * (-e - 1))
    .rjust(8, b"\0"), "little") for e in _DECADES], dtype=_U)
_TEN = np.array([float(10 ** (16 - e)) for e in _DECADES])


def _halves(x):
    # Veltkamp's split of x into hi + lo, each of at most 26 significant
    # bits, so the product of two halves is exact; x is overwritten by lo
    hi = x * float(2 ** 27 + 1)
    hi -= hi - x
    x -= hi
    return hi, x


_TEN_HI, _TEN_LO = _halves(_TEN.copy())


def _decimal(x):
    # (d, i, ok): where ok, x rounded to 17 significant digits is
    # d 10**(i - 20) with 10**16 <= d < 10**17, and i = e + 4 indexes the
    # decimal exponent -4 <= e <= 6 in the tables
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.floor(np.log10(np.abs(x)))
    ok = (k >= -4) & (k <= 6) & (x > 0)
    k += 4
    i = np.where(ok, k, 4).astype(np.int16)
    del k
    x = np.where(ok, x, 1.0)
    # Dekker's product of the halves: x 10**(16 - e) = hi + lo exactly
    hi = x * _TEN[i]
    xh, x = _halves(x)
    ph, pl = _TEN_HI[i], _TEN_LO[i]
    lo = xh * ph
    lo -= hi
    xh *= pl
    lo += xh
    ph *= x
    lo += ph
    x *= pl
    lo += x
    del xh, ph, pl, x
    # where x 10**(16 - e) >= 10**16 > 2**53, hi is an even integer and
    # |lo| <= 8 is at most half an ulp of hi. The lower bound is checked
    # on the truncated hi + floor(lo), added modulo 2**64, which in this
    # range gives the verdict of the rounded value: a float whose decade
    # log10 misjudges, such as 9.9999999999999991e-05 put in decade -4,
    # also rounds to 17 digits below the power of ten
    d = hi.astype(_U)
    np.floor(lo, out=hi)
    d += hi.astype(np.int64).view(_U)
    ok &= d >= _E16
    # rint rounds the remainder half to even, and so d, as hi is even
    d += np.rint(lo, out=lo) > hi
    # no float in the covered range rounds up to a power of ten; one that
    # did would be left to _fmt
    ok &= d < _E17
    return d, i, ok


def _eight_digits(v):
    # v < 10**8 as eight digit values, the leading one in the low byte:
    # one division splits v into two 4-digit lanes, multiply-and-shift
    # divisions then split every lane in two; v is overwritten
    q = v // _U(10000)
    v -= q * _U(10000)
    v <<= _U(32)
    v |= q
    np.multiply(v, _U(10486), out=q)
    q >>= _U(20)
    q &= _U(0x0000007F0000007F)
    v -= q * _U(100)
    v <<= _U(16)
    v |= q
    np.multiply(v, _U(103), out=q)
    q >>= _U(10)
    q &= _U(0x000F000F000F000F)
    v -= q * _U(10)
    v <<= _U(8)
    v |= q
    return v


def _digits(d, words):
    # the 17 digits of 10**16 <= d < 10**17 as bytes 0..16 (values 0..9)
    # of the three little-endian words; d is overwritten
    first, a, b = words
    np.floor_divide(d, _E16, out=first)
    d -= first * _E16
    np.floor_divide(d, _U(10 ** 8), out=a)
    d -= a * _U(10 ** 8)
    _eight_digits(a)
    _eight_digits(d)
    first |= a << _U(8)
    a >>= _U(56)
    a |= d << _U(8)
    np.right_shift(d, _U(56), out=b)


def _csv_cells(block):
    # each cell of the 2-d float64 block, with its separator, as _CELL
    # bytes held in the column of a word-major array of little-endian
    # words: word 0 holds the integer digits and the point, or "0." and
    # any zeros after it, right-aligned; words 1-3 the digits after the
    # point, left-aligned, and the separator in the last byte
    x = block.ravel()
    d, i, ok = _decimal(x)
    cells = np.zeros((_CELL // 8, len(x)), dtype="<u8")
    _digits(d, cells[1:])
    del d
    # the digits move down s = _SLIDE bits, the integer ones a byte more,
    # to end before the point; a word's top takes the next one's first s
    # bits as (w << 8) << (56 - s), since a shift by 64 is undefined in C
    s = _SLIDE[i]
    back = _U(56) - s
    top = np.empty_like(s)
    for j in range(3):
        np.left_shift(cells[j + 1], _U(8), out=top)
        top <<= back
        cells[j] |= top
        cells[j + 1] >>= s
    del s, back
    cells[0] >>= _U(8)
    cells[0] |= _INTEGER[i]
    # each digit after the point up to the last non-zero one gets its "0":
    # there the byte smear is non-zero, each byte the OR of those from it
    # up, the top byte also that of the words after; adding 0x7f to a byte
    # of at most 15 sets its high bit without a carry
    smear = np.zeros_like(top)
    for word in cells[:0:-1]:
        smear <<= _U(56)
        smear |= word
        for k in (8, 16, 32):
            np.right_shift(smear, _U(k), out=top)
            smear |= top
        np.add(smear, _U(0x7F7F7F7F7F7F7F7F), out=top)
        top &= _U(0x8080808080808080)
        top >>= _U(7)
        top *= _U(ord("0"))
        word |= top
    del smear, top
    # the point of an integral value is dropped
    cells[0] ^= (cells[1] == 0) * _U(ord(".") << 56)
    bad = np.flatnonzero(~ok)
    if len(bad):
        # _fmt of a float has at most 24 characters
        cells[:, bad] = 0
        cells[:3, bad] = np.array([_fmt(v).encode() for v in x[bad]],
                                  dtype="S24").view("<u8").reshape(-1, 3).T
    cells[3] |= _U(ord(",") << 56)
    cells[3].reshape(block.shape)[:, -1] ^= _U((ord(",") ^ ord("\n")) << 56)
    return cells


def _csv_rows(block):
    # the CSV text of a 2-d float64 block
    if not block.shape[1]:
        return "\n" * len(block)
    # chained, so each intermediate is freed as soon as it is read
    return (_csv_cells(block).T.tobytes()
            .translate(None, b"\0").decode("ascii"))


@contextmanager
def _output(path):
    # path None is standard output; a path is opened only once the run
    # has returned, after the solve, so a failed solve leaves an existing
    # file untouched; a solve's rows are sampled while they are written
    try:
        if path is None:
            yield sys.stdout
            # a failed write of buffered output surfaces here, inside main
            sys.stdout.flush()
        else:
            with open(path, "w") as fh:
                yield fh
    except OSError as exc:
        if path is None:
            # drop the unwritten rest, so the interpreter's final flush
            # stays quiet
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            raise
        raise ConfigError("cannot write %s: %s" % (
            "standard output" if path is None else path, exc))


def write_csv(header, blocks, path=None):
    """Emit the header, then each block of rows, as CSV whose cells are
    _fmt of each value: 17 significant digits, which read back as the
    identical float.

    blocks is an iterable of 2-d arrays (or lists of rows), each formatted
    as it arrives, so a generator's blocks are computed while the file is
    written. A block is converted to float64 and formatted at once: the
    cells of values with 1e-4 <= x < 1e7, written by '%.17g' in fixed point
    without a sign, are rounded from the exact product of the value and a
    power of ten, every other cell (zero, negative, non-finite, or outside
    that range) from _fmt, and both give _fmt's bytes. path None writes to
    standard output. Identical inputs produce byte-identical files."""
    with _output(path) as fh:
        fh.write(",".join(header) + "\n")
        for block in blocks:
            fh.write(_csv_rows(np.asarray(block, dtype=np.float64)))


def _emit_lines(lines, path=None):
    with _output(path) as fh:
        fh.write("\n".join(lines) + "\n")


def _node_counts(text):
    # convergence's --m: a comma list, or M meaning the range 1..M
    try:
        return ([int(part) for part in text.split(",")] if "," in text
                else range(1, int(text) + 1))
    except ValueError:
        raise argparse.ArgumentTypeError("invalid node counts: %r" % text)


def _build_parser():
    # each subcommand takes only the flags it reads; preset and variant
    # are validated downstream, so a bad value gets the library's message
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--preset", metavar="NAME",
                        help="named parameter set to start from: %s"
                             % ", ".join(sorted(PRESETS)))
    common.add_argument("--config", metavar="PATH",
                        help="key=value config file applied over the preset")
    common.add_argument("--out", metavar="PATH",
                        help="output path (default: standard output)")
    nodes = argparse.ArgumentParser(add_help=False)
    nodes.add_argument("--m", type=int, help="quadrature node count")
    steps = argparse.ArgumentParser(add_help=False)
    steps.add_argument("--rtol", type=float, help="relative tolerance")
    steps.add_argument("--atol", type=float, help="absolute tolerance")
    steps.add_argument("--hmax", type=float, dest="h_max",
                       help="maximum step size (in integration time)")
    steps.add_argument("--t-end", type=float, dest="t_end",
                       help="horizon in original (unscaled) time")
    steps.add_argument("--samples", type=int, help="output grid size")

    parser = argparse.ArgumentParser(
        prog="polydelay",
        description="Distributed-delay DDE experiments: equivalent "
                    "two-delay systems and quadrature discretisations.")
    subs = parser.add_subparsers(dest="command", required=True)
    subs.add_parser(
        "solve", parents=[common, nodes, steps],
        help="integrate one experiment and emit the sampled CSV",
    ).add_argument("--variant", metavar="KIND",
                   help="discretisation: %s" % " or ".join(_VARIANTS))
    subs.add_parser(
        "convergence", parents=[common, steps],
        help="quadrature-vs-equivalent difference study",
    ).add_argument("--m", type=_node_counts, default="8", dest="m_list",
                   metavar="M", help="node counts: a comma list, or M "
                                     "meaning 1..M (default 8)")
    subs.add_parser("quad", parents=[common, nodes],
                    help="print a quadrature rule and exactness residuals")
    subs.add_parser("stationary", parents=[common],
                    help="print model equilibria")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        config = assemble_config(
            args.preset, args.config, args.command,
            **{k: v for k, v in vars(args).items() if k in _FIELD_TYPES})
        if args.command == "solve":
            header, blocks, info = run_solve(config)
            write_csv(header, blocks, args.out)
            print("steps taken: %d, rejected: %d"
                  % (info["steps_taken"], info["steps_rejected"]),
                  file=sys.stderr)
        elif args.command == "convergence":
            diffs, reference_steps = run_convergence(config, args.m_list)
            write_csv(["m", "dS", "dI", "dR"],
                      [np.column_stack((args.m_list, diffs))], args.out)
            print("reference solve: %d steps, grid %d points"
                  % (reference_steps, config.samples), file=sys.stderr)
        elif args.command == "quad":
            _emit_lines(run_quad_table(config), args.out)
        elif args.command == "stationary":
            _emit_lines(run_stationary(config), args.out)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print("solver failure: %s (solver time is t/b, b = %s days)"
              % (exc, _fmt(config.b)), file=sys.stderr)
        return EXIT_SOLVER
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        print("internal numerical error: %s" % exc, file=sys.stderr)
        return EXIT_NUMERICAL
    except BrokenPipeError:
        # the reader (say, head) has all it wanted
        return EXIT_OK
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
