"""Command-line front end.

Subcommands: `solve` integrates a configured experiment and writes the
sampled trajectory as CSV; `convergence` compares quadrature
discretisations of increasing node count against one equivalent-system
reference solve; `quad` prints a quadrature rule with its exactness
residuals; `stationary` prints the model equilibria.

Configuration is a flat set of key=value pairs, assembled from built-in
defaults, an optional named preset, an optional config file, and
command-line flags, in that order of precedence. Floats are written with
17 significant digits so the CSV round-trips bit-exactly.
"""

import argparse
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace

import numpy as np

# dense_eval is not called here; it stays importable for tracing harnesses
from .ddesolver import SolverError, SolverOptions, dense_eval, sample, solve
from .models import SirParameters, sir_distributed, sir_equilibrium
from .quadrature import build_quadrature_dde, gauss_jacobi
from .transform import build_equivalent, scale_distributed, stationary_aux
from .weightfn import beta_polynomial, moment

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


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one experiment run.

    The experiment is the delayed SIR model, integrated in the scaled time
    t/b where the largest delay is 1; h_max is in that time, t_end in
    days. The defaults are case i."""

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
        try:
            SolverOptions(rtol=self.rtol, atol=self.atol, h_max=self.h_max)
        except ValueError as exc:
            raise ConfigError(str(exc))


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


def parse_config_file(path):
    """Read key=value overrides; '#' starts a comment, blanks are skipped.

    Unknown keys and unparseable values raise ConfigError with the file
    name and line number."""
    overrides = {}
    try:
        fh = open(path)
    except OSError as exc:
        raise ConfigError("cannot read config file %s: %s" % (path, exc))
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(
                    "%s, line %d: expected key=value, got %r"
                    % (path, lineno, raw.strip()))
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in _FIELD_TYPES:
                raise ConfigError(
                    "%s, line %d: unknown key %r" % (path, lineno, key))
            try:
                overrides[key] = _FIELD_TYPES[key](value)
            except ValueError:
                raise ConfigError(
                    "%s, line %d: invalid %s value %r"
                    % (path, lineno, _FIELD_TYPES[key].__name__, value))
    return overrides


def assemble_config(preset=None, config_path=None, **flag_overrides):
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
        config = replace(config, **parse_config_file(config_path))
    overrides = {k: v for k, v in flag_overrides.items() if v is not None}
    if overrides:
        config = replace(config, **overrides)
    return config


def _solver_options(config):
    return SolverOptions(rtol=config.rtol, atol=config.atol,
                         h_max=config.h_max, max_steps=MAX_STEPS)


@contextmanager
def _config_values():
    # the values come from the configuration, so a ValueError or TypeError
    # raised while turning them into model objects is a config error
    try:
        yield
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def _sir_params(config):
    with _config_values():
        weight = beta_polynomial(config.a, config.b, config.p, config.q)
        return SirParameters(sigma=config.sigma, theta=config.theta,
                             weight=weight, y0=(0.99, 0.01, 0.0))


def _quadrature_dde(config, base, m):
    with _config_values():
        rule = gauss_jacobi(m, config.p, config.q, base.weight.a,
                            base.weight.b)
    return build_quadrature_dde(base, rule)


def _sir_base(config):
    # the scaled model and horizon: time t/b, where the largest delay is 1
    base = scale_distributed(sir_distributed(_sir_params(config)))
    return base, config.t_end / config.b


def run_solve(config):
    """Solve the configured experiment.

    Returns (header, rows, info): CSV header names, a (samples, 1 + dim)
    array whose first column is the time rescaled back to original time,
    and a dict with the step counters."""
    base, t_end = _sir_base(config)
    if config.variant == "equivalent":
        system = build_equivalent(base)
        dde = system.assembled
        aux_names = ["x%d" % i for i in range(system.degree + 1)]
    else:
        dde = _quadrature_dde(config, base, config.m)
        aux_names = []
    header = ["t", "S", "I", "R"] + aux_names
    traj = solve(dde, t_end, _solver_options(config))
    ts, states = sample(traj, config.samples)
    rows = np.column_stack((ts * config.b, states))
    return header, rows, {"steps_taken": traj.steps_taken,
                          "steps_rejected": traj.steps_rejected}


def run_convergence(config, m_list):
    """Compare quadrature solves for each m against one reference solve.

    The reference is the equivalent system integrated with the config's
    tolerances and h_max. Returns (diffs, reference_steps): diffs is a
    (len(m_list), 3) array of the maximum absolute S, I, R differences on
    a samples-point equidistant grid."""
    if not m_list:
        raise ConfigError("need at least one node count")
    if list(m_list) != sorted(set(int(m) for m in m_list)):
        raise ConfigError("node counts must be ascending and distinct")
    opts = _solver_options(config)
    base, t_end = _sir_base(config)
    # every rule is built before the first solve, so a bad node count
    # fails at once
    quads = [_quadrature_dde(config, base, m) for m in m_list]
    system = build_equivalent(base)
    ref = solve(system.assembled, t_end, opts)
    ref_vals = sample(ref, config.samples)[1][:, :3]

    def one_m(dde):
        traj = solve(dde, t_end, opts)
        return np.max(np.abs(sample(traj, config.samples)[1][:, :3]
                             - ref_vals), axis=0)

    return np.array([one_m(dde) for dde in quads]), ref.steps_taken


def run_quad_table(config, m):
    """Rule table for the configured density: nodes, weights, and the
    exactness residuals for i = 0..2m-1. Returns the printed lines."""
    with _config_values():
        weight = beta_polynomial(config.a, config.b, config.p, config.q)
        rule = gauss_jacobi(m, config.p, config.q, config.a, config.b)
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
    """Equilibria of the configured model as printable lines."""
    params = _sir_params(config)
    lines = []
    for name, y in zip(("disease-free", "endemic"), sir_equilibrium(params)):
        aux = stationary_aux(y[1], params.weight)
        lines += ["%s: S=%s I=%s R=%s" % (name, *map(_fmt, y)),
                  "  aux: %s" % " ".join(map(_fmt, aux))]
    return lines


# 17 significant digits round-trip to the identical float
_FMT = "%.17g"


def _fmt(value):
    return _FMT % float(value)


@contextmanager
def _output(path):
    # path None is standard output; a path is opened here so numpy never
    # picks a compressed format from its suffix, and only once there is
    # output, so a failed run leaves an existing file untouched
    if path is None:
        yield sys.stdout
        # a reader that closed the pipe early surfaces here, inside main
        sys.stdout.flush()
        return
    try:
        fh = open(path, "w")
    except OSError as exc:
        raise ConfigError("cannot write %s: %s" % (path, exc))
    with fh:
        yield fh


def write_csv(header, rows, path=None):
    """Emit rows as CSV with 17-significant-digit floats.

    path None writes to standard output. Identical inputs produce
    byte-identical files."""
    with _output(path) as fh:
        np.savetxt(fh, rows, fmt=_FMT, delimiter=",",
                   header=",".join(header), comments="")


def _emit_lines(lines, path=None):
    with _output(path) as fh:
        fh.write("\n".join(lines) + "\n")


def _add_common_flags(sub):
    # preset and variant are validated downstream so that a bad value
    # reaches the ConfigError -> exit code 2 path instead of an argparse
    # SystemExit
    sub.add_argument("--preset", metavar="NAME",
                     help="named parameter set to start from: %s"
                          % ", ".join(sorted(PRESETS)))
    sub.add_argument("--config", metavar="PATH",
                     help="key=value config file applied over the preset")
    sub.add_argument("--variant", metavar="KIND",
                     help="discretisation: %s" % " or ".join(_VARIANTS))
    sub.add_argument("--m", metavar="M",
                     help="quadrature node count; for `convergence` a "
                          "comma list or a single count meaning 1..M")
    sub.add_argument("--rtol", type=float, help="relative tolerance")
    sub.add_argument("--atol", type=float, help="absolute tolerance")
    sub.add_argument("--hmax", type=float, dest="h_max",
                     help="maximum step size (in integration time)")
    sub.add_argument("--t-end", type=float, dest="t_end",
                     help="horizon in original (unscaled) time")
    sub.add_argument("--samples", type=int, help="output grid size")
    sub.add_argument("--out", metavar="PATH",
                     help="CSV output path (default: standard output)")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="polydelay",
        description="Distributed-delay DDE experiments: equivalent "
                    "two-delay systems and quadrature discretisations.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, text in (
            ("solve", "integrate one experiment and emit the sampled CSV"),
            ("convergence", "quadrature-vs-equivalent difference study"),
            ("quad", "print a quadrature rule and exactness residuals"),
            ("stationary", "print model equilibria")):
        _add_common_flags(subs.add_parser(name, help=text))
    return parser


def _parse_m(text, study):
    """--m as one node count, or for a study the list of counts: a comma
    list, or M meaning 1..M (1..8 when absent)."""
    if text is None:
        return list(range(1, 9)) if study else None
    try:
        if study and "," in text:
            return [int(part) for part in text.split(",")]
        m = int(text)
    except ValueError:
        raise ConfigError("--m must be an integer%s, got %r"
                          % (" or comma list" if study else "", text))
    return list(range(1, m + 1)) if study else m


def main(argv=None):
    args = _build_parser().parse_args(argv)
    study = args.command == "convergence"
    try:
        m_flag = _parse_m(args.m, study)
        config = assemble_config(
            preset=args.preset, config_path=args.config,
            variant=args.variant, m=None if study else m_flag,
            rtol=args.rtol, atol=args.atol, h_max=args.h_max,
            t_end=args.t_end, samples=args.samples)
        if args.command == "solve":
            header, rows, info = run_solve(config)
            write_csv(header, rows, args.out)
            print("steps taken: %d, rejected: %d"
                  % (info["steps_taken"], info["steps_rejected"]),
                  file=sys.stderr)
        elif args.command == "convergence":
            diffs, reference_steps = run_convergence(config, m_flag)
            write_csv(["m", "dS", "dI", "dR"],
                      np.column_stack((m_flag, diffs)), args.out)
            print("reference solve: %d steps, grid %d points"
                  % (reference_steps, config.samples), file=sys.stderr)
        elif args.command == "quad":
            _emit_lines(run_quad_table(config, config.m), args.out)
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
        # the reader (say, head) has all it wanted; point stdout at devnull
        # so the interpreter's final flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
