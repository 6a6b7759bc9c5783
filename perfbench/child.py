"""One benchmark session of polydelay commands in this fresh interpreter.

Usage: python3 perfbench/child.py SPEC_JSON

run.py starts this script once per repetition with the repository's src
directory on PYTHONPATH. SPEC_JSON names the mode, the CLI argument lists
(each already ending in `--out PATH`), the argument list whose problem
the microtimings use, the seed and the output directory, which receives
report.json and spans.npz. Modes:

  import    time `import polydelay.cli` and stop;
  plain     run the commands; only the DDE builders are timed, a few
            calls per command, so the solve itself runs untraced;
  traced    also wrap every layer boundary that cli.py calls through
            (run_*, solve, the rhs callbacks, sample, dense_eval,
            write_csv), then time single calls at seeded query points;
  maxsteps  lower cli.MAX_STEPS so that the first command's solve fails.

Spans (name, start, end, parent) are kept in flat arrays and written once
at the end; the wrappers sit on cli's module namespace and on the rhs
callbacks of the DDEs the builders return, so no file under src changes.
"""

import io
import json
import os
import resource
import sys
import time
import traceback
from array import array
from dataclasses import replace
from statistics import median


class Tracer:
    """Spans at wrapped call boundaries, kept in memory until save()."""

    def __init__(self):
        self.names = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]

    def wrap(self, name, fn, on_return=None):
        """fn with a span around each call.

        on_return(span_index, args, result) runs after the span closes and
        its return value replaces the result."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        name_id, parent, start, end = (self.name_id, self.parent,
                                       self.start, self.end)
        open_spans = self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(open_spans[-1])
            end.append(0.0)
            open_spans.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                open_spans.pop()
            if on_return is not None:
                return on_return(i, args, out)
            return out

        return traced

    def save(self, path):
        import numpy as np
        np.savez(path, names=np.array(self.names, dtype=str),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))


# Builders timed in every mode: together with the import they make up
# the set-up a user pays before the first step.
BUILDERS = {
    "beta_polynomial": "weightfn.beta_polynomial",
    "sir_distributed": "models.sir_distributed",
    "scale_distributed": "transform.scale_distributed",
    "build_equivalent": "transform.build_equivalent",
    "gauss_jacobi": "quadrature.gauss_jacobi",
    "build_quadrature_dde": "quadrature.build_quadrature_dde",
}

# Further boundaries wrapped in the traced mode only.
TRACED = {
    "run_solve": "cli.run_solve",
    "run_convergence": "cli.run_convergence",
    "write_csv": "cli.write_csv",
    "sample": "ddesolver.sample",
    "dense_eval": "ddesolver.dense_eval",
}


class Session:
    """Installs the wrappers on polydelay.cli and runs the commands."""

    def __init__(self, cli, mode):
        self.tracer = Tracer()
        self.solves = []
        self.first_traj = None
        self.command = -1
        wrap = self.tracer.wrap
        traced = mode == "traced"
        rhs_names = {"sir_distributed": "models.sir_rhs",
                     "build_quadrature_dde": "quadrature.rhs"}
        for attr, name in BUILDERS.items():
            hook = None
            if traced and attr in rhs_names:
                hook = self._rhs_hook(rhs_names[attr])
            elif traced and attr == "build_equivalent":
                hook = self._equivalent_hook
            setattr(cli, attr, wrap(name, getattr(cli, attr), hook))
        if traced:
            for attr, name in TRACED.items():
                setattr(cli, attr, wrap(name, getattr(cli, attr)))
            cli.solve = wrap("ddesolver.solve", cli.solve, self._note_solve)
            self.main = wrap("cli.main", cli.main)
        else:
            self.main = cli.main

    def _rhs_hook(self, name):
        def hook(i, args, dde):
            return replace(dde, rhs=self.tracer.wrap(name, dde.rhs))
        return hook

    def _equivalent_hook(self, i, args, system):
        dde = system.assembled
        return replace(system, assembled=replace(
            dde, rhs=self.tracer.wrap("transform.rhs", dde.rhs)))

    def _note_solve(self, i, args, traj):
        self.solves.append({"command": self.command, "span": i,
                            "steps_accepted": traj.steps_taken,
                            "steps_rejected": traj.steps_rejected,
                            "delays": len(args[0].delays)})
        if self.first_traj is None:
            self.first_traj = traj
        return traj

    def run(self, argv):
        """Exit code and captured standard error of one CLI invocation."""
        self.command += 1
        err = io.StringIO()
        saved = sys.stderr
        sys.stderr = err
        try:
            code = self.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            # a crash is a failed run, reported with its traceback
            code = 1
            err.write(traceback.format_exc())
        finally:
            sys.stderr = saved
        return code, err.getvalue()


def per_call_us(fn, calls, repeats=5):
    """Median over repeats of the mean time of one call, in microseconds."""
    clock = time.perf_counter
    means = []
    for _ in range(repeats):
        t0 = clock()
        for args in calls:
            fn(*args)
        means.append((clock() - t0) / len(calls))
    return median(means) * 1e6


def _flag(argv, name, default):
    return argv[argv.index(name) + 1] if name in argv else default


def microtimings(argv, traj, seed):
    """Single-call costs of each layer at seeded query points.

    The problem is the preset of argv; the quadrature rule has argv's
    --m nodes (8 if absent), so the rule and rhs are timed on every
    workload, also where the solve takes the other route."""
    import numpy as np
    import polydelay as pdl
    from polydelay.cli import PRESETS

    rng = np.random.default_rng(seed)
    cfg = PRESETS[_flag(argv, "--preset", "case-i")]
    m = int(_flag(argv, "--m", "8"))
    weight = pdl.beta_polynomial(cfg.a, cfg.b, cfg.p, cfg.q)
    params = pdl.SirParameters(sigma=cfg.sigma, theta=cfg.theta,
                               weight=weight, y0=(0.99, 0.01, 0.0))
    sir = pdl.sir_distributed(params)
    base = pdl.scale_distributed(sir)
    system = pdl.build_equivalent(base)
    rule = pdl.gauss_jacobi(m, cfg.p, cfg.q, base.weight.a, base.weight.b)
    quad = pdl.build_quadrature_dde(base, rule)

    def rhs_calls(dde, n=2000):
        d, nd = dde.dimension, len(dde.delays)
        return [(float(rng.uniform(0.0, 4.0)), rng.uniform(0.0, 1.0, d),
                 rng.uniform(0.0, 1.0, (d, nd))) for _ in range(n)]

    sir_calls = [(float(rng.uniform(0.0, 1000.0)), rng.uniform(0.0, 1.0, 3),
                  rng.uniform(0.0, 1.0, 3)) for _ in range(2000)]
    lo, hi = float(traj.mesh[0]), float(traj.mesh[-1])
    times = [(traj, float(t)) for t in rng.uniform(lo, hi, 5000)]
    builds = 40
    return {
        "ddesolver.dense_eval_us": per_call_us(pdl.dense_eval, times),
        "transform.rhs_us": per_call_us(system.assembled.rhs,
                                        rhs_calls(system.assembled)),
        "quadrature.rhs_us": per_call_us(quad.rhs, rhs_calls(quad)),
        "models.sir_rhs_us": per_call_us(sir.rhs, sir_calls),
        "transform.build_equivalent_us": per_call_us(
            pdl.build_equivalent, [(base,)] * builds),
        "quadrature.gauss_jacobi_us": per_call_us(
            pdl.gauss_jacobi,
            [(m, cfg.p, cfg.q, base.weight.a, base.weight.b)] * builds),
        "quadrature.build_quadrature_dde_us": per_call_us(
            pdl.build_quadrature_dde, [(base, rule)] * builds),
        "weightfn.beta_polynomial_us": per_call_us(
            pdl.beta_polynomial, [(cfg.a, cfg.b, cfg.p, cfg.q)] * builds),
        "weightfn.rescale_to_unit_us": per_call_us(
            pdl.rescale_to_unit, [(weight,)] * builds),
    }


def main():
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    mode = spec["mode"]
    t0 = time.perf_counter()
    import polydelay.cli as cli
    report = {"mode": mode, "import_s": time.perf_counter() - t0}
    if mode != "import":
        session = Session(cli, mode)
        commands = spec["commands"]
        if mode == "maxsteps":
            cli.MAX_STEPS = 50
            commands = commands[:1]
        results = [session.run(argv) for argv in commands]
        report["t_end"] = time.perf_counter()
        report["maxrss_kb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss
        report["exit_codes"] = [code for code, _ in results]
        report["stderr"] = [text for _, text in results]
        report["solves"] = session.solves
        if mode == "traced" and session.first_traj is not None:
            report["micro"] = microtimings(spec["micro_argv"],
                                           session.first_traj, spec["seed"])
        session.tracer.save(os.path.join(spec["out_dir"], "spans.npz"))
    with open(os.path.join(spec["out_dir"], "report.json"), "w") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main()
