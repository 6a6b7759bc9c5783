"""polydelay benchmark: CLI workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload presets-equivalent --seed 1 \
        --seconds 25 --trace 0

Each repetition runs the workload's commands through polydelay.cli.main in
a fresh, single-threaded interpreter (perfbench/child.py) with
POLYDELAY_THREADS unset, and gates the CSV it writes against the stored
reference in perfbench/reference/ (see make_reference.py). Repetitions
continue for --seconds seconds, at least MIN_REPS of them.

--trace 0 reports the end-to-end metrics of BENCHMARK.json as medians
over the repetitions. --trace 1 alternates untraced repetitions with
traced ones, whose spans give the per-layer metrics, and reports the
difference of their median wall times as the tracing overhead.

The seed shuffles the order of the workload's commands in each
repetition, picks the perturbed row of the gate's self-check and the
query points of the per-call microtimings; the inputs themselves are the
fixed presets. After the first repetition the run checks its own gate:
a CSV with S + 1e-4 in one row and a solve forced to fail (cli.MAX_STEPS
lowered, exit 3) must both be rejected, and a traced run must take the
same steps as the untraced ones.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The run's metadata, every sample
and the self-check results go to perfbench/out/results/.
"""

import argparse
import json
import math
import os
import platform
import random
import re
import shutil
import subprocess
import sys
import tempfile
import time
from statistics import median, median_low, quantiles

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
REFERENCE_DIR = os.path.join(HERE, "reference")
OUT_DIR = os.path.join(HERE, "out")

# Fixed problems; each workload adds its solver flags, and the reference
# solves them with REFERENCE_FLAGS instead.
PROBLEMS = {
    "case-i": ["solve", "--preset", "case-i"],
    "case-ii": ["solve", "--preset", "case-ii"],
    "case-ii-dense": ["solve", "--preset", "case-ii", "--samples", "100000"],
    "convergence-m8": ["convergence", "--preset", "case-i", "--m", "8"],
}
REFERENCE_FLAGS = ["--rtol", "1e-11", "--atol", "1e-14", "--hmax", "inf"]

QUADRATURE_M8 = ["--variant", "quadrature", "--m", "8"]
# Why each workload was chosen is in BENCHMARK.json.
WORKLOADS = {
    "presets-equivalent": [("case-i", []), ("case-ii", [])],
    "presets-quadrature-m8": [("case-i", QUADRATURE_M8),
                              ("case-ii", QUADRATURE_M8)],
    "convergence-m8": [("convergence-m8", [])],
    "dense-output": [("case-ii-dense", ["--hmax", "inf", "--rtol", "1e-9",
                                        "--atol", "1e-12"])],
}

# Largest |S, I, R - reference| (convergence: |dS, dI, dR - reference|) a
# repetition may show. The seed shows 5.4e-7, 2.0e-5, 7.4e-9 and 9.3e-7;
# the bounds leave room for a solver change at the same tolerances and
# stay well below the 1e-4 perturbation the gate must catch.
TOLERANCE = {
    "presets-equivalent": 5e-6,
    "presets-quadrature-m8": 5e-5,
    "convergence-m8": 5e-6,
    "dense-output": 5e-6,
}

MIN_REPS = 3
IMPORT_PROBES = 5
# a repetition takes under 10 s; a hung child must not outlast the run
CHILD_TIMEOUT_S = 60
CONSERVATION_BOUND = 1e-10
PERTURBATION = 1e-4

STEPS_RE = re.compile(r"steps taken: (\d+), rejected: (\d+)")
REFERENCE_STEPS_RE = re.compile(r"reference solve: (\d+) steps")


class Run:
    """Spawns the child interpreters of one benchmark run."""

    def __init__(self, workload, seed, work_dir):
        self.items = WORKLOADS[workload]
        self.rng = random.Random(seed)
        self.seed = seed
        self.work_dir = work_dir
        # bytecode caching stays on, as in an installed package, so set-up
        # time does not depend on whether the caller's shell disabled it
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("POLYDELAY_THREADS",
                                 "PYTHONDONTWRITEBYTECODE")}
        self.env.update(PYTHONPATH=os.path.join(ROOT, "src"),
                        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                        MKL_NUM_THREADS="1")
        self.children = 0

    def child(self, mode):
        """Run one child; returns (report or None, commands, output paths).

        commands are in this repetition's shuffled order, as (reference
        key, argv) pairs."""
        self.children += 1
        work = os.path.join(self.work_dir, "c%03d" % self.children)
        os.makedirs(work)
        order = list(range(len(self.items)))
        self.rng.shuffle(order)
        commands, outputs = [], []
        for k, idx in enumerate(order):
            key, flags = self.items[idx]
            out = os.path.join(work, "out%d.csv" % k)
            commands.append((key, PROBLEMS[key] + flags + ["--out", out]))
            outputs.append(out)
        spec = os.path.join(work, "spec.json")
        with open(spec, "w") as fh:
            json.dump({"mode": mode, "seed": self.seed, "out_dir": work,
                       "commands": [argv for _, argv in commands],
                       "micro_argv": PROBLEMS[self.items[0][0]]
                       + self.items[0][1]}, fh)
        t0 = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, CHILD, spec], cwd=ROOT,
                                  env=self.env, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            # run() has killed the child and waited for it
            sys.stderr.write("child %s timed out\n" % work)
            return None, commands, outputs
        path = os.path.join(work, "report.json")
        if proc.returncode != 0 or not os.path.exists(path):
            sys.stderr.write(proc.stderr)
            return None, commands, outputs
        with open(path) as fh:
            report = json.load(fh)
        if "t_end" in report:
            report["wall_s"] = report["t_end"] - t0
        report["work"] = work
        return report, commands, outputs


def load_reference():
    with open(os.path.join(REFERENCE_DIR, "reference.json")) as fh:
        meta = json.load(fh)
    with np.load(os.path.join(REFERENCE_DIR, "reference.npz")) as data:
        arrays = {key: data[key] for key in data.files}
    return meta, arrays


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(0, 1, 2, 3),
                      ndmin=2)
    return header, data


def check_output(key, header, data, meta, ref, tol):
    """Problems found in one command's output and its largest error."""
    problems = []
    expected = meta["headers"][key]
    if header[:len(expected)] != expected:
        return ["%s: header %s" % (key, header)], math.inf
    stride = meta["strides"][key]
    if data.shape[0] != meta["rows"][key] or not np.all(np.isfinite(data)):
        return ["%s: %d rows or non-finite values" % (key, data.shape[0])], \
            math.inf
    rows = data[::stride]
    if np.max(np.abs(rows[:, 0] - ref[:, 0])) > 1e-9 * max(1.0, ref[-1, 0]):
        problems.append("%s: output grid differs from the reference" % key)
    err = float(np.max(np.abs(rows[:, 1:4] - ref[:, 1:4])))
    if err > tol:
        problems.append("%s: max error %.3g above %.3g" % (key, err, tol))
    if expected[0] == "t":
        drift = float(np.max(np.abs(data[:, 1:4].sum(axis=1) - 1.0)))
        if drift > CONSERVATION_BOUND:
            problems.append("%s: |S+I+R-1| = %.3g" % (key, drift))
    else:
        ds = data[:, 1]
        if not np.all(np.diff(ds) < 0.0):
            problems.append("%s: dS not strictly decreasing" % key)
        if not ds[5] <= ds[0] / 100.0:
            problems.append("%s: dS(6) above dS(1)/100" % key)
    return problems, err


def gate(report, commands, outputs, meta, arrays, tol, perturb_row=None):
    """(problems, max error) of one repetition; no problems means pass.

    perturb_row adds PERTURBATION to column 1 of that row of the first
    output before checking, for the gate's own self-check."""
    if report is None:
        return ["child crashed"], math.inf
    problems, worst = [], 0.0
    for k, ((key, _), path) in enumerate(zip(commands, outputs)):
        code = report["exit_codes"][k]
        if code != 0:
            problems.append("%s: exit code %d" % (key, code))
            worst = math.inf
            continue
        try:
            header, data = read_csv(path)
        except (OSError, ValueError) as exc:
            problems.append("%s: unreadable CSV (%s)" % (key, exc))
            worst = math.inf
            continue
        if k == 0 and perturb_row is not None:
            data[perturb_row % data.shape[0], 1] += PERTURBATION
        found, err = check_output(key, header, data, meta, arrays[key], tol)
        problems += found
        worst = max(worst, err)
    return problems, worst


def steps_by_key(report, commands):
    """Accepted/rejected steps per command, from the CLI's stderr."""
    out = {}
    for (key, _), text in zip(commands, report["stderr"]):
        match = STEPS_RE.search(text)
        if match:
            out[key] = [int(match.group(1)), int(match.group(2))]
        else:
            match = REFERENCE_STEPS_RE.search(text)
            out[key] = [int(match.group(1))] if match else None
    return out


def traced_steps_by_key(report, commands):
    """The same counts as steps_by_key, read by the solve wrapper."""
    out = {}
    for k, (key, argv) in enumerate(commands):
        solves = [s for s in report["solves"] if s["command"] == k]
        if not solves:
            out[key] = None
        elif argv[0] == "convergence":
            out[key] = [solves[0]["steps_accepted"]]
        else:
            out[key] = [solves[0]["steps_accepted"],
                        solves[0]["steps_rejected"]]
    return out


def layer_metrics(report):
    """Per-layer metrics of one traced repetition, from its spans."""
    with np.load(os.path.join(report["work"], "spans.npz")) as spans:
        names = list(spans["names"])
        name_id, parent = spans["name_id"], spans["parent"]
        dur = spans["end"] - spans["start"]

    def is_(*wanted):
        ids = [names.index(w) for w in wanted if w in names]
        return np.isin(name_id, ids)

    def total(*wanted):
        return float(dur[is_(*wanted)].sum())

    rhs = is_("transform.rhs", "quadrature.rhs")
    rhs_calls = int(rhs.sum())
    lookups = 0
    for s in report["solves"]:
        lookups += int(np.count_nonzero(rhs & (parent == s["span"]))) \
            * s["delays"]
    accepted = sum(s["steps_accepted"] for s in report["solves"])
    rejected = sum(s["steps_rejected"] for s in report["solves"])
    solve_s = total("ddesolver.solve")
    rhs_s = float(dur[rhs].sum())
    metrics = {
        "ddesolver.solve_s": solve_s,
        "ddesolver.self_s": solve_s - rhs_s,
        "ddesolver.self_us_per_step": (solve_s - rhs_s) / accepted * 1e6,
        "ddesolver.rhs_s": rhs_s,
        "ddesolver.steps_accepted": accepted,
        "ddesolver.steps_rejected": rejected,
        "ddesolver.accept_ratio": accepted / (accepted + rejected),
        "ddesolver.rhs_calls": rhs_calls,
        "ddesolver.lookups": lookups,
        "ddesolver.sample_s": total("ddesolver.sample",
                                    "ddesolver.dense_eval"),
        "models.sir_rhs_s": total("models.sir_rhs"),
        "cli.run_s": total("cli.run_solve", "cli.run_convergence"),
        "cli.write_csv_s": total("cli.write_csv"),
    }
    metrics.update(report["micro"])
    return metrics


def build_seconds(report):
    with np.load(os.path.join(report["work"], "spans.npz")) as spans:
        return float((spans["end"] - spans["start"]).sum())


def describe(values):
    """Median, quartiles (statistics.quantiles, n=4) and (Q3 - Q1) / median."""
    values = sorted(values)
    med = median(values)
    q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else [med] * 3
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else None}


def metadata(seed, workload, trace):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {"workload": workload, "seed": seed, "trace": trace,
            "python": platform.python_version(), "numpy": np.__version__,
            "cpu_model": cpu, "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "git_commit": commit,
            "POLYDELAY_THREADS": "unset in the children (parent had %r)"
                                 % os.environ.get("POLYDELAY_THREADS")}


def self_checks(run, first, meta, arrays, tol):
    """Results of the gate's self-checks; each must be True."""
    report, commands, outputs = first
    row = run.rng.randrange(meta["rows"][commands[0][0]])
    perturbed, _ = gate(report, commands, outputs, meta, arrays, tol,
                        perturb_row=row)
    failing, f_commands, f_outputs = run.child("maxsteps")
    forced, _ = gate(failing, f_commands[:1], f_outputs[:1], meta, arrays,
                     tol)
    return {
        "perturbed_csv_rejected": bool(perturbed),
        "forced_failure_exit_3": failing is not None
                                 and failing["exit_codes"] == [3],
        "forced_failure_rejected": bool(forced),
    }


def repetition(run, mode, meta, arrays, tol):
    """One gated repetition, reduced to the numbers the run reports."""
    report, commands, outputs = run.child(mode)
    problems, err = gate(report, commands, outputs, meta, arrays, tol)
    rep = {"mode": mode, "problems": problems, "max_err": err,
           "raw": (report, commands, outputs)}
    if report is not None:
        rep.update(wall_s=report["wall_s"], import_s=report["import_s"],
                   peak_rss_mb=report["maxrss_kb"] / 1024.0,
                   build_s=build_seconds(report),
                   steps=steps_by_key(report, commands),
                   csv_bytes=sum(os.path.getsize(p) for p in outputs
                                 if os.path.exists(p)))
        if mode == "traced" and not problems:
            rep["traced_steps"] = traced_steps_by_key(report, commands)
            rep["layers"] = layer_metrics(report)
    return rep


def measure(run, trace, seconds, meta, arrays, tol):
    """Repetitions until the deadline; traced ones alternate if trace.

    The first repetition keeps its files for the self-checks; the others
    are removed once gated."""
    reps = []
    durations = []
    deadline = time.perf_counter() + seconds
    while True:
        count = len(reps)
        if count >= MIN_REPS and time.perf_counter() + median(durations) \
                > deadline:
            break
        mode = "traced" if trace and count % 2 == 1 else "plain"
        t0 = time.perf_counter()
        rep = repetition(run, mode, meta, arrays, tol)
        durations.append(time.perf_counter() - t0)
        if count == 0:
            rep["checks"] = self_checks(run, rep["raw"], meta, arrays, tol)
        report = rep.pop("raw")[0]
        if report is not None:
            shutil.rmtree(report["work"], ignore_errors=True)
        reps.append(rep)
    return reps


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.exists(os.path.join(ROOT, "src", "polydelay", "cli.py")):
        print("no polydelay sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    meta, arrays = load_reference()
    tol = TOLERANCE[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        run = Run(args.workload, args.seed, work_dir)
        # the first interpreter writes bytecode caches and warms the file
        # cache; it is not measured
        run.child("import")
        probes = [run.child("import")[0]
                  for _ in range(0 if args.trace else IMPORT_PROBES)]
        imports = [p["import_s"] for p in probes if p is not None]
        reps = measure(run, args.trace, args.seconds, meta, arrays, tol)
        checks = reps[0]["checks"]
        ok = [r for r in reps if "wall_s" in r]
        plain = [r for r in ok if r["mode"] == "plain"]
        traced = [r for r in ok if "layers" in r]
        imports += [r["import_s"] for r in ok]
        samples = {name: [r[name] for r in plain]
                   for name in ("wall_s", "peak_rss_mb", "max_err", "build_s")}
        wanted = bench["per_layer" if args.trace else "end_to_end"]
        metrics = {}
        if args.trace and traced and plain:
            checks["traced_steps_match_cli"] = all(
                t["traced_steps"] == p["steps"] for t in traced for p in plain)
            layers = [dict(r["layers"], **{"cli.csv_bytes": r["csv_bytes"]})
                      for r in traced]
            # counts repeat exactly, so their median stays a whole number
            metrics = {name: median(m[name] for m in layers)
                       if isinstance(layers[0][name], float)
                       else median_low(m[name] for m in layers)
                       for name in layers[0]}
            metrics["trace.overhead_s"] = (
                median(r["wall_s"] for r in traced)
                - median(samples["wall_s"]))
            samples["traced_wall_s"] = [r["wall_s"] for r in traced]
        elif plain and not args.trace:
            metrics = {name: median(samples[name])
                       for name in ("wall_s", "peak_rss_mb")}
            # a repetition that fails the gate has no finite error
            errors = [e for e in samples["max_err"] if math.isfinite(e)]
            metrics["max_err"] = median(errors) if errors else None
            metrics["setup_s"] = median(imports) + median(samples["build_s"])
        checks["every_metric_named"] = (
            sorted(metrics) == sorted(m["name"] for m in wanted))
        failed = sum(1 for r in reps if r["problems"])
        correct = failed == 0 and all(checks.values())
        result = {"correct": correct, "attempted": len(reps),
                  "failed": failed,
                  "metrics": {m["name"]: {"value": metrics.get(m["name"]),
                                          "unit": m["unit"]}
                              for m in wanted}}
        record = {"metadata": metadata(args.seed, args.workload, args.trace),
                  "self_checks": checks,
                  "problems": [r["problems"] for r in reps],
                  "samples": dict(samples, import_s=imports),
                  "stats": {k: describe(v) for k, v in samples.items() if v},
                  "layers": [r["layers"] for r in traced] if args.trace
                  else [],
                  "result": result}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    results_dir = os.path.join(OUT_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"metadata": record["metadata"],
                      "self_checks": checks, "results_file": path}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
