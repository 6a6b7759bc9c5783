"""Regenerate the benchmark's stored references in perfbench/reference/.

Run from the repository root:  python3 perfbench/make_reference.py

Every problem of run.PROBLEMS is solved through polydelay.cli.main on the
equivalent route with run.REFERENCE_FLAGS (rtol 1e-11, atol 1e-14, no
h_max). reference.npz keeps t, S, I, R (convergence: m, dS, dI, dR) on
the output grid, every stride-th row where the grid is larger than
MAX_ROWS. reference.json records the commands, the grids and two
cross-checks of the reference itself: the same solve at rtol 1e-12 /
atol 1e-15, whose difference estimates the reference's own error, and
the quadrature route with 12 nodes, whose difference is that route's
discretisation error.
"""

import json
import os
import sys
import tempfile

import numpy as np

from run import OUT_DIR, PROBLEMS, REFERENCE_DIR, REFERENCE_FLAGS, ROOT

sys.path.insert(0, os.path.join(ROOT, "src"))
from polydelay import cli  # noqa: E402

MAX_ROWS = 5000
TIGHTER_FLAGS = ["--rtol", "1e-12", "--atol", "1e-15", "--hmax", "inf"]
CROSS_CHECK_M = 12

def solve(argv, work):
    out = os.path.join(work, "out.csv")
    code = cli.main(argv + ["--out", out])
    if code != 0:
        raise SystemExit("%s exited with %d" % (" ".join(argv), code))
    with open(out) as fh:
        header = fh.readline().strip().split(",")[:4]
    return header, np.loadtxt(out, delimiter=",", skiprows=1,
                              usecols=(0, 1, 2, 3), ndmin=2)


def main():
    os.makedirs(OUT_DIR, exist_ok=True)
    arrays, meta = {}, {"commands": {}, "headers": {}, "rows": {},
                        "strides": {}, "rtol_1e-12": {}, "quadrature_m12": {}}
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as work:
        for key, problem in PROBLEMS.items():
            argv = problem + REFERENCE_FLAGS
            header, data = solve(argv, work)
            stride = -(-data.shape[0] // MAX_ROWS)
            arrays[key] = data[::stride]
            meta["commands"][key] = ["polydelay"] + argv
            meta["headers"][key] = header
            meta["rows"][key] = data.shape[0]
            meta["strides"][key] = stride
            _, tighter = solve(problem + TIGHTER_FLAGS, work)
            meta["rtol_1e-12"][key] = float(
                np.max(np.abs(tighter[:, 1:] - data[:, 1:])))
            if problem[0] == "solve":
                _, quad = solve(problem + REFERENCE_FLAGS + [
                    "--variant", "quadrature", "--m", str(CROSS_CHECK_M)],
                    work)
                meta["quadrature_m12"][key] = float(
                    np.max(np.abs(quad[:, 1:] - data[:, 1:])))
            print(key, data.shape, meta["rtol_1e-12"][key],
                  meta["quadrature_m12"].get(key), flush=True)
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    np.savez_compressed(os.path.join(REFERENCE_DIR, "reference.npz"),
                        **arrays)
    with open(os.path.join(REFERENCE_DIR, "reference.json"), "w") as fh:
        json.dump(meta, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
