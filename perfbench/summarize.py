"""Summarise the runs in perfbench/out/results/ as one JSON document.

Run from the repository root after a set of runs, one per seed:

    python3 perfbench/summarize.py > perfbench/baseline.json

For each workload and metric it gives the runs' values, their median,
quartiles (statistics.quantiles, n=4) and spread, (Q3 - Q1) / median.
End-to-end metrics also carry their bound from BENCHMARK.json, and
within_third_of_bound says whether the spread stays below a third of it.
"""

import glob
import json
import os
import sys

from run import describe

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    runs = {}
    for path in sorted(glob.glob(os.path.join(HERE, "out", "results",
                                              "*.json"))):
        with open(path) as fh:
            record = json.load(fh)
        meta = record["metadata"]
        runs.setdefault(meta["workload"], {}).setdefault(
            meta["trace"], []).append(record)
    summary = {}
    for workload, by_trace in sorted(runs.items()):
        entry = summary[workload] = {}
        for trace, records in sorted(by_trace.items()):
            metrics = {}
            for name in records[0]["result"]["metrics"]:
                values = [r["result"]["metrics"][name]["value"]
                          for r in records]
                stats = dict(describe(values), values=values)
                stats["unit"] = records[0]["result"]["metrics"][name]["unit"]
                if name in bounds:
                    stats["bound"] = bounds[name]
                    stats["within_third_of_bound"] = (
                        stats["spread"] is not None
                        and stats["spread"] < bounds[name] / 3.0)
                metrics[name] = stats
            meta = dict(records[0]["metadata"])
            del meta["seed"]
            entry["trace%d" % trace] = {
                "seeds": [r["metadata"]["seed"] for r in records],
                "all_correct": all(r["result"]["correct"] for r in records),
                "attempted": sum(r["result"]["attempted"] for r in records),
                "failed": sum(r["result"]["failed"] for r in records),
                "metadata": meta,
                "metrics": metrics,
            }
    json.dump(summary, sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
