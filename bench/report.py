#!/usr/bin/env python3
"""Run every workload of BENCHMARK.json and print one table.

Run from the repository root:

    python3 bench/report.py                      # one run per workload, seed 1
    python3 bench/report.py --seeds 101-110 --out bench/baseline/seed.json

Each run is ``bench/run.py`` in its own process, one after another.  The
table gives, per workload, every end-to-end metric (or per-layer metric with
``--trace 1``) by name and unit: the median over the seeds, and with more
than one seed the quartiles and their distance as a share of the median,
the spread the benchmark's bounds are set against.  ``--out`` also writes
every run's result and metadata as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=[1], help="e.g. 1,2,3 or 101-110")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write every run as JSON here")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    runs: dict[str, list[dict]] = {}
    for name in names:
        runs[name] = []
        for seed in args.seeds:
            argv = spec["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
            ]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            lines = proc.stdout.strip().splitlines()
            runs[name].append({
                "seed": seed,
                "result": json.loads(lines[-1]),
                "meta": json.loads(lines[-2])["meta"],
            })
            print(f"{name} seed {seed}: done", file=sys.stderr)
        if args.out:
            os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump({"benchmark": spec, "runs": runs}, fh, indent=1)

    for name, results in runs.items():
        attempted = [r["result"]["attempted"] for r in results]
        failed = [r["result"]["failed"] for r in results]
        correct = all(r["result"]["correct"] for r in results)
        print(f"{name}: ops attempted {attempted}, failed {failed}, correct {correct}")
        for metric in metrics:
            values = [r["result"]["metrics"][metric["name"]]["value"] for r in results]
            line = f"  {metric['name']:<38} {statistics.median(values):>14.6g} {metric['unit']:<9}"
            if len(values) > 1:
                q1, q2, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / q2 if q2 else float("nan")
                line += f" quartiles {q1:.6g} .. {q3:.6g}, spread {spread:.4f}"
                if "bound" in metric:
                    line += f" (bound {metric['bound']})"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
