#!/usr/bin/env python3
"""Run one workload several times, each with another seed, and summarise.

    python3 perfbench/sweep.py --workload toy_train --runs 10 [--trace 1]

Each run is a fresh ``run.py`` process of ``run_seconds`` (from
``BENCHMARK.json``), with seeds 100, 101, ...  For every metric it prints
the median, the first and third quartiles (``statistics.quantiles(n=4)``)
and their distance as a share of the median, and stores them in
``baseline.json`` under the workload's name.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BASELINE = HERE / "baseline.json"
FIRST_SEED = 100


def main() -> int:
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in range(FIRST_SEED, FIRST_SEED + args.runs):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout, proc.stderr, file=sys.stderr)
            raise SystemExit(f"run with seed {seed} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            raise SystemExit(f"run with seed {seed} failed its output check: {result}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + "  ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)

    summary = {}
    print(f"{'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / abs(med) if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "unit": units[name]}
        print(f"{name:32s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f}")

    table = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
    entry = table.setdefault(args.workload, {})
    entry["trace" if args.trace else "end_to_end"] = {
        "runs": args.runs, "seeds": f"{FIRST_SEED}-{FIRST_SEED + args.runs - 1}",
        "run_seconds": seconds, "metrics": summary}
    BASELINE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
