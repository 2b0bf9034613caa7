#!/usr/bin/env python3
"""Benchmark launcher: one workload, one process, one JSON result line.

Usage, from the repository root:

    python3 perfbench/run.py --workload toy_train --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped but the
training step clock.  ``--trace 1`` wraps the program's public entry points
and reports the per-layer metrics instead.  The last line of standard output
is the result: ``{"correct", "attempted", "failed", "metrics"}``.
"""

import os
import sys
import time

T_START = time.perf_counter()  # set-up time counts from here

# The BLAS thread count must be fixed before numpy loads.  Different thread
# counts give different float32 results, so an unpinned run would be another
# program.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(min(BLAS_THREADS, os.cpu_count() or 1))

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

MB = 2.0 ** 20


def import_program():
    """Import msvseg from this checkout's ``src`` and nowhere else."""
    try:
        import msvseg
    except ImportError as exc:
        raise SystemExit(f"error: cannot import msvseg from {ROOT / 'src'}: {exc}")
    where = Path(msvseg.__file__).resolve().parent
    if where != ROOT / "src" / "msvseg":
        raise SystemExit(f"error: msvseg was imported from {where}, not from this checkout")


def _environment() -> str:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"nproc {os.cpu_count()}  blas_threads {os.environ['OPENBLAS_NUM_THREADS']}  "
            f"python {platform.python_version()}  numpy {np.__version__}  "
            f"{blas.get('name', 'blas')} {blas.get('version', '?')}")


def _tail(values):
    """(percentile, value): the highest whole percentile with at least ten
    values beyond it, or None when there are ten values or fewer."""
    n = len(values)
    if n <= 10:
        return None
    import numpy as np

    q = math.floor(100 * (n - 10) / n)
    return q, float(np.percentile(values, q))


def end_to_end(spec, out) -> dict:
    from workloads import TrainSpec

    units = out.unit_s
    per_unit = spec.samples_per_unit
    p50 = statistics.median(units)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    n = len(units)
    throughput = per_unit * n / sum(units)
    if isinstance(spec, TrainSpec):
        print(f"train_samples_per_s {throughput:.4f} samples/s")
        print(f"train_step_s_p50 {p50:.4f} s ({n} steps of {per_unit} samples)")
        tail = _tail(units)
        if tail is None:
            print(f"train_step_s_tail n/a ({n} steps, needs more than 10)")
        else:
            print(f"train_step_s_tail p{tail[0]} {tail[1]:.4f} s ({n} steps)")
    else:
        print(f"infer_ms_p50 {1000 * p50:.2f} ms/image ({n} images)")
    print(f"peak_rss_mb {rss:.1f} MB")
    print(f"fail_share {out.failed}/{out.attempted}")
    print(f"setup_s {out.setup_s:.3f} s (of which warm-up {out.warmup_s:.3f} s)")
    return {
        "setup_s": {"value": out.setup_s, "unit": "s"},
        "samples_per_s": {"value": throughput, "unit": "samples/s"},
        "step_s_p50": {"value": p50, "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }


def per_layer(spec, out, tracer) -> dict:
    from tracing import SPAN_METRICS

    samples = spec.samples_per_unit * len(out.traced_unit_s)
    totals, covered, calls, forward_total = tracer.layer_totals(out.windows)
    nodes, layout, graph_bytes, state_bytes = out.counters
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    put("tensor.nodes_per_sample", nodes / samples, "count")
    put("tensor.layout_nodes_per_sample", layout / samples, "count")
    put("tensor.graph_mb_per_sample", graph_bytes / MB / samples, "MB")
    put("scan.saved_state_mb", state_bytes / MB / samples, "MB")
    for metric in SPAN_METRICS.values():
        put(metric, totals[metric] / samples, "s")
    put("train.untraced_s", (sum(out.traced_unit_s) - covered) / samples, "s")
    put("model.gflops_per_sample", out.gflops_per_sample, "GFLOP")
    put("model.achieved_gflops_per_s",
        out.gflops_per_sample * samples / forward_total if forward_total else 0.0, "GFLOP/s")
    for metric, seconds in tracer.setup_totals().items():
        put(metric, seconds, "s")
    overhead = statistics.median(out.traced_unit_s) / statistics.median(out.unit_s) - 1.0
    put("trace.overhead_pct", 100.0 * overhead, "%")

    print(f"traced: {len(out.traced_unit_s)} units, {samples} samples; "
          f"untraced: {len(out.unit_s)} units")
    for name, m in metrics.items():
        count = calls.get(name)
        per = f"  ({count / samples:.1f} calls/sample)" if count is not None else ""
        print(f"{name} {m['value']:.6g} {m['unit']}{per}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (choose from {sorted(workloads.WORKLOADS)})")
    print(_environment())
    spec = workloads.WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    out = workloads.make_session(args.workload, args.seed, tracer).run(args.seconds, T_START)
    for error in out.errors[:3]:
        print(error, file=sys.stderr)
    if not out.unit_s or (tracer is not None and not out.traced_unit_s):
        print(f"error: no {args.workload} unit completed ({out.failed}/{out.attempted} failed)",
              file=sys.stderr)
        return 1

    print(f"workload {args.workload}  seed {args.seed}  slot {args.seed % workloads.SLOTS}")
    if tracer is None:
        metrics = end_to_end(spec, out)
    else:
        metrics = per_layer(spec, out, tracer)
        trace_file = workloads.OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
        tracer.write(trace_file)
        print(f"spans written to {trace_file.relative_to(ROOT)}")
    result = {"correct": out.warmup_ok and out.failed == 0, "attempted": out.attempted,
              "failed": out.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
