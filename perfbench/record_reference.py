#!/usr/bin/env python3
"""Record the output references that every benchmark run is checked against.

    python3 perfbench/record_reference.py

For every workload and input slot it runs one training episode, or evaluates
each image once, with the pinned BLAS thread count of ``run.py``, and stores
the checked values in ``reference.json``.  Run it only on the commit whose
outputs define correctness; a later commit that needs new references has
changed the program's results.
"""

import json
import sys

import run  # pins the BLAS thread count before numpy loads

run.import_program()

import workloads  # noqa: E402


def record(name: str, slot: int):
    session = workloads.make_session(name, slot)
    session.prepare()
    if isinstance(session.spec, workloads.TrainSpec):
        return session.group(None, warmup=True).values
    values = [session.group(None).values for _ in range(session.spec.n_images)]
    session.cleanup()
    return values


def main() -> int:
    table = {}
    for name in workloads.WORKLOADS:
        rows = table[name] = []
        for slot in range(workloads.SLOTS):
            rows.append(record(name, slot))
            print(f"{name} slot {slot}: {rows[-1]}", flush=True)
    workloads.REFERENCE_PATH.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
