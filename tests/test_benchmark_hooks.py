"""The benchmark's tracer wraps program names; each of them must still exist.

perfbench/tracing.py is imported by path, not through perfbench/run.py,
which pins the BLAS thread count for the whole process.
"""

import importlib.util
from pathlib import Path

from msvseg import scan, tensor

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_entry_point_resolves():
    targets = _load_tracing()._targets()
    assert targets
    for owner, attr, _ in targets:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr} is gone"


def test_record_op_chokepoints_exist():
    for module in (tensor, scan):
        assert callable(getattr(module, "record_op", None)), f"{module.__name__}.record_op is gone"
