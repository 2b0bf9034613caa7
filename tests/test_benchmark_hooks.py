"""The benchmark's tracer wraps program names; each of them must still exist
and still be called where the benchmark's workloads call the program.

perfbench/tracing.py is imported by path, not through perfbench/run.py,
which pins the BLAS thread count for the whole process.
"""

import importlib.util
from pathlib import Path

from msvseg import data, model, scan, serial, tensor, train
from msvseg.config import config_to_text
from msvseg.tensor import Rng

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


def _outside(spans, index, name):
    """True if no enclosing span of spans[index] is called ``name``."""
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return False
        parent = spans[parent][3]
    return True


def test_every_span_fires(tmp_path):
    # the set-up and one training step of a workload, on a micro model
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        cfg = model.ModelConfig(base_channels=8, input_size=(32, 32), state_size=4)
        samples = data.gen_synthetic_dataset(2, cfg.num_classes, 32, Rng(0))
        net = model.build_model(cfg, Rng(0))
        train.train_loop(net, samples, train.TrainConfig(
            batch_size=2, max_steps=1, seed=0, augment=data.AugmentConfig.all_on()))
        checkpoint = tmp_path / "c.msvc"
        serial.save_checkpoint(checkpoint, config_to_text(cfg),
                               [(n, p.data) for n, p in net.named_parameters()])
        serial.load_checkpoint(checkpoint)
    finally:
        tracer.uninstall()
    fired = {span[0] for span in tracer.spans}
    expected = set(tracing.SPAN_METRICS) | set(tracing.SETUP_METRICS)
    assert not expected - fired, f"spans that never fired: {sorted(expected - fired)}"
    # the training step, not only the evaluation after it, reaches each of these
    in_training = {span[0] for i, span in enumerate(tracer.spans)
                   if _outside(tracer.spans, i, "train.evaluate")}
    for name in ("model.forward", "losses.loss", "tensor.backward", "scan.backward",
                 "optim.step", "data.augment"):
        assert name in in_training, f"{name} fires only inside train.evaluate"
