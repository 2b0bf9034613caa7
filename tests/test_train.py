"""Training loop and evaluation harness."""

import numpy as np
import pytest

from msvseg.data import AugmentConfig, gen_synthetic_dataset
from msvseg.losses import ce_loss, dice_loss, one_hot
from msvseg.model import ModelConfig, build_model
from msvseg.optim import AdamW
from msvseg.tensor import Rng, Tensor, softmax_channels
from msvseg.train import CSV_HEADER, TrainConfig, evaluate, train_loop


@pytest.fixture(scope="module")
def tiny_data():
    return gen_synthetic_dataset(2, 4, 64, Rng(3))


class _OracleModel:
    """Emits the true mask as one-hot logits; used to pin evaluate()."""

    def __init__(self, lookup, num_classes):
        self.lookup = lookup
        self.cfg = type("C", (), {"num_classes": num_classes})()

    def forward(self, image):
        mask = self.lookup[image.data.tobytes()]
        logits = one_hot(mask, self.cfg.num_classes, dtype=np.float64) * 20.0 - 10.0
        return Tensor(logits, dtype=np.float64)


class TestEvaluate:
    def test_perfect_predictor_scores_one(self, tiny_data):
        lookup = {s.image.data.tobytes(): s.mask for s in tiny_data}
        model = _OracleModel(lookup, 4)
        report = evaluate(model, tiny_data, alpha=0.6)
        assert report.mean_dsc == pytest.approx(1.0)
        assert report.mean_hd95 == pytest.approx(0.0)

    def test_constant_predictor_scores_zero_on_absent_classes(self, tiny_data):
        class Constant:
            cfg = type("C", (), {"num_classes": 4})()

            def forward(self, image):
                logits = np.zeros((4,) + image.data.shape[1:])
                logits[0] = 10.0
                return Tensor(logits, dtype=np.float64)

        report = evaluate(Constant(), tiny_data, alpha=0.6)
        assert report.per_class_dsc[1] == 0.0
        assert report.per_class_dsc[2] == 0.0

    def test_empty_dataset_rejected(self, tiny_data):
        with pytest.raises(ValueError):
            evaluate(_OracleModel({}, 4), [], alpha=0.6)

    def test_report_lines_parse(self, tiny_data):
        lookup = {s.image.data.tobytes(): s.mask for s in tiny_data}
        report = evaluate(_OracleModel(lookup, 4), tiny_data, alpha=0.6)
        lines = report.lines()
        assert lines[0].startswith("mean_dsc=")
        keys = {line.split("=")[0] for line in lines}
        assert {"mean_dsc", "mean_hd95", "dsc_class_0", "loss"} <= keys


class TestTrainLoop:
    def test_smoke_one_epoch(self, tiny_data):
        model = build_model(ModelConfig(), Rng(1))
        cfg = TrainConfig(max_epochs=1, max_steps=1, batch_size=2, eval_every=1, seed=0)
        result = train_loop(model, tiny_data, cfg)
        assert result.steps_run == 1
        assert len(result.history) == 1
        csv = result.history_csv()
        assert csv.splitlines()[0] == CSV_HEADER
        assert len(csv.splitlines()) == 2

    def test_loss_strictly_decreases_on_fixed_batch(self, tiny_data):
        model = build_model(ModelConfig(), Rng(42))
        opt = AdamW(model.parameters(), weight_decay=1e-4)
        losses = []
        for _ in range(20):
            model.zero_grad()
            total = None
            for s in tiny_data:
                logits = model.forward(s.image)
                term = 0.6 * dice_loss(softmax_channels(logits), s.mask) \
                    + 0.4 * ce_loss(logits, s.mask)
                total = term if total is None else total + term
            total = total * (1.0 / len(tiny_data))
            losses.append(total.item())
            total.backward()
            opt.step(3e-3)
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_unset_gradients_match_zero_filled(self, tiny_data):
        # a step that zero-fills every gradient before backward, against one
        # that starts every gradient unset: 0 + g == g, so the parameters agree
        images = Tensor(np.stack([s.image.data for s in tiny_data]))
        masks = np.stack([s.mask for s in tiny_data])

        def two_steps(reset):
            model = build_model(ModelConfig(), Rng(42))
            opt = AdamW(model.parameters(), weight_decay=1e-4)
            for _ in range(2):
                reset(model)
                logits = model.forward(images)
                loss = 0.6 * dice_loss(softmax_channels(logits), masks) + 0.4 * ce_loss(logits, masks)
                loss.backward()
                opt.step(3e-3)
            return list(model.named_parameters())

        def zero_fill(model):
            for p in model.parameters():
                p.grad = np.zeros_like(p.data)

        filled = two_steps(zero_fill)
        unset = two_steps(lambda model: model.zero_grad())
        for (name, a), (_, b) in zip(filled, unset):
            assert np.array_equal(a.data, b.data), name

    def test_gradients_are_dropped_after_each_step(self, tiny_data, monkeypatch):
        import msvseg.train as train_mod

        model = build_model(ModelConfig(), Rng(6))
        held_at_eval = []

        def evaluate_spy(m, samples, *, alpha):
            held_at_eval.append([p.grad is not None for p in m.parameters()])
            return evaluate(m, samples, alpha=alpha)

        monkeypatch.setattr(train_mod, "evaluate", evaluate_spy)
        cfg = TrainConfig(max_steps=3, batch_size=2, eval_every=2, seed=11)
        train_loop(model, tiny_data, cfg)
        assert len(held_at_eval) == 2 and not any(map(any, held_at_eval))
        assert all(p.grad is None for p in model.parameters())

    def test_determinism_same_seed(self, tiny_data):
        cfg = TrainConfig(max_epochs=3, max_steps=3, batch_size=2, eval_every=3, seed=11)
        r1 = train_loop(build_model(ModelConfig(), Rng(5)), tiny_data, cfg)
        r2 = train_loop(build_model(ModelConfig(), Rng(5)), tiny_data, cfg)
        assert r1.history_csv() == r2.history_csv()
        for name in r1.best_state:
            assert np.array_equal(r1.best_state[name], r2.best_state[name])

    def test_divergence_aborts_with_diagnostic(self, tiny_data):
        model = build_model(ModelConfig(), Rng(2))
        for p in model.parameters():
            p.data *= 1e4    # blow up activations so the loss goes non-finite
        cfg = TrainConfig(max_epochs=1, max_steps=1, batch_size=2, seed=0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RuntimeError, match="diverged at step 0 on the batch of samples "
                                                   r"s000[01], s000[01]: op '"):
                train_loop(model, tiny_data, cfg)

    def test_divergence_in_an_evaluation_names_its_step(self, tiny_data):
        # the first update is finite, and the evaluation after it overflows
        cfg = TrainConfig(lr=1e18, max_steps=2, batch_size=2, eval_every=1, seed=0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RuntimeError, match="training diverged in the evaluation "
                                                   "after step 0: op '"):
                train_loop(build_model(ModelConfig(), Rng(2)), tiny_data, cfg)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train_loop(build_model(ModelConfig(), Rng(0)), [], TrainConfig())

    def test_mixed_sizes_rejected_before_the_first_step(self, tiny_data):
        small = gen_synthetic_dataset(1, 4, 32, Rng(4))[0]
        small.sample_id = "small"
        model = build_model(ModelConfig(), Rng(0))
        before = [p.data.copy() for p in model.parameters()]
        with pytest.raises(ValueError, match=r"s0000 is \(3, 64, 64\).*small is \(3, 32, 32\)"):
            train_loop(model, tiny_data + [small], TrainConfig(max_steps=1))
        assert all(np.array_equal(p.data, b) for p, b in zip(model.parameters(), before))

    def test_mixed_sizes_train_with_a_resize_target(self, tiny_data):
        small = gen_synthetic_dataset(1, 4, 32, Rng(4))[0]
        cfg = TrainConfig(max_steps=1, batch_size=3, eval_every=1,
                          augment=AugmentConfig(target_size=(32, 32)))
        result = train_loop(build_model(ModelConfig(), Rng(0)), tiny_data + [small], cfg,
                            eval_samples=[small])
        assert result.steps_run == 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(lr=0.0).validate()

    @pytest.mark.parametrize("max_steps", [0, -3])
    def test_no_zero_step_run(self, max_steps):
        with pytest.raises(ValueError, match="max_steps"):
            TrainConfig(max_steps=max_steps).validate()
        TrainConfig(max_steps=None).validate()  # bounded by max_epochs

    @pytest.mark.parametrize("stop_dsc", [None, 0.0, 1.0])
    def test_stop_dsc_bounds_are_valid(self, stop_dsc):
        TrainConfig(stop_dsc=stop_dsc).validate()

    def test_max_epochs_bounds_an_unbounded_step_count(self):
        # 3 samples in batches of 2: two steps per epoch, the second a partial batch
        samples = gen_synthetic_dataset(3, 4, 32, Rng(6))
        cfg = TrainConfig(max_epochs=2, max_steps=None, batch_size=2, eval_every=3, seed=1)
        result = train_loop(build_model(ModelConfig(), Rng(0)), samples, cfg)
        assert result.steps_run == 4
        assert [(row["epoch"], row["step"]) for row in result.history] == [(1, 3), (1, 4)]

    def test_stop_dsc_ends_the_run_at_that_evaluation(self, tiny_data):
        cfg = TrainConfig(max_steps=6, batch_size=1, eval_every=2, stop_dsc=0.0, seed=1)
        result = train_loop(build_model(ModelConfig(), Rng(0)), tiny_data, cfg)
        assert result.steps_run == 2
        assert [row["step"] for row in result.history] == [2]

    def test_report_matches_independent_recomputation(self, tiny_data):
        # dump argmax predictions and recompute the report with the test oracles
        from conftest import dsc_set_oracle
        from msvseg.tensor import no_grad
        model = build_model(ModelConfig(), Rng(31))
        cfg = TrainConfig(max_epochs=2, max_steps=2, batch_size=2, eval_every=2, seed=3)
        train_loop(model, tiny_data, cfg)
        report = evaluate(model, tiny_data, alpha=model.cfg.alpha)
        dumped = []
        for s in tiny_data:
            with no_grad():
                dumped.append(model.forward(s.image).data.argmax(axis=0))
        per_class = np.mean([dsc_set_oracle(p, s.mask, 4)
                             for p, s in zip(dumped, tiny_data)], axis=0)
        assert np.allclose(report.per_class_dsc, per_class, atol=1e-12)
        assert report.mean_dsc == pytest.approx(per_class.mean())

    def test_best_state_matches_best_row(self, tiny_data):
        model = build_model(ModelConfig(), Rng(7))
        cfg = TrainConfig(max_epochs=4, max_steps=4, batch_size=2, eval_every=2,
                          seed=3, lr=3e-3)
        result = train_loop(model, tiny_data, cfg)
        best_from_rows = max(row["mean_dsc"] for row in result.history)
        assert result.best_dsc == pytest.approx(best_from_rows)

    def test_one_evaluation_takes_one_snapshot(self, tiny_data, monkeypatch):
        from msvseg import train
        calls = []
        inner = train._snapshot

        def counting(model):
            calls.append(1)
            return inner(model)

        monkeypatch.setattr(train, "_snapshot", counting)
        model = build_model(ModelConfig(), Rng(8))
        cfg = TrainConfig(max_epochs=2, max_steps=2, batch_size=2, eval_every=2, seed=3)
        result = train_loop(model, tiny_data, cfg)
        assert len(calls) == 1 and len(result.history) == 1
        # the one evaluation ran after the last step
        for name, p in model.named_parameters():
            assert np.array_equal(result.best_state[name], p.data)
