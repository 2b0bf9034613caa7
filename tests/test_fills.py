"""Parameter fills: chunked draws, the pending fills of build_model, threads."""

import threading
from dataclasses import replace

import numpy as np
import pytest

from msvseg import model as M
from msvseg import tensor as T
from msvseg.blocks import Linear
from msvseg.model import TINY224_PRESET, TOY_PRESET, VSSUNet, build_model
from msvseg.tensor import (FILL_CHUNK, Rng, deferred_fills, fill_draws, trunc_normal_draw,
                           uniform_draw)

SIZES = [0, 1, FILL_CHUNK - 1, FILL_CHUNK, FILL_CHUNK + 1, 3 * FILL_CHUNK + 5]

CONFIGS = {
    "toy": TOY_PRESET,
    "wide224": replace(TINY224_PRESET, base_channels=48, stage_depths=(1, 1, 1, 1)),
    "tiny224": TINY224_PRESET,
    **{f"toy-{up}-{block}": replace(TOY_PRESET, upsampler=up, decoder_block=block)
       for up in ("lkpe", "patch_expand", "transposed_conv", "upsample_block")
       for block in ("msvss", "vss")},
}


def _whole_array_trunc_normal(gen, shape, std):
    """The full-array rejection loop the chunked fill replaced."""
    out = gen.normal(0.0, std, shape)
    bad = np.abs(out) > 2.0 * std
    while bad.any():
        out[bad] = gen.normal(0.0, std, int(bad.sum()))
        bad = np.abs(out) > 2.0 * std
    return out


def _assert_same_parameters(a, b):
    named_a, named_b = list(a.named_parameters()), list(b.named_parameters())
    assert [n for n, _ in named_a] == [n for n, _ in named_b]
    for (name, p), (_, q) in zip(named_a, named_b):
        assert p.data.dtype == q.data.dtype and p.data.shape == q.data.shape, name
        assert p.data.tobytes() == q.data.tobytes(), name


class TestFillDraws:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("size", SIZES)
    def test_trunc_normal_equals_the_whole_array_loop(self, size, dtype):
        rng, oracle = Rng(3), np.random.Generator(np.random.Philox(Rng(3).seed))
        got = fill_draws(rng, np.empty(size, dtype), *trunc_normal_draw(0.02))
        expected = _whole_array_trunc_normal(oracle, size, 0.02).astype(dtype)
        assert got.tobytes() == expected.tobytes()
        # and the stream is left where the loop left it
        assert np.array_equal(rng.normal(5), oracle.normal(0.0, 1.0, 5))

    @pytest.mark.parametrize("size", SIZES)
    def test_uniform_equals_one_draw(self, size):
        got = fill_draws(Rng(4), np.empty((size, 1), np.float32), uniform_draw(-0.5, 0.5))
        assert got.tobytes() == Rng(4).uniform(-0.5, 0.5, (size, 1)).astype(np.float32).tobytes()

    def test_large_fill_redraws_over_several_passes(self):
        size = 3 * FILL_CHUNK + 5
        passes = []

        def counted(rng, n):
            passes.append(n)
            return rng.normal(n, 0.0, 1.0)

        out = fill_draws(Rng(5), np.empty(size), counted, 2.0)
        assert np.abs(out).max() <= 2.0
        assert len(passes) > 4 + 2  # four chunks, then at least two redraw passes
        assert passes[4] > passes[5] > 0

    def test_non_contiguous_output_is_refused(self):
        with pytest.raises(ValueError, match="contiguous"):
            fill_draws(Rng(7), np.empty((4, 4), np.float32)[:, ::2], uniform_draw(0.0, 1.0))


class TestPendingFills:
    def test_fills_wait_for_the_block_owner(self):
        with deferred_fills() as pending:
            layer = Linear(Rng(8), 3, 4)
        assert len(pending.fills) == 1
        pending.run(1)
        _assert_same_parameters(layer, Linear(Rng(8), 3, 4))

    def test_two_fills_on_one_generator_raise(self):
        rng = Rng(9)
        Linear(rng, 3, 4)  # filled at once, so the call order is the draw order
        Linear(rng, 3, 4)
        with pytest.raises(RuntimeError, match="one generator"):
            with deferred_fills():
                Linear(rng, 3, 4)
                Linear(rng, 3, 4)

    def test_block_is_per_thread(self):
        built = []
        with deferred_fills() as pending:
            worker = threading.Thread(target=lambda: built.append(Linear(Rng(10), 3, 4)))
            worker.start()
            worker.join(timeout=60)
        assert not worker.is_alive() and not pending.fills
        _assert_same_parameters(built[0], Linear(Rng(10), 3, 4))


class TestBuildModel:
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_equals_the_serial_build(self, name, seed):
        cfg = CONFIGS[name]
        _assert_same_parameters(build_model(cfg, Rng(seed)), VSSUNet(cfg, Rng(seed)))

    @pytest.mark.parametrize("workers", [1, 3, 16])
    def test_thread_count_changes_no_value(self, workers, monkeypatch):
        expected = build_model(TOY_PRESET, Rng(11))
        monkeypatch.setattr(M, "fill_workers", lambda: workers)
        _assert_same_parameters(build_model(TOY_PRESET, Rng(11)), expected)

    def test_fill_workers_is_capped(self):
        assert 1 <= T.fill_workers() <= T.FILL_WORKER_CAP

    def test_no_thread_outlives_the_build(self, monkeypatch):
        monkeypatch.setattr(M, "fill_workers", lambda: 4)
        seen = set()
        real_fill = T.fill_draws

        def recording_fill(*args):
            seen.add(threading.get_ident())
            return real_fill(*args)

        monkeypatch.setattr(T, "fill_draws", recording_fill)
        before = threading.active_count()
        build_model(TOY_PRESET, Rng(12))
        assert threading.active_count() == before
        assert threading.get_ident() not in seen  # the fills ran on the pool

    def test_no_thread_outlives_a_failed_fill(self, monkeypatch):
        monkeypatch.setattr(M, "fill_workers", lambda: 4)
        real_fill, calls = T.fill_draws, []

        def failing_fill(*args):
            calls.append(None)
            if len(calls) == 20:
                raise OSError("fill failed")
            return real_fill(*args)

        monkeypatch.setattr(T, "fill_draws", failing_fill)
        before = threading.active_count()
        with pytest.raises(OSError, match="fill failed"):
            build_model(TOY_PRESET, Rng(13))
        assert threading.active_count() == before
