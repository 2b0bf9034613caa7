"""Binary tensor records and checkpoints: layout, roundtrips and streamed memory."""

import hashlib
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import corrupt_bytes
from msvseg.serial import load_checkpoint, load_tensor, save_checkpoint, save_tensor
from msvseg.tensor import Rng


def _written(save, *args) -> bytes:
    """The bytes that ``save(path, *args)`` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f"
        save(path, *args)
        return path.read_bytes()


def _loaded(load, raw: bytes, path: Path):
    path.write_bytes(raw)
    return load(path)


class TestTensorRecord:
    def test_header_layout(self):
        arr = np.arange(6, dtype=np.float32).reshape(2, 3)
        raw = _written(save_tensor, arr)
        assert raw[:4] == b"MSVT"
        version, dtype_code, rank = struct.unpack_from("<HBB", raw, 4)
        assert (version, dtype_code, rank) == (1, 0, 2)
        assert struct.unpack_from("<2Q", raw, 8) == (2, 3)
        payload = np.frombuffer(raw, dtype="<f4", offset=24)
        assert np.array_equal(payload.reshape(2, 3), arr)

    def test_f64_code(self):
        raw = _written(save_tensor, np.zeros(2, dtype=np.float64))
        assert raw[6] == 1

    @pytest.mark.parametrize("shape", [(), (5,), (2, 3), (2, 3, 4), (1, 2, 3, 4)])
    def test_roundtrip_shapes(self, shape, tmp_path):
        arr = Rng(0).normal(shape).astype(np.float64) if shape else np.float64(1.5)
        path = tmp_path / "t.msvt"
        save_tensor(path, np.asarray(arr))
        back = load_tensor(path)
        assert back.shape == tuple(shape)
        assert np.array_equal(back, np.asarray(arr))

    def test_bad_magic_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            _loaded(load_tensor, b"XXXX" + b"\x00" * 16, tmp_path / "t.msvt")

    def test_unsupported_dtype_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_tensor(tmp_path / "t.msvt", np.zeros(3, dtype=np.int32))
        assert not (tmp_path / "t.msvt").exists()


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        named = [("a.weight", Rng(1).normal((3, 4)).astype(np.float32)),
                 ("b.bias", Rng(2).normal((7,)).astype(np.float32))]
        path = tmp_path / "c.msvc"
        save_checkpoint(path, "model.base_channels=16\n", named)
        text, tensors = load_checkpoint(path)
        assert text == "model.base_channels=16\n"
        assert set(tensors) == {"a.weight", "b.bias"}
        for name, arr in named:
            assert np.array_equal(tensors[name], arr)

    def test_header_layout(self):
        raw = _written(save_checkpoint, "x=1", [("w", np.zeros(2, dtype=np.float32))])
        assert raw[:4] == b"MSVC"
        (version,) = struct.unpack_from("<H", raw, 4)
        (blob_len,) = struct.unpack_from("<I", raw, 6)
        assert version == 1 and blob_len == 3
        (count,) = struct.unpack_from("<I", raw, 10 + blob_len)
        assert count == 1

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.msvc"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_byte_stable(self):
        named = [("w", np.ones((2, 2), dtype=np.float32))]
        assert _written(save_checkpoint, "k=v", named) == _written(save_checkpoint, "k=v", named)

    def test_failed_save_creates_no_file(self, tmp_path):
        named = [("w", np.ones(4, np.float32)), ("ids", np.zeros(3, np.int32))]
        with pytest.raises(ValueError, match="int32"):
            save_checkpoint(tmp_path / "c.msvc", "k=v", named)
        assert not (tmp_path / "c.msvc").exists()

    def test_failed_save_leaves_existing_file_untouched(self, tmp_path):
        path = tmp_path / "c.msvc"
        save_checkpoint(path, "k=v", [("w", np.ones(4, np.float32))])
        before = path.read_bytes()
        named = [("w", np.zeros(4, np.float32)), ("ids", np.zeros(3, np.int32))]
        with pytest.raises(ValueError, match="int32"):
            save_checkpoint(path, "k=v", named)
        assert path.read_bytes() == before

    def test_repeated_name_is_refused_before_the_file_opens(self, tmp_path):
        path = tmp_path / "c.msvc"
        named = [("a", np.zeros(2, np.float32)), ("a", np.ones(3, np.float32))]
        with pytest.raises(ValueError, match="checkpoint tensor 'a' appears twice"):
            save_checkpoint(path, "k=v", named)
        assert not path.exists()

    def test_repeated_name_is_rejected_on_load(self, tmp_path):
        # the second record's name byte-edited to equal the first
        path = tmp_path / "c.msvc"
        save_checkpoint(path, "k=v", [("a", np.zeros(2, np.float32)), ("b", np.ones(3, np.float32))])
        raw = path.read_bytes()
        name_field = struct.pack("<H", 1) + b"b"
        assert raw.count(name_field) == 1
        path.write_bytes(raw.replace(name_field, struct.pack("<H", 1) + b"a"))
        with pytest.raises(ValueError, match="checkpoint tensor 'a' appears twice"):
            load_checkpoint(path)


# covers both dtypes, rank 0, an empty extent and a non-contiguous view
_PINNED_MATRIX = (np.arange(12, dtype=np.float32).reshape(3, 4) - 5.5) / 3
_PINNED = [("enc.weight", _PINNED_MATRIX),
           ("enc.bias", np.linspace(-1.0, 1.0, 5)),
           ("scale", np.array(2.5)),
           ("empty", np.zeros((0, 3), np.float32)),
           ("enc.weight_t", _PINNED_MATRIX.T)]
# recorded from the in-memory encoder that preceded the streamed writer
_PINNED_SHA256 = "788e7b447db862caffbe5ccde4a744183cdae44a01c128de0eb794900ec19921"


class TestPinnedFormat:
    def test_checkpoint_bytes_are_pinned(self):
        assert not _PINNED[-1][1].flags.c_contiguous
        raw = _written(save_checkpoint, "model.base_channels=16\n", _PINNED)
        assert len(raw) == 327
        assert hashlib.sha256(raw).hexdigest() == _PINNED_SHA256

    def test_roundtrip_keeps_values_dtype_and_shape(self, tmp_path):
        path = tmp_path / "c.msvc"
        save_checkpoint(path, "model.base_channels=16\n", _PINNED)
        text, tensors = load_checkpoint(path)
        assert text == "model.base_channels=16\n"
        assert list(tensors) == [name for name, _ in _PINNED]
        for name, arr in _PINNED:
            back = tensors[name]
            assert back.dtype == arr.dtype and back.shape == arr.shape
            assert np.array_equal(back, arr)


def _traced_peak(fn) -> float:
    """Peak traced heap, in bytes above the start, while ``fn`` runs."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


class TestStreamedMemory:
    MB = 2**20
    # 8 MB of f32 parameters, written from their own memory
    NAMED = [(f"w{i}", np.full((512, 512), i, np.float32)) for i in range(8)]
    PAYLOAD = sum(a.nbytes for _, a in NAMED)

    def test_save_holds_no_copy_of_the_payload(self, tmp_path):
        assert self.PAYLOAD == 8 * self.MB
        peak = _traced_peak(lambda: save_checkpoint(tmp_path / "c.msvc", "k=v", self.NAMED))
        assert peak < self.MB

    def test_load_holds_the_payload_once(self, tmp_path):
        path = tmp_path / "c.msvc"
        save_checkpoint(path, "k=v", self.NAMED)
        peak = _traced_peak(lambda: load_checkpoint(path))
        assert peak < self.PAYLOAD + self.MB


_RECORD = _written(save_tensor, Rng(3).normal((2, 3)).astype(np.float32))
_CHECKPOINT = _written(save_checkpoint, "model.base_channels=16\n",
                       [("enc.weight", Rng(4).normal((3, 4)).astype(np.float32)),
                        ("enc.bias", np.zeros(4, dtype=np.float64))])
# rank 2 with extents 2**32 x 2**32: the element count wraps to 0 in a u64 product
_FORGED_RECORD = b"MSVT" + struct.pack("<HBB2Q", 1, 0, 2, 2**32, 2**32) + b"\x00" * 16


class TestMalformedInput:
    def test_truncated_header_is_value_error(self, tmp_path):
        with pytest.raises(ValueError, match="truncated"):
            _loaded(load_tensor, _RECORD[:6], tmp_path / "t.msvt")

    def test_forged_extent_is_rejected_before_allocating(self, tmp_path):
        with pytest.raises(ValueError, match="payload"):
            _loaded(load_tensor, _FORGED_RECORD, tmp_path / "t.msvt")

    def test_forged_checkpoint_extent_is_rejected_before_allocating(self, tmp_path):
        forged = (b"MSVC" + struct.pack("<HI", 1, 0) + struct.pack("<I", 1)
                  + struct.pack("<H", 1) + b"w" + _FORGED_RECORD)
        with pytest.raises(ValueError, match="payload"):
            _loaded(load_checkpoint, forged, tmp_path / "c.msvc")

    def test_checkpoint_cut_inside_a_payload_is_truncated(self, tmp_path):
        # the last record is enc.bias: four f64 values
        with pytest.raises(ValueError, match="truncated tensor record payload"):
            _loaded(load_checkpoint, _CHECKPOINT[:-12], tmp_path / "c.msvc")

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "c.msvc"
        path.write_bytes(_CHECKPOINT + b"\x00")
        with pytest.raises(ValueError, match="trailing"):
            load_checkpoint(path)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_corrupted_record_only_raises_value_error(self, data, tmp_path_factory):
        path = tmp_path_factory.mktemp("record") / "t.msvt"
        try:
            _loaded(load_tensor, corrupt_bytes(_RECORD, data), path)
        except ValueError:
            pass

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_corrupted_checkpoint_only_raises_value_error(self, data, tmp_path_factory):
        path = tmp_path_factory.mktemp("ckpt") / "c.msvc"
        try:
            _loaded(load_checkpoint, corrupt_bytes(_CHECKPOINT, data), path)
        except ValueError:
            pass
