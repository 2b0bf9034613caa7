"""Binary tensor records and checkpoints: layout and roundtrips."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import corrupt_bytes
from msvseg.serial import (checkpoint_bytes, load_checkpoint, load_tensor,
                           read_tensor_record, save_checkpoint, save_tensor,
                           tensor_record_bytes)
from msvseg.tensor import Rng


class TestTensorRecord:
    def test_header_layout(self):
        arr = np.arange(6, dtype=np.float32).reshape(2, 3)
        raw = tensor_record_bytes(arr)
        assert raw[:4] == b"MSVT"
        version, dtype_code, rank = struct.unpack_from("<HBB", raw, 4)
        assert (version, dtype_code, rank) == (1, 0, 2)
        assert struct.unpack_from("<2Q", raw, 8) == (2, 3)
        payload = np.frombuffer(raw, dtype="<f4", offset=24)
        assert np.array_equal(payload.reshape(2, 3), arr)

    def test_f64_code(self):
        raw = tensor_record_bytes(np.zeros(2, dtype=np.float64))
        assert raw[6] == 1

    @pytest.mark.parametrize("shape", [(), (5,), (2, 3), (2, 3, 4), (1, 2, 3, 4)])
    def test_roundtrip_shapes(self, shape, tmp_path):
        arr = Rng(0).normal(shape).astype(np.float64) if shape else np.float64(1.5)
        path = tmp_path / "t.msvt"
        save_tensor(path, np.asarray(arr))
        back = load_tensor(path)
        assert back.shape == tuple(shape)
        assert np.array_equal(back, np.asarray(arr))

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            read_tensor_record(b"XXXX" + b"\x00" * 16)

    def test_unsupported_dtype_rejected(self):
        with pytest.raises(ValueError):
            tensor_record_bytes(np.zeros(3, dtype=np.int32))


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
        raw = checkpoint_bytes("x=1", [("w", np.zeros(2, dtype=np.float32))])
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
        assert checkpoint_bytes("k=v", named) == checkpoint_bytes("k=v", named)


_RECORD = tensor_record_bytes(Rng(3).normal((2, 3)).astype(np.float32))
_CHECKPOINT = checkpoint_bytes("model.base_channels=16\n",
                               [("enc.weight", Rng(4).normal((3, 4)).astype(np.float32)),
                                ("enc.bias", np.zeros(4, dtype=np.float64))])


class TestMalformedInput:
    def test_truncated_header_is_value_error(self):
        with pytest.raises(ValueError, match="truncated"):
            read_tensor_record(_RECORD[:6])

    def test_forged_extent_is_rejected_before_allocating(self):
        # rank 2 with extents 2**32 x 2**32: the element count wraps to 0 in a u64 product
        forged = b"MSVT" + struct.pack("<HBB", 1, 0, 2) + struct.pack("<2Q", 2**32, 2**32)
        with pytest.raises(ValueError, match="payload"):
            read_tensor_record(forged + b"\x00" * 16)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "c.msvc"
        path.write_bytes(_CHECKPOINT + b"\x00")
        with pytest.raises(ValueError, match="trailing"):
            load_checkpoint(path)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_corrupted_record_only_raises_value_error(self, data):
        try:
            read_tensor_record(corrupt_bytes(_RECORD, data))
        except ValueError:
            pass

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_corrupted_checkpoint_only_raises_value_error(self, data, tmp_path_factory):
        path = tmp_path_factory.mktemp("ckpt") / "c.msvc"
        path.write_bytes(corrupt_bytes(_CHECKPOINT, data))
        try:
            load_checkpoint(path)
        except ValueError:
            pass
