"""Binary tensor records and model checkpoints.

Tensor record ("MSVT"): magic, u16 version=1, u8 dtype code (0=f32, 1=f64),
u8 rank, rank x u64 extents, then the little-endian payload.

Checkpoint ("MSVC"): magic, u16 version=1, u32 config-blob length, the
structured-text config blob (utf-8 key=value lines), u32 tensor count, then
named tensor records (u16 name length, utf-8 name, tensor record).

Readers check every field against the bytes that remain before reading it,
so a truncated or forged file raises ValueError and never drives a large
allocation.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

TENSOR_MAGIC = b"MSVT"
CHECKPOINT_MAGIC = b"MSVC"
VERSION = 1

_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


def tensor_record_bytes(array: np.ndarray) -> bytes:
    arr = np.asarray(array)
    if arr.ndim:
        arr = np.ascontiguousarray(arr)  # ascontiguousarray would promote rank 0 to rank 1
    if arr.dtype not in _DTYPE_CODES:
        raise ValueError(f"unsupported dtype {arr.dtype}; only f32/f64 records exist")
    head = TENSOR_MAGIC + struct.pack("<HBB", VERSION, _DTYPE_CODES[arr.dtype], arr.ndim)
    head += struct.pack(f"<{arr.ndim}Q", *arr.shape) if arr.ndim else b""
    return head + arr.astype(arr.dtype.newbyteorder("<")).tobytes()


def _need(buf: bytes, pos: int, size: int, what: str):
    """Raise ValueError unless ``size`` bytes remain in ``buf`` at ``pos``."""
    if size > len(buf) - pos:
        raise ValueError(f"truncated {what}: needs {size} bytes at offset {pos}, "
                         f"{max(len(buf) - pos, 0)} remain")


def _unpack(fmt: str, buf: bytes, pos: int, what: str) -> tuple[tuple, int]:
    """Bounds-checked struct.unpack_from; returns (fields, next offset)."""
    size = struct.calcsize(fmt)
    _need(buf, pos, size, what)
    return struct.unpack_from(fmt, buf, pos), pos + size


def read_tensor_record(buf: bytes, offset: int = 0) -> tuple[np.ndarray, int]:
    """Decode one record from ``buf`` at ``offset``; returns (array, next offset)."""
    if buf[offset:offset + 4] != TENSOR_MAGIC:
        raise ValueError("bad tensor record magic")
    (version, code, rank), pos = _unpack("<HBB", buf, offset + 4, "tensor record header")
    if version != VERSION:
        raise ValueError(f"unsupported tensor record version {version}")
    if code not in _CODE_DTYPES:
        raise ValueError(f"unknown dtype code {code}")
    shape, pos = _unpack(f"<{rank}Q", buf, pos, "tensor record extents")
    dtype = _CODE_DTYPES[code]
    count = math.prod(shape)  # Python ints: a forged extent cannot wrap around
    _need(buf, pos, count * dtype.itemsize, "tensor record payload")
    payload = np.frombuffer(buf, dtype=dtype, count=count, offset=pos)
    pos += count * dtype.itemsize
    return payload.reshape(shape).astype(dtype.newbyteorder("=")), pos


def save_tensor(path, array: np.ndarray):
    Path(path).write_bytes(tensor_record_bytes(array))


def load_tensor(path) -> np.ndarray:
    buf = Path(path).read_bytes()
    arr, end = read_tensor_record(buf)
    if end != len(buf):
        raise ValueError(f"{len(buf) - end} trailing bytes after the tensor record")
    return arr


def checkpoint_bytes(config_text: str, named_arrays) -> bytes:
    blob = config_text.encode("utf-8")
    parts = [CHECKPOINT_MAGIC, struct.pack("<H", VERSION),
             struct.pack("<I", len(blob)), blob]
    named_arrays = list(named_arrays)
    parts.append(struct.pack("<I", len(named_arrays)))
    for name, arr in named_arrays:
        encoded = name.encode("utf-8")
        parts.append(struct.pack("<H", len(encoded)))
        parts.append(encoded)
        parts.append(tensor_record_bytes(arr))
    return b"".join(parts)


def save_checkpoint(path, config_text: str, named_arrays):
    Path(path).write_bytes(checkpoint_bytes(config_text, named_arrays))


def load_checkpoint(path) -> tuple[str, dict[str, np.ndarray]]:
    buf = Path(path).read_bytes()
    if buf[:4] != CHECKPOINT_MAGIC:
        raise ValueError("bad checkpoint magic")
    (version, blob_len), pos = _unpack("<HI", buf, 4, "checkpoint header")
    if version != VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    _need(buf, pos, blob_len, "checkpoint config blob")
    config_text = buf[pos:pos + blob_len].decode("utf-8")  # UnicodeDecodeError is a ValueError
    pos += blob_len
    (count,), pos = _unpack("<I", buf, pos, "checkpoint tensor count")
    tensors = {}
    for _ in range(count):
        (name_len,), pos = _unpack("<H", buf, pos, "tensor name length")
        _need(buf, pos, name_len, "tensor name")
        name = buf[pos:pos + name_len].decode("utf-8")
        pos += name_len
        arr, pos = read_tensor_record(buf, pos)
        tensors[name] = arr
    if pos != len(buf):
        raise ValueError(f"{len(buf) - pos} trailing bytes after the last checkpoint tensor")
    return config_text, tensors
