"""Binary tensor records and model checkpoints.

Tensor record ("MSVT"): magic, u16 version=1, u8 dtype code (0=f32, 1=f64),
u8 rank, rank x u64 extents, then the little-endian payload.

Checkpoint ("MSVC"): magic, u16 version=1, u32 config-blob length, the
structured-text config blob (utf-8 key=value lines), u32 tensor count, then
named tensor records (u16 name length, utf-8 name, tensor record).  No two
records share a name.

Records are streamed, one record in flight: the writer hands each array's
own buffer to the file (copying only an array that is not contiguous or not
little-endian), and the reader reads each payload straight into the array it
returns.  No copy of the whole file is built on either side.

Readers check every field against the bytes left in the file before reading
it, so a truncated or forged file raises ValueError and never drives an
allocation larger than the file.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

TENSOR_MAGIC = b"MSVT"
CHECKPOINT_MAGIC = b"MSVC"
VERSION = 1

_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


def _record_array(array) -> np.ndarray:
    """``array`` as an ndarray; ValueError unless it is f32 or f64."""
    arr = np.asarray(array)
    if arr.dtype not in _DTYPE_CODES:
        raise ValueError(f"unsupported dtype {arr.dtype}; only f32/f64 records exist")
    return arr


def _write_record(f, arr: np.ndarray):
    """Write one tensor record of an array checked by ``_record_array``."""
    f.write(TENSOR_MAGIC + struct.pack(f"<HBB{arr.ndim}Q", VERSION, _DTYPE_CODES[arr.dtype],
                                       arr.ndim, *arr.shape))
    f.write(memoryview(np.asarray(arr, dtype=arr.dtype.newbyteorder("<"), order="C")))


def _need(f, end: int, size: int, what: str) -> int:
    """Raise ValueError unless ``size`` bytes remain before ``end``; returns the
    file position."""
    pos = f.tell()
    if size > end - pos:
        raise ValueError(f"truncated {what}: needs {size} bytes at offset {pos}, "
                         f"{max(end - pos, 0)} remain")
    return pos


def _read(f, end: int, size: int, what: str) -> bytes:
    pos = _need(f, end, size, what)
    data = f.read(size)
    if len(data) != size:
        raise ValueError(f"truncated {what} at offset {pos}: the file ended early")
    return data


def _unpack(fmt: str, f, end: int, what: str) -> tuple:
    return struct.unpack(fmt, _read(f, end, struct.calcsize(fmt), what))


def _read_record(f, end: int) -> np.ndarray:
    """Read one tensor record at the file position."""
    if f.read(4) != TENSOR_MAGIC:
        raise ValueError("bad tensor record magic")
    version, code, rank = _unpack("<HBB", f, end, "tensor record header")
    if version != VERSION:
        raise ValueError(f"unsupported tensor record version {version}")
    if code not in _CODE_DTYPES:
        raise ValueError(f"unknown dtype code {code}")
    shape = _unpack(f"<{rank}Q", f, end, "tensor record extents")
    dtype = _CODE_DTYPES[code]
    count = math.prod(shape)  # Python ints: a forged extent cannot wrap around
    pos = _need(f, end, count * dtype.itemsize, "tensor record payload")
    payload = np.empty(count, dtype)
    if f.readinto(payload) != payload.nbytes:
        raise ValueError(f"truncated tensor record payload at offset {pos}: the file ended early")
    return payload.reshape(shape).astype(dtype.newbyteorder("="), copy=False)


def _check_end(f, end: int, after: str):
    if f.tell() != end:
        raise ValueError(f"{end - f.tell()} trailing bytes after {after}")


def save_tensor(path, array: np.ndarray):
    arr = _record_array(array)
    with open(path, "wb") as f:
        _write_record(f, arr)


def load_tensor(path) -> np.ndarray:
    with open(path, "rb") as f:
        end = os.fstat(f.fileno()).st_size
        arr = _read_record(f, end)
        _check_end(f, end, "the tensor record")
    return arr


def _check_new_name(name: str, named: dict):
    if name in named:
        raise ValueError(f"checkpoint tensor {name!r} appears twice")


def save_checkpoint(path, config_text: str, named_arrays):
    blob = config_text.encode("utf-8")
    # every name and dtype is checked before the file is opened, so a failed
    # save leaves no file, or the old one untouched
    records = {}
    for name, array in named_arrays:
        _check_new_name(name, records)
        encoded = name.encode("utf-8")
        records[name] = (struct.pack("<H", len(encoded)) + encoded, _record_array(array))
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC + struct.pack("<HI", VERSION, len(blob)) + blob
                + struct.pack("<I", len(records)))
        for name_field, arr in records.values():
            f.write(name_field)
            _write_record(f, arr)


def load_checkpoint(path) -> tuple[str, dict[str, np.ndarray]]:
    with open(path, "rb") as f:
        end = os.fstat(f.fileno()).st_size
        if f.read(4) != CHECKPOINT_MAGIC:
            raise ValueError("bad checkpoint magic")
        version, blob_len = _unpack("<HI", f, end, "checkpoint header")
        if version != VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        # UnicodeDecodeError is a ValueError
        config_text = _read(f, end, blob_len, "checkpoint config blob").decode("utf-8")
        (count,) = _unpack("<I", f, end, "checkpoint tensor count")
        tensors = {}
        for _ in range(count):
            (name_len,) = _unpack("<H", f, end, "tensor name length")
            name = _read(f, end, name_len, "tensor name").decode("utf-8")
            _check_new_name(name, tensors)
            tensors[name] = _read_record(f, end)
        _check_end(f, end, "the last checkpoint tensor")
    return config_text, tensors
