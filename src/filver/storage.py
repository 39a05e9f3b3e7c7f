"""Binary on-disk formats: model checkpoints and rehearsal buffer snapshots.

Both formats are little-endian and length-prefixed throughout, and round-trip
bit-exactly: float64 payloads are written as raw IEEE-754 bytes.
"""

from __future__ import annotations

import struct
from typing import BinaryIO

import numpy as np

from .errors import ContractViolation
from .numcore import ParamVector

MODEL_MAGIC = b"FVMC"
BUFFER_MAGIC = b"FVBF"
FORMAT_VERSION = 1


def _write_u32(f: BinaryIO, value: int) -> None:
    f.write(struct.pack("<I", value))


def _read_u32(f: BinaryIO) -> int:
    data = f.read(4)
    if len(data) != 4:
        raise ContractViolation("truncated file: expected u32")
    return struct.unpack("<I", data)[0]


def _read_i64(f: BinaryIO) -> int:
    data = f.read(8)
    if len(data) != 8:
        raise ContractViolation("truncated file: expected i64")
    return struct.unpack("<q", data)[0]


def write_string(f: BinaryIO, text: str) -> None:
    raw = text.encode("utf-8")
    _write_u32(f, len(raw))
    f.write(raw)


def read_string(f: BinaryIO) -> str:
    n = _read_u32(f)
    raw = f.read(n)
    if len(raw) != n:
        raise ContractViolation("truncated file: expected string payload")
    return raw.decode("utf-8")


def write_array(f: BinaryIO, arr: np.ndarray) -> None:
    arr = np.asarray(arr, dtype=np.float64)
    _write_u32(f, arr.ndim)
    for dim in arr.shape:
        _write_u32(f, dim)
    f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def read_array(f: BinaryIO) -> np.ndarray:
    ndim = _read_u32(f)
    shape = tuple(_read_u32(f) for _ in range(ndim))
    count = int(np.prod(shape)) if shape else 1
    raw = f.read(8 * count)
    if len(raw) != 8 * count:
        raise ContractViolation("truncated file: expected array payload")
    return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)


# ---------------------------------------------------------------------------
# Model checkpoints
# ---------------------------------------------------------------------------


def save_model_checkpoint(path, params: ParamVector, encoder_kind: str, embed_dim: int, classes: int) -> None:
    """Header (version, encoder kind, d, K), then a (name, array) entry per parameter."""
    with open(path, "wb") as f:
        f.write(MODEL_MAGIC)
        _write_u32(f, FORMAT_VERSION)
        write_string(f, encoder_kind)
        _write_u32(f, embed_dim)
        _write_u32(f, classes)
        _write_u32(f, len(params.layout))
        for name, values in params.items():
            write_string(f, name)
            write_array(f, values)


def load_model_checkpoint(path):
    """Returns (params, header) with header = dict(version, encoder_kind, embed_dim, classes)."""
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != MODEL_MAGIC:
            raise ContractViolation(f"not a model checkpoint: bad magic {magic!r}")
        version = _read_u32(f)
        if version != FORMAT_VERSION:
            raise ContractViolation(f"unsupported checkpoint version {version}")
        header = {
            "version": version,
            "encoder_kind": read_string(f),
            "embed_dim": _read_u32(f),
            "classes": _read_u32(f),
        }
        n_segments = _read_u32(f)
        pairs = []
        for _ in range(n_segments):
            name = read_string(f)
            pairs.append((name, read_array(f)))
    return ParamVector.from_arrays(pairs), header


# ---------------------------------------------------------------------------
# Buffer snapshots: a header (written by rehearsal.save_buffer), then one
# frame per record: u8 payload tag, i64 label, task and round, then the
# payload arrays in write_array's encoding (one, or two for stats)
# ---------------------------------------------------------------------------

PAYLOAD_RAW = 0
PAYLOAD_EMBEDDING = 1
PAYLOAD_STATS = 2
MIN_FRAME_BYTES = 1 + 3 * 8 + 4 + 8  # tag, ids, and one 0-d array


def read_record_frame(f: BinaryIO):
    """Returns (tag, label, task_id, round_id, arrays) or None at end of stream."""
    head = f.read(1)
    if not head:
        return None
    tag = struct.unpack("<B", head)[0]
    label = _read_i64(f)
    task_id = _read_i64(f)
    round_id = _read_i64(f)
    n_arrays = 2 if tag == PAYLOAD_STATS else 1
    arrays = [read_array(f) for _ in range(n_arrays)]
    return tag, label, task_id, round_id, arrays
