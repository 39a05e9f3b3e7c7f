"""Binary on-disk formats: model checkpoints and rehearsal buffer snapshots.

Both formats are little-endian and length-prefixed throughout, and round-trip
bit-exactly: float64 payloads are written as raw IEEE-754 bytes.  A file that
ends early, or runs on past its last segment or frame, is refused.  FVBF v1,
the snapshot format, is defined here alone: one structured dtype per frame
(`_frame_dtype`) writes a buffer's columns and reads them back in one pass.
"""

from __future__ import annotations

import mmap
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


def _read_exact(f: BinaryIO, n: int, what: str) -> bytes:
    """n bytes from f, or a refusal naming the file that ended early."""
    data = f.read(n)
    if len(data) != n:
        raise ContractViolation(f"truncated file {f.name}: expected {what}")
    return data


def _read_u32(f: BinaryIO) -> int:
    return struct.unpack("<I", _read_exact(f, 4, "u32"))[0]


def write_string(f: BinaryIO, text: str) -> None:
    raw = text.encode("utf-8")
    _write_u32(f, len(raw))
    f.write(raw)


def read_string(f: BinaryIO) -> str:
    raw = _read_exact(f, _read_u32(f), "string payload")
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        raise ContractViolation(f"file {f.name} holds a string that is not UTF-8") from None


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
    raw = _read_exact(f, 8 * count, "array payload")
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
            raise ContractViolation(f"{path} is not a model checkpoint: bad magic {magic!r}")
        version = _read_u32(f)
        if version != FORMAT_VERSION:
            raise ContractViolation(f"model checkpoint {path} has unsupported version {version}")
        header = {
            "version": version,
            "encoder_kind": read_string(f),
            "embed_dim": _read_u32(f),
            "classes": _read_u32(f),
        }
        n_segments = _read_u32(f)
        if n_segments == 0:
            raise ContractViolation(f"model checkpoint {path} has no parameter segments")
        pairs = []
        for _ in range(n_segments):
            name = read_string(f)
            pairs.append((name, read_array(f)))
        if f.read(1):
            raise ContractViolation(f"model checkpoint {path} has bytes after its last segment")
    return ParamVector.from_arrays(pairs), header


# ---------------------------------------------------------------------------
# Buffer snapshots (FVBF v1): a header, then one frame per row: u8 payload
# tag, i64 label, task and round, then the row's payload arrays in
# write_array's encoding (one, or two for stats)
# ---------------------------------------------------------------------------

PAYLOAD_RAW = 0
PAYLOAD_EMBEDDING = 1
PAYLOAD_STATS = 2
# tag -> (the payload type its frames carried on the wire, its array columns);
# buffers hold no raw samples, so a raw frame is only ever refused
PAYLOAD_TAGS = {
    PAYLOAD_RAW: ("RawPayload", ("x",)),
    PAYLOAD_EMBEDDING: ("EmbeddingPayload", ("z",)),
    PAYLOAD_STATS: ("GaussianStats", ("mu", "log_sigma")),
}
SNAPSHOT_HEADER = struct.Struct("<4sIqdI")  # magic, version, capacity (-1: none), rho, count
# admission keeps every row it is offered (rho is sampled once, at upload), so
# the header's rho field is always 1.0
SNAPSHOT_RHO = 1.0
SNAPSHOT_CHUNK = 512  # frames packed per write


def _frame_dtype(shapes: dict) -> np.dtype:
    """One frame as a packed structured dtype: tag, label, task, round, then
    per payload column (name -> per-row shape) its ndim, dims and data."""
    fields = [("tag", "u1"), ("label", "<i8"), ("task", "<i8"), ("round", "<i8")]
    for name, shape in shapes.items():
        fields += [(f"{name}.ndim", "<u4"), (f"{name}.shape", "<u4", (len(shape),)),
                   (name, "<f8", shape)]
    return np.dtype(fields)


def read_record_frame(f: BinaryIO):
    """Returns (tag, label, task_id, round_id, arrays) of the frame at f."""
    ids = _frame_dtype({})  # the tag and ids that open every frame
    head = _read_exact(f, ids.itemsize, "a frame's tag and ids")
    tag, label, task_id, round_id = np.frombuffer(head, ids)[0].item()
    n_arrays = 2 if tag == PAYLOAD_STATS else 1
    return tag, label, task_id, round_id, [read_array(f) for _ in range(n_arrays)]


def write_snapshot(path, capacity, columns: dict, labels, tasks, rounds) -> None:
    """Header, then one frame per row, packed SNAPSHOT_CHUNK frames at a time
    so the packing copy stays small next to the rows."""
    n = len(labels)
    with open(path, "wb") as f:
        f.write(SNAPSHOT_HEADER.pack(BUFFER_MAGIC, FORMAT_VERSION,
                                     -1 if capacity is None else capacity, SNAPSHOT_RHO, n))
        if n == 0:
            return
        dtype = _frame_dtype({name: col.shape[1:] for name, col in columns.items()})
        tag = next(t for t, (_, names) in PAYLOAD_TAGS.items() if names == tuple(columns))
        for start in range(0, n, SNAPSHOT_CHUNK):
            part = slice(start, min(start + SNAPSHOT_CHUNK, n))
            frames = np.empty(part.stop - start, dtype=dtype)
            frames["tag"] = tag
            for key, col in zip(("label", "task", "round"), (labels, tasks, rounds)):
                frames[key] = col[part]
            for name, col in columns.items():
                frames[f"{name}.ndim"] = col.ndim - 1
                frames[f"{name}.shape"] = col.shape[1:]
                frames[name] = col[part]
            f.write(frames)


def _check_tag(path, tag: int, first: int) -> None:
    if tag == PAYLOAD_RAW:
        raise ContractViolation(
            f"buffer snapshot {path} holds raw samples (payload tag {tag}); buffers "
            f"hold embeddings, naive uploads are embedded at admission")
    if tag not in PAYLOAD_TAGS:
        raise ContractViolation(f"buffer snapshot {path} has unknown payload tag {tag}")
    if tag != first:
        named = ", ".join(f"{t} ({PAYLOAD_TAGS[t][0]})" for t in sorted((first, tag)))
        raise ContractViolation(f"buffer snapshot {path} mixes payload tags {named}")


def read_snapshot(path):
    """Returns (capacity, columns, labels, tasks, rounds), read in one pass.

    The first frame fixes the payload tag and shapes, hence the size of
    every frame; the frame region must then hold exactly the header's count
    of frames, each repeating the first one's tag and dims.  Columns come
    back float64 and the ids int64, all C-contiguous and writeable."""
    with open(path, "rb") as f:
        header = f.read(SNAPSHOT_HEADER.size)
        if header[:4] != BUFFER_MAGIC:
            raise ContractViolation(f"{path} is not a buffer snapshot: bad magic {header[:4]!r}")
        if len(header) < SNAPSHOT_HEADER.size:
            raise ContractViolation(f"buffer snapshot {path} truncated: header")
        _, version, capacity, rho, count = SNAPSHOT_HEADER.unpack(header)
        if version != FORMAT_VERSION:
            raise ContractViolation(f"buffer snapshot {path} has unsupported version {version}")
        if capacity < -1:
            raise ContractViolation(
                f"buffer snapshot {path} has capacity {capacity}; expected -1 (unbounded) or >= 0")
        if rho != SNAPSHOT_RHO:
            raise ContractViolation(
                f"buffer snapshot {path} has rho {rho!r} in its header; expected {SNAPSHOT_RHO}")
        shapes, tag = {}, None
        if count:
            tag, *_, arrays = read_record_frame(f)
            _check_tag(path, tag, tag)
            if len({a.shape for a in arrays}) != 1 or arrays[0].ndim != 1:
                raise ContractViolation(f"buffer snapshot {path} holds payload shapes "
                                        f"{[a.shape for a in arrays]}, not vectors of one length")
            shapes = {name: a.shape for name, a in zip(PAYLOAD_TAGS[tag][1], arrays)}
        # mapped, not read: a freed multi-MB read buffer raises glibc's mmap threshold
        data = memoryview(mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ))[SNAPSHOT_HEADER.size:]
    dtype = _frame_dtype(shapes)
    size = dtype.itemsize
    # each frame starts with its tag, so a frame of another payload type shows
    # at a step of one frame size, whatever its own size
    for other in sorted(set(data[:count * size:size]) - {tag}):
        _check_tag(path, other, tag)
    if len(data) != count * size:
        raise ContractViolation(
            f"buffer snapshot {path} has {len(data)} bytes after its header; "
            f"{count} records of {size} bytes take {count * size}")
    frames = np.frombuffer(data, dtype)
    for name, shape in shapes.items():
        if np.any(frames[f"{name}.ndim"] != len(shape)) or np.any(frames[f"{name}.shape"] != shape):
            raise ContractViolation(f"buffer snapshot {path} mixes payload shapes for {name!r}")
    columns = {name: np.array(frames[name], dtype=np.float64) for name in shapes}
    ids = np.array([frames[key] for key in ("label", "task", "round")], dtype=np.int64)
    return (None if capacity < 0 else capacity), columns, *ids
