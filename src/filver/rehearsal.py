"""Rehearsal strategies and replay buffers.

Six strategies govern what a record carries and how it becomes a training
embedding at replay time:

  none         no buffers at all; training sees only fresh data
  noise        embeddings from a frozen randomly initialized encoder
  naive        raw samples on the wire, embedded once through the frozen encoder
               at admission and replayed verbatim
  ebr          deterministic embeddings stored once, replayed verbatim
  ver_stats    per-example (mu, log sigma); fresh z is drawn at every replay
  ver_sampled  sampled z only; no distribution statistics ever leave a client

The stats/sampled distinction is enforced by payload type: a ver_sampled
record simply has no field in which statistics could travel.

Records are what a client ships.  A buffer keeps them as columns instead:
one float64 array per payload field, named after it (``z``, or ``mu`` and
``log_sigma``), plus int64 label, task and round columns.  So the privacy
rule is also a schema property: a ver_sampled buffer has no stats column.
"""

from __future__ import annotations

import logging
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from . import storage
from .errors import ContractViolation
from .models import GaussianStats
from .numcore import reparam_sample
from .rng import RngStream

log = logging.getLogger(__name__)

STRATEGY_KINDS = ("none", "noise", "naive", "ebr", "ver_stats", "ver_sampled")
MEMORY_MULTIPLIERS = ("x1", "x16")


@dataclass
class RawPayload:
    """An input sample shipped as-is (the privacy-leaky baseline)."""

    x: np.ndarray

    def __post_init__(self):
        # records must own their memory: shards are dropped at task boundaries
        self.x = np.array(self.x, dtype=np.float64)


@dataclass
class EmbeddingPayload:
    """A fixed embedding vector, replayed bit-identically."""

    z: np.ndarray

    def __post_init__(self):
        self.z = np.array(self.z, dtype=np.float64)
        if self.z.ndim != 1:
            raise ContractViolation(f"embedding payload must be a vector, got shape {self.z.shape}")


# Stats payloads reuse GaussianStats with (d,) vectors for mu and log sigma.

# strategy kind -> the payload columns its buffers hold
_BUFFER_COLUMNS = {
    "noise": ("z",),
    "naive": ("z",),
    "ebr": ("z",),
    "ver_stats": ("mu", "log_sigma"),
    "ver_sampled": ("z",),
}


@dataclass
class RehearsalRecord:
    payload: object
    label: int
    task_id: int
    round_id: int

    def __post_init__(self):
        if not isinstance(self.payload, (RawPayload, EmbeddingPayload, GaussianStats)):
            raise ContractViolation(f"unknown payload type {type(self.payload).__name__}")
        self.label = int(self.label)
        self.task_id = int(self.task_id)
        self.round_id = int(self.round_id)


# payload type -> the buffer columns its fields become, and the snapshot tag
_COLUMNS_FOR_PAYLOAD = {
    EmbeddingPayload: ("z",),
    GaussianStats: ("mu", "log_sigma"),
}
_PAYLOAD_FOR_TAG = {
    storage.PAYLOAD_EMBEDDING: EmbeddingPayload,
    storage.PAYLOAD_STATS: GaussianStats,
}
_TAG_FOR_COLUMNS = {_COLUMNS_FOR_PAYLOAD[p]: tag for tag, p in _PAYLOAD_FOR_TAG.items()}


@dataclass
class StrategyConfig:
    kind: str = "none"
    rho: float = 0.10
    memory_multiplier: str = "x1"

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ContractViolation(f"unknown strategy kind {self.kind!r}")
        self.rho = float(self.rho)
        if not (0.0 <= self.rho <= 1.0):
            raise ContractViolation(f"rho must lie in [0, 1], got {self.rho}")
        if self.memory_multiplier not in MEMORY_MULTIPLIERS:
            raise ContractViolation(f"memory multiplier must be one of {MEMORY_MULTIPLIERS}")


def check_columns_match(kind: str, buffer: RehearsalBuffer) -> None:
    want = _BUFFER_COLUMNS.get(kind)
    if want is None:
        raise ContractViolation(f"strategy {kind!r} admits no records")
    if tuple(buffer.columns) != want:
        raise ContractViolation(
            f"strategy {kind!r} expects buffer columns {want}, got {tuple(buffer.columns)}")


def _no_ids() -> np.ndarray:
    return np.zeros(0, dtype=np.int64)


@dataclass
class RehearsalBuffer:
    """Bounded rehearsal store with per-task eviction.

    Row i is one record: ``columns[name][i]`` for each payload field, and
    ``labels[i]``, ``tasks[i]``, ``rounds[i]``.  The first rows admitted fix
    the payload columns; an empty buffer may have none yet."""

    capacity: int | None = None
    columns: dict = field(default_factory=dict)
    labels: np.ndarray = field(default_factory=_no_ids)
    tasks: np.ndarray = field(default_factory=_no_ids)
    rounds: np.ndarray = field(default_factory=_no_ids)

    def __post_init__(self):
        if self.capacity is not None and self.capacity < 0:
            raise ContractViolation("capacity must be nonnegative or None")

    def __len__(self) -> int:
        return len(self.labels)

    def task_counts(self) -> dict:
        tasks, counts = np.unique(self.tasks, return_counts=True)
        return {int(t): int(c) for t, c in zip(tasks, counts)}

    def take(self, idx) -> RehearsalBuffer:
        """The rows at `idx`, in that order, as an unbounded buffer."""
        return RehearsalBuffer(None, {k: v[idx] for k, v in self.columns.items()},
                               self.labels[idx], self.tasks[idx], self.rounds[idx])


def _rows_from_records(records: list) -> RehearsalBuffer:
    """Stack a homogeneous record list into columns."""
    kinds = {type(r.payload) for r in records}
    if len(kinds) != 1:
        raise ContractViolation(
            f"records mix payload types {sorted(k.__name__ for k in kinds)}")
    kind = kinds.pop()
    if kind not in _COLUMNS_FOR_PAYLOAD:
        raise ContractViolation(
            f"a buffer holds no {kind.__name__} records; embed raw samples before admission")
    columns = {}
    for name in _COLUMNS_FOR_PAYLOAD[kind]:
        try:
            columns[name] = np.stack([getattr(r.payload, name) for r in records])
        except ValueError as exc:
            raise ContractViolation(f"records carry {name!r} payloads of differing shapes") from exc
    return RehearsalBuffer(None, columns,
                           np.array([r.label for r in records], dtype=np.int64),
                           np.array([r.task_id for r in records], dtype=np.int64),
                           np.array([r.round_id for r in records], dtype=np.int64))


def _schema(buffer: RehearsalBuffer) -> tuple:
    return tuple((name, col.shape[1:]) for name, col in buffer.columns.items())


def admit(buffer: RehearsalBuffer, candidates: list, rng: RngStream) -> RehearsalBuffer:
    """Append every candidate record, then evict to capacity.

    The rho-fraction was already drawn once, when the client built its
    upload.  Candidates must share one (task_id, round_id) and one payload
    type, the one the buffer already holds.  Eviction removes a random record
    from whichever task currently holds the most, breaking ties toward the
    newest task so early tasks keep their representation.
    """
    if not candidates:
        return buffer
    keys = {(r.task_id, r.round_id) for r in candidates}
    if len(keys) != 1:
        raise ContractViolation(f"admit candidates span multiple (task, round) keys: {sorted(keys)}")
    rows = _rows_from_records(candidates)
    if len(buffer) and _schema(rows) != _schema(buffer):
        raise ContractViolation(
            f"buffer holds payload columns {_schema(buffer)}, candidates carry {_schema(rows)}")

    keep = _survivors(np.concatenate([buffer.tasks, rows.tasks]), buffer.capacity, rng)
    n = len(buffer)
    buffer.columns = {name: _merge_rows(buffer.columns[name] if n else col[:0], col, keep)
                      for name, col in rows.columns.items()}
    buffer.labels = _merge_rows(buffer.labels, rows.labels, keep)
    buffer.tasks = _merge_rows(buffer.tasks, rows.tasks, keep)
    buffer.rounds = _merge_rows(buffer.rounds, rows.rounds, keep)
    return buffer


def _merge_rows(old: np.ndarray, new: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The kept rows of old followed by the kept rows of new.

    A full buffer keeps its size (one row out per row in); its rows then move
    within `old`, so steady-state admission allocates nothing of the
    buffer's size.  Allocating and freeing such arrays at every admit
    fragmented the heap and raised peak RSS."""
    n = len(old)
    kept_old = np.flatnonzero(keep[:n])
    kept_new = np.flatnonzero(keep[n:])
    k_old = len(kept_old)
    if k_old + len(kept_new) == n and old.flags.c_contiguous:
        _compact(old, kept_old)
        old[k_old:] = new[kept_new]
        return old
    out = np.empty((k_old + len(kept_new),) + new.shape[1:], dtype=new.dtype)
    # mode="clip" lets take write into `out` without a buffered copy; the
    # indices are in range by construction
    np.take(old, kept_old, axis=0, out=out[:k_old], mode="clip")
    np.take(new, kept_new, axis=0, out=out[k_old:], mode="clip")
    return out


def _compact(arr: np.ndarray, kept: np.ndarray) -> None:
    """Move rows `kept` (ascending) to the front of C-contiguous `arr`, in
    place.  Each run of consecutive rows moves as one flat slice; numpy
    copies a 1-D slice onto an overlapping one further left front to back,
    with no temporary."""
    if len(kept) == 0:
        return
    flat = arr.reshape(-1)
    width = flat.size // len(arr)
    breaks = np.flatnonzero(np.diff(kept) != 1) + 1
    starts = kept[np.concatenate([[0], breaks])].tolist()
    lengths = np.diff(np.concatenate([[0], breaks, [len(kept)]])).tolist()
    dest = 0
    for start, length in zip(starts, lengths):
        if start != dest:
            flat[dest * width:(dest + length) * width] = flat[start * width:(start + length) * width]
        dest += length


def _survivors(tasks: np.ndarray, capacity: int | None, rng: RngStream):
    """Boolean mask of the rows that stay after evicting down to capacity.

    Each victim costs one draw, made exactly as when records are evicted one
    at a time from a list: pick the task holding the most rows (ties to the
    newest), then its k-th remaining row in buffer order, k uniform."""
    keep = np.ones(len(tasks), dtype=bool)
    if capacity is None or len(tasks) <= capacity:
        return keep
    slots = {int(t): np.flatnonzero(tasks == t).tolist() for t in np.unique(tasks)}
    for _ in range(len(tasks) - capacity):
        # the largest (count, task): most rows first, then the newest task
        _, victim = max((len(s), t) for t, s in slots.items())
        victim_slots = slots[victim]
        keep[victim_slots.pop(int(rng.integers(0, len(victim_slots))))] = False
    return keep


def replay_batch(buffer: RehearsalBuffer, batch_size: int, rng: RngStream) -> RehearsalBuffer:
    """Uniform sample of rows; falls back to with-replacement when asked for
    more than the buffer holds.  An empty buffer yields an empty batch."""
    n = len(buffer)
    if n == 0:
        log.debug("replay requested on empty buffer")
    if n == 0 or batch_size <= 0:
        return buffer.take(_no_ids())
    replace = batch_size > n
    return buffer.take(rng.choice(n, batch_size, replace=replace))


def materialize_batch(batch: RehearsalBuffer, kind: str, *, rng: RngStream = None):
    """Turn a replayed batch into training pairs (Z, y): embeddings verbatim,
    stats by a fresh draw z = mu + sigma * eps on every replay."""
    if len(batch) == 0:
        raise ContractViolation("cannot materialize an empty batch")
    check_columns_match(kind, batch)
    columns = batch.columns
    if "z" in columns:
        return columns["z"], batch.labels
    if rng is None:
        raise ContractViolation("stats payloads need an rng to materialize")
    z, _ = reparam_sample(columns["mu"], columns["log_sigma"], rng)
    return z, batch.labels


def memory_budget(cfg: StrategyConfig, naive_count: int,
                  raw_bytes_per_sample: int, embed_bytes: int) -> int:
    """Buffer capacity in records for a given memory envelope.

    x1 matches the raw-sample count; x16 spends the same number of bytes the
    raw samples would occupy, so capacity scales by the raw/embedding size
    ratio (recomputed from the actual byte sizes, not hard-coded).
    """
    if naive_count <= 0 or raw_bytes_per_sample <= 0 or embed_bytes <= 0:
        raise ContractViolation("memory_budget sizes must be positive")
    if cfg.memory_multiplier == "x1":
        return int(naive_count)
    return int(naive_count * raw_bytes_per_sample // embed_bytes)


# ---------------------------------------------------------------------------
# Snapshot round-trip (checkpoint/resume)
# ---------------------------------------------------------------------------

SNAPSHOT_CHUNK = 512  # record frames packed per write in save_buffer
# The FVBF v1 header has a rho field; admission keeps every record it is
# offered (rho is sampled once, at upload), so the field is always 1.0.
SNAPSHOT_RHO = 1.0
_HEADER = struct.Struct("<4sIqdI")  # magic, version, capacity (-1: none), rho, count


def _frame_dtype(buffer: RehearsalBuffer) -> np.dtype:
    """One FVBF v1 record frame as a packed structured dtype: tag, label,
    task, round, then per payload array its ndim, its dims and its data."""
    fields = [("tag", "u1"), ("label", "<i8"), ("task", "<i8"), ("round", "<i8")]
    for name, col in buffer.columns.items():
        shape = col.shape[1:]
        fields.append((f"{name}.ndim", "<u4"))
        if shape:
            fields.append((f"{name}.shape", "<u4", (len(shape),)))
        fields.append((name, "<f8", shape) if shape else (name, "<f8"))
    return np.dtype(fields)


def save_buffer(path, buffer: RehearsalBuffer) -> None:
    """Header, then one record frame per row, written SNAPSHOT_CHUNK frames
    at a time so the packing copy stays small next to the buffer."""
    n = len(buffer)
    with open(path, "wb") as f:
        f.write(_HEADER.pack(storage.BUFFER_MAGIC, storage.FORMAT_VERSION,
                             -1 if buffer.capacity is None else buffer.capacity,
                             SNAPSHOT_RHO, n))
        if n == 0:
            return
        dtype = _frame_dtype(buffer)
        tag = _TAG_FOR_COLUMNS[tuple(buffer.columns)]
        for start in range(0, n, SNAPSHOT_CHUNK):
            part = slice(start, min(start + SNAPSHOT_CHUNK, n))
            frames = np.empty(part.stop - start, dtype=dtype)
            frames["tag"] = tag
            frames["label"] = buffer.labels[part]
            frames["task"] = buffer.tasks[part]
            frames["round"] = buffer.rounds[part]
            for name, col in buffer.columns.items():
                frames[f"{name}.ndim"] = col.ndim - 1
                if col.ndim > 1:
                    frames[f"{name}.shape"] = col.shape[1:]
                frames[name] = col[part]
            f.write(frames)


def load_buffer(path) -> RehearsalBuffer:
    """Read a snapshot frame by frame into preallocated columns; the first
    frame fixes the payload type and shapes that every other frame must
    repeat."""
    with open(path, "rb") as f:
        header = f.read(_HEADER.size)
        if header[:4] != storage.BUFFER_MAGIC:
            raise ContractViolation(f"not a buffer snapshot: bad magic {header[:4]!r}")
        if len(header) < _HEADER.size:
            raise ContractViolation(f"buffer snapshot {path} truncated: header")
        _, version, capacity, rho, count = _HEADER.unpack(header)
        if version != storage.FORMAT_VERSION:
            raise ContractViolation(f"unsupported snapshot version {version}")
        if capacity < -1:
            raise ContractViolation(
                f"buffer snapshot {path} has capacity {capacity}; expected -1 (unbounded) or >= 0")
        if rho != SNAPSHOT_RHO:
            raise ContractViolation(
                f"buffer snapshot {path} has rho {rho!r} in its header; expected {SNAPSHOT_RHO}")
        if count * storage.MIN_FRAME_BYTES > os.fstat(f.fileno()).st_size - f.tell():
            raise ContractViolation(f"buffer snapshot truncated: too short for {count} records")
        buffer = RehearsalBuffer(capacity=None if capacity < 0 else capacity)
        ids = np.zeros((3, count), dtype=np.int64)
        first_tag = None
        for i in range(count):
            frame = storage.read_record_frame(f)
            if frame is None:
                raise ContractViolation("buffer snapshot truncated: missing records")
            tag, label, task_id, round_id, arrays = frame
            if tag == storage.PAYLOAD_RAW:
                raise ContractViolation(
                    f"buffer snapshot {path} holds raw samples (payload tag {tag}); buffers "
                    f"hold embeddings, naive uploads are embedded at admission")
            if tag not in _PAYLOAD_FOR_TAG:
                raise ContractViolation(f"unknown payload tag {tag}")
            if first_tag is None:
                first_tag = tag
                payload = _PAYLOAD_FOR_TAG[tag](*arrays)  # validates the payload shapes
                buffer.columns = {name: np.empty((count,) + getattr(payload, name).shape)
                                  for name in _COLUMNS_FOR_PAYLOAD[type(payload)]}
            elif tag != first_tag:
                named = ", ".join(f"{t} ({_PAYLOAD_FOR_TAG[t].__name__})"
                                  for t in sorted((first_tag, tag)))
                raise ContractViolation(f"buffer snapshot {path} mixes payload tags {named}")
            for col, arr in zip(buffer.columns.values(), arrays):
                if arr.shape != col.shape[1:]:
                    raise ContractViolation(
                        f"buffer snapshot {path} mixes payload shapes {col.shape[1:]} and {arr.shape}")
                col[i] = arr
            ids[:, i] = label, task_id, round_id
    buffer.labels, buffer.tasks, buffer.rounds = ids
    return buffer
