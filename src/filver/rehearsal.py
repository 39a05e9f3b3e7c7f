"""Rehearsal strategies and replay buffers.

Six strategies govern what a record carries and how it becomes a training
embedding at replay time:

  none         no buffers at all; training sees only fresh data
  noise        embeddings from a frozen randomly initialized encoder
  naive        raw samples, re-embedded through the frozen encoder at replay
  ebr          deterministic embeddings stored once, replayed verbatim
  ver_stats    per-example (mu, log sigma); fresh z is drawn at every replay
  ver_sampled  sampled z only; no distribution statistics ever leave a client

The stats/sampled distinction is enforced by payload type: a ver_sampled
record simply has no field in which statistics could travel.
"""

from __future__ import annotations

import logging
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import storage
from .errors import ContractViolation
from .models import EncoderModel, GaussianStats, encode_for_eval
from .numcore import ParamVector, reparam_sample
from .rng import RngStream

log = logging.getLogger(__name__)

STRATEGY_KINDS = ("none", "noise", "naive", "ebr", "ver_stats", "ver_sampled")
MEMORY_MULTIPLIERS = ("x1", "x16")


@dataclass
class RawPayload:
    """An input sample stored as-is (the privacy-leaky baseline)."""

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

_PAYLOAD_TYPE_FOR_KIND = {
    "noise": EmbeddingPayload,
    "naive": RawPayload,
    "ebr": EmbeddingPayload,
    "ver_stats": GaussianStats,
    "ver_sampled": EmbeddingPayload,
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

    @property
    def payload_tag(self) -> int:
        if isinstance(self.payload, RawPayload):
            return storage.PAYLOAD_RAW
        if isinstance(self.payload, EmbeddingPayload):
            return storage.PAYLOAD_EMBEDDING
        return storage.PAYLOAD_STATS


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


def expected_payload_type(kind: str):
    if kind not in STRATEGY_KINDS:
        raise ContractViolation(f"unknown strategy kind {kind!r}")
    return _PAYLOAD_TYPE_FOR_KIND.get(kind)


def check_record_matches(kind: str, record: RehearsalRecord) -> None:
    expected = expected_payload_type(kind)
    if expected is None:
        raise ContractViolation("strategy 'none' admits no records")
    if not isinstance(record.payload, expected):
        raise ContractViolation(
            f"strategy {kind!r} expects {expected.__name__} payloads, "
            f"got {type(record.payload).__name__}")


@dataclass
class RehearsalBuffer:
    """Bounded record store with fractional admission and per-task eviction."""

    capacity: int | None = None
    rho: float = 0.10
    records: list = field(default_factory=list)

    def __post_init__(self):
        if self.capacity is not None and self.capacity < 0:
            raise ContractViolation("capacity must be nonnegative or None")
        if not (0.0 <= self.rho <= 1.0):
            raise ContractViolation(f"rho must lie in [0, 1], got {self.rho}")

    def __len__(self) -> int:
        return len(self.records)

    def task_counts(self) -> dict:
        counts: dict = {}
        for rec in self.records:
            counts[rec.task_id] = counts.get(rec.task_id, 0) + 1
        return counts


def admit(buffer: RehearsalBuffer, candidates: list, rng: RngStream) -> RehearsalBuffer:
    """Admit ceil(rho * n) uniformly chosen candidates, then evict to capacity.

    Candidates must share one (task_id, round_id).  Eviction removes a random
    record from whichever task currently holds the most, breaking ties toward
    the newest task so early tasks keep their representation.
    """
    if not candidates:
        return buffer
    keys = {(r.task_id, r.round_id) for r in candidates}
    if len(keys) != 1:
        raise ContractViolation(f"admit candidates span multiple (task, round) keys: {sorted(keys)}")
    n_admit = math.ceil(buffer.rho * len(candidates))
    if n_admit == 0:
        return buffer
    if n_admit >= len(candidates):
        chosen = list(candidates)
    else:
        idx = rng.choice(len(candidates), n_admit, replace=False)
        chosen = [candidates[i] for i in idx]
    buffer.records.extend(chosen)
    _evict_to_capacity(buffer, rng)
    return buffer


def _evict_to_capacity(buffer: RehearsalBuffer, rng: RngStream) -> None:
    if buffer.capacity is None:
        return
    while len(buffer.records) > buffer.capacity:
        counts = buffer.task_counts()
        biggest = max(counts.values())
        victim_task = max(t for t, c in counts.items() if c == biggest)
        slots = [i for i, rec in enumerate(buffer.records) if rec.task_id == victim_task]
        pick = slots[int(rng.integers(0, len(slots)))]
        buffer.records.pop(pick)


def replay_batch(buffer: RehearsalBuffer, batch_size: int, rng: RngStream) -> list:
    """Uniform sample of records; falls back to with-replacement when asked
    for more than the buffer holds.  An empty buffer yields an empty batch."""
    n = len(buffer.records)
    if n == 0:
        log.debug("replay requested on empty buffer")
        return []
    if batch_size <= 0:
        return []
    replace = batch_size > n
    idx = rng.choice(n, batch_size, replace=replace)
    return [buffer.records[i] for i in idx]


def materialize(record: RehearsalRecord, kind: str, *,
                encoder: EncoderModel = None, encoder_params: ParamVector = None,
                rng: RngStream = None):
    """Turn one stored record into a training pair (z, y)."""
    check_record_matches(kind, record)
    if isinstance(record.payload, EmbeddingPayload):
        return record.payload.z, record.label
    if isinstance(record.payload, RawPayload):
        if encoder is None or encoder_params is None:
            raise ContractViolation("raw payloads need the frozen encoder to materialize")
        z, _ = encode_for_eval(encoder, encoder_params, record.payload.x[None])
        return z[0], record.label
    # stats payload: resample z = mu + sigma * eps on every replay
    if rng is None:
        raise ContractViolation("stats payloads need an rng to materialize")
    z, _ = reparam_sample(record.payload.mu, record.payload.log_sigma, rng)
    return z, record.label


def materialize_batch(records: list, kind: str, *,
                      encoder: EncoderModel = None, encoder_params: ParamVector = None,
                      rng: RngStream = None):
    """Vectorized materialize over a homogeneous record batch -> (Z, y)."""
    if not records:
        raise ContractViolation("cannot materialize an empty batch")
    for rec in records:
        check_record_matches(kind, rec)
    labels = np.array([rec.label for rec in records], dtype=np.int64)
    first = records[0].payload
    if isinstance(first, EmbeddingPayload):
        return np.stack([rec.payload.z for rec in records]), labels
    if isinstance(first, RawPayload):
        if encoder is None or encoder_params is None:
            raise ContractViolation("raw payloads need the frozen encoder to materialize")
        z, _ = encode_for_eval(encoder, encoder_params,
                               np.stack([rec.payload.x for rec in records]))
        return z, labels
    if rng is None:
        raise ContractViolation("stats payloads need an rng to materialize")
    z, _ = reparam_sample(np.stack([rec.payload.mu for rec in records]),
                          np.stack([rec.payload.log_sigma for rec in records]), rng)
    return z, labels


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


def _frame_arrays(record: RehearsalRecord) -> list:
    p = record.payload
    if isinstance(p, RawPayload):
        return [p.x]
    if isinstance(p, EmbeddingPayload):
        return [p.z]
    return [p.mu, p.log_sigma]


def save_buffer(path, buffer: RehearsalBuffer) -> None:
    with open(path, "wb") as f:
        f.write(storage.BUFFER_MAGIC)
        f.write(struct.pack("<I", storage.FORMAT_VERSION))
        f.write(struct.pack("<q", -1 if buffer.capacity is None else buffer.capacity))
        f.write(struct.pack("<d", buffer.rho))
        f.write(struct.pack("<I", len(buffer.records)))
        for rec in buffer.records:
            storage.write_record_frame(f, rec.payload_tag, rec.label, rec.task_id,
                                       rec.round_id, _frame_arrays(rec))


def load_buffer(path) -> RehearsalBuffer:
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != storage.BUFFER_MAGIC:
            raise ContractViolation(f"not a buffer snapshot: bad magic {magic!r}")
        version = struct.unpack("<I", f.read(4))[0]
        if version != storage.FORMAT_VERSION:
            raise ContractViolation(f"unsupported snapshot version {version}")
        capacity = struct.unpack("<q", f.read(8))[0]
        rho = struct.unpack("<d", f.read(8))[0]
        count = struct.unpack("<I", f.read(4))[0]
        buffer = RehearsalBuffer(capacity=None if capacity < 0 else capacity, rho=rho)
        for _ in range(count):
            frame = storage.read_record_frame(f)
            if frame is None:
                raise ContractViolation("buffer snapshot truncated: missing records")
            tag, label, task_id, round_id, arrays = frame
            if tag == storage.PAYLOAD_RAW:
                payload = RawPayload(arrays[0])
            elif tag == storage.PAYLOAD_EMBEDDING:
                payload = EmbeddingPayload(arrays[0])
            elif tag == storage.PAYLOAD_STATS:
                payload = GaussianStats(arrays[0], arrays[1])
            else:
                raise ContractViolation(f"unknown payload tag {tag}")
            buffer.records.append(RehearsalRecord(payload, label, task_id, round_id))
    return buffer
