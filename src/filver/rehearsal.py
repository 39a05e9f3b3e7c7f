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

Records exist only on the wire.  `run_round` stacks each upload into rows
once (`rows_from_records`): a float64 column per payload field (``x``, ``z``,
or ``mu`` and ``log_sigma``), plus int64 label, task and round columns; a
naive upload's ``x`` is embedded into ``z`` in the same step.  `admit` takes
those rows, so the privacy rule is also a schema property: a ver_sampled
buffer has no stats column.  `_STRATEGIES` alone names a strategy's encoder
and buffer columns, and `buffer_capacity` prices a row from those columns.
`storage` alone defines snapshots; `save_buffer` and `load_buffer` convert.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation
from .models import GaussianStats
from .numcore import reparam_sample
from .rng import RngStream
from .storage import PAYLOAD_TAGS, read_snapshot, write_snapshot

log = logging.getLogger(__name__)

# strategy kind -> (the encoder it pretrains and freezes, its buffers' payload
# columns).  noise trains nothing; variational strategies need stats heads;
# the rest share a deterministic one.  naive buffers hold the uploads' z.
_STRATEGIES = {
    "none": ("ebr", ()),
    "noise": ("random_projection", ("z",)),
    "naive": ("ebr", ("z",)),
    "ebr": ("ebr", ("z",)),
    "ver_stats": ("vee", ("mu", "log_sigma")),
    "ver_sampled": ("vee", ("z",)),
}
STRATEGY_KINDS = tuple(_STRATEGIES)
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


def encoder_kind_for_strategy(kind: str) -> str:
    return _STRATEGIES[kind][0]


def buffer_columns(kind: str) -> tuple:
    """The payload columns of strategy `kind`'s buffers; () for none."""
    return _STRATEGIES[kind][1]


def _no_ids() -> np.ndarray:
    return np.zeros(0, dtype=np.int64)


@dataclass
class RehearsalBuffer:
    """Bounded rehearsal store with per-task eviction.

    Row i is one uploaded sample: ``columns[name][i]`` for each payload field, and
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


def rows_from_records(records: list) -> RehearsalBuffer:
    """A homogeneous record list stacked into rows, a column per payload field."""
    if not records:
        return RehearsalBuffer()
    kinds = {type(r.payload) for r in records}
    if len(kinds) != 1:
        raise ContractViolation(
            f"records mix payload types {sorted(k.__name__ for k in kinds)}")
    columns = {}
    payload_columns = dict(PAYLOAD_TAGS.values())  # payload type name -> its fields
    for name in payload_columns[kinds.pop().__name__]:
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


def admit(buffer: RehearsalBuffer, rows: RehearsalBuffer, rng: RngStream) -> RehearsalBuffer:
    """Append every row of one upload, then evict to capacity.

    run_round stacks an upload once and hands the same rows to the client's
    buffer and to the server's; admit never changes them.  The rho-fraction
    was drawn once, at upload.  The rows must share one (task, round) and the
    buffer's payload columns, and have no raw ``x`` column.  Eviction removes
    a random row from whichever task holds the most, breaking ties toward the
    newest task so early tasks keep their representation.
    """
    if not len(rows):
        return buffer
    if rows.tasks.min() != rows.tasks.max() or rows.rounds.min() != rows.rounds.max():
        keys = sorted(set(zip(rows.tasks.tolist(), rows.rounds.tolist())))
        raise ContractViolation(f"admit rows span multiple (task, round) keys: {keys}")
    if "x" in rows.columns:
        raise ContractViolation("a buffer holds no raw samples (column 'x'); embed them first")
    if len(buffer) and _schema(rows) != _schema(buffer):
        raise ContractViolation(
            f"buffer holds payload columns {_schema(buffer)}, rows carry {_schema(rows)}")

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


def materialize_batch(batch: RehearsalBuffer, *, rng: RngStream):
    """Turn a replayed batch into training pairs (Z, y) by its own columns:
    a stored z verbatim, or from mu and log_sigma a fresh draw
    z = mu + sigma * eps on every replay."""
    if len(batch) == 0:
        raise ContractViolation("cannot materialize an empty batch")
    z = batch.columns.get("z")
    if z is None:
        z, _ = reparam_sample(batch.columns["mu"], batch.columns["log_sigma"], rng)
    return z, batch.labels


def buffer_capacity(strategy: StrategyConfig, per_task_samples: int, n_tasks: int,
                    raw_bytes: int, embed_dim: int) -> int:
    """Rows to hold one rho-sample of `per_task_samples` per task within the
    memory envelope: x1 matches the raw-sample count; x16 spends the bytes of
    those raw samples, a row costing embed_dim float64s per column, except a
    naive row, priced as the raw sample its client ships."""
    if min(per_task_samples, n_tasks, raw_bytes, embed_dim) <= 0:
        raise ContractViolation("buffer_capacity sizes must be positive")
    columns = _STRATEGIES[strategy.kind][1]
    if not columns:
        return 0
    naive_count = math.ceil(strategy.rho * per_task_samples) * n_tasks
    if strategy.memory_multiplier == "x1":
        return naive_count
    row_bytes = raw_bytes if strategy.kind == "naive" else len(columns) * embed_dim * 8
    return naive_count * raw_bytes // row_bytes


# ---------------------------------------------------------------------------
# Snapshot round-trip (checkpoint/resume); the FVBF v1 format is storage's
# ---------------------------------------------------------------------------


def save_buffer(path, buffer: RehearsalBuffer) -> None:
    write_snapshot(path, buffer.capacity, buffer.columns, buffer.labels, buffer.tasks,
                   buffer.rounds)


def load_buffer(path) -> RehearsalBuffer:
    return RehearsalBuffer(*read_snapshot(path))
