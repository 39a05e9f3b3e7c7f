"""Rehearsal strategies and replay buffers.

Six strategies govern what an upload carries and how it becomes a training
embedding at replay time:

  none         no buffers at all; training sees only fresh data
  noise        embeddings from a frozen randomly initialized encoder
  naive        raw samples on the wire, priced as such, carried as their embed-stage
               rows: a row embeds to the same bytes in any pass (models.EVAL_CHUNK)
  ebr          deterministic embeddings stored once, replayed verbatim
  ver_stats    per-example (mu, log sigma); fresh z is drawn at every replay
  ver_sampled  sampled z only; no distribution statistics ever leave a client

The stats/sampled distinction is enforced by payload type: a ver_sampled
upload's payload simply has no field in which statistics could travel.

An `Upload` is what a client ships in a round: one payload whose arrays
(``z``, or ``mu`` and ``log_sigma``) hold a float64 row per sample, and the
samples' labels.  `Upload.rows` makes those arrays the columns of buffer
rows, and `admit` takes the rows, so the privacy rule is also a schema
property: a ver_sampled buffer has no stats column.  `_STRATEGIES` alone
names a strategy's encoder and buffer columns, and `buffer_capacity` prices
a row from those columns.  `storage` alone defines snapshots; `save_buffer`
and `load_buffer` convert.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation
from .models import GaussianStats
from .numcore import reparam_sample
from .rng import RngStream
from .storage import read_snapshot, write_snapshot

# strategy kind -> (the encoder it pretrains and freezes, its buffers' payload
# columns).  noise trains nothing; variational strategies need stats heads;
# the rest share a deterministic one.
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
class EmbeddingPayload:
    """Embedding vectors, a row each, replayed bit-identically."""

    z: np.ndarray


# Stats payloads reuse GaussianStats, with a row of mu and of log sigma each.


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


@dataclass
class Upload:
    """What one client ships in one round: a payload whose arrays hold one
    row per uploaded sample, the samples' labels, and their (task, round)."""

    payload: object
    labels: np.ndarray
    task_id: int
    round_id: int

    def __post_init__(self):
        if not isinstance(self.payload, (EmbeddingPayload, GaussianStats)):
            raise ContractViolation(f"unknown payload type {type(self.payload).__name__}")
        for name, column in vars(self.payload).items():
            if np.shape(column)[:1] != (len(self.labels),):
                raise ContractViolation(f"upload payload {name!r} of shape {np.shape(column)} "
                                        f"has no row for each of {len(self.labels)} labels")

    def rows(self) -> RehearsalBuffer:
        """The upload as buffer rows, its payload arrays (not copied) the columns."""
        n = len(self.labels)
        return RehearsalBuffer(None, dict(vars(self.payload)), np.asarray(self.labels, np.int64),
                               np.full(n, self.task_id, np.int64),
                               np.full(n, self.round_id, np.int64))


def _schema(buffer: RehearsalBuffer) -> tuple:
    return tuple((name, col.shape[1:]) for name, col in buffer.columns.items())


def admit(buffer: RehearsalBuffer, rows: RehearsalBuffer, rng: RngStream) -> RehearsalBuffer:
    """Append every row of one upload, then evict to capacity.

    run_round builds an upload's rows once and hands them to the client's
    buffer and to the server's; admit never changes them.  The rho-fraction
    was drawn once, at upload.  The rows must share one (task, round) and the
    buffer's payload columns.  Eviction removes
    a random row from whichever task holds the most, breaking ties toward the
    newest task so early tasks keep their representation.
    """
    if not len(rows):
        return buffer
    if rows.tasks.min() != rows.tasks.max() or rows.rounds.min() != rows.rounds.max():
        keys = sorted(set(zip(rows.tasks.tolist(), rows.rounds.tolist())))
        raise ContractViolation(f"admit rows span multiple (task, round) keys: {keys}")
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

    Each victim costs one draw, made exactly as when rows are evicted one
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


def draw_batch(columns: dict, labels: np.ndarray, k: int, idx_rng: RngStream,
               eps_rng: RngStream):
    """k training pairs (z, y) drawn uniformly from the rows of `columns`,
    with replacement only when k exceeds the row count.

    The one batch sampler: a buffer's columns and an embed-stage entry
    (whose "log_sigma" is None for a deterministic encoder) both serve.  A
    stored ``z`` comes back as it is, as does ``mu`` without ``log_sigma``;
    with it, each call draws z = mu + sigma * eps afresh.  A draw of 0 rows
    gives empty arrays."""
    n = len(labels)
    if k > 0 and n == 0:
        raise ContractViolation(f"cannot draw {k} rows from zero rows")
    idx = idx_rng.choice(n, k, replace=k > n)
    z = columns["z" if "z" in columns else "mu"][idx]
    if columns.get("log_sigma") is not None:
        z, _ = reparam_sample(z, columns["log_sigma"][idx], eps_rng)
    return z, labels[idx]


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
