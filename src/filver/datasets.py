"""Data ingestion and task-stream construction.

Covers the IDX binary format used by the MNIST family, synthetic Gaussian
stand-ins, and the two task protocols: pixel-permuted tasks (one permutation
per task, applied identically to train and val) and class-split tasks (each
task owns a disjoint band of original classes, relabeled to a fixed 0..K-1
head).  Client partitions deal each task's rows per label round-robin so
every client holds a balanced shard, as row indices into the task.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractViolation,
    IdxCountMismatchError,
    IdxMagicError,
    IdxTruncatedError,
)
from .rng import RngStream

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


@dataclass
class LabeledSet:
    """Images in [0, 1] with integer class labels below class_count."""

    images: np.ndarray  # (N, H, W) or flat (N, n), float64
    labels: np.ndarray  # (N,), int64
    class_count: int

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if len(self.images) != len(self.labels):
            raise ContractViolation(
                f"images/labels length mismatch: {len(self.images)} != {len(self.labels)}"
            )
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.class_count):
            raise ContractViolation("label outside [0, class_count)")

    def __len__(self) -> int:
        return len(self.labels)

    def subset(self, indices) -> "LabeledSet":
        """The given rows, gathered once into new C-contiguous arrays."""
        return LabeledSet(np.take(self.images, indices, axis=0), np.take(self.labels, indices),
                          self.class_count)


@dataclass
class Task:
    task_id: int
    train: LabeledSet
    val: LabeledSet


@dataclass
class TaskSequence:
    tasks: list

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    @property
    def class_count(self) -> int:
        return self.tasks[0].train.class_count


class ClientPartition:
    """Per-(client, task) shards as int64 row indices into the task's train
    set, the one copy of its images; the shards of one task tile it."""

    def __init__(self, seq: TaskSequence, n_clients: int, rows: dict):
        self.n_clients = n_clients
        self._seq = seq
        self._rows = rows

    def rows(self, client_id: int, task_id: int) -> np.ndarray:
        """The shard's rows of its task's train set, in dealing order."""
        return self._rows[(client_id, task_id)]

    def shard(self, client_id: int, task_id: int) -> LabeledSet:
        """The shard's samples, gathered into new arrays."""
        return self._seq.tasks[task_id].train.subset(self.rows(client_id, task_id))


# ---------------------------------------------------------------------------
# IDX loading
# ---------------------------------------------------------------------------


def _read_be32(f, path) -> int:
    data = f.read(4)
    if len(data) != 4:
        raise IdxTruncatedError(f"{path}: file ended inside header")
    return struct.unpack(">I", data)[0]


def load_idx(images_path, labels_path, transpose: bool = False) -> LabeledSet:
    """Parse an IDX image/label file pair into a LabeledSet.

    Pixels are scaled from bytes to [0, 1].  transpose swaps each image's
    axes; the official EMNIST files store images transposed relative to MNIST.
    """
    with open(images_path, "rb") as f:
        magic = _read_be32(f, images_path)
        if magic != IDX_IMAGE_MAGIC:
            raise IdxMagicError(f"{images_path}: magic {magic:#010x} != {IDX_IMAGE_MAGIC:#010x}")
        count = _read_be32(f, images_path)
        rows = _read_be32(f, images_path)
        cols = _read_be32(f, images_path)
        payload = f.read(count * rows * cols)
        if len(payload) != count * rows * cols:
            raise IdxTruncatedError(
                f"{images_path}: expected {count * rows * cols} pixel bytes, got {len(payload)}"
            )
    images = np.frombuffer(payload, dtype=np.uint8).reshape(count, rows, cols)

    with open(labels_path, "rb") as f:
        magic = _read_be32(f, labels_path)
        if magic != IDX_LABEL_MAGIC:
            raise IdxMagicError(f"{labels_path}: magic {magic:#010x} != {IDX_LABEL_MAGIC:#010x}")
        label_count = _read_be32(f, labels_path)
        raw = f.read(label_count)
        if len(raw) != label_count:
            raise IdxTruncatedError(f"{labels_path}: expected {label_count} labels, got {len(raw)}")
    if label_count != count:
        raise IdxCountMismatchError(
            f"{images_path} has {count} images but {labels_path} has {label_count} labels"
        )
    labels = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)

    scaled = images.astype(np.float64) / 255.0
    if transpose:
        scaled = scaled.transpose(0, 2, 1)
    class_count = int(labels.max()) + 1 if label_count else 1
    return LabeledSet(scaled, labels, class_count)


# ---------------------------------------------------------------------------
# Splitting helpers
# ---------------------------------------------------------------------------


def split_train_val(data: LabeledSet, val_fraction: float, rng: RngStream):
    """Stratified held-out split: per label, val_fraction of samples (at least 1).

    Returns (train_rows, val_rows), ascending row indices into data; the task
    builders gather each task straight from data through them.
    """
    val_mask = np.zeros(len(data), dtype=bool)
    for label in np.unique(data.labels):
        idx = np.flatnonzero(data.labels == label)
        n_val = max(1, int(round(val_fraction * len(idx))))
        picked = rng.child("val_split", int(label)).choice(len(idx), size=n_val, replace=False)
        val_mask[idx[picked]] = True
    return np.flatnonzero(~val_mask), np.flatnonzero(val_mask)


def _train_val_rows(base: LabeledSet, base_val, val_fraction: float, rng: RngStream):
    """((train set, rows), (val set, rows)): where each half's rows live.

    With base_val the halves are base and base_val whole; otherwise both are
    rows of base, split by split_train_val.  Nothing is copied here.
    """
    if base_val is not None:
        return (base, np.arange(len(base))), (base_val, np.arange(len(base_val)))
    train_rows, val_rows = split_train_val(base, val_fraction, rng)
    return (base, train_rows), (base, val_rows)


# ---------------------------------------------------------------------------
# Task builders
# ---------------------------------------------------------------------------


def _take_permuted(images: np.ndarray, rows: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """images[rows] with each image's C-order pixels reordered by perm, in one gather."""
    pixel = np.unravel_index(perm, images.shape[1:])
    picked = images[(rows[:, None],) + tuple(p[None, :] for p in pixel)]
    return picked.reshape((len(rows),) + images.shape[1:])


def build_permuted_tasks(base: LabeledSet, n_tasks: int, rng: RngStream,
                         base_val: LabeledSet | None = None,
                         val_fraction: float = 0.1) -> TaskSequence:
    """One fixed random pixel permutation per task; task 0 is the identity.

    The same permutation transforms a task's train and val images, so test
    conditions always match training conditions.  Each task's images are
    gathered from base (or base_val) once, rows and pixels together.
    """
    if n_tasks < 1:
        raise ContractViolation("n_tasks must be >= 1")
    halves = _train_val_rows(base, base_val, val_fraction, rng)
    n_pixels = base.images[0].size
    tasks = []
    for t in range(n_tasks):
        if t == 0:
            perm = np.arange(n_pixels)
        else:
            perm = rng.child("pixel_perm", t).permutation(n_pixels)
        train, val = (LabeledSet(_take_permuted(source.images, rows, perm),
                                 np.take(source.labels, rows), source.class_count)
                      for source, rows in halves)
        tasks.append(Task(task_id=t, train=train, val=val))
    return TaskSequence(tasks)


def build_split_tasks(base: LabeledSet, n_tasks: int = 4, classes_per_task: int = 10,
                      base_val: LabeledSet | None = None, val_fraction: float = 0.1,
                      rng: RngStream | None = None) -> TaskSequence:
    """Disjoint class bands: task t holds original classes [t*c, (t+1)*c),
    relabeled to [0, c) so the classification head is identical across tasks.
    Samples with original label >= n_tasks * classes_per_task are excluded."""
    needed = n_tasks * classes_per_task
    if base.class_count < needed:
        raise ContractViolation(
            f"need {needed} classes for {n_tasks} tasks x {classes_per_task}, "
            f"base has {base.class_count}"
        )
    rng = rng if rng is not None else RngStream(0).child("split_tasks_default")
    halves = _train_val_rows(base, base_val, val_fraction, rng)
    tasks = []
    for t in range(n_tasks):
        lo, hi = t * classes_per_task, (t + 1) * classes_per_task
        parts = []
        for source, rows in halves:
            labels = source.labels[rows]
            picked = rows[(labels >= lo) & (labels < hi)]
            parts.append(LabeledSet(np.take(source.images, picked, axis=0),
                                    source.labels[picked] - lo, classes_per_task))
        tasks.append(Task(task_id=t, train=parts[0], val=parts[1]))
    return TaskSequence(tasks)


def partition_clients(seq: TaskSequence, n_clients: int, rng: RngStream) -> ClientPartition:
    """Deal each task's rows per label round-robin across clients (+-1), as
    row indices: no image is copied."""
    if n_clients < 1:
        raise ContractViolation("n_clients must be >= 1")
    rows = {}
    for task in seq.tasks:
        dealt = []  # per label, its rows in dealing order: position p goes to client p % n
        for label in range(task.train.class_count):
            idx = np.flatnonzero(task.train.labels == label)
            dealt.append(idx[rng.child("deal", task.task_id, int(label)).permutation(len(idx))])
        for client in range(n_clients):
            rows[(client, task.task_id)] = np.concatenate(
                [d[client::n_clients] for d in dealt]).astype(np.int64, copy=False)
    return ClientPartition(seq, n_clients, rows)


def make_synthetic_blobs(classes: int, d_in: int, per_class: int, spread: float,
                         rng: RngStream, image_shape: tuple | None = None) -> LabeledSet:
    """Gaussian cluster per class, clipped to [0, 1]; classes are interleaved.

    With image_shape=(H, W) the flat samples are reshaped into image batches
    (d_in must equal H * W), giving a fast stand-in for image datasets.
    """
    if classes < 2:
        raise ContractViolation("need at least two classes")
    if image_shape is not None:
        h, w = image_shape
        if h * w != d_in:
            raise ContractViolation(f"image_shape {image_shape} incompatible with d_in {d_in}")
    centers = rng.child("blob_centers").uniform(0.0, 1.0, (classes, d_in))
    # one draw, scaled, shifted and clipped in place: the values equal
    # clip(centers + noise * spread), since float addition commutes
    samples = rng.child("blob_noise").normal((classes, per_class, d_in))
    samples *= spread
    samples += centers[:, None, :]
    np.clip(samples, 0.0, 1.0, out=samples)
    # interleave classes: 0, 1, ..., K-1, 0, 1, ...
    images = samples.transpose(1, 0, 2).reshape(classes * per_class, d_in)
    labels = np.tile(np.arange(classes, dtype=np.int64), per_class)
    if image_shape is not None:
        images = images.reshape(len(images), h, w)
    return LabeledSet(images, labels, classes)
