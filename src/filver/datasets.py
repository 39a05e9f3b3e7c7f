"""Data ingestion and task-stream construction.

Covers the IDX binary format used by the MNIST family, synthetic Gaussian
stand-ins, and the two task protocols: pixel-permuted tasks (one permutation
per task, applied identically to train and val) and class-split tasks (each
task owns a disjoint band of original classes, relabeled to a fixed 0..K-1
head).  Client partitions deal each task's rows per label round-robin so
every client holds a balanced shard.

The images are held once, and a synthetic draw holds one band of them.  A
loaded IDX set is one source array; a blob draw is a BlobBands source, whose
bands of classes (a task's classes under the split protocol) are drawn again
from their recorded Philox states when read, and only the band read last
stays resident.  Every set built from a source (train and val halves,
tasks, client shards) is an ImageRows: int64 row numbers into it, plus the
task's pixel permutation.  Building a set composes row numbers; images are
gathered only where they are consumed, a pretraining batch or an encoder
pass at a time.
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
from .rng import NormalDraw, RngStream

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


class ImageRows:
    """Rows of one image source, gathered only when indexed.

    The source is an image array or a BlobBands draw.  `rows` are int64 row
    numbers into it (every row, in order, when not given).  `perm`, when
    given, reorders each image's C-order pixels at gather time.  Indexing
    with an int, a slice, an index array or a mask gathers the picked rows
    into a new C-contiguous float64 array, so `images[:]` is a fresh copy of
    the whole set; `subset` and `permuted` compose row numbers and
    permutations instead.
    """

    def __init__(self, source, rows=None, perm=None):
        self.source = (source if isinstance(source, BlobBands)
                       else np.asarray(source, dtype=np.float64))
        self.rows = (np.arange(self.source.shape[0], dtype=np.int64) if rows is None
                     else np.asarray(rows, dtype=np.int64))
        self.perm = perm

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def shape(self) -> tuple:
        """The shape of the gathered set, read without gathering it."""
        return (len(self.rows),) + self.source.shape[1:]

    def __getitem__(self, key) -> np.ndarray:
        picked = self.rows[key]
        flat = np.atleast_1d(picked)
        images = (self.source.take(flat, self.perm) if isinstance(self.source, BlobBands)
                  else _take(self.source, flat, self.perm))
        return images.reshape(np.shape(picked) + self.source.shape[1:])

    def __array__(self, dtype=None, copy=None):
        return self[:] if dtype is None else self[:].astype(dtype, copy=False)

    def subset(self, indices) -> "ImageRows":
        return ImageRows(self.source, self.rows[indices], self.perm)

    def permuted(self, perm: np.ndarray) -> "ImageRows":
        """The same rows with their pixels reordered by perm after self.perm."""
        return ImageRows(self.source, self.rows, perm if self.perm is None else self.perm[perm])


class BlobBands:
    """A synthetic blob draw, held one band of classes at a time.

    The draw is class-major: source row c*per_class + p is sample p of class
    c.  Band b holds classes [b*band_classes, (b+1)*band_classes), the last
    band what is left, so its rows are a contiguous run of source rows and a
    contiguous part of the one normal draw.  Building the source streams
    through the draw once, recording the Philox state at the start of each
    band and keeping band 0.  Reading a band that is not held drops the held
    one, then draws the band again from its recorded state, to the bytes of
    the one draw; so only the band read last is resident.
    """

    def __init__(self, centers: np.ndarray, spread: float, per_class: int, band_classes: int,
                 image_shape: tuple, draw: NormalDraw):
        classes = len(centers)
        self.centers, self.spread, self.per_class = centers, spread, per_class
        self.band_classes = band_classes
        self.shape = (classes * per_class,) + tuple(image_shape)
        n_bands = -(-classes // band_classes)
        self._marks = [draw.mark()]
        self._held = (0, self._draw(0, draw))
        for b in range(1, n_bands):
            self._marks.append(draw.mark())
            if b + 1 < n_bands:  # the last band's values are never needed here
                draw.skip(self._centers(b).size * per_class)

    @property
    def n_bands(self) -> int:
        return len(self._marks)

    @property
    def held(self) -> int:
        """The index of the resident band."""
        return self._held[0]

    def _centers(self, b: int) -> np.ndarray:
        """The centers of band b's classes."""
        return self.centers[b * self.band_classes:(b + 1) * self.band_classes]

    def _draw(self, b: int, draw: NormalDraw) -> np.ndarray:
        """Band b's images, read from `draw` at the band's start: the noise
        scaled, shifted by its class centers and clipped to [0, 1] in place,
        which equals clip(centers + noise * spread), as float addition commutes."""
        centers = self._centers(b)
        samples = draw.normal((len(centers), self.per_class, centers.shape[1]))
        samples *= self.spread
        samples += centers[:, None, :]
        np.clip(samples, 0.0, 1.0, out=samples)
        return samples.reshape((len(centers) * self.per_class,) + self.shape[1:])

    def band(self, b: int) -> np.ndarray:
        """Band b's images, drawn again from its recorded state unless held."""
        if self.held != b:
            self._held = None  # the held band is freed before the next is drawn
            self._held = (b, self._draw(b, NormalDraw(self._marks[b])))
        return self._held[1]

    def take(self, rows: np.ndarray, perm=None) -> np.ndarray:
        """The images of source `rows`, as _take gathers them from an array.

        A gather within one band reads that band alone.  One that spans
        bands reads them one after another, the held band first, and fills
        each band's rows of the result in turn.
        """
        width = self.band_classes * self.per_class
        bands = rows // width
        if len(rows) and bands.min() == bands.max():
            b = int(bands[0])
            return _take(self.band(b), rows - b * width, perm)
        out = np.empty((len(rows),) + self.shape[1:])
        for b in sorted(np.unique(bands).tolist(), key=lambda b: b != self.held):
            picked = bands == b
            out[picked] = _take(self.band(b), rows[picked] - b * width, perm)
        return out


@dataclass
class LabeledSet:
    """Images in [0, 1] with integer class labels below class_count.

    images is an ImageRows; an array passed in is wrapped whole, as the
    source of the set's rows.  labels are held per row.
    """

    images: ImageRows
    labels: np.ndarray  # (N,), int64
    class_count: int

    def __post_init__(self):
        if not isinstance(self.images, ImageRows):
            self.images = ImageRows(self.images)
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
        """The given rows: their labels gathered, their images still the source's."""
        return LabeledSet(self.images.subset(indices), self.labels[indices], self.class_count)


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
    set; the shards of one task tile it."""

    def __init__(self, seq: TaskSequence, n_clients: int, rows: dict):
        self.n_clients = n_clients
        self._seq = seq
        self._rows = rows

    def rows(self, client_id: int, task_id: int) -> np.ndarray:
        """The shard's rows of its task's train set, in dealing order."""
        return self._rows[(client_id, task_id)]

    def shard(self, client_id: int, task_id: int) -> LabeledSet:
        """The shard's samples, as rows of the task's source array."""
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

    scaled = images / 255.0  # computed in float64, as images.astype(np.float64) / 255.0
    if transpose:
        scaled = scaled.transpose(0, 2, 1)
    class_count = int(labels.max()) + 1 if label_count else 1
    return LabeledSet(scaled, labels, class_count)


# ---------------------------------------------------------------------------
# Splitting helpers
# ---------------------------------------------------------------------------


def split_train_val(data: LabeledSet, val_fraction: float, rng: RngStream):
    """Stratified held-out split: per label, val_fraction of samples (at least 1).

    Returns (train_rows, val_rows), ascending row indices into data.
    """
    val_mask = np.zeros(len(data), dtype=bool)
    for label in np.unique(data.labels):
        idx = np.flatnonzero(data.labels == label)
        n_val = max(1, int(round(val_fraction * len(idx))))
        picked = rng.child("val_split", int(label)).choice(len(idx), size=n_val, replace=False)
        val_mask[idx[picked]] = True
    return np.flatnonzero(~val_mask), np.flatnonzero(val_mask)


def _train_val(base: LabeledSet, base_val, val_fraction: float, rng: RngStream):
    """(train, val): base and base_val whole, or rows of base split by
    split_train_val.  Both are rows of the sources; no image is copied."""
    if base_val is not None:
        return base, base_val
    train_rows, val_rows = split_train_val(base, val_fraction, rng)
    return base.subset(train_rows), base.subset(val_rows)


# ---------------------------------------------------------------------------
# Task builders
# ---------------------------------------------------------------------------


def _take(images: np.ndarray, rows: np.ndarray, perm=None) -> np.ndarray:
    """images[rows], with each image's C-order pixels reordered by perm when
    given, in one gather."""
    if perm is None:
        return np.take(images, rows, axis=0)
    pixel = np.unravel_index(perm, images.shape[1:])
    picked = images[(rows[:, None],) + tuple(p[None, :] for p in pixel)]
    return picked.reshape((len(rows),) + images.shape[1:])


def build_permuted_tasks(base: LabeledSet, n_tasks: int, rng: RngStream,
                         base_val: LabeledSet | None = None,
                         val_fraction: float = 0.1) -> TaskSequence:
    """One fixed random pixel permutation per task; task 0 is the identity.

    The same permutation transforms a task's train and val images, so test
    conditions always match training conditions.  Every task holds the same
    rows of base (or base_val); its permutation is applied when they are
    gathered.
    """
    if n_tasks < 1:
        raise ContractViolation("n_tasks must be >= 1")
    halves = _train_val(base, base_val, val_fraction, rng)
    n_pixels = int(np.prod(base.images.shape[1:]))
    tasks = []
    for t in range(n_tasks):
        if t == 0:
            perm = np.arange(n_pixels)
        else:
            perm = rng.child("pixel_perm", t).permutation(n_pixels)
        train, val = (LabeledSet(half.images.permuted(perm), half.labels.copy(), half.class_count)
                      for half in halves)
        tasks.append(Task(task_id=t, train=train, val=val))
    return TaskSequence(tasks)


def build_split_tasks(base: LabeledSet, n_tasks: int = 4, classes_per_task: int = 10,
                      base_val: LabeledSet | None = None, val_fraction: float = 0.1,
                      rng: RngStream | None = None) -> TaskSequence:
    """Disjoint class bands: task t holds original classes [t*c, (t+1)*c),
    relabeled to [0, c) so the classification head is identical across tasks.
    Samples with original label >= n_tasks * classes_per_task are excluded.
    Each task holds rows of base (or base_val)."""
    needed = n_tasks * classes_per_task
    if base.class_count < needed:
        raise ContractViolation(
            f"need {needed} classes for {n_tasks} tasks x {classes_per_task}, "
            f"base has {base.class_count}"
        )
    rng = rng if rng is not None else RngStream(0).child("split_tasks_default")
    halves = _train_val(base, base_val, val_fraction, rng)
    tasks = []
    for t in range(n_tasks):
        lo, hi = t * classes_per_task, (t + 1) * classes_per_task
        parts = []
        for half in halves:
            picked = np.flatnonzero((half.labels >= lo) & (half.labels < hi))
            parts.append(LabeledSet(half.images.subset(picked), half.labels[picked] - lo,
                                    classes_per_task))
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
                         rng: RngStream, image_shape: tuple | None = None,
                         band_classes: int | None = None) -> LabeledSet:
    """Gaussian cluster per class, clipped to [0, 1]; classes are interleaved.

    With image_shape=(H, W) the flat samples are reshaped into image batches
    (d_in must equal H * W), giving a fast stand-in for image datasets.  The
    samples are one normal draw, held as a BlobBands source of band_classes
    classes a band (every class in one band when not given), and the set's
    rows index that draw.
    """
    if classes < 2:
        raise ContractViolation("need at least two classes")
    if image_shape is not None:
        h, w = image_shape
        if h * w != d_in:
            raise ContractViolation(f"image_shape {image_shape} incompatible with d_in {d_in}")
    if band_classes is not None and band_classes < 1:
        raise ContractViolation(f"band_classes must be >= 1, got {band_classes}")
    centers = rng.child("blob_centers").uniform(0.0, 1.0, (classes, d_in))
    source = BlobBands(centers, spread, per_class, min(band_classes or classes, classes),
                       tuple(image_shape or (d_in,)), rng.child("blob_noise").normal_draw())
    # the draw stays class-major; the interleaved order 0, 1, ..., K-1, 0, 1, ...
    # is a row map: row p*K + c is sample p of class c, source row c*per_class + p
    rows = (np.arange(per_class, dtype=np.int64)[:, None]
            + per_class * np.arange(classes, dtype=np.int64)).ravel()
    labels = np.tile(np.arange(classes, dtype=np.int64), per_class)
    return LabeledSet(ImageRows(source, rows), labels, classes)
