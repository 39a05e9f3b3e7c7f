"""Independent oracles for numerics tests: brute-force loops, quadrature,
and finite differences, plus the segment-list parameter vector that the
flat one replaced, the two-step dataset builders that the one-copy ones
replaced, the keyed draw that built a new Philox and Generator per call,
the cell-by-cell enrollment grids that join/leave arrays replaced, and the
per-row FVBF snapshot writer that the bulk one replaced.  The rehearsal
path as a whole (list buffer, row draws, uploads, rounds) has one
reference, `reference.py`, which takes its schedules from here.
Everything here is deliberately slow and obvious."""

import hashlib
import math
import struct
from dataclasses import dataclass

import numpy as np
from scipy import integrate, stats

from filver.datasets import LabeledSet, Task, TaskSequence
from filver.errors import ContractViolation
from filver.numcore import _ensure_finite
from filver.rng import _MASK64, RngStream


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------

def rel_err(analytic, numeric, floor=1e-8):
    """Elementwise relative error with an absolute floor for near-zero grads."""
    a = np.asarray(analytic, dtype=np.float64)
    b = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return np.abs(a - b) / denom


def fd_flat(loss_fn, flat, h=1e-6):
    """Central finite differences of a scalar function of a flat vector."""
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        up = flat.copy()
        up[i] += h
        down = flat.copy()
        down[i] -= h
        grad[i] = (loss_fn(up) - loss_fn(down)) / (2.0 * h)
    return grad


def fd_arrays(loss_fn, arrays, h=1e-6):
    """FD over a list of arrays; loss_fn receives same-shaped arrays."""
    shapes = [a.shape for a in arrays]
    sizes = [a.size for a in arrays]
    flat = np.concatenate([a.ravel() for a in arrays])

    def unpack(f):
        out, off = [], 0
        for shape, size in zip(shapes, sizes):
            out.append(f[off:off + size].reshape(shape))
            off += size
        return out

    grad = fd_flat(lambda f: loss_fn(*unpack(f)), flat, h)
    return unpack(grad)


# ---------------------------------------------------------------------------
# Brute-force layer forwards
# ---------------------------------------------------------------------------

def loop_dense(x, w, b):
    batch, n = x.shape
    m = w.shape[1]
    out = np.zeros((batch, m))
    for i in range(batch):
        for j in range(m):
            s = b[j]
            for k in range(n):
                s += x[i, k] * w[k, j]
            out[i, j] = s
    return out


def loop_conv2d(x, kernels, bias):
    batch, h, w, c_in = x.shape
    k = kernels.shape[0]
    f_out = kernels.shape[3]
    oh, ow = h - k + 1, w - k + 1
    out = np.zeros((batch, oh, ow, f_out))
    for b_ in range(batch):
        for i in range(oh):
            for j in range(ow):
                for f in range(f_out):
                    s = bias[f]
                    for di in range(k):
                        for dj in range(k):
                            for c in range(c_in):
                                s += x[b_, i + di, j + dj, c] * kernels[di, dj, c, f]
                    out[b_, i, j, f] = s
    return out


def loop_maxpool2x2(x):
    batch, h, w, c = x.shape
    h2, w2 = h // 2, w // 2
    out = np.zeros((batch, h2, w2, c))
    for b_ in range(batch):
        for i in range(h2):
            for j in range(w2):
                for ch in range(c):
                    window = x[b_, 2 * i:2 * i + 2, 2 * j:2 * j + 2, ch]
                    out[b_, i, j, ch] = window.max()
    return out


# ---------------------------------------------------------------------------
# Reference conv and pool kernels: the einsum convolution and the argmax
# pooling that the GEMM and strided-slice kernels in filver.numcore replaced,
# kept verbatim.  The new kernels must reproduce their outputs bit for bit.
# ---------------------------------------------------------------------------

def _windows(x: np.ndarray, k: int) -> np.ndarray:
    """Strided view of all k x k patches: (B, H', W', k, k, C)."""
    b, h, w, c = x.shape
    sb, sh, sw, sc = x.strides
    return np.lib.stride_tricks.as_strided(
        x,
        shape=(b, h - k + 1, w - k + 1, k, k, c),
        strides=(sb, sh, sw, sh, sw, sc),
        writeable=False,
    )


def conv2d_forward(x, kernels, bias, activation="relu"):
    """Valid cross-correlation then activation.

    x: (B, H, W, C), kernels: (k, k, C, F), bias: (F,).
    Output spatial dims shrink by k - 1.
    """
    x = np.asarray(x, dtype=np.float64)
    k = kernels.shape[0]
    if x.ndim != 4 or x.shape[3] != kernels.shape[2]:
        raise ContractViolation(
            f"conv2d_forward: input {x.shape} incompatible with kernels {kernels.shape}"
        )
    if x.shape[1] < k or x.shape[2] < k:
        raise ContractViolation(
            f"conv2d_forward: spatial dims {x.shape[1:3]} smaller than kernel {k}"
        )
    win = _windows(x, k)
    pre = np.einsum("bhwijc,ijcf->bhwf", win, kernels, optimize=True) + bias
    if activation == "relu":
        out = np.maximum(pre, 0.0)
    elif activation == "identity":
        out = pre
    else:
        raise ContractViolation(f"unknown activation {activation!r}")
    _ensure_finite(out, "conv2d_forward output")
    return out, (x, kernels, pre, activation)


def conv2d_backward(cache, dout):
    """Returns (dx, dK, db) for the matching conv2d_forward call."""
    x, kernels, pre, activation = cache
    k = kernels.shape[0]
    if activation == "relu":
        dpre = dout * (pre > 0.0)
    else:
        dpre = dout
    win = _windows(x, k)
    dk = np.einsum("bhwijc,bhwf->ijcf", win, dpre, optimize=True)
    db = dpre.sum(axis=(0, 1, 2))
    dx = np.zeros_like(x)
    oh, ow = dpre.shape[1], dpre.shape[2]
    for i in range(k):
        for j in range(k):
            dx[:, i : i + oh, j : j + ow, :] += np.einsum(
                "bhwf,cf->bhwc", dpre, kernels[i, j], optimize=True
            )
    return dx, dk, db


def maxpool2x2(x):
    """2x2 max pooling with stride 2; odd trailing rows/columns are truncated.

    Returns (out, cache); cache records the argmax inside each window so the
    backward pass routes gradients to exactly one input cell.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 4:
        raise ContractViolation(f"maxpool2x2: expected NHWC batch, got shape {x.shape}")
    b, h, w, c = x.shape
    h2, w2 = h // 2, w // 2
    if h2 == 0 or w2 == 0:
        raise ContractViolation(f"maxpool2x2: spatial dims {h}x{w} too small")
    trimmed = x[:, : 2 * h2, : 2 * w2, :]
    # (B, H2, 2, W2, 2, C) -> windows flattened to length 4
    r = trimmed.reshape(b, h2, 2, w2, 2, c)
    flat = r.transpose(0, 1, 3, 5, 2, 4).reshape(b, h2, w2, c, 4)
    idx = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]
    return out, (x.shape, (b, h2, w2, c), idx)


def maxpool2x2_backward(cache, dout):
    in_shape, (b, h2, w2, c), idx = cache
    dflat = np.zeros((b, h2, w2, c, 4))
    np.put_along_axis(dflat, idx[..., None], dout[..., None], axis=-1)
    dtrim = dflat.reshape(b, h2, w2, c, 2, 2).transpose(0, 1, 4, 2, 5, 3)
    dtrim = dtrim.reshape(b, 2 * h2, 2 * w2, c)
    dx = np.zeros(in_shape)
    dx[:, : 2 * h2, : 2 * w2, :] = dtrim
    return dx


# ---------------------------------------------------------------------------
# Quadrature KL
# ---------------------------------------------------------------------------

def quad_kl(mu, sigma):
    """KL(N(mu, diag sigma^2) || N(0, I)) via numerical integration per dim."""
    total = 0.0
    for m, s in zip(np.ravel(mu), np.ravel(sigma)):
        def integrand(x, m=m, s=s):
            return stats.norm.pdf(x, m, s) * (
                stats.norm.logpdf(x, m, s) - stats.norm.logpdf(x, 0.0, 1.0))
        val, err = integrate.quad(integrand, m - 14 * s, m + 14 * s, limit=300)
        total += val
    return total


# ---------------------------------------------------------------------------
# Kink-safe instance samplers: finite differences near a ReLU kink or a
# max-pool tie measure the wrong one-sided slope, so instances are redrawn
# until every pre-activation (or window gap) clears the FD step by a margin.
# ---------------------------------------------------------------------------

def sample_dense_instance(rng: RngStream, batch=4, n=5, m=3, activation="relu"):
    for _ in range(200):
        x = rng.normal((batch, n))
        w = rng.normal((n, m)) * 0.6
        b = rng.normal(m) * 0.5
        pre = x @ w + b
        if activation != "relu" or np.abs(pre).min() > 1e-3:
            return x, w, b
    raise AssertionError("could not sample a kink-free dense instance")


def sample_conv_instance(rng: RngStream, batch=2, h=5, w=5, c=2, k=3, f=2):
    for _ in range(200):
        x = rng.normal((batch, h, w, c))
        kernels = rng.normal((k, k, c, f)) * 0.4
        bias = rng.normal(f) * 0.5
        pre = loop_conv2d(x, kernels, bias)
        if np.abs(pre).min() > 1e-3:
            return x, kernels, bias
    raise AssertionError("could not sample a kink-free conv instance")


def pool_gap(x) -> float:
    """Smallest gap between the top two values of any 2x2 window."""
    b, h, w, c = x.shape
    h2, w2 = h // 2, w // 2
    r = x[:, :2 * h2, :2 * w2, :].reshape(b, h2, 2, w2, 2, c)
    flat = r.transpose(0, 1, 3, 5, 2, 4).reshape(b, h2, w2, c, 4)
    top = np.sort(flat, axis=-1)
    return float((top[..., 3] - top[..., 2]).min())


def sample_pool_instance(rng: RngStream, batch=2, h=6, w=6, c=2):
    for _ in range(200):
        x = rng.normal((batch, h, w, c))
        if pool_gap(x) > 1e-3:
            return x
    raise AssertionError("could not sample a tie-free pool instance")


# ---------------------------------------------------------------------------
# FVBF v1 written one frame per row, as the per-record writer that
# storage's bulk writer replaced did: rows are anything with columns (a
# dict of arrays), label, task and round, such as reference.Row
# ---------------------------------------------------------------------------

FRAME_TAGS = {("x",): 0, ("z",): 1, ("mu", "log_sigma"): 2}


def write_snapshot(path, capacity, rows) -> None:
    with open(path, "wb") as f:
        f.write(b"FVBF" + struct.pack("<Iqd", 1, -1 if capacity is None else capacity, 1.0))
        f.write(struct.pack("<I", len(rows)))
        for row in rows:
            f.write(struct.pack("<Bqqq", FRAME_TAGS[tuple(row.columns)], row.label, row.task,
                                row.round))
            for arr in row.columns.values():
                arr = np.asarray(arr, dtype="<f8")
                f.write(struct.pack(f"<I{arr.ndim}I", arr.ndim, *arr.shape) + arr.tobytes())


# ---------------------------------------------------------------------------
# Reference parameter vector: the list of named segments that the flat
# ParamVector in filver.numcore replaced, with its SGD step, gradient clip and
# FedAvg arithmetic, kept verbatim.  The flat versions must reproduce their
# results bit for bit, the clip norm included.
# ---------------------------------------------------------------------------

@dataclass
class Segment:
    name: str
    values: np.ndarray  # float64, owns its shape


class ParamVector:
    """Named, ordered float64 parameter segments.

    The unit FedAvg averages and SGD updates.  Two vectors are
    layout-compatible iff their segment names and shapes match pairwise.
    """

    def __init__(self, segments: list[Segment]):
        names = [s.name for s in segments]
        if len(set(names)) != len(names):
            raise ContractViolation(f"duplicate segment names: {names}")
        self.segments = segments
        self._index = {s.name: i for i, s in enumerate(segments)}

    @staticmethod
    def from_arrays(pairs: list[tuple[str, np.ndarray]]) -> "ParamVector":
        return ParamVector(
            [Segment(name, np.asarray(arr, dtype=np.float64)) for name, arr in pairs]
        )

    def get(self, name: str) -> np.ndarray:
        return self.segments[self._index[name]].values

    def set(self, name: str, values: np.ndarray) -> None:
        seg = self.segments[self._index[name]]
        if seg.values.shape != values.shape:
            raise ContractViolation(
                f"segment {name}: shape {values.shape} != {seg.values.shape}"
            )
        seg.values = np.asarray(values, dtype=np.float64)

    @property
    def total_len(self) -> int:
        return sum(s.values.size for s in self.segments)

    def layout(self) -> tuple[tuple[str, tuple[int, ...]], ...]:
        return tuple((s.name, s.values.shape) for s in self.segments)

    def layout_compatible(self, other: "ParamVector") -> bool:
        return self.layout() == other.layout()

    def copy(self) -> "ParamVector":
        return ParamVector([Segment(s.name, s.values.copy()) for s in self.segments])

    def as_flat(self) -> np.ndarray:
        if not self.segments:
            return np.zeros(0)
        return np.concatenate([s.values.ravel() for s in self.segments])

    def with_flat(self, flat: np.ndarray) -> "ParamVector":
        """Rebuild a vector of this layout from a flat buffer (for grad checks)."""
        if flat.size != self.total_len:
            raise ContractViolation("flat buffer length mismatch")
        out, offset = [], 0
        for s in self.segments:
            n = s.values.size
            out.append(Segment(s.name, flat[offset : offset + n].reshape(s.values.shape).copy()))
            offset += n
        return ParamVector(out)

    def checksum(self) -> str:
        h = hashlib.sha256()
        for s in self.segments:
            h.update(s.name.encode("utf-8"))
            h.update(str(s.values.shape).encode("ascii"))
            h.update(np.ascontiguousarray(s.values).tobytes())
        return h.hexdigest()

    def __repr__(self):
        return f"ParamVector({[s.name for s in self.segments]}, total_len={self.total_len})"


# A gradient shares the layout of the ParamVector it differentiates.
Gradient = ParamVector


def sgd_step(params: ParamVector, grad: Gradient, lr: float) -> ParamVector:
    """One plain SGD step: params - lr * grad, elementwise."""
    if not params.layout_compatible(grad):
        raise ContractViolation("sgd_step: gradient layout does not match parameters")
    return ParamVector(
        [
            Segment(p.name, _ensure_finite(p.values - lr * g.values, f"sgd_step[{p.name}]"))
            for p, g in zip(params.segments, grad.segments)
        ]
    )


def clip_gradient(grad: Gradient, max_norm: float) -> Gradient:
    """Scale the whole gradient down so its global l2 norm is at most max_norm."""
    if max_norm <= 0:
        raise ContractViolation("clip_gradient: max_norm must be positive")
    total = math.sqrt(sum(float(np.sum(s.values**2)) for s in grad.segments))
    if total <= max_norm:
        return grad
    scale = max_norm / total
    return ParamVector([Segment(s.name, s.values * scale) for s in grad.segments])


def fedavg_aggregate(updates: list) -> ParamVector:
    """Sample-count-weighted mean of client parameter vectors."""
    if not updates:
        raise ContractViolation("fedavg_aggregate: no updates")
    base = updates[0][0]
    total = 0.0
    acc = np.zeros(base.total_len, dtype=np.float64)
    for params, count in updates:
        if count <= 0:
            raise ContractViolation(f"fedavg_aggregate: sample count {count} must be positive")
        if not base.layout_compatible(params):
            raise ContractViolation("fedavg_aggregate: parameter layouts differ")
        acc += float(count) * params.as_flat()
        total += float(count)
    return base.with_flat(acc / total)


# ---------------------------------------------------------------------------
# Reference data builders: the two-step routes that the row-number ones in
# filver.datasets replaced, kept verbatim but for gathering a set's images
# (`images[:]`, `images[mask]`) where they indexed an array.  Each copied
# every row twice: once into full train/val sets, then again per task; the
# blobs drew, then made four full-size temporaries.
# ---------------------------------------------------------------------------

def subset(data: LabeledSet, indices) -> LabeledSet:
    return LabeledSet(data.images[indices].copy(), data.labels[indices].copy(),
                      data.class_count)


def split_train_val(data: LabeledSet, val_fraction: float, rng: RngStream):
    """Stratified held-out split: per label, val_fraction of samples (at least 1)."""
    val_mask = np.zeros(len(data), dtype=bool)
    for label in np.unique(data.labels):
        idx = np.flatnonzero(data.labels == label)
        n_val = max(1, int(round(val_fraction * len(idx))))
        picked = rng.child("val_split", int(label)).choice(len(idx), size=n_val, replace=False)
        val_mask[idx[picked]] = True
    train = subset(data, np.flatnonzero(~val_mask))
    val = subset(data, np.flatnonzero(val_mask))
    return train, val


def _resolve_val(base: LabeledSet, base_val, val_fraction: float, rng: RngStream):
    if base_val is not None:
        return base, base_val
    return split_train_val(base, val_fraction, rng)


def _permute_pixels(images: np.ndarray, perm: np.ndarray) -> np.ndarray:
    flat = images.reshape(len(images), -1)
    return flat[:, perm].reshape(images.shape)


def build_permuted_tasks(base: LabeledSet, n_tasks: int, rng: RngStream,
                         base_val: LabeledSet | None = None,
                         val_fraction: float = 0.1) -> TaskSequence:
    """One fixed random pixel permutation per task; task 0 is the identity.

    The same permutation transforms a task's train and val images, so test
    conditions always match training conditions.
    """
    if n_tasks < 1:
        raise ContractViolation("n_tasks must be >= 1")
    train, val = _resolve_val(base, base_val, val_fraction, rng)
    n_pixels = train.images[0].size
    tasks = []
    for t in range(n_tasks):
        if t == 0:
            perm = np.arange(n_pixels)
        else:
            perm = rng.child("pixel_perm", t).permutation(n_pixels)
        tasks.append(
            Task(
                task_id=t,
                train=LabeledSet(_permute_pixels(train.images[:], perm), train.labels.copy(),
                                 train.class_count),
                val=LabeledSet(_permute_pixels(val.images[:], perm), val.labels.copy(),
                               val.class_count),
            )
        )
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
    train, val = _resolve_val(base, base_val, val_fraction, rng)
    tasks = []
    for t in range(n_tasks):
        lo, hi = t * classes_per_task, (t + 1) * classes_per_task
        parts = []
        for source in (train, val):
            mask = (source.labels >= lo) & (source.labels < hi)
            parts.append(
                LabeledSet(source.images[mask].copy(), source.labels[mask] - lo,
                           classes_per_task)
            )
        tasks.append(Task(task_id=t, train=parts[0], val=parts[1]))
    return TaskSequence(tasks)


def make_synthetic_blobs(classes: int, d_in: int, per_class: int, spread: float,
                         rng: RngStream, image_shape: tuple | None = None) -> LabeledSet:
    """Gaussian cluster per class, clipped to [0, 1]; classes are interleaved.

    With image_shape=(H, W) the flat samples are reshaped into image batches
    (d_in must equal H * W), giving a fast stand-in for image datasets.
    """
    if classes < 2:
        raise ContractViolation("need at least two classes")
    centers = rng.child("blob_centers").uniform(0.0, 1.0, (classes, d_in))
    noise = rng.child("blob_noise").normal((classes, per_class, d_in)) * spread
    samples = np.clip(centers[:, None, :] + noise, 0.0, 1.0)
    # interleave classes: 0, 1, ..., K-1, 0, 1, ...
    images = samples.transpose(1, 0, 2).reshape(classes * per_class, d_in)
    labels = np.tile(np.arange(classes, dtype=np.int64), per_class)
    if image_shape is not None:
        h, w = image_shape
        if h * w != d_in:
            raise ContractViolation(f"image_shape {image_shape} incompatible with d_in {d_in}")
        images = images.reshape(len(images), h, w)
    return LabeledSet(images, labels, classes)


# ---------------------------------------------------------------------------
# Reference keyed draws: the per-draw constructor that filver.rng's state
# reset replaced, kept verbatim.  A stream of this class draws exactly what a
# filver.rng.RngStream with the same (seed, stream_id, counter) must draw.
# ---------------------------------------------------------------------------

class ConstructorRngStream(RngStream):
    """RngStream whose every draw builds its own Philox and Generator."""

    def _next_generator(self) -> np.random.Generator:
        # explicit uint64 arrays: a plain list with any element >= 2**63 would
        # be inferred as float64 and silently round away the low key bits
        bitgen = np.random.Philox(
            counter=np.array([0, 0, self.counter & _MASK64, 0], dtype=np.uint64),
            key=np.array([self.seed, self.stream_id], dtype=np.uint64),
        )
        self.counter += 1
        return np.random.Generator(bitgen)


# ---------------------------------------------------------------------------
# Enrollment schedules: the cell-by-cell grids that filver.scenarios'
# join/leave arrays replaced, with the same keyed draws and cell states
# ---------------------------------------------------------------------------

NOT_ENROLLED_YET, ACTIVE, NO_LONGER_ACTIVE = 0, 1, 2


def make_schedule(kind: str, n_clients: int, n_tasks: int, rng: RngStream) -> np.ndarray:
    """The (n_clients, n_tasks) enrollment grid of a legal kind and size."""
    grid = np.full((n_clients, n_tasks), NOT_ENROLLED_YET, dtype=np.int8)
    if kind == "fully_enrolled":
        grid[:] = ACTIVE
        return grid

    rate = -(-n_clients // n_tasks)  # ceil(N / T) joins or drops per boundary

    if kind == "decreasing":
        grid[:, 0] = ACTIVE
        dropped: list = []
        for t in range(1, n_tasks):
            still = [c for c in range(n_clients) if c not in dropped]
            n_drop = min(rate, len(still) - 1)
            if n_drop > 0:
                pick = rng.child("drop", t).choice(len(still), n_drop, replace=False)
                dropped.extend(still[i] for i in pick)
            for c in range(n_clients):
                grid[c, t] = NO_LONGER_ACTIVE if c in dropped else ACTIVE
        return grid

    if kind == "increasing":
        start = max(1, n_clients - rate * (n_tasks - 1))
        order = rng.child("join").permutation(n_clients)
        joined = list(order[:start])
        cursor = start
        for t in range(n_tasks):
            if t > 0:
                take = min(rate, n_clients - cursor)
                joined.extend(order[cursor:cursor + take])
                cursor += take
            for c in joined:
                grid[c, t] = ACTIVE
        for c in order[cursor:]:
            grid[c, n_tasks - 1] = ACTIVE
        return grid

    # scattered
    order = rng.child("scatter").permutation(n_clients)
    assignment = np.empty(n_clients, dtype=np.int64)
    for slot, c in enumerate(order):
        if slot < n_tasks:
            assignment[c] = slot
        else:
            assignment[c] = int(rng.child("scatter_extra", int(c)).integers(0, n_tasks))
    for c in range(n_clients):
        t = assignment[c]
        grid[c, t] = ACTIVE
        grid[c, t + 1:] = NO_LONGER_ACTIVE
    return grid
