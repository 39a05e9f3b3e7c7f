"""Independent oracles for numerics tests: brute-force loops, quadrature,
and finite differences, plus the list-of-records rehearsal buffer that the
columnar one replaced.  Everything here is deliberately slow and obvious."""

import math
import struct
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate, stats

from filver import storage
from filver.errors import ContractViolation
from filver.rehearsal import EmbeddingPayload, RawPayload
from filver.rng import RngStream


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
# Reference rehearsal buffer: a Python list of records, one array each.
# Admission, eviction and replay make the same draws as filver.rehearsal; the
# snapshot writer emits one FVBF v1 frame per record.
# ---------------------------------------------------------------------------

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
        return []
    if batch_size <= 0:
        return []
    replace = batch_size > n
    idx = rng.choice(n, batch_size, replace=replace)
    return [buffer.records[i] for i in idx]


def payload_tag(record) -> int:
    if isinstance(record.payload, RawPayload):
        return storage.PAYLOAD_RAW
    if isinstance(record.payload, EmbeddingPayload):
        return storage.PAYLOAD_EMBEDDING
    return storage.PAYLOAD_STATS


def frame_arrays(record) -> list:
    p = record.payload
    if isinstance(p, RawPayload):
        return [p.x]
    if isinstance(p, EmbeddingPayload):
        return [p.z]
    return [p.mu, p.log_sigma]


def write_record_frame(f, tag: int, label: int, task_id: int, round_id: int,
                       arrays: list) -> None:
    f.write(struct.pack("<B", tag))
    f.write(struct.pack("<q", label))
    f.write(struct.pack("<q", task_id))
    f.write(struct.pack("<q", round_id))
    for arr in arrays:
        storage.write_array(f, arr)


def save_buffer(path, buffer: RehearsalBuffer) -> None:
    with open(path, "wb") as f:
        f.write(storage.BUFFER_MAGIC)
        f.write(struct.pack("<I", storage.FORMAT_VERSION))
        f.write(struct.pack("<q", -1 if buffer.capacity is None else buffer.capacity))
        f.write(struct.pack("<d", buffer.rho))
        f.write(struct.pack("<I", len(buffer.records)))
        for rec in buffer.records:
            write_record_frame(f, payload_tag(rec), rec.label, rec.task_id,
                               rec.round_id, frame_arrays(rec))
