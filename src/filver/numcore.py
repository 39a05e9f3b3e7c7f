"""Differentiable numeric core: dense/conv/pool layers, losses, sampling, SGD.

Everything is float64 and pure: ops return new arrays, caches are explicit
values handed back to the matching backward function.  Matrices are plain
2-D float64 ndarrays; image batches are NHWC float64 ndarrays.  There is no
autodiff tape — the model zoo is fixed and small, so each op carries its own
hand-written backward.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation

# VEE log-sigma head outputs are clamped to this band to avoid exp overflow.
LOG_SIGMA_MAX = 10.0


def _ensure_finite(arr: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise ContractViolation(f"{what} contains non-finite values")
    return arr


# ---------------------------------------------------------------------------
# Parameter container
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


# ---------------------------------------------------------------------------
# Dense layer
# ---------------------------------------------------------------------------


def dense_forward(x, weights, bias, activation="relu"):
    """Affine map plus activation: activation(x @ W + b).

    x: (B, n), weights: (n, m), bias: (m,).  Returns (out, cache); the cache
    holds what dense_backward needs.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != weights.shape[0]:
        raise ContractViolation(
            f"dense_forward: input cols {x.shape} incompatible with weights {weights.shape}"
        )
    pre = x @ weights + bias
    if activation == "relu":
        out = np.maximum(pre, 0.0)
    elif activation == "identity":
        out = pre
    else:
        raise ContractViolation(f"unknown activation {activation!r}")
    _ensure_finite(out, "dense_forward output")
    return out, (x, weights, pre, activation)


def dense_backward(cache, dout):
    """Returns (dx, dW, db) for the matching dense_forward call."""
    x, weights, pre, activation = cache
    if activation == "relu":
        dpre = dout * (pre > 0.0)
    else:
        dpre = dout
    dx = dpre @ weights.T
    dw = x.T @ dpre
    db = dpre.sum(axis=0)
    return dx, dw, db


# ---------------------------------------------------------------------------
# Convolution (valid cross-correlation, stride 1) and 2x2 max pooling
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
# Losses and Gaussian machinery
# ---------------------------------------------------------------------------


def softmax_cross_entropy(logits, labels):
    """Mean cross-entropy over the batch and its gradient w.r.t. the logits.

    logits: (B, K); labels: (B,) int class indices in [0, K).
    grad = (softmax - onehot) / B, so downstream code can chain it directly.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise ContractViolation(f"softmax_cross_entropy: logits must be 2-D, got {logits.shape}")
    batch, k = logits.shape
    if labels.shape != (batch,):
        raise ContractViolation("softmax_cross_entropy: labels must be (batch,)")
    if labels.min() < 0 or labels.max() >= k:
        raise ContractViolation(f"softmax_cross_entropy: label out of range [0, {k})")
    shifted = logits - logits.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    probs = expd / expd.sum(axis=1, keepdims=True)
    picked = probs[np.arange(batch), labels]
    loss = float(-np.log(np.maximum(picked, 1e-300)).mean())
    grad = probs.copy()
    grad[np.arange(batch), labels] -= 1.0
    grad /= batch
    _ensure_finite(grad, "softmax_cross_entropy gradient")
    return loss, grad


def predictions(logits) -> np.ndarray:
    return np.asarray(logits).argmax(axis=1)


def gaussian_kl(mu, log_sigma) -> float:
    """KL(N(mu, diag sigma^2) || N(0, I)) in closed form.

    Sum over dimensions of 0.5 * (mu^2 + sigma^2 - 1 - 2 log sigma).
    """
    mu = np.asarray(mu, dtype=np.float64)
    log_sigma = np.asarray(log_sigma, dtype=np.float64)
    sigma_sq = np.exp(2.0 * log_sigma)
    return float(0.5 * np.sum(mu**2 + sigma_sq - 1.0 - 2.0 * log_sigma))


def gaussian_kl_batch(mu, log_sigma):
    """Batch-mean KL and its gradients.

    mu, log_sigma: (B, d).  Returns (mean_kl, dmu, dlog_sigma) where the
    gradients are of the batch mean: dmu = mu / B, dlog_sigma = (sigma^2 - 1) / B.
    """
    mu = np.asarray(mu, dtype=np.float64)
    log_sigma = np.asarray(log_sigma, dtype=np.float64)
    batch = mu.shape[0]
    sigma_sq = np.exp(2.0 * log_sigma)
    kl = 0.5 * np.sum(mu**2 + sigma_sq - 1.0 - 2.0 * log_sigma) / batch
    return float(kl), mu / batch, (sigma_sq - 1.0) / batch


def sigma_from_log(log_sigma) -> np.ndarray:
    """exp of the clamped log-sigma; an exact -inf input maps to sigma = 0."""
    log_sigma = np.asarray(log_sigma, dtype=np.float64)
    sigma = np.exp(np.clip(log_sigma, -LOG_SIGMA_MAX, LOG_SIGMA_MAX))
    if np.any(np.isneginf(log_sigma)):
        sigma = np.where(np.isneginf(log_sigma), 0.0, sigma)
    return sigma


def reparam_sample(mu, log_sigma, rng):
    """Reparameterized draw z = mu + sigma * eps with eps ~ N(0, I).

    Returns (z, eps); eps is what the gradient path needs, since
    dz/dmu = 1 and dz/dlog_sigma = sigma * eps.
    """
    mu = np.asarray(mu, dtype=np.float64)
    sigma = sigma_from_log(log_sigma)
    eps = rng.normal(mu.shape)
    z = mu + sigma * eps
    _ensure_finite(z, "reparam_sample output")
    return z, eps
