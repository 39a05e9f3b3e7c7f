"""Differentiable numeric core: dense/conv/pool layers, losses, sampling, SGD.

Everything is float64 and pure: ops return new arrays and never write into
their inputs, and caches are explicit values handed back to the matching
backward function.  A dense cache holds the pre-activation; a conv cache
holds the output itself, which conv2d_forward activates in place on the
fresh array its bias add made (see the note above it).  Matrices are plain
2-D float64 ndarrays; image batches are NHWC float64 ndarrays.  There is no
autodiff tape — the model zoo is fixed and small, so each op carries its own
hand-written backward.

Parameters live in a ParamVector: one flat C-ordered float64 array and a
((name, shape), ...) layout, each name a reshaped view into the array.
Gradients are plain dicts from name to array, in the parameters' layout
order, each array in the memory layout its backward produced.  Results are
bit-identical to those of the list of per-name arrays this replaced (an
oracle in tests/oracles.py).  Two rules matter:

- clip_gradient sums the squares of each unpacked array, in dict order.
  numpy sums in memory order, and a conv kernel gradient comes back F-major
  (see conv2d_backward), so a norm taken after packing it into C order
  differs in the last ulp, and through the clip so does every later step.
- sgd_step makes one vector-sized allocation: it packs the gradient into a
  fresh array, scales and subtracts in place there, and keeps that array
  as the new vector.  `flat - lr * packed` allocates two vectors more; at
  the desk classifier's 17,896 values it measured 44-50 us per step against
  40-41 us (2-core x86 host, one BLAS thread).
"""

from __future__ import annotations

import math

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


class ParamVector:
    """Named parameter arrays, views into one flat float64 array (see the
    module docstring): the unit FedAvg averages, SGD updates and checkpoints
    store."""

    def __init__(self, layout, flat: np.ndarray):
        self.layout = tuple((name, tuple(shape)) for name, shape in layout)
        names = [name for name, _ in self.layout]
        if len(set(names)) != len(names):
            raise ContractViolation(f"duplicate parameter names: {names}")
        sizes = [math.prod(shape) for _, shape in self.layout]
        self.flat = np.ascontiguousarray(flat, dtype=np.float64)
        if self.flat.shape != (sum(sizes),):
            raise ContractViolation(
                f"flat buffer of shape {self.flat.shape} does not hold the layout's "
                f"{sum(sizes)} values")
        self._views, offset = {}, 0
        for (name, shape), size in zip(self.layout, sizes):
            self._views[name] = self.flat[offset : offset + size].reshape(shape)
            offset += size

    @staticmethod
    def from_arrays(pairs: list[tuple[str, np.ndarray]]) -> "ParamVector":
        arrays = [(name, np.asarray(arr, dtype=np.float64)) for name, arr in pairs]
        return ParamVector([(name, arr.shape) for name, arr in arrays],
                           np.concatenate([arr.ravel() for _, arr in arrays]))

    def get(self, name: str) -> np.ndarray:
        return self._views[name]

    def items(self):
        """(name, view) pairs in layout order."""
        return self._views.items()

    def same_bytes(self, other: "ParamVector") -> bool:
        """One layout and the same bytes: -0.0 is not 0.0, and a NaN equals
        itself.  Viewing the float64 values as int64 compares their bits."""
        return (self.layout == other.layout
                and np.array_equal(self.flat.view(np.int64), other.flat.view(np.int64)))


def sgd_step(params: ParamVector, grad: dict, lr: float) -> ParamVector:
    """One plain SGD step: params - lr * grad, elementwise, with grad a dict
    in the parameters' layout order (see the module docstring)."""
    if tuple((name, g.shape) for name, g in grad.items()) != params.layout:
        raise ContractViolation("sgd_step: gradient layout does not match parameters")
    step = np.concatenate([g.ravel() for g in grad.values()])
    np.multiply(step, lr, out=step)
    np.subtract(params.flat, step, out=step)
    return ParamVector(params.layout, _ensure_finite(step, "sgd_step result"))


def clip_gradient(grad: dict, max_norm: float) -> dict:
    """Scale the whole gradient down so its global l2 norm is at most max_norm
    (summed array by array in memory order; see the module docstring)."""
    if max_norm <= 0:
        raise ContractViolation("clip_gradient: max_norm must be positive")
    total = math.sqrt(sum(float(np.sum(g**2)) for g in grad.values()))
    if total <= max_norm:
        return grad
    scale = max_norm / total
    return {name: g * scale for name, g in grad.items()}


# ---------------------------------------------------------------------------
# Dense layer
# ---------------------------------------------------------------------------


def _activate(pre: np.ndarray, activation: str, op: str, out=None) -> np.ndarray:
    """The forward ops' activation of their pre-activation, checked finite;
    out=pre activates in place."""
    if activation == "relu":
        out = np.maximum(pre, 0.0, out=out)
    elif activation == "identity":
        out = pre
    else:
        raise ContractViolation(f"unknown activation {activation!r}")
    return _ensure_finite(out, f"{op} output")


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
    return _activate(pre, activation, "dense_forward"), (x, weights, pre, activation)


def dense_backward(cache, dout, need_dx=True):
    """Returns (dx, dW, db) for the matching dense_forward call; dx is None
    when need_dx is False."""
    x, weights, pre, activation = cache
    if activation == "relu":
        dpre = dout * (pre > 0.0)
    else:
        dpre = dout
    dx = dpre @ weights.T if need_dx else None
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


# Both passes are im2col copies plus BLAS GEMMs (Chellapilla, Puri & Simard
# 2006), and their results are bit-identical to the einsum kernels they
# replaced.  That holds because each GEMM gets exactly the operand shapes and
# memory layouts the einsum contraction passed to matmul: OpenBLAS picks its
# kernel, and with it the float summation order, from shapes and transpose
# flags.  (K @ cols.T differs from K @ rows in the last ulp for some shapes,
# and F = 1 takes a matrix-vector path.)  The im2col copies are made by
# reshape, which copies only when it must, as einsum's did.  Output layouts
# are part of the contract too: the forward output and dK come back
# channel-major (laid out F-major, as the GEMM product is), dpre is
# C-contiguous, and reductions run in memory order -- clip_gradient sums
# dK**2 and db sums dpre that way -- so a C-contiguous dK with the same values
# still moves the clip norm by an ulp.  The forward applies ReLU in place on
# the array `pre + bias` made and caches that output, not the pre-activation:
# the ReLU gives the same bytes in place, and the backward mask `out > 0`
# equals `pre > 0`, so the (B, H', W', F) array the ReLU allocated is gone.
# Not reproduced: two corners where einsum changed path because size-1 axes
# left nothing to contract or made its reshapes views -- one output channel
# for one image with a one-column output (F = 1, B = 1, W' = 1), and a
# single output position (B*H'*W' = 1), where einsum multiplied instead.
# The encoder's fixed 5x5 conv -> pool -> 5x5 conv -> pool trunk never
# produces either: conv1's output is at least 12x12 and conv2's at least 2x2.


def conv2d_forward(x, kernels, bias, activation="relu"):
    """Valid cross-correlation then activation.

    x: (B, H, W, C), kernels: (k, k, C, F), bias: (F,).
    Output spatial dims shrink by k - 1.  One (k*k*C, B*H'*W') im2col copy
    and one GEMM; the bias add makes the output in the product's F-major
    layout and the activation runs in place on it, so no pre-activation array
    is kept.  The cache is (x, kernels, out, activation): conv2d_backward's
    ReLU mask reads `out > 0`, which equals `pre > 0`.  x, kernels and bias
    are only read.
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
    b, h, w, c = x.shape
    f = kernels.shape[3]
    # the im2col copy is a temporary, freed as soon as the product exists
    out = np.matmul(kernels.transpose(3, 0, 1, 2).reshape(f, -1),
                    _windows(x, k).transpose(3, 4, 5, 0, 1, 2).reshape(k * k * c, -1))
    out = out.reshape(f, b, h - k + 1, w - k + 1).transpose(1, 2, 3, 0) + bias
    out = _activate(out, activation, "conv2d_forward", out=out)
    return out, (x, kernels, out, activation)


def conv2d_backward(cache, dout, need_dx=True):
    """Returns (dx, dK, db) for the matching conv2d_forward call.

    dK is one GEMM over a (B*H'*W', k*k*C) im2col copy and comes back as an F-major view: its layout is part
    of the output contract, because clip_gradient sums dK**2 in memory order
    (see the note above conv2d_forward).  dx is one batched GEMM, k*k
    products (C, F) @ (F, B*H'*W'), scattered back with k*k shifted adds in
    row-major offset order.  need_dx=False skips dx (returned as None): the
    first layer of a stack has no one to pass it to.  dout is expected
    C-contiguous, as pool backward returns it.
    """
    x, kernels, out, activation = cache
    k, _, c, f = kernels.shape
    if activation == "relu":
        # a C-contiguous mask: a C-contiguous dout (what pool backward returns)
        # then gives the C-contiguous dpre that db's summation order assumes,
        # without a slow multiply across two layouts
        dpre = dout * np.ascontiguousarray(out > 0.0)
    else:
        dpre = dout
    b, oh, ow = dpre.shape[:3]
    d2t = dpre.transpose(3, 0, 1, 2).reshape(f, -1)
    cols = _windows(x, k).reshape(-1, k * k * c)
    dk = np.matmul(d2t, cols).reshape(f, k, k, c).transpose(1, 2, 3, 0)
    db = dpre.sum(axis=(0, 1, 2))
    if not need_dx:
        return None, dk, db
    # (k, k, C, B*H'*W') -> per offset a (B, H', W', C) view
    dcols = np.matmul(kernels, d2t).reshape(k, k, c, b, oh, ow).transpose(0, 1, 3, 4, 5, 2)
    dx = np.zeros_like(x)
    for i in range(k):
        for j in range(k):
            dx[:, i : i + oh, j : j + ow, :] += dcols[i, j]
    return dx, dk, db


def _pool_quads(x, h2, w2):
    """The four cells of every 2x2 window, in row-major window order."""
    return [x[:, i : 2 * h2 : 2, j : 2 * w2 : 2, :] for i in (0, 1) for j in (0, 1)]


def maxpool2x2(x):
    """2x2 max pooling with stride 2; odd trailing rows/columns are truncated.

    Returns (out, cache); cache records which cell of each window won (the
    first of equal maxima, as argmax would pick), so the backward pass routes
    gradients to exactly one input cell.  Inputs must be finite, as
    conv2d_forward's outputs are.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 4:
        raise ContractViolation(f"maxpool2x2: expected NHWC batch, got shape {x.shape}")
    h2, w2 = x.shape[1] // 2, x.shape[2] // 2
    if h2 == 0 or w2 == 0:
        raise ContractViolation(f"maxpool2x2: spatial dims {x.shape[1]}x{x.shape[2]} too small")
    quads = _pool_quads(x, h2, w2)
    take = quads[1] > quads[0]
    out = np.where(take, quads[1], quads[0])
    winner = take.view(np.int8)
    for n in (2, 3):
        take = quads[n] > out
        out = np.where(take, quads[n], out)
        winner = np.where(take, np.int8(n), winner)
    return out, (x.shape, winner)


def maxpool2x2_backward(cache, dout):
    in_shape, winner = cache
    dx = np.zeros(in_shape)
    for n, cell in enumerate(_pool_quads(dx, *winner.shape[1:3])):
        cell[...] = np.where(winner == n, dout, 0.0)
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


def gaussian_kl_batch(mu, log_sigma):
    """Batch-mean KL(N(mu, diag sigma^2) || N(0, I)) and its gradients.

    mu, log_sigma: (B, d).  A row's KL is in closed form, the sum over
    dimensions of 0.5 * (mu^2 + sigma^2 - 1 - 2 log sigma).  Returns
    (mean_kl, dmu, dlog_sigma) where the gradients are of the batch mean:
    dmu = mu / B, dlog_sigma = (sigma^2 - 1) / B.
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
