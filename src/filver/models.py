"""Encoder variants, the classifier head, and their training losses.

Three encoder kinds share one trunk architecture:

  random_projection  frozen at initialization, never trained
  ebr                deterministic embedding head, trained on a classification probe
  vee                two heads (mu, log sigma); embeddings are reparameterized draws

The conv trunk is two 5x5 convolutions with ReLU, each followed by 2x2 max
pooling, then two dense layers; the mlp trunk is the two dense layers alone.
Classifiers are plain ReLU MLPs over the embedding space.  Parameters live in
ParamVectors and gradients are dicts in the parameters' layout order; the
model objects here hold only architecture, so forward and backward calls stay
pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .errors import ContractViolation
from .numcore import ParamVector
from .rng import RngStream

# Rows per frozen-encoder forward pass in encode_for_eval.  At 64 rows the
# desk conv1 im2col copy (25 x 64*24*24 float64) is 7 MB; a 512-row chunk's
# is 59 MB and would set the whole run's peak memory.  The smaller working
# set is also faster: 10,000 desk rows embed in 1.6 s against 2.6 s at 512
# rows (one core of a 2-core x86 host).  The size can change the bytes: BLAS
# picks its kernel path by operand height, and rows of a 531-row set embedded
# in calls of 1 to 133 rows differed from the same rows in 64-row chunks (one
# BLAS thread; Haswell: at every odd height tried, for mlp and desk conv
# encoders alike; SkylakeX: one-row calls for desk conv, most heights for a
# 784-96-48 mlp and a 16x16 conv with channels (16, 32)).  test_models pins
# equal bytes for sizes 2, 64 and 512 only on sets whose final chunk has an
# odd height at each of them (515 and 577 rows).
EVAL_CHUNK = 64
PRETRAIN_CLIP_NORM = 5.0  # global gradient-norm clip in pretrain_encoder


@dataclass
class EncoderSpec:
    kind: str  # random_projection | ebr | vee
    input_dims: tuple  # (H, W) image shape or (n,) flat
    embed_dim: int
    arch: str  # conv | mlp
    hidden: int
    conv_channels: tuple = (16, 32)

    def __post_init__(self):
        if self.kind not in ("random_projection", "ebr", "vee"):
            raise ContractViolation(f"unknown encoder kind {self.kind!r}")
        if self.arch not in ("conv", "mlp"):
            raise ContractViolation(f"unknown encoder arch {self.arch!r}")
        if self.embed_dim <= 0:
            raise ContractViolation("embed_dim must be positive")
        self.input_dims = tuple(int(v) for v in self.input_dims)


@dataclass
class ClassifierSpec:
    classes: int
    hidden: int
    layers: int = 2

    def __post_init__(self):
        if self.layers < 0:
            raise ContractViolation("classifier hidden layer count must be >= 0")
        if self.classes < 2:
            raise ContractViolation("classifier needs at least two classes")


@dataclass
class GaussianStats:
    """Per-example embedding statistics (mu, log sigma); rows are examples."""

    mu: np.ndarray
    log_sigma: np.ndarray

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=np.float64)
        self.log_sigma = np.asarray(self.log_sigma, dtype=np.float64)
        if self.mu.shape != self.log_sigma.shape:
            raise ContractViolation("mu and log_sigma shapes differ")


@dataclass
class ModelConfig:
    """Everything that fixes a run's encoder and classifier: both specs, the
    KL weight beta of ver_loss, and the pretraining schedule.  The federated
    run and the offline reference take it whole."""

    encoder: EncoderSpec
    classifier: ClassifierSpec
    beta: float
    pretrain_epochs: int
    pretrain_lr: float

    def __post_init__(self):
        if not np.isfinite(self.beta) or self.beta < 0:
            raise ContractViolation("beta must be finite and non-negative")

    def build(self):
        """(EncoderModel, ClassifierModel) for the two specs."""
        return EncoderModel(self.encoder), ClassifierModel(self.classifier, self.encoder.embed_dim)


# ---------------------------------------------------------------------------
# Layer stack
# ---------------------------------------------------------------------------


class _Dense:
    def __init__(self, name, n_in, n_out, activation):
        self.name = name
        self.n_in = n_in
        self.n_out = n_out
        self.activation = activation

    def init_arrays(self, rng: RngStream):
        # He init for ReLU layers, Xavier-ish for linear heads
        scale = np.sqrt(2.0 / self.n_in) if self.activation == "relu" else np.sqrt(1.0 / self.n_in)
        w = rng.normal((self.n_in, self.n_out)) * scale
        b = np.zeros(self.n_out)
        return [(f"{self.name}.w", w), (f"{self.name}.b", b)]

    def forward(self, params, x):
        return nc.dense_forward(x, params.get(f"{self.name}.w"), params.get(f"{self.name}.b"),
                                self.activation)

    def backward(self, params, cache, dout, grads, need_dx=True):
        dx, dw, db = nc.dense_backward(cache, dout, need_dx)
        grads[f"{self.name}.w"] = dw
        grads[f"{self.name}.b"] = db
        return dx


class _Conv:
    def __init__(self, name, c_in, c_out, kernel=5):
        self.name = name
        self.c_in = c_in
        self.c_out = c_out
        self.kernel = kernel

    def init_arrays(self, rng: RngStream):
        fan_in = self.kernel * self.kernel * self.c_in
        k = rng.normal((self.kernel, self.kernel, self.c_in, self.c_out)) * np.sqrt(2.0 / fan_in)
        b = np.zeros(self.c_out)
        return [(f"{self.name}.k", k), (f"{self.name}.b", b)]

    def forward(self, params, x):
        return nc.conv2d_forward(x, params.get(f"{self.name}.k"), params.get(f"{self.name}.b"),
                                 "relu")

    def backward(self, params, cache, dout, grads, need_dx=True):
        dx, dk, db = nc.conv2d_backward(cache, dout, need_dx)
        grads[f"{self.name}.k"] = dk
        grads[f"{self.name}.b"] = db
        return dx


class _Pool:
    def __init__(self, name):
        self.name = name

    def init_arrays(self, rng):
        return []

    def forward(self, params, x):
        return nc.maxpool2x2(x)

    def backward(self, params, cache, dout, grads, need_dx=True):
        return nc.maxpool2x2_backward(cache, dout)


class _Flatten:
    def __init__(self, name):
        self.name = name

    def init_arrays(self, rng):
        return []

    def forward(self, params, x):
        return x.reshape(x.shape[0], -1), x.shape

    def backward(self, params, cache, dout, grads, need_dx=True):
        return dout.reshape(cache)


def _stack_forward(layers, params, x):
    caches = []
    for layer in layers:
        x, cache = layer.forward(params, x)
        caches.append(cache)
    return x, caches


def _stack_backward(layers, params, caches, dout, grads, input_grad=True):
    """Backward through the stack, filling grads; returns the gradient with
    respect to the stack's input, or None when input_grad is False (the first
    layer then skips computing it)."""
    for n, (layer, cache) in enumerate(zip(reversed(layers), reversed(caches))):
        dout = layer.backward(params, cache, dout, grads, input_grad or n < len(layers) - 1)
    return dout


def _in_layout_order(params: ParamVector, grads: dict) -> dict:
    """The gradient dict a backward pass filled (last layer first), in the
    parameters' layout order, which clip_gradient and sgd_step expect."""
    return {name: grads[name] for name, _ in params.layout}


# ---------------------------------------------------------------------------
# Encoder
# ---------------------------------------------------------------------------


class EncoderModel:
    """Architecture object for one encoder spec; parameters are passed per call."""

    def __init__(self, spec: EncoderSpec):
        self.spec = spec
        if spec.arch == "conv":
            if len(spec.input_dims) not in (2, 3):
                raise ContractViolation("conv arch expects (H, W) or (H, W, C) input dims")
            h, w = spec.input_dims[0], spec.input_dims[1]
            c_in = spec.input_dims[2] if len(spec.input_dims) == 3 else 1
            c1, c2 = spec.conv_channels
            h1, w1 = (h - 4) // 2, (w - 4) // 2
            h2, w2 = (h1 - 4) // 2, (w1 - 4) // 2
            if h2 < 1 or w2 < 1:
                raise ContractViolation(f"input {h}x{w} too small for two 5x5 conv stages")
            self.trunk = [
                _Conv("conv1", c_in, c1),
                _Pool("pool1"),
                _Conv("conv2", c1, c2),
                _Pool("pool2"),
                _Flatten("flatten"),
                _Dense("fc1", h2 * w2 * c2, spec.hidden, "relu"),
                _Dense("fc2", spec.hidden, spec.hidden, "relu"),
            ]
        else:
            if len(spec.input_dims) != 1:
                raise ContractViolation("mlp arch expects flat (n,) input dims")
            n = spec.input_dims[0]
            self.trunk = [
                _Dense("fc1", n, spec.hidden, "relu"),
                _Dense("fc2", spec.hidden, spec.hidden, "relu"),
            ]
        if spec.kind == "vee":
            self.heads = [
                _Dense("mu", spec.hidden, spec.embed_dim, "identity"),
                _Dense("log_sigma", spec.hidden, spec.embed_dim, "identity"),
            ]
        else:
            self.heads = [_Dense("embed", spec.hidden, spec.embed_dim, "identity")]

    def init_params(self, rng: RngStream) -> ParamVector:
        pairs = []
        for layer in self.trunk + self.heads:
            pairs.extend(layer.init_arrays(rng.child("layer", layer.name)))
        return ParamVector.from_arrays(pairs)

    def _prepare_input(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if self.spec.arch == "conv":
            if x.ndim == 3:  # (B, H, W) grayscale
                x = x[..., None]
            if x.ndim != 4:
                raise ContractViolation(f"conv encoder expects image batch, got {x.shape}")
        else:
            if x.ndim > 2:
                x = x.reshape(x.shape[0], -1)
        return x

    def trunk_forward(self, params, x):
        return _stack_forward(self.trunk, params, self._prepare_input(x))

    def stats_forward(self, params, x):
        """VEE heads: (mu, log_sigma, caches). log_sigma is clamped to its band."""
        if self.spec.kind != "vee":
            raise ContractViolation("stats_forward requires a vee encoder")
        h, trunk_caches = self.trunk_forward(params, x)
        mu, mu_cache = self.heads[0].forward(params, h)
        log_sigma_raw, ls_cache = self.heads[1].forward(params, h)
        log_sigma = np.clip(log_sigma_raw, -nc.LOG_SIGMA_MAX, nc.LOG_SIGMA_MAX)
        clip_mask = (log_sigma_raw > -nc.LOG_SIGMA_MAX) & (log_sigma_raw < nc.LOG_SIGMA_MAX)
        return mu, log_sigma, (trunk_caches, mu_cache, ls_cache, clip_mask)

    def stats_backward(self, params, caches, d_mu, d_log_sigma) -> dict:
        trunk_caches, mu_cache, ls_cache, clip_mask = caches
        grads: dict = {}
        dh = self.heads[0].backward(params, mu_cache, d_mu, grads)
        dh = dh + self.heads[1].backward(params, ls_cache, d_log_sigma * clip_mask, grads)
        _stack_backward(self.trunk, params, trunk_caches, dh, grads, input_grad=False)
        return _in_layout_order(params, grads)

    def embed_forward(self, params, x):
        """Deterministic head output: (z, caches)."""
        if self.spec.kind == "vee":
            raise ContractViolation("embed_forward requires a deterministic encoder")
        h, trunk_caches = self.trunk_forward(params, x)
        z, head_cache = self.heads[0].forward(params, h)
        return z, (trunk_caches, head_cache)

    def embed_backward(self, params, caches, dz) -> dict:
        trunk_caches, head_cache = caches
        grads: dict = {}
        dh = self.heads[0].backward(params, head_cache, dz, grads)
        _stack_backward(self.trunk, params, trunk_caches, dh, grads, input_grad=False)
        return _in_layout_order(params, grads)


def encode_for_eval(encoder: EncoderModel, params: ParamVector, x):
    """Noise-free forward pass over a whole set, EVAL_CHUNK rows at a time.

    Returns (mu, log_sigma) for a vee encoder and (z, None) otherwise; the
    first array is the embedding used for evaluation and deterministic
    replay, and log_sigma is what a reparameterized draw needs besides it.

    A one-row remainder joins the chunk before it: numpy hands a one-row
    product to BLAS gemv, whose sums differ from gemm's in the last ulp, so
    a lone last row would get other bytes than the same row inside a chunk.
    """
    variational = encoder.spec.kind == "vee"
    starts = list(range(0, len(x), EVAL_CHUNK))
    if len(starts) > 1 and len(x) - starts[-1] == 1:
        del starts[-1]
    heads, log_sigmas = [], []
    for lo, hi in zip(starts, starts[1:] + [len(x)]):
        if variational:
            mu, log_sigma, _ = encoder.stats_forward(params, x[lo:hi])
            heads.append(mu)
            log_sigmas.append(log_sigma)
        else:
            heads.append(encoder.embed_forward(params, x[lo:hi])[0])
    return np.concatenate(heads), (np.concatenate(log_sigmas) if variational else None)


# ---------------------------------------------------------------------------
# Classifier
# ---------------------------------------------------------------------------


class ClassifierModel:
    def __init__(self, spec: ClassifierSpec, embed_dim: int):
        self.spec = spec
        self.embed_dim = embed_dim
        layers = []
        n_in = embed_dim
        for i in range(spec.layers):
            layers.append(_Dense(f"cls{i + 1}", n_in, spec.hidden, "relu"))
            n_in = spec.hidden
        layers.append(_Dense("cls_out", n_in, spec.classes, "identity"))
        self.layers = layers

    def init_params(self, rng: RngStream) -> ParamVector:
        pairs = []
        for layer in self.layers:
            pairs.extend(layer.init_arrays(rng.child("layer", layer.name)))
        return ParamVector.from_arrays(pairs)

    def forward(self, params, z):
        z = np.asarray(z, dtype=np.float64)
        if z.ndim == 1:
            z = z[None, :]
        if z.shape[1] != self.embed_dim:
            raise ContractViolation(
                f"classifier: embedding dim {z.shape[1]} != expected {self.embed_dim}"
            )
        return _stack_forward(self.layers, params, z)

    def backward(self, params, caches, dlogits):
        grads: dict = {}
        dz = _stack_backward(self.layers, params, caches, dlogits, grads)
        return _in_layout_order(params, grads), dz


def _head_cross_entropy(classifier: ClassifierModel, params: ParamVector, z, labels):
    """Batch-mean cross-entropy of the classifier on embeddings z:
    (loss, parameter gradient, gradient with respect to z)."""
    logits, caches = classifier.forward(params, z)
    loss, dlogits = nc.softmax_cross_entropy(logits, labels)
    grads, dz = classifier.backward(params, caches, dlogits)
    return loss, grads, dz


def classifier_loss_and_grad(classifier: ClassifierModel, params: ParamVector, z, labels):
    """Cross-entropy on embeddings: (loss, param gradient).  The local and
    server training steps both reduce to this once the encoder is frozen;
    nothing needs the gradient with respect to z, so the first layer skips it."""
    logits, caches = classifier.forward(params, z)
    loss, dlogits = nc.softmax_cross_entropy(logits, labels)
    grads: dict = {}
    _stack_backward(classifier.layers, params, caches, dlogits, grads, input_grad=False)
    return loss, _in_layout_order(params, grads)


def classifier_accuracy(classifier: ClassifierModel, params: ParamVector, z, labels) -> float:
    logits, _ = classifier.forward(params, z)
    return float((nc.predictions(logits) == np.asarray(labels)).mean())


# ---------------------------------------------------------------------------
# Composite loss: cross-entropy of a sampled embedding plus beta * KL
# ---------------------------------------------------------------------------


@dataclass
class VerLossResult:
    loss: float
    ce: float
    kl: float
    d_mu: np.ndarray
    d_log_sigma: np.ndarray
    classifier_grad: dict


def ver_loss(stats: GaussianStats, z, eps, labels, classifier: ClassifierModel,
             classifier_params: ParamVector, beta: float) -> VerLossResult:
    """loss = CE(classify(z), y) + beta * KL(stats || N(0, I)), batch-mean.

    z must be the reparameterized draw mu + sigma * eps for the given stats;
    gradients reach mu and log_sigma through both the CE term (via eps) and
    the KL term.
    """
    ce, clf_grads, dz = _head_cross_entropy(classifier, classifier_params, z, labels)
    kl, dmu_kl, dls_kl = nc.gaussian_kl_batch(stats.mu, stats.log_sigma)
    sigma = nc.sigma_from_log(stats.log_sigma)
    d_mu = dz + beta * dmu_kl
    d_log_sigma = dz * sigma * eps + beta * dls_kl
    return VerLossResult(
        loss=ce + beta * kl,
        ce=ce,
        kl=kl,
        d_mu=d_mu,
        d_log_sigma=d_log_sigma,
        classifier_grad=clf_grads,
    )


# ---------------------------------------------------------------------------
# Pretraining: fit the encoder on first-task data, then freeze it
# ---------------------------------------------------------------------------


def pretrain_encoder(task0_images, task0_labels, classes: int, encoder: EncoderModel,
                     epochs: int, lr: float, rng: RngStream, *, beta: float,
                     batch_size: int = 32, on_epoch=None) -> ParamVector:
    """Train the encoder against a throwaway linear probe; return its parameters.

    A vee encoder takes each step through ver_loss on one reparameterized
    draw; a deterministic one through the probe's cross-entropy alone.

    random_projection encoders are returned at initialization, untrained.
    Gradients are clipped to a global norm of PRETRAIN_CLIP_NORM, which keeps the
    from-scratch SGD from blowing up on unlucky initializations.  Callers
    must treat the result as frozen.  on_epoch, when given, receives
    (epoch_index, {"ce": ..., "kl": ...}) after each pass.
    """
    n = len(task0_labels)
    if n == 0:
        raise ContractViolation("pretrain_encoder: empty dataset")
    params = encoder.init_params(rng.child("encoder_init"))
    if encoder.spec.kind == "random_projection":
        return params

    # a linear head: its single layer draws straight from the probe stream
    probe = ClassifierModel(ClassifierSpec(classes, hidden=0, layers=0), encoder.spec.embed_dim)
    probe_params = ParamVector.from_arrays(probe.layers[0].init_arrays(rng.child("probe_init")))
    labels = np.asarray(task0_labels)

    for epoch in range(epochs):
        order = rng.child("pretrain_shuffle", epoch).permutation(n)
        ce_sum, kl_sum, batches = 0.0, 0.0, 0
        for start in range(0, n, batch_size):
            take = order[start : start + batch_size]
            xb, yb = task0_images[take], labels[take]
            if encoder.spec.kind == "vee":
                mu, log_sigma, caches = encoder.stats_forward(params, xb)
                z, eps = nc.reparam_sample(mu, log_sigma, rng.child("pretrain_eps", epoch, start))
                res = ver_loss(GaussianStats(mu, log_sigma), z, eps, yb, probe, probe_params, beta)
                enc_grad = encoder.stats_backward(params, caches, res.d_mu, res.d_log_sigma)
                ce, probe_grad = res.ce, res.classifier_grad
                kl_sum += res.kl
            else:
                z, caches = encoder.embed_forward(params, xb)
                ce, probe_grad, dz = _head_cross_entropy(probe, probe_params, z, yb)
                enc_grad = encoder.embed_backward(params, caches, dz)
            params = nc.sgd_step(params, nc.clip_gradient(enc_grad, PRETRAIN_CLIP_NORM), lr)
            probe_params = nc.sgd_step(probe_params,
                                       nc.clip_gradient(probe_grad, PRETRAIN_CLIP_NORM), lr)
            ce_sum += ce
            batches += 1
        if on_epoch is not None:
            on_epoch(epoch, {"ce": ce_sum / batches, "kl": kl_sum / batches})
    return params
