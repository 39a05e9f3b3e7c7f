"""Encoder/classifier wiring: composite-loss gradients against finite
differences, clamping, freezing, pretraining, and checkpoint round-trips."""

import numpy as np
import pytest

import filver.numcore as nc
from filver import models, storage
from filver.errors import ContractViolation
from filver.models import (EVAL_CHUNK, ClassifierModel, ClassifierSpec, EncoderModel,
                           EncoderSpec, GaussianStats, ModelConfig, classifier_accuracy,
                           classifier_loss_and_grad, encode_for_eval, pretrain_encoder,
                           ver_loss)
from filver.rng import RngStream

from conftest import fd_params, jittered_params, min_abs_dense_pre, packed
import oracles
from oracles import rel_err

FD_TOL = 1e-4


# ---------------------------------------------------------------------------
# Spec validation and shapes
# ---------------------------------------------------------------------------

def test_conv_encoder_shapes():
    spec = EncoderSpec("ebr", (28, 28), embed_dim=16, arch="conv", hidden=32,
                       conv_channels=(4, 6))
    model = EncoderModel(spec)
    params = model.init_params(RngStream(1))
    x = RngStream(2).uniform(shape=(3, 28, 28))
    z, log_sigma = encode_for_eval(model, params, x)
    assert z.shape == (3, 16) and log_sigma is None


def test_conv_encoder_rejects_small_input():
    with pytest.raises(ContractViolation):
        EncoderModel(EncoderSpec("ebr", (12, 12), embed_dim=8, arch="conv", hidden=16))


def test_mlp_encoder_rejects_image_dims():
    with pytest.raises(ContractViolation):
        EncoderModel(EncoderSpec("ebr", (8, 8), embed_dim=8, arch="mlp", hidden=16))


@pytest.mark.parametrize("beta", [-1e-3, float("nan"), float("inf")])
def test_model_config_rejects_a_negative_or_non_finite_beta(beta):
    encoder = EncoderSpec("vee", (6,), embed_dim=4, arch="mlp", hidden=8)
    with pytest.raises(ContractViolation, match="beta"):
        ModelConfig(encoder, ClassifierSpec(classes=3, hidden=8), beta=beta,
                    pretrain_epochs=1, pretrain_lr=0.05)


def test_head_kind_enforcement(tiny_mlp_vee, tiny_mlp_ebr):
    vee_params = tiny_mlp_vee.init_params(RngStream(3))
    ebr_params = tiny_mlp_ebr.init_params(RngStream(3))
    x = RngStream(4).normal((2, 6))
    with pytest.raises(ContractViolation):
        tiny_mlp_vee.embed_forward(vee_params, x)
    with pytest.raises(ContractViolation):
        tiny_mlp_ebr.stats_forward(ebr_params, x)


def test_encoder_forward_deterministic(tiny_mlp_vee):
    params = jittered_params(tiny_mlp_vee, RngStream(5))
    x = RngStream(6).normal((4, 6))
    mu1, ls1, _ = tiny_mlp_vee.stats_forward(params, x)
    mu2, ls2, _ = tiny_mlp_vee.stats_forward(params, x)
    assert np.array_equal(mu1, mu2) and np.array_equal(ls1, ls2)


def test_encode_for_eval_is_noise_free(tiny_mlp_vee, tiny_mlp_ebr):
    x = RngStream(10).normal((3, 6))
    vp = jittered_params(tiny_mlp_vee, RngStream(11))
    mu, log_sigma, _ = tiny_mlp_vee.stats_forward(vp, x)
    got_mu, got_log_sigma = encode_for_eval(tiny_mlp_vee, vp, x)
    assert np.array_equal(got_mu, mu) and np.array_equal(got_log_sigma, log_sigma)
    ep = jittered_params(tiny_mlp_ebr, RngStream(12))
    z, _ = tiny_mlp_ebr.embed_forward(ep, x)
    got_z, none = encode_for_eval(tiny_mlp_ebr, ep, x)
    assert np.array_equal(got_z, z) and none is None


def test_encode_for_eval_chunks_long_sets(tiny_mlp_vee):
    n = 2 * EVAL_CHUNK + 7
    x = RngStream(13).normal((n, 6))
    params = jittered_params(tiny_mlp_vee, RngStream(14))
    mu, log_sigma = encode_for_eval(tiny_mlp_vee, params, x)
    assert mu.shape == log_sigma.shape == (n, 4)
    tail_mu, tail_ls, _ = tiny_mlp_vee.stats_forward(params, x[2 * EVAL_CHUNK:])
    assert np.array_equal(mu[2 * EVAL_CHUNK:], tail_mu)
    assert np.array_equal(log_sigma[2 * EVAL_CHUNK:], tail_ls)


@pytest.mark.parametrize("kind", ["vee", "ebr"])
def test_encode_for_eval_bytes_do_not_depend_on_chunk_size(kind, monkeypatch, one_blas_thread):
    # desk-shaped conv encoder (the desk-split4 preset's model.* values) on
    # more rows than the largest chunk: 515 ends every size on a partial
    # chunk, 577 leaves a one-row remainder at sizes 2 and 64
    spec = EncoderSpec(kind, (28, 28), embed_dim=48, arch="conv", hidden=96,
                       conv_channels=(8, 16))
    encoder = EncoderModel(spec)
    params = jittered_params(encoder, RngStream(17))
    for n in (515, 577):
        x = RngStream(18).uniform(shape=(n, 28, 28))
        outputs = []
        for chunk in (2, 64, 512):
            monkeypatch.setattr(models, "EVAL_CHUNK", chunk)
            outputs.append(encode_for_eval(encoder, params, x))
        for head, log_sigma in outputs[1:]:
            assert head.tobytes() == outputs[0][0].tobytes()
            if kind == "vee":
                assert log_sigma.tobytes() == outputs[0][1].tobytes()
            else:
                assert log_sigma is None


# ---------------------------------------------------------------------------
# Composite loss gradient: CE(classifier(mu + sigma * eps)) + beta * KL,
# with eps held fixed, checked coordinate-by-coordinate against central
# finite differences through both networks.
# ---------------------------------------------------------------------------

def _composite_instance(encoder, classifier, seed):
    """A kink-free (params, inputs) draw for the FD run."""
    rng = RngStream(seed)
    for attempt in range(100):
        sub = rng.child(attempt)
        enc_params = jittered_params(encoder, sub.child("enc"))
        cls_params = jittered_params(classifier, sub.child("cls"))
        x = sub.child("x").normal((5, 6))
        y = sub.child("y").integers(0, 3, shape=5)
        eps = sub.child("eps").normal((5, 4))

        mu, log_sigma, caches = encoder.stats_forward(enc_params, x)
        trunk_caches, _, _, clip_mask = caches
        z = mu + nc.sigma_from_log(log_sigma) * eps
        _, cls_caches = classifier.forward(cls_params, z)
        margin = min(min_abs_dense_pre(trunk_caches), min_abs_dense_pre(cls_caches))
        if margin > 2e-3 and clip_mask.all():
            return enc_params, cls_params, x, y, eps
    raise AssertionError("could not sample a kink-free composite instance")


def _composite_loss(encoder, classifier, enc_params, cls_params, x, y, eps, beta):
    mu, log_sigma, _ = encoder.stats_forward(enc_params, x)
    z = mu + nc.sigma_from_log(log_sigma) * eps
    logits, _ = classifier.forward(cls_params, z)
    ce, _ = nc.softmax_cross_entropy(logits, y)
    kl, _, _ = nc.gaussian_kl_batch(mu, log_sigma)
    return ce + beta * kl


def test_composite_loss_gradients_match_fd(tiny_mlp_vee, tiny_classifier):
    encoder, classifier = tiny_mlp_vee, tiny_classifier
    beta = 0.05
    worst_enc, worst_cls = 0.0, 0.0
    for i in range(50):
        enc_params, cls_params, x, y, eps = _composite_instance(encoder, classifier, 1000 + i)

        mu, log_sigma, caches = encoder.stats_forward(enc_params, x)
        z = mu + nc.sigma_from_log(log_sigma) * eps
        res = ver_loss(GaussianStats(mu, log_sigma), z, eps, y, classifier, cls_params, beta)
        enc_grad = encoder.stats_backward(enc_params, caches, res.d_mu, res.d_log_sigma)

        check = _composite_loss(encoder, classifier, enc_params, cls_params, x, y, eps, beta)
        assert abs(check - res.loss) < 1e-12

        # h = 1e-5 keeps FD roundoff noise ~1e-9; coordinates smaller than
        # a thousandth of the gradient's largest entry are compared
        # absolutely (their relative error is FD noise, not information)
        fd_enc = fd_params(
            lambda p: _composite_loss(encoder, classifier, p, cls_params, x, y, eps, beta),
            enc_params, h=1e-5)
        floor = 1e-3 * float(np.abs(packed(enc_grad)).max())
        worst_enc = max(worst_enc,
                        float(rel_err(packed(enc_grad), fd_enc.flat, floor=floor).max()))

        fd_cls = fd_params(
            lambda p: _composite_loss(encoder, classifier, enc_params, p, x, y, eps, beta),
            cls_params, h=1e-5)
        floor = 1e-3 * float(np.abs(packed(res.classifier_grad)).max())
        worst_cls = max(worst_cls,
                        float(rel_err(packed(res.classifier_grad), fd_cls.flat,
                                      floor=floor).max()))
    assert worst_enc < FD_TOL, f"encoder path max rel err {worst_enc}"
    assert worst_cls < FD_TOL, f"classifier path max rel err {worst_cls}"


def test_ver_loss_beta_zero_reduces_to_cross_entropy(tiny_mlp_vee, tiny_classifier):
    enc_params, cls_params, x, y, eps = _composite_instance(tiny_mlp_vee, tiny_classifier, 77)
    mu, log_sigma, _ = tiny_mlp_vee.stats_forward(enc_params, x)
    sigma = nc.sigma_from_log(log_sigma)
    z = mu + sigma * eps
    res = ver_loss(GaussianStats(mu, log_sigma), z, eps, y, tiny_classifier, cls_params, 0.0)
    ce, _ = nc.softmax_cross_entropy(tiny_classifier.forward(cls_params, z)[0], y)
    assert res.loss == ce and res.ce == ce
    assert res.kl > 0  # still reported for monitoring

    # with no KL pull the log-sigma gradient is purely the CE path dz*sigma*eps
    logits, caches = tiny_classifier.forward(cls_params, z)
    _, dlogits = nc.softmax_cross_entropy(logits, y)
    _, dz = tiny_classifier.backward(cls_params, caches, dlogits)
    assert np.allclose(res.d_log_sigma, dz * sigma * eps, atol=1e-15)
    assert np.allclose(res.d_mu, dz, atol=1e-15)


def test_clamped_log_sigma_blocks_its_gradient(tiny_mlp_vee, tiny_classifier):
    enc_params, cls_params, x, y, eps = _composite_instance(tiny_mlp_vee, tiny_classifier, 88)
    pushed = nc.ParamVector(enc_params.layout, enc_params.flat.copy())
    pushed.get("log_sigma.b")[...] += 1000.0

    mu, log_sigma, caches = tiny_mlp_vee.stats_forward(pushed, x)
    assert (log_sigma == nc.LOG_SIGMA_MAX).all()
    z = mu + nc.sigma_from_log(log_sigma) * eps
    res = ver_loss(GaussianStats(mu, log_sigma), z, eps, y, tiny_classifier, cls_params, 0.05)
    grad = tiny_mlp_vee.stats_backward(pushed, caches, res.d_mu, res.d_log_sigma)
    assert np.array_equal(grad.get("log_sigma.b"), np.zeros(4))
    assert np.array_equal(grad.get("log_sigma.w"), np.zeros((8, 4)))
    assert np.abs(grad.get("mu.w")).max() > 0  # mu path still flows


def test_gaussian_stats_shape_check():
    with pytest.raises(ContractViolation):
        GaussianStats(np.zeros((2, 2)), np.zeros((3, 2)))


# ---------------------------------------------------------------------------
# Classifier
# ---------------------------------------------------------------------------

def test_classifier_promotes_single_embedding(tiny_classifier):
    params = tiny_classifier.init_params(RngStream(20))
    logits, _ = tiny_classifier.forward(params, np.zeros(4))
    assert logits.shape == (1, 3)


def test_classifier_rejects_wrong_dim(tiny_classifier):
    params = tiny_classifier.init_params(RngStream(21))
    with pytest.raises(ContractViolation):
        tiny_classifier.forward(params, np.zeros((2, 5)))


def test_classifier_loss_grad_matches_fd(tiny_classifier):
    rng = RngStream(22)
    for i in range(5):
        params = jittered_params(tiny_classifier, rng.child(i))
        z = rng.child("z", i).normal((6, 4))
        y = rng.child("y", i).integers(0, 3, shape=6)
        _, caches = tiny_classifier.forward(params, z)
        if min_abs_dense_pre(caches) < 2e-3:
            continue
        _, grad = classifier_loss_and_grad(tiny_classifier, params, z, y)
        fd = fd_params(lambda p: classifier_loss_and_grad(tiny_classifier, p, z, y)[0], params)
        assert rel_err(packed(grad), fd.flat).max() < FD_TOL


def test_classifier_accuracy_counts_argmax_hits(tiny_classifier):
    params = tiny_classifier.init_params(RngStream(23))
    z = RngStream(24).normal((10, 4))
    logits, _ = tiny_classifier.forward(params, z)
    y = logits.argmax(axis=1)
    assert classifier_accuracy(tiny_classifier, params, z, y) == 1.0
    y_wrong = (y + 1) % 3
    assert classifier_accuracy(tiny_classifier, params, z, y_wrong) == 0.0


# ---------------------------------------------------------------------------
# Conv encoder gradients against the einsum/argmax kernels
# ---------------------------------------------------------------------------

def _use_oracle_conv_kernels(monkeypatch):
    """Route the layer stack through the kernels the GEMM ones replaced; the
    oracle backward computes every input gradient, conv1's included."""
    monkeypatch.setattr(nc, "conv2d_forward", oracles.conv2d_forward)
    monkeypatch.setattr(nc, "conv2d_backward",
                        lambda cache, dout, need_dx=True: oracles.conv2d_backward(cache, dout))
    monkeypatch.setattr(nc, "maxpool2x2", oracles.maxpool2x2)
    monkeypatch.setattr(nc, "maxpool2x2_backward", oracles.maxpool2x2_backward)


def _encoder_grads(model, params, x, rng):
    if model.spec.kind == "vee":
        mu, log_sigma, caches = model.stats_forward(params, x)
        d_mu, d_ls = rng.child("d_mu").normal(mu.shape), rng.child("d_ls").normal(mu.shape)
        return (mu, log_sigma), model.stats_backward(params, caches, d_mu, d_ls)
    z, caches = model.embed_forward(params, x)
    return (z,), model.embed_backward(params, caches, rng.child("dz").normal(z.shape))


@pytest.mark.parametrize("kind", ["vee", "ebr"])
@pytest.mark.parametrize("image,channels,batch", [(28, (8, 16), 32), (16, (4, 6), 7)])
def test_conv_encoder_gradient_matches_the_einsum_stack_bit_for_bit(monkeypatch, kind, image,
                                                                   channels, batch):
    model = EncoderModel(EncoderSpec(kind, (image, image), embed_dim=12, arch="conv",
                                     hidden=24, conv_channels=channels))
    params = model.init_params(RngStream(50))
    x = RngStream(51).uniform(shape=(batch, image, image))
    # a second set of parameters after one SGD step has the memory layout
    # the training loop feeds back in (kernel gradients are F-major views)
    for step in range(2):
        heads, grad = _encoder_grads(model, params, x, RngStream(52).child(step))
        with monkeypatch.context() as m:
            _use_oracle_conv_kernels(m)
            ref_heads, ref_grad = _encoder_grads(model, params, x, RngStream(52).child(step))
        assert all(np.array_equal(a, b) for a, b in zip(heads, ref_heads))
        assert [(name, g.shape) for name, g in grad.items()] == \
            [(name, g.shape) for name, g in ref_grad.items()]
        for (name, g), ref in zip(grad.items(), ref_grad.values()):
            assert np.array_equal(g, ref), name
            assert np.sum(g**2).tobytes() == np.sum(ref**2).tobytes(), name
        clipped, ref_clipped = nc.clip_gradient(grad, 1e-3), nc.clip_gradient(ref_grad, 1e-3)
        assert packed(clipped).tobytes() == packed(ref_clipped).tobytes()
        params = nc.sgd_step(params, ref_clipped, 0.1)


# ---------------------------------------------------------------------------
# Pretraining
# ---------------------------------------------------------------------------

def _blob_toy(seed, n_per=40, classes=3, d=6):
    rng = RngStream(seed)
    centers = rng.child("c").normal((classes, d)) * 2.5
    xs, ys = [], []
    for k in range(classes):
        xs.append(centers[k] + 0.3 * rng.child("n", k).normal((n_per, d)))
        ys.append(np.full(n_per, k))
    return np.concatenate(xs), np.concatenate(ys).astype(np.int64)


def test_pretrain_random_projection_stays_at_init():
    spec = EncoderSpec("random_projection", (6,), embed_dim=4, arch="mlp", hidden=8)
    model = EncoderModel(spec)
    x, y = _blob_toy(30)
    rng = RngStream(31)
    params = pretrain_encoder(x, y, 3, model, epochs=3, lr=0.05, rng=rng, beta=1e-3)
    init = model.init_params(RngStream(31).child("encoder_init"))
    assert params.checksum() == init.checksum()


@pytest.mark.parametrize("kind", ["ebr", "vee"])
def test_pretrain_reduces_probe_loss(kind):
    spec = EncoderSpec(kind, (6,), embed_dim=4, arch="mlp", hidden=16)
    model = EncoderModel(spec)
    x, y = _blob_toy(32)
    history = []
    pretrain_encoder(x, y, 3, model, epochs=8, lr=0.1, rng=RngStream(33),
                     beta=1e-4, on_epoch=lambda e, stats: history.append(stats["ce"]))
    assert history[-1] < 0.5 * history[0]


def test_pretrain_vee_steps_through_ver_loss(monkeypatch):
    """Criterion 1's composite gradient check covers ver_loss; pretraining
    must take every vee step through it rather than a copy."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return ver_loss(*args, **kwargs)

    monkeypatch.setattr(models, "ver_loss", counted)
    x, y = _blob_toy(37)  # 120 rows: four batches of 32 per epoch
    model = EncoderModel(EncoderSpec("vee", (6,), embed_dim=4, arch="mlp", hidden=8))
    pretrain_encoder(x, y, 3, model, epochs=2, lr=0.05, rng=RngStream(38), beta=1e-3)
    assert len(calls) == 2 * 4


def test_pretrain_rejects_empty_dataset(tiny_mlp_ebr):
    with pytest.raises(ContractViolation):
        pretrain_encoder(np.zeros((0, 6)), np.zeros(0, dtype=np.int64), 3,
                         tiny_mlp_ebr, epochs=1, lr=0.1, rng=RngStream(34), beta=1e-3)


def test_pretrain_is_deterministic():
    spec = EncoderSpec("vee", (6,), embed_dim=4, arch="mlp", hidden=8)
    x, y = _blob_toy(35)
    a = pretrain_encoder(x, y, 3, EncoderModel(spec), epochs=2, lr=0.05, rng=RngStream(36),
                         beta=1e-3)
    b = pretrain_encoder(x, y, 3, EncoderModel(spec), epochs=2, lr=0.05, rng=RngStream(36),
                         beta=1e-3)
    assert a.checksum() == b.checksum()


# ---------------------------------------------------------------------------
# Model checkpoint round-trip
# ---------------------------------------------------------------------------

def test_model_checkpoint_roundtrip(tmp_path, tiny_mlp_vee):
    params = jittered_params(tiny_mlp_vee, RngStream(40))
    path = tmp_path / "model.bin"
    storage.save_model_checkpoint(path, params, "vee", 4, 3)
    loaded, meta = storage.load_model_checkpoint(path)
    assert loaded.checksum() == params.checksum()
    assert meta["encoder_kind"] == "vee"
    assert meta["embed_dim"] == 4 and meta["classes"] == 3
