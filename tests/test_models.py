"""Encoder/classifier wiring: composite-loss gradients against finite
differences, clamping, freezing, pretraining, and checkpoint round-trips."""

import platform

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import filver.numcore as nc
from filver import models, storage
from filver.cli import pin_allocator
from filver.datasets import ImageRows
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
    # one pass serves both kinds; only a vee encoder has a log-sigma head
    vee_params = tiny_mlp_vee.init_params(RngStream(3))
    ebr_params = tiny_mlp_ebr.init_params(RngStream(3))
    x = RngStream(4).normal((2, 6))
    mu, log_sigma, _ = tiny_mlp_vee.stats_forward(vee_params, x)
    assert log_sigma is not None and log_sigma.shape == mu.shape == (2, 4)
    z, none, _ = tiny_mlp_ebr.stats_forward(ebr_params, x)
    assert z.shape == (2, 4) and none is None


def test_encoder_forward_deterministic(tiny_mlp_vee):
    params = jittered_params(tiny_mlp_vee, RngStream(5))
    x = RngStream(6).normal((4, 6))
    mu1, ls1, _ = tiny_mlp_vee.stats_forward(params, x)
    mu2, ls2, _ = tiny_mlp_vee.stats_forward(params, x)
    assert np.array_equal(mu1, mu2) and np.array_equal(ls1, ls2)


def test_encode_for_eval_is_noise_free(tiny_mlp_vee, tiny_mlp_ebr):
    # the heads' outputs of one stats_forward pass over the rows padded with
    # zero rows to EVAL_CHUNK, and no draw
    x = RngStream(10).normal((3, 6))
    padded = np.concatenate([x, np.zeros((EVAL_CHUNK - 3, 6))])
    vp = jittered_params(tiny_mlp_vee, RngStream(11))
    mu, log_sigma, _ = tiny_mlp_vee.stats_forward(vp, padded)
    got_mu, got_log_sigma = encode_for_eval(tiny_mlp_vee, vp, x)
    assert np.array_equal(got_mu, mu[:3]) and np.array_equal(got_log_sigma, log_sigma[:3])
    ep = jittered_params(tiny_mlp_ebr, RngStream(12))
    z, _, _ = tiny_mlp_ebr.stats_forward(ep, padded)
    got_z, none = encode_for_eval(tiny_mlp_ebr, ep, x)
    assert np.array_equal(got_z, z[:3]) and none is None


def test_encode_for_eval_on_zero_rows(tiny_mlp_vee, tiny_mlp_ebr):
    # an empty array, or empty rows of a set, embed to (0, embed_dim) arrays
    no_rows = ImageRows(RngStream(13).normal((5, 6)), np.zeros(0, dtype=np.int64))
    for empty in (np.zeros((0, 6)), no_rows):
        mu, log_sigma = encode_for_eval(tiny_mlp_vee, jittered_params(tiny_mlp_vee, RngStream(14)),
                                        empty)
        assert mu.shape == log_sigma.shape == (0, 4)
        z, none = encode_for_eval(tiny_mlp_ebr, jittered_params(tiny_mlp_ebr, RngStream(15)),
                                  empty)
        assert z.shape == (0, 4) and none is None


class _CountedRows(ImageRows):
    """ImageRows that records how many rows each gather returns."""

    def __init__(self, source, rows, gathers):
        super().__init__(source, rows)
        self.gathers = gathers

    def __getitem__(self, key):
        images = super().__getitem__(key)
        self.gathers.append(len(images))
        return images


def test_a_set_is_gathered_one_pass_or_batch_at_a_time(tiny_mlp_vee):
    # a set of rows embeds and pretrains to the bytes its gathered images
    # give, gathering at most EVAL_CHUNK rows per pass and a batch per step
    source = RngStream(16).uniform(shape=(200, 6))
    rows = RngStream(17).permutation(200)[:150]
    labels = np.arange(150) % 3
    gathers = []
    images = _CountedRows(source, rows, gathers)
    params = jittered_params(tiny_mlp_vee, RngStream(18))
    got, want = encode_for_eval(tiny_mlp_vee, params, images), \
        encode_for_eval(tiny_mlp_vee, params, source[rows])
    assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()
    assert gathers == [EVAL_CHUNK, EVAL_CHUNK, 150 - 2 * EVAL_CHUNK]
    gathers.clear()
    kw = dict(classes=3, encoder=tiny_mlp_vee, epochs=2, lr=0.05, beta=0.01, batch_size=32)
    got = pretrain_encoder(images, labels, rng=RngStream(19), **kw)
    want = pretrain_encoder(source[rows], labels, rng=RngStream(19), **kw)
    assert got.flat.tobytes() == want.flat.tobytes()
    assert max(gathers) == 32 and sum(gathers) == 2 * 150


ROW_STABLE_ENCODERS = {
    "mlp-vee": EncoderModel(EncoderSpec("vee", (6,), embed_dim=4, arch="mlp", hidden=8)),
    "conv-ebr": EncoderModel(EncoderSpec("ebr", (16, 16), embed_dim=6, arch="conv", hidden=12,
                                         conv_channels=(2, 3))),
}


@pytest.mark.parametrize("name", ROW_STABLE_ENCODERS)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.integers(1, 3 * EVAL_CHUNK), data=st.data(),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_a_rows_embedding_does_not_depend_on_its_pass(name, n, data, seed, one_blas_thread):
    # whatever the set's height, the row's position in it and its
    # neighbours, a row embeds to the bytes it gets alone
    encoder = ROW_STABLE_ENCODERS[name]
    rng = RngStream(seed)
    params = jittered_params(encoder, rng.child("params"))
    x = rng.child("x").uniform(shape=(n,) + encoder.spec.input_dims)
    i = data.draw(st.integers(0, n - 1), label="row")
    mu, log_sigma = encode_for_eval(encoder, params, x)
    alone_mu, alone_log_sigma = encode_for_eval(encoder, params, x[i:i + 1])
    assert mu.shape == (n, encoder.spec.embed_dim)
    assert mu[i].tobytes() == alone_mu[0].tobytes()
    if log_sigma is None:
        assert alone_log_sigma is None
    else:
        assert log_sigma[i].tobytes() == alone_log_sigma[0].tobytes()


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
    mu, log_sigma, caches = model.stats_forward(params, x)
    if log_sigma is None:
        return (mu,), model.stats_backward(params, caches, rng.child("dz").normal(mu.shape))
    d_mu, d_ls = rng.child("d_mu").normal(mu.shape), rng.child("d_ls").normal(mu.shape)
    return (mu, log_sigma), model.stats_backward(params, caches, d_mu, d_ls)


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
# The allocator pin: conv steps reuse heap pages instead of faulting in fresh ones
# ---------------------------------------------------------------------------

on_glibc = pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                              reason="mallopt is a glibc call")


@on_glibc
def test_the_allocator_pin_takes_on_glibc():
    assert pin_allocator()


@on_glibc
def test_pinned_desk_trunk_steps_make_almost_no_page_faults():
    # unpinned, glibc maps every multi-MB im2col and gradient buffer afresh:
    # about 900-2,500 minor faults per step, against none once pinned
    import resource

    assert pin_allocator()
    model = EncoderModel(EncoderSpec("vee", (28, 28), embed_dim=48, arch="conv", hidden=96,
                                     conv_channels=(8, 16)))
    params = model.init_params(RngStream(60))
    x = RngStream(61).uniform(shape=(32, 28, 28))

    def step(params):
        mu, log_sigma, caches = model.stats_forward(params, x)
        grad = model.stats_backward(params, caches, np.ones_like(mu), np.ones_like(log_sigma))
        return nc.sgd_step(params, nc.clip_gradient(grad, 5.0), 0.01)

    for _ in range(3):
        params = step(params)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        params = step(params)
    per_step = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20
    assert per_step < 100, f"{per_step} minor faults per trunk step"


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
    assert params.same_bytes(init)


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
    assert a.same_bytes(b)


# ---------------------------------------------------------------------------
# Model checkpoint round-trip
# ---------------------------------------------------------------------------

def test_model_checkpoint_roundtrip(tmp_path, tiny_mlp_vee):
    params = jittered_params(tiny_mlp_vee, RngStream(40))
    path = tmp_path / "model.bin"
    storage.save_model_checkpoint(path, params, "vee", 4, 3)
    loaded, meta = storage.load_model_checkpoint(path)
    assert loaded.same_bytes(params)
    assert meta["encoder_kind"] == "vee"
    assert meta["embed_dim"] == 4 and meta["classes"] == 3
