"""Numerics oracles: brute-force forwards, finite-difference backwards,
quadrature for the KL term, and algebraic properties."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import filver.numcore as nc
from filver.errors import ContractViolation
from filver.federation import fedavg_aggregate
from filver.rng import RngStream

from conftest import packed
import oracles
from oracles import (fd_arrays, loop_conv2d, loop_dense, loop_maxpool2x2, pool_gap,
                     quad_kl, rel_err, sample_conv_instance, sample_dense_instance,
                     sample_pool_instance)

FD_TOL = 1e-4


# ---------------------------------------------------------------------------
# ParamVector
# ---------------------------------------------------------------------------

def _pv(*shapes):
    rng = RngStream(0)
    return nc.ParamVector.from_arrays(
        [(f"s{i}", rng.child(i).normal(shape)) for i, shape in enumerate(shapes)])


def _grad(*shapes):
    return dict(_pv(*shapes).items())


def test_paramvector_flat_roundtrip():
    pv = _pv((3, 4), (4,), (2, 2, 2))
    assert pv.layout == (("s0", (3, 4)), ("s1", (4,)), ("s2", (2, 2, 2)))
    assert pv.flat.shape == (24,) and pv.flat.flags.c_contiguous
    back = nc.ParamVector(pv.layout, pv.flat.copy())
    for (name, a), (_, b) in zip(pv.items(), back.items()):
        assert np.array_equal(a, b)
        assert np.shares_memory(pv.get(name), pv.flat)


def test_paramvector_rejects_duplicate_names():
    with pytest.raises(ContractViolation):
        nc.ParamVector.from_arrays([("w", np.zeros(2)), ("w", np.zeros(3))])


def test_paramvector_checksum_tracks_values():
    pv = _pv((5,))
    before = pv.checksum()
    assert before == nc.ParamVector(pv.layout, pv.flat.copy()).checksum()
    pv.get("s0")[...] += 1e-12
    assert pv.checksum() != before


def test_paramvector_rejects_length_mismatch():
    pv = _pv((3,))
    with pytest.raises(ContractViolation):
        nc.ParamVector(pv.layout, np.zeros(5))


def test_sgd_step_exact_arithmetic():
    params = _pv((3, 2), (2,))
    grad = _grad((3, 2), (2,))
    out = nc.sgd_step(params, grad, 0.25)
    for name, p in params.items():
        assert np.array_equal(out.get(name), p - 0.25 * grad[name])


def test_sgd_step_rejects_layout_mismatch():
    with pytest.raises(ContractViolation):
        nc.sgd_step(_pv((3,)), _grad((4,)), 0.1)


def test_clip_gradient_scales_to_max_norm():
    grad = {"a": np.array([3.0, 4.0])}  # norm 5
    clipped = nc.clip_gradient(grad, 1.0)
    norm = np.sqrt(sum(np.sum(g ** 2) for g in clipped.values()))
    assert abs(norm - 1.0) < 1e-12
    assert np.allclose(clipped["a"], [0.6, 0.8])


def test_clip_gradient_leaves_small_gradients_alone():
    grad = _grad((4,))
    big_norm = 1e6
    assert nc.clip_gradient(grad, big_norm) is grad


def test_clip_gradient_rejects_bad_norm():
    with pytest.raises(ContractViolation):
        nc.clip_gradient(_grad((2,)), 0.0)


@given(st.integers(0, 2**32 - 1), st.floats(0.1, 10.0))
@settings(max_examples=40, deadline=None)
def test_clip_gradient_norm_never_exceeds_bound(seed, max_norm):
    rng = RngStream(seed)
    grad = {"g": rng.normal((6,)) * 5}
    clipped = nc.clip_gradient(grad, max_norm)
    norm = np.sqrt(sum(np.sum(g ** 2) for g in clipped.values()))
    assert norm <= max_norm * (1 + 1e-12)


def _kernel_layout(g):
    """A 4-D array with dK's memory layout: conv2d_backward returns it as the
    (k, k, C, F) transpose of a C-contiguous (F, k, k, C) product."""
    return np.ascontiguousarray(g.transpose(3, 0, 1, 2)).transpose(1, 2, 3, 0)


@given(shapes=st.lists(array_shapes(min_dims=1, max_dims=4, max_side=5), min_size=1,
                       max_size=5),
       seed=st.integers(0, 2**32 - 1),
       lr=st.floats(1e-4, 1.0),
       max_norm_at=st.sampled_from(["norm", "just below", "half"]),
       counts=st.lists(st.integers(1, 500), min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_flat_vector_arithmetic_matches_the_segment_oracle_bit_for_bit(shapes, seed, lr,
                                                                       max_norm_at, counts):
    """sgd_step, clip_gradient and fedavg_aggregate on the flat vector give
    the bytes the segment-list vector they replaced gives.  The clip bound
    sits at the oracle's own norm, one ulp below it, or at half of it, so
    the clip's branch and scale both depend on every bit of the norm."""
    rng = RngStream(seed)
    layout = [(f"s{i}", shape) for i, shape in enumerate(shapes)]

    def draw(*key):
        return nc.ParamVector.from_arrays([(name, rng.child(*key, name).normal(shape))
                                           for name, shape in layout])

    def oracle(pairs):
        return oracles.ParamVector.from_arrays(list(pairs))

    params = draw("params")
    grad = {name: _kernel_layout(g) if g.ndim == 4 else g for name, g in draw("grad").items()}
    ref_params, ref_grad = oracle(params.items()), oracle(grad.items())

    norm = math.sqrt(sum(float(np.sum(s.values**2)) for s in ref_grad.segments))
    max_norm = {"norm": norm, "just below": float(np.nextafter(norm, 0.0)),
                "half": norm / 2}[max_norm_at]
    clipped = nc.clip_gradient(grad, max_norm)
    ref_clipped = oracles.clip_gradient(ref_grad, max_norm)
    assert (clipped is grad) == (ref_clipped is ref_grad) == (max_norm_at == "norm")
    assert packed(clipped).tobytes() == ref_clipped.as_flat().tobytes()

    stepped = nc.sgd_step(params, clipped, lr)
    ref_stepped = oracles.sgd_step(ref_params, ref_clipped, lr)
    assert stepped.flat.tobytes() == ref_stepped.as_flat().tobytes()

    updates = [(stepped if j == 0 else draw("update", j), n) for j, n in enumerate(counts)]
    got = fedavg_aggregate(updates)
    want = oracles.fedavg_aggregate([(oracle(p.items()), n) for p, n in updates])
    assert got.layout == tuple(want.layout())
    assert got.flat.tobytes() == want.as_flat().tobytes()


# ---------------------------------------------------------------------------
# Dense layer
# ---------------------------------------------------------------------------

def test_dense_forward_matches_loop_oracle():
    rng = RngStream(100)
    for i in range(50):
        x, w, b = sample_dense_instance(rng.child(i), activation="identity")
        out, _ = nc.dense_forward(x, w, b, activation="identity")
        assert np.allclose(out, loop_dense(x, w, b), atol=1e-12)


def test_dense_relu_clamps_negative():
    rng = RngStream(101)
    x, w, b = sample_dense_instance(rng)
    out, _ = nc.dense_forward(x, w, b, activation="relu")
    pre = loop_dense(x, w, b)
    assert np.allclose(out, np.maximum(pre, 0.0))
    assert (out >= 0).all()


def test_dense_forward_rejects_bad_shapes():
    with pytest.raises(ContractViolation):
        nc.dense_forward(np.zeros((2, 3)), np.zeros((4, 5)), np.zeros(5))
    with pytest.raises(ContractViolation):
        nc.dense_forward(np.zeros((2, 3)), np.zeros((3, 5)), np.zeros(5), activation="tanh")


@pytest.mark.parametrize("activation", ["relu", "identity"])
def test_dense_backward_matches_fd(activation):
    rng = RngStream(102)
    worst = 0.0
    for i in range(50):
        x, w, b = sample_dense_instance(rng.child(i), activation=activation)
        target = rng.child("t", i).normal((x.shape[0], w.shape[1]))

        def loss(x_, w_, b_):
            out, _ = nc.dense_forward(x_, w_, b_, activation=activation)
            return float(np.sum(out * target))

        out, cache = nc.dense_forward(x, w, b, activation=activation)
        dx, dw, db = nc.dense_backward(cache, target)
        fdx, fdw, fdb = fd_arrays(loss, [x, w, b])
        for a, n in ((dx, fdx), (dw, fdw), (db, fdb)):
            worst = max(worst, float(rel_err(a, n).max()))
    assert worst < FD_TOL, f"max rel err {worst}"


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------

def test_conv2d_forward_matches_loop_oracle():
    rng = RngStream(103)
    for i in range(50):
        x, kernels, bias = sample_conv_instance(rng.child(i))
        out, _ = nc.conv2d_forward(x, kernels, bias, activation="identity")
        assert np.allclose(out, loop_conv2d(x, kernels, bias), atol=1e-10)


def test_conv2d_forward_matches_scipy():
    from scipy.signal import correlate

    rng = RngStream(104)
    x, kernels, bias = sample_conv_instance(rng, batch=2, h=7, w=6, c=3, k=3, f=2)
    out, _ = nc.conv2d_forward(x, kernels, bias, activation="identity")
    for b_ in range(x.shape[0]):
        for f in range(kernels.shape[3]):
            acc = np.zeros(out.shape[1:3])
            for c in range(x.shape[3]):
                acc += correlate(x[b_, :, :, c], kernels[:, :, c, f], mode="valid")
            assert np.allclose(out[b_, :, :, f], acc + bias[f], atol=1e-10)


def test_conv2d_shape_errors():
    with pytest.raises(ContractViolation):
        nc.conv2d_forward(np.zeros((2, 5, 5, 3)), np.zeros((3, 3, 2, 4)), np.zeros(4))
    with pytest.raises(ContractViolation):
        nc.conv2d_forward(np.zeros((2, 2, 2, 1)), np.zeros((3, 3, 1, 4)), np.zeros(4))


def test_conv2d_backward_matches_fd():
    rng = RngStream(105)
    worst = 0.0
    for i in range(50):
        x, kernels, bias = sample_conv_instance(rng.child(i))
        out, cache = nc.conv2d_forward(x, kernels, bias, activation="relu")
        target = rng.child("t", i).normal(out.shape)

        def loss(x_, k_, b_):
            o, _ = nc.conv2d_forward(x_, k_, b_, activation="relu")
            return float(np.sum(o * target))

        dx, dk, db = nc.conv2d_backward(cache, target)
        fdx, fdk, fdb = fd_arrays(loss, [x, kernels, bias])
        for a, n in ((dx, fdx), (dk, fdk), (db, fdb)):
            worst = max(worst, float(rel_err(a, n).max()))
    assert worst < FD_TOL, f"max rel err {worst}"


# ---------------------------------------------------------------------------
# Max pooling
# ---------------------------------------------------------------------------

def test_maxpool_matches_loop_oracle():
    rng = RngStream(106)
    for i in range(50):
        x = sample_pool_instance(rng.child(i))
        out, _ = nc.maxpool2x2(x)
        assert np.array_equal(out, loop_maxpool2x2(x))


def test_maxpool_truncates_odd_dims():
    x = RngStream(107).normal((1, 5, 7, 2))
    out, _ = nc.maxpool2x2(x)
    assert out.shape == (1, 2, 3, 2)
    assert np.array_equal(out, loop_maxpool2x2(x[:, :4, :6, :]))


def test_maxpool_rejects_tiny_input():
    with pytest.raises(ContractViolation):
        nc.maxpool2x2(np.zeros((1, 1, 4, 1)))
    with pytest.raises(ContractViolation):
        nc.maxpool2x2(np.zeros((4, 4)))


def test_maxpool_backward_matches_fd():
    rng = RngStream(108)
    worst = 0.0
    for i in range(50):
        x = sample_pool_instance(rng.child(i))
        out, cache = nc.maxpool2x2(x)
        target = rng.child("t", i).normal(out.shape)

        def loss(x_):
            o, _ = nc.maxpool2x2(x_)
            return float(np.sum(o * target))

        dx = nc.maxpool2x2_backward(cache, target)
        (fdx,) = fd_arrays(loss, [x])
        worst = max(worst, float(rel_err(dx, fdx).max()))
    assert worst < FD_TOL, f"max rel err {worst}"


def test_maxpool_backward_routes_to_argmax_only():
    x = np.array([[[[1.0], [5.0]], [[3.0], [2.0]]]])  # one 2x2 window
    out, cache = nc.maxpool2x2(x)
    dx = nc.maxpool2x2_backward(cache, np.ones_like(out))
    assert dx.sum() == 1.0
    assert dx[0, 0, 1, 0] == 1.0  # the 5.0 cell


# ---------------------------------------------------------------------------
# GEMM conv and slice pooling against the einsum/argmax kernels they replaced
# ---------------------------------------------------------------------------

def _bits(value) -> bytes:
    return np.float64(value).tobytes()


def _same(a, b) -> bool:
    """Equal shape and equal bytes: signed zeros count."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@given(c=st.integers(1, 16), f=st.integers(1, 16), batch=st.integers(1, 64),
       h=st.integers(5, 28), w=st.integers(5, 28), channel_major=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_conv_kernels_match_the_einsum_oracle_bit_for_bit(c, f, batch, h, w, channel_major, seed):
    # the k=5 shapes where einsum itself changes path, which the encoder
    # trunk never produces: one output channel, one image and a one-column
    # output, or one image with a single output position
    assume(not (batch == 1 and w == 5 and (f == 1 or h == 5)))
    rng = RngStream(seed)
    x = np.maximum(rng.normal((batch, h, w, c)), 0.0)
    if channel_major:  # the layout a pooled conv output arrives in
        x = np.ascontiguousarray(x.transpose(3, 0, 1, 2)).transpose(1, 2, 3, 0)
    kernels = rng.normal((5, 5, c, f)) * np.sqrt(2.0 / (25 * c))
    bias = rng.normal(f) * 0.1
    for activation in ("relu", "identity"):
        out, cache = nc.conv2d_forward(x, kernels, bias, activation)
        ref_out, ref_cache = oracles.conv2d_forward(x, kernels, bias, activation)
        assert _same(out, ref_out) and cache[2].strides == ref_cache[2].strides
        dout = rng.child(activation).normal(out.shape)
        dx, dk, db = nc.conv2d_backward(cache, dout)
        ref_dx, ref_dk, ref_db = oracles.conv2d_backward(ref_cache, dout)
        assert _same(dx, ref_dx) and _same(dk, ref_dk) and _same(db, ref_db)
        # clip_gradient sums dK**2 in memory order, so the layout must match too
        assert _bits(np.sum(dk**2)) == _bits(np.sum(ref_dk**2))
        no_dx, dk2, db2 = nc.conv2d_backward(cache, dout, need_dx=False)
        assert no_dx is None and _same(dk2, dk) and _same(db2, db)
        assert _bits(np.sum(dk2**2)) == _bits(np.sum(dk**2))


@given(c=st.integers(1, 8), f=st.integers(1, 8), batch=st.integers(1, 8),
       h=st.integers(5, 12), w=st.integers(5, 12), channel_major=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_conv_forward_writes_only_into_its_own_output(c, f, batch, h, w, channel_major, seed):
    # the ReLU runs in place: on the array the bias add made, never on an input
    rng = RngStream(seed)
    x = rng.normal((batch, h, w, c))
    if channel_major:
        x = np.ascontiguousarray(x.transpose(3, 0, 1, 2)).transpose(1, 2, 3, 0)
    kernels = rng.normal((5, 5, c, f))
    bias = rng.normal(f)
    inputs = [(a, a.copy()) for a in (x, kernels, bias)]
    for activation in ("relu", "identity"):
        out, cache = nc.conv2d_forward(x, kernels, bias, activation)
        for arr, before in inputs:
            assert _same(arr, before)
            assert not np.shares_memory(out, arr)
        assert cache[2] is out


@given(c=st.integers(1, 16), batch=st.integers(1, 64), h=st.integers(2, 28),
       w=st.integers(2, 28), channel_major=st.booleans(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_maxpool_matches_the_argmax_oracle_bit_for_bit(c, batch, h, w, channel_major, seed):
    rng = RngStream(seed)
    # ReLU of coarsely rounded draws: many windows hold tied maxima, zeros most of all
    x = np.maximum(np.round(rng.normal((batch, h, w, c)) * 2.0) / 2.0, 0.0)
    if channel_major:
        x = np.ascontiguousarray(x.transpose(3, 0, 1, 2)).transpose(1, 2, 3, 0)
    out, cache = nc.maxpool2x2(x)
    ref_out, ref_cache = oracles.maxpool2x2(x)
    assert _same(out, ref_out)
    dout = rng.child("dout").normal(out.shape)
    dx = nc.maxpool2x2_backward(cache, dout)
    ref_dx = oracles.maxpool2x2_backward(ref_cache, dout)
    assert _same(dx, ref_dx) and dx.flags.c_contiguous


def test_maxpool_routes_ties_to_the_first_cell_of_the_window():
    # window order (0,0), (0,1), (1,0), (1,1); the first of equal maxima wins
    x = np.array([[[[0.0], [0.0]], [[0.0], [0.0]]],
                  [[[1.0], [2.0]], [[2.0], [2.0]]],
                  [[[-3.0], [-1.0]], [[-1.0], [-2.0]]]]).reshape(3, 2, 2, 1)
    out, cache = nc.maxpool2x2(x)
    dx = nc.maxpool2x2_backward(cache, np.full(out.shape, 5.0))
    assert out.ravel().tolist() == [0.0, 2.0, -1.0]
    assert dx.reshape(3, 4).tolist() == [[5, 0, 0, 0], [0, 5, 0, 0], [0, 5, 0, 0]]


# ---------------------------------------------------------------------------
# Softmax cross-entropy
# ---------------------------------------------------------------------------

def test_softmax_ce_matches_scipy():
    from scipy.special import log_softmax

    rng = RngStream(109)
    for i in range(50):
        logits = rng.child(i).normal((6, 4)) * 3
        labels = rng.child("y", i).integers(0, 4, shape=6)
        loss, _ = nc.softmax_cross_entropy(logits, labels)
        expected = -log_softmax(logits, axis=1)[np.arange(6), labels].mean()
        assert abs(loss - expected) < 1e-12


def test_softmax_ce_grad_matches_fd():
    rng = RngStream(110)
    worst = 0.0
    for i in range(50):
        logits = rng.child(i).normal((5, 3)) * 2
        labels = rng.child("y", i).integers(0, 3, shape=5)
        _, grad = nc.softmax_cross_entropy(logits, labels)

        def loss(lg):
            value, _ = nc.softmax_cross_entropy(lg, labels)
            return value

        (fdg,) = fd_arrays(loss, [logits])
        worst = max(worst, float(rel_err(grad, fdg).max()))
    assert worst < FD_TOL, f"max rel err {worst}"


@given(arrays(np.float64, (4, 5), elements=st.floats(-30, 30)), st.floats(-50, 50))
@settings(max_examples=50, deadline=None)
def test_softmax_ce_shift_invariant(logits, shift):
    labels = np.arange(4) % 5
    a, ga = nc.softmax_cross_entropy(logits, labels)
    b, gb = nc.softmax_cross_entropy(logits + shift, labels)
    assert abs(a - b) < 1e-9
    assert np.allclose(ga, gb, atol=1e-12)


def test_softmax_ce_rejects_bad_labels():
    with pytest.raises(ContractViolation):
        nc.softmax_cross_entropy(np.zeros((2, 3)), np.array([0, 3]))
    with pytest.raises(ContractViolation):
        nc.softmax_cross_entropy(np.zeros((2, 3)), np.array([-1, 0]))
    with pytest.raises(ContractViolation):
        nc.softmax_cross_entropy(np.zeros(3), np.array([0]))


def test_perfect_logits_give_near_zero_loss():
    labels = np.array([0, 1, 2])
    logits = np.eye(3) * 200.0
    loss, _ = nc.softmax_cross_entropy(logits, labels)
    assert loss < 1e-12


# ---------------------------------------------------------------------------
# Gaussian KL
# ---------------------------------------------------------------------------

def kl_one(mu, log_sigma) -> float:
    """One Gaussian's KL, as gaussian_kl_batch gives it for a one-row batch."""
    return nc.gaussian_kl_batch(np.atleast_2d(mu), np.atleast_2d(log_sigma))[0]


def test_gaussian_kl_matches_quadrature():
    rng = RngStream(111)
    for i in range(20):
        d = int(rng.child("d", i).integers(1, 5))
        mu = rng.child("m", i).normal(d) * 2
        log_sigma = rng.child("s", i).uniform(-1.5, 1.0, shape=d)
        ours = kl_one(mu, log_sigma)
        reference = quad_kl(mu, np.exp(log_sigma))
        assert abs(ours - reference) < 1e-6, (ours, reference)


def test_gaussian_kl_zero_iff_standard_normal():
    assert kl_one(np.zeros(5), np.zeros(5)) == 0.0
    assert kl_one(np.array([0.01]), np.zeros(1)) > 0
    assert kl_one(np.zeros(1), np.array([0.01])) > 0
    assert kl_one(np.zeros(1), np.array([-0.01])) > 0


@given(arrays(np.float64, (6,), elements=st.floats(-5, 5)),
       arrays(np.float64, (6,), elements=st.floats(-3, 3)))
@settings(max_examples=60, deadline=None)
def test_gaussian_kl_nonnegative(mu, log_sigma):
    # allow rounding slack: near sigma = 1 the exact value ~ log_sigma^2
    # underflows while the -2 log_sigma term survives, leaving a tiny
    # negative float for a mathematically nonnegative quantity
    assert kl_one(mu, log_sigma) >= -1e-11


def test_gaussian_kl_batch_value_and_grads():
    rng = RngStream(112)
    mu = rng.normal((7, 4))
    log_sigma = rng.uniform(-1, 1, shape=(7, 4))
    kl, dmu, dls = nc.gaussian_kl_batch(mu, log_sigma)

    per_row = np.mean([kl_one(mu[i], log_sigma[i]) for i in range(7)])
    assert abs(kl - per_row) < 1e-12

    def loss_mu(m):
        value, _, _ = nc.gaussian_kl_batch(m, log_sigma)
        return value

    def loss_ls(ls):
        value, _, _ = nc.gaussian_kl_batch(mu, ls)
        return value

    (fd_mu,) = fd_arrays(loss_mu, [mu])
    (fd_ls,) = fd_arrays(loss_ls, [log_sigma])
    assert rel_err(dmu, fd_mu).max() < FD_TOL
    assert rel_err(dls, fd_ls).max() < FD_TOL


# ---------------------------------------------------------------------------
# Reparameterization
# ---------------------------------------------------------------------------

def test_sigma_from_log_clamps_and_handles_neg_inf():
    assert nc.sigma_from_log(np.array([1000.0]))[0] == np.exp(nc.LOG_SIGMA_MAX)
    assert nc.sigma_from_log(np.array([-1000.0]))[0] == np.exp(-nc.LOG_SIGMA_MAX)
    assert nc.sigma_from_log(np.array([-np.inf]))[0] == 0.0
    assert nc.sigma_from_log(np.array([0.3]))[0] == np.exp(0.3)


def test_reparam_sample_identity_and_determinism():
    rng = RngStream(113)
    mu = rng.normal((5, 3))
    log_sigma = rng.uniform(-1, 0.5, shape=(5, 3))
    z1, eps1 = nc.reparam_sample(mu, log_sigma, RngStream(9, 4))
    z2, eps2 = nc.reparam_sample(mu, log_sigma, RngStream(9, 4))
    assert np.array_equal(z1, z2) and np.array_equal(eps1, eps2)
    assert np.allclose(z1, mu + np.exp(log_sigma) * eps1)


def test_reparam_sample_zero_sigma_returns_mu():
    mu = np.array([[1.0, -2.0]])
    z, eps = nc.reparam_sample(mu, np.array([[-np.inf, -np.inf]]), RngStream(1))
    assert np.array_equal(z, mu)


def test_reparam_sample_statistics():
    mu = np.array([0.7, -1.2, 0.0])
    log_sigma = np.array([0.2, -0.5, 0.0])
    sigma = np.exp(log_sigma)
    n = 100_000
    rng = RngStream(114)
    draws = np.stack([nc.reparam_sample(mu, log_sigma, rng)[0] for _ in range(n)])
    se_mean = sigma / np.sqrt(n)
    assert (np.abs(draws.mean(axis=0) - mu) < 3 * se_mean).all()
    se_var = sigma ** 2 * np.sqrt(2.0 / (n - 1))
    assert (np.abs(draws.var(axis=0) - sigma ** 2) < 3 * se_var).all()


def test_pool_gap_helper_detects_ties():
    tie = np.full((1, 2, 2, 1), 3.14)
    assert pool_gap(tie) == 0.0
