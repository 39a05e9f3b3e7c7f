"""Federated loop: aggregation, local training, SST, full runs, checkpoints.

The whole-run check is in test_reference.py: every strategy and schedule,
interrupted and resumed, against a reference simulator, bit for bit.  This
file checks the loop's parts and the contracts between them.
"""

import dataclasses
import json
import math
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import filver.federation as federation
from filver import models, scenarios
from filver.datasets import (BlobBands, ImageRows, LabeledSet, build_split_tasks,
                             make_synthetic_blobs, partition_clients)
from filver.errors import ContractViolation
from filver.federation import (
    FLConfig,
    fedavg_aggregate,
    local_train,
    run_experiment,
    run_offline,
    server_side_training,
)
from filver.models import (
    ClassifierModel,
    ClassifierSpec,
    EncoderModel,
    EncoderSpec,
    GaussianStats,
    ModelConfig,
    classifier_accuracy,
    classifier_loss_and_grad,
    encode_for_eval,
)
from filver.numcore import ParamVector
from filver.rehearsal import (
    EmbeddingPayload,
    RehearsalBuffer,
    StrategyConfig,
    Upload,
    admit,
    buffer_capacity,
    encoder_kind_for_strategy,
)
from filver.rng import RngStream

import oracles

# ---------------------------------------------------------------------------
# Shared tiny experiment scaffold
# ---------------------------------------------------------------------------

D_IN = 8
EMBED = 6
N_CLASSES_PER_TASK = 2


def tiny_tasks(seed=2024, n_tasks=2, blobs=make_synthetic_blobs):
    """Split tasks of two classes each; blobs=oracles.make_synthetic_blobs
    holds the images as one array instead of a band-drawn source."""
    base = blobs(2 * n_tasks, D_IN, 24, 0.15, RngStream(seed))
    return build_split_tasks(base, n_tasks=n_tasks, classes_per_task=N_CLASSES_PER_TASK,
                             val_fraction=0.25, rng=RngStream(seed + 1))


def tiny_fl(**overrides):
    kw = dict(rounds_per_task=3, n_clients=4, clients_per_round=2,
              local_iters=3, s_max=2, eta=0.05, eta_s=0.02, batch_size=8)
    kw.update(overrides)
    return FLConfig(**kw)


def tiny_specs(kind):
    enc = EncoderSpec(encoder_kind_for_strategy(kind), (D_IN,), embed_dim=EMBED,
                      arch="mlp", hidden=16)
    cls = ClassifierSpec(classes=N_CLASSES_PER_TASK, hidden=16, layers=1)
    return enc, cls


def tiny_model(kind, pretrain_epochs=2):
    return ModelConfig(*tiny_specs(kind), beta=1e-3, pretrain_epochs=pretrain_epochs,
                       pretrain_lr=0.05)


def tiny_run(strategy_kind, *, fl=None, seed=7, rho=0.25, tasks=None, **kwargs):
    tasks = tiny_tasks() if tasks is None else tasks
    fl = fl or tiny_fl()
    strategy = StrategyConfig(kind=strategy_kind, rho=rho)
    return run_experiment(tasks, "fully_enrolled", fl, strategy, tiny_model(strategy_kind),
                          master_seed=seed, **kwargs)


def report_tuples(reports):
    return [(r.round_id, r.task_id, r.accuracies, r.mean_loss, r.participants)
            for r in reports]


def buffer_sizes(state):
    """(server buffer rows, client buffer rows by client id) at the end of a run."""
    return len(state.server_buffer), tuple(len(b) for b in state.client_buffers)


def random_params(rng, layout=(("w", (3, 4)), ("b", (4,)))):
    return ParamVector.from_arrays([(name, rng.child(name).normal(shape))
                                    for name, shape in layout])


# ---------------------------------------------------------------------------
# FedAvg aggregation
# ---------------------------------------------------------------------------


def test_fedavg_matches_weighted_mean_oracle():
    rng = RngStream(1)
    updates = [(random_params(rng.child("p", i)), 3 * i + 1) for i in range(5)]
    got = fedavg_aggregate(updates)
    flats = np.stack([p.flat for p, _ in updates])
    weights = np.array([float(n) for _, n in updates])
    expected = np.average(flats, axis=0, weights=weights)
    np.testing.assert_allclose(got.flat, expected, rtol=1e-12, atol=0)
    # layout preserved
    assert got.layout == updates[0][0].layout


@settings(max_examples=40, deadline=None)
@given(
    counts=st.lists(st.integers(min_value=1, max_value=500), min_size=2, max_size=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    order_seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_fedavg_is_permutation_invariant(counts, seed, order_seed):
    rng = RngStream(seed)
    updates = [(random_params(rng.child("p", i)), n) for i, n in enumerate(counts)]
    base = fedavg_aggregate(updates).flat
    perm = RngStream(order_seed).permutation(len(updates))
    shuffled = fedavg_aggregate([updates[i] for i in perm]).flat
    np.testing.assert_allclose(shuffled, base, rtol=1e-12, atol=1e-14)


@settings(max_examples=40, deadline=None)
@given(
    counts=st.lists(st.integers(min_value=1, max_value=500), min_size=2, max_size=6),
    scale=st.integers(min_value=2, max_value=64),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_fedavg_is_scale_invariant(counts, scale, seed):
    rng = RngStream(seed)
    updates = [(random_params(rng.child("p", i)), n) for i, n in enumerate(counts)]
    base = fedavg_aggregate(updates).flat
    scaled = fedavg_aggregate([(p, n * scale) for p, n in updates]).flat
    np.testing.assert_allclose(scaled, base, rtol=1e-12, atol=1e-14)


def test_fedavg_single_update_is_identity():
    params = random_params(RngStream(2))
    got = fedavg_aggregate([(params, 4)])
    np.testing.assert_allclose(got.flat, params.flat, rtol=0, atol=1e-15)


def test_fedavg_rejects_bad_inputs():
    rng = RngStream(3)
    p = random_params(rng.child("a"))
    with pytest.raises(ContractViolation):
        fedavg_aggregate([])
    with pytest.raises(ContractViolation):
        fedavg_aggregate([(p, 0)])
    with pytest.raises(ContractViolation):
        fedavg_aggregate([(p, -3)])
    other = random_params(rng.child("b"), layout=(("w", (2, 2)),))
    with pytest.raises(ContractViolation):
        fedavg_aggregate([(p, 1), (other, 1)])


# ---------------------------------------------------------------------------
# Local training
# ---------------------------------------------------------------------------


def make_shard(rng, n=20):
    images = rng.child("x").normal((n, D_IN)) * 0.1 + 0.5
    labels = np.asarray(rng.child("y").integers(0, N_CLASSES_PER_TASK, (n,)), dtype=np.int64)
    return LabeledSet(np.clip(images, 0, 1), labels, N_CLASSES_PER_TASK)


def local_setup(kind, seed=5):
    """A one-client set-up: its shard of task 0 embedded as the embed stage
    does it, a classifier, its rehearsal buffer and a stream."""
    rng = RngStream(seed)
    enc_spec, cls_spec = tiny_specs(kind)
    encoder = EncoderModel(enc_spec)
    enc_params = encoder.init_params(rng.child("enc"))
    classifier = ClassifierModel(cls_spec, EMBED)
    cls_params = classifier.init_params(rng.child("cls"))
    shard = make_shard(rng.child("client"))
    mu, log_sigma = encode_for_eval(encoder, enc_params, shard.images)
    embedded = {"labels": shard.labels, "mu": mu, "log_sigma": log_sigma}
    strategy = StrategyConfig(kind=kind, rho=0.25)
    return embedded, classifier, cls_params, RehearsalBuffer(capacity=64), strategy, rng


def test_local_train_requires_data_for_task(monkeypatch):
    # 40 clients share a task's 36 training samples, so some get an empty
    # shard, which the embed stage does not embed; run_round refuses such a
    # client once chosen, before any chosen client trains
    trained = []
    real_local_train = federation.local_train

    def spy(*args):
        trained.append(args)
        return real_local_train(*args)

    monkeypatch.setattr(federation, "local_train", spy)
    tasks, fl = tiny_tasks(), tiny_fl(n_clients=40, clients_per_round=40)
    with pytest.raises(ContractViolation, match=r"client \d+ has no data for task 0"):
        run_experiment(tasks, "fully_enrolled", fl, StrategyConfig(kind="none"),
                       tiny_model("none", pretrain_epochs=1), master_seed=7)
    assert trained == []


def test_local_train_zero_iters_probes_without_stepping():
    embedded, classifier, cls_params, buffer, strategy, rng = local_setup("none")
    res = local_train(buffer, cls_params, embedded, classifier, 0, 0,
                      tiny_fl(local_iters=0), strategy, rng.child("local"))
    assert res.params is cls_params
    assert math.isfinite(res.mean_loss)
    assert res.upload == []
    assert res.n_samples == 20


def test_local_train_steps_change_params_and_report_loss():
    embedded, classifier, cls_params, buffer, strategy, rng = local_setup("none")
    res = local_train(buffer, cls_params, embedded, classifier, 0, 0,
                      tiny_fl(), strategy, rng.child("local"))
    assert not np.array_equal(res.params.flat, cls_params.flat)
    assert math.isfinite(res.mean_loss)


@pytest.mark.parametrize("kind", ["naive", "ebr", "ver_stats", "ver_sampled"])
def test_local_train_changes_no_buffer(kind):
    embedded, classifier, cls_params, buffer, strategy, rng = local_setup(kind)
    held = Upload(EmbeddingPayload(np.ones((1, EMBED))), [1], 0, 0)
    if kind == "ver_stats":
        held = Upload(GaussianStats(np.ones((1, EMBED)), np.zeros((1, EMBED))), [1], 0, 0)
    admit(buffer, held.rows(), RngStream(0))
    before = {name: col.copy() for name, col in buffer.columns.items()}
    res = local_train(buffer, cls_params, embedded, classifier, 0, 1,
                      tiny_fl(), strategy, rng.child("local"))
    (upload,) = res.upload
    assert len(upload.labels) == math.ceil(0.25 * 20)
    assert len(buffer) == 1
    for name, col in buffer.columns.items():
        assert np.array_equal(col, before[name])


def test_local_train_uploads_rho_sample_and_self_admits(monkeypatch):
    # local_train proposes the upload; run_round admits it to the client's
    # own buffer (and to the server's)
    uploads = {}  # id of the client's buffer -> (upload, embedded shard)
    real_local_train = federation.local_train

    def spy(buffer, params, embedded, *args):
        res = real_local_train(buffer, params, embedded, *args)
        uploads[id(buffer)] = (res.upload, embedded)
        return res

    monkeypatch.setattr(federation, "local_train", spy)
    _, state = tiny_run("ebr", seed=19, stop_after_round=1)
    trained = [b for b in state.client_buffers if id(b) in uploads]
    assert len(uploads) == len(trained) == 2
    for buffer in trained:
        (upload,), embedded = uploads[id(buffer)]
        assert len(upload.labels) == math.ceil(0.25 * len(embedded["labels"]))
        assert isinstance(upload.payload, EmbeddingPayload)
        assert (upload.task_id, upload.round_id) == (0, 0)
        # the buffer holds exactly the upload, and the upload is rows of the
        # embed stage's embedding of the shard
        assert np.array_equal(buffer.columns["z"], upload.payload.z)
        assert list(buffer.labels) == list(upload.labels)
        for z in upload.payload.z:
            assert any(np.array_equal(z, row) for row in embedded["mu"])


def test_local_train_ver_stats_uploads_stats_payloads():
    embedded, classifier, cls_params, buffer, strategy, rng = local_setup("ver_stats")
    res = local_train(buffer, cls_params, embedded, classifier, 0, 0,
                      tiny_fl(), strategy, rng.child("local"))
    assert res.upload
    assert all(isinstance(up.payload, GaussianStats) for up in res.upload)


def test_local_train_is_deterministic_in_the_stream():
    results = []
    for _ in range(2):
        embedded, classifier, cls_params, buffer, strategy, rng = local_setup("ebr")
        res = local_train(buffer, cls_params, embedded, classifier, 0, 0,
                          tiny_fl(), strategy, rng.child("local"))
        results.append(res)
    assert np.array_equal(results[0].params.flat, results[1].params.flat)
    assert results[0].mean_loss == results[1].mean_loss


# ---------------------------------------------------------------------------
# Server-side training
# ---------------------------------------------------------------------------


def server_buffer_two_clusters(rng, n=40):
    labels = np.arange(n) % 2
    z = np.stack([rng.child("z", i).normal((EMBED,)) * 0.2 + (2.0 if label else -2.0)
                  for i, label in enumerate(labels)])
    buf = RehearsalBuffer(capacity=None)
    admit(buf, Upload(EmbeddingPayload(z), labels, 0, 0).rows(), rng.child("admit"))  # every row
    assert len(buf) == n
    return buf


def test_sst_zero_steps_and_empty_buffer_are_no_ops():
    rng = RngStream(9)
    _, cls_spec = tiny_specs("ebr")
    classifier = ClassifierModel(cls_spec, EMBED)
    params = classifier.init_params(rng.child("cls"))
    buf = server_buffer_two_clusters(rng.child("buf"))
    out = server_side_training(params, buf, classifier, tiny_fl(s_max=0), rng.child("sst"))
    assert out is params
    empty = RehearsalBuffer(capacity=None)
    out = server_side_training(params, empty, classifier, tiny_fl(s_max=5), rng.child("sst"))
    assert out is params


def test_sst_fits_the_server_buffer():
    rng = RngStream(9)
    _, cls_spec = tiny_specs("ebr")
    classifier = ClassifierModel(cls_spec, EMBED)
    params = classifier.init_params(rng.child("cls"))
    buf = server_buffer_two_clusters(rng.child("buf"))
    z = buf.columns["z"]
    y = buf.labels
    loss_before, _ = classifier_loss_and_grad(classifier, params, z, y)
    out = server_side_training(params, buf, classifier,
                               tiny_fl(s_max=60, eta_s=0.1, batch_size=16), rng.child("sst"))
    loss_after, _ = classifier_loss_and_grad(classifier, out, z, y)
    assert loss_after < loss_before
    assert classifier_accuracy(classifier, out, z, y) >= 0.9


def test_sst_is_deterministic_per_stream():
    rng = RngStream(9)
    _, cls_spec = tiny_specs("ebr")
    classifier = ClassifierModel(cls_spec, EMBED)
    params = classifier.init_params(rng.child("cls"))
    buf = server_buffer_two_clusters(rng.child("buf"))
    fl = tiny_fl(s_max=10)
    a = server_side_training(params, buf, classifier, fl, RngStream(77))
    b = server_side_training(params, buf, classifier, fl, RngStream(77))
    c = server_side_training(params, buf, classifier, fl, RngStream(78))
    assert np.array_equal(a.flat, b.flat)
    assert not np.array_equal(a.flat, c.flat)


# ---------------------------------------------------------------------------
# Buffer capacity and encoder defaults
# ---------------------------------------------------------------------------


def test_buffer_capacity_per_strategy():
    raw_bytes = D_IN * 8
    per_task, n_tasks = 40, 3
    naive_count = math.ceil(0.25 * per_task) * n_tasks

    assert buffer_capacity(StrategyConfig("none"), per_task, n_tasks, raw_bytes, EMBED) == 0
    assert buffer_capacity(StrategyConfig("naive", rho=0.25), per_task, n_tasks,
                           raw_bytes, EMBED) == naive_count
    assert buffer_capacity(StrategyConfig("ebr", rho=0.25), per_task, n_tasks,
                           raw_bytes, EMBED) == naive_count
    x16 = StrategyConfig("ebr", rho=0.25, memory_multiplier="x16")
    assert buffer_capacity(x16, per_task, n_tasks, raw_bytes, EMBED) == \
        naive_count * raw_bytes // (EMBED * 8)
    stats16 = StrategyConfig("ver_stats", rho=0.25, memory_multiplier="x16")
    assert buffer_capacity(stats16, per_task, n_tasks, raw_bytes, EMBED) == \
        naive_count * raw_bytes // (2 * EMBED * 8)
    assert buffer_capacity(StrategyConfig("ebr", rho=0.0), per_task, n_tasks,
                           raw_bytes, EMBED) == 0


def test_encoder_kind_for_strategy_mapping():
    assert encoder_kind_for_strategy("none") == "ebr"
    assert encoder_kind_for_strategy("naive") == "ebr"
    assert encoder_kind_for_strategy("ebr") == "ebr"
    assert encoder_kind_for_strategy("noise") == "random_projection"
    assert encoder_kind_for_strategy("ver_stats") == "vee"
    assert encoder_kind_for_strategy("ver_sampled") == "vee"


# ---------------------------------------------------------------------------
# Full runs: determinism, amnesia, checkpoints, payload privacy
# ---------------------------------------------------------------------------


def test_a_run_gathers_images_a_pass_or_a_batch_at_a_time(monkeypatch):
    # tasks hold row numbers, and no step gathers a whole task: pretraining
    # gathers a batch at a time, the embed stage and the validation sets an
    # EVAL_CHUNK pass at a time, here on tasks of 120 train rows
    gathered = []
    gather = ImageRows.__getitem__

    def counted(self, key):
        images = gather(self, key)
        gathered.append(len(images))
        return images

    monkeypatch.setattr(ImageRows, "__getitem__", counted)
    base = make_synthetic_blobs(4, D_IN, 80, 0.15, RngStream(5))
    tasks = build_split_tasks(base, 2, N_CLASSES_PER_TASK, val_fraction=0.25, rng=RngStream(6))
    assert len(tasks.tasks[0].train) == 120 > models.EVAL_CHUNK
    fl, model = tiny_fl(), tiny_model("ver_sampled")
    run_experiment(tasks, "fully_enrolled", fl, StrategyConfig(kind="ver_sampled", rho=0.25),
                   model, master_seed=7)
    run_offline(tasks, fl, model, master_seed=7, steps=4)
    assert 0 < max(gathered) <= models.EVAL_CHUNK


def test_a_split_run_holds_one_band_at_a_time(monkeypatch):
    # each band a draw returns is watched through a weakref: when the next
    # draw starts, every earlier band is gone.  A set reads the band of the
    # classes it spans.  Task 0's band, drawn for pretraining, serves task
    # 0's embed stage and its validation set; the validation pass reads the
    # other tasks' bands in task order, and each later task's band is drawn
    # again at its task's start
    n_tasks, fl = 3, tiny_fl()
    plain, _ = tiny_run("ver_sampled", fl=fl,
                        tasks=tiny_tasks(n_tasks=n_tasks, blobs=oracles.make_synthetic_blobs))
    watched, drawn = [], []
    real_draw = BlobBands._draw

    def draw(self, lo, hi):
        alive = [ref for ref in watched if ref() is not None]
        assert not alive, f"classes {lo}-{hi} drawn while an earlier band is held"
        images = real_draw(self, lo, hi)
        watched.extend([weakref.ref(images), weakref.ref(images.base)])
        drawn.append((lo, hi))
        return images

    monkeypatch.setattr(BlobBands, "_draw", draw)
    tasks = tiny_tasks(n_tasks=n_tasks)
    reports, _ = tiny_run("ver_sampled", fl=fl, tasks=tasks)
    assert drawn == [(0, 2), (2, 4), (4, 6), (2, 4), (4, 6)]
    assert report_tuples(reports) == report_tuples(plain)
    # a set that spans every class holds the whole draw while it is read
    source = tasks.tasks[0].train.images.source
    whole = ImageRows(source)[:]
    assert whole.shape == (6 * 24, D_IN) and drawn[5:] == [(0, 6)]


def test_run_is_deterministic_per_seed():
    reports1, state1 = tiny_run("ebr", seed=11)
    reports2, state2 = tiny_run("ebr", seed=11)
    reports3, _ = tiny_run("ebr", seed=12)
    assert report_tuples(reports1) == report_tuples(reports2)
    assert buffer_sizes(state1) == buffer_sizes(state2)
    assert report_tuples(reports1) != report_tuples(reports3)


def test_training_data_is_never_read_after_its_task_ends(monkeypatch):
    # a task's images are its band of the blob draw, drawn again from the
    # band's recorded state whenever a read of the task finds another band
    # held: make a draw of task t's band return NaN once `lead` rounds or
    # fewer remain before task t's last round ends, so any read after that
    # round (a naive upload included) sees NaN.  Draws before the first
    # round ends (pretraining and the validation pass) are left clean
    fl, n_tasks = tiny_fl(), 3
    reports_clean, clean_state = tiny_run(
        "naive", fl=fl, seed=13,
        tasks=tiny_tasks(n_tasks=n_tasks, blobs=oracles.make_synthetic_blobs))
    real_draw = BlobBands._draw

    def poisoned_run(lead, drawn):
        done = []  # one entry per round ended

        def draw(self, lo, hi):
            images = real_draw(self, lo, hi)
            band = lo // N_CLASSES_PER_TASK
            assert hi == lo + N_CLASSES_PER_TASK, "a read spanned more than one task"
            drawn.append((band, len(done)))
            if done and len(done) + lead >= (band + 1) * fl.rounds_per_task:
                images[:] = np.nan
            return images

        monkeypatch.setattr(BlobBands, "_draw", draw)
        return tiny_run("naive", fl=fl, seed=13, on_round=done.append,
                        tasks=tiny_tasks(n_tasks=n_tasks))

    drawn = []
    reports_poisoned, state = poisoned_run(0, drawn)
    assert report_tuples(reports_poisoned) == report_tuples(reports_clean)
    assert buffer_sizes(state) == buffer_sizes(clean_state)
    # the embed stage's entries, and their gathered rows, are gone
    assert state.shard_embeddings == {}
    # no band is drawn after its task's embed stage, so no poisoned draw
    # happened: task t's band is drawn before task t's first round ends
    assert {band for band, _ in drawn} == set(range(n_tasks))
    assert all(rounds <= band * fl.rounds_per_task for band, rounds in drawn), drawn

    # the same poison a task early, before the task starts, does reach the
    # run: task 2's band is drawn again when its shards are gathered, and
    # the encoder refuses the NaN
    with pytest.raises(ContractViolation, match="non-finite"):
        poisoned_run(fl.rounds_per_task, [])


def test_frozen_encoder_is_verified_every_round():
    reports, state = tiny_run("ebr", stop_after_round=1)
    state.encoder_params = ParamVector(state.encoder_params.layout,
                                       state.encoder_params.flat + 1.0)
    with pytest.raises(ContractViolation):
        federation.run_round(state, 0, 1)


def test_frozen_encoder_check_compares_bytes():
    # 0.0 and -0.0 are equal values but other bytes; the check reads bytes
    reports, state = tiny_run("ebr", stop_after_round=1)
    layout, flat = state.frozen_encoder.layout, state.frozen_encoder.flat.copy()
    flat[0] = 0.0
    state.frozen_encoder = ParamVector(layout, flat)
    state.encoder_params = ParamVector(layout, flat.copy())
    federation.run_round(state, 0, 1)
    flipped = flat.copy()
    flipped[0] = -0.0
    assert np.array_equal(flipped, flat)
    state.encoder_params = ParamVector(layout, flipped)
    with pytest.raises(ContractViolation, match="frozen encoder parameters changed"):
        federation.run_round(state, 0, 2)


@pytest.mark.parametrize("every,stop,saves", [(2, 4, [2, 4]), (2, 3, [2, 3])])
def test_each_checkpoint_round_is_saved_once(tmp_path, monkeypatch, every, stop, saves):
    # a stop on a checkpoint round once saved that round twice
    rounds = []
    real_save = federation.save_checkpoint

    def save(directory, state):
        rounds.append(state.global_round)
        real_save(directory, state)

    monkeypatch.setattr(federation, "save_checkpoint", save)
    tiny_run("ebr", checkpoint_dir=str(tmp_path / "ckpt"), checkpoint_every=every,
             stop_after_round=stop)
    assert rounds == saves


@pytest.mark.parametrize("stop", [0, -1])
def test_stop_after_round_below_one_is_refused_before_any_round(tmp_path, stop):
    ckpt = tmp_path / "ckpt"
    rounds = []
    with pytest.raises(ContractViolation, match="stop_after_round must be at least 1"):
        tiny_run("ebr", checkpoint_dir=str(ckpt), stop_after_round=stop,
                 on_round=rounds.append)
    assert rounds == []
    assert not ckpt.exists()


@pytest.mark.parametrize("strategy_kind,encoder_kind", [
    ("ver_sampled", "ebr"), ("ver_stats", "random_projection"), ("noise", "vee"), ("ebr", "vee"),
])
def test_an_encoder_the_strategy_does_not_use_is_refused_before_pretraining(
        monkeypatch, strategy_kind, encoder_kind):
    # a ver strategy without stats heads once failed only after pretraining,
    # and a vee encoder under noise or ebr ran every round
    pretrained = []
    monkeypatch.setattr(models, "pretrain_encoder", lambda *args, **kw: pretrained.append(args))
    model = tiny_model(strategy_kind)
    model.encoder = dataclasses.replace(model.encoder, kind=encoder_kind)
    with pytest.raises(ContractViolation, match=f"strategy '{strategy_kind}' needs a "
                                                f"'{encoder_kind_for_strategy(strategy_kind)}' "
                                                f"encoder, the model has a '{encoder_kind}'"):
        run_experiment(tiny_tasks(), "fully_enrolled", tiny_fl(), StrategyConfig(strategy_kind),
                       model, master_seed=7)
    assert pretrained == []


def test_resume_rejects_wrong_seed_and_encoder_kind(tmp_path):
    ckpt = tmp_path / "ckpt"
    tiny_run("ebr", seed=21, checkpoint_dir=str(ckpt), stop_after_round=2)
    with pytest.raises(ContractViolation):
        tiny_run("ebr", seed=22, resume_from=str(ckpt))
    with pytest.raises(ContractViolation):
        tiny_run("ver_sampled", seed=21, resume_from=str(ckpt))
    with pytest.raises(ContractViolation):
        tiny_run("ebr", seed=21, resume_from=str(tmp_path / "missing"))


def test_resume_refuses_a_checkpoint_round_past_the_run(tmp_path):
    # the library once resumed round 99 of a 6-round run and returned no reports
    ckpt = tmp_path / "ckpt"
    tiny_run("ebr", seed=21, checkpoint_dir=str(ckpt), stop_after_round=6)
    reports, state = tiny_run("ebr", seed=21, resume_from=str(ckpt))
    assert reports == [] and state.global_round == 6  # the last round resumes to nothing
    meta = json.loads((ckpt / "meta.json").read_text())
    (ckpt / "meta.json").write_text(json.dumps({**meta, "global_round": 99}))
    with pytest.raises(ContractViolation, match="meta.json has global_round 99, past this "
                                                "run's 6 rounds"):
        tiny_run("ebr", seed=21, resume_from=str(ckpt))


def test_resume_under_a_different_schedule_object_is_refused(tmp_path):
    tasks, fl = tiny_tasks(), tiny_fl()
    ckpt = tmp_path / "ckpt"

    def run(grid, **kwargs):
        return run_experiment(tasks, scenarios.EnrollmentSchedule(np.array(grid, dtype=np.int8)),
                              fl, StrategyConfig(kind="ebr", rho=0.25), tiny_model("ebr"),
                              master_seed=21, **kwargs)

    run([[1, 1], [1, 1], [1, 1], [1, 1]], checkpoint_dir=str(ckpt), stop_after_round=2)
    # client 3 drops out at task 1: same config, same seed, another schedule
    with pytest.raises(ContractViolation, match="scenario.schedule"):
        run([[1, 1], [1, 1], [1, 1], [1, 2]], resume_from=str(ckpt))
    reports, _ = run([[1, 1], [1, 1], [1, 1], [1, 1]], resume_from=str(ckpt))
    assert [r.round_id for r in reports] == [2, 3, 4, 5]


def test_scattered_schedule_skips_rounds_without_active_clients():
    tasks = tiny_tasks()
    fl = tiny_fl(n_clients=4, clients_per_round=2)
    # hand-built schedule: task 1 served only by client 3
    grid = np.array([
        [1, 2],
        [1, 2],
        [1, 2],
        [0, 1],
    ], dtype=np.int8)
    schedule = scenarios.EnrollmentSchedule(grid)
    reports, _ = run_experiment(tasks, schedule, fl,
                                StrategyConfig(kind="ver_sampled", rho=0.25),
                                tiny_model("ver_sampled"), master_seed=31)
    for rep in reports:
        if rep.task_id == 1:
            assert rep.participants == (3,)


def test_schedule_shape_must_match_config():
    tasks = tiny_tasks()
    schedule = scenarios.make_schedule("fully_enrolled", 3, 2, RngStream(0))
    with pytest.raises(ContractViolation):
        run_experiment(tasks, schedule, tiny_fl(), StrategyConfig(kind="none"),
                       tiny_model("none"), master_seed=1)


def collect_admitted_payloads(monkeypatch, kind):
    """(payload types of every upload local_train shipped, the column names
    of each row set admitted to the server's buffer, the same for the
    clients' buffers, the final state) of a tiny run."""
    real_admit, real_local_train = federation.admit, federation.local_train
    shipped, admitted = [], []

    def spy_local_train(*args):
        res = real_local_train(*args)
        shipped.extend(type(up.payload) for up in res.upload)
        return res

    def spy_admit(buffer, candidates, rng):
        admitted.append((id(buffer), tuple(candidates.columns)))
        return real_admit(buffer, candidates, rng)

    with monkeypatch.context() as patch:  # the spies go when the run ends
        patch.setattr(federation, "local_train", spy_local_train)
        patch.setattr(federation, "admit", spy_admit)
        _, state = tiny_run(kind, seed=17)
    server_id = id(state.server_buffer)
    server_columns = [cols for bid, cols in admitted if bid == server_id]
    client_columns = [cols for bid, cols in admitted if bid != server_id]
    return shipped, server_columns, client_columns, state


def test_ver_sampled_never_ships_stats_to_the_server(monkeypatch):
    shipped, server_columns, client_columns, state = collect_admitted_payloads(
        monkeypatch, "ver_sampled")
    assert shipped and set(shipped) == {EmbeddingPayload}
    assert server_columns and set(server_columns) == set(client_columns) == {("z",)}
    assert len(state.server_buffer) > 0
    assert list(state.server_buffer.columns) == ["z"]


def test_ver_stats_ships_only_stats_payloads(monkeypatch):
    shipped, server_columns, _, state = collect_admitted_payloads(monkeypatch, "ver_stats")
    assert shipped and set(shipped) == {GaussianStats}
    assert server_columns and set(server_columns) == {("mu", "log_sigma")}
    assert len(state.server_buffer) > 0
    assert list(state.server_buffer.columns) == ["mu", "log_sigma"]


def test_naive_ships_raw_samples(monkeypatch):
    # a naive client ships raw samples, which the server embeds with the
    # frozen encoder.  A row's embedding depends only on the encoder and the
    # row, so the upload carries the embed stage's rows of them: the
    # uploaded raw rows, gathered through the partition and embedded in a
    # pass of their own, give the upload's z byte for byte
    calls = []  # (the client's buffer, task, local stream, upload) per local_train
    real_local_train = federation.local_train

    def spy(buffer, params, embedded, classifier, task_id, *args):
        res = real_local_train(buffer, params, embedded, classifier, task_id, *args)
        calls.append((buffer, task_id, args[-1], res.upload))
        return res

    monkeypatch.setattr(federation, "local_train", spy)
    tasks, fl = tiny_tasks(), tiny_fl()
    _, state = run_experiment(tasks, "fully_enrolled", fl, StrategyConfig(kind="naive", rho=0.25),
                              tiny_model("naive"), master_seed=17)
    partition = partition_clients(tasks, fl.n_clients, RngStream(17).child("partition"))
    assert len(calls) == fl.rounds_per_task * tasks.n_tasks * fl.clients_per_round
    for buffer, task_id, rng, (upload,) in calls:
        cid = next(c for c, b in enumerate(state.client_buffers) if b is buffer)
        shard = partition.rows(cid, task_id)
        assert type(upload.payload) is EmbeddingPayload
        assert 0 < len(upload.labels) < len(shard)
        rows = shard[rng.child("upload").choice(len(shard), len(upload.labels), replace=False)]
        train = tasks.tasks[task_id].train
        z, _ = encode_for_eval(state.encoder, state.encoder_params, train.images[rows])
        assert z.tobytes() == upload.payload.z.tobytes()
        assert list(upload.labels) == list(train.labels[rows])
    assert list(state.server_buffer.columns) == ["z"]


@pytest.mark.parametrize("kind", ["naive", "ver_stats"])
def test_run_round_stacks_each_upload_once_for_both_buffers(monkeypatch, kind):
    real_rows, real_admit = Upload.rows, federation.admit
    stacked, admitted = [], []  # the rows objects, in call order

    def spy_rows(upload):
        stacked.append(real_rows(upload))
        return stacked[-1]

    def spy_admit(buffer, candidates, rng):
        admitted.append((buffer, candidates))
        return real_admit(buffer, candidates, rng)

    monkeypatch.setattr(Upload, "rows", spy_rows)
    monkeypatch.setattr(federation, "admit", spy_admit)
    reports, state = tiny_run(kind, stop_after_round=2)
    # one rows object per upload, then the client's buffer and the server's
    # take that same object
    assert len(stacked) == sum(len(r.participants) for r in reports) == 4
    assert len(admitted) == 2 * len(stacked)
    for i, rows in enumerate(stacked):
        (own, a), (server, b) = admitted[2 * i], admitted[2 * i + 1]
        assert a is rows and b is rows
        assert own is not state.server_buffer and server is state.server_buffer


def test_encoder_runs_only_in_the_embed_stage(monkeypatch):
    # one pass per validation set and per active shard, none per upload, even
    # under naive, whose uploads ship raw samples.  Task 0 is served by
    # clients 0-2, task 1 by clients 1-3
    schedule = scenarios.EnrollmentSchedule(np.array([[1, 2], [1, 1], [1, 1], [0, 1]],
                                                     dtype=np.int8))
    inside = []  # names of the traced calls currently running
    calls = []   # for each encode_for_eval call, the traced calls it ran under
    uploads = []

    def traced(name, fn):
        def wrapper(*args, **kwargs):
            inside.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()
        return wrapper

    real_encode, real_local_train = models.encode_for_eval, federation.local_train

    def encode(*args):
        calls.append(tuple(inside))
        return real_encode(*args)

    def local_train(*args):
        res = real_local_train(*args)
        uploads.append(len(res.upload))
        return res

    for module in [m for name, m in sys.modules.items() if name.startswith("filver")]:
        if getattr(module, "encode_for_eval", None) is real_encode:
            monkeypatch.setattr(module, "encode_for_eval", encode)
    monkeypatch.setattr(federation, "local_train", local_train)
    for name in ("draw_batch", "server_side_training"):
        monkeypatch.setattr(federation, name, traced(name, getattr(federation, name)))

    tasks, fl = tiny_tasks(), tiny_fl()
    run_experiment(tasks, schedule, fl, StrategyConfig(kind="naive", rho=0.25),
                   tiny_model("naive", pretrain_epochs=1), master_seed=23)

    active_shards = sum(len(schedule.active_clients(t)) for t in range(tasks.n_tasks))
    naive_uploads = sum(1 for n in uploads if n)
    assert naive_uploads == len(uploads) == fl.rounds_per_task * tasks.n_tasks * 2
    assert len(calls) == tasks.n_tasks + active_shards
    assert not any(calls)  # none under draw_batch or server_side_training


# ---------------------------------------------------------------------------
# Offline reference
# ---------------------------------------------------------------------------


def test_run_offline_is_deterministic_and_learns():
    tasks = tiny_tasks()
    fl = tiny_fl()
    model = tiny_model("ver_sampled")
    accs1, mean1 = run_offline(tasks, fl, model, master_seed=51, steps=60)
    accs2, mean2 = run_offline(tasks, fl, model, master_seed=51, steps=60)
    assert accs1 == accs2 and mean1 == mean2
    assert len(accs1) == tasks.n_tasks
    _, mean_untrained = run_offline(tasks, fl, model, master_seed=51, steps=0)
    assert mean1 >= mean_untrained - 1e-9
    assert mean1 > 0.6


def test_run_offline_default_step_budget_matches_round_structure():
    tasks = tiny_tasks()
    fl = tiny_fl(rounds_per_task=1, local_iters=1, s_max=1)
    model = tiny_model("ebr", pretrain_epochs=1)
    # default budget is n_tasks * rounds * (local + server) = 2 * 1 * 2 = 4
    accs_default, _ = run_offline(tasks, fl, model, master_seed=51)
    accs_explicit, _ = run_offline(tasks, fl, model, master_seed=51, steps=4)
    assert accs_default == accs_explicit
