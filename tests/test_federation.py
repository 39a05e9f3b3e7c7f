"""Federated loop: aggregation, local training, SST, full runs, checkpoints.

The heaviest check here is a mirror oracle: a from-scratch reimplementation
of the vanilla federated path (no rehearsal, no server training) using only
the documented stream keying.  Its reports must match run_experiment bit for
bit across every round.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import filver.federation as federation
from filver import models, scenarios
from filver.datasets import LabeledSet, build_split_tasks, make_synthetic_blobs, partition_clients
from filver.errors import ContractViolation
from filver.federation import (
    ClientState,
    FLConfig,
    _buffer_capacity,
    default_encoder_spec,
    encoder_kind_for_strategy,
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
    classifier_accuracy,
    classifier_loss_and_grad,
    encode_for_eval,
)
from filver.numcore import ParamVector, sgd_step
from filver.rehearsal import EmbeddingPayload, RawPayload, RehearsalBuffer, RehearsalRecord, admit
from filver.rng import RngStream

# ---------------------------------------------------------------------------
# Shared tiny experiment scaffold
# ---------------------------------------------------------------------------

D_IN = 8
EMBED = 6
N_CLASSES_PER_TASK = 2


def tiny_tasks(seed=2024, n_tasks=2):
    base = make_synthetic_blobs(2 * n_tasks, D_IN, 24, 0.15, RngStream(seed))
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


def tiny_run(strategy_kind, *, fl=None, seed=7, rho=0.25, **kwargs):
    from filver.rehearsal import StrategyConfig

    tasks = tiny_tasks()
    fl = fl or tiny_fl()
    enc_spec, cls_spec = tiny_specs(strategy_kind)
    strategy = StrategyConfig(kind=strategy_kind, rho=rho)
    return run_experiment(tasks, "fully_enrolled", fl, strategy, master_seed=seed,
                          encoder_spec=enc_spec, classifier_spec=cls_spec,
                          pretrain_epochs=2, pretrain_lr=0.05, **kwargs)


def report_tuples(reports):
    return [(r.round_id, r.task_id, r.accuracies, r.mean_loss, r.participants,
             r.server_buffer, r.client_buffer_total) for r in reports]


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
# Vanilla mirror oracle: keying contract end to end
# ---------------------------------------------------------------------------


def mirror_vanilla_run(tasks, fl, seed, enc_spec, cls_spec):
    """Reference federated run for strategy none, s_max ignored (empty server
    buffer), fully enrolled clients.  Follows only the documented keying."""
    master = RngStream(seed)
    encoder = EncoderModel(enc_spec)
    classifier = ClassifierModel(cls_spec, enc_spec.embed_dim)

    partition = partition_clients(tasks, fl.n_clients, master.child("partition"))
    shards = {(c, t): partition.shard(c, t)
              for c in range(fl.n_clients) for t in range(tasks.n_tasks)}

    images = np.concatenate([shards[(c, 0)].images for c in range(fl.n_clients)])
    labels = np.concatenate([shards[(c, 0)].labels for c in range(fl.n_clients)])
    enc_params = models.pretrain_encoder(images, labels, tasks.class_count, encoder,
                                         2, 0.05, master.child("pretrain"),
                                         batch_size=fl.batch_size, beta=models.DEFAULT_BETA)
    params = classifier.init_params(master.child("classifier_init"))

    embeds = {key: encode_for_eval(encoder, enc_params, s.images)[0]
              for key, s in shards.items()}
    val = [(encode_for_eval(encoder, enc_params, t.val.images)[0], np.asarray(t.val.labels))
           for t in tasks.tasks]

    reports = []
    for t in range(tasks.n_tasks):
        for r in range(fl.rounds_per_task):
            pick = master.child("client_sample", t, r).choice(
                fl.n_clients, fl.clients_per_round, replace=False)
            chosen = sorted(int(c) for c in pick)
            results = []
            for cid in chosen:
                L = master.child("local", cid, t, r)
                z_all, y_all = embeds[(cid, t)], shards[(cid, t)].labels
                n = len(y_all)
                local = params
                losses = []
                for i in range(fl.local_iters):
                    idx = L.child("fresh", i).choice(n, fl.batch_size,
                                                     replace=fl.batch_size > n)
                    loss, grad = classifier_loss_and_grad(classifier, local,
                                                          z_all[idx], y_all[idx])
                    local = sgd_step(local, grad, fl.eta)
                    losses.append(loss)
                results.append((local, n, float(np.mean(losses))))
            acc = np.zeros(params.flat.size)
            total = 0.0
            for local, n, _ in results:
                acc += float(n) * local.flat
                total += float(n)
            params = ParamVector(params.layout, acc / total)
            accuracies = tuple(classifier_accuracy(classifier, params, z, y) for z, y in val)
            reports.append((t, r, accuracies, float(np.mean([m for _, _, m in results])),
                            tuple(chosen)))
    return reports, params


def test_vanilla_run_matches_mirror_oracle():
    tasks = tiny_tasks()
    fl = tiny_fl(s_max=1)  # strategy none never populates the server buffer
    enc_spec, cls_spec = tiny_specs("none")
    seed = 42

    got_reports, state = tiny_run("none", fl=fl, seed=seed)
    want_reports, want_params = mirror_vanilla_run(tasks, fl, seed, enc_spec, cls_spec)

    assert len(got_reports) == len(want_reports) == fl.rounds_per_task * tasks.n_tasks
    for got, (t, r, accuracies, mean_loss, chosen) in zip(got_reports, want_reports):
        assert got.task_id == t
        assert got.participants == chosen
        assert got.accuracies == accuracies
        assert got.mean_loss == mean_loss
        assert got.server_buffer == 0
        assert got.client_buffer_total == 0
    assert np.array_equal(state.classifier_params.flat, want_params.flat)


# ---------------------------------------------------------------------------
# Local training
# ---------------------------------------------------------------------------


def make_client(rng, n=20, capacity=64):
    images = rng.child("x").normal((n, D_IN)) * 0.1 + 0.5
    labels = np.asarray(rng.child("y").integers(0, N_CLASSES_PER_TASK, (n,)), dtype=np.int64)
    shard = LabeledSet(np.clip(images, 0, 1), labels, N_CLASSES_PER_TASK)
    client = ClientState(0, {0: shard}, RehearsalBuffer(capacity=capacity),
                         enrollment=scenarios.ACTIVE)
    return client


def local_setup(kind, seed=5):
    from filver.rehearsal import StrategyConfig

    rng = RngStream(seed)
    enc_spec, cls_spec = tiny_specs(kind)
    encoder = EncoderModel(enc_spec)
    enc_params = encoder.init_params(rng.child("enc"))
    classifier = ClassifierModel(cls_spec, EMBED)
    cls_params = classifier.init_params(rng.child("cls"))
    client = make_client(rng.child("client"))
    strategy = StrategyConfig(kind=kind, rho=0.25)
    return encoder, enc_params, classifier, cls_params, client, strategy, rng


def test_local_train_requires_active_enrollment():
    encoder, enc_params, classifier, cls_params, client, strategy, rng = local_setup("none")
    client.enrollment = scenarios.NOT_ENROLLED_YET
    with pytest.raises(ContractViolation):
        local_train(client, cls_params, encoder, enc_params, classifier, 0, 0,
                    tiny_fl(), strategy, rng.child("local"))


def test_local_train_requires_data_for_task():
    encoder, enc_params, classifier, cls_params, client, strategy, rng = local_setup("none")
    client.shards = {}
    with pytest.raises(ContractViolation):
        local_train(client, cls_params, encoder, enc_params, classifier, 0, 0,
                    tiny_fl(), strategy, rng.child("local"))


def test_local_train_zero_iters_probes_without_stepping():
    encoder, enc_params, classifier, cls_params, client, strategy, rng = local_setup("none")
    res = local_train(client, cls_params, encoder, enc_params, classifier, 0, 0,
                      tiny_fl(local_iters=0), strategy, rng.child("local"))
    assert res.params is cls_params
    assert math.isfinite(res.mean_loss)
    assert res.upload == []
    assert res.n_samples == 20


def test_local_train_steps_change_params_and_report_loss():
    encoder, enc_params, classifier, cls_params, client, strategy, rng = local_setup("none")
    res = local_train(client, cls_params, encoder, enc_params, classifier, 0, 0,
                      tiny_fl(), strategy, rng.child("local"))
    assert not np.array_equal(res.params.flat, cls_params.flat)
    assert math.isfinite(res.mean_loss)


def test_local_train_uploads_rho_sample_and_self_admits():
    encoder, enc_params, classifier, cls_params, client, strategy, rng = local_setup("ebr")
    res = local_train(client, cls_params, encoder, enc_params, classifier, 0, 3,
                      tiny_fl(), strategy, rng.child("local"))
    expected = math.ceil(0.25 * 20)
    assert len(res.upload) == expected
    assert len(client.buffer) == expected
    for rec in res.upload:
        assert isinstance(rec.payload, EmbeddingPayload)
        assert rec.task_id == 0
        assert rec.round_id == 3
    # uploaded embeddings match the frozen encoder on the shard
    det, _ = encode_for_eval(encoder, enc_params, client.shards[0].images)
    for rec in res.upload:
        assert any(np.allclose(rec.payload.z, row, rtol=1e-12, atol=0) for row in det)


def test_local_train_ver_stats_uploads_stats_payloads():
    encoder, enc_params, classifier, cls_params, client, strategy, rng = local_setup("ver_stats")
    res = local_train(client, cls_params, encoder, enc_params, classifier, 0, 0,
                      tiny_fl(), strategy, rng.child("local"))
    assert res.upload
    assert all(isinstance(rec.payload, GaussianStats) for rec in res.upload)


def test_local_train_is_deterministic_in_the_stream():
    results = []
    for _ in range(2):
        encoder, enc_params, classifier, cls_params, client, strategy, rng = local_setup("ebr")
        res = local_train(client, cls_params, encoder, enc_params, classifier, 0, 0,
                          tiny_fl(), strategy, rng.child("local"))
        results.append(res)
    assert np.array_equal(results[0].params.flat, results[1].params.flat)
    assert results[0].mean_loss == results[1].mean_loss


# ---------------------------------------------------------------------------
# Server-side training
# ---------------------------------------------------------------------------


def server_buffer_two_clusters(rng, n=40):
    records = []
    for i in range(n):
        label = i % 2
        center = 2.0 if label else -2.0
        z = rng.child("z", i).normal((EMBED,)) * 0.2 + center
        records.append(RehearsalRecord(EmbeddingPayload(z), label, 0, 0))
    buf = RehearsalBuffer(capacity=None)
    admit(buf, records, rng.child("admit"))  # every record, in order
    assert len(buf) == n
    return buf


def test_sst_zero_steps_and_empty_buffer_are_no_ops():
    rng = RngStream(9)
    _, cls_spec = tiny_specs("ebr")
    classifier = ClassifierModel(cls_spec, EMBED)
    params = classifier.init_params(rng.child("cls"))
    encoder = EncoderModel(tiny_specs("ebr")[0])
    enc_params = encoder.init_params(rng.child("enc"))
    buf = server_buffer_two_clusters(rng.child("buf"))
    out = server_side_training(params, buf, classifier, tiny_fl(s_max=0), "ebr",
                               encoder, enc_params, rng.child("sst"))
    assert out is params
    empty = RehearsalBuffer(capacity=None)
    out = server_side_training(params, empty, classifier, tiny_fl(s_max=5), "ebr",
                               encoder, enc_params, rng.child("sst"))
    assert out is params


def test_sst_fits_the_server_buffer():
    rng = RngStream(9)
    _, cls_spec = tiny_specs("ebr")
    classifier = ClassifierModel(cls_spec, EMBED)
    params = classifier.init_params(rng.child("cls"))
    encoder = EncoderModel(tiny_specs("ebr")[0])
    enc_params = encoder.init_params(rng.child("enc"))
    buf = server_buffer_two_clusters(rng.child("buf"))
    z = buf.columns["z"]
    y = buf.labels
    loss_before, _ = classifier_loss_and_grad(classifier, params, z, y)
    out = server_side_training(params, buf, classifier,
                               tiny_fl(s_max=60, eta_s=0.1, batch_size=16), "ebr",
                               encoder, enc_params, rng.child("sst"))
    loss_after, _ = classifier_loss_and_grad(classifier, out, z, y)
    assert loss_after < loss_before
    assert classifier_accuracy(classifier, out, z, y) >= 0.9


def test_sst_is_deterministic_per_stream():
    rng = RngStream(9)
    _, cls_spec = tiny_specs("ebr")
    classifier = ClassifierModel(cls_spec, EMBED)
    params = classifier.init_params(rng.child("cls"))
    encoder = EncoderModel(tiny_specs("ebr")[0])
    enc_params = encoder.init_params(rng.child("enc"))
    buf = server_buffer_two_clusters(rng.child("buf"))
    fl = tiny_fl(s_max=10)
    a = server_side_training(params, buf, classifier, fl, "ebr", encoder, enc_params,
                             RngStream(77))
    b = server_side_training(params, buf, classifier, fl, "ebr", encoder, enc_params,
                             RngStream(77))
    c = server_side_training(params, buf, classifier, fl, "ebr", encoder, enc_params,
                             RngStream(78))
    assert np.array_equal(a.flat, b.flat)
    assert not np.array_equal(a.flat, c.flat)


# ---------------------------------------------------------------------------
# Buffer capacity and encoder defaults
# ---------------------------------------------------------------------------


def test_buffer_capacity_per_strategy():
    from filver.rehearsal import StrategyConfig

    raw_bytes = D_IN * 8
    per_task, n_tasks = 40, 3
    naive_count = math.ceil(0.25 * per_task) * n_tasks

    assert _buffer_capacity(StrategyConfig("none"), per_task, n_tasks, raw_bytes, EMBED) == 0
    assert _buffer_capacity(StrategyConfig("naive", rho=0.25), per_task, n_tasks,
                            raw_bytes, EMBED) == naive_count
    assert _buffer_capacity(StrategyConfig("ebr", rho=0.25), per_task, n_tasks,
                            raw_bytes, EMBED) == naive_count
    x16 = StrategyConfig("ebr", rho=0.25, memory_multiplier="x16")
    assert _buffer_capacity(x16, per_task, n_tasks, raw_bytes, EMBED) == \
        naive_count * raw_bytes // (EMBED * 8)
    stats16 = StrategyConfig("ver_stats", rho=0.25, memory_multiplier="x16")
    assert _buffer_capacity(stats16, per_task, n_tasks, raw_bytes, EMBED) == \
        naive_count * raw_bytes // (2 * EMBED * 8)
    assert _buffer_capacity(StrategyConfig("ebr", rho=0.0), per_task, n_tasks,
                            raw_bytes, EMBED) == 0


def test_encoder_kind_for_strategy_mapping():
    assert encoder_kind_for_strategy("none") == "ebr"
    assert encoder_kind_for_strategy("naive") == "ebr"
    assert encoder_kind_for_strategy("ebr") == "ebr"
    assert encoder_kind_for_strategy("noise") == "random_projection"
    assert encoder_kind_for_strategy("ver_stats") == "vee"
    assert encoder_kind_for_strategy("ver_sampled") == "vee"


def test_default_encoder_spec_picks_arch_from_dims():
    flat = tiny_tasks()
    spec = default_encoder_spec("ver_sampled", flat, 12, 32)
    assert spec.kind == "vee"
    assert spec.arch == "mlp"
    assert spec.input_dims == (D_IN,)
    assert spec.embed_dim == 12

    base = make_synthetic_blobs(4, 144, 12, 0.2, RngStream(0), image_shape=(12, 12))
    imaged = build_split_tasks(base, n_tasks=2, classes_per_task=2,
                               val_fraction=0.25, rng=RngStream(1))
    spec = default_encoder_spec("ebr", imaged, 12, 32, conv_channels=(4, 8))
    assert spec.arch == "conv"
    assert spec.conv_channels == (4, 8)


# ---------------------------------------------------------------------------
# Full runs: determinism, amnesia, checkpoints, payload privacy
# ---------------------------------------------------------------------------


def test_run_is_deterministic_per_seed():
    reports1, _ = tiny_run("ebr", seed=11)
    reports2, _ = tiny_run("ebr", seed=11)
    reports3, _ = tiny_run("ebr", seed=12)
    assert report_tuples(reports1) == report_tuples(reports2)
    assert report_tuples(reports1) != report_tuples(reports3)


def test_training_data_is_never_read_after_its_task_ends():
    reports_clean, _ = tiny_run("naive", seed=13)

    from filver.rehearsal import StrategyConfig

    tasks = tiny_tasks()
    enc_spec, cls_spec = tiny_specs("naive")

    def poison(task_id):
        tasks.tasks[task_id].train.images[:] = np.nan

    reports_poisoned, state = run_experiment(
        tasks, "fully_enrolled", tiny_fl(), StrategyConfig(kind="naive", rho=0.25),
        master_seed=13, encoder_spec=enc_spec, classifier_spec=cls_spec,
        pretrain_epochs=2, pretrain_lr=0.05, on_task_boundary=poison)

    assert report_tuples(reports_poisoned) == report_tuples(reports_clean)
    # raw shards and embedding caches are gone once their task is over
    for client in state.clients:
        assert client.shards == {}
        assert client.fresh_cache == {}


def test_frozen_encoder_is_verified_every_round():
    reports, state = tiny_run("ebr", stop_after_round=1)
    state.encoder_params = ParamVector(state.encoder_params.layout,
                                       state.encoder_params.flat + 1.0)
    with pytest.raises(ContractViolation):
        federation.run_round(state, 0, 1)


def test_checkpoint_resume_matches_uninterrupted_run(tmp_path):
    full_reports, full_state = tiny_run("ebr", seed=21)

    ckpt = tmp_path / "ckpt"
    part1, _ = tiny_run("ebr", seed=21, checkpoint_dir=str(ckpt), stop_after_round=3)
    assert len(part1) == 3
    part2, resumed_state = tiny_run("ebr", seed=21, resume_from=str(ckpt))

    assert report_tuples(part1 + part2) == report_tuples(full_reports)
    assert np.array_equal(resumed_state.classifier_params.flat,
                          full_state.classifier_params.flat)
    # buffers carried through the checkpoint identically
    assert len(resumed_state.server_buffer) == len(full_state.server_buffer)
    resumed, full = resumed_state.server_buffer, full_state.server_buffer
    assert list(resumed.columns) == list(full.columns) == ["z"]
    assert np.array_equal(resumed.columns["z"], full.columns["z"])
    for name in ("labels", "tasks", "rounds"):
        assert np.array_equal(getattr(resumed, name), getattr(full, name))


def test_resume_rejects_wrong_seed_and_encoder_kind(tmp_path):
    ckpt = tmp_path / "ckpt"
    tiny_run("ebr", seed=21, checkpoint_dir=str(ckpt), stop_after_round=2)
    with pytest.raises(ContractViolation):
        tiny_run("ebr", seed=22, resume_from=str(ckpt))
    with pytest.raises(ContractViolation):
        tiny_run("ver_sampled", seed=21, resume_from=str(ckpt))
    with pytest.raises(ContractViolation):
        tiny_run("ebr", seed=21, resume_from=str(tmp_path / "missing"))


def test_resume_under_a_different_schedule_object_is_refused(tmp_path):
    from filver.rehearsal import StrategyConfig

    tasks, fl = tiny_tasks(), tiny_fl()
    enc_spec, cls_spec = tiny_specs("ebr")
    ckpt = tmp_path / "ckpt"

    def run(grid, **kwargs):
        return run_experiment(tasks, scenarios.EnrollmentSchedule(np.array(grid, dtype=np.int8)),
                              fl, StrategyConfig(kind="ebr", rho=0.25), master_seed=21,
                              encoder_spec=enc_spec, classifier_spec=cls_spec,
                              pretrain_epochs=2, pretrain_lr=0.05, **kwargs)

    run([[1, 1], [1, 1], [1, 1], [1, 1]], checkpoint_dir=str(ckpt), stop_after_round=2)
    # client 3 drops out at task 1: same config, same seed, another schedule
    with pytest.raises(ContractViolation, match="scenario.schedule"):
        run([[1, 1], [1, 1], [1, 1], [1, 2]], resume_from=str(ckpt))
    reports, _ = run([[1, 1], [1, 1], [1, 1], [1, 1]], resume_from=str(ckpt))
    assert [r.round_id for r in reports] == [2, 3, 4, 5]


def test_scattered_schedule_skips_rounds_without_active_clients():
    from filver.rehearsal import StrategyConfig

    tasks = tiny_tasks()
    fl = tiny_fl(n_clients=4, clients_per_round=2)
    enc_spec, cls_spec = tiny_specs("ver_sampled")
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
                                master_seed=31, encoder_spec=enc_spec,
                                classifier_spec=cls_spec, pretrain_epochs=2,
                                pretrain_lr=0.05)
    for rep in reports:
        if rep.task_id == 1:
            assert rep.participants == (3,)


def test_schedule_shape_must_match_config():
    from filver.rehearsal import StrategyConfig

    tasks = tiny_tasks()
    schedule = scenarios.make_schedule("fully_enrolled", 3, 2, RngStream(0))
    enc_spec, cls_spec = tiny_specs("none")
    with pytest.raises(ContractViolation):
        run_experiment(tasks, schedule, tiny_fl(), StrategyConfig(kind="none"),
                       master_seed=1, encoder_spec=enc_spec, classifier_spec=cls_spec)


def collect_admitted_payloads(monkeypatch, kind):
    real_admit = federation.admit
    calls = []

    def spy(buffer, candidates, rng):
        calls.append((id(buffer), [type(rec.payload) for rec in candidates]))
        return real_admit(buffer, candidates, rng)

    monkeypatch.setattr(federation, "admit", spy)
    _, state = tiny_run(kind, seed=17)
    server_id = id(state.server_buffer)
    server_types = [t for bid, types in calls if bid == server_id for t in types]
    client_types = [t for bid, types in calls if bid != server_id for t in types]
    return server_types, client_types, state


def test_ver_sampled_never_ships_stats_to_the_server(monkeypatch):
    server_types, client_types, state = collect_admitted_payloads(monkeypatch, "ver_sampled")
    assert server_types
    assert set(server_types) == {EmbeddingPayload}
    assert set(client_types) == {EmbeddingPayload}
    assert len(state.server_buffer) > 0
    assert list(state.server_buffer.columns) == ["z"]


def test_ver_stats_ships_only_stats_payloads(monkeypatch):
    server_types, _, state = collect_admitted_payloads(monkeypatch, "ver_stats")
    assert server_types
    assert set(server_types) == {GaussianStats}
    assert len(state.server_buffer) > 0
    assert list(state.server_buffer.columns) == ["mu", "log_sigma"]


def test_naive_ships_raw_samples(monkeypatch):
    server_types, _, _ = collect_admitted_payloads(monkeypatch, "naive")
    assert server_types
    assert set(server_types) == {RawPayload}


# ---------------------------------------------------------------------------
# Offline reference
# ---------------------------------------------------------------------------


def test_run_offline_is_deterministic_and_learns():
    tasks = tiny_tasks()
    fl = tiny_fl()
    enc_spec, cls_spec = tiny_specs("ver_sampled")
    kw = dict(master_seed=51, encoder_spec=enc_spec, classifier_spec=cls_spec,
              pretrain_epochs=2, pretrain_lr=0.05)
    accs1, mean1 = run_offline(tasks, fl, steps=60, **kw)
    accs2, mean2 = run_offline(tasks, fl, steps=60, **kw)
    assert accs1 == accs2 and mean1 == mean2
    assert len(accs1) == tasks.n_tasks
    _, mean_untrained = run_offline(tasks, fl, steps=0, **kw)
    assert mean1 >= mean_untrained - 1e-9
    assert mean1 > 0.6


def test_run_offline_default_step_budget_matches_round_structure():
    tasks = tiny_tasks()
    fl = tiny_fl(rounds_per_task=1, local_iters=1, s_max=1)
    enc_spec, cls_spec = tiny_specs("ebr")
    kw = dict(master_seed=51, encoder_spec=enc_spec, classifier_spec=cls_spec,
              pretrain_epochs=1, pretrain_lr=0.05)
    # default budget is n_tasks * rounds * (local + server) = 2 * 1 * 2 = 4
    accs_default, _ = run_offline(tasks, fl, **kw)
    accs_explicit, _ = run_offline(tasks, fl, steps=4, **kw)
    assert accs_default == accs_explicit
