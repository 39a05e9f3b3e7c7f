"""Rehearsal buffers: uploads, admission, eviction, batch draws, budgets,
snapshots, and agreement with the reference simulator's list buffer and row
draw (`reference.py`) and with the per-row snapshot writer (`oracles.py`).

An upload is columnar, so every admission here takes an upload's rows, as
run_round does; the reference takes the same rows as records."""

import os
import re
import struct
import tempfile

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import reference
from filver import storage
from filver.errors import ContractViolation
from filver.federation import _build_upload
from filver.models import GaussianStats
from filver.rehearsal import (
    STRATEGY_KINDS,
    EmbeddingPayload,
    RawPayload,
    RehearsalBuffer,
    StrategyConfig,
    Upload,
    admit,
    buffer_capacity,
    buffer_columns,
    draw_batch,
    load_buffer,
    save_buffer,
)
from filver.rng import RngStream


def embed_upload(rng, n, task_id=0, round_id=0, dim=4):
    """n embedding rows of one (task, round), labelled i % 3."""
    return Upload(EmbeddingPayload(rng.normal((n, dim))), np.arange(n) % 3, task_id, round_id)


def stats_upload(rng, n, task_id=0, round_id=0, dim=4):
    """The same with (mu, log_sigma) rows."""
    return Upload(GaussianStats(rng.child("mu").normal((n, dim)),
                                rng.child("log_sigma").normal((n, dim))),
                  np.arange(n) % 3, task_id, round_id)


def embed_rows(rng, n, task_id=0, round_id=0, dim=4):
    return embed_upload(rng, n, task_id, round_id, dim).rows()


def one_row(payload_type, *arrays, label=0):
    """A one-row upload of the given row arrays."""
    return Upload(payload_type(*(np.asarray(a)[None] for a in arrays)), [label], 0, 0)


def buffer_of(uploads, capacity=None):
    """A buffer holding exactly the rows of `uploads`, in order (admission
    without eviction draws nothing)."""
    buf = RehearsalBuffer(capacity=None)
    for upload in uploads:
        admit(buf, upload.rows(), RngStream(0))
    buf.capacity = capacity
    return buf


def rows(buf):
    """Every row of a columnar buffer as comparable tuples."""
    return [(tuple(np.concatenate([buf.columns[k][i].ravel() for k in buf.columns])),
             int(buf.labels[i]), int(buf.tasks[i]), int(buf.rounds[i]))
            for i in range(len(buf))]


def task_counts(buf):
    """Rows per task id."""
    tasks, counts = np.unique(buf.tasks, return_counts=True)
    return dict(zip(tasks.tolist(), counts.tolist()))


def draw(buf, k, rng):
    """A replay draw from buf, on rng's "replay" and "replay_eps" streams."""
    return draw_batch(buf.columns, buf.labels, k, rng.child("replay"), rng.child("replay_eps"))


def pairs(z, y):
    """Drawn (z, y) pairs as comparable tuples."""
    return [(tuple(row), int(label)) for row, label in zip(z, y)]


def rows_of(upload) -> list:
    """An upload's rows as the reference's records, in order."""
    arrays = vars(upload.payload)
    return [reference.Row({name: a[i] for name, a in arrays.items()}, int(label),
                          upload.task_id, upload.round_id)
            for i, label in enumerate(upload.labels)]


def record_rows(records):
    """The same tuples for a list of records (the reference's rows)."""
    return [(tuple(np.concatenate([a.ravel() for a in r.columns.values()])),
             r.label, r.task, r.round) for r in records]


# ---------------------------------------------------------------------------
# Config and upload validation
# ---------------------------------------------------------------------------


def test_strategy_config_rejects_unknown_kind():
    with pytest.raises(ContractViolation):
        StrategyConfig(kind="replay_everything")


@pytest.mark.parametrize("rho", [-0.01, 1.01])
def test_strategy_config_rejects_rho_outside_unit_interval(rho):
    with pytest.raises(ContractViolation):
        StrategyConfig(kind="ebr", rho=rho)


def test_strategy_config_rejects_bad_multiplier():
    with pytest.raises(ContractViolation):
        StrategyConfig(kind="ebr", memory_multiplier="x4")


SHARD = {"images": np.zeros((8, 6)), "labels": np.arange(8) % 2,
         "mu": np.zeros((8, 4)), "log_sigma": np.zeros((8, 4))}


def test_expected_payload_types_per_kind():
    # what each strategy ships: raw samples only under naive, stats only
    # under ver_stats, nothing under none
    want = {"none": set(), "noise": {EmbeddingPayload}, "naive": {RawPayload},
            "ebr": {EmbeddingPayload}, "ver_stats": {GaussianStats},
            "ver_sampled": {EmbeddingPayload}}
    for kind, types in want.items():
        upload = _build_upload(SHARD, 0, 0, StrategyConfig(kind=kind, rho=0.5), RngStream(1))
        assert {type(up.payload) for up in upload} == types, kind


@pytest.mark.parametrize("kind", STRATEGY_KINDS)
def test_upload_payload_fields_are_the_buffer_columns(kind):
    # privacy as schema: an upload's payload fields are its rows' columns,
    # and they are the strategy's buffer columns, but for the raw samples a
    # naive client ships.  A ver_sampled upload has no field for statistics.
    upload = _build_upload(SHARD, 0, 0, StrategyConfig(kind=kind, rho=0.5), RngStream(1))
    if kind == "none":
        assert upload == [] and buffer_columns(kind) == ()
        return
    (only,) = upload
    fields = tuple(vars(only.payload))
    assert fields == tuple(only.rows().columns)
    assert fields == (("x",) if kind == "naive" else buffer_columns(kind))
    if kind == "ver_sampled":
        assert fields == ("z",)
    if kind == "ver_stats":
        assert fields == ("mu", "log_sigma")
    assert all(len(a) == len(only.labels) == 4 for a in vars(only.payload).values())


@pytest.mark.parametrize("kind", ["naive", "ebr", "ver_stats", "ver_sampled"])
@pytest.mark.parametrize("rho", [0.5, 1.0])
def test_upload_arrays_share_no_memory_with_the_embed_stage(kind, rho):
    # an upload outlives the embed stage's entry, which is dropped at the
    # task boundary; at rho 1 it ships every row, still as its own copy
    entry = {"images": np.ones((8, 6)), "labels": np.arange(8) % 2,
             "mu": np.ones((8, 4)), "log_sigma": np.zeros((8, 4))}
    (upload,) = _build_upload(entry, 0, 0, StrategyConfig(kind=kind, rho=rho), RngStream(1))
    for mine in [upload.labels, *vars(upload.payload).values()]:
        assert not any(np.shares_memory(mine, theirs) for theirs in entry.values())
    rows = upload.rows()
    for name in ("labels", "tasks", "rounds"):
        assert not any(np.shares_memory(getattr(rows, name), theirs)
                       for theirs in entry.values())


def test_admit_refuses_raw_samples():
    buf = RehearsalBuffer(capacity=None)
    raw_rows = one_row(RawPayload, np.ones(6)).rows()
    assert list(raw_rows.columns) == ["x"]
    with pytest.raises(ContractViolation, match="holds no raw samples"):
        admit(buf, raw_rows, RngStream(0))
    assert len(buf) == 0 and buf.columns == {}


def test_upload_rejects_unknown_payload_object():
    with pytest.raises(ContractViolation, match="unknown payload type ndarray"):
        Upload(np.zeros((1, 4)), [0], 0, 0)


@pytest.mark.parametrize("payload,rows_held", [
    (EmbeddingPayload(np.zeros((2, 4))), 2),
    (EmbeddingPayload(np.zeros(4)), 4),
    (EmbeddingPayload(np.float64(1.0)), None),
    (RawPayload(np.zeros((4, 2, 2))), 4),
    (GaussianStats(np.zeros((3, 4)), np.zeros((3, 4))), 3),
], ids=["rows-2", "vector", "scalar", "raw-rows-4", "stats-rows-3"])
def test_upload_payload_needs_a_row_per_label(payload, rows_held):
    # an upload's arrays stack its rows: one row per label, so no row can
    # go missing or take another row's shape
    with pytest.raises(ContractViolation, match="has no row for each of 1 labels"):
        Upload(payload, [0], 0, 0)
    if rows_held is not None:
        assert len(Upload(payload, np.arange(rows_held), 0, 0).rows()) == rows_held


def first_frame_tag(tmp_path, buf) -> int:
    path = tmp_path / "one.bin"
    save_buffer(path, buf)
    with open(path, "rb") as f:
        f.read(28)  # magic, version, capacity, rho, count
        return storage.read_record_frame(f)[0]


def test_payload_tags_are_distinct(tmp_path):
    # the raw tag is never written any more, and a snapshot holding it is refused
    rng = RngStream(1)
    tags = {
        storage.PAYLOAD_RAW,
        first_frame_tag(tmp_path, buffer_of([embed_upload(rng.child("z"), 1)])),
        first_frame_tag(tmp_path, buffer_of([stats_upload(rng.child("stats"), 1)])),
    }
    assert len(tags) == 3


def test_admit_rejects_a_second_payload_type():
    rng = RngStream(1)
    buf = buffer_of([embed_upload(rng.child("emb"), 3)])
    raws = Upload(RawPayload(rng.normal((1, 6))), [0], 0, 1).rows()
    with pytest.raises(ContractViolation):
        admit(buf, raws, rng.child("admit"))
    wider = embed_rows(rng.child("wide"), 2, round_id=1, dim=5)
    with pytest.raises(ContractViolation, match="buffer holds payload columns"):
        admit(buf, wider, rng.child("admit"))
    stats = Upload(GaussianStats(np.ones((1, 4)), np.zeros((1, 4))), [0], 0, 2).rows()
    with pytest.raises(ContractViolation, match="buffer holds payload columns"):
        admit(buf, stats, rng.child("admit"))
    assert len(buf) == 3


# ---------------------------------------------------------------------------
# Admission.  rho is sampled once, when a client builds its upload, and the
# client admits that sample to its own buffer; admit itself keeps every
# candidate.  The fraction tests therefore go through the upload sampler.
# ---------------------------------------------------------------------------


def upload_of(n, rho, rng):
    """The ebr upload drawn from an n-sample shard whose sample i embeds as
    [i], and the client buffer after run_round's self-admission of it."""
    embedded = {"images": np.zeros((n, 1)), "labels": np.arange(n) % 3,
                "mu": np.arange(n, dtype=np.float64)[:, None], "log_sigma": None}
    upload = _build_upload(embedded, 0, 0, StrategyConfig(kind="ebr", rho=rho), rng)
    buffer = RehearsalBuffer(capacity=None)
    for up in upload:
        admit(buffer, up.rows(), rng.child("self_admit"))
    return upload, buffer


def test_admit_takes_exact_ceil_fraction():
    (upload,), buf = upload_of(1000, 0.1, RngStream(7))
    assert len(upload.labels) == len(buf) == 100
    assert len(set(buf.columns["z"][:, 0].tolist())) == 100


def test_admit_ceil_rounds_up():
    # 5 samples at rho 0.1 still upload and admit one row
    (upload,), buf = upload_of(5, 0.1, RngStream(7))
    assert len(upload.labels) == len(buf) == 1


def test_admit_rho_zero_is_a_no_op():
    upload, buf = upload_of(50, 0.0, RngStream(7))
    assert upload == [] and len(buf) == 0


def test_admit_rho_one_takes_everything_in_order():
    rng = RngStream(7)
    cands = embed_upload(rng.child("cands"), 20)
    buf = RehearsalBuffer(capacity=None)
    admit(buf, cands.rows(), rng.child("admit"))
    assert rows(buf) == record_rows(rows_of(cands))
    assert np.array_equal(buf.columns["z"], cands.payload.z)


def test_admit_empty_candidate_list_is_a_no_op():
    buf = RehearsalBuffer(capacity=None)
    empty = RehearsalBuffer()
    assert len(empty) == 0 and empty.columns == {}
    admit(buf, empty, RngStream(7))
    admit(buf, embed_rows(RngStream(7), 0), RngStream(7))
    assert len(buf) == 0


def test_admit_rejects_mixed_task_round_keys():
    rng = RngStream(7)
    a, b = (embed_rows(rng.child(name), 3, task_id=t) for name, t in (("a", 0), ("b", 1)))
    cands = RehearsalBuffer(None, {"z": np.concatenate([a.columns["z"], b.columns["z"]])},
                            *(np.concatenate([getattr(a, k), getattr(b, k)])
                              for k in ("labels", "tasks", "rounds")))
    buf = RehearsalBuffer(capacity=None)
    with pytest.raises(ContractViolation, match=r"span multiple \(task, round\) keys: "
                                                r"\[\(0, 0\), \(1, 0\)\]"):
        admit(buf, cands, rng.child("admit"))
    assert len(buf) == 0


def test_admit_leaves_its_rows_unchanged_for_the_next_buffer():
    # run_round admits one rows object to two buffers: a full one, which
    # evicts and compacts in place, and an empty one
    rng = RngStream(7)
    new = embed_rows(rng.child("new"), 6, task_id=1)
    want = rows(new)
    full = buffer_of([embed_upload(rng.child("old"), 8)], capacity=8)
    empty = RehearsalBuffer(capacity=None)
    for buf in (full, empty):
        admit(buf, new, rng.child("admit", len(buf)))
        assert not np.shares_memory(buf.columns["z"], new.columns["z"])
    assert rows(new) == want
    assert len(full) == 8 and rows(empty) == want


def test_admit_subset_is_uniform():
    # chi-square over which shard samples get uploaded and admitted across many trials
    n, trials = 200, 400
    rng = RngStream(99)
    hits = np.zeros(n)
    for t in range(trials):
        _, buf = upload_of(n, 0.1, rng.child("trial", t))
        for z in buf.columns["z"]:
            hits[int(z[0])] += 1
    assert hits.sum() == trials * 20
    stat, pvalue = scipy.stats.chisquare(hits)
    assert pvalue > 1e-3


# ---------------------------------------------------------------------------
# Eviction
# ---------------------------------------------------------------------------


def admit_tasks(capacity, sizes, rng):
    """(program buffer, reference ListBuffer) after admitting, to each on the
    same stream, one upload of sizes[t] rows for each task t in turn."""
    buf, ref = RehearsalBuffer(capacity=capacity), reference.ListBuffer(capacity)
    for task_id, n in enumerate(sizes):
        upload = embed_upload(rng.child("t", task_id), n, task_id=task_id)
        admit(buf, upload.rows(), rng.child("admit", task_id))
        reference.admit(ref, rows_of(upload), rng.child("admit", task_id))
        assert len(buf) <= capacity
    return buf, ref


def reference_task_counts(ref):
    """Rows per task id in a reference ListBuffer."""
    tasks, counts = np.unique([row.task for row in ref.rows], return_counts=True)
    return dict(zip(tasks.tolist(), counts.tolist()))


def test_eviction_balances_tasks_against_the_reference():
    buf, ref = admit_tasks(50, [20] * 4, RngStream(3))
    counts = task_counts(buf)
    assert counts == reference_task_counts(ref)
    # the policy protects early tasks: task 0 never holds fewer than task 3
    assert counts[0] >= counts[3]
    assert abs(max(counts.values()) - min(counts.values())) <= 1


def test_eviction_tie_breaks_toward_newest_task():
    rng = RngStream(5)
    buf = RehearsalBuffer(capacity=3)
    admit(buf, embed_rows(rng.child("a"), 2, task_id=0), rng.child("ad", 0))
    admit(buf, embed_rows(rng.child("b"), 2, task_id=1), rng.child("ad", 1))
    assert task_counts(buf) == {0: 2, 1: 1}


def test_unbounded_buffer_never_evicts():
    rng = RngStream(5)
    buf = RehearsalBuffer(capacity=None)
    for task_id in range(6):
        admit(buf, embed_rows(rng.child("t", task_id), 40, task_id=task_id),
              rng.child("admit", task_id))
    assert len(buf) == 240


@settings(max_examples=60, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=40),
    batches=st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_capacity_is_never_exceeded(capacity, batches, seed):
    buf, ref = admit_tasks(capacity, batches, RngStream(seed))
    assert task_counts(buf) == reference_task_counts(ref)


# ---------------------------------------------------------------------------
# Replay: draw_batch from a buffer's columns
# ---------------------------------------------------------------------------


def test_replay_without_replacement_when_buffer_is_large_enough():
    rng = RngStream(11)
    buf = RehearsalBuffer(capacity=None)
    admit(buf, embed_rows(rng.child("cands"), 30), rng.child("admit"))
    z, y = draw(buf, 10, rng)
    assert z.shape == (10, 4) and y.shape == (10,)
    assert len(set(pairs(z, y))) == 10
    assert set(pairs(z, y)) <= set(pairs(buf.columns["z"], buf.labels))


def test_replay_with_replacement_when_batch_exceeds_buffer():
    rng = RngStream(11)
    buf = RehearsalBuffer(capacity=None)
    admit(buf, embed_rows(rng.child("cands"), 4), rng.child("admit"))
    z, y = draw(buf, 12, rng)
    assert z.shape == (12, 4)
    assert len(set(pairs(z, y))) <= 4
    assert set(pairs(z, y)) <= set(pairs(buf.columns["z"], buf.labels))


def test_replay_empty_buffer_and_zero_batch():
    # local_train concatenates a 0-row replay draw at batch size 1, so it
    # has the columns' width and dtypes
    rng = RngStream(11)
    buf = RehearsalBuffer(capacity=None)
    with pytest.raises(ContractViolation, match="cannot draw 8 rows from zero rows"):
        draw(buf, 8, rng.child("a"))
    admit(buf, embed_rows(rng.child("cands"), 4), rng.child("admit"))
    z, y = draw(buf, 0, rng.child("b"))
    assert z.shape == (0, 4) and z.dtype == np.float64
    assert y.shape == (0,) and y.dtype == np.int64


def test_replay_eventually_touches_every_record():
    rng = RngStream(11)
    buf = RehearsalBuffer(capacity=None)
    admit(buf, embed_rows(rng.child("cands"), 25), rng.child("admit"))
    seen = set()
    for t in range(60):
        seen.update(pairs(*draw(buf, 5, rng.child("step", t))))
    assert seen == set(pairs(buf.columns["z"], buf.labels))


# ---------------------------------------------------------------------------
# Materialization: what a drawn row becomes
# ---------------------------------------------------------------------------


def test_materialize_embedding_returns_stored_vector():
    rng = RngStream(21)
    upload = one_row(EmbeddingPayload, rng.normal((4,)), label=1)
    z, y = draw(buffer_of([upload]), 1, rng)
    assert np.array_equal(z, upload.payload.z)
    assert list(y) == [1]


def test_materialize_stats_resamples_every_draw():
    rng = RngStream(21)
    mu = rng.normal((4,))
    log_sigma = rng.normal((4,)) * 0.1
    buf = buffer_of([one_row(GaussianStats, mu, log_sigma)])
    z1, _ = draw(buf, 1, rng.child("draw", 0))
    z2, _ = draw(buf, 1, rng.child("draw", 1))
    z1r, _ = draw(buf, 1, rng.child("draw", 0))
    assert not np.array_equal(z1, z2)
    assert np.array_equal(z1, z1r)


def test_materialize_stats_zero_sigma_returns_mean():
    mu = np.array([0.5, -1.5, 2.0])
    buf = buffer_of([one_row(GaussianStats, mu, np.full(3, -np.inf))])
    z, _ = draw(buf, 1, RngStream(3))
    assert np.array_equal(z, mu[None])


def test_materialize_stats_monte_carlo_mean_matches_mu():
    rng = RngStream(77)
    mu = np.array([0.3, -0.7, 1.2, 0.0])
    sigma = np.array([0.5, 1.0, 0.25, 2.0])
    buf = buffer_of([one_row(GaussianStats, mu, np.log(sigma))])
    n = 10_000
    draws = np.concatenate([draw(buf, 1, rng.child("d", i))[0] for i in range(n)])
    se = sigma / np.sqrt(n)
    assert np.all(np.abs(draws.mean(axis=0) - mu) < 3 * se)


def test_draw_batch_gathers_the_rows_its_index_stream_picks():
    rng = RngStream(31)
    embs = buffer_of([embed_upload(rng.child("emb"), 5)])
    for k in (3, 5, 9):
        z, y = draw(embs, k, rng.child("k", k))
        idx = rng.child("k", k).child("replay").choice(5, k, replace=k > 5)
        assert y.dtype == np.int64
        assert np.array_equal(z, embs.columns["z"][idx])
        assert np.array_equal(y, embs.labels[idx])


def test_draw_batch_stats_is_deterministic_per_stream():
    rng = RngStream(31)
    stats = GaussianStats(np.stack([rng.child("mu", i).normal((4,)) for i in range(6)]),
                          np.stack([rng.child("ls", i).normal((4,)) * 0.1 for i in range(6)]))
    buf = buffer_of([Upload(stats, np.arange(6), 0, 0)])
    z1, y1 = draw(buf, 6, rng.child("eps", 0))
    z2, _ = draw(buf, 6, rng.child("eps", 0))
    z3, _ = draw(buf, 6, rng.child("eps", 1))
    assert np.array_equal(z1, z2)
    assert not np.array_equal(z1, z3)
    assert z1.shape == (6, 4)
    assert sorted(y1) == list(range(6))


def test_draw_batch_refuses_rows_from_an_empty_buffer():
    # a buffer's columns are the strategy's: resume checks a snapshot's
    # columns where it loads (test_config_cli), so a draw checks no kind
    with pytest.raises(ContractViolation):
        draw(RehearsalBuffer(), 1, RngStream(31))


def reference_draw(columns, labels, k, idx_rng, eps_rng):
    """The reference's row draw on draw_batch's arguments: an embed-stage
    entry's rows hold its mu as a stored z, or its (mu, log_sigma)."""
    if "labels" in columns:
        columns = ({"z": columns["mu"]} if columns["log_sigma"] is None else
                   {"mu": columns["mu"], "log_sigma": columns["log_sigma"]})
    rows = [reference.Row({name: col[i] for name, col in columns.items()}, int(label), 0, 0)
            for i, label in enumerate(labels)]
    return reference.draw_rows(rows, k, idx_rng, eps_rng)


@pytest.mark.parametrize("reach", ["zero", "within", "beyond"])
@settings(max_examples=30, deadline=None)
@given(
    source=st.sampled_from(["z", "stats", "entry", "entry-stats"]),
    n=st.integers(1, 12),
    dim=st.integers(1, 6),
    data=st.data(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_draw_batch_equals_the_two_step_reference(reach, source, n, dim, data, seed):
    # k = 0 is what a local step replays at batch size 1; k > n draws with
    # replacement
    if reach == "zero":
        k = 0
    else:
        k = data.draw(st.integers(1, n) if reach == "within" else st.integers(n + 1, 3 * n))
    rng = RngStream(seed)
    labels = rng.child("labels").integers(0, 5, n)
    mu = rng.child("mu").normal((n, dim))
    log_sigma = rng.child("log_sigma").normal((n, dim)) * 0.3
    columns = {"z": {"z": mu}, "stats": {"mu": mu, "log_sigma": log_sigma},
               "entry": {"images": mu, "labels": labels, "mu": mu, "log_sigma": None},
               "entry-stats": {"images": mu, "labels": labels, "mu": mu,
                               "log_sigma": log_sigma}}[source]
    got = draw_batch(columns, labels, k, rng.child("idx"), rng.child("eps"))
    assert got[0].shape == (k, dim) and got[1].shape == (k,)
    assert got[0].dtype == np.float64 and got[1].dtype == np.int64
    if k:  # the reference draws no batch of 0 rows
        want = reference_draw(columns, labels, k, rng.child("idx"), rng.child("eps"))
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# Memory budget
# ---------------------------------------------------------------------------


def test_buffer_capacity_x1_matches_naive_count_for_every_kind():
    # rho 0.1 of 1000 samples per task, over 5 tasks
    for kind in ("noise", "naive", "ebr", "ver_stats", "ver_sampled"):
        cfg = StrategyConfig(kind=kind, memory_multiplier="x1")
        assert buffer_capacity(cfg, 1000, 5, 3136, 128) == 500
    assert buffer_capacity(StrategyConfig(kind="none"), 1000, 5, 3136, 128) == 0


def test_buffer_capacity_x16_scales_by_byte_ratio():
    # 500 raw samples at 3136 bytes buy 1531 rows of one 128-dim column
    # (1024 bytes), 765 rows of two, and 500 naive rows, priced as the raw
    # samples their clients ship
    want = {"noise": 1531, "ebr": 1531, "ver_sampled": 1531, "ver_stats": 765, "naive": 500}
    for kind, rows in want.items():
        cfg = StrategyConfig(kind=kind, memory_multiplier="x16")
        assert buffer_capacity(cfg, 1000, 5, 3136, 128) == rows, kind
    cfg = StrategyConfig(kind="ebr", memory_multiplier="x16")
    assert buffer_capacity(cfg, 1000, 5, 1024, 128) == 500


def test_buffer_capacity_rejects_nonpositive_sizes():
    cfg = StrategyConfig(kind="ebr", memory_multiplier="x16")
    for args in [(0, 5, 3136, 128), (1000, 0, 3136, 128), (1000, 5, 0, 128),
                 (1000, 5, 3136, 0), (1000, 5, -8, 128)]:
        with pytest.raises(ContractViolation, match="sizes must be positive"):
            buffer_capacity(cfg, *args)


# ---------------------------------------------------------------------------
# Snapshot round-trip
# ---------------------------------------------------------------------------


PAYLOAD_MAKERS = {"embedding": embed_upload, "stats": stats_upload}


def snapshot_uploads(kind, n, seed=41):
    """n rows of one payload kind, uploaded two a round, two rounds a task."""
    rng = RngStream(seed)
    return [PAYLOAD_MAKERS[kind](rng.child("round", r), min(2, n - 2 * r), r // 2, r)
            for r in range((n + 1) // 2)]


@pytest.mark.parametrize("capacity", [None, 17])
def test_buffer_snapshot_roundtrip(tmp_path, capacity):
    for kind in PAYLOAD_MAKERS:
        buf = buffer_of(snapshot_uploads(kind, 7), capacity=capacity)
        path = tmp_path / f"{kind}.bin"
        save_buffer(path, buf)
        loaded = load_buffer(path)
        assert loaded.capacity == buf.capacity
        assert len(loaded) == len(buf) == 7
        assert list(loaded.columns) == list(buf.columns)
        for name, col in buf.columns.items():
            assert loaded.columns[name].dtype == np.float64
            assert np.array_equal(loaded.columns[name], col)
        for name in ("labels", "tasks", "rounds"):
            assert getattr(loaded, name).dtype == np.int64
            assert np.array_equal(getattr(loaded, name), getattr(buf, name))


@pytest.mark.parametrize("capacity,n", [(0, 0), (None, 0), (None, 1), (None, 7), (17, 7),
                                        (None, 1100), (5000, 1100)])
@pytest.mark.parametrize("kind", list(PAYLOAD_MAKERS))
def test_save_buffer_bytes_equal_the_per_record_frame_writer(tmp_path, kind, capacity, n):
    # 1100 rows span three chunks of the bulk writer
    uploads = snapshot_uploads(kind, n)
    records = [record for upload in uploads for record in rows_of(upload)]
    columnar, per_row = tmp_path / "columnar.bin", tmp_path / "per_row.bin"
    save_buffer(columnar, buffer_of(uploads, capacity=capacity))
    oracles.write_snapshot(per_row, capacity, records)
    assert columnar.read_bytes() == per_row.read_bytes()
    loaded = load_buffer(columnar)
    assert len(loaded) == n and loaded.capacity == capacity


def test_buffer_snapshot_rejects_mixed_payload_tags(tmp_path):
    rng = RngStream(41)
    mixed = (rows_of(stats_upload(rng.child("a"), 1, 0, 1))
             + rows_of(embed_upload(rng.child("b"), 1, 2, 1)))
    path = tmp_path / "mixed.bin"
    oracles.write_snapshot(path, None, mixed)
    with pytest.raises(ContractViolation, match=r"mixes payload tags 1 \(EmbeddingPayload\), "
                                                r"2 \(GaussianStats\)"):
        load_buffer(path)


@pytest.mark.parametrize("first", ["raw", "embedding"])
def test_buffer_snapshot_of_raw_samples_is_refused(tmp_path, first):
    # a naive snapshot written before naive uploads were embedded at admission
    rng = RngStream(41)
    raw = reference.Row({"x": rng.normal((2, 3))}, 0, 0, 1)
    (embedded,) = rows_of(embed_upload(rng, 1))
    records = [raw, embedded] if first == "raw" else [embedded, raw]
    path = tmp_path / "naive.bin"
    oracles.write_snapshot(path, None, records)
    with pytest.raises(ContractViolation, match=re.escape(f"buffer snapshot {path} holds raw samples")):
        load_buffer(path)


def test_buffer_snapshot_rejects_unknown_tag(tmp_path):
    buf = buffer_of(snapshot_uploads("embedding", 2))
    path = tmp_path / "buffer.bin"
    save_buffer(path, buf)
    data = bytearray(path.read_bytes())
    data[28] = 7  # the first frame's payload tag
    path.write_bytes(bytes(data))
    with pytest.raises(ContractViolation, match="unknown payload tag 7"):
        load_buffer(path)


def test_buffer_snapshot_rejects_bad_magic(tmp_path):
    path = tmp_path / "garbage.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ContractViolation):
        load_buffer(path)


@pytest.mark.parametrize("field,offset,fmt,value,message", [
    ("capacity", 8, "<q", -7, "capacity -7"),
    ("rho", 16, "<d", 0.25, "rho 0.25"),
], ids=["capacity", "rho"])
def test_buffer_snapshot_rejects_a_header_field_never_written(tmp_path, field, offset, fmt,
                                                              value, message):
    # only -1 (unbounded) or a capacity >= 0, and rho 1.0, are ever written
    path = tmp_path / "buffer.bin"
    save_buffer(path, buffer_of(snapshot_uploads("embedding", 2), capacity=5))
    data = bytearray(path.read_bytes())
    struct.pack_into(fmt, data, offset, value)
    path.write_bytes(bytes(data))
    with pytest.raises(ContractViolation, match=message):
        load_buffer(path)


def test_buffer_snapshot_rejects_a_truncated_header(tmp_path):
    path = tmp_path / "buffer.bin"
    save_buffer(path, buffer_of(snapshot_uploads("embedding", 2)))
    path.write_bytes(path.read_bytes()[:20])
    with pytest.raises(ContractViolation, match="truncated: header"):
        load_buffer(path)


def test_buffer_snapshot_rejects_truncation(tmp_path):
    for kind in PAYLOAD_MAKERS:
        buf = buffer_of(snapshot_uploads(kind, 3))
        path = tmp_path / "buffer.bin"
        save_buffer(path, buf)
        clipped = tmp_path / "clipped.bin"
        clipped.write_bytes(path.read_bytes()[:-9])
        with pytest.raises(ContractViolation):
            load_buffer(clipped)


@pytest.mark.parametrize("frame,offset,message", [
    (0, 69, r"payload shapes \[\(4,\), \(5,\)\], not vectors of one length"),
    (1, 29, "mixes payload shapes for 'mu'"),
], ids=["first-frame", "later-frame"])
def test_buffer_snapshot_rejects_a_payload_shape_never_written(tmp_path, frame, offset, message):
    # a stats frame: tag, 3 ids, then mu's ndim, dim (offset 29) and 4 values,
    # then log_sigma's ndim, dim (offset 69) and values.  Every row carries
    # vectors of one length, and every frame repeats the first one's dims
    path = tmp_path / "buffer.bin"
    save_buffer(path, buffer_of(snapshot_uploads("stats", 2)))
    data = bytearray(path.read_bytes())
    size = (len(data) - storage.SNAPSHOT_HEADER.size) // 2
    struct.pack_into("<I", data, storage.SNAPSHOT_HEADER.size + frame * size + offset, 5)
    path.write_bytes(bytes(data))
    with pytest.raises(ContractViolation, match=message):
        load_buffer(path)


def random_buffer(kind, dim, n, capacity, seed) -> RehearsalBuffer:
    """n rows of one payload kind: payload columns of arbitrary float64 bit
    patterns (NaN payloads, infinities, subnormals, -0.0) and random ids."""
    gen = np.random.default_rng(seed)
    names = ("z",) if kind == "embedding" else ("mu", "log_sigma")
    columns = {name: gen.integers(0, 2**64, (n, dim), dtype=np.uint64).view(np.float64)
               for name in names} if n else {}
    ids = [gen.integers(0, 50, n, dtype=np.int64) for _ in range(3)]
    return RehearsalBuffer(capacity, columns, *ids)


def all_arrays(buf) -> dict:
    return {**buf.columns, "labels": buf.labels, "tasks": buf.tasks, "rounds": buf.rounds}


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(sorted(PAYLOAD_MAKERS)),
    dim=st.integers(1, 8),
    n=st.integers(0, 1100),
    slack=st.one_of(st.none(), st.integers(0, 3)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(kind="stats", dim=8, n=1100, slack=0, seed=1)  # three write chunks, a full buffer
@example(kind="embedding", dim=1, n=513, slack=None, seed=2)
def test_snapshot_round_trip_keeps_every_byte(kind, dim, n, slack, seed):
    # slack None: an unbounded buffer; slack 0: a full one, whose next admit
    # moves its rows in place, so the loaded arrays must be writeable
    capacity = None if slack is None else n + slack
    buf = random_buffer(kind, dim, n, capacity, seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "buffer.bin")
        save_buffer(path, buf)
        loaded = load_buffer(path)
    assert loaded.capacity == capacity
    got, want = all_arrays(loaded), all_arrays(buf)
    assert list(got) == list(want)
    for name, arr in got.items():
        assert arr.dtype == (np.float64 if name in buf.columns else np.int64)
        assert arr.shape == want[name].shape and arr.tobytes() == want[name].tobytes()
        assert arr.flags.c_contiguous and arr.flags.writeable
    new = random_buffer(kind, dim, 3, None, (seed, 1))
    new.tasks[:], new.rounds[:] = 7, 60  # one upload: a single (task, round)
    admit(buf, new, RngStream(seed).child("admit"))
    admit(loaded, new, RngStream(seed).child("admit"))
    assert len(loaded) == (n + 3 if capacity is None else capacity)
    for name, arr in all_arrays(loaded).items():
        assert arr.tobytes() == all_arrays(buf)[name].tobytes()


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(sorted(PAYLOAD_MAKERS)),
    dim=st.integers(1, 8),
    n=st.integers(1, 3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_snapshot_cut_or_run_on_past_its_frames_is_refused(kind, dim, n, seed):
    # the header's row count and the first frame fix the file's length;
    # appended bytes, up to a whole repeated frame, once loaded silently
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "buffer.bin")
        save_buffer(path, random_buffer(kind, dim, n, None, seed))
        with open(path, "rb") as f:
            blob = f.read()
        head = storage.SNAPSHOT_HEADER.size
        size = (len(blob) - head) // n
        bad = [blob[:cut] for cut in range(head, len(blob))]
        bad += [blob + blob[head:head + k] for k in range(1, size + 1)]
        bad.append(blob[:head + size] + blob[head:])  # the first frame twice
        for data in bad:
            with open(path, "wb") as f:
                f.write(data)
            with pytest.raises(ContractViolation):
                load_buffer(path)


# ---------------------------------------------------------------------------
# Agreement with the reference's list buffer and row draw
# ---------------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(sorted(PAYLOAD_MAKERS)),
    steps=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 5), st.integers(0, 25),
                             st.integers(0, 12)),
                   min_size=1, max_size=10),
    capacity=st.one_of(st.none(), st.integers(min_value=0, max_value=30)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_columnar_buffer_matches_the_list_reference(kind, steps, capacity, seed):
    rng = RngStream(seed)
    make = PAYLOAD_MAKERS[kind]
    buf = RehearsalBuffer(capacity=capacity)
    ref = reference.ListBuffer(capacity)
    for step, (task_id, round_id, n, batch_size) in enumerate(steps):
        upload = make(rng.child("rec", step), n, task_id, round_id)
        admit(buf, upload.rows(), rng.child("admit", step))
        reference.admit(ref, rows_of(upload), rng.child("admit", step))
        assert rows(buf) == record_rows(ref.rows)
        if len(buf) and batch_size:  # the program replays only from a buffer that holds rows
            got = draw_batch(buf.columns, buf.labels, batch_size, rng.child("replay", step),
                             rng.child("replay_eps", step))
            want = reference.draw_rows(ref.rows, batch_size, rng.child("replay", step),
                                       rng.child("replay_eps", step))
            assert pairs(*got) == pairs(*want)
    # the snapshot of the final state is the per-row writer's byte for byte
    with tempfile.TemporaryDirectory() as tmp:
        saved, expected = os.path.join(tmp, "columnar.bin"), os.path.join(tmp, "per_row.bin")
        save_buffer(saved, buf)
        oracles.write_snapshot(expected, capacity, ref.rows)
        with open(saved, "rb") as a, open(expected, "rb") as b:
            assert a.read() == b.read()
