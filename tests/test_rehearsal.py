"""Rehearsal buffers: admission, eviction, replay, materialization, budgets,
snapshots, and agreement with the list-of-records reference model.

Records exist only on the wire, so every admission here stacks its records
into rows first, as run_round does."""

import itertools
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
from filver import storage
from filver.errors import ContractViolation
from filver.federation import _build_upload
from filver.models import GaussianStats
from filver.rehearsal import (
    EmbeddingPayload,
    RawPayload,
    RehearsalBuffer,
    RehearsalRecord,
    StrategyConfig,
    admit,
    buffer_capacity,
    load_buffer,
    materialize_batch,
    replay_batch,
    rows_from_records,
    save_buffer,
)
from filver.rng import RngStream


def embed_record(rng, task_id=0, round_id=0, label=0, dim=4):
    return RehearsalRecord(EmbeddingPayload(rng.normal((dim,))), label, task_id, round_id)


def embed_batch(rng, n, task_id=0, round_id=0, dim=4):
    return [embed_record(rng.child("rec", i), task_id, round_id, label=i % 3, dim=dim)
            for i in range(n)]


def embed_rows(rng, n, task_id=0, round_id=0, dim=4):
    return rows_from_records(embed_batch(rng, n, task_id, round_id, dim))


def buffer_of(records, capacity=None):
    """A buffer holding exactly `records`, in order (admission without eviction draws nothing)."""
    buf = RehearsalBuffer(capacity=None)
    for _, group in itertools.groupby(records, key=lambda r: (r.task_id, r.round_id)):
        admit(buf, rows_from_records(list(group)), RngStream(0))
    buf.capacity = capacity
    return buf


def rows(buf):
    """Every row of a columnar buffer as comparable tuples."""
    return [(tuple(np.concatenate([buf.columns[k][i].ravel() for k in buf.columns])),
             int(buf.labels[i]), int(buf.tasks[i]), int(buf.rounds[i]))
            for i in range(len(buf))]


def record_rows(records):
    """The same tuples for a list of records (the reference model's rows)."""
    return [(tuple(np.concatenate([a.ravel() for a in oracles.frame_arrays(r)])),
             r.label, r.task_id, r.round_id) for r in records]


# ---------------------------------------------------------------------------
# Config and record validation
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


def test_expected_payload_types_per_kind():
    # what each strategy ships: raw samples only under naive, stats only
    # under ver_stats, nothing under none
    embedded = {"images": np.zeros((8, 6)), "labels": np.arange(8) % 2,
                "mu": np.zeros((8, 4)), "log_sigma": np.zeros((8, 4))}
    want = {"none": set(), "noise": {EmbeddingPayload}, "naive": {RawPayload},
            "ebr": {EmbeddingPayload}, "ver_stats": {GaussianStats},
            "ver_sampled": {EmbeddingPayload}}
    for kind, types in want.items():
        upload = _build_upload(embedded, 0, 0, StrategyConfig(kind=kind, rho=0.5), RngStream(1))
        assert {type(rec.payload) for rec in upload} == types, kind


def test_admit_refuses_raw_samples():
    raws = [RehearsalRecord(RawPayload(np.ones(6)), 0, 0, 0)]
    buf = RehearsalBuffer(capacity=None)
    raw_rows = rows_from_records(raws)
    assert list(raw_rows.columns) == ["x"]
    with pytest.raises(ContractViolation, match="holds no raw samples"):
        admit(buf, raw_rows, RngStream(0))
    assert len(buf) == 0 and buf.columns == {}


def test_record_rejects_unknown_payload_object():
    with pytest.raises(ContractViolation):
        RehearsalRecord(np.zeros(4), 0, 0, 0)


def test_embedding_payload_must_be_vector():
    with pytest.raises(ContractViolation):
        EmbeddingPayload(np.zeros((2, 2)))


def test_payloads_own_their_memory():
    x = np.ones((6,))
    z = np.ones((4,))
    raw = RawPayload(x)
    emb = EmbeddingPayload(z)
    x[:] = -1.0
    z[:] = -1.0
    assert np.all(raw.x == 1.0)
    assert np.all(emb.z == 1.0)


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
        first_frame_tag(tmp_path, buffer_of([RehearsalRecord(EmbeddingPayload(rng.normal((4,))), 0, 0, 0)])),
        first_frame_tag(tmp_path, buffer_of([RehearsalRecord(
            GaussianStats(rng.normal((4,)), rng.normal((4,))), 0, 0, 0)])),
    }
    assert len(tags) == 3


def test_admit_rejects_a_second_payload_type():
    rng = RngStream(1)
    buf = buffer_of(embed_batch(rng.child("emb"), 3))
    raws = rows_from_records([RehearsalRecord(RawPayload(rng.normal((6,))), 0, 0, 1)])
    with pytest.raises(ContractViolation):
        admit(buf, raws, rng.child("admit"))
    wider = embed_rows(rng.child("wide"), 2, round_id=1, dim=5)
    with pytest.raises(ContractViolation, match="buffer holds payload columns"):
        admit(buf, wider, rng.child("admit"))
    stats = rows_from_records([RehearsalRecord(GaussianStats(np.ones(4), np.zeros(4)), 0, 0, 2)])
    with pytest.raises(ContractViolation, match="buffer holds payload columns"):
        admit(buf, stats, rng.child("admit"))
    # records of two payload types do not stack into one set of rows
    mixed = embed_batch(rng.child("m"), 2, round_id=2) + [
        RehearsalRecord(RawPayload(rng.normal((4,))), 0, 0, 2)]
    with pytest.raises(ContractViolation, match="records mix payload types"):
        rows_from_records(mixed)
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
    admit(buffer, rows_from_records(upload), rng.child("self_admit"))
    return upload, buffer


def test_admit_takes_exact_ceil_fraction():
    upload, buf = upload_of(1000, 0.1, RngStream(7))
    assert len(upload) == len(buf) == 100
    assert len(set(buf.columns["z"][:, 0].tolist())) == 100


def test_admit_ceil_rounds_up():
    # 5 samples at rho 0.1 still upload and admit one record
    upload, buf = upload_of(5, 0.1, RngStream(7))
    assert len(upload) == len(buf) == 1


def test_admit_rho_zero_is_a_no_op():
    upload, buf = upload_of(50, 0.0, RngStream(7))
    assert upload == [] and len(buf) == 0


def test_admit_rho_one_takes_everything_in_order():
    rng = RngStream(7)
    cands = embed_batch(rng.child("cands"), 20)
    buf = RehearsalBuffer(capacity=None)
    admit(buf, rows_from_records(cands), rng.child("admit"))
    assert rows(buf) == record_rows(cands)
    assert np.array_equal(buf.columns["z"], np.stack([r.payload.z for r in cands]))


def test_admit_empty_candidate_list_is_a_no_op():
    buf = RehearsalBuffer(capacity=None)
    empty = rows_from_records([])
    assert len(empty) == 0 and empty.columns == {}
    admit(buf, empty, RngStream(7))
    assert len(buf) == 0


def test_admit_rejects_mixed_task_round_keys():
    rng = RngStream(7)
    cands = embed_batch(rng.child("a"), 3, task_id=0) + embed_batch(rng.child("b"), 3, task_id=1)
    buf = RehearsalBuffer(capacity=None)
    with pytest.raises(ContractViolation, match=r"span multiple \(task, round\) keys: "
                                                r"\[\(0, 0\), \(1, 0\)\]"):
        admit(buf, rows_from_records(cands), rng.child("admit"))
    assert len(buf) == 0


def test_admit_leaves_its_rows_unchanged_for_the_next_buffer():
    # run_round admits one rows object to two buffers: a full one, which
    # evicts and compacts in place, and an empty one
    rng = RngStream(7)
    new = embed_rows(rng.child("new"), 6, task_id=1)
    want = rows(new)
    full = buffer_of(embed_batch(rng.child("old"), 8), capacity=8)
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


def eviction_count_oracle(arrivals, capacity):
    """Replay the documented policy on task counts alone.  Which record
    inside the victim task gets dropped is random, but per-task counts
    are fully determined: evict from the largest task, ties to newest."""
    counts = {}
    for task_id, n in arrivals:
        counts[task_id] = counts.get(task_id, 0) + n
        while sum(counts.values()) > capacity:
            biggest = max(counts.values())
            victim = max(t for t, c in counts.items() if c == biggest)
            counts[victim] -= 1
            if counts[victim] == 0:
                del counts[victim]
    return counts


def test_eviction_balances_tasks_against_count_oracle():
    rng = RngStream(3)
    buf = RehearsalBuffer(capacity=50)
    for task_id in range(4):
        admit(buf, embed_rows(rng.child("t", task_id), 20, task_id=task_id),
              rng.child("admit", task_id))
        assert len(buf) <= 50
    expected = eviction_count_oracle([(t, 20) for t in range(4)], 50)
    assert buf.task_counts() == expected
    counts = buf.task_counts()
    # the policy protects early tasks: task 0 never holds fewer than task 3
    assert counts[0] >= counts[3]
    assert abs(max(counts.values()) - min(counts.values())) <= 1


def test_eviction_tie_breaks_toward_newest_task():
    rng = RngStream(5)
    buf = RehearsalBuffer(capacity=3)
    admit(buf, embed_rows(rng.child("a"), 2, task_id=0), rng.child("ad", 0))
    admit(buf, embed_rows(rng.child("b"), 2, task_id=1), rng.child("ad", 1))
    assert buf.task_counts() == {0: 2, 1: 1}


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
    rng = RngStream(seed)
    buf = RehearsalBuffer(capacity=capacity)
    for task_id, n in enumerate(batches):
        admit(buf, embed_rows(rng.child("t", task_id), n, task_id=task_id),
              rng.child("admit", task_id))
        assert len(buf) <= capacity
    oracle = eviction_count_oracle(list(enumerate(batches)), capacity)
    assert buf.task_counts() == oracle


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------


def test_replay_without_replacement_when_buffer_is_large_enough():
    rng = RngStream(11)
    buf = RehearsalBuffer(capacity=None)
    admit(buf, embed_rows(rng.child("cands"), 30), rng.child("admit"))
    batch = replay_batch(buf, 10, rng.child("replay"))
    assert len(batch) == 10
    assert len(set(rows(batch))) == 10
    assert set(rows(batch)) <= set(rows(buf))


def test_replay_with_replacement_when_batch_exceeds_buffer():
    rng = RngStream(11)
    buf = RehearsalBuffer(capacity=None)
    admit(buf, embed_rows(rng.child("cands"), 4), rng.child("admit"))
    batch = replay_batch(buf, 12, rng.child("replay"))
    assert len(batch) == 12
    assert len(set(rows(batch))) <= 4
    assert set(rows(batch)) <= set(rows(buf))


def test_replay_empty_buffer_and_zero_batch():
    rng = RngStream(11)
    buf = RehearsalBuffer(capacity=None)
    assert len(replay_batch(buf, 8, rng.child("a"))) == 0
    admit(buf, embed_rows(rng.child("cands"), 4), rng.child("admit"))
    empty = replay_batch(buf, 0, rng.child("b"))
    assert len(empty) == 0 and empty.columns["z"].shape == (0, 4)


def test_replay_eventually_touches_every_record():
    rng = RngStream(11)
    buf = RehearsalBuffer(capacity=None)
    admit(buf, embed_rows(rng.child("cands"), 25), rng.child("admit"))
    seen = set()
    for t in range(60):
        seen.update(rows(replay_batch(buf, 5, rng.child("replay", t))))
    assert seen == set(rows(buf))


# ---------------------------------------------------------------------------
# Materialization
# ---------------------------------------------------------------------------


def test_materialize_embedding_returns_stored_vector():
    rng = RngStream(21)
    rec = embed_record(rng, label=1)
    batch = buffer_of([rec])
    z, y = materialize_batch(batch, rng=rng.child("eps"))
    assert np.array_equal(z, rec.payload.z[None])
    assert list(y) == [1]


def test_materialize_stats_resamples_every_draw():
    rng = RngStream(21)
    mu = rng.normal((4,))
    log_sigma = rng.normal((4,)) * 0.1
    batch = buffer_of([RehearsalRecord(GaussianStats(mu, log_sigma), 0, 0, 0)])
    z1, _ = materialize_batch(batch, rng=rng.child("draw", 0))
    z2, _ = materialize_batch(batch, rng=rng.child("draw", 1))
    z1r, _ = materialize_batch(batch, rng=rng.child("draw", 0))
    assert not np.array_equal(z1, z2)
    assert np.array_equal(z1, z1r)


def test_materialize_stats_zero_sigma_returns_mean():
    mu = np.array([0.5, -1.5, 2.0])
    batch = buffer_of([RehearsalRecord(GaussianStats(mu, np.full(3, -np.inf)), 0, 0, 0)])
    z, _ = materialize_batch(batch, rng=RngStream(3))
    assert np.array_equal(z, mu[None])


def test_materialize_stats_monte_carlo_mean_matches_mu():
    rng = RngStream(77)
    mu = np.array([0.3, -0.7, 1.2, 0.0])
    sigma = np.array([0.5, 1.0, 0.25, 2.0])
    batch = buffer_of([RehearsalRecord(GaussianStats(mu, np.log(sigma)), 0, 0, 0)])
    n = 10_000
    draws = np.concatenate([materialize_batch(batch, rng=rng.child("d", i))[0]
                            for i in range(n)])
    se = sigma / np.sqrt(n)
    assert np.all(np.abs(draws.mean(axis=0) - mu) < 3 * se)


def test_materialize_batch_matches_singles_for_deterministic_kinds():
    rng = RngStream(31)
    embs = buffer_of(embed_batch(rng.child("emb"), 5))
    Z, y = materialize_batch(embs, rng=rng.child("eps"))
    assert y.dtype == np.int64
    for i in range(5):
        zi, yi = materialize_batch(embs.take([i]), rng=rng.child("eps", i))
        assert np.array_equal(Z[i], zi[0])
        assert y[i] == yi[0]
    assert np.array_equal(Z, embs.columns["z"])
    assert np.array_equal(y, embs.labels)


def test_materialize_batch_stats_is_deterministic_per_stream():
    rng = RngStream(31)
    batch = buffer_of([RehearsalRecord(GaussianStats(rng.child("mu", i).normal((4,)),
                                                     rng.child("ls", i).normal((4,)) * 0.1),
                                       i, 0, 0) for i in range(6)])
    Z1, y1 = materialize_batch(batch, rng=rng.child("eps", 0))
    Z2, _ = materialize_batch(batch, rng=rng.child("eps", 0))
    Z3, _ = materialize_batch(batch, rng=rng.child("eps", 1))
    assert np.array_equal(Z1, Z2)
    assert not np.array_equal(Z1, Z3)
    assert Z1.shape == (6, 4)
    assert list(y1) == list(range(6))


def test_materialize_batch_rejects_empty():
    # a batch's columns are the strategy's: resume checks a snapshot's columns
    # where it loads (test_config_cli), so materialize checks no kind
    with pytest.raises(ContractViolation):
        materialize_batch(RehearsalBuffer(), rng=RngStream(31))


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


def stats_record(rng, label, task_id, round_id):
    return RehearsalRecord(GaussianStats(rng.normal((4,)), rng.normal((4,))),
                           label, task_id, round_id)


def embedding_record(rng, label, task_id, round_id):
    return embed_record(rng, task_id, round_id, label)


PAYLOAD_MAKERS = {"embedding": embedding_record, "stats": stats_record}


def snapshot_records(kind, n, seed=41):
    rng = RngStream(seed)
    return [PAYLOAD_MAKERS[kind](rng.child("rec", i), i % 3, i // 4, i // 2) for i in range(n)]


@pytest.mark.parametrize("capacity", [None, 17])
def test_buffer_snapshot_roundtrip(tmp_path, capacity):
    for kind in PAYLOAD_MAKERS:
        buf = buffer_of(snapshot_records(kind, 7), capacity=capacity)
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
    records = snapshot_records(kind, n)
    columnar, reference = tmp_path / "columnar.bin", tmp_path / "reference.bin"
    save_buffer(columnar, buffer_of(records, capacity=capacity))
    oracles.save_buffer(reference, oracles.RehearsalBuffer(capacity, 1.0, list(records)))
    assert columnar.read_bytes() == reference.read_bytes()
    loaded = load_buffer(columnar)
    assert len(loaded) == n and loaded.capacity == capacity


def test_buffer_snapshot_rejects_mixed_payload_tags(tmp_path):
    rng = RngStream(41)
    mixed = [stats_record(rng.child("a"), 0, 0, 1), embed_record(rng.child("b"), 1, 2, 1)]
    path = tmp_path / "mixed.bin"
    oracles.save_buffer(path, oracles.RehearsalBuffer(None, 1.0, mixed))
    with pytest.raises(ContractViolation, match=r"mixes payload tags 1 \(EmbeddingPayload\), "
                                                r"2 \(GaussianStats\)"):
        load_buffer(path)


@pytest.mark.parametrize("first", ["raw", "embedding"])
def test_buffer_snapshot_of_raw_samples_is_refused(tmp_path, first):
    # a naive snapshot written before naive uploads were embedded at admission
    rng = RngStream(41)
    raw = RehearsalRecord(RawPayload(rng.normal((2, 3))), 0, 0, 1)
    records = [raw, embed_record(rng)] if first == "raw" else [embed_record(rng), raw]
    path = tmp_path / "naive.bin"
    oracles.save_buffer(path, oracles.RehearsalBuffer(None, 1.0, records))
    with pytest.raises(ContractViolation, match=re.escape(f"buffer snapshot {path} holds raw samples")):
        load_buffer(path)


def test_buffer_snapshot_rejects_unknown_tag(tmp_path):
    buf = buffer_of(snapshot_records("embedding", 2))
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
    save_buffer(path, buffer_of(snapshot_records("embedding", 2), capacity=5))
    data = bytearray(path.read_bytes())
    struct.pack_into(fmt, data, offset, value)
    path.write_bytes(bytes(data))
    with pytest.raises(ContractViolation, match=message):
        load_buffer(path)


def test_buffer_snapshot_rejects_a_truncated_header(tmp_path):
    path = tmp_path / "buffer.bin"
    save_buffer(path, buffer_of(snapshot_records("embedding", 2)))
    path.write_bytes(path.read_bytes()[:20])
    with pytest.raises(ContractViolation, match="truncated: header"):
        load_buffer(path)


def test_buffer_snapshot_rejects_truncation(tmp_path):
    for kind in PAYLOAD_MAKERS:
        buf = buffer_of(snapshot_records(kind, 3))
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
    save_buffer(path, buffer_of(snapshot_records("stats", 2)))
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
# Agreement with the list-of-records reference model
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
    # the reference admits ceil(rho * n) candidates; at rho 1 it keeps them all, as admit does
    rng = RngStream(seed)
    make = PAYLOAD_MAKERS[kind]
    buf = RehearsalBuffer(capacity=capacity)
    ref = oracles.RehearsalBuffer(capacity=capacity, rho=1.0)
    for step, (task_id, round_id, n, batch_size) in enumerate(steps):
        cands = [make(rng.child("rec", step, i), i % 3, task_id, round_id) for i in range(n)]
        admit(buf, rows_from_records(cands), rng.child("admit", step))
        oracles.admit(ref, cands, rng.child("admit", step))
        assert rows(buf) == record_rows(ref.records)
        assert buf.task_counts() == ref.task_counts()
        got = replay_batch(buf, batch_size, rng.child("replay", step))
        want = oracles.replay_batch(ref, batch_size, rng.child("replay", step))
        assert rows(got) == record_rows(want)
    # the snapshot of the final state is the reference's byte for byte
    with tempfile.TemporaryDirectory() as tmp:
        saved, expected = os.path.join(tmp, "columnar.bin"), os.path.join(tmp, "reference.bin")
        save_buffer(saved, buf)
        oracles.save_buffer(expected, ref)
        with open(saved, "rb") as a, open(expected, "rb") as b:
            assert a.read() == b.read()
