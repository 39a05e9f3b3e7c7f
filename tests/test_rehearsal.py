"""Rehearsal buffers: admission, eviction, replay, materialization, budgets."""

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from filver.errors import ContractViolation
from filver.models import GaussianStats, encode_for_eval
from filver.rehearsal import (
    EmbeddingPayload,
    RawPayload,
    RehearsalBuffer,
    RehearsalRecord,
    StrategyConfig,
    admit,
    check_record_matches,
    expected_payload_type,
    load_buffer,
    materialize,
    materialize_batch,
    memory_budget,
    replay_batch,
    save_buffer,
)
from filver.rng import RngStream


def embed_record(rng, task_id=0, round_id=0, label=0, dim=4):
    return RehearsalRecord(EmbeddingPayload(rng.normal((dim,))), label, task_id, round_id)


def embed_batch(rng, n, task_id=0, round_id=0, dim=4):
    return [embed_record(rng.child("rec", i), task_id, round_id, label=i % 3, dim=dim)
            for i in range(n)]


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
    assert expected_payload_type("none") is None
    assert expected_payload_type("noise") is EmbeddingPayload
    assert expected_payload_type("naive") is RawPayload
    assert expected_payload_type("ebr") is EmbeddingPayload
    assert expected_payload_type("ver_stats") is GaussianStats
    assert expected_payload_type("ver_sampled") is EmbeddingPayload
    with pytest.raises(ContractViolation):
        expected_payload_type("verbatim")


def test_check_record_matches_enforces_payload_type():
    rng = RngStream(0)
    emb = embed_record(rng)
    raw = RehearsalRecord(RawPayload(rng.normal((6,))), 1, 0, 0)
    stats = RehearsalRecord(GaussianStats(rng.normal((4,)), rng.normal((4,))), 1, 0, 0)
    check_record_matches("ebr", emb)
    check_record_matches("naive", raw)
    check_record_matches("ver_stats", stats)
    with pytest.raises(ContractViolation):
        check_record_matches("naive", emb)
    with pytest.raises(ContractViolation):
        check_record_matches("ver_stats", emb)
    with pytest.raises(ContractViolation):
        check_record_matches("ver_sampled", stats)
    with pytest.raises(ContractViolation):
        check_record_matches("none", emb)


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


def test_payload_tags_are_distinct():
    rng = RngStream(1)
    tags = {
        RehearsalRecord(RawPayload(rng.normal((6,))), 0, 0, 0).payload_tag,
        RehearsalRecord(EmbeddingPayload(rng.normal((4,))), 0, 0, 0).payload_tag,
        RehearsalRecord(GaussianStats(rng.normal((4,)), rng.normal((4,))), 0, 0, 0).payload_tag,
    }
    assert len(tags) == 3


# ---------------------------------------------------------------------------
# Admission
# ---------------------------------------------------------------------------


def test_admit_takes_exact_ceil_fraction():
    rng = RngStream(7)
    buf = RehearsalBuffer(capacity=None, rho=0.1)
    admit(buf, embed_batch(rng.child("cands"), 1000), rng.child("admit"))
    assert len(buf) == 100


def test_admit_ceil_rounds_up():
    # 5 candidates at rho 0.1 still admit one record
    rng = RngStream(7)
    buf = RehearsalBuffer(capacity=None, rho=0.1)
    admit(buf, embed_batch(rng.child("cands"), 5), rng.child("admit"))
    assert len(buf) == 1


def test_admit_rho_zero_is_a_no_op():
    rng = RngStream(7)
    buf = RehearsalBuffer(capacity=None, rho=0.0)
    admit(buf, embed_batch(rng.child("cands"), 50), rng.child("admit"))
    assert len(buf) == 0


def test_admit_rho_one_takes_everything_in_order():
    rng = RngStream(7)
    cands = embed_batch(rng.child("cands"), 20)
    buf = RehearsalBuffer(capacity=None, rho=1.0)
    admit(buf, cands, rng.child("admit"))
    assert buf.records == cands


def test_admit_empty_candidate_list_is_a_no_op():
    buf = RehearsalBuffer(capacity=None, rho=1.0)
    admit(buf, [], RngStream(7))
    assert len(buf) == 0


def test_admit_rejects_mixed_task_round_keys():
    rng = RngStream(7)
    cands = embed_batch(rng.child("a"), 3, task_id=0) + embed_batch(rng.child("b"), 3, task_id=1)
    buf = RehearsalBuffer(capacity=None, rho=1.0)
    with pytest.raises(ContractViolation):
        admit(buf, cands, rng.child("admit"))


def test_admit_subset_is_uniform():
    # chi-square over which candidate indices get admitted across many trials
    n, trials = 200, 400
    rng = RngStream(99)
    hits = np.zeros(n)
    for t in range(trials):
        cands = [RehearsalRecord(EmbeddingPayload(np.array([float(i)])), i, 0, 0)
                 for i in range(n)]
        buf = RehearsalBuffer(capacity=None, rho=0.1)
        admit(buf, cands, rng.child("trial", t))
        for rec in buf.records:
            hits[int(rec.payload.z[0])] += 1
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
    buf = RehearsalBuffer(capacity=50, rho=1.0)
    for task_id in range(4):
        admit(buf, embed_batch(rng.child("t", task_id), 20, task_id=task_id),
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
    buf = RehearsalBuffer(capacity=3, rho=1.0)
    admit(buf, embed_batch(rng.child("a"), 2, task_id=0), rng.child("ad", 0))
    admit(buf, embed_batch(rng.child("b"), 2, task_id=1), rng.child("ad", 1))
    assert buf.task_counts() == {0: 2, 1: 1}


def test_unbounded_buffer_never_evicts():
    rng = RngStream(5)
    buf = RehearsalBuffer(capacity=None, rho=1.0)
    for task_id in range(6):
        admit(buf, embed_batch(rng.child("t", task_id), 40, task_id=task_id),
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
    buf = RehearsalBuffer(capacity=capacity, rho=1.0)
    for task_id, n in enumerate(batches):
        admit(buf, embed_batch(rng.child("t", task_id), n, task_id=task_id),
              rng.child("admit", task_id))
        assert len(buf) <= capacity
    oracle = eviction_count_oracle(list(enumerate(batches)), capacity)
    assert buf.task_counts() == oracle


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------


def test_replay_without_replacement_when_buffer_is_large_enough():
    rng = RngStream(11)
    buf = RehearsalBuffer(capacity=None, rho=1.0)
    admit(buf, embed_batch(rng.child("cands"), 30), rng.child("admit"))
    batch = replay_batch(buf, 10, rng.child("replay"))
    assert len(batch) == 10
    ids = [id(rec) for rec in batch]
    assert len(set(ids)) == 10


def test_replay_with_replacement_when_batch_exceeds_buffer():
    rng = RngStream(11)
    buf = RehearsalBuffer(capacity=None, rho=1.0)
    admit(buf, embed_batch(rng.child("cands"), 4), rng.child("admit"))
    batch = replay_batch(buf, 12, rng.child("replay"))
    assert len(batch) == 12
    assert len({id(rec) for rec in batch}) <= 4


def test_replay_empty_buffer_and_zero_batch():
    rng = RngStream(11)
    buf = RehearsalBuffer(capacity=None, rho=1.0)
    assert replay_batch(buf, 8, rng.child("a")) == []
    admit(buf, embed_batch(rng.child("cands"), 4), rng.child("admit"))
    assert replay_batch(buf, 0, rng.child("b")) == []


def test_replay_eventually_touches_every_record():
    rng = RngStream(11)
    buf = RehearsalBuffer(capacity=None, rho=1.0)
    admit(buf, embed_batch(rng.child("cands"), 25), rng.child("admit"))
    seen = set()
    for t in range(60):
        seen.update(id(rec) for rec in replay_batch(buf, 5, rng.child("replay", t)))
    assert len(seen) == 25


# ---------------------------------------------------------------------------
# Materialization
# ---------------------------------------------------------------------------


def test_materialize_raw_reembeds_with_frozen_encoder(tiny_mlp_ebr):
    rng = RngStream(21)
    params = tiny_mlp_ebr.init_params(rng.child("init"))
    x = rng.normal((6,))
    rec = RehearsalRecord(RawPayload(x), 2, 0, 0)
    z, y = materialize(rec, "naive", encoder=tiny_mlp_ebr, encoder_params=params)
    expected = encode_for_eval(tiny_mlp_ebr, params, x[None])[0][0]
    assert np.array_equal(z, expected)
    assert y == 2


def test_materialize_raw_requires_encoder():
    rec = RehearsalRecord(RawPayload(np.ones(6)), 0, 0, 0)
    with pytest.raises(ContractViolation):
        materialize(rec, "naive")


def test_materialize_embedding_returns_stored_vector():
    rng = RngStream(21)
    rec = embed_record(rng, label=1)
    z, y = materialize(rec, "ebr")
    assert np.array_equal(z, rec.payload.z)
    assert y == 1
    z2, _ = materialize(rec, "ver_sampled")
    assert np.array_equal(z2, rec.payload.z)


def test_materialize_stats_resamples_every_draw():
    rng = RngStream(21)
    mu = rng.normal((4,))
    log_sigma = rng.normal((4,)) * 0.1
    rec = RehearsalRecord(GaussianStats(mu, log_sigma), 0, 0, 0)
    z1, _ = materialize(rec, "ver_stats", rng=rng.child("draw", 0))
    z2, _ = materialize(rec, "ver_stats", rng=rng.child("draw", 1))
    z1r, _ = materialize(rec, "ver_stats", rng=rng.child("draw", 0))
    assert not np.array_equal(z1, z2)
    assert np.array_equal(z1, z1r)
    with pytest.raises(ContractViolation):
        materialize(rec, "ver_stats")


def test_materialize_stats_zero_sigma_returns_mean():
    mu = np.array([0.5, -1.5, 2.0])
    rec = RehearsalRecord(GaussianStats(mu, np.full(3, -np.inf)), 0, 0, 0)
    z, _ = materialize(rec, "ver_stats", rng=RngStream(3))
    assert np.array_equal(z, mu)


def test_materialize_stats_monte_carlo_mean_matches_mu():
    rng = RngStream(77)
    mu = np.array([0.3, -0.7, 1.2, 0.0])
    sigma = np.array([0.5, 1.0, 0.25, 2.0])
    rec = RehearsalRecord(GaussianStats(mu, np.log(sigma)), 0, 0, 0)
    n = 10_000
    draws = np.stack([materialize(rec, "ver_stats", rng=rng.child("d", i))[0]
                      for i in range(n)])
    se = sigma / np.sqrt(n)
    assert np.all(np.abs(draws.mean(axis=0) - mu) < 3 * se)


def test_materialize_batch_matches_singles_for_deterministic_kinds(tiny_mlp_ebr):
    rng = RngStream(31)
    params = tiny_mlp_ebr.init_params(rng.child("init"))
    raws = [RehearsalRecord(RawPayload(rng.child("x", i).normal((6,))), i, 0, 0)
            for i in range(5)]
    Z, y = materialize_batch(raws, "naive", encoder=tiny_mlp_ebr, encoder_params=params)
    assert y.dtype == np.int64
    for i, rec in enumerate(raws):
        zi, yi = materialize(rec, "naive", encoder=tiny_mlp_ebr, encoder_params=params)
        # batched and single-row matmuls may round differently in the last bit
        np.testing.assert_allclose(Z[i], zi, rtol=1e-12, atol=0)
        assert y[i] == yi

    embs = embed_batch(rng.child("emb"), 5)
    Z2, y2 = materialize_batch(embs, "ebr")
    assert np.array_equal(Z2, np.stack([r.payload.z for r in embs]))
    assert list(y2) == [r.label for r in embs]


def test_materialize_batch_stats_is_deterministic_per_stream():
    rng = RngStream(31)
    recs = [RehearsalRecord(GaussianStats(rng.child("mu", i).normal((4,)),
                                          rng.child("ls", i).normal((4,)) * 0.1),
                            i, 0, 0) for i in range(6)]
    Z1, y1 = materialize_batch(recs, "ver_stats", rng=rng.child("eps", 0))
    Z2, _ = materialize_batch(recs, "ver_stats", rng=rng.child("eps", 0))
    Z3, _ = materialize_batch(recs, "ver_stats", rng=rng.child("eps", 1))
    assert np.array_equal(Z1, Z2)
    assert not np.array_equal(Z1, Z3)
    assert Z1.shape == (6, 4)
    assert list(y1) == list(range(6))
    with pytest.raises(ContractViolation):
        materialize_batch(recs, "ver_stats")


def test_materialize_batch_rejects_empty_and_mismatched():
    with pytest.raises(ContractViolation):
        materialize_batch([], "ebr")
    rng = RngStream(31)
    with pytest.raises(ContractViolation):
        materialize_batch(embed_batch(rng, 3), "naive")


# ---------------------------------------------------------------------------
# Memory budget
# ---------------------------------------------------------------------------


def test_memory_budget_x1_matches_naive_count_for_every_kind():
    for kind in ("noise", "naive", "ebr", "ver_stats", "ver_sampled"):
        cfg = StrategyConfig(kind=kind, memory_multiplier="x1")
        assert memory_budget(cfg, 500, 3136, 1024) == 500


def test_memory_budget_x16_scales_by_byte_ratio():
    cfg = StrategyConfig(kind="ebr", memory_multiplier="x16")
    # 500 raw samples at 3136 bytes buy 1531 embeddings at 1024 bytes
    assert memory_budget(cfg, 500, 3136, 1024) == 1531
    assert memory_budget(cfg, 500, 1024, 1024) == 500


def test_memory_budget_rejects_nonpositive_sizes():
    cfg = StrategyConfig(kind="ebr", memory_multiplier="x16")
    for args in [(0, 3136, 1024), (500, 0, 1024), (500, 3136, 0)]:
        with pytest.raises(ContractViolation):
            memory_budget(cfg, *args)


# ---------------------------------------------------------------------------
# Snapshot round-trip
# ---------------------------------------------------------------------------


def mixed_buffer(rng, capacity):
    buf = RehearsalBuffer(capacity=capacity, rho=0.25)
    buf.records.append(RehearsalRecord(RawPayload(rng.normal((2, 3))), 0, 0, 1))
    buf.records.append(RehearsalRecord(EmbeddingPayload(rng.normal((4,))), 1, 1, 2))
    buf.records.append(RehearsalRecord(
        GaussianStats(rng.normal((4,)), rng.normal((4,))), 2, 2, 3))
    return buf


@pytest.mark.parametrize("capacity", [None, 17])
def test_buffer_snapshot_roundtrip(tmp_path, capacity):
    buf = mixed_buffer(RngStream(41), capacity)
    path = tmp_path / "buffer.bin"
    save_buffer(path, buf)
    loaded = load_buffer(path)
    assert loaded.capacity == buf.capacity
    assert loaded.rho == buf.rho
    assert len(loaded) == len(buf)
    for got, want in zip(loaded.records, buf.records):
        assert type(got.payload) is type(want.payload)
        assert (got.label, got.task_id, got.round_id) == (want.label, want.task_id, want.round_id)
        if isinstance(want.payload, RawPayload):
            assert np.array_equal(got.payload.x, want.payload.x)
        elif isinstance(want.payload, EmbeddingPayload):
            assert np.array_equal(got.payload.z, want.payload.z)
        else:
            assert np.array_equal(got.payload.mu, want.payload.mu)
            assert np.array_equal(got.payload.log_sigma, want.payload.log_sigma)


def test_buffer_snapshot_rejects_bad_magic(tmp_path):
    path = tmp_path / "garbage.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ContractViolation):
        load_buffer(path)


def test_buffer_snapshot_rejects_truncation(tmp_path):
    buf = mixed_buffer(RngStream(41), None)
    path = tmp_path / "buffer.bin"
    save_buffer(path, buf)
    clipped = tmp_path / "clipped.bin"
    clipped.write_bytes(path.read_bytes()[:-9])
    with pytest.raises(ContractViolation):
        load_buffer(clipped)
