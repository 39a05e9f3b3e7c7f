"""IDX parsing against hand-built byte fixtures, and task-stream builders."""

import pathlib
import struct
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filver.config import preset_config
from filver.datasets import (BlobBands, ImageRows, LabeledSet, build_permuted_tasks,
                             build_split_tasks, load_idx, make_synthetic_blobs, partition_clients,
                             split_train_val)
from filver.errors import (ContractViolation, IdxCountMismatchError, IdxMagicError,
                           IdxTruncatedError)
from filver.rng import RngStream

import oracles


# ---------------------------------------------------------------------------
# IDX fixtures built byte-by-byte
# ---------------------------------------------------------------------------

def _write_idx_images(path, images, magic=0x00000803):
    count, rows, cols = images.shape
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", magic, count, rows, cols))
        f.write(images.astype(np.uint8).tobytes())


def _write_idx_labels(path, labels, magic=0x00000801):
    with open(path, "wb") as f:
        f.write(struct.pack(">II", magic, len(labels)))
        f.write(np.asarray(labels, dtype=np.uint8).tobytes())


@pytest.fixture
def idx_pair(tmp_path):
    images = np.arange(3 * 4 * 5, dtype=np.uint8).reshape(3, 4, 5)
    labels = np.array([0, 2, 1], dtype=np.uint8)
    ip, lp = tmp_path / "img.idx", tmp_path / "lbl.idx"
    _write_idx_images(ip, images)
    _write_idx_labels(lp, labels)
    return ip, lp, images, labels


def test_load_idx_values_and_scaling(idx_pair):
    ip, lp, images, labels = idx_pair
    data = load_idx(ip, lp)
    assert data.images.shape == (3, 4, 5)
    assert data.images[:].dtype == np.float64
    assert data.images[:].tobytes() == (images.astype(np.float64) / 255.0).tobytes()
    assert np.array_equal(data.labels, labels.astype(np.int64))
    assert data.class_count == 3


def test_load_idx_transpose_swaps_axes(idx_pair):
    ip, lp, images, _ = idx_pair
    data = load_idx(ip, lp, transpose=True)
    assert data.images.shape == (3, 5, 4)
    assert np.array_equal(data.images[0], images[0].astype(np.float64).T / 255.0)


def test_load_idx_rejects_bad_image_magic(tmp_path, idx_pair):
    _, lp, images, _ = idx_pair
    bad = tmp_path / "bad.idx"
    _write_idx_images(bad, images, magic=0x00000801)
    with pytest.raises(IdxMagicError):
        load_idx(bad, lp)


def test_load_idx_rejects_bad_label_magic(tmp_path, idx_pair):
    ip, _, _, labels = idx_pair
    bad = tmp_path / "bad_lbl.idx"
    _write_idx_labels(bad, labels, magic=0x00000803)
    with pytest.raises(IdxMagicError):
        load_idx(ip, bad)


def test_load_idx_rejects_truncated_images(tmp_path, idx_pair):
    ip, lp, _, _ = idx_pair
    cut = tmp_path / "cut.idx"
    cut.write_bytes(ip.read_bytes()[:-7])
    with pytest.raises(IdxTruncatedError):
        load_idx(cut, lp)


def test_load_idx_rejects_truncated_labels(tmp_path, idx_pair):
    ip, lp, _, _ = idx_pair
    cut = tmp_path / "cut_lbl.idx"
    cut.write_bytes(lp.read_bytes()[:-1])
    with pytest.raises(IdxTruncatedError):
        load_idx(ip, cut)


def test_load_idx_rejects_count_mismatch(tmp_path, idx_pair):
    ip, _, _, _ = idx_pair
    two = tmp_path / "two.idx"
    _write_idx_labels(two, np.array([0, 1], dtype=np.uint8))
    with pytest.raises(IdxCountMismatchError):
        load_idx(ip, two)


# ---------------------------------------------------------------------------
# LabeledSet basics
# ---------------------------------------------------------------------------

def test_labeledset_rejects_out_of_range_labels():
    with pytest.raises(ContractViolation):
        LabeledSet(np.zeros((2, 3)), np.array([0, 5]), 3)


def test_labeledset_subset_composes_rows():
    # a subset of a subset is row numbers into the one source; what a set
    # gathers is a copy
    data = LabeledSet(np.arange(6.0).reshape(3, 2), np.array([0, 1, 2]), 3)
    sub = data.subset(np.array([2, 1])).subset(np.array([1]))
    assert sub.images.source is data.images.source
    assert sub.images.rows.tolist() == [1] and sub.labels.tolist() == [1]
    gathered = sub.images[:]
    gathered[0, 0] = 99.0
    assert data.images[1].tolist() == [2.0, 3.0]


def test_image_rows_gather_by_every_index_kind():
    # row i of the source is [i, i + 0.5]; rows 3, 0, 2 in that order
    images = ImageRows(np.arange(4)[:, None] + np.array([0.0, 0.5]), np.array([3, 0, 2]))
    assert images.shape == (3, 2) and len(images) == 3
    assert images[1].tolist() == [0.0, 0.5]
    assert images[::-1][:, 0].tolist() == [2.0, 0.0, 3.0]
    assert images[np.array([2, 2])][:, 0].tolist() == [2.0, 2.0]
    assert images[np.array([True, False, True])][:, 0].tolist() == [3.0, 2.0]
    assert images[:0].shape == (0, 2)
    assert np.asarray(images)[:, 0].tolist() == [3.0, 0.0, 2.0]


def test_image_rows_compose_permutations():
    source = RngStream(30).uniform(shape=(5, 2, 3))
    p, q = RngStream(31).permutation(6), RngStream(32).permutation(6)
    once = ImageRows(source, np.array([4, 1])).permuted(p)
    assert once[:].reshape(2, 6).tolist() == source[[4, 1]].reshape(2, 6)[:, p].tolist()
    twice = once.permuted(q).subset(np.array([1]))
    assert twice[:].reshape(1, 6).tolist() == once[:].reshape(2, 6)[1:, q].tolist()


def test_labeledset_subset_matches_the_two_step_copy():
    # a transposed view, as load_idx(transpose=True) returns
    images = np.arange(5 * 3 * 4, dtype=np.float64).reshape(5, 3, 4).transpose(0, 2, 1)
    data = LabeledSet(images, np.array([0, 1, 2, 1, 0]), 3)
    rows = np.array([4, 1, 1, 3])
    got, want = data.subset(rows), oracles.subset(data, rows)
    gathered = got.images[:]
    assert gathered.flags.c_contiguous
    assert gathered.tobytes() == want.images[:].tobytes()
    assert np.array_equal(got.labels, want.labels)
    assert not np.shares_memory(gathered, data.images.source)
    assert not np.shares_memory(got.labels, data.labels)


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------

def _toy_set(classes=6, per_class=20, d=4, seed=0):
    rng = RngStream(seed)
    images = rng.uniform(shape=(classes * per_class, d))
    labels = np.repeat(np.arange(classes), per_class).astype(np.int64)
    return LabeledSet(images, labels, classes)


def test_split_train_val_stratified_and_disjoint():
    data = _toy_set()
    train_rows, val_rows = split_train_val(data, 0.25, RngStream(1))
    assert np.array_equal(np.sort(np.concatenate([train_rows, val_rows])), np.arange(len(data)))
    for label in range(6):
        assert (data.labels[val_rows] == label).sum() == 5
        assert (data.labels[train_rows] == label).sum() == 15
    want_train, want_val = oracles.split_train_val(data, 0.25, RngStream(1))
    assert np.array_equal(data.images[train_rows], want_train.images)
    assert np.array_equal(data.images[val_rows], want_val.images)


def test_split_train_val_keeps_at_least_one_val_sample():
    data = _toy_set(classes=3, per_class=4)
    _, val_rows = split_train_val(data, 0.01, RngStream(2))
    for label in range(3):
        assert (data.labels[val_rows] == label).sum() >= 1


def test_build_split_tasks_relabels_disjoint_bands():
    base = _toy_set(classes=8, per_class=12)
    seq = build_split_tasks(base, n_tasks=4, classes_per_task=2,
                            val_fraction=0.25, rng=RngStream(3))
    assert seq.n_tasks == 4 and seq.class_count == 2
    for t, task in enumerate(seq.tasks):
        assert set(np.unique(task.train.labels)) == {0, 1}
        assert set(np.unique(task.val.labels)) == {0, 1}
        # recover original band membership through sample identity
        assert len(task.train) + len(task.val) == 2 * 12


def test_build_split_tasks_rejects_too_few_classes():
    with pytest.raises(ContractViolation):
        build_split_tasks(_toy_set(classes=6), n_tasks=4, classes_per_task=2)


def test_build_permuted_tasks_identity_first_and_consistent():
    base = _toy_set(classes=3, per_class=10, d=9)
    seq = build_permuted_tasks(base, 4, RngStream(4), val_fraction=0.2)
    assert seq.n_tasks == 4
    t0, t1 = seq.tasks[0], seq.tasks[1]
    # task 0 is the unpermuted stream
    assert np.array_equal(np.sort(t0.train.images[0]), np.sort(t1.train.images[0]))
    assert not np.array_equal(t0.train.images, t1.train.images)
    # labels ride along unchanged
    for task in seq.tasks:
        assert np.array_equal(task.train.labels, t0.train.labels)
        assert np.array_equal(task.val.labels, t0.val.labels)


def test_build_permuted_tasks_same_perm_for_train_and_val():
    base = _toy_set(classes=2, per_class=8, d=6)
    seq = build_permuted_tasks(base, 3, RngStream(5), val_fraction=0.25)
    t0, t2 = seq.tasks[0], seq.tasks[2]
    # recover the permutation from the train pair, then apply it to val:
    # permuted[:, j] == original[:, perm[j]]
    src, dst = t0.train.images[:], t2.train.images[:]
    perm = np.array([int(np.flatnonzero(src[0] == v)[0]) for v in dst[0]])
    assert np.array_equal(t0.val.images[:][:, perm], t2.val.images[:])


@given(st.integers(2, 5), st.integers(1, 6))
@settings(max_examples=25, deadline=None)
def test_permuted_tasks_preserve_pixel_multisets(n_tasks, seed):
    base = _toy_set(classes=2, per_class=6, d=8, seed=seed)
    seq = build_permuted_tasks(base, n_tasks, RngStream(seed), val_fraction=0.3)
    for task in seq.tasks:
        assert np.array_equal(np.sort(task.train.images, axis=1),
                              np.sort(seq.tasks[0].train.images, axis=1))


def _image_set(classes, per_class, seed, transposed=False):
    data = _toy_set(classes=classes, per_class=per_class, d=12, seed=seed)
    images = data.images[:]
    if transposed:
        # a transposed view, as load_idx(transpose=True) returns
        return LabeledSet(images.reshape(-1, 4, 3).transpose(0, 2, 1), data.labels, classes)
    return LabeledSet(images.reshape(-1, 3, 4), data.labels, classes)


def _bases(given_val, transposed):
    """(base, base_val) for a builder; base_val is None when the val rows split off."""
    base = _image_set(8, 12, seed=20, transposed=transposed)
    return base, (_image_set(8, 5, seed=21, transposed=transposed) if given_val else None)


def _assert_same_tasks(got, want):
    """got's tasks gather to want's bytes and labels, row for row; want comes
    from the two-step route, which holds every task gathered."""
    assert got.n_tasks == want.n_tasks
    for g, w in zip(got.tasks, want.tasks):
        assert g.task_id == w.task_id
        for a, b in ((g.train, w.train), (g.val, w.val)):
            gathered, held = a.images[:], b.images[:]
            assert a.class_count == b.class_count
            assert gathered.dtype == held.dtype and a.labels.dtype == b.labels.dtype
            assert a.images.shape == gathered.shape == held.shape
            # the two-step route left permuted images F-ordered; the gather is C
            assert gathered.flags.c_contiguous
            assert gathered.tobytes() == held.tobytes()
            assert np.array_equal(a.labels, b.labels)
            # and an index that reorders rows gathers them in its order
            assert a.images[::-1].tobytes() == held[::-1].tobytes()


@pytest.mark.parametrize("transposed", [False, True])
@pytest.mark.parametrize("given_val", [False, True])
def test_one_copy_builders_match_the_two_step_route(given_val, transposed):
    base, base_val = _bases(given_val, transposed)
    got = build_split_tasks(base, 4, 2, base_val=base_val, val_fraction=0.25, rng=RngStream(22))
    want = oracles.build_split_tasks(base, 4, 2, base_val=base_val, val_fraction=0.25,
                                     rng=RngStream(22))
    _assert_same_tasks(got, want)
    got = build_permuted_tasks(base, 3, RngStream(23), base_val=base_val, val_fraction=0.25)
    want = oracles.build_permuted_tasks(base, 3, RngStream(23), base_val=base_val,
                                        val_fraction=0.25)
    _assert_same_tasks(got, want)


def _held(source):
    """The source's resident images: an array source, or a draw's held band."""
    return source.band(source.held) if isinstance(source, BlobBands) else source


def _assert_builders_view(base, base_val):
    """Every task half is rows of base's (or base_val's) one source; its
    labels, and what it gathers, are its own."""
    sources = [base] + ([base_val] if base_val is not None else [])
    for seq in (build_split_tasks(base, 4, 2, base_val=base_val, val_fraction=0.25,
                                  rng=RngStream(24)),
                build_permuted_tasks(base, 3, RngStream(25), base_val=base_val,
                                     val_fraction=0.25)):
        for task in seq.tasks:
            assert task.train.images.source is base.images.source
            assert task.val.images.source is (base_val or base).images.source
            for part in (task.train, task.val):
                gathered = part.images[:]
                for source in sources:
                    assert not np.shares_memory(gathered, _held(source.images.source))
                    assert not np.shares_memory(part.labels, source.labels)


@pytest.mark.parametrize("given_val", [False, True])
def test_one_copy_builders_view_the_base_source(given_val):
    _assert_builders_view(*_bases(given_val, transposed=False))


@pytest.mark.parametrize("given_val", [False, True])
def test_builders_view_a_banded_blob_draw(given_val):
    # here the source is a blob draw of two classes a band, and a gather
    # shares no memory with the band it leaves held
    base, base_val = (make_synthetic_blobs(8, 12, n, 0.3, RngStream(seed), image_shape=(3, 4),
                                           band_classes=2)
                      for n, seed in ((12, 26), (5, 27)))
    _assert_builders_view(base, base_val if given_val else None)


def _write_idx_pair(directory, name, pixels, labels):
    ip, lp = directory / f"{name}-images.idx", directory / f"{name}-labels.idx"
    _write_idx_images(ip, pixels)
    _write_idx_labels(lp, labels)
    return ip, lp


@given(protocol=st.sampled_from(["split", "permuted"]), kind=st.sampled_from(["synthetic", "idx"]),
       transpose=st.booleans(), given_val=st.booleans(), n_tasks=st.integers(1, 3),
       per_class=st.integers(2, 5), seed=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_tasks_gather_what_the_two_step_route_held(protocol, kind, transpose, given_val,
                                                   n_tasks, per_class, seed):
    # every task half gathers, row for row, to the bytes and labels the
    # two-step route held gathered (the builders that gathered each task
    # once matched it byte for byte); a split drops the one class beyond
    # its bands
    classes = 2 * n_tasks + 1
    rng = RngStream(seed)
    halves = []  # (got, want) base sets: train, then val when given
    with tempfile.TemporaryDirectory() as tmp:
        for name, n_per in (("train", per_class), ("val", 2))[:1 + given_val]:
            if kind == "synthetic":
                draw = (classes, 12, n_per, 0.3, rng.child("blobs", name))
                halves.append((make_synthetic_blobs(*draw, image_shape=(3, 4)),
                               oracles.make_synthetic_blobs(*draw, image_shape=(3, 4))))
                continue
            pixels = rng.child("pixels", name).integers(0, 256, (classes * n_per, 3, 4))
            labels = np.tile(np.arange(classes), n_per)
            got = load_idx(*_write_idx_pair(pathlib.Path(tmp), name, pixels, labels),
                           transpose=transpose)
            scaled = pixels.astype(np.float64) / 255.0
            halves.append((got, LabeledSet(scaled.transpose(0, 2, 1) if transpose else scaled,
                                           labels, classes)))
    (base, want_base), (base_val, want_val) = halves[0], (halves + [(None, None)])[1]
    if protocol == "split":
        got = build_split_tasks(base, n_tasks, 2, base_val=base_val, val_fraction=0.3,
                                rng=rng.child("split"))
        want = oracles.build_split_tasks(want_base, n_tasks, 2, base_val=want_val,
                                         val_fraction=0.3, rng=rng.child("split"))
    else:
        got = build_permuted_tasks(base, n_tasks, rng.child("permute"), base_val=base_val,
                                   val_fraction=0.3)
        want = oracles.build_permuted_tasks(want_base, n_tasks, rng.child("permute"),
                                            base_val=want_val, val_fraction=0.3)
    _assert_same_tasks(got, want)


def test_desk_task_build_holds_one_copy_of_the_images():
    # the blob draw streams band by band and keeps band 0, a quarter of the
    # images: holding the whole draw, gathering the tasks or interleaving
    # the draw by copy would peak at 1x to 2x
    tracemalloc.start()
    try:
        seq = preset_config("desk-split4").build_tasks()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    source = seq.tasks[0].train.images.source
    assert isinstance(source, BlobBands) and (source.n_bands, source.held) == (4, 0)
    assert all(part.images.source is source for t in seq.tasks for part in (t.train, t.val))
    image_bytes = np.prod(source.shape) * 8
    assert peak < 0.3 * image_bytes, f"peak {peak / image_bytes:.2f}x the base images"


def test_desk_partition_copies_no_image():
    # a shard is row indices into its task's train set, the one copy of its
    # images; gathering shards would allocate the train images once more
    cfg = preset_config("desk-split4")
    seq = cfg.build_tasks()
    tracemalloc.start()
    try:
        partition_clients(seq, cfg["fl.n_clients"], RngStream(3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    train_bytes = sum(len(t.train) * t.train.images[0].nbytes for t in seq.tasks)
    assert peak < 0.01 * train_bytes, f"peak {peak / train_bytes:.4f}x the train images"


# ---------------------------------------------------------------------------
# Client partitioning
# ---------------------------------------------------------------------------

def test_partition_tiles_each_task():
    seq = build_split_tasks(_toy_set(classes=8, per_class=10), 4, 2,
                            val_fraction=0.2, rng=RngStream(6))
    part = partition_clients(seq, 3, RngStream(7))
    for t, task in enumerate(seq.tasks):
        rows = [part.rows(c, t) for c in range(3)]
        # disjoint, and together every train row exactly once
        assert np.array_equal(np.sort(np.concatenate(rows)), np.arange(len(task.train)))
        sizes = [len(r) for r in rows]
        assert max(sizes) - min(sizes) <= 2  # round-robin per label, +-1 each
        for c in range(3):
            assert rows[c].dtype == np.int64
            shard = part.shard(c, t)
            want = task.train.subset(rows[c])
            assert np.array_equal(shard.images, want.images)
            assert np.array_equal(shard.labels, want.labels)
            assert shard.class_count == task.train.class_count
            counts = np.bincount(shard.labels, minlength=2)
            assert counts.max() - counts.min() <= 1 or counts.min() > 0


def test_partition_is_deterministic():
    seq = build_split_tasks(_toy_set(classes=4, per_class=10), 2, 2,
                            val_fraction=0.2, rng=RngStream(8))
    a = partition_clients(seq, 2, RngStream(9))
    b = partition_clients(seq, 2, RngStream(9))
    for c in range(2):
        for t in range(2):
            assert np.array_equal(a.shard(c, t).images, b.shard(c, t).images)


# ---------------------------------------------------------------------------
# Synthetic blobs
# ---------------------------------------------------------------------------

def test_blobs_shapes_labels_and_range():
    data = make_synthetic_blobs(5, 12, 7, 0.3, RngStream(12))
    assert data.images.shape == (35, 12)
    assert data.images[:].min() >= 0.0 and data.images[:].max() <= 1.0
    assert np.array_equal(data.labels, np.tile(np.arange(5), 7))


def test_blobs_image_shape_reshapes():
    data = make_synthetic_blobs(3, 16, 4, 0.2, RngStream(13), image_shape=(4, 4))
    assert data.images.shape == (12, 4, 4)


def test_blobs_rejects_bad_args():
    with pytest.raises(ContractViolation):
        make_synthetic_blobs(1, 8, 4, 0.2, RngStream(14))
    with pytest.raises(ContractViolation):
        make_synthetic_blobs(3, 8, 4, 0.2, RngStream(15), image_shape=(3, 3))
    with pytest.raises(ContractViolation, match="band_classes"):
        make_synthetic_blobs(3, 8, 4, 0.2, RngStream(15), band_classes=0)


def test_blobs_match_the_draw_then_copy_route():
    for image_shape in (None, (3, 4)):
        got = make_synthetic_blobs(5, 12, 9, 0.4, RngStream(17), image_shape=image_shape)
        want = oracles.make_synthetic_blobs(5, 12, 9, 0.4, RngStream(17),
                                            image_shape=image_shape)
        assert got.images.shape == want.images.shape
        assert got.images[:].tobytes() == want.images[:].tobytes()
        assert np.array_equal(got.labels, want.labels)


@given(classes=st.integers(2, 7), per_class=st.integers(1, 5), d=st.integers(1, 6),
       band=st.integers(1, 8), seed=st.integers(0, 2**16), data=st.data())
@settings(max_examples=60, deadline=None)
def test_band_draws_match_the_one_draw(classes, per_class, d, band, seed, data):
    # bands of one class, a short last band and one band of every class
    # (band >= classes) gather every row to the one draw's bytes, in any
    # order: row by row, in a shuffle that spans bands, and whole
    got = make_synthetic_blobs(classes, d, per_class, 0.4, RngStream(seed), band_classes=band)
    want = oracles.make_synthetic_blobs(classes, d, per_class, 0.4, RngStream(seed)).images[:]
    source = got.images.source
    assert source.n_bands == -(-classes // min(band, classes))
    assert got.images.shape == want.shape
    order = np.array(data.draw(st.permutations(range(len(want)))), dtype=np.int64)
    for i in order:
        assert got.images[int(i)].tobytes() == want[i].tobytes()
    assert got.images[order].tobytes() == want[order].tobytes()
    assert got.images[:].tobytes() == want.tobytes()
    assert np.array_equal(got.labels, np.tile(np.arange(classes), per_class))


@given(classes=st.integers(2, 7), band=st.integers(1, 3), seed=st.integers(0, 2**16))
@settings(max_examples=30, deadline=None)
def test_a_dropped_band_is_drawn_again_to_its_first_bytes(classes, band, seed):
    source = make_synthetic_blobs(classes, 5, 3, 0.3, RngStream(seed),
                                  band_classes=band).images.source
    first = [source.band(b).copy() for b in range(source.n_bands)]
    for b in reversed(range(source.n_bands)):
        # another stream's draw between the band's draws shifts nothing
        RngStream(seed + 1).normal(7)
        again = source.band(b)
        assert source.held == b
        assert again.tobytes() == first[b].tobytes()


def test_blobs_check_image_shape_before_drawing(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("drew before checking image_shape")

    monkeypatch.setattr(RngStream, "normal", no_draws)
    monkeypatch.setattr(RngStream, "uniform", no_draws)
    with pytest.raises(ContractViolation):
        make_synthetic_blobs(3, 8, 4, 0.2, RngStream(18), image_shape=(3, 3))


def test_blobs_deterministic():
    a = make_synthetic_blobs(4, 10, 5, 0.25, RngStream(16))
    b = make_synthetic_blobs(4, 10, 5, 0.25, RngStream(16))
    assert np.array_equal(a.images, b.images)
