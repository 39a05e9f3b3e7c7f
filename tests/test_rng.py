"""Counter-based stream determinism, child derivation, and resume."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from filver.rng import RngStream


def test_same_seed_same_draws():
    a = RngStream(42)
    b = RngStream(42)
    assert np.array_equal(a.normal(100), b.normal(100))
    assert np.array_equal(a.integers(0, 1000, shape=50), b.integers(0, 1000, shape=50))


def test_different_seeds_differ():
    assert not np.array_equal(RngStream(1).normal(100), RngStream(2).normal(100))


def test_counter_advances_per_draw():
    s = RngStream(7)
    assert s.counter == 0
    s.normal(3)
    assert s.counter == 1
    s.uniform(shape=2)
    s.integers(0, 5)
    assert s.counter == 3


def test_state_roundtrip_resumes_bit_exactly():
    s = RngStream(11, stream_id=99)
    s.normal(10)
    s.normal(10)
    saved = (s.seed, s.stream_id, s.counter)
    rest = [s.normal(10) for _ in range(3)]

    resumed = RngStream(*saved)
    again = [resumed.normal(10) for _ in range(3)]
    for a, b in zip(rest, again):
        assert np.array_equal(a, b)


def test_child_is_a_pure_function_of_tags():
    master = RngStream(5)
    first = master.child("local", 3, 2).normal(8)
    master.normal(4)  # parent draws must not shift the child's identity
    master.integers(0, 9)
    second = master.child("local", 3, 2).normal(8)
    assert np.array_equal(first, second)


def test_child_chaining_matches_multi_tag():
    master = RngStream(13)
    chained = master.child("a").child("b").child(4)
    direct = master.child("a", "b", 4)
    assert chained.stream_id == direct.stream_id
    assert np.array_equal(chained.normal(6), direct.normal(6))


def test_children_with_different_tags_are_independent():
    master = RngStream(3)
    seen = set()
    for tag in ["x", "y", 0, 1, "0", "1"]:
        seen.add(master.child(tag).stream_id)
    assert len(seen) == 6
    assert master.child("a", "b").stream_id != master.child("b", "a").stream_id


def test_tags_must_be_int_or_str():
    import pytest

    with pytest.raises(TypeError):
        RngStream(3).child(("x",))
    with pytest.raises(TypeError):
        RngStream(3).child(b"bytes")


def test_draw_shapes_and_ranges():
    s = RngStream(1)
    assert s.normal((3, 4)).shape == (3, 4)
    u = s.uniform(2.0, 5.0, shape=1000)
    assert u.min() >= 2.0 and u.max() < 5.0
    iv = s.integers(3, 9, shape=500)
    assert iv.min() >= 3 and iv.max() < 9
    p = s.permutation(20)
    assert sorted(p.tolist()) == list(range(20))


def test_choice_without_replacement_is_unique():
    got = RngStream(2).choice(50, 20, replace=False)
    assert len(set(got.tolist())) == 20
    assert got.min() >= 0 and got.max() < 50


def test_normal_moments_sane():
    draws = RngStream(123).normal(200_000)
    assert abs(draws.mean()) < 0.01
    assert abs(draws.std() - 1.0) < 0.01


@given(seed=st.integers(0, 2**64 - 1), tags=st.lists(
    st.one_of(st.integers(-5, 5), st.text(max_size=6)), min_size=0, max_size=4))
@settings(max_examples=60, deadline=None)
def test_child_identity_deterministic(seed, tags):
    a = RngStream(seed).child(*tags) if tags else RngStream(seed)
    b = RngStream(seed).child(*tags) if tags else RngStream(seed)
    assert a.stream_id == b.stream_id
    assert np.array_equal(a.normal(4), b.normal(4))
