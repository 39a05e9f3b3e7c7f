"""Counter-based stream determinism, child derivation, and resume."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from filver import rng as rng_module
from filver.rng import RngStream
from oracles import ConstructorRngStream


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


# ---------------------------------------------------------------------------
# The reused generator against the per-draw constructor
# ---------------------------------------------------------------------------

keys = st.one_of(st.integers(0, 2**63 - 1), st.integers(2**63, 2**64 - 1))
shapes = st.one_of(st.none(), st.integers(0, 1200),
                   st.tuples(st.integers(0, 30), st.integers(0, 40)))
# spans below 2**32 draw 32-bit halves (and may leave one over), larger ones
# whole 64-bit words
spans = st.one_of(st.integers(1, 20), st.integers(2**31, 2**33), st.integers(2**40, 2**62))


@st.composite
def draws(draw):
    """One draw call: (method name, positional args)."""
    kind = draw(st.sampled_from(["normal", "uniform", "integers", "permutation", "choice"]))
    if kind == "normal":
        return kind, (draw(shapes),)
    if kind == "uniform":
        low = draw(st.floats(-5.0, 5.0))
        return kind, (low, low + draw(st.floats(0.5, 10.0)), draw(shapes))
    if kind == "integers":
        low = draw(st.integers(-1000, 1000))
        if draw(st.booleans()):
            return kind, (abs(low) + 1, None, draw(shapes))  # range [0, low)
        return kind, (low, low + draw(spans), draw(shapes))
    if kind == "permutation":
        return kind, (draw(st.integers(0, 300)),)
    # populations above 10,000 with small samples take numpy's set-based path
    n = draw(st.one_of(st.integers(1, 500), st.integers(10_001, 20_000)))
    replace = draw(st.booleans())
    size = draw(st.integers(0, 600) if replace else st.integers(0, min(n, 600)))
    return kind, (n, size, replace)


def assert_same_draw(got, want):
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@given(seeds=st.tuples(keys, keys), ids=st.tuples(keys, keys),
       counters=st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)),
       calls=st.lists(st.tuples(st.sampled_from([0, 1]), draws()), min_size=1, max_size=12))
@example(seeds=(2**63, 2**64 - 1), ids=(2**64 - 1, 2**63), counters=(2**64 - 1, 0),
         calls=[(0, ("choice", (400, 16, False))), (1, ("choice", (5, 40, True))),
                (0, ("normal", (3,)))])
@settings(max_examples=150, deadline=None)
def test_reused_generator_draws_equal_the_per_draw_constructor(seeds, ids, counters, calls):
    # two streams drawn in an arbitrary interleaving from the one shared
    # generator, each against its own constructor-built twin
    streams = [RngStream(s, i, c) for s, i, c in zip(seeds, ids, counters)]
    twins = [ConstructorRngStream(s, i, c) for s, i, c in zip(seeds, ids, counters)]
    made = [0, 0]
    for which, (method, args) in calls:
        got = getattr(streams[which], method)(*args)
        want = getattr(twins[which], method)(*args)
        assert_same_draw(got, want)
        made[which] += 1
        for k in (0, 1):
            assert streams[k].counter == twins[k].counter == counters[k] + made[k]


@given(seed=keys, stream_id=keys, counter=st.integers(0, 2**64 - 2),
       first=st.sampled_from([("integers", (0, 7)), ("integers", (3, 10, 5)),
                              ("normal", (1000,))]),
       then=draws())
@settings(max_examples=100, deadline=None)
def test_a_draw_after_leftover_state_still_equals_the_constructor(seed, stream_id, counter,
                                                                  first, then):
    # an odd number of 32-bit integers leaves a half word over in the shared
    # bit generator, and normal(1000) consumes hundreds of blocks; neither may
    # reach the next draw
    stream = RngStream(seed, stream_id, counter)
    twin = ConstructorRngStream(seed, stream_id, counter)
    method, args = first
    assert_same_draw(getattr(stream, method)(*args), getattr(twin, method)(*args))
    state = rng_module._BITGEN.state
    if method == "integers":
        assert state["has_uint32"] == 1
    else:
        assert state["state"]["counter"][0] > 100
    method, args = then
    assert_same_draw(getattr(stream, method)(*args), getattr(twin, method)(*args))
    assert stream.counter == twin.counter == counter + 2


@given(seed=keys, stream_id=keys, counter=st.integers(0, 2**64 - 1),
       parts=st.lists(st.tuples(st.booleans(), st.integers(0, 40)), min_size=1, max_size=8),
       skip_next=st.booleans())
@settings(max_examples=100, deadline=None)
def test_a_normal_draw_read_in_parts_equals_one_call(seed, stream_id, counter, parts,
                                                     skip_next):
    # parts read or skipped back to back, with other streams drawing between
    # them, are the one normal call's values; a part drawn again from its
    # mark gives the same bytes
    total = sum(n for _, n in parts)
    want = ConstructorRngStream(seed, stream_id, counter).normal(total)
    stream = RngStream(seed, stream_id, counter)
    draw = stream.normal_draw()
    assert stream.counter == counter + 1
    lo = 0
    for i, (read, n) in enumerate(parts):
        RngStream(seed, i).integers(0, 7, 3)  # leaves a 32-bit half word over
        mark = draw.mark()
        if read:
            assert draw.normal((n,)).tobytes() == want[lo:lo + n].tobytes()
        else:
            draw.skip(n)
        RngStream(seed, i).normal(5)
        again = rng_module.NormalDraw(mark).normal(n)
        assert again.tobytes() == want[lo:lo + n].tobytes()
        lo += n
    tail = ConstructorRngStream(seed, stream_id, counter).normal(total + 3)[total:]
    if skip_next:
        draw.skip(0)
    assert draw.normal(3).tobytes() == tail.tobytes()


def test_a_skip_across_chunks_lands_where_a_read_would():
    n = 2 * rng_module._SKIP_CHUNK + 5
    draw = RngStream(3).normal_draw()
    draw.skip(n)
    assert draw.normal(4).tobytes() == RngStream(3).normal(n + 4)[n:].tobytes()
