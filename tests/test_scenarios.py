"""Enrollment schedules: legality, per-kind shape, rendering."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from filver.errors import ContractViolation
from filver.rng import RngStream
from filver.scenarios import (
    ACTIVE,
    NO_LONGER_ACTIVE,
    NOT_ENROLLED_YET,
    SCHEDULE_KINDS,
    EnrollmentSchedule,
    make_schedule,
    validate_schedule,
)

ROW_SHAPE = re.compile(r"^0*1+2*$")


def row_string(grid, c):
    return "".join(str(int(s)) for s in grid[c])


# ---------------------------------------------------------------------------
# Legality of every generated schedule
# ---------------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(
    kind=st.sampled_from(SCHEDULE_KINDS),
    n_tasks=st.integers(min_value=1, max_value=8),
    extra=st.integers(min_value=0, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_generated_schedules_are_legal(kind, n_tasks, extra, seed):
    n_clients = n_tasks + extra  # join/leave kinds need at least one per task
    sched = make_schedule(kind, n_clients, n_tasks, RngStream(seed))
    assert sched.grid.shape == (n_clients, n_tasks)
    for c in range(n_clients):
        assert ROW_SHAPE.match(row_string(sched.grid, c)), row_string(sched.grid, c)
    for t in range(n_tasks):
        assert sched.active_clients(t)


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(SCHEDULE_KINDS),
    n_tasks=st.integers(min_value=1, max_value=8),
    extra=st.integers(min_value=0, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_schedules_equal_the_cell_by_cell_oracle(kind, n_tasks, extra, seed):
    # the join/leave arrays make the same keyed draws as the per-cell loops
    n_clients = n_tasks + extra
    want = oracles.make_schedule(kind, n_clients, n_tasks, RngStream(seed))
    assert np.array_equal(make_schedule(kind, n_clients, n_tasks, RngStream(seed)).grid, want)


def test_states_are_distinct_small_ints():
    assert {NOT_ENROLLED_YET, ACTIVE, NO_LONGER_ACTIVE} == {0, 1, 2}


# ---------------------------------------------------------------------------
# Kind-specific structure
# ---------------------------------------------------------------------------


def test_fully_enrolled_everyone_active_everywhere():
    sched = make_schedule("fully_enrolled", 5, 3, RngStream(0))
    assert np.all(sched.grid == ACTIVE)
    for t in range(3):
        assert sched.active_clients(t) == [0, 1, 2, 3, 4]


def test_decreasing_counts_shrink_by_rate():
    sched = make_schedule("decreasing", 4, 4, RngStream(1))
    counts = [len(sched.active_clients(t)) for t in range(4)]
    assert counts == [4, 3, 2, 1]
    # nobody comes back
    assert not np.any(sched.grid == NOT_ENROLLED_YET)


def test_decreasing_always_keeps_one_client():
    # rate ceil(3/4)=1 but only 3 clients for 4 tasks is illegal; use 8/4
    sched = make_schedule("decreasing", 8, 4, RngStream(2))
    counts = [len(sched.active_clients(t)) for t in range(4)]
    assert counts == [8, 6, 4, 2]
    assert min(counts) >= 1


def test_increasing_counts_grow_by_rate():
    sched = make_schedule("increasing", 4, 4, RngStream(3))
    counts = [len(sched.active_clients(t)) for t in range(4)]
    assert counts == [1, 2, 3, 4]
    assert not np.any(sched.grid == NO_LONGER_ACTIVE)


def test_increasing_absorbs_leftovers_into_last_task():
    sched = make_schedule("increasing", 9, 3, RngStream(4))
    counts = [len(sched.active_clients(t)) for t in range(3)]
    assert counts[0] >= 1
    assert counts[-1] == 9
    assert counts == sorted(counts)


def test_scattered_square_is_one_client_per_task():
    n = 6
    sched = make_schedule("scattered", n, n, RngStream(5))
    for t in range(n):
        assert len(sched.active_clients(t)) == 1
    # each client active exactly once
    assert np.all((sched.grid == ACTIVE).sum(axis=1) == 1)
    # and the assignment covers all tasks
    tasks_hit = {int(np.flatnonzero(sched.grid[c] == ACTIVE)[0]) for c in range(n)}
    assert tasks_hit == set(range(n))


def test_scattered_extras_still_one_task_each():
    sched = make_schedule("scattered", 11, 4, RngStream(6))
    assert np.all((sched.grid == ACTIVE).sum(axis=1) == 1)
    per_task = [(sched.grid[:, t] == ACTIVE).sum() for t in range(4)]
    assert sum(per_task) == 11
    assert min(per_task) >= 1


def test_make_schedule_argument_errors():
    rng = RngStream(7)
    with pytest.raises(ContractViolation):
        make_schedule("sideways", 4, 4, rng)
    with pytest.raises(ContractViolation):
        make_schedule("fully_enrolled", 0, 4, rng)
    with pytest.raises(ContractViolation):
        make_schedule("fully_enrolled", 4, 0, rng)
    with pytest.raises(ContractViolation):
        make_schedule("scattered", 3, 4, rng)


def test_make_schedule_is_deterministic_per_seed():
    a = make_schedule("scattered", 9, 4, RngStream(12))
    b = make_schedule("scattered", 9, 4, RngStream(12))
    c = make_schedule("scattered", 9, 4, RngStream(13))
    assert np.array_equal(a.grid, b.grid)
    assert not np.array_equal(a.grid, c.grid)


# ---------------------------------------------------------------------------
# Validation of hand-built grids
# ---------------------------------------------------------------------------


def test_validate_rejects_gap_in_active_window():
    grid = np.array([[1, 0, 1]], dtype=np.int8)
    with pytest.raises(ContractViolation):
        EnrollmentSchedule(grid)


def test_validate_rejects_return_after_leaving():
    grid = np.array([[1, 2, 1], [1, 1, 1]], dtype=np.int8)
    with pytest.raises(ContractViolation):
        EnrollmentSchedule(grid)


def test_validate_rejects_never_active_client():
    grid = np.array([[1, 1], [0, 0]], dtype=np.int8)
    with pytest.raises(ContractViolation):
        EnrollmentSchedule(grid)


def test_validate_rejects_task_with_no_active_clients():
    grid = np.array([[1, 2], [1, 2]], dtype=np.int8)
    with pytest.raises(ContractViolation):
        EnrollmentSchedule(grid)


def test_validate_rejects_dropped_before_joining():
    grid = np.array([[2, 1]], dtype=np.int8)
    with pytest.raises(ContractViolation):
        EnrollmentSchedule(grid)


def test_validate_rejects_empty_or_flat_grids():
    with pytest.raises(ContractViolation):
        EnrollmentSchedule(np.zeros((0, 3), dtype=np.int8))
    with pytest.raises(ContractViolation):
        EnrollmentSchedule(np.array([1, 1, 1], dtype=np.int8))


def test_grid_is_frozen_after_construction():
    sched = make_schedule("fully_enrolled", 2, 2, RngStream(0))
    with pytest.raises(ValueError):
        sched.grid[0, 0] = NO_LONGER_ACTIVE


def test_validate_accepts_legal_mixed_grid():
    grid = np.array([
        [1, 1, 2, 2],
        [0, 1, 1, 1],
        [1, 1, 1, 2],
        [0, 0, 1, 1],
    ], dtype=np.int8)
    validate_schedule(EnrollmentSchedule(grid))


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def test_render_uses_one_char_per_state():
    grid = np.array([
        [0, 1, 2],
        [1, 1, 1],
    ], dtype=np.int8)
    text = make_render_text(grid)
    lines = text.splitlines()
    assert len(lines) == 2
    assert lines[0].endswith("○•×")
    assert lines[1].endswith("•••")
    assert "client" in lines[0]


def make_render_text(grid):
    return EnrollmentSchedule(grid).render()
