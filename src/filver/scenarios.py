"""Client enrollment schedules across the task stream.

A schedule fixes, for every (client, task) cell, one of three states:

  not_enrolled_yet  the client has not joined the federation yet
  active            the client trains and uploads this task
  no_longer_active  the client left; its earlier uploads stay on the server

States only move forward: a client may join once and leave once, never
returning.  Enrollment is constant within a task.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .rng import RngStream

NOT_ENROLLED_YET = 0
ACTIVE = 1
NO_LONGER_ACTIVE = 2

SCHEDULE_KINDS = ("fully_enrolled", "decreasing", "increasing", "scattered")

_STATE_CHARS = {NOT_ENROLLED_YET: "○", ACTIVE: "•", NO_LONGER_ACTIVE: "×"}


@dataclass
class EnrollmentSchedule:
    """Immutable (n_clients, n_tasks) grid of enrollment states."""

    grid: np.ndarray

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=np.int8)
        if self.grid.ndim != 2 or self.grid.size == 0:
            raise ContractViolation("schedule grid must be a nonempty 2-d array")
        validate_schedule(self)
        self.grid.setflags(write=False)

    @property
    def n_clients(self) -> int:
        return self.grid.shape[0]

    @property
    def n_tasks(self) -> int:
        return self.grid.shape[1]

    def active_clients(self, task_id: int) -> list:
        return [int(c) for c in np.flatnonzero(self.grid[:, task_id] == ACTIVE)]

    def render(self) -> str:
        """One row per client: active •, not enrolled yet ○, dropped ×."""
        lines = []
        for c in range(self.n_clients):
            cells = "".join(_STATE_CHARS[int(s)] for s in self.grid[c])
            lines.append(f"client {c:3d}  {cells}")
        return "\n".join(lines)


def validate_schedule(schedule: EnrollmentSchedule) -> None:
    """Every row must read (not_enrolled_yet)* (active)+ (no_longer_active)*."""
    grid = schedule.grid
    for c in range(grid.shape[0]):
        row = grid[c]
        active = np.flatnonzero(row == ACTIVE)
        if active.size == 0:
            raise ContractViolation(f"client {c} is never active")
        lo, hi = active[0], active[-1]
        if hi - lo + 1 != active.size:
            raise ContractViolation(f"client {c} has a gap in its active window")
        if not np.all(row[:lo] == NOT_ENROLLED_YET):
            raise ContractViolation(f"client {c} has non-pending state before joining")
        if not np.all(row[hi + 1:] == NO_LONGER_ACTIVE):
            raise ContractViolation(f"client {c} returns after leaving")
    for t in range(grid.shape[1]):
        if not np.any(grid[:, t] == ACTIVE):
            raise ContractViolation(f"task {t} has zero active clients")


def make_schedule(kind: str, n_clients: int, n_tasks: int, rng: RngStream) -> EnrollmentSchedule:
    if kind not in SCHEDULE_KINDS:
        raise ContractViolation(f"unknown schedule kind {kind!r}")
    if n_clients < 1 or n_tasks < 1:
        raise ContractViolation("need at least one client and one task")
    if kind != "fully_enrolled" and n_clients < n_tasks:
        raise ContractViolation(f"{kind} schedules need n_clients >= n_tasks")

    # client c is active for tasks join[c] <= t < leave[c]
    join = np.zeros(n_clients, dtype=np.int64)
    leave = np.full(n_clients, n_tasks, dtype=np.int64)
    rate = -(-n_clients // n_tasks)  # ceil(N / T) joins or drops per boundary
    if kind == "decreasing":
        # all start active; `rate` active clients leave at each boundary,
        # always keeping at least one until the end
        for t in range(1, n_tasks):
            still = np.flatnonzero(leave == n_tasks)
            n_drop = min(rate, len(still) - 1)
            if n_drop > 0:
                leave[still[rng.child("drop", t).choice(len(still), n_drop, replace=False)]] = t
    elif kind == "increasing":
        # mirror image: start small, `rate` clients join at each boundary;
        # any left over when rate under-counts join in the final task
        start = max(1, n_clients - rate * (n_tasks - 1))
        slots = np.arange(n_clients) - start
        join[rng.child("join").permutation(n_clients)] = np.clip(slots // rate + 1, 0, n_tasks - 1)
    elif kind == "scattered":
        # each client is active for exactly one task; a permutation
        # guarantees every task gets one before extras are spread at random
        order = rng.child("scatter").permutation(n_clients)
        join[order[:n_tasks]] = np.arange(n_tasks)
        for c in order[n_tasks:]:
            join[c] = rng.child("scatter_extra", int(c)).integers(0, n_tasks)
        leave = join + 1
    t = np.arange(n_tasks)
    return EnrollmentSchedule(np.where(t < join[:, None], NOT_ENROLLED_YET,
                                       np.where(t < leave[:, None], ACTIVE, NO_LONGER_ACTIVE)))
