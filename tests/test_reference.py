"""The program against the reference simulator (`reference.py`), bit for bit.

A property draws tiny configs over every strategy, schedule and memory
multiplier, batch sizes from 1, local and server step counts from 0, rho
in {0, a fraction, 1}, split and permuted task streams, a stop round and a
checkpoint interval.  `run_experiment` runs the config interrupted and
resumed; the reference runs it straight through.  Every report, the final
classifier vector and every buffer's rows must be equal.  Both sides run
on the same BLAS kernel, so this holds on any core, with no per-core table.
"""

import ast
import functools
import pathlib
import tempfile
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from filver.datasets import build_permuted_tasks, build_split_tasks, make_synthetic_blobs
from filver.federation import FLConfig, run_experiment
from filver.models import ClassifierSpec, EncoderSpec, ModelConfig
from filver.rehearsal import (MEMORY_MULTIPLIERS, STRATEGY_KINDS, StrategyConfig,
                              encoder_kind_for_strategy)
from filver.rng import RngStream
from filver.scenarios import SCHEDULE_KINDS

D_IN, EMBED, CLASSES = 8, 6, 2


@functools.lru_cache(maxsize=None)
def task_stream(stream: str, n_tasks: int):
    """Blobs of 24 samples a class, a quarter held out: split into bands of
    two classes, or two classes under one pixel permutation per task."""
    if stream == "split":
        base = make_synthetic_blobs(CLASSES * n_tasks, D_IN, 24, 0.15, RngStream(2024))
        return build_split_tasks(base, n_tasks=n_tasks, classes_per_task=CLASSES,
                                 val_fraction=0.25, rng=RngStream(2025))
    base = make_synthetic_blobs(CLASSES, D_IN, 24, 0.15, RngStream(2024))
    return build_permuted_tasks(base, n_tasks, RngStream(2025), val_fraction=0.25)


@dataclass(frozen=True)
class Case:
    strategy: str
    schedule: str
    memory: str
    rho: float
    stream: str
    n_tasks: int
    rounds_per_task: int
    n_clients: int
    clients_per_round: int
    batch_size: int
    local_iters: int
    s_max: int
    seed: int
    stop: int  # rounds run before the interruption
    every: int  # checkpoint_every: 0 stops after `stop`, else the run dies after it

    def fl(self) -> FLConfig:
        return FLConfig(self.rounds_per_task, self.n_clients, self.clients_per_round,
                        self.local_iters, self.s_max, eta=0.05, eta_s=0.02,
                        batch_size=self.batch_size)

    def model(self) -> ModelConfig:
        encoder = EncoderSpec(encoder_kind_for_strategy(self.strategy), (D_IN,),
                              embed_dim=EMBED, arch="mlp", hidden=16)
        return ModelConfig(encoder, ClassifierSpec(classes=CLASSES, hidden=16, layers=1),
                           beta=1e-3, pretrain_epochs=2, pretrain_lr=0.05)


@st.composite
def cases(draw):
    n_tasks, rounds = draw(st.integers(2, 3)), draw(st.integers(1, 3))
    n_clients = draw(st.integers(n_tasks, 5))  # all but fully_enrolled need one per task
    every = draw(st.integers(0, min(3, n_tasks * rounds - 1)))
    return Case(
        strategy=draw(st.sampled_from(STRATEGY_KINDS)),
        schedule=draw(st.sampled_from(SCHEDULE_KINDS)),
        memory=draw(st.sampled_from(MEMORY_MULTIPLIERS)),
        rho=draw(st.sampled_from([0.0, 0.3, 1.0])),
        stream=draw(st.sampled_from(["split", "permuted"])),
        n_tasks=n_tasks, rounds_per_task=rounds, n_clients=n_clients,
        clients_per_round=draw(st.integers(1, n_clients)),
        batch_size=draw(st.integers(1, 8)), local_iters=draw(st.integers(0, 3)),
        s_max=draw(st.integers(0, 3)), seed=draw(st.integers(0, 2**32 - 1)),
        stop=draw(st.integers(every + 1, n_tasks * rounds)), every=every)


class Crash(Exception):
    pass


def run_program(case: Case, tasks, directory: str):
    """(reports, final state) of run_experiment interrupted after round
    `case.stop` and resumed from its checkpoint: a stop (every 0), or a
    crash that loses the rounds after the last checkpoint of every `every`."""
    def run(**kwargs):
        return run_experiment(tasks, case.schedule, case.fl(),
                              StrategyConfig(case.strategy, case.rho, case.memory), case.model(),
                              master_seed=case.seed, checkpoint_dir=directory,
                              checkpoint_every=case.every, **kwargs)

    if case.every:
        first = []

        def crash(report):
            first.append(report)
            if len(first) == case.stop:
                raise Crash  # before the round's own checkpoint
        with pytest.raises(Crash):
            run(on_round=crash)
        del first[(case.stop - 1) // case.every * case.every:]
    else:
        first, _ = run(stop_after_round=case.stop)
    rest, state = run(resume_from=directory)
    return first + rest, state


def assert_same_rows(buffer, ref: reference.ListBuffer):
    assert buffer.capacity == ref.capacity
    assert len(buffer) == len(ref.rows)
    if not ref.rows:
        return
    assert list(buffer.columns) == list(ref.rows[0].columns)
    for name, column in buffer.columns.items():
        want = np.array([row.columns[name] for row in ref.rows])
        assert column.shape == want.shape and column.tobytes() == want.tobytes(), name
    for name, ids in (("label", buffer.labels), ("task", buffer.tasks), ("round", buffer.rounds)):
        assert ids.tolist() == [getattr(row, name) for row in ref.rows], name


# none under fully_enrolled: the vanilla loop a mirror oracle once checked alone
VANILLA = Case("none", "fully_enrolled", "x1", 0.25, "split", 2, 3, 4, 2, 8, 3, 1, 42, 3, 0)
# ver_stats at x16 holds fewer rows than at x1 here (two 6-wide columns cost
# more than an 8-pixel sample): the server buffer holds 72 rows, each task's
# one client uploads all its 12 every round, so rounds 6 to 8 evict
SCATTERED_EVICTING = Case("ver_stats", "scattered", "x16", 1.0, "split", 3, 3, 3, 3, 4, 2, 2,
                          5, 5, 2)


@settings(max_examples=100, deadline=None)
@given(case=cases())
@example(case=VANILLA)
@example(case=Case("ebr", "fully_enrolled", "x1", 0.25, "split", 2, 3, 4, 2, 8, 3, 2, 21, 3, 0))
@example(case=Case("naive", "fully_enrolled", "x1", 0.25, "split", 2, 3, 4, 2, 1, 3, 2, 21, 2, 0))
@example(case=Case("ver_sampled", "decreasing", "x1", 0.3, "split", 2, 2, 3, 2, 8, 0, 0, 7, 3, 0))
@example(case=Case("ebr", "increasing", "x16", 0.0, "split", 3, 1, 4, 2, 8, 2, 2, 9, 2, 0))
@example(case=Case("ver_stats", "fully_enrolled", "x1", 0.3, "permuted", 3, 2, 3, 2, 8, 2, 2,
                   11, 4, 2))
@example(case=SCATTERED_EVICTING)
def test_program_matches_the_reference_bit_for_bit(case):
    tasks = task_stream(case.stream, case.n_tasks)
    with tempfile.TemporaryDirectory() as tmp:
        reports, state = run_program(case, tasks, tmp)
    want, params, server, clients = reference.run(tasks, case.schedule, case.fl(), case.strategy,
                                                  case.rho, case.memory, case.model(), case.seed)
    got = [(r.round_id, r.task_id, r.accuracies, r.mean_loss, r.participants) for r in reports]
    assert repr(got) == repr(want)
    assert state.classifier_params.layout == params.layout
    assert state.classifier_params.flat.tobytes() == params.flat.tobytes()
    assert_same_rows(state.server_buffer, server)
    for buffer, ref_buffer in zip(state.client_buffers, clients, strict=True):
        assert_same_rows(buffer, ref_buffer)
    if case == SCATTERED_EVICTING:
        last = case.n_tasks * case.rounds_per_task - 1
        assert server.evictions and min(server.evictions) < last


def test_the_reference_imports_from_filver_only_the_modules_it_shares():
    # the numeric ops, the keyed draws and the data; it restates the rest
    imported = set()
    for node in ast.walk(ast.parse(pathlib.Path(reference.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            imported |= {node.module if node.module != "filver" else f"filver.{alias.name}"
                         for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
    assert {name for name in imported if name.split(".")[0] == "filver"} == {
        "filver.numcore", "filver.models", "filver.rng", "filver.datasets"}
