"""Checkpoints: the directory a run saves after a round and resumes from.

It holds meta.json (format, global_round, run identity), model.bin (FVMC)
and server_buffer.bin and client_<id>.bin (FVBF).  This module alone knows
that layout; the round loop calls `save_checkpoint` and `load_checkpoint`.
Each file is checked where it is read, before any round, naming the file.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import fields, is_dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import storage
from .errors import ContractViolation
from .models import ClassifierModel, EncoderModel, ModelConfig
from .numcore import ParamVector
from .rehearsal import RehearsalBuffer, StrategyConfig, buffer_columns, load_buffer, save_buffer
from .rng import RngStream
from .scenarios import EnrollmentSchedule

if TYPE_CHECKING:  # federation imports this module
    from .federation import ExperimentState, FLConfig

CHECKPOINT_META = "meta.json"


def _paths(directory, n_clients: int) -> list:
    """model.bin, server_buffer.bin, then client_<id>.bin by id."""
    names = ["model.bin", "server_buffer.bin"] + [f"client_{c}.bin" for c in range(n_clients)]
    return [os.path.join(directory, name) for name in names]


def _merge_params(encoder_params: ParamVector, classifier_params: ParamVector) -> ParamVector:
    pairs = [("enc." + name, values) for name, values in encoder_params.items()]
    pairs += [("cls." + name, values) for name, values in classifier_params.items()]
    return ParamVector.from_arrays(pairs)


def _split_params(merged: ParamVector):
    enc = [(name[4:], values) for name, values in merged.items() if name.startswith("enc.")]
    cls = [(name[4:], values) for name, values in merged.items() if name.startswith("cls.")]
    return ParamVector.from_arrays(enc), ParamVector.from_arrays(cls)


def save_checkpoint(directory, state: ExperimentState) -> None:
    os.makedirs(directory, exist_ok=True)
    model_path, server_path, *client_paths = _paths(directory, len(state.client_buffers))
    storage.save_model_checkpoint(model_path,
                                  _merge_params(state.encoder_params, state.classifier_params),
                                  state.encoder.spec.kind, state.encoder.spec.embed_dim,
                                  state.classifier.spec.classes)
    save_buffer(server_path, state.server_buffer)
    for path, buffer in zip(client_paths, state.client_buffers):
        save_buffer(path, buffer)
    meta = {"format": storage.FORMAT_VERSION, "global_round": state.global_round,
            **state.identity}
    with open(os.path.join(directory, CHECKPOINT_META), "w") as f:
        json.dump(meta, f, indent=2, sort_keys=True)


def _identity_fields(prefix: str, config):
    """(dotted name, value) of each field of a config dataclass; a field that
    is itself a dataclass contributes its own fields under its field name."""
    for f in fields(config):
        value = getattr(config, f.name)
        if is_dataclass(value):
            yield from _identity_fields(f.name, value)
        else:
            yield f"{prefix}.{f.name}", value


def run_identity(master_seed: int, fl: FLConfig, strategy: StrategyConfig, model: ModelConfig,
                 schedule: EnrollmentSchedule) -> dict:
    """What a checkpoint and the run resuming it must agree on, under dotted
    names in this order: the master seed, every FLConfig, StrategyConfig,
    EncoderSpec and ClassifierSpec field ("fl.s_max", "encoder.hidden"), the
    rest of the ModelConfig ("model.beta") and the rendered schedule
    ("scenario.schedule").  Resume names the first key missing or changed,
    so a changed client count before the schedule it reshapes.  Values are
    as meta.json stores them: tuples read back as lists."""
    identity = {"master_seed": master_seed}
    for prefix, config in (("fl", fl), ("strategy", strategy), ("model", model)):
        identity.update(_identity_fields(prefix, config))
    identity["scenario.schedule"] = schedule.render()
    return json.loads(json.dumps(identity))


def read_checkpoint_meta(directory, total_rounds: int, identity: dict = None) -> dict:
    """meta.json of the checkpoint in `directory`: a global_round within the
    resuming run's `total_rounds`, and every key of `identity` as given."""
    meta_path = os.path.join(directory, CHECKPOINT_META)
    if not os.path.exists(meta_path):
        raise ContractViolation(f"no checkpoint metadata at {meta_path}")
    with open(meta_path) as f:
        try:
            meta = json.load(f)
        except json.JSONDecodeError as exc:
            raise ContractViolation(
                f"checkpoint metadata {meta_path} is not valid JSON: {exc}") from None
    if not isinstance(meta, dict):
        raise ContractViolation(f"checkpoint metadata {meta_path} is not a JSON object")
    for key in ("format", "global_round"):
        if key not in meta:
            raise ContractViolation(f"checkpoint metadata {meta_path} has no {key!r}")
    version = meta["format"]
    if type(version) is not int or version != storage.FORMAT_VERSION:
        raise ContractViolation(f"checkpoint metadata {meta_path} has format {version!r}, "
                                f"this program reads format {storage.FORMAT_VERSION}")
    done = meta["global_round"]
    if isinstance(done, bool) or not isinstance(done, int) or done < 0:
        raise ContractViolation(
            f"checkpoint metadata {meta_path} has global_round {done!r}, not a round count")
    for key, value in (identity or {}).items():
        if key not in meta:
            raise ContractViolation(f"checkpoint metadata {meta_path} has no {key!r}")
        if meta[key] != value:
            raise ContractViolation(
                f"checkpoint was written with {key} {meta[key]!r}, this run has {value!r}")
    if done > total_rounds:
        raise ContractViolation(f"checkpoint metadata {meta_path} has global_round {done}, "
                                f"past this run's {total_rounds} rounds")
    return meta


def _check_buffer(path, buffer: RehearsalBuffer, owner: str, capacity: int, strategy_kind: str,
                  id_bounds: tuple, rounds_per_task: int) -> None:
    """A snapshot has its owner's capacity (buffer_capacity) and no more rows;
    unless empty, the strategy's columns, all finite (replay trusts them),
    label, task and round ids in [0, stop) for each (name, stop) of
    `id_bounds`, and each row's task the one its round belongs to."""
    if buffer.capacity != capacity:
        raise ContractViolation(f"buffer snapshot {path} has capacity {buffer.capacity}, "
                                f"this run's {owner} buffers hold {capacity}")
    if len(buffer) > capacity:
        raise ContractViolation(f"buffer snapshot {path} holds {len(buffer)} rows, "
                                f"more than its capacity {capacity}")
    if not len(buffer):
        return
    columns = buffer_columns(strategy_kind)
    if tuple(buffer.columns) != columns:
        raise ContractViolation(f"buffer snapshot {path} holds columns "
                                f"{tuple(buffer.columns)}, strategy {strategy_kind!r} "
                                f"buffers hold {columns}")
    for name, column in buffer.columns.items():
        if not np.isfinite(column).all():
            raise ContractViolation(f"buffer snapshot {path} holds a non-finite value "
                                    f"in column {name!r}")
    for (name, stop), ids in zip(id_bounds, (buffer.labels, buffer.tasks, buffer.rounds)):
        bad = ids[(ids < 0) | (ids >= stop)]
        if len(bad):
            raise ContractViolation(f"buffer snapshot {path} holds {name} {bad[0]}, "
                                    f"outside [0, {stop})")
    wrong = np.flatnonzero(buffer.tasks != buffer.rounds // rounds_per_task)
    if len(wrong):
        task, round_id = buffer.tasks[wrong[0]], buffer.rounds[wrong[0]]
        raise ContractViolation(f"buffer snapshot {path} holds task {task} in round {round_id}, "
                                f"which belongs to task {round_id // rounds_per_task}")


def load_checkpoint(directory, identity: dict, encoder: EncoderModel, classifier: ClassifierModel,
                    strategy: StrategyConfig, fl: FLConfig, n_tasks: int, server_cap: int,
                    client_cap: int) -> tuple:
    """(global_round, encoder params, classifier params, server buffer,
    client buffers by id) of the checkpoint in `directory`, refused unless a
    run of this identity (run_identity) and these settings could write it."""
    done = read_checkpoint_meta(directory, n_tasks * fl.rounds_per_task, identity)["global_round"]
    model_path, *buffer_paths = paths = _paths(directory, fl.n_clients)
    for path in paths:
        if not os.path.exists(path):
            raise ContractViolation(f"checkpoint file {path} is missing")
    merged, header = storage.load_model_checkpoint(model_path)
    for key, want in (("encoder_kind", encoder.spec.kind), ("embed_dim", encoder.spec.embed_dim),
                      ("classes", classifier.spec.classes)):
        if header[key] != want:
            raise ContractViolation(f"model checkpoint {model_path} has {key.replace('_', ' ')} "
                                    f"{header[key]!r}, this run's model has {want!r}")
    want = _merge_params(encoder.init_params(RngStream(0)), classifier.init_params(RngStream(0)))
    for have, need in itertools.zip_longest(merged.layout, want.layout):
        if have != need:
            raise ContractViolation(f"model checkpoint {model_path} has parameter {have}, "
                                    f"this run's model has {need}")
    for name, values in merged.items():
        if not np.isfinite(values).all():
            raise ContractViolation(f"model checkpoint {model_path} holds a non-finite value "
                                    f"in parameter {name!r}")
    id_bounds = (("label", classifier.spec.classes), ("task", n_tasks), ("round", done))
    buffers = []
    for i, path in enumerate(buffer_paths):  # the server's, then the clients'
        owner, capacity = ("client", client_cap) if i else ("server", server_cap)
        buffers.append(load_buffer(path))
        _check_buffer(path, buffers[-1], owner, capacity, strategy.kind, id_bounds,
                      fl.rounds_per_task)
    return (done, *_split_params(merged), buffers[0], buffers[1:])
