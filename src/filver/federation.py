"""Federated training loop: local updates, weighted aggregation, embedding
upload, and server-side rehearsal training.

The encoder is pretrained on the first task and frozen; federated rounds
train only the classifier.  Every random draw is keyed by purpose and round
coordinates from one master stream, so results do not depend on the order
in which clients train, and a run resumed from any checkpoint repeats the
uninterrupted run bit-exactly.

Stream keying contract (master = RngStream(master_seed)):
  partition            master.child("partition")
  schedule             master.child("schedule")
  pretraining          master.child("pretrain")
  classifier init      master.child("classifier_init")
  client sampling      master.child("client_sample", task, round)
  local training       L = master.child("local", client, task, round)
    fresh batch i        L.child("fresh", i)
    fresh draw i         L.child("eps", i)
    replay batch i       L.child("replay", i)
    replay draw i        L.child("replay_eps", i)
    upload selection     L.child("upload"), L.child("upload_eps")
    own-buffer admission L.child("self_admit")
  server admission     master.child("server_admit", task, round, client)
  server training      master.child("sst", task, round)
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

from . import models, scenarios, storage
from .datasets import TaskSequence, partition_clients
from .errors import ContractViolation
from .models import ClassifierModel, ClassifierSpec, EncoderModel, EncoderSpec, GaussianStats
from .numcore import ParamVector, reparam_sample, sgd_step
from .rehearsal import (EmbeddingPayload, RawPayload, RehearsalBuffer, RehearsalRecord,
                        StrategyConfig, admit, load_buffer, materialize_batch, memory_budget,
                        replay_batch, save_buffer)
from .rng import RngStream
from .scenarios import EnrollmentSchedule, apply_schedule, make_schedule

CHECKPOINT_META = "meta.json"


@dataclass
class FLConfig:
    rounds_per_task: int
    n_clients: int
    clients_per_round: int
    local_iters: int = 10
    s_max: int = 20
    eta: float = 0.05
    eta_s: float = 0.01
    batch_size: int = 32

    def __post_init__(self):
        if self.rounds_per_task < 1 or self.n_clients < 1 or self.clients_per_round < 1:
            raise ContractViolation("round, client and sampling counts must be >= 1")
        if self.clients_per_round > self.n_clients:
            raise ContractViolation("cannot sample more clients per round than exist")
        if self.local_iters < 0 or self.s_max < 0:
            raise ContractViolation("iteration counts must be >= 0")
        if self.batch_size < 1:
            raise ContractViolation("batch_size must be >= 1")
        if self.eta <= 0 or self.eta_s <= 0:
            raise ContractViolation("learning rates must be positive")


@dataclass
class ClientState:
    client_id: int
    shards: dict
    buffer: RehearsalBuffer
    enrollment: int = scenarios.NOT_ENROLLED_YET
    fresh_cache: dict = field(default_factory=dict)


@dataclass
class RoundReport:
    round_id: int
    task_id: int
    accuracies: tuple
    mean_loss: float
    participants: tuple
    server_buffer: int
    client_buffer_total: int


@dataclass
class LocalResult:
    params: ParamVector
    upload: list
    n_samples: int
    mean_loss: float


def encoder_kind_for_strategy(kind: str) -> str:
    """noise trains nothing; variational strategies need stats heads; the
    rest share a deterministic encoder."""
    if kind == "noise":
        return "random_projection"
    if kind in ("ver_stats", "ver_sampled"):
        return "vee"
    return "ebr"


def fedavg_aggregate(updates: list) -> ParamVector:
    """Sample-count-weighted mean of client parameter vectors."""
    if not updates:
        raise ContractViolation("fedavg_aggregate: no updates")
    base = updates[0][0]
    total = 0.0
    acc = np.zeros_like(base.flat)
    for params, count in updates:
        if count <= 0:
            raise ContractViolation(f"fedavg_aggregate: sample count {count} must be positive")
        if params.layout != base.layout:
            raise ContractViolation("fedavg_aggregate: parameter layouts differ")
        acc += float(count) * params.flat
        total += float(count)
    return ParamVector(base.layout, acc / total)


# ---------------------------------------------------------------------------
# Local training
# ---------------------------------------------------------------------------


def _ensure_fresh_cache(client: ClientState, task_id: int, encoder: EncoderModel,
                        encoder_params: ParamVector) -> dict:
    """Embed the client's current shard once; the encoder is frozen, so the
    cache stays valid for every round of the task.  "mu" holds the
    noise-free embeddings; "log_sigma" is None unless the encoder is a vee."""
    cached = client.fresh_cache.get(task_id)
    if cached is not None:
        return cached
    shard = client.shards.get(task_id)
    if shard is None or len(shard) == 0:
        raise ContractViolation(f"client {client.client_id} has no data for task {task_id}")
    mu, log_sigma = models.encode_for_eval(encoder, encoder_params, shard.images)
    cache = {"labels": np.asarray(shard.labels), "mu": mu, "log_sigma": log_sigma}
    client.fresh_cache[task_id] = cache
    return cache


def _fresh_batch(cache: dict, strategy_kind: str, k: int, idx_rng: RngStream, eps_rng: RngStream):
    n = len(cache["labels"])
    idx = idx_rng.choice(n, k, replace=k > n)
    y = cache["labels"][idx]
    if strategy_kind in ("ver_stats", "ver_sampled") and cache["log_sigma"] is not None:
        z, _ = reparam_sample(cache["mu"][idx], cache["log_sigma"][idx], eps_rng)
    else:
        z = cache["mu"][idx]
    return z, y


def _build_upload(client: ClientState, cache: dict, task_id: int, global_round: int,
                  strategy: StrategyConfig, rng: RngStream) -> list:
    """rho-sample this round's shard into rehearsal records (payload type
    fixed by the strategy), admit them to the client's own buffer, and
    return the same records for upload.  This is the one rho-sample: admit
    keeps every record it is offered, up to eviction."""
    if strategy.kind == "none":
        return []
    shard = client.shards[task_id]
    n = len(shard)
    n_up = math.ceil(strategy.rho * n)
    if n_up == 0:
        return []
    if n_up >= n:
        idx = np.arange(n)
    else:
        idx = rng.child("upload").choice(n, n_up, replace=False)
    labels = cache["labels"][idx]

    records = []
    if strategy.kind == "naive":
        for j, y in zip(idx, labels):
            records.append(RehearsalRecord(RawPayload(np.array(shard.images[j])),
                                           y, task_id, global_round))
    elif strategy.kind in ("ebr", "noise"):
        for j, y in zip(idx, labels):
            records.append(RehearsalRecord(EmbeddingPayload(np.array(cache["mu"][j])),
                                           y, task_id, global_round))
    elif cache["log_sigma"] is None:
        raise ContractViolation(f"{strategy.kind} needs a variational encoder")
    elif strategy.kind == "ver_stats":
        for j, y in zip(idx, labels):
            records.append(RehearsalRecord(
                GaussianStats(np.array(cache["mu"][j]), np.array(cache["log_sigma"][j])),
                y, task_id, global_round))
    else:  # ver_sampled: draw z once; the stats never leave the client
        z, _ = reparam_sample(cache["mu"][idx], cache["log_sigma"][idx], rng.child("upload_eps"))
        for row, y in zip(z, labels):
            records.append(RehearsalRecord(EmbeddingPayload(np.array(row)),
                                           y, task_id, global_round))

    admit(client.buffer, records, rng.child("self_admit"))
    return records


def local_train(client: ClientState, global_params: ParamVector, encoder: EncoderModel,
                encoder_params: ParamVector, classifier: ClassifierModel, task_id: int,
                global_round: int, fl: FLConfig, strategy: StrategyConfig,
                rng: RngStream) -> LocalResult:
    """E SGD steps on batches mixing fresh shard embeddings with replay from
    the client's own buffer (half and half once the buffer is nonempty)."""
    if client.enrollment != scenarios.ACTIVE:
        raise ContractViolation(f"client {client.client_id} is not active for task {task_id}")
    cache = _ensure_fresh_cache(client, task_id, encoder, encoder_params)
    n = len(cache["labels"])

    params = global_params
    losses = []
    for i in range(fl.local_iters):
        use_replay = strategy.kind != "none" and len(client.buffer) > 0
        k_fresh = fl.batch_size // 2 if use_replay else fl.batch_size
        k_fresh = max(1, k_fresh)
        z, y = _fresh_batch(cache, strategy.kind, k_fresh, rng.child("fresh", i), rng.child("eps", i))
        if use_replay:
            batch = replay_batch(client.buffer, fl.batch_size - k_fresh, rng.child("replay", i))
            if len(batch):
                z_r, y_r = materialize_batch(batch, strategy.kind, encoder=encoder,
                                             encoder_params=encoder_params,
                                             rng=rng.child("replay_eps", i))
                z = np.concatenate([z, z_r])
                y = np.concatenate([y, y_r])
        loss, grad = models.classifier_loss_and_grad(classifier, params, z, y)
        params = sgd_step(params, grad, fl.eta)
        losses.append(loss)

    if not losses:  # E = 0: report the loss without taking a step
        z, y = _fresh_batch(cache, strategy.kind, min(fl.batch_size, n),
                            rng.child("fresh", 0), rng.child("eps", 0))
        loss, _ = models.classifier_loss_and_grad(classifier, params, z, y)
        losses = [loss]

    upload = _build_upload(client, cache, task_id, global_round, strategy, rng)
    return LocalResult(params, upload, n, float(np.mean(losses)))


def server_side_training(params: ParamVector, server_buffer: RehearsalBuffer,
                         classifier: ClassifierModel, fl: FLConfig, strategy_kind: str,
                         encoder: EncoderModel, encoder_params: ParamVector,
                         rng: RngStream) -> ParamVector:
    """S_max SGD steps on batches replayed from the pooled server buffer."""
    if fl.s_max == 0 or len(server_buffer) == 0:
        return params
    for s in range(fl.s_max):
        batch = replay_batch(server_buffer, fl.batch_size, rng.child("batch", s))
        z, y = materialize_batch(batch, strategy_kind, encoder=encoder,
                                 encoder_params=encoder_params, rng=rng.child("eps", s))
        loss, grad = models.classifier_loss_and_grad(classifier, params, z, y)
        params = sgd_step(params, grad, fl.eta_s)
    return params


# ---------------------------------------------------------------------------
# Rounds and experiments
# ---------------------------------------------------------------------------


@dataclass
class ExperimentState:
    master: RngStream
    fl: FLConfig
    strategy: StrategyConfig
    encoder: EncoderModel
    encoder_params: ParamVector
    encoder_checksum: str
    classifier: ClassifierModel
    classifier_params: ParamVector
    clients: list
    server_buffer: RehearsalBuffer
    schedule: EnrollmentSchedule
    tasks: TaskSequence
    eval_cache: dict
    identity: dict  # _run_identity, written to meta.json
    global_round: int = 0

    def evaluate(self) -> tuple:
        return tuple(
            models.classifier_accuracy(self.classifier, self.classifier_params, z, y)
            for z, y in (self.eval_cache[t] for t in range(self.tasks.n_tasks)))


def run_round(state: ExperimentState, task_id: int, round_in_task: int) -> RoundReport:
    fl = state.fl
    for c in state.clients:
        c.enrollment = state.schedule.state(c.client_id, task_id)
    active = sorted(apply_schedule(state.clients, state.schedule, task_id),
                    key=lambda c: c.client_id)
    g = state.global_round

    if not active:
        report = RoundReport(g, task_id, state.evaluate(), float("nan"), (),
                             len(state.server_buffer),
                             sum(len(c.buffer) for c in state.clients))
        state.global_round += 1
        return report

    m = min(fl.clients_per_round, len(active))
    pick = state.master.child("client_sample", task_id, round_in_task).choice(
        len(active), m, replace=False)
    chosen = sorted((active[i] for i in pick), key=lambda c: c.client_id)

    results = [local_train(c, state.classifier_params, state.encoder, state.encoder_params,
                           state.classifier, task_id, g, fl, state.strategy,
                           state.master.child("local", c.client_id, task_id, round_in_task))
               for c in chosen]

    # union of uploads, admitted in client-id order for schedule independence
    for client, res in zip(chosen, results):
        if res.upload:
            admit(state.server_buffer, res.upload,
                  state.master.child("server_admit", task_id, round_in_task, client.client_id))

    state.classifier_params = fedavg_aggregate([(r.params, r.n_samples) for r in results])
    state.classifier_params = server_side_training(
        state.classifier_params, state.server_buffer, state.classifier, fl,
        state.strategy.kind, state.encoder, state.encoder_params,
        state.master.child("sst", task_id, round_in_task))

    if state.encoder_params.checksum() != state.encoder_checksum:
        raise ContractViolation("frozen encoder parameters changed during training")

    report = RoundReport(g, task_id, state.evaluate(),
                         float(np.mean([r.mean_loss for r in results])),
                         tuple(c.client_id for c in chosen),
                         len(state.server_buffer),
                         sum(len(c.buffer) for c in state.clients))
    state.global_round += 1
    return report


def _buffer_capacity(strategy: StrategyConfig, per_task_samples: int, n_tasks: int,
                     raw_bytes: int, embed_dim: int) -> int:
    """Capacity sized to hold one rho-sample per task within the memory
    envelope.  Stats records carry two vectors; naive records carry raw
    samples, so their budget cancels back to the sample count."""
    if strategy.kind == "none":
        return 0
    naive_count = math.ceil(strategy.rho * per_task_samples) * n_tasks
    if naive_count == 0:
        return 0
    if strategy.kind == "naive":
        payload_bytes = raw_bytes
    elif strategy.kind == "ver_stats":
        payload_bytes = 2 * embed_dim * 8
    else:
        payload_bytes = embed_dim * 8
    return memory_budget(strategy, naive_count, raw_bytes, payload_bytes)


def default_encoder_spec(strategy_kind: str, tasks: TaskSequence, embed_dim: int,
                         hidden: int, arch: str = None, conv_channels=(16, 32)) -> EncoderSpec:
    dims = tasks.tasks[0].train.images.shape[1:]
    if arch is None:
        arch = "conv" if len(dims) == 2 else "mlp"
    return EncoderSpec(encoder_kind_for_strategy(strategy_kind), tuple(dims),
                       embed_dim=embed_dim, arch=arch, hidden=hidden,
                       conv_channels=tuple(conv_channels))


def run_experiment(tasks: TaskSequence, schedule, fl: FLConfig, strategy: StrategyConfig, *,
                   master_seed: int, encoder_spec: EncoderSpec = None,
                   classifier_spec: ClassifierSpec = None, beta: float = models.DEFAULT_BETA,
                   pretrain_epochs: int = models.DEFAULT_PRETRAIN_EPOCHS,
                   pretrain_lr: float = 0.01, on_task_boundary=None, on_round=None,
                   checkpoint_dir=None, checkpoint_every: int = 0,
                   resume_from=None, stop_after_round: int = None):
    """Full task stream: pretrain, then rounds_per_task rounds per task.

    Raw training shards of a finished task are dropped at its boundary; only
    rehearsal buffers carry information forward.  Returns (reports, state);
    a resumed run returns reports for the remaining rounds only.
    """
    master = RngStream(master_seed)
    n_tasks = tasks.n_tasks

    if isinstance(schedule, str):
        schedule = make_schedule(schedule, fl.n_clients, n_tasks, master.child("schedule"))
    if schedule.n_clients != fl.n_clients or schedule.n_tasks != n_tasks:
        raise ContractViolation("schedule shape does not match clients and tasks")

    if encoder_spec is None:
        encoder_spec = default_encoder_spec(strategy.kind, tasks,
                                            models.DEFAULT_EMBED_DIM, models.DEFAULT_HIDDEN)
    if classifier_spec is None:
        classifier_spec = ClassifierSpec(classes=tasks.class_count)
    encoder = EncoderModel(encoder_spec)
    classifier = ClassifierModel(classifier_spec, encoder_spec.embed_dim)

    partition = partition_clients(tasks, fl.n_clients, master.child("partition"))
    raw_bytes = int(np.prod(tasks.tasks[0].train.images.shape[1:])) * 8
    per_client = max(len(partition.shard(c, t))
                     for c in range(fl.n_clients) for t in range(n_tasks))
    per_task_total = max(len(t.train) for t in tasks.tasks)
    client_cap = _buffer_capacity(strategy, per_client, n_tasks, raw_bytes, encoder_spec.embed_dim)
    server_cap = _buffer_capacity(strategy, per_task_total, n_tasks, raw_bytes, encoder_spec.embed_dim)

    clients = [ClientState(cid, {t: partition.shard(cid, t) for t in range(n_tasks)},
                           RehearsalBuffer(capacity=client_cap))
               for cid in range(fl.n_clients)]
    server_buffer = RehearsalBuffer(capacity=server_cap)

    identity = _run_identity(master_seed, fl, strategy, schedule, encoder_spec, classifier_spec,
                             beta, pretrain_epochs, pretrain_lr)
    start_round = 0
    if resume_from is not None:
        meta = read_checkpoint_meta(resume_from)
        for key, value in identity.items():
            if meta[key] != value:
                raise ContractViolation(
                    f"checkpoint was written with {key} {meta[key]!r}, this run has {value!r}")
        start_round = meta["global_round"]
        encoder_params, classifier_params, server_buffer, client_buffers = \
            _load_checkpoint(resume_from, encoder_spec, fl.n_clients)
        for c, buffer in zip(clients, client_buffers):
            c.buffer = buffer
    else:
        first_active = schedule.active_clients(0)
        images = np.concatenate([clients[c].shards[0].images for c in first_active])
        labels = np.concatenate([clients[c].shards[0].labels for c in first_active])
        encoder_params = models.pretrain_encoder(
            images, labels, tasks.class_count, encoder, pretrain_epochs, pretrain_lr,
            master.child("pretrain"), batch_size=fl.batch_size, beta=beta)
        classifier_params = classifier.init_params(master.child("classifier_init"))

    state = ExperimentState(
        master=master, fl=fl, strategy=strategy,
        encoder=encoder, encoder_params=encoder_params,
        encoder_checksum=encoder_params.checksum(),
        classifier=classifier, classifier_params=classifier_params,
        clients=clients, server_buffer=server_buffer, schedule=schedule,
        tasks=tasks, eval_cache={}, global_round=start_round, identity=identity)

    for t in range(n_tasks):
        z, _ = models.encode_for_eval(encoder, encoder_params, tasks.tasks[t].val.images)
        state.eval_cache[t] = (z, np.asarray(tasks.tasks[t].val.labels))

    # a resumed run must not see raw data of tasks already finished
    first_task = start_round // fl.rounds_per_task
    for t in range(first_task):
        for c in clients:
            c.shards.pop(t, None)

    reports = []
    for task_id in range(first_task, n_tasks):
        r0 = start_round - task_id * fl.rounds_per_task if task_id == first_task else 0
        for r in range(max(0, r0), fl.rounds_per_task):
            report = run_round(state, task_id, r)
            reports.append(report)
            if on_round is not None:
                on_round(report)
            done = state.global_round
            if checkpoint_dir is not None and checkpoint_every > 0 and done % checkpoint_every == 0:
                save_checkpoint(checkpoint_dir, state)
            if stop_after_round is not None and done >= stop_after_round:
                if checkpoint_dir is not None:
                    save_checkpoint(checkpoint_dir, state)
                return reports, state
        for c in clients:
            c.shards.pop(task_id, None)
            c.fresh_cache.pop(task_id, None)
        if on_task_boundary is not None:
            on_task_boundary(task_id)
    return reports, state


# ---------------------------------------------------------------------------
# Checkpointing
# ---------------------------------------------------------------------------


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
    merged = _merge_params(state.encoder_params, state.classifier_params)
    storage.save_model_checkpoint(os.path.join(directory, "model.bin"), merged,
                                  state.encoder.spec.kind, state.encoder.spec.embed_dim,
                                  state.classifier.spec.classes)
    save_buffer(os.path.join(directory, "server_buffer.bin"), state.server_buffer)
    for c in state.clients:
        save_buffer(os.path.join(directory, f"client_{c.client_id}.bin"), c.buffer)
    meta = {"format": storage.FORMAT_VERSION, "global_round": state.global_round,
            **state.identity}
    with open(os.path.join(directory, CHECKPOINT_META), "w") as f:
        json.dump(meta, f, indent=2, sort_keys=True)


_IDENTITY_CONFIGS = (("fl", FLConfig), ("strategy", StrategyConfig),
                     ("encoder", EncoderSpec), ("classifier", ClassifierSpec))


def _run_identity(master_seed: int, fl: FLConfig, strategy: StrategyConfig,
                  schedule: EnrollmentSchedule, encoder_spec: EncoderSpec,
                  classifier_spec: ClassifierSpec, beta: float, pretrain_epochs: int,
                  pretrain_lr: float) -> dict:
    """What a checkpoint and the run resuming it must agree on, under dotted
    names: the master seed, every FLConfig, StrategyConfig, EncoderSpec and
    ClassifierSpec field ("fl.s_max", "encoder.hidden"), the pretraining
    settings ("model.beta") and the rendered enrollment schedule
    ("scenario.schedule", which also covers schedule objects passed in
    directly).  Resume reports the first mismatch in this order, so a changed
    client count is named before the schedule it reshapes.  Values are as
    meta.json stores them: tuples read back as lists."""
    identity = {"master_seed": master_seed}
    for (prefix, _), config in zip(_IDENTITY_CONFIGS, (fl, strategy, encoder_spec, classifier_spec)):
        identity.update((f"{prefix}.{f.name}", getattr(config, f.name)) for f in fields(config))
    identity.update({"model.beta": beta, "model.pretrain_epochs": pretrain_epochs,
                     "model.pretrain_lr": pretrain_lr, "scenario.schedule": schedule.render()})
    return json.loads(json.dumps(identity))


_META_KEYS = ("global_round", "master_seed", "scenario.schedule", "model.beta",
              "model.pretrain_epochs", "model.pretrain_lr") + tuple(
    f"{prefix}.{f.name}" for prefix, config in _IDENTITY_CONFIGS for f in fields(config))


def read_checkpoint_meta(directory) -> dict:
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
    for key in _META_KEYS:
        if key not in meta:
            raise ContractViolation(f"checkpoint metadata {meta_path} has no {key!r}")
    done = meta["global_round"]
    if not isinstance(done, int) or done < 0:
        raise ContractViolation(
            f"checkpoint metadata {meta_path} has global_round {done!r}, not a round count")
    return meta


def _load_checkpoint(directory, encoder_spec: EncoderSpec, n_clients: int):
    """(encoder params, classifier params, server buffer, client buffers by
    id); every file save_checkpoint writes must be there."""
    model_path = os.path.join(directory, "model.bin")
    server_path = os.path.join(directory, "server_buffer.bin")
    client_paths = [os.path.join(directory, f"client_{cid}.bin") for cid in range(n_clients)]
    for path in (model_path, server_path, *client_paths):
        if not os.path.exists(path):
            raise ContractViolation(f"checkpoint file {path} is missing")
    merged, header = storage.load_model_checkpoint(model_path)
    if header["encoder_kind"] != encoder_spec.kind:
        raise ContractViolation("checkpoint encoder kind does not match the configuration")
    encoder_params, classifier_params = _split_params(merged)
    return (encoder_params, classifier_params, load_buffer(server_path),
            [load_buffer(path) for path in client_paths])


# ---------------------------------------------------------------------------
# Offline reference: joint training on all tasks at once
# ---------------------------------------------------------------------------


def run_offline(tasks: TaskSequence, fl: FLConfig, *, master_seed: int,
                encoder_spec: EncoderSpec = None, classifier_spec: ClassifierSpec = None,
                beta: float = models.DEFAULT_BETA,
                pretrain_epochs: int = models.DEFAULT_PRETRAIN_EPOCHS,
                pretrain_lr: float = 0.01, steps: int = None):
    """Upper-bound baseline: one learner sees every task's training data
    jointly for a comparable number of SGD steps.  Returns (per-task
    accuracies, their mean)."""
    master = RngStream(master_seed)
    if encoder_spec is None:
        encoder_spec = default_encoder_spec("ver_sampled", tasks,
                                            models.DEFAULT_EMBED_DIM, models.DEFAULT_HIDDEN)
    if classifier_spec is None:
        classifier_spec = ClassifierSpec(classes=tasks.class_count)
    encoder = EncoderModel(encoder_spec)
    classifier = ClassifierModel(classifier_spec, encoder_spec.embed_dim)

    first = tasks.tasks[0].train
    encoder_params = models.pretrain_encoder(
        first.images, first.labels, tasks.class_count, encoder, pretrain_epochs,
        pretrain_lr, master.child("pretrain"), batch_size=fl.batch_size, beta=beta)
    params = classifier.init_params(master.child("classifier_init"))

    embedded = [models.encode_for_eval(encoder, encoder_params, task.train.images)
                for task in tasks.tasks]
    mu_all = np.concatenate([mu for mu, _ in embedded])
    log_sigma_all = (np.concatenate([ls for _, ls in embedded])
                     if encoder_spec.kind == "vee" else None)
    y_all = np.concatenate([np.asarray(task.train.labels) for task in tasks.tasks])
    n = len(y_all)

    if steps is None:
        steps = tasks.n_tasks * fl.rounds_per_task * (fl.local_iters + fl.s_max)
    for s in range(steps):
        idx = master.child("offline_batch", s).choice(n, min(fl.batch_size, n), replace=False)
        if log_sigma_all is not None:
            z, _ = reparam_sample(mu_all[idx], log_sigma_all[idx], master.child("offline_eps", s))
        else:
            z = mu_all[idx]
        loss, grad = models.classifier_loss_and_grad(classifier, params, z, y_all[idx])
        params = sgd_step(params, grad, fl.eta)

    accs = []
    for task in tasks.tasks:
        z, _ = models.encode_for_eval(encoder, encoder_params, task.val.images)
        accs.append(models.classifier_accuracy(classifier, params, z, np.asarray(task.val.labels)))
    return tuple(accs), float(np.mean(accs))
