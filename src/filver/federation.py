"""Federated training loop: local updates, weighted aggregation, embedding
upload, and server-side rehearsal training.

The encoder is pretrained on the first task and frozen; federated rounds
train only the classifier, on embeddings: the frozen encoder runs only at
the start of each task, on the shards of the clients active in it.  A naive
upload carries those rows of its raw samples (`models.EVAL_CHUNK` makes a
row's embedding independent of its pass).  Every random draw is keyed by
purpose and round coordinates from one master stream, so results do not
depend on the order in which clients train, and a run resumed from any
checkpoint repeats the uninterrupted run bit-exactly.  The checkpoint module
owns the files: run_experiment calls load_checkpoint to resume, and
save_checkpoint after each checkpoint round.

Each fact has one holder.  The data set's source holds the images, once
(a synthetic split draw holds one task's band of them at a time), and
every task holds rows of it; the client partition holds each
shard as row indices into its task's train set; the embed stage
(`ExperimentState.shard_embeddings`) embeds the current task's active
shards, gathering one encoder pass of rows at a time, and drops the
embeddings at the task boundary; the enrollment schedule alone says which
clients are active; a client carries nothing across rounds but its
rehearsal buffer (`ExperimentState.client_buffers`).

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
    own-buffer admission L.child("self_admit"), in run_round
  server admission     master.child("server_admit", task, round, client)
  server training      master.child("sst", task, round)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import models
from .checkpoint import load_checkpoint, run_identity, save_checkpoint
from .datasets import ClientPartition, LabeledSet, TaskSequence, partition_clients
from .errors import ContractViolation
from .models import ClassifierModel, EncoderModel, GaussianStats, ModelConfig
from .numcore import ParamVector, reparam_sample, sgd_step
from .rehearsal import (EmbeddingPayload, RehearsalBuffer, StrategyConfig, Upload, admit,
                        buffer_capacity, draw_batch, encoder_kind_for_strategy)
from .rng import RngStream
from .scenarios import EnrollmentSchedule, make_schedule


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
class RoundReport:
    round_id: int
    task_id: int
    accuracies: tuple
    mean_loss: float
    participants: tuple


@dataclass
class LocalResult:
    params: ParamVector
    upload: list
    n_samples: int
    mean_loss: float


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


def _build_upload(embedded: dict, task_id: int, global_round: int,
                  strategy: StrategyConfig, rng: RngStream) -> list:
    """rho-sample this round's shard into [one Upload], its payload type fixed
    by the strategy, or [] when nothing ships.  This is the one rho-sample:
    admit keeps every row it is offered, up to eviction.  Each payload array
    is one gather from the embed stage's entry, so it owns its memory."""
    n = len(embedded["labels"])
    n_up = math.ceil(strategy.rho * n)
    if strategy.kind == "none" or n_up == 0:
        return []
    idx = np.arange(n) if n_up >= n else rng.child("upload").choice(n, n_up, replace=False)
    mu, log_sigma = embedded["mu"], embedded["log_sigma"]
    if strategy.kind in ("naive", "ebr", "noise"):  # naive: its raw samples' embeddings
        payload = EmbeddingPayload(mu[idx])
    elif strategy.kind == "ver_stats":
        payload = GaussianStats(mu[idx], log_sigma[idx])
    else:  # ver_sampled: draw z once; the stats never leave the client
        z, _ = reparam_sample(mu[idx], log_sigma[idx], rng.child("upload_eps"))
        payload = EmbeddingPayload(z)
    return [Upload(payload, embedded["labels"][idx], task_id, global_round)]


def local_train(buffer: RehearsalBuffer, global_params: ParamVector, embedded: dict,
                classifier: ClassifierModel, task_id: int, global_round: int, fl: FLConfig,
                strategy: StrategyConfig, rng: RngStream) -> LocalResult:
    """E SGD steps on batches mixing the client's embedded shard with replay
    from its own buffer (half and half once the buffer is nonempty; a none
    run's buffers hold nothing), then the upload; run_round admits it.  At
    batch size 1 the replay half is 0 rows."""
    n = len(embedded["labels"])

    params = global_params
    losses = []
    for i in range(fl.local_iters):
        k_fresh = max(1, fl.batch_size // 2) if len(buffer) else fl.batch_size
        z, y = draw_batch(embedded, embedded["labels"], k_fresh, rng.child("fresh", i),
                          rng.child("eps", i))
        if len(buffer):
            z_r, y_r = draw_batch(buffer.columns, buffer.labels, fl.batch_size - k_fresh,
                                  rng.child("replay", i), rng.child("replay_eps", i))
            z, y = np.concatenate([z, z_r]), np.concatenate([y, y_r])
        loss, grad = models.classifier_loss_and_grad(classifier, params, z, y)
        params = sgd_step(params, grad, fl.eta)
        losses.append(loss)

    if not losses:  # E = 0: report the loss without taking a step
        z, y = draw_batch(embedded, embedded["labels"], min(fl.batch_size, n),
                          rng.child("fresh", 0), rng.child("eps", 0))
        loss, _ = models.classifier_loss_and_grad(classifier, params, z, y)
        losses = [loss]

    upload = _build_upload(embedded, task_id, global_round, strategy, rng)
    return LocalResult(params, upload, n, float(np.mean(losses)))


def server_side_training(params: ParamVector, server_buffer: RehearsalBuffer,
                         classifier: ClassifierModel, fl: FLConfig,
                         rng: RngStream) -> ParamVector:
    """S_max SGD steps on batches replayed from the pooled server buffer."""
    if fl.s_max == 0 or len(server_buffer) == 0:
        return params
    for s in range(fl.s_max):
        z, y = draw_batch(server_buffer.columns, server_buffer.labels, fl.batch_size,
                          rng.child("batch", s), rng.child("eps", s))
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
    frozen_encoder: ParamVector  # a copy of encoder_params, taken when it froze
    classifier: ClassifierModel
    classifier_params: ParamVector
    client_buffers: list  # RehearsalBuffer by client id
    server_buffer: RehearsalBuffer
    schedule: EnrollmentSchedule
    eval_cache: list  # (validation embeddings, labels) in task order
    identity: dict  # checkpoint.run_identity, written to meta.json
    global_round: int = 0
    shard_embeddings: dict = field(default_factory=dict)  # this task's, by client id

    def evaluate(self) -> tuple:
        return tuple(models.classifier_accuracy(self.classifier, self.classifier_params, z, y)
                     for z, y in self.eval_cache)


def _embed_shards(state: ExperimentState, partition: ClientPartition, task_id: int) -> dict:
    """The embed stage: each nonempty shard of a client active in `task_id`,
    embedded once, by client id.  An entry holds the shard's "labels", "mu"
    and "log_sigma" (None unless a vee encoder); encode_for_eval gathers the
    shard's images one pass at a time."""
    embedded = {}
    for cid in state.schedule.active_clients(task_id):
        shard = partition.shard(cid, task_id)
        if len(shard):
            mu, log_sigma = models.encode_for_eval(state.encoder, state.encoder_params, shard.images)
            embedded[cid] = {"labels": np.asarray(shard.labels), "mu": mu,
                             "log_sigma": log_sigma}
    return embedded


def run_round(state: ExperimentState, task_id: int, round_in_task: int) -> RoundReport:
    fl = state.fl
    active = state.schedule.active_clients(task_id)  # ascending, never empty
    g = state.global_round

    m = min(fl.clients_per_round, len(active))
    pick = state.master.child("client_sample", task_id, round_in_task).choice(
        len(active), m, replace=False)
    chosen = sorted(active[i] for i in pick)
    for cid in chosen:
        if cid not in state.shard_embeddings:  # the embed stage skips an empty shard
            raise ContractViolation(f"client {cid} has no data for task {task_id}")

    streams = [state.master.child("local", cid, task_id, round_in_task) for cid in chosen]
    results = [local_train(state.client_buffers[cid], state.classifier_params,
                           state.shard_embeddings[cid], state.classifier, task_id, g, fl,
                           state.strategy, rng)
               for cid, rng in zip(chosen, streams)]

    # each upload becomes rows once, and the same rows join its client's own
    # buffer and the server's, in client-id order for schedule independence
    for cid, rng, res in zip(chosen, streams, results):
        for upload in res.upload:
            rows = upload.rows()
            admit(state.client_buffers[cid], rows, rng.child("self_admit"))
            admit(state.server_buffer, rows,
                  state.master.child("server_admit", task_id, round_in_task, cid))
            del rows  # kept alive into the next upload's rows, it raised desk's peak RSS ~1 MiB

    state.classifier_params = fedavg_aggregate([(r.params, r.n_samples) for r in results])
    state.classifier_params = server_side_training(
        state.classifier_params, state.server_buffer, state.classifier, fl,
        state.master.child("sst", task_id, round_in_task))

    if not state.encoder_params.same_bytes(state.frozen_encoder):
        raise ContractViolation("frozen encoder parameters changed during training")

    report = RoundReport(g, task_id, state.evaluate(),
                         float(np.mean([r.mean_loss for r in results])), tuple(chosen))
    state.global_round += 1
    return report


def _pretrain(encoder: EncoderModel, classifier: ClassifierModel, model: ModelConfig,
              data: LabeledSet, classes: int, batch_size: int, master: RngStream):
    """(encoder params pretrained on data, initial classifier params), drawn
    from the master's "pretrain" and "classifier_init".  Each batch's images
    are gathered from data's rows as the batch is drawn."""
    encoder_params = models.pretrain_encoder(
        data.images, data.labels, classes, encoder, model.pretrain_epochs, model.pretrain_lr,
        master.child("pretrain"), beta=model.beta, batch_size=batch_size)
    return encoder_params, classifier.init_params(master.child("classifier_init"))


def _validation_embeddings(encoder: EncoderModel, encoder_params: ParamVector,
                           tasks: TaskSequence) -> list:
    """(embeddings, labels) of each task's validation set, in task order."""
    return [(models.encode_for_eval(encoder, encoder_params, task.val.images)[0],
             np.asarray(task.val.labels)) for task in tasks.tasks]


def run_experiment(tasks: TaskSequence, schedule, fl: FLConfig, strategy: StrategyConfig,
                   model: ModelConfig, *, master_seed: int, on_round=None,
                   checkpoint_dir=None, checkpoint_every: int = 0,
                   resume_from=None, stop_after_round: int = None):
    """Full task stream: pretrain on the task-0 shards, then per task embed
    its shards and run rounds_per_task rounds.

    The rounds read a task's rows only through the embed stage's entries,
    embedded when the task starts and dropped at its boundary; only
    rehearsal buffers carry information forward.  Returns (reports, state);
    a resumed run returns reports for the remaining rounds only.
    """
    if stop_after_round is not None and stop_after_round < 1:
        raise ContractViolation(f"stop_after_round must be at least 1, got {stop_after_round}")
    want = encoder_kind_for_strategy(strategy.kind)
    if model.encoder.kind != want:
        raise ContractViolation(f"strategy {strategy.kind!r} needs a {want!r} encoder, "
                                f"the model has a {model.encoder.kind!r} encoder")
    master = RngStream(master_seed)
    n_tasks = tasks.n_tasks

    if isinstance(schedule, str):
        schedule = make_schedule(schedule, fl.n_clients, n_tasks, master.child("schedule"))
    if schedule.n_clients != fl.n_clients or schedule.n_tasks != n_tasks:
        raise ContractViolation("schedule shape does not match clients and tasks")

    encoder, classifier = model.build()
    partition = partition_clients(tasks, fl.n_clients, master.child("partition"))
    raw_bytes = int(np.prod(tasks.tasks[0].train.images.shape[1:])) * 8
    per_client = max(len(partition.rows(c, t))
                     for c in range(fl.n_clients) for t in range(n_tasks))
    per_task_total = max(len(t.train) for t in tasks.tasks)
    embed_dim = model.encoder.embed_dim
    client_cap = buffer_capacity(strategy, per_client, n_tasks, raw_bytes, embed_dim)
    server_cap = buffer_capacity(strategy, per_task_total, n_tasks, raw_bytes, embed_dim)

    identity = run_identity(master_seed, fl, strategy, model, schedule)
    start_round = 0
    if resume_from is not None:
        start_round, encoder_params, classifier_params, server_buffer, client_buffers = \
            load_checkpoint(resume_from, identity, encoder, classifier, strategy, fl, n_tasks,
                            server_cap, client_cap)
        if stop_after_round is not None and stop_after_round <= start_round:
            raise ContractViolation(
                f"stop_after_round {stop_after_round} is not past the checkpoint's "
                f"round {start_round}")
    else:
        client_buffers = [RehearsalBuffer(capacity=client_cap) for _ in range(fl.n_clients)]
        server_buffer = RehearsalBuffer(capacity=server_cap)
        # task 0's active rows, gathered a batch at a time
        first_rows = np.concatenate([partition.rows(c, 0) for c in schedule.active_clients(0)])
        encoder_params, classifier_params = _pretrain(
            encoder, classifier, model, tasks.tasks[0].train.subset(first_rows),
            tasks.class_count, fl.batch_size, master)

    state = ExperimentState(
        master=master, fl=fl, strategy=strategy,
        encoder=encoder, encoder_params=encoder_params,
        frozen_encoder=ParamVector(encoder_params.layout, encoder_params.flat.copy()),
        classifier=classifier, classifier_params=classifier_params,
        client_buffers=client_buffers, server_buffer=server_buffer, schedule=schedule,
        eval_cache=[], global_round=start_round, identity=identity)

    # the first task's shards are embedded before the validation sets, so a
    # synthetic split draw reads the first task's band (pretraining leaves
    # it held) before the validation pass moves through the tasks in order
    first_task = start_round // fl.rounds_per_task
    if first_task < n_tasks:
        state.shard_embeddings = _embed_shards(state, partition, first_task)
    state.eval_cache = _validation_embeddings(encoder, encoder_params, tasks)
    reports = []
    for task_id in range(first_task, n_tasks):
        if task_id > first_task:
            state.shard_embeddings = _embed_shards(state, partition, task_id)
        r0 = start_round - task_id * fl.rounds_per_task if task_id == first_task else 0
        for r in range(max(0, r0), fl.rounds_per_task):
            report = run_round(state, task_id, r)
            reports.append(report)
            if on_round is not None:
                on_round(report)
            done = state.global_round
            stop = stop_after_round is not None and done >= stop_after_round
            if checkpoint_dir is not None and (
                    stop or (checkpoint_every > 0 and done % checkpoint_every == 0)):
                save_checkpoint(checkpoint_dir, state)
            if stop:
                return reports, state
        state.shard_embeddings = {}
    return reports, state


# ---------------------------------------------------------------------------
# Offline reference: joint training on all tasks at once
# ---------------------------------------------------------------------------


def run_offline(tasks: TaskSequence, fl: FLConfig, model: ModelConfig, *, master_seed: int,
                steps: int = None):
    """Upper-bound baseline: one learner sees every task's training data
    jointly for a comparable number of SGD steps.  The encoder is pretrained
    on all of task 0, under the same keys as a federated run.  Returns
    (per-task accuracies, their mean)."""
    master = RngStream(master_seed)
    encoder, classifier = model.build()
    encoder_params, params = _pretrain(encoder, classifier, model, tasks.tasks[0].train,
                                       tasks.class_count, fl.batch_size, master)

    # every task's train rows, pooled into one embed-stage entry
    embedded = [models.encode_for_eval(encoder, encoder_params, task.train.images)
                for task in tasks.tasks]
    pooled = {"mu": np.concatenate([mu for mu, _ in embedded]),
              "log_sigma": (None if embedded[0][1] is None
                            else np.concatenate([ls for _, ls in embedded])),
              "labels": np.concatenate([np.asarray(task.train.labels) for task in tasks.tasks])}
    n = len(pooled["labels"])

    if steps is None:
        steps = tasks.n_tasks * fl.rounds_per_task * (fl.local_iters + fl.s_max)
    for s in range(steps):
        # a batch never exceeds n, so this is a draw without replacement
        z, y = draw_batch(pooled, pooled["labels"], min(fl.batch_size, n),
                          master.child("offline_batch", s), master.child("offline_eps", s))
        loss, grad = models.classifier_loss_and_grad(classifier, params, z, y)
        params = sgd_step(params, grad, fl.eta)

    accs = tuple(models.classifier_accuracy(classifier, params, z, y)
                 for z, y in _validation_embeddings(encoder, encoder_params, tasks))
    return accs, float(np.mean(accs))
