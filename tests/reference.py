"""A slow and obvious reference simulator of a whole federated run.

It follows only the stream keying contract in `filver.federation`'s
docstring and the rules in README "Rehearsal buffer": per-row records in a
list buffer, eviction one victim at a time, replay row by row, the upload's
rho-sample, naive uploads embedded at admission, FedAvg, server-side
training and evaluation, under a schedule from the cell-by-cell oracle.  It
shares only the numeric ops (`numcore`, the model passes), `rng` and
`datasets` with the program: nothing of federation, rehearsal, scenarios,
checkpoint or storage.  The chosen clients of a round train in reverse id
order and admit in ascending order, so a run that matches it also shows
that its results do not depend on the order in which clients train.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from filver import models
from filver.datasets import partition_clients
from filver.numcore import ParamVector, reparam_sample, sgd_step
from filver.rng import RngStream

from oracles import ACTIVE, make_schedule


@dataclass
class Row:
    """One sample as a record: its arrays by column name (``x``, ``z``, or
    ``mu`` and ``log_sigma``), its label, task and round."""

    columns: dict
    label: int
    task: int
    round: int


@dataclass
class ListBuffer:
    """A rehearsal buffer as a list of rows; capacity None is unbounded.
    `evictions` holds, per evicted row, the round whose admission evicted it."""

    capacity: int | None
    rows: list = field(default_factory=list)
    evictions: list = field(default_factory=list)


def admit(buffer: ListBuffer, rows: list, rng: RngStream) -> None:
    """Append the rows, then evict one victim at a time down to capacity:
    from the task holding the most rows (ties to the newest task), its k-th
    row in buffer order, k uniform."""
    buffer.rows.extend(rows)
    while buffer.capacity is not None and len(buffer.rows) > buffer.capacity:
        counts = {}
        for row in buffer.rows:
            counts[row.task] = counts.get(row.task, 0) + 1
        most = max(counts.values())
        victim = max(task for task, count in counts.items() if count == most)
        slots = [i for i, row in enumerate(buffer.rows) if row.task == victim]
        buffer.rows.pop(slots[int(rng.integers(0, len(slots)))])
        buffer.evictions.append(rows[0].round)


def _stack(rows: list, name: str) -> np.ndarray:
    return np.array([row.columns[name] for row in rows])


def draw_rows(rows: list, k: int, idx_rng: RngStream, eps_rng: RngStream):
    """k >= 1 training pairs (z, y) from the rows, with replacement only when
    k exceeds them: a row's stored ``z`` as it is, or from its ``mu`` and
    ``log_sigma`` a fresh z = mu + sigma * eps."""
    picked = [rows[i] for i in idx_rng.choice(len(rows), k, replace=k > len(rows))]
    labels = np.array([row.label for row in picked], dtype=np.int64)
    if "z" in picked[0].columns:
        return _stack(picked, "z"), labels
    return reparam_sample(_stack(picked, "mu"), _stack(picked, "log_sigma"), eps_rng)[0], labels


def capacity(kind: str, rho: float, memory: str, per_task: int, n_tasks: int, raw_bytes: int,
             embed_dim: int) -> int:
    """README "Rehearsal buffer": x1 holds a rho-sample of `per_task` rows
    per task; x16 spends those raw samples' bytes on rows of embed_dim
    float64s per column, a naive row priced as its raw sample."""
    if kind == "none":
        return 0
    rows = math.ceil(rho * per_task) * n_tasks
    if memory == "x1":
        return rows
    row_bytes = raw_bytes if kind == "naive" else (2 if kind == "ver_stats" else 1) * embed_dim * 8
    return rows * raw_bytes // row_bytes


def _upload(kind: str, rho: float, shard: list, g: int, encoder, encoder_params,
            local: RngStream) -> list:
    """A client's uploaded rows, as both buffers admit them: a rho-sample of
    its shard, naive raw samples embedded in one pass at admission (the
    program ships their embed-stage rows, which must be the same bytes)."""
    n_up = math.ceil(rho * len(shard))
    if kind == "none" or n_up == 0:
        return []
    if n_up < len(shard):
        shard = [shard[i] for i in local.child("upload").choice(len(shard), n_up, replace=False)]
    if kind == "ver_stats":
        wire = [{"mu": s.columns["mu"], "log_sigma": s.columns["log_sigma"]} for s in shard]
    else:
        if kind == "naive":
            z = models.encode_for_eval(encoder, encoder_params, _stack(shard, "x"))[0]
        elif kind == "ver_sampled":
            z = reparam_sample(_stack(shard, "mu"), _stack(shard, "log_sigma"),
                               local.child("upload_eps"))[0]
        else:  # ebr and noise upload the embedding
            z = [s.columns["z"] for s in shard]
        wire = [{"z": row} for row in z]
    return [Row(columns, s.label, s.task, g) for columns, s in zip(wire, shard)]


def _local_train(params, shard: list, own: ListBuffer, classifier, fl, local: RngStream):
    """(params after fl.local_iters steps, mean loss): fresh rows from the
    shard, half and half with replay from the client's own buffer once it
    holds rows; with no steps, the loss of one fresh batch."""
    losses = []
    for i in range(fl.local_iters):
        k_fresh = max(1, fl.batch_size // 2) if own.rows else fl.batch_size
        z, y = draw_rows(shard, k_fresh, local.child("fresh", i), local.child("eps", i))
        if own.rows and fl.batch_size > k_fresh:
            z_r, y_r = draw_rows(own.rows, fl.batch_size - k_fresh, local.child("replay", i),
                                 local.child("replay_eps", i))
            z, y = np.concatenate([z, z_r]), np.concatenate([y, y_r])
        loss, grad = models.classifier_loss_and_grad(classifier, params, z, y)
        params = sgd_step(params, grad, fl.eta)
        losses.append(loss)
    if not losses:
        z, y = draw_rows(shard, min(fl.batch_size, len(shard)), local.child("fresh", 0),
                         local.child("eps", 0))
        losses = [models.classifier_loss_and_grad(classifier, params, z, y)[0]]
    return params, float(np.mean(losses))


def run(tasks, schedule_kind: str, fl, kind: str, rho: float, memory: str,
        model: models.ModelConfig, seed: int) -> tuple:
    """The whole run of `filver.federation.run_experiment` on these settings:
    (a (round, task, accuracies, mean loss, participants) tuple per round,
    the final classifier params, the server's ListBuffer, the clients')."""
    master = RngStream(seed)
    n_tasks = tasks.n_tasks
    grid = make_schedule(schedule_kind, fl.n_clients, n_tasks, master.child("schedule"))
    active = [[c for c in range(fl.n_clients) if grid[c, t] == ACTIVE] for t in range(n_tasks)]
    encoder, classifier = model.build()
    partition = partition_clients(tasks, fl.n_clients, master.child("partition"))

    raw_bytes = 8 * int(np.prod(tasks.tasks[0].train.images.shape[1:]))

    def buffer(per_task: int) -> ListBuffer:
        return ListBuffer(capacity(kind, rho, memory, per_task, n_tasks, raw_bytes,
                                   model.encoder.embed_dim))

    per_client = max(len(partition.shard(c, t)) for c in range(fl.n_clients)
                     for t in range(n_tasks))
    clients = [buffer(per_client) for _ in range(fl.n_clients)]
    server = buffer(max(len(task.train) for task in tasks.tasks))

    first = [partition.shard(c, 0) for c in active[0]]
    encoder_params = models.pretrain_encoder(
        np.concatenate([s.images for s in first]), np.concatenate([s.labels for s in first]),
        tasks.class_count, encoder, model.pretrain_epochs, model.pretrain_lr,
        master.child("pretrain"), beta=model.beta, batch_size=fl.batch_size)
    params = classifier.init_params(master.child("classifier_init"))
    val = [(models.encode_for_eval(encoder, encoder_params, task.val.images)[0], task.val.labels)
           for task in tasks.tasks]

    reports, g = [], 0
    for t in range(n_tasks):
        shards = {}  # each sample of an active client's shard: raw x, and z or (mu, log_sigma)
        for c in active[t]:
            shard = partition.shard(c, t)
            mu, log_sigma = models.encode_for_eval(encoder, encoder_params, shard.images)
            shards[c] = [Row({"x": x, "z": mu[i]} if log_sigma is None else
                             {"x": x, "mu": mu[i], "log_sigma": log_sigma[i]}, int(label), t, None)
                         for i, (x, label) in enumerate(zip(shard.images, shard.labels))]
        for r in range(fl.rounds_per_task):
            m = min(fl.clients_per_round, len(active[t]))
            pick = master.child("client_sample", t, r).choice(len(active[t]), m, replace=False)
            chosen = sorted(active[t][i] for i in pick)
            local = {c: master.child("local", c, t, r) for c in chosen}
            trained = {c: _local_train(params, shards[c], clients[c], classifier, fl, local[c])
                       for c in reversed(chosen)}
            for c in chosen:
                rows = _upload(kind, rho, shards[c], g, encoder, encoder_params, local[c])
                admit(clients[c], rows, local[c].child("self_admit"))
                admit(server, rows, master.child("server_admit", t, r, c))

            acc, total = np.zeros(params.flat.size), 0.0
            for c in chosen:
                acc += float(len(shards[c])) * trained[c][0].flat
                total += float(len(shards[c]))
            params = ParamVector(params.layout, acc / total)
            if server.rows:
                sst = master.child("sst", t, r)
                for s in range(fl.s_max):
                    z, y = draw_rows(server.rows, fl.batch_size, sst.child("batch", s),
                                     sst.child("eps", s))
                    params = sgd_step(params, models.classifier_loss_and_grad(
                        classifier, params, z, y)[1], fl.eta_s)

            accuracies = tuple(models.classifier_accuracy(classifier, params, z, y)
                               for z, y in val)
            mean_loss = float(np.mean([trained[c][1] for c in chosen]))
            reports.append((g, t, accuracies, mean_loss, tuple(chosen)))
            g += 1
    return reports, params, server, clients
