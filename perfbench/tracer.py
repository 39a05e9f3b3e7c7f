"""Span tracer that wraps filver's public entry points from outside.

`Tracer.install()` replaces each traced function in *every* loaded filver
module that holds a reference to it, so a name imported with
`from .rehearsal import admit` is wrapped in `federation` as well as in
`rehearsal`.  Traced methods are replaced on their class.  `uninstall()`
puts every original back.

Each call of a wrapped entry point records one span: name, start, end and
the index of the enclosing span (-1 at the root).  Spans are kept in compact
arrays in memory and written out when the traced process ends.  Counts that
are computed from call arguments and results (FLOPs from shapes, bytes from
array sizes and file sizes, evictions from buffer sizes) go to `counters`.

The span stack is a plain list, so tracing assumes one thread of work; the
benchmark runs every workload with the CLI default `--threads 1`.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

NUMCORE_OPS = ("conv2d_forward", "conv2d_backward", "maxpool2x2", "maxpool2x2_backward",
               "dense_forward", "dense_backward", "softmax_cross_entropy", "sgd_step")
RNG_DRAWS = ("normal", "uniform", "integers", "permutation", "choice")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


# ---------------------------------------------------------------------------
# Computed counts.  A hook is called before the traced call with
# (counters, args, kwargs) and may return a function that receives the result.
# ---------------------------------------------------------------------------


def _conv_flop(x_shape, k_shape):
    b, h, w, c = x_shape
    k, _, _, f = k_shape
    return 2.0 * b * (h - k + 1) * (w - k + 1) * k * k * c * f


def _conv_forward(c, args, kwargs):
    x, kernels = np.shape(_arg(args, kwargs, 0, "x")), np.shape(_arg(args, kwargs, 1, "kernels"))
    c["numcore.conv2d_forward.flop"] += _conv_flop(x, kernels)


def _conv_backward(c, args, kwargs):
    cache = _arg(args, kwargs, 0, "cache")
    # input gradient and kernel gradient each cost one forward's worth
    c["numcore.conv2d_backward.flop"] += 2.0 * _conv_flop(cache[0].shape, cache[1].shape)


def _dense_forward(c, args, kwargs):
    x = np.shape(_arg(args, kwargs, 0, "x"))
    n, m = np.shape(_arg(args, kwargs, 1, "weights"))
    c["numcore.dense.flop"] += 2.0 * x[0] * n * m


def _dense_backward(c, args, kwargs):
    x, weights = _arg(args, kwargs, 0, "cache")[:2]
    c["numcore.dense.flop"] += 4.0 * x.shape[0] * weights.shape[0] * weights.shape[1]


def _rows(counter, index, name):
    def hook(c, args, kwargs):
        c[counter] += len(_arg(args, kwargs, index, name))
    return hook


def _admit(c, args, kwargs):
    buffer = _arg(args, kwargs, 0, "buffer")
    candidates = _arg(args, kwargs, 1, "candidates")
    before = len(buffer)

    def done(result):
        c["rehearsal.admit.records_in"] += len(candidates)
        c["rehearsal.admit.evicted"] += len(candidates) + before - len(buffer)
    return done


def _file_bytes(counter):
    def hook(c, args, kwargs):
        path = _arg(args, kwargs, 0, "path")

        def done(result):
            c[counter] += os.path.getsize(path)
        return done
    return hook


_PAYLOAD_KINDS = {"EmbeddingPayload": "embedding", "GaussianStats": "stats", "RawPayload": "raw"}


def _payload_bytes(payload) -> int:
    return sum(v.nbytes for v in vars(payload).values() if isinstance(v, np.ndarray))


def _local_train(c, args, kwargs):
    def done(result):
        c["federation.upload.records"] += len(result.upload)
        for rec in result.upload:
            kind = _PAYLOAD_KINDS[type(rec.payload).__name__]
            c[f"federation.upload.bytes.{kind}"] += _payload_bytes(rec.payload)
    return done


def _run_round(c, args, kwargs):
    def done(report):
        c["scenarios.participants"] += len(report.participants)
    return done


_NUMCORE_HOOKS = {"conv2d_forward": _conv_forward, "conv2d_backward": _conv_backward,
                  "dense_forward": _dense_forward, "dense_backward": _dense_backward}

# (module, attribute path, span name, hook)
TARGETS = (
    [("filver.numcore", op, f"numcore.{op}", _NUMCORE_HOOKS.get(op)) for op in NUMCORE_OPS]
    + [("filver.rng", f"RngStream.{d}", f"rng.{d}", None) for d in RNG_DRAWS]
    + [
        ("filver.rng", "RngStream.child", "rng.child", None),
        ("filver.models", "pretrain_encoder", "models.pretrain_encoder", None),
        ("filver.models", "classifier_loss_and_grad", "models.classifier_loss_and_grad", None),
        ("filver.models", "encode_for_eval", "models.encode_for_eval", _rows("models.encode_for_eval.rows", 2, "x")),
        ("filver.models", "EncoderModel.stats_forward", "models.EncoderModel.stats_forward",
         _rows("models.EncoderModel.stats_forward.rows", 2, "x")),
        ("filver.models", "classifier_accuracy", "models.classifier_accuracy", None),
        ("filver.rehearsal", "admit", "rehearsal.admit", _admit),
        ("filver.rehearsal", "replay_batch", "rehearsal.replay_batch", None),
        ("filver.rehearsal", "materialize_batch", "rehearsal.materialize_batch",
         _rows("rehearsal.materialize_batch.rows", 0, "records")),
        ("filver.rehearsal", "save_buffer", "rehearsal.save_buffer", _file_bytes("rehearsal.save_buffer.bytes")),
        ("filver.rehearsal", "load_buffer", "rehearsal.load_buffer", _file_bytes("rehearsal.load_buffer.bytes")),
        ("filver.federation", "run_experiment", "federation.run_experiment", None),
        ("filver.federation", "run_round", "federation.run_round", _run_round),
        ("filver.federation", "local_train", "federation.local_train", _local_train),
        ("filver.federation", "server_side_training", "federation.server_side_training", None),
        ("filver.federation", "fedavg_aggregate", "federation.fedavg_aggregate", None),
        ("filver.federation", "ExperimentState.evaluate", "federation.ExperimentState.evaluate", None),
        ("filver.federation", "save_checkpoint", "federation.save_checkpoint", None),
        ("filver.storage", "save_model_checkpoint", "storage.save_model_checkpoint",
         _file_bytes("storage.save_model_checkpoint.bytes")),
        ("filver.storage", "load_model_checkpoint", "storage.load_model_checkpoint", None),
        ("filver.storage", "write_record_frame", "storage.write_record_frame", None),
        ("filver.storage", "read_record_frame", "storage.read_record_frame", None),
        ("filver.datasets", "make_synthetic_blobs", "datasets.make_synthetic_blobs", None),
        ("filver.datasets", "build_split_tasks", "datasets.build_tasks", None),
        ("filver.datasets", "build_permuted_tasks", "datasets.build_tasks", None),
        ("filver.datasets", "partition_clients", "datasets.partition_clients", None),
        ("filver.config", "parse_pairs", "config.parse", None),
    ]
)


# ---------------------------------------------------------------------------
# Patching where the names are looked up
# ---------------------------------------------------------------------------


class Patcher:
    """Replaces an object wherever a loaded filver module or class refers to
    it, and remembers every replacement so `restore()` can undo them."""

    def __init__(self):
        self._undo = []

    def wrap(self, module_name: str, path: str, make_wrapper) -> None:
        owner = sys.modules[module_name]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        current = owner.__dict__[attr]
        wrapper = make_wrapper(current)
        if isinstance(owner, type):
            # methods are looked up on the class; one replacement covers all callers
            self._replace(owner, attr, current, wrapper)
            return
        for name, module in list(sys.modules.items()):
            if name == "filver" or name.startswith("filver."):
                for key, value in list(vars(module).items()):
                    if value is current:
                        self._replace(module, key, current, wrapper)

    def _replace(self, owner, key, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._undo.append((owner, key, original))

    def restore(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


class Tracer:
    def __init__(self):
        self.names: list = []            # span name table; spans store indices
        self.name_ids: dict = {}
        self.span_name = array("q")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters = defaultdict(float)
        self.missing: list = []          # targets not found in the program
        self._stack = [-1]
        self._patcher = Patcher()

    def install(self) -> None:
        import filver.cli  # noqa: F401  (loads every module whose references are patched)
        for module_name, path, span, hook in TARGETS:
            try:
                self._patcher.wrap(module_name, path,
                                   lambda fn, s=span, h=hook: self._wrapper(fn, s, h))
            except (KeyError, AttributeError):
                # a renamed or removed entry point reads as zero, not as a crash
                self.missing.append(f"{module_name}.{path}")

    def uninstall(self) -> None:
        self._patcher.restore()

    def _wrapper(self, fn, span: str, hook):
        nid = self.name_ids.setdefault(span, len(self.name_ids))
        if nid == len(self.names):
            self.names.append(span)
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        stack, counters, clock = self._stack, self.counters, time.perf_counter

        def traced(*args, **kwargs):
            done = hook(counters, args, kwargs) if hook is not None else None
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if done is not None:
                done(result)
            return result

        return functools.update_wrapper(traced, fn)

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
        }

    def save_spans(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> dict:
        """Per-name calls, inclusive (busy) and self time, run_round
        durations, attributions and counters: everything the per-layer
        metrics need, in a form that sums over invocations."""
        a = self.arrays()
        n_names = len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child_time = np.zeros(len(dur))
        np.add.at(child_time, a["parent"][has_parent], dur[has_parent])
        self_time = dur - child_time
        calls = np.bincount(a["name"], minlength=n_names)
        busy = np.bincount(a["name"], weights=dur, minlength=n_names)
        self_s = np.bincount(a["name"], weights=self_time, minlength=n_names)
        per_name = {name: {"calls": int(calls[i]), "busy_s": float(busy[i]), "self_s": float(self_s[i])}
                    for i, name in enumerate(self.names)}

        def under(child: str, ancestor: str) -> float:
            """Busy time of `child` spans that run inside an `ancestor` span."""
            if child not in self.name_ids or ancestor not in self.name_ids:
                return 0.0
            cid, aid = self.name_ids[child], self.name_ids[ancestor]
            picked = np.flatnonzero(a["name"] == cid)
            hit = np.zeros(len(picked), dtype=bool)
            anc = a["parent"][picked]
            while np.any(anc >= 0):
                live = anc >= 0
                hit |= live & (a["name"][np.where(live, anc, 0)] == aid)
                anc = np.where(live, a["parent"][np.where(live, anc, 0)], -1)
            return float(dur[picked][hit].sum())

        round_id = self.name_ids.get("federation.run_round")
        return {
            "spans": len(dur),
            "missing": self.missing,
            "per_name": per_name,
            "round_durations": dur[a["name"] == round_id].tolist() if round_id is not None else [],
            "attribution": {
                "models.EncoderModel.stats_forward.in_local_train_s":
                    under("models.EncoderModel.stats_forward", "federation.local_train"),
                "models.encode_for_eval.in_materialize_batch_s":
                    under("models.encode_for_eval", "rehearsal.materialize_batch"),
            },
            "counters": dict(self.counters),
        }


# ---------------------------------------------------------------------------
# Per-layer metrics from the summaries of one traced repetition
# ---------------------------------------------------------------------------


def merge_summaries(summaries: list) -> dict:
    merged = {"spans": 0, "missing": sorted({m for s in summaries for m in s["missing"]}),
              "per_name": {}, "round_durations": [],
              "attribution": defaultdict(float), "counters": defaultdict(float)}
    for s in summaries:
        merged["spans"] += s["spans"]
        merged["round_durations"] += s["round_durations"]
        for name, row in s["per_name"].items():
            into = merged["per_name"].setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            for key, value in row.items():
                into[key] += value
        for key, value in s["attribution"].items():
            merged["attribution"][key] += value
        for key, value in s["counters"].items():
            merged["counters"][key] += value
    return merged


def layer_metrics(merged: dict) -> dict:
    """name -> (value, unit).  Every name in BENCHMARK.json's per_layer list
    except the trace.* overhead metrics, which the runner adds."""
    rows = merged["per_name"]
    counters = merged["counters"]

    def get(name, key):
        return rows.get(name, {}).get(key, 0)

    out = {}
    for op in NUMCORE_OPS:
        out[f"numcore.{op}.calls"] = (get(f"numcore.{op}", "calls"), "count")
        out[f"numcore.{op}.self_s"] = (get(f"numcore.{op}", "self_s"), "s")
    out["numcore.conv2d_forward.gflop"] = (counters.get("numcore.conv2d_forward.flop", 0.0) / 1e9, "GFLOP")
    out["numcore.conv2d_backward.gflop"] = (counters.get("numcore.conv2d_backward.flop", 0.0) / 1e9, "GFLOP")
    out["numcore.dense.gflop"] = (counters.get("numcore.dense.flop", 0.0) / 1e9, "GFLOP")

    out["models.pretrain_encoder.busy_s"] = (get("models.pretrain_encoder", "busy_s"), "s")
    for name in ("models.classifier_loss_and_grad", "models.encode_for_eval",
                 "models.EncoderModel.stats_forward"):
        out[f"{name}.calls"] = (get(name, "calls"), "count")
        out[f"{name}.busy_s"] = (get(name, "busy_s"), "s")
    out["models.encode_for_eval.rows"] = (counters.get("models.encode_for_eval.rows", 0), "count")
    out["models.EncoderModel.stats_forward.rows"] = (
        counters.get("models.EncoderModel.stats_forward.rows", 0), "count")
    out["models.classifier_accuracy.busy_s"] = (get("models.classifier_accuracy", "busy_s"), "s")
    for key, value in merged["attribution"].items():
        out[key] = (value, "s")

    records_in = counters.get("rehearsal.admit.records_in", 0)
    evicted = counters.get("rehearsal.admit.evicted", 0)
    out["rehearsal.admit.calls"] = (get("rehearsal.admit", "calls"), "count")
    out["rehearsal.admit.busy_s"] = (get("rehearsal.admit", "busy_s"), "s")
    out["rehearsal.admit.records_in"] = (records_in, "count")
    out["rehearsal.admit.evicted"] = (evicted, "count")
    out["rehearsal.admit.keep_ratio"] = ((records_in - evicted) / records_in if records_in else 1.0, "ratio")
    for name in ("rehearsal.replay_batch", "rehearsal.materialize_batch", "rehearsal.save_buffer"):
        out[f"{name}.calls"] = (get(name, "calls"), "count")
        out[f"{name}.busy_s"] = (get(name, "busy_s"), "s")
    out["rehearsal.materialize_batch.rows"] = (counters.get("rehearsal.materialize_batch.rows", 0), "count")
    out["rehearsal.save_buffer.bytes"] = (counters.get("rehearsal.save_buffer.bytes", 0), "B")
    out["rehearsal.load_buffer.busy_s"] = (get("rehearsal.load_buffer", "busy_s"), "s")
    out["rehearsal.load_buffer.bytes"] = (counters.get("rehearsal.load_buffer.bytes", 0), "B")

    rounds = sorted(merged["round_durations"])
    out["federation.run_round.calls"] = (get("federation.run_round", "calls"), "count")
    out["federation.run_round.busy_s"] = (get("federation.run_round", "busy_s"), "s")
    out["federation.run_round.p50_s"] = (float(np.percentile(rounds, 50)) if rounds else 0.0, "s")
    out["federation.run_round.p90_s"] = (float(np.percentile(rounds, 90)) if rounds else 0.0, "s")
    out["federation.local_train.calls"] = (get("federation.local_train", "calls"), "count")
    for name in ("federation.local_train", "federation.server_side_training",
                 "federation.fedavg_aggregate", "federation.ExperimentState.evaluate",
                 "federation.save_checkpoint"):
        out[f"{name}.busy_s"] = (get(name, "busy_s"), "s")
    out["federation.save_checkpoint.calls"] = (get("federation.save_checkpoint", "calls"), "count")
    out["federation.upload.records"] = (counters.get("federation.upload.records", 0), "count")
    for kind in ("embedding", "stats", "raw"):
        out[f"federation.upload.bytes.{kind}"] = (counters.get(f"federation.upload.bytes.{kind}", 0), "B")

    out["storage.save_model_checkpoint.busy_s"] = (get("storage.save_model_checkpoint", "busy_s"), "s")
    out["storage.save_model_checkpoint.bytes"] = (counters.get("storage.save_model_checkpoint.bytes", 0), "B")
    out["storage.load_model_checkpoint.busy_s"] = (get("storage.load_model_checkpoint", "busy_s"), "s")
    out["storage.write_record_frame.calls"] = (get("storage.write_record_frame", "calls"), "count")
    out["storage.read_record_frame.calls"] = (get("storage.read_record_frame", "calls"), "count")

    out["rng.draws"] = (sum(get(f"rng.{d}", "calls") for d in RNG_DRAWS), "count")
    out["rng.draw_busy_s"] = (sum(get(f"rng.{d}", "busy_s") for d in RNG_DRAWS), "s")
    out["rng.child.calls"] = (get("rng.child", "calls"), "count")
    out["rng.child.busy_s"] = (get("rng.child", "busy_s"), "s")

    for name in ("datasets.make_synthetic_blobs", "datasets.build_tasks",
                 "datasets.partition_clients", "config.parse"):
        out[f"{name}.busy_s"] = (get(name, "busy_s"), "s")
    n_rounds = get("federation.run_round", "calls")
    out["scenarios.participants_per_round"] = (
        counters.get("scenarios.participants", 0) / n_rounds if n_rounds else 0.0, "count")
    out["trace.spans"] = (merged["spans"], "count")
    return out


CONTAINERS = ("federation.run_experiment", "federation.run_round")


def ranking(merged: dict, key: str, n: int = 12) -> list:
    """(name, self s, busy s, calls) of the n largest by `key` ("self_s" or
    "busy_s"), leaving out the experiment and round spans that contain the
    rest."""
    rows = [(name, r) for name, r in merged["per_name"].items() if name not in CONTAINERS]
    rows.sort(key=lambda kv: -kv[1][key])
    return [(name, r["self_s"], r["busy_s"], r["calls"]) for name, r in rows[:n]]
