"""Experiment configuration: flat key=value files, presets, run manifests.

The format is one `key = value` pair per line; `#` starts a comment.  Unknown
keys are hard errors so typos cannot silently fall back to defaults, and all
problems in a file are reported together.  Defaults that do not come from the
reference experimental setup are flagged in the run manifest.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import hashlib
import os
import resource
from dataclasses import dataclass, field

import numpy as np

from .datasets import (LabeledSet, TaskSequence, build_permuted_tasks, build_split_tasks,
                       load_idx, make_synthetic_blobs)
from .errors import ConfigError, ContractViolation
from .federation import FLConfig
from .models import CONV_MIN_SIDE, ClassifierSpec, EncoderSpec, ModelConfig
from .rehearsal import (MEMORY_MULTIPLIERS, STRATEGY_KINDS, StrategyConfig,
                        encoder_kind_for_strategy)
from .rng import RngStream
from .scenarios import SCHEDULE_KINDS

DATA_ROOT_ENV = "FILVER_DATA_ROOT"


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_int_pair(text: str) -> tuple:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ValueError(f"expected two comma-separated integers, got {text!r}")
    return (int(parts[0]), int(parts[1]))


@dataclass
class _Key:
    name: str
    parse: object
    default: object
    reference_default: bool  # value taken from the reference setup, not our choice
    check: object = None
    hint: str = ""


def _positive(v):
    return v > 0


def _nonneg(v):
    return v >= 0


def _fraction(v):
    return 0.0 <= v <= 1.0


_KEYS = [
    _Key("seed", int, 1, False, _nonneg, ">= 0"),
    _Key("out", str, "runs/latest", False),
    _Key("scenario", str, "fully_enrolled",
         True, lambda v: v in SCHEDULE_KINDS, f"one of {SCHEDULE_KINDS}"),
    _Key("checkpoint_every", int, 0, False, _nonneg, ">= 0"),

    _Key("dataset.kind", str, "synthetic", False,
         lambda v: v in ("synthetic", "idx"), "synthetic or idx"),
    _Key("dataset.seed", int, 2024, False, _nonneg, ">= 0"),
    _Key("dataset.images", str, "", False),
    _Key("dataset.labels", str, "", False),
    _Key("dataset.val_images", str, "", False),
    _Key("dataset.val_labels", str, "", False),
    _Key("dataset.transpose", _parse_bool, True, True),
    _Key("dataset.classes", int, 40, True, lambda v: v >= 2, ">= 2"),
    _Key("dataset.per_class", int, 250, False, _positive, ">= 1"),
    _Key("dataset.spread", float, 0.25, False, _positive, "> 0"),
    _Key("dataset.image_size", int, 28, True, lambda v: v >= 4, ">= 4"),

    _Key("protocol.kind", str, "split", True,
         lambda v: v in ("split", "permuted"), "split or permuted"),
    _Key("protocol.tasks", int, 4, True, _positive, ">= 1"),
    _Key("protocol.classes_per_task", int, 10, True, _positive, ">= 1"),
    _Key("protocol.val_fraction", float, 0.15, False,
         lambda v: 0.0 < v < 1.0, "in (0, 1)"),

    _Key("strategy.kind", str, "ver_sampled", True,
         lambda v: v in STRATEGY_KINDS, f"one of {STRATEGY_KINDS}"),
    _Key("strategy.rho", float, 0.10, True, _fraction, "in [0, 1]"),
    _Key("strategy.memory", str, "x1", True,
         lambda v: v in MEMORY_MULTIPLIERS, f"one of {MEMORY_MULTIPLIERS}"),

    _Key("fl.rounds_per_task", int, 50, True, _positive, ">= 1"),
    _Key("fl.n_clients", int, 4, False, _positive, ">= 1"),
    _Key("fl.clients_per_round", int, 0, False, _nonneg, ">= 0 (0 = half the clients)"),
    _Key("fl.local_iters", int, 10, False, _nonneg, ">= 0"),
    _Key("fl.s_max", int, 20, False, _nonneg, ">= 0"),
    _Key("fl.eta", float, 0.05, False, _positive, "> 0"),
    _Key("fl.eta_s", float, 0.01, False, _positive, "> 0"),
    _Key("fl.batch_size", int, 32, False, _positive, ">= 1"),

    _Key("model.beta", float, 1e-3, True, _nonneg, ">= 0"),
    _Key("model.embed_dim", int, 256, True, _positive, ">= 1"),
    _Key("model.hidden", int, 1000, True, _positive, ">= 1"),
    _Key("model.arch", str, "conv", True,
         lambda v: v in ("conv", "mlp"), "conv or mlp"),
    _Key("model.conv_channels", _parse_int_pair, (16, 32), False,
         lambda v: v[0] > 0 and v[1] > 0, "two positive integers"),
    _Key("model.classifier_hidden", int, 1000, True, _positive, ">= 1"),
    _Key("model.classifier_layers", int, 2, True, _positive, ">= 1"),
    _Key("model.pretrain_epochs", int, 5, False, _nonneg, ">= 0"),
    _Key("model.pretrain_lr", float, 0.01, False, _positive, "> 0"),
]

KEY_TABLE = {k.name: k for k in _KEYS}


@dataclass
class ExperimentConfig:
    values: dict
    defaulted: tuple = ()

    def __getitem__(self, name: str):
        return self.values[name]

    # ----- derived domain objects -------------------------------------

    def master_seed(self) -> int:
        return self.values["seed"]

    @staticmethod
    def resolve_path(path: str) -> str:
        """A relative dataset path joined to $FILVER_DATA_ROOT, when set."""
        if os.path.isabs(path):
            return path
        root = os.environ.get(DATA_ROOT_ENV, "")
        return os.path.join(root, path) if root else path

    def build_tasks(self) -> TaskSequence:
        v = self.values
        drng = RngStream(v["dataset.seed"])
        if v["dataset.kind"] == "synthetic":
            size = v["dataset.image_size"]
            base = make_synthetic_blobs(v["dataset.classes"], size * size,
                                        v["dataset.per_class"], v["dataset.spread"],
                                        drng.child("blobs"), image_shape=(size, size))
            base_val = None
        else:
            labels_path = self.resolve_path(v["dataset.labels"])
            images_path = self.resolve_path(v["dataset.images"])
            base = load_idx(images_path, labels_path, transpose=v["dataset.transpose"])
            if v["model.arch"] == "conv" and min(base.images.shape[1:]) < CONV_MIN_SIDE:
                h, w = base.images.shape[1:]
                raise ConfigError(images_path, [
                    f"model.arch: conv needs images of at least {CONV_MIN_SIDE}x{CONV_MIN_SIDE} "
                    f"pixels, images file {images_path} holds {h}x{w}"])
            if v["protocol.kind"] == "permuted" and base.class_count < 2:
                raise ConfigError(labels_path, [
                    f"the permuted protocol's classifier needs at least two classes, "
                    f"labels file {labels_path} has {base.class_count}"])
            if v["protocol.kind"] == "split":
                needed = v["protocol.tasks"] * v["protocol.classes_per_task"]
                if base.class_count < needed:
                    raise ConfigError(labels_path, [
                        f"protocol.tasks x protocol.classes_per_task: the split protocol needs "
                        f"{v['protocol.tasks']} x {v['protocol.classes_per_task']} = {needed} "
                        f"classes, labels file {labels_path} has {base.class_count}"])
            base_val = None
            val_labels_path = labels_path
            if v["dataset.val_images"]:
                val_labels_path = self.resolve_path(v["dataset.val_labels"])
                base_val = load_idx(self.resolve_path(v["dataset.val_images"]), val_labels_path,
                                    transpose=v["dataset.transpose"])
                # a validation row of a class the training rows lack is never scored
                # right; a split keeps only the classes below `needed`
                unseen = np.setdiff1d(base_val.labels, base.labels)
                unseen = unseen[unseen < needed] if v["protocol.kind"] == "split" else unseen
                if len(unseen):
                    raise ConfigError(val_labels_path, [
                        f"validation labels file {val_labels_path} holds classes "
                        f"{unseen.tolist()} that training labels file {labels_path} lacks"])
        if v["protocol.kind"] == "split":
            tasks = build_split_tasks(base, v["protocol.tasks"], v["protocol.classes_per_task"],
                                      base_val=base_val, val_fraction=v["protocol.val_fraction"],
                                      rng=drng.child("split"))
        else:
            tasks = build_permuted_tasks(base, v["protocol.tasks"], drng.child("permute"),
                                         base_val=base_val,
                                         val_fraction=v["protocol.val_fraction"])
        if v["dataset.kind"] == "idx":
            # an empty set would fail only after pretraining, deep in the run
            for task in tasks.tasks:
                for half, rows, path in (("training", task.train, labels_path),
                                         ("validation", task.val, val_labels_path)):
                    if not len(rows):
                        raise ConfigError(path, [f"task {task.task_id + 1} has no {half} "
                                                 f"rows in labels file {path}"])
        return tasks

    def fl_config(self) -> FLConfig:
        v = self.values
        per_round = v["fl.clients_per_round"] or max(1, v["fl.n_clients"] // 2)
        return FLConfig(rounds_per_task=v["fl.rounds_per_task"], n_clients=v["fl.n_clients"],
                        clients_per_round=per_round, local_iters=v["fl.local_iters"],
                        s_max=v["fl.s_max"], eta=v["fl.eta"], eta_s=v["fl.eta_s"],
                        batch_size=v["fl.batch_size"])

    def strategy_config(self) -> StrategyConfig:
        v = self.values
        return StrategyConfig(v["strategy.kind"], v["strategy.rho"], v["strategy.memory"])

    def model_config(self, tasks: TaskSequence) -> ModelConfig:
        """The encoder, classifier and pretraining settings, for the task
        stream's input shape and class count."""
        v = self.values
        dims = tasks.tasks[0].train.images.shape[1:]
        if v["model.arch"] == "mlp":
            dims = (int(np.prod(dims)),) if len(dims) > 1 else dims
        encoder = EncoderSpec(encoder_kind_for_strategy(v["strategy.kind"]), tuple(dims),
                              embed_dim=v["model.embed_dim"], arch=v["model.arch"],
                              hidden=v["model.hidden"], conv_channels=v["model.conv_channels"])
        classifier = ClassifierSpec(classes=tasks.class_count, hidden=v["model.classifier_hidden"],
                                    layers=v["model.classifier_layers"])
        return ModelConfig(encoder, classifier, beta=v["model.beta"],
                           pretrain_epochs=v["model.pretrain_epochs"],
                           pretrain_lr=v["model.pretrain_lr"])


def _validate_cross_fields(values: dict, problems: list) -> None:
    v = values
    if v["dataset.kind"] == "idx":
        for key in ("dataset.images", "dataset.labels"):
            if not v[key]:
                problems.append(f"{key}: required when dataset.kind = idx")
        if bool(v["dataset.val_images"]) != bool(v["dataset.val_labels"]):
            problems.append("dataset.val_images and dataset.val_labels must be given together")
        for key in ("dataset.images", "dataset.labels", "dataset.val_images", "dataset.val_labels"):
            if v[key]:
                full = ExperimentConfig.resolve_path(v[key])
                if not os.path.exists(full):
                    problems.append(f"{key}: no such file: {full}")
    if v["dataset.kind"] == "synthetic" and v["model.arch"] == "conv" and \
            v["dataset.image_size"] < CONV_MIN_SIDE:
        problems.append(
            f"dataset.image_size: model.arch = conv needs at least {CONV_MIN_SIDE} pixels "
            f"a side, dataset.image_size is {v['dataset.image_size']}")
    if v["protocol.kind"] == "split":
        if v["protocol.classes_per_task"] < 2:
            problems.append(
                f"protocol.classes_per_task: the split protocol's classifier needs at least "
                f"two classes a task, got {v['protocol.classes_per_task']}")
        needed = v["protocol.tasks"] * v["protocol.classes_per_task"]
        if v["dataset.kind"] == "synthetic" and v["dataset.classes"] < needed:
            problems.append(
                f"protocol.tasks: split protocol needs {needed} classes, "
                f"dataset.classes is {v['dataset.classes']}")
    if v["fl.clients_per_round"] > v["fl.n_clients"]:
        problems.append("fl.clients_per_round: exceeds fl.n_clients")
    if v["scenario"] != "fully_enrolled" and v["fl.n_clients"] < v["protocol.tasks"]:
        problems.append(
            f"fl.n_clients: scenario {v['scenario']!r} needs at least as many clients as tasks")


def parse_pairs(pairs: dict, origin: str = "<config>") -> ExperimentConfig:
    """Typed validation of raw key -> string pairs; collects every problem."""
    problems = []
    values = {}
    for key, raw in pairs.items():
        spec = KEY_TABLE.get(key)
        if spec is None:
            problems.append(f"{key}: unknown key")
            continue
        try:
            if not isinstance(raw, str):
                raise ValueError(f"value {raw!r} is a {type(raw).__name__}, not a string")
            value = spec.parse(raw)
        except ValueError as exc:
            problems.append(f"{key}: {exc}")
            continue
        if spec.parse is float and not np.isfinite(value):
            problems.append(f"{key}: value {value!r} is not a finite number")
            continue
        if spec.check is not None and not spec.check(value):
            problems.append(f"{key}: value {value!r} out of range, expected {spec.hint}")
            continue
        values[key] = value
    defaulted = []
    for spec in _KEYS:
        if spec.name not in values:
            values[spec.name] = spec.default
            defaulted.append(spec.name)
    if not problems:
        _validate_cross_fields(values, problems)
    if problems:
        raise ConfigError(origin, problems)
    return ExperimentConfig(values, tuple(defaulted))


def parse_config(path, overrides: dict = None) -> ExperimentConfig:
    """Parse a key=value file; overrides (from flags or presets) win."""
    pairs = {}
    problems = []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                problems.append(f"line {lineno}: expected key = value, got {text!r}")
                continue
            key, _, raw = text.partition("=")
            key = key.strip()
            raw = raw.strip()
            if key in pairs:
                problems.append(f"line {lineno}: duplicate key {key!r}")
                continue
            pairs[key] = raw
    if problems:
        raise ConfigError(str(path), problems)
    if overrides:
        pairs.update(overrides)
    return parse_pairs(pairs, origin=str(path))


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

# Desk-scale split benchmark: small enough for a laptop, with the model and
# optimizer settings recalibrated for the reduced widths (beta, s_max, eta_s
# and the pretraining schedule differ from the full-scale reference values).
_DESK_SPLIT4 = {
    "dataset.kind": "synthetic",
    "dataset.seed": "2024",
    "dataset.classes": "40",
    "dataset.per_class": "250",
    "dataset.spread": "0.25",
    "dataset.image_size": "28",
    "protocol.kind": "split",
    "protocol.tasks": "4",
    "protocol.classes_per_task": "10",
    "protocol.val_fraction": "0.15",
    "strategy.kind": "ver_sampled",
    "strategy.rho": "0.1",
    "fl.rounds_per_task": "50",
    "fl.n_clients": "4",
    "fl.clients_per_round": "2",
    "fl.local_iters": "10",
    "fl.s_max": "40",
    "fl.eta": "0.05",
    "fl.eta_s": "0.02",
    "fl.batch_size": "32",
    "model.beta": "1e-5",
    "model.embed_dim": "48",
    "model.hidden": "96",
    "model.arch": "conv",
    "model.conv_channels": "8,16",
    "model.classifier_hidden": "96",
    "model.classifier_layers": "2",
    "model.pretrain_epochs": "10",
    "model.pretrain_lr": "0.05",
    "seed": "11",
}

_PERMUTED10 = {
    "dataset.kind": "synthetic",
    "dataset.seed": "2024",
    "dataset.classes": "10",
    "dataset.per_class": "200",
    "dataset.spread": "0.25",
    "dataset.image_size": "16",
    "protocol.kind": "permuted",
    "protocol.tasks": "10",
    "protocol.val_fraction": "0.15",
    "strategy.kind": "ebr",
    "strategy.rho": "0.1",
    "fl.rounds_per_task": "10",
    "fl.n_clients": "2",
    "fl.clients_per_round": "2",
    "fl.local_iters": "10",
    "fl.s_max": "20",
    "fl.eta": "0.05",
    "fl.eta_s": "0.02",
    "fl.batch_size": "32",
    "model.embed_dim": "48",
    "model.hidden": "128",
    "model.arch": "mlp",
    "model.classifier_hidden": "96",
    "model.classifier_layers": "2",
    "model.pretrain_epochs": "10",
    "model.pretrain_lr": "0.05",
    "seed": "11",
}

PRESETS = {
    "scenario1-split4": dict(_DESK_SPLIT4, scenario="fully_enrolled"),
    "scenario2-split4": dict(_DESK_SPLIT4, scenario="decreasing"),
    "scenario3-split4": dict(_DESK_SPLIT4, scenario="increasing"),
    "scenario4-split4": dict(_DESK_SPLIT4, scenario="scattered"),
    "desk-split4": dict(_DESK_SPLIT4),
    # composite preset: the runner executes it once per listed strategy
    "permuted10-ebr-vs-naive": dict(_PERMUTED10),
}

PRESET_STRATEGY_SWEEPS = {
    "permuted10-ebr-vs-naive": ("ebr", "naive"),
}


def preset_config(name: str, overrides: dict = None) -> ExperimentConfig:
    if name not in PRESETS:
        raise ConfigError(f"--preset {name}", [f"unknown preset {name!r}; "
                                               f"known: {', '.join(sorted(PRESETS))}"])
    pairs = dict(PRESETS[name])
    if overrides:
        pairs.update(overrides)
    return parse_pairs(pairs, origin=f"preset {name}")


# ---------------------------------------------------------------------------
# Run manifest
# ---------------------------------------------------------------------------


def _module_checksums() -> dict:
    """sha256 of every module in this package, for the run manifest."""
    pkg_dir = os.path.dirname(os.path.abspath(__file__))
    sums = {}
    for fname in sorted(os.listdir(pkg_dir)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg_dir, fname), "rb") as f:
                sums[fname] = hashlib.sha256(f.read()).hexdigest()[:16]
    return sums


def _version_string() -> str:
    try:
        from importlib.metadata import version
        return version("filver")
    except Exception:
        return "unknown"


def openblas_libraries() -> list:
    """Paths of the scipy-openblas libraries bundled in numpy's wheel."""
    return glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas64_*.so"))


def _openblas_function(name: str, restype, *argtypes):
    """A function of numpy's bundled scipy-openblas library, or None where
    numpy bundles no single such library."""
    libs = openblas_libraries()
    if len(libs) != 1:
        return None
    fn = getattr(ctypes.CDLL(libs[0]), name)
    fn.argtypes = list(argtypes)
    fn.restype = restype
    return fn


def blas_core() -> str:
    """The kernel family numpy's bundled OpenBLAS chose at load time, or
    "unknown" where numpy bundles no single such library."""
    corename = _openblas_function("scipy_openblas_get_corename64_", ctypes.c_char_p)
    return "unknown" if corename is None else corename().decode("ascii")


def blas_thread_count():
    """The threads numpy's bundled OpenBLAS runs on now, or "unknown" where
    numpy bundles no single such library."""
    get_threads = _openblas_function("scipy_openblas_get_num_threads64_", ctypes.c_int)
    return "unknown" if get_threads is None else get_threads()


@contextlib.contextmanager
def blas_threads(n: int):
    """BLAS on n threads inside the block; a no-op where numpy bundles no
    single scipy-openblas library.

    The thread count is part of a run's bytes: OpenBLAS splits a GEMM tall
    enough, such as a padded 64-row conv encoder pass, between its threads,
    and the split changes the summation order.
    """
    before = blas_thread_count()
    if before == "unknown":
        yield
        return
    set_threads = _openblas_function("scipy_openblas_set_num_threads64_", None, ctypes.c_int)
    set_threads(n)
    try:
        yield
    finally:
        set_threads(before)


def build_manifest(cfg: ExperimentConfig, started_at: str, duration_s: float) -> dict:
    non_ref = sorted(k for k in cfg.defaulted if not KEY_TABLE[k].reference_default)
    serializable = {}
    for key, value in sorted(cfg.values.items()):
        serializable[key] = list(value) if isinstance(value, tuple) else value
    return {
        "config": serializable,
        "defaults_used": sorted(cfg.defaulted),
        "non_reference_defaults": non_ref,
        "version": _version_string(),
        "master_seed": cfg.master_seed(),
        "started_at": started_at,
        "duration_s": duration_s,
        "module_checksums": _module_checksums(),
        "numpy": np.__version__,
        "blas_core": blas_core(),
        "blas_threads": blas_thread_count(),
        # this process's peak resident set so far (ru_maxrss is in KiB on Linux)
        "peak_rss_mib": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }
