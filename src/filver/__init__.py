"""Deterministic simulator for federated incremental learning with
variational embedding rehearsal."""

from .config import ExperimentConfig, parse_config, preset_config
from .datasets import (LabeledSet, Task, TaskSequence, build_permuted_tasks,
                       build_split_tasks, load_idx, make_synthetic_blobs,
                       partition_clients)
from .errors import ConfigError, ContractViolation, IdxFormatError
from .federation import (FLConfig, RoundReport, fedavg_aggregate, run_experiment,
                         run_offline)
from .models import ClassifierModel, ClassifierSpec, EncoderModel, EncoderSpec, ModelConfig
from .rehearsal import (RehearsalBuffer, RehearsalRecord, StrategyConfig, admit,
                        materialize_batch, memory_budget, replay_batch)
from .rng import RngStream
from .scenarios import EnrollmentSchedule, make_schedule

__version__ = "0.1.0"

__all__ = [
    "ClassifierModel", "ClassifierSpec", "ConfigError", "ContractViolation",
    "EncoderModel", "EncoderSpec", "EnrollmentSchedule", "ExperimentConfig",
    "FLConfig", "IdxFormatError", "LabeledSet", "ModelConfig", "RehearsalBuffer",
    "RehearsalRecord", "RngStream", "RoundReport", "StrategyConfig", "Task",
    "TaskSequence", "admit", "build_permuted_tasks", "build_split_tasks",
    "fedavg_aggregate", "load_idx", "make_schedule", "make_synthetic_blobs",
    "materialize_batch", "memory_budget", "parse_config", "partition_clients",
    "preset_config", "replay_batch", "run_experiment", "run_offline",
]
