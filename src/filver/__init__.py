"""Deterministic simulator for federated incremental learning with
variational embedding rehearsal."""

from .config import ExperimentConfig, parse_config, preset_config
from .datasets import (ImageRows, LabeledSet, Task, TaskSequence, build_permuted_tasks,
                       build_split_tasks, load_idx, make_synthetic_blobs,
                       partition_clients)
from .errors import ConfigError, ContractViolation, IdxFormatError
from .federation import (FLConfig, RoundReport, fedavg_aggregate, run_experiment,
                         run_offline)
from .models import ClassifierModel, ClassifierSpec, EncoderModel, EncoderSpec, ModelConfig
from .rehearsal import RehearsalBuffer, StrategyConfig, Upload, admit, draw_batch
from .rng import RngStream
from .scenarios import EnrollmentSchedule, make_schedule

__version__ = "0.1.0"

__all__ = [
    "ClassifierModel", "ClassifierSpec", "ConfigError", "ContractViolation",
    "EncoderModel", "EncoderSpec", "EnrollmentSchedule", "ExperimentConfig",
    "FLConfig", "IdxFormatError", "ImageRows", "LabeledSet", "ModelConfig", "RehearsalBuffer",
    "RngStream", "RoundReport", "StrategyConfig", "Task", "TaskSequence", "Upload", "admit",
    "build_permuted_tasks", "build_split_tasks", "draw_batch", "fedavg_aggregate", "load_idx",
    "make_schedule", "make_synthetic_blobs", "parse_config", "partition_clients",
    "preset_config", "run_experiment", "run_offline",
]
