"""Command line runner.

Two subcommands: `run` executes one configured experiment (or a preset sweep)
and writes rounds.csv, summary.json and manifest.json into the output
directory; `compare` reads several run summaries and prints an aligned
accuracy table.  Relative dataset paths resolve against $FILVER_DATA_ROOT.

Exit codes: 0 ok, 2 configuration problem, 3 runtime contract violation.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import sys
import time
from datetime import datetime, timezone

from .checkpoint import CHECKPOINT_META, read_checkpoint_meta
from .config import (DATA_ROOT_ENV, PRESET_STRATEGY_SWEEPS, PRESETS, ExperimentConfig,
                     build_manifest, parse_config, preset_config)
from .errors import ConfigError, ContractViolation, IdxFormatError
from .federation import run_experiment


def _fmt(x) -> str:
    # repr of a Python float is the shortest round-trip form, so identical
    # runs produce byte-identical rows
    return repr(float(x))


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def _rows_up_to_checkpoint(rounds_path: str, checkpoint_dir: str, total_rounds: int):
    """The header and the first global_round rows of rounds.csv: rows a run
    wrote after its last checkpoint are written again by the resumed run.
    None when the checkpoint has no metadata, which run_experiment's loader
    refuses: perfbench's set-up launches resume from an empty directory and
    stop once run_experiment is entered."""
    if not os.path.exists(os.path.join(checkpoint_dir, CHECKPOINT_META)):
        return None
    done = read_checkpoint_meta(checkpoint_dir, total_rounds)["global_round"]
    lines = []
    if os.path.exists(rounds_path):
        with open(rounds_path) as f:
            lines = f.readlines()
    rows = max(0, len(lines) - 1)
    if rows < done:
        raise ContractViolation(
            f"{rounds_path} holds {rows} rows, but checkpoint {checkpoint_dir} is at "
            f"round {done}; resume needs every row up to the checkpoint")
    return lines[:1 + done]


def execute_run(cfg: ExperimentConfig, *, resume_from=None, stop_after_round=None,
                quiet=False) -> dict:
    """Run one experiment to completion (or to stop_after_round) and write
    the report files.  Returns the summary dict."""
    started_at = datetime.now(timezone.utc).isoformat()
    t0 = time.time()

    tasks = cfg.build_tasks()
    fl = cfg.fl_config()
    strategy = cfg.strategy_config()
    out_dir = cfg["out"]
    os.makedirs(out_dir, exist_ok=True)

    checkpoint_every = cfg["checkpoint_every"]
    checkpoint_dir = None
    if checkpoint_every > 0 or resume_from is not None or stop_after_round is not None:
        checkpoint_dir = os.path.join(out_dir, "checkpoint")

    rounds_path = os.path.join(out_dir, "rounds.csv")
    header = (["round", "task"]
              + [f"acc_task_{i + 1}" for i in range(tasks.n_tasks)]
              + ["mean_loss", "n_clients"])
    kept = [",".join(header) + "\n"]
    if resume_from is not None:
        kept = _rows_up_to_checkpoint(rounds_path, resume_from, tasks.n_tasks * fl.rounds_per_task)
    # rounds.csv is rewritten only once run_experiment has accepted the
    # checkpoint: a refused resume leaves the file as it was
    csv_file = None

    def open_rounds_csv():
        nonlocal csv_file
        if csv_file is None:
            csv_file = open(rounds_path, "w")
            csv_file.writelines(kept)
        return csv_file

    def on_round(report):
        row = ([str(report.round_id + 1), str(report.task_id + 1)]
               + [_fmt(a) for a in report.accuracies]
               + [_fmt(report.mean_loss), str(len(report.participants))])
        out = open_rounds_csv()
        out.write(",".join(row) + "\n")
        out.flush()  # the row reaches the file before this round's checkpoint
        if not quiet and (report.round_id + 1) % fl.rounds_per_task == 0:
            accs = " ".join(f"{a:.3f}" for a in report.accuracies)
            print(f"task {report.task_id + 1}/{tasks.n_tasks} done "
                  f"(round {report.round_id + 1}): acc per task [{accs}]")

    try:
        reports, state = run_experiment(
            tasks, cfg["scenario"], fl, strategy, cfg.model_config(tasks),
            master_seed=cfg.master_seed(),
            on_round=on_round,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=checkpoint_every,
            resume_from=resume_from,
            stop_after_round=stop_after_round)
        open_rounds_csv()  # a run with no rounds left still leaves its rows
    finally:
        if csv_file is not None:
            csv_file.close()

    final_accs = [float(a) for a in state.evaluate()]
    summary = {
        "strategy": strategy.kind,
        "scenario": cfg["scenario"],
        "seed": cfg.master_seed(),
        "rounds_completed": state.global_round,
        "final_task_accuracies": final_accs,
        "average_accuracy": sum(final_accs) / len(final_accs),
        "enrollment": state.schedule.render().splitlines(),
    }
    _write_json(os.path.join(out_dir, "summary.json"), summary)
    _write_json(os.path.join(out_dir, "manifest.json"),
                build_manifest(cfg, started_at, round(time.time() - t0, 3)))
    if not quiet:
        print(f"average final accuracy: {summary['average_accuracy']:.4f}  ({out_dir})")
    return summary


def _cmd_run(args) -> int:
    if (args.config is None) == (args.preset is None):
        raise ConfigError("run", ["give exactly one of a config file or --preset"])
    if args.stop_after_round is not None and args.stop_after_round < 1:
        raise ConfigError("run", [f"--stop-after-round must be at least 1, "
                                  f"got {args.stop_after_round}"])

    overrides = {}
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    if args.out is not None:
        overrides["out"] = args.out
    if args.checkpoint_every is not None:
        overrides["checkpoint_every"] = str(args.checkpoint_every)

    sweep = PRESET_STRATEGY_SWEEPS.get(args.preset) if args.preset else None
    if sweep:
        if args.resume or args.stop_after_round is not None:
            raise ConfigError("run", ["--resume / --stop-after-round do not apply to "
                                      "multi-strategy presets"])
        base = preset_config(args.preset, overrides)
        out_root = base["out"]
        merged = {"strategies": {}}
        for kind in sweep:
            sub = dict(overrides)
            sub["strategy.kind"] = kind
            sub["out"] = os.path.join(out_root, kind)
            cfg = preset_config(args.preset, sub)
            print(f"--- strategy {kind} ---")
            merged["strategies"][kind] = execute_run(cfg, quiet=args.quiet)
        _write_json(os.path.join(out_root, "summary.json"), merged)
        print(f"combined summary: {os.path.join(out_root, 'summary.json')}")
        return 0

    if args.preset:
        cfg = preset_config(args.preset, overrides)
    else:
        cfg = parse_config(args.config, overrides)
    execute_run(cfg, resume_from=args.resume, stop_after_round=args.stop_after_round,
                quiet=args.quiet)
    return 0


def _load_accuracies(run_dir: str) -> list[float]:
    """The final per-task accuracies of a run's summary.json."""
    path = os.path.join(run_dir, "summary.json")
    if not os.path.exists(path):
        raise ConfigError("compare", [f"missing summary file: {path}"])
    with open(path) as f:
        try:
            summary = json.load(f)
        except json.JSONDecodeError as exc:
            raise ConfigError("compare", [f"{path}: not valid JSON ({exc})"]) from None
    if not isinstance(summary, dict) or "final_task_accuracies" not in summary:
        raise ConfigError("compare", [
            f"{path}: no final_task_accuracies; for a multi-strategy run point "
            f"at one of its per-strategy subdirectories"])
    accs = summary["final_task_accuracies"]
    if (not isinstance(accs, list) or not accs
            or not all(isinstance(a, (int, float)) and not isinstance(a, bool) for a in accs)):
        raise ConfigError("compare", [
            f"{path}: final_task_accuracies must be a non-empty list of numbers, "
            f"got {accs!r}"])
    return [float(a) for a in accs]


def _cmd_compare(args) -> int:
    if len(args.dirs) < 2:
        raise ConfigError("compare", ["need at least two run directories"])
    rows = []
    for d in args.dirs:
        accs = _load_accuracies(d)
        rows.append((os.path.normpath(d), accs, sum(accs) / len(accs)))

    n_tasks = len(rows[0][1])
    for label, accs, _ in rows[1:]:
        if len(accs) != n_tasks:
            raise ContractViolation(
                f"compare: {label} has {len(accs)} tasks, {rows[0][0]} has {n_tasks}")

    headers = ["run"] + [f"task_{i + 1}" for i in range(n_tasks)] + ["avg"]
    base = rows[0]
    table = []
    for label, accs, avg in rows:
        table.append([label] + [f"{a:.3f}" for a in accs] + [f"{avg:.3f}"])
    for label, accs, avg in rows[1:]:
        deltas = [a - b for a, b in zip(accs, base[1])]
        table.append([f"delta {label}"]
                     + [f"{d:+.3f}" for d in deltas]
                     + [f"{avg - base[2]:+.3f}"])

    widths = [max(len(headers[c]), max(len(r[c]) for r in table))
              for c in range(len(headers))]
    def fmt_line(cells):
        left = cells[0].ljust(widths[0])
        rest = "  ".join(c.rjust(w) for c, w in zip(cells[1:], widths[1:]))
        return f"{left}  {rest}"

    print(fmt_line(headers))
    print("-" * (sum(widths) + 2 * len(widths) - 2))
    for r in table:
        print(fmt_line(r))

    csv_lines = [",".join(headers)] + [",".join(r) for r in table]
    if args.csv:
        with open(args.csv, "w") as f:
            f.write("\n".join(csv_lines) + "\n")
        print(f"csv written: {args.csv}")
    else:
        print()
        for line in csv_lines:
            print(line)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="filver",
        description="Federated incremental learning simulator with embedding rehearsal.",
        epilog=f"Relative dataset paths resolve against ${DATA_ROOT_ENV}.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment from a config file or preset")
    run.add_argument("config", nargs="?", default=None, help="key = value config file")
    run.add_argument("--preset", choices=sorted(PRESETS), default=None,
                     help="named built-in experiment")
    run.add_argument("--seed", type=int, default=None, help="override the master seed")
    run.add_argument("--out", default=None, help="override the output directory")
    run.add_argument("--checkpoint-every", type=int, default=None, dest="checkpoint_every",
                     help="write a checkpoint every N global rounds")
    run.add_argument("--resume", default=None, metavar="DIR",
                     help="resume from a checkpoint directory")
    run.add_argument("--stop-after-round", type=int, default=None, dest="stop_after_round",
                     help="stop after N global rounds (writes a checkpoint)")
    run.add_argument("--quiet", action="store_true", help="suppress progress lines")

    cmp_ = sub.add_parser("compare", help="tabulate several runs' final accuracies")
    cmp_.add_argument("dirs", nargs="+", help="run output directories")
    cmp_.add_argument("--csv", default=None, help="also write the table as CSV here")
    return parser


# glibc mallopt parameters, from <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def pin_allocator() -> bool:
    """Keep glibc from mapping and unmapping the conv stack's buffers at every
    step.  Returns False, doing nothing, where glibc is absent.

    A pretraining step allocates and frees im2col and gradient buffers of a
    few MB each.  glibc serves those from fresh mmaps and returns them on
    free, so each step faults its pages in again: about 600k minor faults
    before the first desk round.  A 32 MiB mmap threshold (glibc's largest)
    keeps them in the heap, and a 64 MiB trim threshold keeps the freed heap
    mapped for the next step.  Both are needed: setting only the trim
    threshold also turns off glibc's dynamic mmap threshold, and faults per
    step rose.  Values are unchanged; only where the bytes live moves.
    """
    if platform.libc_ver()[0] != "glibc":
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (mallopt(_M_MMAP_THRESHOLD, 32 << 20) == 1
            and mallopt(_M_TRIM_THRESHOLD, 64 << 20) == 1)


def main(argv=None) -> int:
    pin_allocator()
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_compare(args)
    except ConfigError as exc:
        print(f"config error in {exc.origin}:", file=sys.stderr)
        for problem in exc.problems:
            print(f"  - {problem}", file=sys.stderr)
        return 2
    except (IdxFormatError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ContractViolation as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
