"""Child process of the benchmark: runs the real `filver` CLI in-process.

    python3 perfbench/probe.py --marks FILE [--trace DIR] [--stop-at setup|first-round] -- <filver CLI args>

It puts the checkout's `src/` first on `sys.path`, optionally installs the
span tracer, and wraps `run_experiment` (where the CLI looks it up) to take
timestamps: entry, end of pretraining or of the checkpoint load (model and
buffers), and each round handed to the CLI's `on_round` callback.  Then it calls
`filver.cli.main` with the given arguments.

The marks file gets `time.monotonic()` readings, the same clock the parent
reads at spawn, so the parent can turn them into durations from process
start.  `--stop-at setup` ends the process as soon as `run_experiment` is
entered, `--stop-at first-round` after the first round.  `--trace DIR`
writes `summary.json` and `spans.npz` there after removing the wrappers.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


class Stop(Exception):
    """Raised where --stop-at asks the run to end."""


def install_marks(patcher, experiments: list, stop_at) -> None:
    """Wrap `run_experiment` and the calls that end its pretraining or
    checkpoint load."""
    clock = time.monotonic

    def wrap_ready(fn):
        # the rounds start once pretraining or the checkpoint load is over
        def ready(*args, **kwargs):
            result = fn(*args, **kwargs)
            if experiments and not experiments[-1]["round_ends"]:
                experiments[-1]["ready"] = clock()
            return result
        return ready

    def wrap_run(fn):
        def run_experiment(*args, **kwargs):
            mark = {"enter": clock(), "ready": None, "round_ends": []}
            experiments.append(mark)
            if stop_at == "setup":
                raise Stop()
            on_round = kwargs.get("on_round")

            def counted(report):
                if on_round is not None:
                    on_round(report)
                mark["round_ends"].append(clock())
                if stop_at == "first-round":
                    raise Stop()
            kwargs["on_round"] = counted
            return fn(*args, **kwargs)
        return run_experiment

    for module, name in (("filver.models", "pretrain_encoder"),
                         ("filver.storage", "load_model_checkpoint"),
                         ("filver.rehearsal", "load_buffer")):
        patcher.wrap(module, name, wrap_ready)
    patcher.wrap("filver.federation", "run_experiment", wrap_run)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--marks", required=True)
    parser.add_argument("--trace", default=None)
    parser.add_argument("--stop-at", choices=("setup", "first-round"), default=None)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    sys.path[:0] = [os.path.join(os.getcwd(), "src"), HERE]
    import filver.cli
    from tracer import Patcher, Tracer

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    patcher = Patcher()
    experiments: list = []
    install_marks(patcher, experiments, args.stop_at)
    rc = 1
    try:
        rc = filver.cli.main(cli_args)
    except Stop:
        rc = 0
    finally:
        patcher.restore()
        if tracer is not None:
            tracer.uninstall()
            os.makedirs(args.trace, exist_ok=True)
            tracer.save_spans(os.path.join(args.trace, "spans.npz"))
            with open(os.path.join(args.trace, "summary.json"), "w") as f:
                json.dump(tracer.summary(), f)
        with open(args.marks, "w") as f:
            json.dump({"experiments": experiments}, f)
    return rc


if __name__ == "__main__":
    sys.exit(main())
