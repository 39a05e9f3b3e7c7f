"""filver benchmark: runs workloads through the real `filver run` CLI.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout; it reads the program from `src/` and
keeps everything it writes under `.perfbench/`.  Each invocation of the CLI
runs in a child process (`perfbench/probe.py`).

--trace 0 measures the end-to-end metrics with no tracing.  Whole
repetitions of the workload are run while the next one is predicted to end
within --seconds (at least one), and each metric is the median over them.
Set-up time is also sampled by extra launches that stop where the run
proper starts (or, when the first round comes early, after the first round,
which samples first_round_s too).

--trace 1 runs the workload once untraced and once with the span tracer
installed, checks that both write the same `rounds.csv`, and reports the
per-layer metrics plus the tracing overhead.

Every child is checked: exit code, row count of each output file, and
byte-identity with the other runs of the same source tree (same workload and
seed), in this process and in earlier ones.  Failing children count in
`failed`.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import layer_metrics, merge_summaries, ranking  # noqa: E402
from workloads import GOLDENS, WORKLOADS, Workload  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")
PROBE = os.path.join(HERE, "probe.py")

SETUP_LAUNCHES = 4          # set-up launches per measured run, besides the repetitions
FIRST_ROUND_RESAMPLE_S = 3.0  # a first round this early is sampled by those launches too
RUN_LIMIT_S = 170.0         # a run must end within 180 s; children are killed past this

# pinned so the figures do not depend on how many cores the host shows
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {  # name -> (unit, better)
    "run_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "first_round_s": ("s", "lower"),
    "rounds_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
    "final_avg_acc": ("fraction", "higher"),
}
# per-layer metrics computed from call arguments, results and file sizes
COMPUTED = ("gflop", "bytes", "rows", "records", "evicted", "keep_ratio", "participants")


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def source_digest() -> str:
    """sha256 over the program's source files: identifies "the same commit"
    in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode() + b"\0")
                h.update(sha256_file(path).encode())
    return h.hexdigest()


def environment(src_digest: str) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass

    def git(*args):
        try:
            proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                                  timeout=20)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    # a checkout nested in some other repository is not a git checkout
    toplevel = git("rev-parse", "--show-toplevel")
    inside = toplevel is not None and os.path.samefile(toplevel, ROOT)
    commit = git("rev-parse", "HEAD") if inside else None
    dirty = git("status", "--porcelain", "--untracked-files=no") if commit else None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "cli_threads": 1,
        "git_commit": commit or "unknown (not a git checkout)",
        "git_dirty": None if dirty is None else bool(dirty),
        "src_sha256": src_digest,
    }


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


@dataclass
class Child:
    exit_code: int = -1
    spawn: float = 0.0
    exit: float = 0.0
    max_rss_kb: int = 0
    marks: dict = field(default_factory=dict)
    error: str = ""

    @property
    def wall_s(self) -> float:
        return self.exit - self.spawn

    def since_spawn(self, t: float) -> float:
        return t - self.spawn


def launch(cli_args: list, log_dir: str, deadline: float, *, trace_dir=None,
           stop_at=None) -> Child:
    """Run one probe child to completion (or kill it at the deadline)."""
    os.makedirs(log_dir, exist_ok=True)
    marks_path = os.path.join(log_dir, "marks.json")
    if os.path.exists(marks_path):
        os.remove(marks_path)
    argv = [sys.executable, PROBE, "--marks", marks_path]
    if trace_dir:
        argv += ["--trace", trace_dir]
    if stop_at:
        argv += ["--stop-at", stop_at]
    argv += ["--", *cli_args]
    env = dict(os.environ, **BLAS_THREADS)
    env.pop("PYTHONPATH", None)
    child = Child()
    with open(os.path.join(log_dir, "stderr.txt"), "wb") as err:
        child.spawn = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        # a blocking wait, so the parent does not wake up while the child is timed
        timer = threading.Timer(max(0.0, deadline - child.spawn), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        child.exit = time.monotonic()
        proc.returncode = child.exit_code = os.waitstatus_to_exitcode(status)
    if child.exit >= deadline:
        child.error = "killed at the run's time limit"
    child.max_rss_kb = usage.ru_maxrss
    if os.path.exists(marks_path):
        with open(marks_path) as f:
            child.marks = json.load(f)
    if child.exit_code != 0 and not child.error:
        with open(os.path.join(log_dir, "stderr.txt"), errors="replace") as f:
            tail = f.read()[-400:].strip()
        child.error = f"exit code {child.exit_code}: {tail}"
    return child


# ---------------------------------------------------------------------------
# One repetition of a workload
# ---------------------------------------------------------------------------


@dataclass
class Rep:
    children: list
    digests: dict            # output file -> sha256 after the last invocation
    failures: list           # one message per failed child
    summary: dict | None     # final summary.json

    @property
    def run_s(self) -> float:
        return sum(c.wall_s for c in self.children)

    def metrics(self) -> dict:
        first = self.children[0]
        experiments = [e for c in self.children for e in c.marks["experiments"]]
        rounds = sum(len(e["round_ends"]) for e in experiments)
        round_time = sum(e["round_ends"][-1] - e["ready"] for e in experiments)
        return {
            "run_s": self.run_s,
            "setup_s": sum(c.since_spawn(c.marks["experiments"][0]["enter"])
                           for c in self.children),
            "first_round_s": first.since_spawn(first.marks["experiments"][0]["round_ends"][0]),
            "rounds_per_s": rounds / round_time,
            "peak_rss_mb": max(c.max_rss_kb for c in self.children) / 1024.0,
            "final_avg_acc": final_accuracy(self.summary),
        }


def final_accuracy(summary: dict) -> float:
    if "strategies" in summary:
        accs = [s["average_accuracy"] for s in summary["strategies"].values()]
        return sum(accs) / len(accs)
    return summary["average_accuracy"]


def cli_args(inv, out: str, seed: int, cfg: str | None) -> list:
    return [a.format(out=out, seed=seed, cfg=cfg) for a in inv.argv]


def count_rows(path: str) -> int:
    with open(path, "rb") as f:
        return max(0, sum(1 for _ in f) - 1)


def run_rep(workload: Workload, seed: int, cfg, run_dir: str, deadline: float,
            trace_dir: str | None = None) -> Rep:
    out = os.path.join(run_dir, "out")
    shutil.rmtree(run_dir, ignore_errors=True)
    children, failures = [], []
    for i, inv in enumerate(workload.invocations):
        child = launch(cli_args(inv, out, seed, cfg), os.path.join(run_dir, f"inv{i}"),
                       deadline,
                       trace_dir=None if trace_dir is None else os.path.join(trace_dir, f"inv{i}"))
        children.append(child)
        problem = child.error
        if not problem and len(child.marks.get("experiments", [])) == 0:
            problem = "run_experiment was never entered"
        for rel, want in inv.rows:
            if problem:
                break
            path = os.path.join(out, rel)
            got = count_rows(path) if os.path.exists(path) else None
            if got != want:
                problem = f"{rel}: {got} rows, expected {want}"
        if not problem and i == len(workload.invocations) - 1 and not os.path.exists(
                os.path.join(out, "summary.json")):
            problem = "no summary.json"
        if problem:
            failures.append(f"invocation {i}: {problem}")
            break
    digests, summary = {}, None
    if not failures:
        for rel, _ in workload.invocations[-1].rows:
            digests[rel] = sha256_file(os.path.join(out, rel))
        with open(os.path.join(out, "summary.json")) as f:
            summary = json.load(f)
    return Rep(children, digests, failures, summary)


# ---------------------------------------------------------------------------
# Output checks across runs
# ---------------------------------------------------------------------------


class DigestStore:
    """Digests of earlier runs of the same source tree, kept under .perfbench
    so that runs in separate processes are compared too."""

    def __init__(self, path: str):
        self.path = path
        self.data = {}
        os.makedirs(os.path.dirname(path), exist_ok=True)
        if os.path.exists(path):
            with open(path) as f:
                self.data = json.load(f)

    def check(self, key: str, digests: dict) -> str | None:
        """Record `digests` under `key`; return a message if they differ
        from what an earlier run recorded."""
        earlier = self.data.setdefault(key, digests)
        if earlier != digests:
            return f"output differs from an earlier run of the same source ({key})"
        tmp = self.path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(self.data, f, indent=1, sort_keys=True)
        os.replace(tmp, self.path)
        return None


def golden_report(workload: str, seed: int, digests: dict) -> str:
    golden = GOLDENS.get((workload, seed))
    if golden is None:
        return f"golden {workload} seed {seed}: none recorded"
    bad = [rel for rel in golden if digests.get(rel) != golden[rel]]
    if bad:
        return f"golden {workload} seed {seed}: MISMATCH in {', '.join(bad)}"
    return f"golden {workload} seed {seed}: match ({', '.join(f'{r} {golden[r][:12]}' for r in golden)})"


# ---------------------------------------------------------------------------
# A whole benchmark run of one workload
# ---------------------------------------------------------------------------


def workload_config(workload: Workload, work_dir: str) -> str | None:
    """Config file for workloads defined as a preset plus overrides."""
    if workload.base_preset is None:
        return None
    from filver.config import PRESETS

    values = dict(PRESETS[workload.base_preset], **dict(workload.overrides))
    path = os.path.join(work_dir, f"{workload.name}.cfg")
    with open(path, "w") as f:
        f.write(f"# {workload.base_preset} with {dict(workload.overrides)}\n")
        for key, value in values.items():
            f.write(f"{key} = {value}\n")
    return path


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 store: DigestStore, src_digest: str) -> dict:
    t_begin = time.monotonic()
    deadline = t_begin + RUN_LIMIT_S
    work_dir = os.path.join(STATE, "runs", workload.name)
    os.makedirs(work_dir, exist_ok=True)
    cfg = workload_config(workload, work_dir)
    key = f"{src_digest}:{workload.name}:{seed}"
    result = {"workload": workload.name, "seed": seed, "trace": int(trace), "digests": {}}
    attempted = failed = 0
    messages, reps = [], []

    def checked(rep: Rep, label: str) -> Rep:
        nonlocal attempted, failed
        attempted += len(rep.children)
        if not rep.failures:
            clash = store.check(key, rep.digests)
            if clash:
                rep.failures.append(clash)
        failed += bool(rep.failures)
        messages.extend(f"{label}: {p}" for p in rep.failures)
        return rep

    t_measure = time.monotonic()
    while True:
        rep = checked(run_rep(workload, seed, cfg, os.path.join(work_dir, "rep"), deadline),
                      f"rep {len(reps)}")
        reps.append(rep)
        now = time.monotonic()
        if (rep.failures or trace or now - t_measure + rep.run_s > seconds
                or now - t_begin + 1.5 * rep.run_s > RUN_LIMIT_S):
            break
    good = [r for r in reps if not r.failures]
    metrics, samples = {}, {}
    if good:
        result["digests"] = good[0].digests
        result["golden"] = golden_report(workload.name, seed, good[0].digests)
        per_rep = [r.metrics() for r in good]
        samples = {name: [m[name] for m in per_rep] for name in END_TO_END}

    if good and not trace:
        # Set-up is short, so one sample per repetition is noisy: launch it
        # a few more times.  A first round that is short too (no long
        # pretraining before it) is sampled by running those launches on
        # to the first round.
        to_first_round = statistics.median(samples["first_round_s"]) <= FIRST_ROUND_RESAMPLE_S
        for i in range(SETUP_LAUNCHES):
            setup = 0.0
            for j, inv in enumerate(workload.invocations):
                stop_at = "first-round" if to_first_round and j == 0 else "setup"
                child = launch(cli_args(inv, os.path.join(work_dir, "setup", "out"), seed, cfg),
                               os.path.join(work_dir, "setup", f"inv{j}"), deadline,
                               stop_at=stop_at)
                attempted += 1
                marks = child.marks.get("experiments", [])
                if child.error or not marks or (stop_at == "first-round"
                                                and not marks[0]["round_ends"]):
                    failed += 1
                    messages.append(f"set-up launch {i}: {child.error or 'stopped early'}")
                    setup = None
                    break
                setup += child.since_spawn(marks[0]["enter"])
                if stop_at == "first-round":
                    samples["first_round_s"].append(child.since_spawn(marks[0]["round_ends"][0]))
            if setup is not None:
                samples["setup_s"].append(setup)
        for name, (unit, _) in END_TO_END.items():
            metrics[name] = (statistics.median(samples[name]), unit)

    if good and trace:
        traced_dir = os.path.join(work_dir, "trace")
        shutil.rmtree(traced_dir, ignore_errors=True)
        # the digest store holds the untraced digest, so a traced output
        # that differs from it fails here
        traced = checked(run_rep(workload, seed, cfg, os.path.join(work_dir, "rep-traced"),
                                 deadline, trace_dir=traced_dir), "traced rep")
        result["traced_digests"] = traced.digests
        if not traced.failures:
            summaries = []
            for i in range(len(workload.invocations)):
                with open(os.path.join(traced_dir, f"inv{i}", "summary.json")) as f:
                    summaries.append(json.load(f))
            merged = merge_summaries(summaries)
            metrics = layer_metrics(merged)
            metrics["trace.overhead_s"] = (traced.run_s - good[0].run_s, "s")
            metrics["trace.untraced_run_s"] = (good[0].run_s, "s")
            result["untraced_entry_points"] = merged["missing"]
            result["largest_busy"] = ranking(merged, "busy_s")
            result["largest_self"] = ranking(merged, "self_s")

    result.update(attempted=attempted, failed=failed, messages=messages,
                  samples=samples, metrics=metrics, wall_s=time.monotonic() - t_begin)
    return result


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def print_result(result: dict) -> None:
    print(f"== {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"({result['wall_s']:.1f} s)")
    samples = result["samples"]
    for name, (value, unit) in result["metrics"].items():
        if name in END_TO_END:
            better = END_TO_END[name][1]
            n = len(samples.get(name, []))
            print(f"  {name:<22} {value:>14.6g} {unit:<9} {better} is better  n={n}")
        else:
            label = "  (computed)" if any(c in name for c in COMPUTED) else ""
            print(f"  {name:<58} {value:>14.6g} {unit}{label}")
    for key, title in (("largest_busy", "busy"), ("largest_self", "self")):
        if key in result:
            print(f"  largest {title} time, rounds and experiments left out "
                  "(name, self s, busy s, calls):")
            for name, self_s, busy_s, calls in result[key]:
                print(f"    {name:<44} {self_s:>9.3f} {busy_s:>9.3f} {calls:>9d}")
    if result.get("untraced_entry_points"):
        print(f"  not found, so not traced: {', '.join(result['untraced_entry_points'])}")
    if "golden" in result:
        print(f"  {result['golden']}")
    print(f"  failed_ops {result['failed']}/{result['attempted']}")
    for message in result["messages"]:
        print(f"  FAILED {message}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="filver benchmark")
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=11, help="master seed (presets use 11)")
    parser.add_argument("--seconds", type=float, default=60.0,
                        help="measurement window of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated benchmark still kills and reaps its child (see launch)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(SRC, "filver", "cli.py")):
        print(f"perfbench: no filver sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(STATE, exist_ok=True)

    src_digest = source_digest()
    env = environment(src_digest)
    store = DigestStore(os.path.join(STATE, "digests.json"))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                              store, src_digest)
        result["environment"] = env
        results.append(result)
        print_result(result)
        os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
        with open(os.path.join(STATE, "results",
                               f"{name}-seed{args.seed}-trace{args.trace}.json"), "w") as f:
            json.dump(result, f, indent=1)
    print("environment " + json.dumps(env, sort_keys=True))

    failed = sum(r["failed"] for r in results)
    prefix = len(results) > 1
    metrics = {}
    for r in results:
        for name, (value, unit) in r["metrics"].items():
            metrics[f"{r['workload']}/{name}" if prefix else name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0 and all(r["metrics"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
