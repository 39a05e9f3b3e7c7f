"""Self-tests of the benchmark, on a tiny config that runs in seconds.

    python3 perfbench/selftest.py        (from the root of a checkout)

They run the tiny workload through both modes and check that the traced
run writes the same `rounds.csv` as the untraced one, that the digest equals
the recorded tiny golden (a fast check that the program's output has not
changed), that every metric named in BENCHMARK.json is reported, and that
the tracer's wrappers are all removed again.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from workloads import WORKLOADS, Invocation, Workload  # noqa: E402

# every layer (conv, stats payloads, snapshots, resume) in a few seconds
TINY = Workload(
    "tiny",
    (Invocation(("run", "{cfg}", "--out", "{out}", "--seed", "{seed}", "--checkpoint-every", "2",
                 "--stop-after-round", "3", "--quiet"), (("rounds.csv", 3),)),
     Invocation(("run", "{cfg}", "--out", "{out}", "--seed", "{seed}", "--checkpoint-every", "2",
                 "--resume", "{out}/checkpoint", "--quiet"), (("rounds.csv", 6),))),
    base_preset="scenario4-split4",
    overrides=(("dataset.classes", "4"), ("dataset.per_class", "30"), ("dataset.image_size", "16"),
               ("protocol.tasks", "2"), ("protocol.classes_per_task", "2"),
               ("fl.rounds_per_task", "3"), ("fl.local_iters", "2"), ("fl.s_max", "2"),
               ("model.pretrain_epochs", "1"), ("model.hidden", "16"), ("model.embed_dim", "8"),
               ("model.conv_channels", "2,4"), ("model.classifier_hidden", "16"),
               ("strategy.kind", "ver_stats"), ("strategy.memory", "x16")),
)
TINY_SEED = 3
TINY_GOLDEN = {"rounds.csv": "3b4bb58c93a22ed34d7deda61aa739a3c2369e24334befcf8b67ef1dc5a28567"}


def benchmark_json() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class TinyWorkload(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        sys.path.insert(0, run.SRC)
        shutil.rmtree(os.path.join(run.STATE, "runs", TINY.name), ignore_errors=True)
        src = run.source_digest()
        store = run.DigestStore(os.path.join(run.STATE, "selftest-digests.json"))
        store.data.clear()
        cls.plain = run.run_workload(TINY, TINY_SEED, 0.0, False, store, src)
        cls.traced = run.run_workload(TINY, TINY_SEED, 0.0, True, store, src)

    def test_both_modes_pass_their_checks(self):
        for result in (self.plain, self.traced):
            self.assertEqual(result["failed"], 0, result["messages"])
            self.assertGreater(result["attempted"], 0)

    def test_benchmark_json_workloads_are_defined(self):
        for w in benchmark_json()["workloads"]:
            self.assertIn(w["name"], WORKLOADS)

    def test_end_to_end_metrics_match_benchmark_json(self):
        names = [m["name"] for m in benchmark_json()["end_to_end"]]
        self.assertEqual(sorted(self.plain["metrics"]), sorted(names))
        for name, (value, _) in self.plain["metrics"].items():
            self.assertGreater(value, 0, name)
        # the tiny first round is early, so the set-up launches sample it too
        self.assertEqual(len(self.plain["samples"]["setup_s"]), run.SETUP_LAUNCHES + 1)
        self.assertEqual(len(self.plain["samples"]["first_round_s"]), run.SETUP_LAUNCHES + 1)

    def test_per_layer_metrics_match_benchmark_json(self):
        names = [m["name"] for m in benchmark_json()["per_layer"]]
        self.assertEqual(sorted(self.traced["metrics"]), sorted(names))
        m = {k: v for k, (v, _) in self.traced["metrics"].items()}
        self.assertGreater(m["numcore.conv2d_forward.calls"], 0)
        self.assertGreater(m["numcore.conv2d_forward.gflop"], 0)
        self.assertEqual(m["federation.run_round.calls"], 6)
        self.assertGreater(m["federation.upload.bytes.stats"], 0)
        self.assertEqual(m["federation.upload.bytes.raw"], 0)
        self.assertGreater(m["storage.read_record_frame.calls"], 0)
        self.assertGreater(m["rehearsal.load_buffer.bytes"], 0)
        # scattered enrollment of 4 clients over 2 tasks: 2 active per task
        self.assertEqual(m["scenarios.participants_per_round"], 2)

    def test_traced_output_equals_untraced_and_golden(self):
        self.assertEqual(self.plain["digests"], self.traced["digests"])
        self.assertEqual(self.plain["digests"], TINY_GOLDEN)


class Tracing(unittest.TestCase):
    def test_wrappers_cover_by_name_imports_and_are_removed(self):
        sys.path.insert(0, run.SRC)
        import filver.federation as federation
        import filver.rehearsal as rehearsal
        from tracer import Tracer

        before = {name: dict(vars(mod)) for name, mod in sys.modules.items()
                  if name.startswith("filver")}
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIs(federation.admit, rehearsal.admit)
            self.assertIsNot(federation.admit, before["filver.rehearsal"]["admit"])
            self.assertIsNot(federation.sgd_step, before["filver.numcore"]["sgd_step"])
        finally:
            tracer.uninstall()
        for name, attrs in before.items():
            for key, value in attrs.items():
                self.assertIs(vars(sys.modules[name])[key], value, f"{name}.{key}")
        self.assertFalse(hasattr(federation.ExperimentState.evaluate, "__wrapped__"))


class Checks(unittest.TestCase):
    def test_changed_output_is_a_failure(self):
        store = run.DigestStore(os.path.join(run.STATE, "selftest-store.json"))
        store.data.clear()
        self.assertIsNone(store.check("k", {"rounds.csv": "a"}))
        self.assertIsNone(store.check("k", {"rounds.csv": "a"}))
        self.assertIsNotNone(store.check("k", {"rounds.csv": "b"}))

    def test_refuses_to_run_without_the_program(self):
        bare = os.path.join(run.STATE, "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "desk-split4",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("correct", proc.stdout)


if __name__ == "__main__":
    unittest.main()
