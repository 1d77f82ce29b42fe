"""Self-tests of the repository benchmark, at smoke size.

Run from the repository root (about two minutes)::

    python3 perfbench/selftest.py

Checks that the workload generators are deterministic per seed, that the
oracle flags a wrong prediction, that traced and untraced runs return
identical predictions, and that every metric named in ``BENCHMARK.json`` is
emitted with its unit.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import workloads  # noqa: E402


def _digest(tables) -> list:
    return [[table.name, [column.content_hash() for column in table.columns]] for table in tables]


class GeneratorTest(unittest.TestCase):
    def test_catalog_scan_is_deterministic_per_seed(self):
        first = _digest(workloads.scan_copy(workloads.scan_corpus(smoke=True), 0))
        self.assertEqual(first, _digest(workloads.scan_copy(workloads.scan_corpus(smoke=True), 0)))
        self.assertEqual(
            _digest(workloads.scan_warmup(5, smoke=True)), _digest(workloads.scan_warmup(5, smoke=True))
        )
        self.assertNotEqual(
            _digest(workloads.scan_warmup(5, smoke=True)), _digest(workloads.scan_warmup(6, smoke=True))
        )

    def test_tenant_traffic_is_deterministic_per_seed(self):
        def schedule(seed):
            traffic = workloads.TenantTraffic(seed, smoke=True)
            requests = traffic.warmup() + traffic.schedule("low", 10.0, 3.0)
            tables = [traffic.table(r.key) for r in requests]
            return requests, [[c.content_hash() for c in t.columns] for t in tables]

        self.assertEqual(schedule(5), schedule(5))
        self.assertNotEqual(schedule(5), schedule(6))

    def test_feedback_plan_is_deterministic_per_seed(self):
        plan = workloads.FeedbackSessions(5, 10).plan()
        self.assertEqual(plan, workloads.FeedbackSessions(5, 10).plan())
        self.assertNotEqual(plan, workloads.FeedbackSessions(6, 10).plan())
        properties = workloads.plan_properties(plan)
        self.assertEqual(properties["corrections"], workloads.feedback_corrections(10, False))
        # every correction is followed by a read of the corrected table
        for step, following in zip(plan, plan[1:]):
            if step.kind == "correct":
                self.assertEqual((following.kind, following.key), ("read", step.key))

    def test_repeat_share_is_measured(self):
        traffic = workloads.TenantTraffic(5, smoke=True)
        seen: set[str] = set()
        workloads.repeat_share(traffic.warmup(), seen)
        share = workloads.repeat_share(traffic.schedule("low", 10.0, 10.0), seen)
        self.assertGreaterEqual(share, 0.9)
        self.assertLess(share, 1.0)


class OracleTest(unittest.TestCase):
    def setUp(self):
        typer = workloads.pretrain(smoke=True)
        table = workloads.scan_warmup(1, smoke=True)[0]
        self.expected = json.loads(json.dumps(typer.annotate(table).to_dict()))

    def test_identical_answer_matches(self):
        answer = json.loads(json.dumps(self.expected))
        answer["table_name"] = "another request id"
        answer["step_seconds"] = {}
        self.assertTrue(oracle.matches(answer, self.expected))

    def test_injected_wrong_prediction_is_flagged(self):
        answer = json.loads(json.dumps(self.expected))
        score = answer["columns"][0]["top_k"][0]
        score["confidence"] = math.nextafter(score["confidence"], 2.0)
        self.assertFalse(oracle.matches(answer, self.expected))
        answer = json.loads(json.dumps(self.expected))
        answer["columns"][-1]["predicted_type"] = "not-a-type"
        self.assertFalse(oracle.matches(answer, self.expected))
        self.assertFalse(oracle.matches(None, self.expected))


class EndToEndTest(unittest.TestCase):
    """Smoke runs of every workload, untraced and traced, with one seed."""

    @classmethod
    def setUpClass(cls):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        cls.expected = {
            0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]},
        }
        cls.runs = {}
        for workload in workloads.WORKLOADS:
            for trace in (0, 1):
                completed = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
                     "--seconds", "2", "--trace", str(trace), "--smoke"],
                    cwd=ROOT, capture_output=True, text=True, timeout=300,
                )
                if completed.returncode != 0:
                    raise AssertionError(f"{workload} trace={trace} failed:\n{completed.stderr[-3000:]}")
                last = json.loads(completed.stdout.strip().splitlines()[-1])
                record = json.loads((HERE / "history.jsonl").read_text(encoding="utf-8").splitlines()[-1])
                cls.runs[workload, trace] = (last, record)

    def test_every_metric_is_emitted_with_its_unit(self):
        for (workload, trace), (last, _) in self.runs.items():
            with self.subTest(workload=workload, trace=trace):
                self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
                self.assertGreaterEqual(last["attempted"], 1)
                units = {name: metric["unit"] for name, metric in last["metrics"].items()}
                self.assertEqual(units, self.expected[trace])
                for metric in last["metrics"].values():
                    self.assertTrue(math.isfinite(metric["value"]))

    def test_traced_and_untraced_runs_return_identical_predictions(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                untraced = self.runs[workload, 0][1]
                traced = self.runs[workload, 1][1]
                self.assertEqual(untraced["fingerprint"], traced["fingerprint"])
                self.assertEqual(untraced["phases"].keys() & {"warm", "low", "high", "cap", "read"},
                                 traced["phases"].keys() & {"warm", "low", "high", "cap", "read"})

    def test_failures_are_counted_per_phase(self):
        last, record = self.runs["adapt_feedback", 0]
        phases = record["phases"].values()
        self.assertEqual(last["attempted"], sum(p["sent"] for p in phases))
        self.assertEqual(last["failed"], sum(p["failed"] for p in phases))
        for p in phases:
            self.assertEqual(p["sent"], p["succeeded"] + p["failed"])


if __name__ == "__main__":
    unittest.main()
