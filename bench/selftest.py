"""Self-tests of the benchmark itself.

Run from the repository root:  python3 bench/selftest.py
"""

from __future__ import annotations

import json
import unittest
from time import perf_counter
from unittest import mock

import run
import tracer
import workloads
from saloha import engine

CAPPED = workloads.WORKLOADS["capped-dense"]


def snapshot(targets=tracer.TARGETS) -> list:
    """The current object behind every traced attribute."""
    owners = (tracer.resolve_owner(path) for _, path, _ in targets)
    return [vars(owner).get(attr) for owner, (_, _, attr) in zip(owners, targets)]


class DigestCheck(unittest.TestCase):
    def test_clean_run_matches_and_perturbed_trace_fails(self):
        golden = workloads.load_golden()
        self.assertEqual(workloads.attempt(CAPPED, 1, golden).error, "")

        original_run = engine.Engine.run

        def perturbed_run(self):
            trace, metrics = original_run(self)
            trace.local_start[0] += 1
            return trace, metrics

        with mock.patch.object(engine.Engine, "run", perturbed_run):
            res = workloads.attempt(CAPPED, 1, golden)
        self.assertEqual(res.error, "output differs from pinned: digests.trace")


class Deadline(unittest.TestCase):
    def test_deadline_fires_on_the_liveness_case(self):
        case = workloads.LIVENESS
        start = perf_counter()
        res = workloads.attempt(case, case.fixed_seed, workloads.load_golden())
        self.assertTrue(res.error.startswith("deadline"), res.error)
        self.assertLess(perf_counter() - start, case.deadline_s + 2.0)


class Tracing(unittest.TestCase):
    def test_traced_run_restores_every_wrapped_attribute(self):
        before = snapshot()
        with tracer.Tracer() as tr:
            during = snapshot()
            res = workloads.attempt(CAPPED, 1, workloads.load_golden())
        self.assertEqual(res.error, "")
        self.assertTrue(all(a is not b for a, b in zip(before, during)))
        self.assertTrue(all(a is b for a, b in zip(before, snapshot())))
        self.assertGreater(tr.spans["engine.enforce_duty_cycle"].calls, 0)
        self.assertEqual(tr.spans["report.write_summary"].calls, 0)

    def test_attributes_are_restored_after_an_exception(self):
        before = snapshot()
        with self.assertRaises(RuntimeError), tracer.Tracer():
            raise RuntimeError
        self.assertTrue(all(a is b for a, b in zip(before, snapshot())))

    def test_a_removed_name_reports_zero_calls(self):
        targets = tracer.TARGETS + (
            ("gone.function", "saloha.engine", "no_such_function"),
            ("gone.class", "saloha.engine:NoSuchClass", "run"),
            ("gone.module", "saloha.no_such_module", "run"),
        )
        with tracer.Tracer(targets) as tr:
            pass
        for name in ("gone.function", "gone.class", "gone.module"):
            self.assertEqual(tr.spans[name].calls, 0)


class Spec(unittest.TestCase):
    def test_benchmark_json_matches_what_the_runs_report(self):
        with open(workloads.BENCH_DIR.parent / "BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        for w in spec["workloads"]:
            self.assertEqual(w["why"], workloads.WORKLOADS[w["name"]].why)
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END)
        )
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            list(run.PER_LAYER),
        )


if __name__ == "__main__":
    unittest.main()
