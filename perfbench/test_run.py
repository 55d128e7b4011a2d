#!/usr/bin/env python3
"""The benchmark's own tests: a reduced-size run of every workload through
every output check, and negative cases proving each check fires.

    python3 perfbench/test_run.py

Run from the root of a checkout; builds the workload runner first, as
perfbench/run.py does.
"""
import contextlib
import copy
import io
import json
import subprocess
import sys
import unittest
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, seed=7):
    """Runs the reduced-size benchmark in-process: (exit code, result)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(seed),
                         "--seconds", "0", "--trace", str(trace), "--smoke"])
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def tampering(mutate):
    """Patches run.run_rep so every record it returns passes through
    `mutate(record, kwargs)` first."""
    real = run.run_rep

    def fake(*args, **kwargs):
        rep = real(*args, **kwargs)
        mutate(rep, kwargs)
        return rep
    return mock.patch.object(run, "run_rep", fake)


class SmokeRun(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with contextlib.redirect_stdout(sys.stderr):
            run.build()

    def test_every_workload_passes_and_prints_every_metric(self):
        names = {0: {m["name"] for m in SPEC["end_to_end"]},
                 1: {m["name"] for m in SPEC["per_layer"]}}
        self.assertEqual({w["name"] for w in SPEC["workloads"]},
                         set(run.WORKLOADS))
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    code, result = bench(workload, trace)
                    self.assertEqual(code, 0)
                    self.assertTrue(result["correct"])
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(set(result["metrics"]), names[trace])

    def test_simulated_metrics_repeat_exactly_at_a_fixed_seed(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = bench(workload, 0, seed=11)[1]
                second = bench(workload, 0, seed=11)[1]
                for name in ("delivery_ratio", "msgs_per_proc",
                             "latency_ms_mean"):
                    self.assertEqual(first["metrics"][name],
                                     second["metrics"][name])
                self.assertEqual(first["failed"], second["failed"])

    def test_refuses_a_tree_without_sources(self):
        with mock.patch.object(run, "ROOT", Path("/nonexistent")):
            with self.assertRaises(SystemExit) as cm:
                run.build()
        self.assertNotEqual(cm.exception.code, 0)


class ChecksFire(unittest.TestCase):
    """Each check rejects a tampered record, alone and through main()."""

    @classmethod
    def setUpClass(cls):
        with contextlib.redirect_stdout(sys.stderr):
            binary = run.build()
        cls.rep = run.run_rep(binary, "churn_wire", 5, smoke=True)

    def test_exactly_once(self):
        run.check_exactly_once(self.rep)
        bad = copy.deepcopy(self.rep)
        bad["delivered"] = bad["expected"] + 1
        with self.assertRaises(run.CheckFailed):
            run.check_exactly_once(bad)

    def test_fingerprints(self):
        run.check_same_fingerprint(self.rep, copy.deepcopy(self.rep), "same")
        bad = copy.deepcopy(self.rep)
        bad["fingerprint"] = "0" * 16
        with self.assertRaises(run.CheckFailed):
            run.check_same_fingerprint(bad, self.rep, "tampered")

    def test_build_flags(self):
        run.check_build(self.rep)
        for field, value in (("assertions", True), ("sanitizer", True),
                             ("build_flags", "-O1 -fsanitize=undefined")):
            bad = copy.deepcopy(self.rep)
            bad["meta"][field] = value
            with self.subTest(field=field), self.assertRaises(run.CheckFailed):
                run.check_build(bad)

    def assert_fails(self, workload, trace, mutate):
        with tampering(mutate):
            code, result = bench(workload, trace)
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])

    def test_over_delivery_fails_a_timed_run(self):
        def mutate(rep, _):
            rep["delivered"] = rep["expected"] + 1
        self.assert_fails("steady_group", 0, mutate)

    def test_traced_fingerprint_mismatch_fails(self):
        def mutate(rep, kwargs):
            if kwargs.get("trace"):
                rep["fingerprint"] = "0" * 16
        self.assert_fails("steady_group", 1, mutate)

    def test_serial_fingerprint_mismatch_fails(self):
        def mutate(rep, kwargs):
            if kwargs.get("threads") == 1:
                rep["fingerprint"] = "0" * 16
        self.assert_fails("sharded_fleet", 1, mutate)

    def test_codec_off_fingerprint_mismatch_fails(self):
        def mutate(rep, kwargs):
            if kwargs.get("codec") is False:
                rep["fingerprint"] = "0" * 16
        self.assert_fails("churn_wire", 1, mutate)


class Detlint(unittest.TestCase):
    def test_sources_pass_without_allowlist_entries(self):
        detlint = run.ROOT / "tools" / "detlint" / "detlint.py"
        if not detlint.is_file():
            self.skipTest("tools/detlint is not in this tree")
        sources = sorted(str(p) for p in run.BENCH_DIR.glob("*.cpp"))
        proc = subprocess.run(
            [sys.executable, str(detlint), "--root", str(run.ROOT),
             "--show-allowed", *sources],
            capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        for line in proc.stdout.splitlines():
            if "allowed by" in line:
                self.assertIn("allowed by inline:", line)


if __name__ == "__main__":
    unittest.main()
