"""Smoke test of the benchmark itself.

Runs every workload once at a tiny size, checks that the traced run reports
every per-layer metric, and checks that deliberately corrupted reports are
counted as failures and make the result incorrect.  Run from the root of a
checkout:

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import ROOT  # noqa: E402


def corrupt_gram(stdout: str) -> str:
    """Change one entry of the dumped projector matrix."""
    data = json.loads(stdout)
    rows = next(s for s in data["sections"] if s["title"] == "projector matrix")["rows"]
    entries = rows[3]["value"].split(" | ")
    entries[5] = "4/9" if entries[5] != "4/9" else "1/9"
    rows[3]["value"] = " | ".join(entries)
    return json.dumps(data)


def drop_row(stdout: str, name: str) -> str:
    """Drop the first row of a text report whose name is ``name``."""
    lines = stdout.splitlines(keepends=True)
    index = next(i for i, line in enumerate(lines) if line.strip().startswith(name + "  "))
    return "".join(lines[:index] + lines[index + 1:])


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = run.load_spec()
        cls.tmp = tempfile.TemporaryDirectory(prefix="perfbench-tmp-", dir=ROOT)
        cls.passes = {}
        for name, make in workloads.WORKLOADS.items():
            commands = make(random.Random(3), Path(cls.tmp.name), tiny=True).next_pass()
            cls.passes[name] = [(cmd, run.spawn(cmd.argv)) for cmd in commands]

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def outcome(self, workload: str, first_arg: str):
        return next((cmd, out) for cmd, out in self.passes[workload] if cmd.argv[0] == first_arg)

    def test_every_workload_passes_its_checks_at_tiny_size(self):
        for name, pairs in self.passes.items():
            for cmd, out in pairs:
                with self.subTest(workload=name, argv=cmd.argv):
                    self.assertEqual(out.problems + cmd.check(out.code, out.stdout), [])
                    self.assertGreater(out.exec_s, 0)
                    self.assertGreater(out.setup_s, 0)

    def test_corrupted_reports_are_rejected(self):
        cmd, out = self.outcome("reproduce", "verify")
        self.assertTrue(cmd.check(0, drop_row(out.stdout, "V_diag")))
        dump = [(c, o) for c, o in self.passes["reproduce"] if "--dump-gram" in c.argv][0]
        self.assertTrue(dump[0].check(0, corrupt_gram(dump[1].stdout)))
        cmd, out = self.outcome("witt", "embed")
        self.assertTrue(cmd.check(0, drop_row(out.stdout, "k")))
        cmd, out = self.outcome("regions", "regions")
        self.assertTrue(cmd.check(0, re.sub(r"(region1\s+)\d+", r"\g<1>0", out.stdout)))
        self.assertTrue(cmd.check(0, drop_row(out.stdout, "region1")))
        cmd, out = self.outcome("symbolic", "solve")
        self.assertTrue(cmd.check(0, out.stdout.replace("verdict      accepted", "verdict      rejected", 1)))
        cmd, out = self.outcome("symbolic", "classify")
        self.assertTrue(cmd.check(1, out.stdout))

    def test_a_corrupted_report_counts_as_failed(self):
        """One wrong Gram string in a pass: failed = 1 and the result is not correct."""
        stored = {tuple(cmd.argv): out for cmd, out in self.passes["reproduce"]}
        corrupted = []

        def fake_spawn(argv):
            out = stored.get(tuple(argv)) or run.Outcome(0, "", 0.0, 0.1, 1, cal_s=0.01)
            if "--dump-gram" in argv:
                out = run.Outcome(out.code, corrupt_gram(out.stdout), out.exec_s, out.setup_s,
                                  out.maxrss_kb, cal_s=out.cal_s)
                corrupted.append(argv)
            return out

        class Replay(workloads.Reproduce):
            def next_pass(inner):
                return [cmd for cmd, _ in self.passes["reproduce"]]

        original = run.spawn
        run.spawn = fake_spawn
        try:
            result = run.measure(Replay(random.Random(3), Path(self.tmp.name)), "reproduce", 3, 0.0,
                                 False, self.spec)["result"]
        finally:
            run.spawn = original
        self.assertEqual(len(corrupted), 1)
        self.assertEqual((result["attempted"], result["failed"], result["correct"]), (4, 1, False))

    def test_traced_run_reports_every_layer(self):
        workload = workloads.Symbolic(random.Random(3), Path(self.tmp.name), tiny=True)
        report = run.measure(workload, "symbolic", 3, 0.0, True, self.spec)
        self.assertEqual(sorted(report["result"]["metrics"]), sorted(self.spec["per_layer"]))
        self.assertTrue(report["result"]["correct"])
        metrics = report["result"]["metrics"]
        self.assertGreater(metrics["polynomials.compose_cleared.calls"]["value"], 0)
        self.assertGreater(metrics["dioph.brute_solver.s"]["value"], 0)

    def test_refuses_to_run_without_the_program(self):
        with tempfile.TemporaryDirectory(prefix="perfbench-tmp-", dir=ROOT) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(Path(__file__).resolve().parent, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "witt", "--seed", "1",
                                   "--seconds", "1", "--trace", "0"], cwd=tmp, capture_output=True,
                                  text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
