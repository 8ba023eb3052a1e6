#!/usr/bin/env python3
"""CLI tests for bench_check.py: exit codes and diagnostics for the happy
path, missing cases, empty/absent case lists, unknown bench names, gate
failures and malformed baselines. Registered as the ``tools.bench_check``
ctest."""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "bench_check.py")

HARNESS_LINES = "\n".join(
    [
        "leodivide micro_perf harness",  # non-JSON noise must be ignored
        json.dumps(
            {
                "bench": "sim.schedule",
                "cells": 100,
                "sats": 24,
                "naive_ms": 10.0,
                "indexed_ms": 2.0,
                "speedup": 5.0,
            }
        ),
        json.dumps(
            {
                "bench": "sim.schedule",
                "cells": 400,
                "sats": 24,
                "naive_ms": 40.0,
                "indexed_ms": 4.0,
                "speedup": 10.0,
            }
        ),
        "not json {",
    ]
)


def baseline(cases, bench="sim.schedule", min_speedup=2.0, **extra):
    data = {"bench": bench, "min_speedup": min_speedup, "cases": cases}
    data.update(extra)
    return data


def case(cells, speedup, **extra):
    data = {"cells": cells, "sats": 24, "indexed_ms": 2.0, "speedup": speedup}
    data.update(extra)
    return data


class BenchCheckCli(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)
        self.output = self.write("output.txt", HARNESS_LINES)

    def write(self, name, text):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        return path

    def write_baseline(self, name, data):
        return self.write(name, json.dumps(data))

    def run_check(self, *argv):
        return subprocess.run(
            [sys.executable, SCRIPT, *argv],
            capture_output=True,
            text=True,
            check=False,
        )

    def test_happy_path_passes(self):
        path = self.write_baseline(
            "b.json", baseline([case(100, 4.8), case(400, 9.5)])
        )
        proc = self.run_check(self.output, path)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("ok: all 2 case(s)", proc.stdout)

    def test_missing_case_fails(self):
        path = self.write_baseline("b.json", baseline([case(999, 4.0)]))
        proc = self.run_check(self.output, path)
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("missing from harness output", proc.stdout)
        self.assertIn("1 case(s) missing", proc.stdout)

    def test_empty_case_list_is_an_error_not_a_pass(self):
        path = self.write_baseline("b.json", baseline([]))
        proc = self.run_check(self.output, path)
        self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)
        self.assertIn("declares no cases", proc.stderr)

    def test_absent_case_list_is_an_error(self):
        path = self.write_baseline(
            "b.json", {"bench": "sim.schedule", "min_speedup": 2.0}
        )
        proc = self.run_check(self.output, path)
        self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)
        self.assertIn("has no 'cases'", proc.stderr)

    def test_unknown_bench_name_is_diagnosed(self):
        path = self.write_baseline(
            "b.json", baseline([case(100, 4.0)], bench="sim.schedul")
        )
        proc = self.run_check(self.output, path)
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("no harness lines for bench 'sim.schedul'", proc.stdout)

    def test_gate_failure_fails(self):
        path = self.write_baseline(
            "b.json", baseline([case(100, 4.8)], min_speedup=6.0)
        )
        proc = self.run_check(self.output, path)
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("1 case(s) below their speedup gate", proc.stdout)

    def test_per_case_gate_overrides_default(self):
        path = self.write_baseline(
            "b.json",
            baseline([case(100, 4.8, min_speedup=4.5)], min_speedup=6.0),
        )
        proc = self.run_check(self.output, path)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_malformed_baseline_json_is_an_error(self):
        path = self.write("b.json", "{not json")
        proc = self.run_check(self.output, path)
        self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)
        self.assertIn("unusable baseline", proc.stderr)

    def test_baseline_without_min_speedup_is_an_error(self):
        path = self.write_baseline(
            "b.json", {"bench": "sim.schedule", "cases": [case(100, 4.0)]}
        )
        proc = self.run_check(self.output, path)
        self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)
        self.assertIn("has no 'min_speedup'", proc.stderr)

    def test_output_without_any_bench_lines_fails(self):
        empty = self.write("empty.txt", "no json here\n")
        path = self.write_baseline("b.json", baseline([case(100, 4.0)]))
        proc = self.run_check(empty, path)
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("no bench JSON lines", proc.stdout)

    def test_usage_without_args_exits_2(self):
        proc = self.run_check()
        self.assertEqual(proc.returncode, 2)


if __name__ == "__main__":
    unittest.main()
