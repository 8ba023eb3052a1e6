#!/usr/bin/env python3
"""Gate micro_perf harness output against one or more JSON baselines.

Usage: bench_check.py <harness-output-file> <baseline-json> [<baseline-json>...]

Each harness mode prints one JSON line per case, tagged with its bench name:

    {"bench":"sim.schedule","cells":N,"sats":N,"naive_ms":X,"indexed_ms":Y,"speedup":Z}
    {"bench":"sim.event","cells":N,"sats":N,"epochs":N,"epoch_ms":X,"event_ms":Y,"speedup":Z}

A baseline file names its bench (``bench``), a file-level ``min_speedup``
default, and a list of ``cases``.  A case may carry its own ``min_speedup``,
which overrides the file-level default for that case alone — tighter gates
where the baseline has margin, looser ones where it is close.

Cases are matched to harness lines by every non-timing field (everything
except ``speedup``, ``min_speedup`` and fields ending in ``_ms``), so new
bench kinds work without touching this script.  Absolute milliseconds are
compared against the recorded baseline informationally only (CI runners
and dev machines differ); the best-of speedup ratio is what must hold.

Exits nonzero if any baseline case is missing from the output, fails its
speedup gate, or if a baseline is malformed (no ``bench``/``min_speedup``,
or an empty ``cases`` list — a baseline that gates nothing is a bug, not a
pass).
"""

import json
import sys

TIMING_KEYS = ("speedup", "min_speedup")


def case_key(fields):
    """Host-independent identity of a case: every non-timing field."""
    return tuple(
        sorted(
            (k, v)
            for k, v in fields.items()
            if k not in TIMING_KEYS and not k.endswith("_ms") and k != "bench"
        )
    )


def parse_harness_lines(path):
    """Return {(bench, case_key): record} for every JSON line in the file."""
    results = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line.startswith("{"):
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                continue
            bench = rec.get("bench")
            if bench is None or "speedup" not in rec:
                continue
            results[(bench, case_key(rec))] = rec
    return results


class BaselineError(Exception):
    """A baseline file that cannot gate anything (distinct from a miss)."""


def check_baseline(path, baseline, results):
    """Gate one baseline file's cases; returns (gate_failures, missing)."""
    for field in ("bench", "min_speedup", "cases"):
        if field not in baseline:
            raise BaselineError(f"{path}: baseline has no '{field}' field")
    bench = baseline["bench"]
    default_min = float(baseline["min_speedup"])
    if not baseline["cases"]:
        # An empty case list would "pass" while gating nothing.
        raise BaselineError(f"{path}: baseline '{bench}' declares no cases")
    if not any(b == bench for b, _ in results):
        print(
            f"FAIL: {path}: no harness lines for bench '{bench}' "
            "(bench did not run, or the name is wrong)"
        )
    failures = 0
    missing = 0
    for case in baseline["cases"]:
        key = case_key(case)
        rec = results.get((bench, key))
        label = bench + ": " + " ".join(f"{k}={v}" for k, v in key)
        min_speedup = float(case.get("min_speedup", default_min))
        if rec is None:
            print(f"FAIL: {label}: missing from harness output")
            missing += 1
            continue

        speedup = float(rec["speedup"])
        ok = speedup >= min_speedup
        verdict = "ok" if ok else "FAIL"
        source = "per-case" if "min_speedup" in case else "default"
        print(
            f"{verdict}: {label}: speedup {speedup:.2f}x "
            f"(gate >= {min_speedup:.1f}x {source}, "
            f"baseline {case['speedup']:.2f}x)"
        )
        for field in sorted(case):
            if field.endswith("_ms") and field in rec:
                drift = float(rec[field]) / float(case[field])
                print(
                    f"  info: {field} {float(rec[field]):.3f} ms vs baseline "
                    f"{float(case[field]):.3f} ms ({drift:.2f}x, informational)"
                )
        if not ok:
            failures += 1
    return failures, missing


def main(argv):
    if len(argv) < 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2

    output_path, baseline_paths = argv[1], argv[2:]
    results = parse_harness_lines(output_path)
    if not results:
        print(f"FAIL: no bench JSON lines found in {output_path}")
        return 1

    failures = 0
    missing = 0
    checked = 0
    for baseline_path in baseline_paths:
        try:
            with open(baseline_path, encoding="utf-8") as f:
                baseline = json.load(f)
            if not isinstance(baseline, dict):
                raise BaselineError(f"{baseline_path}: baseline is not an object")
            case_failures, case_missing = check_baseline(
                baseline_path, baseline, results
            )
        except (OSError, json.JSONDecodeError, BaselineError) as err:
            print(f"FAIL: unusable baseline: {err}", file=sys.stderr)
            return 2
        failures += case_failures
        missing += case_missing
        checked += len(baseline["cases"])

    if failures or missing:
        print(
            f"FAIL: {failures} case(s) below their speedup gate, "
            f"{missing} case(s) missing from harness output"
        )
        return 1
    print(f"ok: all {checked} case(s) meet their speedup gates")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
