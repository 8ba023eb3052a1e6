#!/usr/bin/env python3
"""End-to-end benchmark for leodivide.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. Builds the library and the driver from
source into .bench_build (or $CARGO_TARGET_DIR, if set), runs one workload in
one process and prints the driver's output, whose last line is the JSON
result. Workloads and metrics are listed in BENCHMARK.json; what each
per-layer metric should move is in perfbench/workloads.json. --selftest
builds and runs the benchmark's own tests.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The driver stops itself well before this; the margin keeps the whole run
# inside three minutes even when the build check and set-up are slow.
RUN_TIMEOUT_S = 160


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir, targets):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no leodivide sources in {ROOT}; nothing to build")
    if not (build_dir / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs,
                    "--target", *targets], stdout=sys.stderr, check=True)


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json lists for this mode, or None."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return None
    spec = json.loads(spec_path.read_text())
    section = spec["per_layer" if trace else "end_to_end"]
    return [(m["name"], m["unit"]) for m in section]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = Path.cwd() / build_root
    build_dir = build_root / "perfbench"

    try:
        if args.selftest:
            build(build_dir, ["perfbench_tests"])
            sys.exit(subprocess.run([str(build_dir / "perfbench_tests")]).returncode)
        if not args.workload:
            parser.error("--workload is required")
        build(build_dir, ["perfbench"])
    except subprocess.CalledProcessError as e:
        fail(f"build failed: {e}")

    workdir = build_root / "work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    trace = args.trace == "1"
    command = [str(build_dir / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--workdir", str(workdir),
               "--trace-file", str(build_root / f"trace-{args.workload}.json")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if run.returncode != 0:
        fail(f"driver exited with code {run.returncode}")

    lines = run.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    expected = expected_metrics(trace)
    got = [(name, m["unit"]) for name, m in result["metrics"].items()]
    if expected is not None and sorted(got) != sorted(expected):
        fail("driver metrics do not match BENCHMARK.json: "
             f"{sorted(set(got) ^ set(expected))}")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
