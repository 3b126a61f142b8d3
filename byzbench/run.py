#!/usr/bin/env python3
"""Builds and runs one byzcast benchmark run.

    python3 byzbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Configures and builds the benchmark (a
Release build of the library sources plus byzbench/src) into
$CARGO_TARGET_DIR/byzbench, default .bench_build/byzbench, then runs the
byzbench binary. Its stdout is passed through; the last line is one JSON
object with the keys correct, attempted, failed and metrics. The metric
names and units are checked against BENCHMARK.json before that line is
printed. Exits non-zero, without a result line, when the build fails, a
correctness check fails or the output does not match BENCHMARK.json.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"byzbench/run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to byzbench/", 2)
    out_root = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    build_dir = os.path.join(os.path.abspath(out_root), "byzbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "byzbench", "-j", jobs],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the run's output.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "byzbench")


def declared(trace):
    """(name, unit) pairs BENCHMARK.json declares for this kind of run."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(line, trace):
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result line has unexpected keys")
    if result["correct"] is not True or result["attempted"] < 1:
        fail("result is not correct or attempted nothing")
    got = [(name, m["unit"]) for name, m in result["metrics"].items()]
    if sorted(got) != sorted(declared(trace)):
        fail("printed metrics differ from BENCHMARK.json")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1] if lines[-1].startswith("{") else lines) + "\n")
        fail(f"byzbench exited with {run.returncode}", run.returncode)
    check_result(lines[-1], args.trace == 1)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
