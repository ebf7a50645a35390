#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (which compiles the library from src/) in
Release mode into a subdirectory of $CARGO_TARGET_DIR (.bench_build when
that is unset) named after this checkout's perfbench/ path, so checkouts
that share the variable never build each other's sources.  Then it runs the
workload as PROCESSES sequential measuring processes of S / PROCESSES
seconds each and reports, per metric, the median over the processes: on a
shared host a process's speed depends on where and when it runs, so one
process reads several percent off its neighbours (see README.md).  A traced
run (--trace 1) uses one process: its per-layer numbers carry no bound.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; its metric names and units are checked
against BENCHMARK.json (end_to_end with --trace 0, per_layer with --trace 1).

Exit code: 0 when every check passed; 1 when a correctness check failed
(the result line still prints, with "correct": false); any other non-zero
code, with no result line, when the build, a run or a result line failed.
"""

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROCESSES = 3          # measuring processes of an untraced run
TRACED_PROCESSES = 1   # measuring processes of a traced run
BUILD_TIMEOUT_S = 700  # configure and build, a first build in a fresh checkout
# A run is stopped after RUN_TIMEOUT_PER_S * --seconds + RUN_TIMEOUT_EXTRA_S
# (170 s at --seconds 10).  Its processes together measure --seconds; a
# traced run measures a traced pass of about the same length as its
# untraced one.  The fixed part covers what every process adds: set-up, host
# calibration, checks, and the rest of the unit of work it is in when its
# share of --seconds runs out.
RUN_TIMEOUT_PER_S = 2.0
RUN_TIMEOUT_EXTRA_S = 150.0
# Outputs that are pure functions of the seed: every process must agree.
DETERMINISTIC = ("cost_usd", "brown_mwh")
# Deterministic figures a process prints as a note line `name = value unit`
# rather than as a metric (sojourn_p99_s is des_replay's only).
DETERMINISTIC_NOTES = re.compile(r"^(sojourn_p99_s) = (\S+) ")


def fail(message, code=3):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    # One build tree per source tree: a tree configured from another
    # checkout's perfbench/ is never reused, and configuring on every call is
    # cheap when nothing changed.
    tag = hashlib.sha256(HERE.encode()).hexdigest()[:16]
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, f"perfbench-{tag}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "--target", "coca_perfbench",
              "-j", jobs]]
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for step in steps:
        try:
            # Build chatter goes to stderr: stdout carries only the result.
            left = max(1.0, deadline - time.monotonic())
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                  timeout=left)
        except (OSError, subprocess.TimeoutExpired) as error:
            fail(f"build step {' '.join(step[:2])} failed: {error}")
        if done.returncode != 0:
            fail(f"build step {' '.join(step[:2])} exited {done.returncode}")
    return os.path.join(build_dir, "coca_perfbench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    key = "per_layer" if trace else "end_to_end"
    return {metric["name"]: metric["unit"] for metric in spec[key]}


def measure(binary, args, processes, deadline):
    """One measuring process: its notes and its parsed result line."""
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds / processes),
               "--trace", str(args.trace)]
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except (OSError, subprocess.TimeoutExpired) as error:
        fail(f"benchmark process failed: {error}")
    sys.stderr.write(done.stderr)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode not in (0, 1) or not lines[-1].startswith("{"):
        fail(f"benchmark process exited {done.returncode} without a result")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as error:
        fail(f"result line is not JSON: {error}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    return lines[:-1], result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in (0, 600]", code=2)
    want = declared_metrics(args.trace)

    binary = build()
    processes = TRACED_PROCESSES if args.trace else PROCESSES
    deadline = (time.monotonic() + RUN_TIMEOUT_PER_S * args.seconds +
                RUN_TIMEOUT_EXTRA_S)
    results = []
    figures = {}
    for index in range(processes):
        notes, result = measure(binary, args, processes, deadline)
        for note in notes:
            print(f"[process {index + 1}/{processes}] {note}")
            match = DETERMINISTIC_NOTES.match(note)
            if match:
                figures.setdefault(match.group(1), []).append(match.group(2))
        got = {name: entry["unit"] for name, entry in result["metrics"].items()}
        if got != want:
            fail(f"metrics differ from BENCHMARK.json: missing "
                 f"{sorted(set(want) - set(got))}, unexpected "
                 f"{sorted(set(got) - set(want))}, or units differ")
        results.append(result)

    correct = all(result["correct"] for result in results)
    for name, values in figures.items():
        if len(values) != processes or len(set(values)) != 1:
            print(f"CHECK FAILED: {name} differs between processes: {values}")
            correct = False
    metrics = {}
    for name, unit in want.items():
        values = [result["metrics"][name]["value"] for result in results]
        if name in DETERMINISTIC and len(set(values)) != 1:
            print(f"CHECK FAILED: {name} differs between processes: {values}")
            correct = False
        metrics[name] = {"value": statistics.median(values), "unit": unit}
        print(f"{name} = {metrics[name]['value']!r} {unit} (median of "
              f"{len(values)} processes)")
    summary = {
        "correct": correct,
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": metrics,
    }
    print(json.dumps(summary), flush=True)
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
