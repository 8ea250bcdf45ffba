#!/usr/bin/env python3
"""Build the perfbench binary from this checkout's sources and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build goes to .bench_build/perfbench
(a CMake build of perfbench/CMakeLists.txt, which compiles the opsched
libraries from src/). The binary's readable output is passed through, and
the last line of stdout is the result JSON. The run fails, without printing
a result, when the build fails, the binary crashes or overruns, or the result
does not carry exactly the metrics BENCHMARK.json names for the mode. A traced
run also writes a Chrome trace to .bench_build/traces/ and checks it parses.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step %s failed: %s" % (cmd[:2], e))
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build step %s exited %d" % (cmd[:2], done.returncode))


def expected_metrics(traced):
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if traced else "end_to_end"]}


def check_trace(path):
    with open(path) as f:
        events = json.load(f)
    if not isinstance(events, list) or not events:
        fail("trace %s holds no events" % path)
    print("trace: %d events in %s" % (len(events), path), file=sys.stderr)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    traced = args.trace == "1"

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    trace_path = None
    if traced:
        trace_dir = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))
        cmd += ["--trace-out", trace_path]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s overran %d s" % (args.workload, RUN_TIMEOUT_S))

    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("%s exited %d without a result" % (args.workload, done.returncode))
    got = set(result.get("metrics", {}))
    want = expected_metrics(traced)
    if got != want:
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s"
             % (sorted(want - got), sorted(got - want)))
    if traced:
        check_trace(trace_path)
    print("\n".join(lines))
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
