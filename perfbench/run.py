#!/usr/bin/env python3
"""Day-level benchmark entry point.

Run from the root of a checkout:

    python3 perfbench/run.py --workload day-w3 --seed 1 --seconds 55 --trace 0

Builds the benchmark program (perfbench/CMakeLists.txt, which compiles the
repository's src/ libraries) into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), then runs one measurement. Build output goes to
standard error; the last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}, preceded by the run record.
With --trace 1 the spans and the per-layer table are also written to
<build dir>/trace/.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
import time

WORKLOADS = ("day-w3", "multiday-w2", "service-w1", "service-w1-serial")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            configure = subprocess.run(
                ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                 build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT)
            if configure.returncode != 0:
                # Leave no half-configured tree behind for the next run.
                cache = os.path.join(build_dir, "CMakeCache.txt")
                if os.path.exists(cache):
                    os.remove(cache)
                fail("configure failed")
        result = subprocess.run(
            ["cmake", "--build", build_dir, "--target", "day_bench", "-j",
             jobs],
            stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT)
        if result.returncode != 0:
            fail("build failed")
    return os.path.join(build_dir, "day_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative", 2)
    if not 1 <= args.seconds <= 600:
        fail("--seconds must be in [1, 600]", 2)

    forced = sorted(k for k in os.environ if k.startswith("CARP_FORCE_"))
    if forced:
        fail("refusing to run with %s set: each selects a non-default path"
             % ", ".join(forced), 2)

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    binary = build(build_dir)

    command = [binary, "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(build_dir, "trace")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-dir", trace_dir]

    start = time.monotonic()
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, cwd=ROOT,
                             timeout=args.seconds + 120)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within %d s" % (args.seconds + 120))
    out = run.stdout.decode()
    if run.returncode != 0:
        sys.stdout.write(out)
        fail("benchmark exited with code %d" % run.returncode,
             run.returncode)
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("benchmark printed no result")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result: " + lines[-1])
    if result["correct"] is not True:
        fail("benchmark reported incorrect output")
    sys.stdout.write(out)
    print("perfbench: %s seed %d finished in %.1f s"
          % (args.workload, args.seed, time.monotonic() - start),
          file=sys.stderr)


if __name__ == "__main__":
    main()
