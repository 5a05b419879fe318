#!/usr/bin/env python3
"""Serving benchmark for the distilled-ranker ladder.

Builds the repository's libraries and the benchmark driver from source
(Release, into .bench_build/perfbench), then replays one workload through
the real serve path:

    python3 perfbench/run.py --workload web-mix --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1. Progress, a human-readable summary and the build log
go to stderr; a full report per run lands in
.bench_build/perfbench-out/reports/. See perfbench/WORKLOADS.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
            if sha:
                return "git:" + sha
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def run_checked(cmd, timeout):
    """Runs cmd with its output on stderr; False on failure or timeout."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        log("timed out: " + " ".join(cmd))
        return False
    except OSError as error:
        log("cannot run %s: %s" % (cmd[0], error))
        return False
    return done.returncode == 0


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no repository sources next to perfbench/ (expected src/)")
        return False
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if not run_checked(["cmake", "-S", HERE, "-B", BUILD_DIR,
                            "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
            return False
    return run_checked(["cmake", "--build", BUILD_DIR, "-j", "4"],
                       BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    if not build():
        log("build failed")
        return 2
    if args.self_test:
        ok = run_checked([os.path.join(BUILD_DIR, "perfbench_selftest")],
                         RUN_TIMEOUT_S)
        return 0 if ok else 1

    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT, "--source", source_id()]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark run timed out")
        return 2
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("benchmark printed no result (exit code %d)" % done.returncode)
        return done.returncode or 2
    if set(result) != RESULT_KEYS:
        log("malformed result keys: %s" % sorted(result))
        return 2
    print(json.dumps(result))
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
