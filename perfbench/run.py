#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree. Configures and builds perfbench/ (the
library plus the ccs_perfbench program, Release) into .bench_build/, then
runs the program, which measures, checks its outputs and prints one JSON
object as the last line of stdout. Build output goes to stderr. Records of
each run land in .bench_out/. The exit code is the program's; a failed build
exits non-zero without printing a result.
"""

import argparse
import fcntl
import hashlib
import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
HERE = os.path.relpath(os.path.dirname(os.path.abspath(__file__)), ROOT)


def run(cmd):
    """Runs a build step with its output on stderr; exits on failure."""
    result = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")


def build():
    os.makedirs(BUILD, exist_ok=True)
    # One build at a time per checkout, even if runs overlap.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        run(["cmake", "--build", BUILD, "--target", "ccs_perfbench", "-j", "4"])
    return os.path.join(BUILD, "ccs_perfbench")


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else "none"


def source_sha():
    """Digest of the library sources, the build file and the benchmark."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", HERE):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in paths:
        if os.path.isfile(path):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["plan-sweep", "serve-steady", "serve-churn"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        sys.exit("perfbench: run from the root of a ccs source tree")
    binary = build()
    os.makedirs(OUT, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", OUT, "--git-sha", git_sha(), "--source-sha", source_sha()]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
