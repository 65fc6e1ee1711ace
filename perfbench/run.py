#!/usr/bin/env python3
"""Build and run the simulator benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload nopressure --seed 1 --seconds 30 --trace 0

Builds the Go benchmark (perfbench/, a module of its own that builds the
simulator from the checkout's source) into .bench_build/, with every Go
cache and temporary directory inside .bench_build/ too, then runs it. The
benchmark's standard output passes through unchanged: human-readable
lines, then one JSON result line. The exit code is the benchmark's; a
failed build exits 1 without printing a result.
"""

import argparse
import os
import subprocess
import sys

# A run must end within this many seconds; the benchmark itself is sized
# to finish well inside it.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build_dir = os.path.join(root, ".bench_build")
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build_dir, "gocache"),
        GOMODCACHE=os.path.join(build_dir, "gomodcache"),
        GOTMPDIR=tmp_dir,
        # The go command keeps its settings and telemetry under the user
        # config directory; point that inside the checkout too.
        XDG_CONFIG_HOME=os.path.join(build_dir, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOWORK="off",
    )
    binary = os.path.join(build_dir, "perfbench")
    try:
        build = subprocess.run(
            ["go", "build", "-buildvcs=false", "-o", binary, "."],
            cwd=bench_dir, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
        ).returncode
    except (OSError, subprocess.TimeoutExpired) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        build = 1
    if build != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [
        binary,
        "-workload", args.workload,
        "-seed", str(args.seed),
        "-seconds", repr(args.seconds),
        "-trace", str(args.trace),
        "-digests", os.path.join(bench_dir, "testdata", "digests.json"),
        "-commit", commit(root),
    ]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=root, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print("perfbench: run exceeded %ds" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


def commit(root):
    """The checked-out commit, or "unknown" outside a git work tree."""
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


if __name__ == "__main__":
    sys.exit(main())
