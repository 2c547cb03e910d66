#!/usr/bin/env python3
"""Build and run one `hazel serve` benchmark run.

    python3 perfbench/run.py --workload drag|edit|sessions --seed N \
        --seconds S --trace 0|1

Builds the release `hazel` binary and the `perfbench` load generator
from source (into $CARGO_TARGET_DIR, default `.bench_build` at the
repository root), then runs the generator. Its last stdout line is the
JSON result; with --trace 0 it holds the end-to-end metrics, with
--trace 1 the per-layer ones. Build output goes to stderr. Exits
non-zero without a result when the checkout has no sources to build.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("drag", "edit", "sessions")


def build(target_dir):
    """Builds both binaries; returns the paths of hazel and perfbench."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    steps = [
        ["cargo", "build", "--release", "--offline", "-p", "hazel", "--bin", "hazel"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"run.py: build failed: {' '.join(cmd)}")
    release = os.path.join(target_dir, "release")
    return os.path.join(release, "hazel"), os.path.join(release, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "crates", "hazel", "Cargo.toml")):
        sys.exit("run.py: no hazel sources next to perfbench/; nothing to benchmark")

    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target_dir = os.path.join(ROOT, target_dir)
    hazel, perfbench = build(target_dir)
    done = subprocess.run([
        perfbench,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--hazel", hazel,
        "--out", os.path.join(target_dir, "perfbench"),
    ], cwd=ROOT)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
