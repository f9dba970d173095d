#!/usr/bin/env python3
"""Builds qborrow and the benchmark from source, then runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cold-verify|edit-loop|daemon-mix \
        --seed N --seconds S --trace 0|1

Both builds go to $CARGO_TARGET_DIR (default: .bench_build). The last line
of standard output is the result JSON; see perfbench/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(target_dir, *args):
    cmd = ["cargo", "build", "--release", "--offline", "-q", *args]
    done = subprocess.run(cmd, cwd=ROOT, env=dict(os.environ, CARGO_TARGET_DIR=target_dir))
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def main():
    for needed in ("Cargo.toml", "crates", os.path.join("src", "bin", "qborrow.rs")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.exit(f"perfbench: {needed} not found next to perfbench/; run from a qborrow checkout")
    target_dir = os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    build(target_dir, "--bin", "qborrow")
    build(target_dir, "--manifest-path", os.path.join(HERE, "Cargo.toml"))
    release = os.path.join(target_dir, "release")
    cmd = [os.path.join(release, "perfbench"), *sys.argv[1:], "--qborrow", os.path.join(release, "qborrow")]
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
