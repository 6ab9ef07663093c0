#!/usr/bin/env python3
"""Build the benchmark and the daemon it drives, then run one benchmark run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload paper-batch --seed 1463882691 \
        --seconds 20 --trace 0

Cargo builds `perfbench` and `stale-served` in release mode from this
directory's own workspace (into $CARGO_TARGET_DIR, else perfbench/target),
with its output on stderr, so the last line of stdout stays the result
line the benchmark prints. Every argument is passed on unchanged; see
perfbench/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    manifest = os.path.join(HERE, "Cargo.toml")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", manifest,
            "-p", "perfbench", "-p", "stale-served",
        ],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
