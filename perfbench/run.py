#!/usr/bin/env python3
"""Build perfbench from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload gateway --seed 1 --seconds 10 --trace 0

The release build goes to $CARGO_TARGET_DIR (default `.bench_build`);
build output goes to stderr so the last line of stdout is the result
line of the benchmark. Every argument is passed through to the
benchmark (see perfbench/README.md). Exits non-zero, printing no
result, when the build or the run fails.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    manifest = os.path.join(here, "Cargo.toml")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "perfbench")
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
