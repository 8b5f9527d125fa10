#!/usr/bin/env python3
"""Build and run the HC3I benchmark harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The harness is compiled from source
(release profile, offline) into $CARGO_TARGET_DIR, or `.bench_build` when
that is unset, then run with the given arguments; its standard output is
passed through, so the last line is the result object. A failed build or a
failed output check exits non-zero.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Leaves room under the 180 s limit for the freshness check of the build.
RUN_TIMEOUT_S = 170


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("error: building the benchmark harness failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "hc3i-perfbench")
    if not os.path.isabs(exe):
        exe = os.path.join(ROOT, exe)
    try:
        run = subprocess.run([exe] + sys.argv[1:], cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: the harness ran longer than {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
