#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload suite|graph --seed N \
        --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default `.bench_build`); its output goes to standard error, so the last
line of standard output is the benchmark's JSON result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The benchmark must end within 180 s; the build is not counted here.
RUN_TIMEOUT_S = 175


def main():
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "perfbench")
    # One malloc arena per core. With glibc's default of up to eight per
    # core, which arenas the daemon's threads land in changes from run to
    # run, and peak RSS varied by a fifth between runs.
    # One arena in all made it steady but slowed parallel replay by a
    # fifth.
    arenas = str(len(os.sched_getaffinity(0)))
    run_env = dict(os.environ, MALLOC_ARENA_MAX=arenas)
    try:
        run = subprocess.run([exe] + sys.argv[1:], cwd=ROOT, env=run_env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
