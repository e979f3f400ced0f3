#!/usr/bin/env python3
"""Builds and runs the end-to-end BSR/BCSR benchmark.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Configures and builds e2ebench/ (the library
sources one directory up) into $CARGO_TARGET_DIR/e2ebench, or
.bench_build/e2ebench when that variable is unset, runs the benchmark's
self-tests, then runs bench_e2e with the given arguments. bench_e2e's
report goes to standard output and ends with one JSON line; build output
goes to standard error. The exit status is bench_e2e's, or 1 when the
build or the self-tests fail.
"""
import os
import subprocess
import sys
from pathlib import Path

BUILD_TIMEOUT_S = 840
SELFTEST_TIMEOUT_S = 60
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kwargs):
    """Runs cmd to completion (killing it on timeout); returns its status."""
    try:
        return subprocess.run(cmd, timeout=timeout, **kwargs).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: timed out after {timeout}s: {' '.join(cmd)}",
              file=sys.stderr)
        return 1


def main():
    here = Path(__file__).resolve().parent
    root = here.parent
    build = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build.is_absolute():
        build = root / build
    build = build / "e2ebench"

    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not (build / "CMakeCache.txt").exists():
        if run(["cmake", "-S", str(here), "-B", str(build),
                "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S, **quiet):
            print("run.py: configure failed", file=sys.stderr)
            return 1
    if run(["cmake", "--build", str(build), "-j4", "--target", "bench_e2e",
            "e2e_selftest"], BUILD_TIMEOUT_S, **quiet):
        print("run.py: build failed", file=sys.stderr)
        return 1
    if run([str(build / "e2e_selftest"), "--gtest_brief=1"],
           SELFTEST_TIMEOUT_S, **quiet):
        print("run.py: benchmark self-tests failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return run([str(build / "bench_e2e")] + sys.argv[1:], RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
