#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload {ssb_stream|ssb_resident|serve_zipf} \
        --seed N --seconds S --trace {0|1}

Configures and builds perfbench/ (engine sources from src/) into
.bench_build/perfbench with CMake, then runs the hx_bench driver with the
same arguments. The build is incremental; its output goes to stderr so the
driver's last stdout line stays the result JSON. Exits nonzero without a
result when the build fails, and with the driver's exit code otherwise.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def run(cmd, env, timeout=None, stdout=None):
    """Runs cmd to completion; on timeout kills it and waits for it to end."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=stdout)
    try:
        return proc.wait(timeout=timeout)
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main():
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "hx_bench"],
    ):
        if run(cmd, env, stdout=sys.stderr) != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 3
    try:
        return run([os.path.join(BUILD, "hx_bench")] + sys.argv[1:], env,
                   timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
