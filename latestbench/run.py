#!/usr/bin/env python3
"""Builds the LATEST benchmark from this checkout's sources and runs it.

    python3 latestbench/run.py --workload <serve_paced|serve_query_flood|
        module_replay> --seed <n> --seconds <s> --trace <0|1> [--quick]

The build tree is <CARGO_TARGET_DIR or .bench_build>/latestbench under the
checkout root (CMake, Release). Build output goes to standard error, so the
last line of standard output is the benchmark's JSON result. Exits non-zero
without a result when the library sources are missing or the build fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "latestbench")


def build(out):
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(configure, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "-j", jobs], stdout=sys.stderr,
                   check=True)


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("latestbench: no library sources under src/", file=sys.stderr)
        return 2
    out = build_dir()
    try:
        build(out)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"latestbench: build failed: {err}", file=sys.stderr)
        return 2
    try:
        proc = subprocess.run([os.path.join(out, "latestbench")] + sys.argv[1:],
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("latestbench: run timed out", file=sys.stderr)
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
