#!/usr/bin/env python3
"""Builds and runs the relgo benchmark from the root of a source tree.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The benchmark binary is built (incrementally) under .bench_build/perfbench
with CMake, then run with the given arguments; its last stdout line is the
JSON result. Build output goes to stderr. --self-test builds and runs the
benchmark's own tests instead. Exits non-zero without a result when the
relgo sources are missing or the build fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "database.h")):
        sys.stderr.write("relgo sources not found under %s/src\n" % ROOT)
        return False
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", target, "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.stderr.write("build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def main(argv):
    if argv == ["--self-test"]:
        if not build("perfbench_test"):
            return 1
        return subprocess.run([os.path.join(BUILD_DIR, "perfbench_test")]).returncode
    if not build("relgo_perfbench"):
        return 1
    os.makedirs(TRACE_DIR, exist_ok=True)
    cmd = [os.path.join(BUILD_DIR, "relgo_perfbench")] + argv + ["--out-dir", TRACE_DIR]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
