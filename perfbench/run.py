#!/usr/bin/env python3
"""Builds and runs the ucc host-time benchmark (see perfbench/README.md).

Run from the root of a checkout:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
      --trace <0|1>
  python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (the library sources plus
the driver, Release) into .bench_build/perfbench; later calls rebuild only
what changed.  Build output goes to stderr, so the driver's last stdout
line -- one JSON object with correct/attempted/failed/metrics -- is also
this script's last stdout line.  Scratch files (native .so caches, span
dumps) live under .bench_build/perfbench-work.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "perfbench-work")
BINARY = os.path.join(BUILD, "ucbench")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(3)


def cached_source_dir():
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "uc", "uc.hpp")):
        fail("no UC sources next to perfbench/ (expected src/uc/uc.hpp)")
    cached = cached_source_dir()
    here = os.path.realpath(HERE)
    if cached is not None and os.path.realpath(cached) != here:
        # A build tree configured for another checkout cannot be reused.
        subprocess.run(["cmake", "-E", "rm", "-rf", BUILD], check=True)
        cached = None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if cached is None:
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "ucbench",
                  "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def main():
    build()
    os.makedirs(WORK, exist_ok=True)
    r = subprocess.run([BINARY] + sys.argv[1:] + ["--work-dir", WORK],
                       cwd=ROOT)
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
