#!/usr/bin/env python3
"""End-to-end benchmark of the fuzzy-hash classifier.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds the benchmark (CMake, Release) under .bench_build/, makes the
serving workloads' inputs there (again whenever the sources that make them
change), runs one workload and relays its output; the last stdout line is the JSON result. --self-test builds and
runs the benchmark's own tests of its correctness checks. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(".bench_build", "perfbench")
DATA = os.path.join(".bench_build", "perfbench-inputs")
WORK = os.path.join(".bench_build", "perfbench-run")
WORKLOADS = ("pipeline", "serve_saturated", "serve_single", "serve_repeat")
# Everything that goes into the served model and the query digests: the
# library, the root build's flags and this package's code.
INPUT_SOURCES = ("CMakeLists.txt", "cmake", "src",
                 os.path.join("perfbench", "CMakeLists.txt"), os.path.join("perfbench", "src"))


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(targets):
    """Configures once and builds `targets`; build output goes to stderr."""
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", "perfbench", "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets,
                   check=True, stdout=sys.stderr)


def inputs_key():
    """SHA-256 over the paths and contents of INPUT_SOURCES' files."""
    files = []
    for source in INPUT_SOURCES:
        if os.path.isfile(source):
            files.append(source)
        for parent, dirs, names in os.walk(source):
            dirs.sort()
            files.extend(os.path.join(parent, name) for name in sorted(names))
    digest = hashlib.sha256()
    for path in files:
        digest.update(path.encode() + b"\0")
        with open(path, "rb") as f:
            digest.update(hashlib.sha256(f.read()).digest())
    return digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    os.chdir(ROOT)
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt"),
                   os.path.join("tools", "fhc_serve.cpp")):
        if not os.path.isfile(needed):
            fail("not a checkout of the repository: %s is missing" % needed)

    try:
        if args.self_test:
            build(["perfbench_checks_test"])
            return subprocess.run([os.path.join(BUILD, "perfbench_checks_test")]).returncode
        if args.workload is None:
            fail("--workload is required")
        build(["fhc_perfbench", "fhc_serve"])
        bench = os.path.join(BUILD, "fhc_perfbench")
        serve = os.path.join(BUILD, "fhc", "tools", "fhc_serve")
        subprocess.run([bench, "prepare", "--data", DATA, "--key", inputs_key()],
                       check=True)
        sys.stdout.flush()
        return subprocess.run([
            bench, "run", "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--data", DATA, "--work", WORK, "--serve", serve]).returncode
    except (subprocess.CalledProcessError, OSError) as error:
        fail(str(error))


if __name__ == "__main__":
    sys.exit(main())
