#!/usr/bin/env python3
"""Builds the catalog-service benchmark from source and runs one workload.

Usage, from the root of a checkout:

  python3 perfbench/run.py --rate 2500 --tail-pct find=99,lineage=95,commit=90 \
      --workload discovery --seed 1 --seconds 8 --trace 0
  python3 perfbench/run.py --selftest

The first call configures and builds a Release tree under
.bench_build/perfbench; later calls only rebuild what changed. Build output
goes to stderr. The benchmark's own stdout passes through unchanged, so its
last line is the result object. Scratch files (shard journals, snapshots,
span dumps) live under .bench_build/perfbench/work.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(BUILD, "work")


def build(targets):
    """Configures (once) and builds `targets`; raises on failure."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        try:
            subprocess.run(configure, check=True, stdout=sys.stderr)
        except subprocess.CalledProcessError:
            # A half-configured tree would skip configuring next time.
            shutil.rmtree(BUILD, ignore_errors=True)
            raise
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target"] +
                   targets, check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed")
    parser.add_argument("--seconds")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--rate")
    parser.add_argument("--tail-pct")
    args = parser.parse_args()

    try:
        build(["perfbench_selftest"] if args.selftest else ["perfbench"])
    except (OSError, subprocess.CalledProcessError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 1
    os.makedirs(WORK, exist_ok=True)
    if args.selftest:
        return subprocess.run(
            [os.path.join(BUILD, "perfbench_selftest"), WORK]).returncode

    missing = [flag for flag, value in (
        ("--workload", args.workload), ("--seed", args.seed),
        ("--seconds", args.seconds), ("--rate", args.rate),
        ("--tail-pct", args.tail_pct)) if value is None]
    if missing:
        print("perfbench: missing " + ", ".join(missing), file=sys.stderr)
        return 2
    command = [os.path.join(BUILD, "perfbench"),
               "--workload", args.workload, "--seed", args.seed,
               "--seconds", args.seconds, "--trace", args.trace,
               "--rate", args.rate, "--tail-pct", args.tail_pct,
               "--scratch", WORK]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
