#!/usr/bin/env python3
"""Build the simulator benchmark and run one workload.

    python3 swsmbench/run.py --workload fig3-small --seed 1 --seconds 10 --trace 0

The first run configures and builds swsm_bench (Release) from this
checkout's src/ tree into .bench_build/swsmbench, which takes a few
minutes; later runs only bring the build up to date. Build output goes
to stderr. The benchmark then replaces this process: its output ends in
one JSON line, and its exit status is the run's.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "swsmbench")
WORKLOADS = ("fig3-small", "hlrc-paper", "sc-paper", "smoke")


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Run one workload of the simulator benchmark.",
        allow_abbrev=False)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1,
                        help="orders the serial workloads' tasks")
    parser.add_argument("--seconds", type=int, default=10,
                        help="repeat untraced passes this long (>= 1 pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add a traced pass for per-layer metrics")
    parser.add_argument("--configs", choices=("main", "heldout"),
                        default="main",
                        help="heldout: the halfway configurations")
    parser.add_argument("--record", action="store_true",
                        help="write the fingerprints instead of checking")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must not be negative")
    if not 1 <= args.seconds <= 3600:
        parser.error("--seconds must be in [1, 3600]")
    return args


def build(targets=("swsm_bench",)):
    """Configure the build tree once, then bring @targets up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no simulator sources at " +
                           os.path.join(ROOT, "src"))
    if not any(os.path.isfile(os.path.join(BUILD, f))
               for f in ("Makefile", "build.ninja")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target",
                    *targets], stdout=sys.stderr, check=True)


def main(argv):
    args = parse_args(argv)
    try:
        build()
    except (OSError, RuntimeError, subprocess.CalledProcessError) as err:
        print(f"swsmbench: build failed: {err}", file=sys.stderr)
        return 1
    binary = os.path.join(BUILD, "swsm_bench")
    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--configs={args.configs}",
           "--fingerprints=" + os.path.join(HERE, "fingerprints")]
    if args.record:
        cmd.append("--record")
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd.append("--trace-out=" + os.path.join(
            traces, f"{args.workload}-{args.configs}-seed{args.seed}.json"))
    sys.stdout.flush()
    os.execv(binary, cmd)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
