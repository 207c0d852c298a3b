#!/usr/bin/env python3
"""Tests for the benchmark's own code.

    python3 swsmbench/test_bench.py

Builds the benchmark as run.py does, then checks that bad or unknown
arguments exit non-zero, runs swsm_bench_selftest (percentile, idle
fraction and span self-time arithmetic, fingerprint filter), and shows
on the Tiny "smoke" workload that a perturbed recorded fingerprint
fails its simulation and the run.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)

import run  # noqa: E402  (needs HERE on the path)

BENCH = os.path.join(run.BUILD, "swsm_bench")
SELFTEST = os.path.join(run.BUILD, "swsm_bench_selftest")
RECORDED = "--fingerprints=" + os.path.join(HERE, "fingerprints")


def bench(*args, env=None):
    return subprocess.run([BENCH, *args], capture_output=True, text=True,
                          env=env)


def setUpModule():
    run.build(["swsm_bench", "swsm_bench_selftest"])


class BadArguments(unittest.TestCase):
    def test_run_py(self):
        for argv in ([], ["--workload", "nope"],
                     ["--workload", "smoke", "--trace", "2"],
                     ["--workload", "smoke", "--seconds", "0"],
                     ["--workload", "smoke", "--seed", "-1"],
                     ["--workload", "smoke", "--frobnicate"]):
            with self.subTest(argv=argv):
                proc = subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"), *argv],
                    capture_output=True, text=True)
                self.assertNotEqual(proc.returncode, 0)
                self.assertEqual(proc.stdout, "")

    def test_binary(self):
        for argv in ([RECORDED], ["--workload=nope", RECORDED],
                     ["--workload=smoke"],
                     ["--workload=smoke", RECORDED, "--seconds=0"],
                     ["--workload=smoke", RECORDED, "--seconds=1x"],
                     ["--workload=smoke", RECORDED, "--trace=2"],
                     ["--workload=smoke", RECORDED, "--configs=all"],
                     ["--workload=smoke", RECORDED, "--frobnicate"]):
            with self.subTest(argv=argv):
                self.assertEqual(bench(*argv).returncode, 2)

    def test_overrides_are_refused(self):
        for var in ("SWSM_FASTPATH", "SWSM_PDES_OPTIMISM", "SWSM_JOBS"):
            with self.subTest(var=var):
                proc = bench("--workload=smoke", RECORDED,
                             env=dict(os.environ, **{var: "1"}))
                self.assertEqual(proc.returncode, 2)
                self.assertIn(var, proc.stderr)


class Arithmetic(unittest.TestCase):
    def test_selftest(self):
        proc = subprocess.run([SELFTEST], capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)


class Fingerprints(unittest.TestCase):
    def test_perturbed_fingerprint_fails_the_run(self):
        with tempfile.TemporaryDirectory(dir=run.BUILD) as scratch:
            recorded = "--fingerprints=" + scratch
            proc = bench("--workload=smoke", recorded, "--record")
            self.assertEqual(proc.returncode, 0, proc.stderr)
            proc = bench("--workload=smoke", recorded, "--seconds=1")
            self.assertEqual(proc.returncode, 0, proc.stderr)

            path = os.path.join(scratch, "smoke.txt")
            with open(path) as f:
                lines = f.read().splitlines()
            i = next(n for n, line in enumerate(lines)
                     if line and not line.startswith("#"))
            key, fingerprint, cycles = lines[i].split()
            flipped = "1" if fingerprint[-1] == "0" else "0"
            lines[i] = f"{key} {fingerprint[:-1]}{flipped} {cycles}"
            with open(path, "w") as f:
                f.write("\n".join(lines) + "\n")

            proc = bench("--workload=smoke", recorded, "--seconds=1",
                         "--trace=1")
            self.assertEqual(proc.returncode, 1)
            out = json.loads(proc.stdout.splitlines()[-1])
            self.assertFalse(out["correct"])
            self.assertGreaterEqual(out["failed"], 2)  # every pass fails it
            self.assertEqual(
                out["metrics"]["bench.fingerprint_mismatch"]["value"], 1)
            self.assertIn(f"FAILED {key}", proc.stderr)


if __name__ == "__main__":
    unittest.main()
