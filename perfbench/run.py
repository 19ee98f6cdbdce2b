#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
      one workload in its own process; the last stdout line is the result JSON
  python3 perfbench/run.py [--seed <n>] [--seconds <s>] [--trace 1]
      the self-test, then every workload, each in its own process

Without --seconds the binary's own default window length is used.
  python3 perfbench/run.py --selftest
      the self-test only

Run it from the root of the repository. It builds perfbench/build with
CMake (Release) from the engine sources under src/, writes database files
and span files under perfbench/out/, and exits non-zero without a result
line when the build, a correctness check or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(HERE, "build")
OUT_DIR = os.path.join(HERE, "out")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ["wire_read", "embedded_probe", "mixed_update"]
# A workload run must end within 180 s; the build is timed separately.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "relational", "database.h")):
        fail("engine sources not found under " + os.path.join(ROOT, "src"))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", "4"],
    ]
    for cmd in steps:
        # Build output goes to stderr so stdout ends with the result line.
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            fail("build timed out: " + " ".join(cmd))
        if rc != 0:
            fail("build failed: " + " ".join(cmd))


def run_binary(extra, capture):
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [BINARY, "--out", OUT_DIR] + extra
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    return proc.returncode, proc.stdout if capture else ""


def workload_args(name, seed, seconds, trace):
    args = ["--workload", name, "--seed", str(seed), "--trace", str(trace)]
    if seconds is not None:
        args += ["--seconds", str(seconds)]
    return args


def run_workload(name, seed, seconds, trace):
    """Runs one workload in its own process; returns its result object."""
    print("== %s seed %d trace %d" % (name, seed, trace), flush=True)
    rc, out = run_binary(workload_args(name, seed, seconds, trace),
                         capture=True)
    print(out, end="", flush=True)
    if rc != 0:
        fail("%s exited with code %d" % (name, rc))
    return json.loads(out.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    build()
    if args.workload is not None:
        rc, _ = run_binary(workload_args(args.workload, args.seed,
                                         args.seconds, args.trace),
                           capture=False)
        return rc
    rc, _ = run_binary(["--selftest"], capture=False)
    if rc != 0 or args.selftest:
        return rc
    results = {}
    for name in WORKLOADS:
        modes = [0, 1] if args.trace else [0]
        results[name] = [run_workload(name, args.seed, args.seconds, t)
                         for t in modes]
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
