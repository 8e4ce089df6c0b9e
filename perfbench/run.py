#!/usr/bin/env python3
"""Build the gkll benchmark and run one workload.

    python3 perfbench/run.py --workload sec6-attack|gk-flow|service-mix \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  The first call configures and builds the
library from src/ and the benchmark binary with optimisation (CMake,
Release) under $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench);
later calls only re-check the build.  The workload runs in its own process;
its result is the last line of stdout, one JSON object.  A run whose
process dies or prints no result exits non-zero.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sec6-attack", "gk-flow", "service-mix")
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    """Configure (once) and build; returns the binary path or None."""
    out = build_dir()
    if not any(os.path.exists(os.path.join(out, f))
               for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", out, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    return os.path.join(out, "perfbench_gkll")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    # A terminated run.py must not leave the workload running: SystemExit
    # makes subprocess.run kill and reap its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not a.self_test and not a.workload:
        ap.error("--workload is required")

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if a.self_test:
        return subprocess.run([binary, "--self-test"]).returncode

    cmd = [binary, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           # Relative to the checkout (the child's cwd): the service's Unix
           # socket lives there, and socket paths are limited to 107 bytes.
           "--out-dir", os.path.relpath(build_dir(), ROOT)]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {a.workload} ran past {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    if proc.returncode != 0:
        # Includes a process that died after printing (e.g. at exit).
        print(f"perfbench: {a.workload} exited with {proc.returncode} after "
              f"{time.monotonic() - t0:.1f} s", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        print("perfbench: no result line", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
