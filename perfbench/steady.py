#!/usr/bin/env python3
"""Steadiness check of the benchmark.

    python3 perfbench/steady.py [--runs 10] [--workload W ...] [--seed0 1]
                                [--traced 2]

Runs each workload --runs times through run.py, each time with another
seed, and prints every end-to-end metric's median, quartiles and spread
(Q3 - Q1 as a share of the median, quartiles as statistics.quantiles(n=4)
gives them).  Exits non-zero when a spread is wider than the metric's bound
in BENCHMARK.json (setup_s is printed but not gated: its bound limits how
far its median may move between commits), when a run fails or reports
incorrect outputs, or when the share of failed operations differs between
runs.  With --traced N (default 2) it then makes N traced runs per workload
and fails when a deterministic count differs between them.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Per-layer counts that must repeat exactly from one traced run to the next.
DETERMINISTIC = ("sat.conflicts", "sat.decisions", "sat.propagations",
                 "cnf.miter_vars", "cnf.miter_clauses", "attack.dips",
                 "flow.repair_rounds")


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if p.returncode != 0:
        return None
    return json.loads(p.stdout.strip().splitlines()[-1])


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--traced", type=int, default=2)
    a = ap.parse_args()
    workloads = a.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for w in workloads:
        values = {m: [] for m in bounds}
        shares = set()
        for i in range(a.runs):
            r = run(w, a.seed0 + i, a.seconds, 0)
            if r is None or not r["correct"]:
                print(f"{w}: run {i} (seed {a.seed0 + i}) failed: {r}")
                ok = False
                continue
            shares.add((r["failed"], r["attempted"]) if r["failed"] else 0)
            for m in bounds:
                values[m].append(r["metrics"][m]["value"])
            print(f"{w} seed {a.seed0 + i}: " + " ".join(
                f"{m}={r['metrics'][m]['value']:.6g}" for m in bounds),
                flush=True)
        if len(shares) > 1:
            print(f"{w}: failed share differs between runs: {shares}")
            ok = False
        for m, vs in values.items():
            if len(vs) < 4:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            gated = m != "setup_s"
            bad = gated and spread > bounds[m]
            ok = ok and not bad
            print(f"  {w:12s} {m:12s} median {med:12.6g}  Q1 {q1:12.6g}  "
                  f"Q3 {q3:12.6g}  spread {spread:7.2%}  bound "
                  f"{bounds[m]:.0%}{'  TOO WIDE' if bad else ''}"
                  f"{'' if gated else '  (not gated)'}")
        counts = []
        for i in range(a.traced):
            r = run(w, a.seed0 + i, a.seconds, 1)
            if r is None or not r["correct"]:
                print(f"{w}: traced run {i} failed: {r}")
                ok = False
                continue
            counts.append({k: v["value"] for k, v in r["metrics"].items()
                           if k.startswith(DETERMINISTIC)})
        if len(counts) > 1 and any(c != counts[0] for c in counts):
            print(f"{w}: deterministic counts differ between traced runs")
            ok = False
        elif counts:
            print(f"  {w}: {len(counts[0])} deterministic counts identical "
                  f"over {len(counts)} traced runs")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
