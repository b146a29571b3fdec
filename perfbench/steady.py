#!/usr/bin/env python3
"""Steadiness of the pipeline benchmark.

    python3 perfbench/steady.py [--runs N] [--traced-runs K] [workload ...]

Runs every named workload (default: all of BENCHMARK.json) N times, with
seeds 101, 102, ... and BENCHMARK.json's run_seconds, and prints for
each end-to-end metric the median of its N values and the run-to-run
spread -- the distance between the first and third quartiles, as
statistics.quantiles(values, n=4) gives them, as a share of the median
-- next to the metric's bound.  It also prints the
share of failed operations of every run (it must not change between
runs).  With --traced-runs K it then makes K traced runs per workload and
prints the tracing overhead: the traced median round wall against the
untraced one.  Exits 1 when a run fails, when a spread exceeds its
bound, or when the failed share varies.
"""

import argparse
import json
import os
import re
import statistics
from fractions import Fraction
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED0 = 101


def run_once(bench, workload, seed, trace):
    proc = subprocess.run(
        bench["command"] + ["--workload", workload, "--seed", str(seed),
                            "--seconds", str(bench["run_seconds"]),
                            "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"steady: {workload} seed {seed}: exit {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    m = re.search(r"median round ([0-9.]+) s", proc.stdout)
    return result, float(m.group(1)) if m else None


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--traced-runs", type=int, default=0)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    ok = True
    for w in names:
        results, rounds = [], []
        for i in range(args.runs):
            r, round_s = run_once(bench, w, SEED0 + i, 0)
            results.append(r)
            rounds.append(round_s)
        shares = sorted({Fraction(r["failed"], r["attempted"]) for r in results})
        print(f"== {w}: {args.runs} runs, seeds {SEED0}..{SEED0 + args.runs - 1}, "
              f"failed share {', '.join(map(str, shares))}")
        if len(shares) != 1:
            ok = False
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            sp = spread(vals) if len(vals) >= 2 else 0.0
            flag = ""
            if sp > m["bound"]:
                flag, ok = "  OVER BOUND", False
            elif sp > m["bound"] / 3:
                flag = "  above a third of the bound"
            print(f"  {m['name']:<18} median {statistics.median(vals):>14.6g} {m['unit']:<7}"
                  f" spread {sp:7.4f}  bound {m['bound']:.2f}{flag}")
        if args.traced_runs:
            traced = []
            for i in range(args.traced_runs):
                r, round_s = run_once(bench, w, SEED0 + i, 1)
                traced.append(round_s)
            base = statistics.median(rounds)
            over = statistics.median(traced) / base - 1
            print(f"  tracing overhead: median round {statistics.median(traced):.3f} s traced "
                  f"vs {base:.3f} s untraced ({over:+.1%})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
