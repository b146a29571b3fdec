#!/usr/bin/env python3
"""The pipeline benchmark's own tests.

    python3 perfbench/test.py

1. A short run of every workload, untraced and traced, runs all its
   checks: exit 0, "correct": true, the result is the last stdout line.
2. Every metric a run prints is declared in BENCHMARK.json with the same
   unit, and every declared metric of the mode is printed.
3. failed is the same share of attempted in every run: one program per
   5000-program pass on fuzz-corpus and fabric-corpus (the certifier's
   known rejection, see README.md), the known -j 2 parity probe once per
   2040-execution round on run-mix (the Par.Merge race order, see
   README.md), none on long-exec.
4. A usage error exits 2, and the command exits non-zero without a
   result in a directory holding only BENCHMARK.json and perfbench/.

Takes about two and a half minutes.  Exits 1 on the first failure.
"""

import json
import os
from fractions import Fraction
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FAILED_PER_PASS = {"fuzz-corpus": Fraction(1, 5000),
                   "fabric-corpus": Fraction(1, 5000),
                   "run-mix": Fraction(1, 2041)}


def fail(msg):
    print(f"FAIL: {msg}")
    sys.exit(1)


def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(cmd, cwd=ROOT):
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)


def test_workloads(b):
    declared = {
        0: {m["name"]: m["unit"] for m in b["end_to_end"]},
        1: {m["name"]: m["unit"] for m in b["per_layer"]},
    }
    for w in b["workloads"]:
        for trace in (0, 1):
            name = w["name"]
            p = run(b["command"] + ["--workload", name, "--seed", "7",
                                    "--seconds", "1", "--trace", str(trace)])
            if p.returncode != 0:
                fail(f"{name} trace {trace}: exit {p.returncode}\n{p.stderr}")
            res = json.loads(p.stdout.strip().splitlines()[-1])
            if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                fail(f"{name}: result keys {sorted(res)}")
            if res["correct"] is not True:
                fail(f"{name}: not correct")
            printed = {k: v["unit"] for k, v in res["metrics"].items()}
            if printed != declared[trace]:
                fail(f"{name} trace {trace}: printed metrics differ from BENCHMARK.json:"
                     f" {set(printed.items()) ^ set(declared[trace].items())}")
            if trace == 0 and any(v["value"] <= 0 for v in res["metrics"].values()):
                fail(f"{name}: an end-to-end metric is not positive")
            share = Fraction(res["failed"], res["attempted"])
            if share != FAILED_PER_PASS.get(name, 0):
                fail(f"{name}: failed share {share}")
            print(f"ok: {name} trace {trace}: {res['attempted']} attempted, "
                  f"{res['failed']} failed, {len(printed)} metrics")


def test_usage(b):
    p = run(b["command"] + ["--workload", "no-such-workload", "--seed", "1",
                            "--seconds", "1", "--trace", "0"])
    if p.returncode != 2:
        fail(f"unknown workload: exit {p.returncode}")
    print("ok: usage error exits 2")


def test_bare_directory(b):
    bare = os.path.join(ROOT, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in b["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    p = run(b["command"] + ["--workload", "run-mix", "--seed", "1",
                            "--seconds", "1", "--trace", "0"], cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if p.returncode == 0 or p.stdout.strip():
        fail(f"bare directory: exit {p.returncode}, stdout {p.stdout!r}")
    print(f"ok: bare directory exits {p.returncode} without a result")


def main():
    b = bench()
    test_usage(b)
    test_bare_directory(b)
    test_workloads(b)
    print("all perfbench tests passed")


if __name__ == "__main__":
    main()
