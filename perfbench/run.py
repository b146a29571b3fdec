#!/usr/bin/env python3
"""Build the pipeline benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/perfbench.exe and bin/c11test.exe (the fabric workload's
worker binary) with dune at the repository root, without dune's shared
cache, then runs the benchmark there.  Build output goes to stderr, so
the last line of stdout is the benchmark's JSON result.  Exits non-zero
without a result when the repository's sources are missing or the build
fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGETS = ["./perfbench/perfbench.exe", "./bin/c11test.exe"]


def main():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        print("perfbench: no dune-project next to perfbench/: "
              "the repository's sources are missing", file=sys.stderr)
        return 3
    # dune's shared cache lives outside the checkout; build without it
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(["dune", "build", "--root", ".", *TARGETS],
                           cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
    # the benchmark's exit status is the command's exit status
    return subprocess.run([exe, *sys.argv[1:]], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
