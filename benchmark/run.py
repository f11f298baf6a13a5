#!/usr/bin/env python3
"""Build the benchmark from source and run it once.

    python3 benchmark/run.py --workload steady|cells|saturated|serve \\
        [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout. It builds benchmark/bench.exe with dune
(build output goes to stderr), runs it, and exits with its exit code. The
benchmark's stdout passes through unchanged: one "workload/metric value
unit" line per metric, then one JSON object as the last line. With
--trace 1 the per-layer metrics are reported instead of the end-to-end
ones, and the recorded spans are written to
.bench/trace/<workload>-seed<N>.jsonl. Everything the build and the run
write stays inside the checkout: dune's shared cache is off and temporary
files go to .bench/tmp.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("steady", "cells", "saturated", "serve")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    scratch = os.path.join(ROOT, ".bench")
    tmp = os.path.join(scratch, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./benchmark/bench.exe"],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit("benchmark: build failed")

    cmd = [
        os.path.join(ROOT, "_build", "default", "benchmark", "bench.exe"),
        "--workload", a.workload,
        "--seed", str(a.seed),
        "--seconds", str(a.seconds),
    ]
    if a.trace:
        trace_dir = os.path.join(scratch, "trace")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace",
                os.path.join(trace_dir, f"{a.workload}-seed{a.seed}.jsonl")]
    sys.exit(subprocess.run(cmd, cwd=ROOT, env=env).returncode)


if __name__ == "__main__":
    main()
