#!/usr/bin/env python3
"""Run the benchmark N times, one process each, and summarise every metric.

    python3 benchmark/repeat.py N [--vary-seed] -- <run.py arguments>

Example, ten seeds of the steady workload:

    python3 benchmark/repeat.py 10 --vary-seed -- --workload steady --seed 1

With --vary-seed, run i (from 0) uses the given --seed (default 42) plus i.
For every metric it prints the median, the quartiles as
statistics.quantiles(values, n=4) gives them, the quartile spread
(Q3 - Q1) / median and the range (max - min) / median. It exits 1 if any
run fails or reports correct = false.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def with_seed(args, seed):
    out = list(args)
    if "--seed" in out:
        out[out.index("--seed") + 1] = str(seed)
    else:
        out += ["--seed", str(seed)]
    return out


def main():
    argv = sys.argv[1:]
    if "--" not in argv or not argv or not argv[0].isdigit():
        sys.exit(__doc__)
    n = int(argv[0])
    vary = "--vary-seed" in argv[1:argv.index("--")]
    bench_args = argv[argv.index("--") + 1:]
    base_seed = (int(bench_args[bench_args.index("--seed") + 1])
                 if "--seed" in bench_args else 42)

    values, units = {}, {}
    for i in range(n):
        args = with_seed(bench_args, base_seed + i) if vary else bench_args
        p = subprocess.run([sys.executable, os.path.join(HERE, "run.py")] + args,
                           capture_output=True, text=True)
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or not lines:
            sys.stderr.write(p.stderr)
            sys.exit(f"run {i} ({' '.join(args)}) failed with exit code {p.returncode}")
        result = json.loads(lines[-1])
        if not result["correct"]:
            sys.exit(f"run {i} ({' '.join(args)}) reported correct = false")
        print(f"run {i}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
            flush=True)
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])
            units[k] = v["unit"]

    print(f"{'metric':36} {'unit':>14} {'median':>12} {'q1':>12} {'q3':>12}"
          f" {'iqr/med':>8} {'range/med':>9}")
    for k, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (med, med, med)
        rel = (lambda x: x / abs(med)) if med else (lambda x: 0.0)
        print(f"{k:36} {units[k]:>14} {med:12.6g} {q1:12.6g} {q3:12.6g}"
              f" {rel(q3 - q1):8.4f} {rel(max(vs) - min(vs)):9.4f}")


if __name__ == "__main__":
    main()
