#!/usr/bin/env python3
"""Schema check for experiments_main --data-dir TSVs.

Usage: check_experiments_tsv.py [--fig9] [--fig13] [--serve] DIR

Each flag validates one exported file:
  --fig9    fig9_quality.tsv  — exact header, a Cells(...) engine row,
            percentages parse and stay in [0, 100]
  --fig13   fig13_overhead.tsv — exact header, non-negative timings for
            both the aladdin and the engine-stack columns
  --serve   serve_sweep.tsv   — exact header, >= 1 point, strictly
            increasing rates, exact admission accounting
            (admitted = arrivals - rejected), ordered latency tails
            (p50 <= p99 <= p999 <= max) at every point and >= 1
            saturated point (the sweep must reach backpressure)
"""

import os
import sys

FIG9_HEADER = ["panel", "scheduler", "violations_pct", "paper_pct", "anti_share_pct"]
FIG13_HEADER = [
    "machines", "order", "elapsed_s", "stack_elapsed_s", "paths",
    "migrations", "preemptions",
]
SERVE_HEADER = [
    "rate", "arrivals", "admitted", "rejected", "shed", "placed",
    "undeployed", "batches", "p50_ms", "p99_ms", "p999_ms", "max_ms",
    "queue_depth_max", "saturated",
]

TAIL_KEYS = ("p50_ms", "p99_ms", "p999_ms", "max_ms")


def fail(msg):
    print(f"check_experiments_tsv: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load(dirpath, name, header):
    path = os.path.join(dirpath, name)
    if not os.path.exists(path):
        fail(f"{name}: missing from {dirpath}")
    with open(path) as f:
        lines = [ln.rstrip("\n") for ln in f if ln.strip()]
    if not lines:
        fail(f"{name}: empty")
    got = lines[0].split("\t")
    if got != header:
        fail(f"{name}: header {got} != expected {header}")
    rows = [ln.split("\t") for ln in lines[1:]]
    if not rows:
        fail(f"{name}: no data rows")
    for i, row in enumerate(rows):
        if len(row) != len(header):
            fail(f"{name}: row {i + 1} has {len(row)} fields, expected {len(header)}")
    return [dict(zip(header, row)) for row in rows]


def as_float(name, row, key):
    try:
        return float(row[key])
    except ValueError:
        fail(f"{name}: {key}={row[key]!r} is not a number")


def as_int(name, row, key):
    try:
        return int(row[key])
    except ValueError:
        fail(f"{name}: {key}={row[key]!r} is not an integer")


def check_fig9(dirpath):
    rows = load(dirpath, "fig9_quality.tsv", FIG9_HEADER)
    for r in rows:
        pct = as_float("fig9_quality.tsv", r, "violations_pct")
        if not 0.0 <= pct <= 100.0:
            fail(f"fig9_quality.tsv: violations_pct {pct} out of [0, 100]")
        if r["paper_pct"] != "-":
            as_float("fig9_quality.tsv", r, "paper_pct")
        as_float("fig9_quality.tsv", r, "anti_share_pct")
    cells = [r for r in rows if r["scheduler"].startswith("Cells(")]
    if not cells:
        fail("fig9_quality.tsv: no Cells(...) engine row")
    panels = {r["panel"] for r in rows}
    for p in panels:
        if not any(r["panel"] == p for r in cells):
            fail(f"fig9_quality.tsv: panel {p!r} lacks a Cells row")
    print(f"fig9_quality.tsv OK: {len(rows)} rows, {len(panels)} panels, "
          f"{len(cells)} cells rows")


def check_fig13(dirpath):
    rows = load(dirpath, "fig13_overhead.tsv", FIG13_HEADER)
    for r in rows:
        if as_float("fig13_overhead.tsv", r, "elapsed_s") < 0:
            fail("fig13_overhead.tsv: negative elapsed_s")
        if as_float("fig13_overhead.tsv", r, "stack_elapsed_s") < 0:
            fail("fig13_overhead.tsv: negative stack_elapsed_s")
        if as_int("fig13_overhead.tsv", r, "paths") <= 0:
            fail("fig13_overhead.tsv: paths must be positive")
    print(f"fig13_overhead.tsv OK: {len(rows)} points")


def check_serve(dirpath):
    rows = load(dirpath, "serve_sweep.tsv", SERVE_HEADER)
    prev_rate = -1.0
    for r in rows:
        rate = as_float("serve_sweep.tsv", r, "rate")
        if rate <= prev_rate:
            fail("serve_sweep.tsv: rates not strictly increasing")
        prev_rate = rate
        arrivals = as_int("serve_sweep.tsv", r, "arrivals")
        admitted = as_int("serve_sweep.tsv", r, "admitted")
        rejected = as_int("serve_sweep.tsv", r, "rejected")
        if admitted != arrivals - rejected:
            fail(f"serve_sweep.tsv: admitted {admitted} != arrivals {arrivals}"
                 f" - rejected {rejected}")
        tails = [as_float("serve_sweep.tsv", r, key) for key in TAIL_KEYS]
        for key, v in zip(TAIL_KEYS, tails):
            if v < 0:
                fail(f"serve_sweep.tsv: negative {key}")
        if any(lo > hi + 1e-6 for lo, hi in zip(tails, tails[1:])):
            fail(f"serve_sweep.tsv: tails out of order at rate {rate}"
                 f" (need p50 <= p99 <= p999 <= max): {tails}")
        if r["saturated"] not in ("true", "false"):
            fail(f"serve_sweep.tsv: saturated={r['saturated']!r} not true/false")
    if not any(r["saturated"] == "true" for r in rows):
        fail("serve_sweep.tsv: sweep never reached saturation")
    print(f"serve_sweep.tsv OK: {len(rows)} points, saturation reached")


def main(argv):
    flags = [a for a in argv if a.startswith("--")]
    dirs = [a for a in argv if not a.startswith("--")]
    if len(dirs) != 1 or not flags:
        print(__doc__, file=sys.stderr)
        return 2
    dirpath = dirs[0]
    known = {"--fig9": check_fig9, "--fig13": check_fig13, "--serve": check_serve}
    for f in flags:
        if f not in known:
            fail(f"unknown flag {f}")
    for f in flags:
        known[f](dirpath)
    print("check_experiments_tsv: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
