#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

For every workload given, runs `bash perfbench/run.sh --workload W --seed S
--seconds N --trace T` once per seed, then prints per metric the median and
the interquartile range as a share of the median (the quartiles as
statistics.quantiles(values, n=4) gives them), and each seed's outcome
metrics. Run it from the repository root:

    python3 perfbench/spread.py --seeds 1-10 session-http service-mix

With --bounds it also marks every end-to-end metric whose spread is above a
third of its BENCHMARK.json bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

OUTCOMES = ("spend_usd_per_op", "est_corr", "realized_corr")
# Printed per seed beside the outcomes, to tell a slow run from a slow seed.
PER_SEED = OUTCOMES + ("throughput_ops_s", "setup_s")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.time() - start
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1]), wall


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="+")
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--bounds", default="", help="BENCHMARK.json to check spreads against")
    args = ap.parse_args()
    bounds = {}
    if args.bounds:
        with open(args.bounds) as f:
            bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    for w in args.workloads:
        values, walls, outcomes = {}, [], []
        for s in seeds:
            detail, res, wall = run_once(w, s, args.seconds, args.trace)
            walls.append(wall)
            if not res["correct"] or res["failed"]:
                print(f"  seed {s}: correct={res['correct']} failed={res['failed']} "
                      f"problems={detail.get('problems')}")
            for k, m in res["metrics"].items():
                values.setdefault(k, []).append(m["value"])
            outcomes.append((s, {k: res["metrics"][k]["value"] for k in PER_SEED if k in res["metrics"]},
                             detail["env"]["cpu_steal_share"]))
        print(f"== {w}: {len(seeds)} seeds, wall per run median {statistics.median(walls):.1f} s, "
              f"max {max(walls):.1f} s")
        for k in sorted(values):
            v = values[k]
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
            spread = (q[2] - q[0]) / med if med else float("nan")
            mark = ""
            if k in bounds and not spread <= bounds[k] / 3:
                mark = f"  <-- above a third of bound {bounds[k]}"
            print(f"  {k:32s} median {med:14.6g}  iqr/median {spread:7.3f}{mark}")
        for s, o, steal in outcomes:
            print(f"  seed {s}: steal {steal:.3f} " + " ".join(f"{k}={v:.10g}" for k, v in o.items()))


if __name__ == "__main__":
    main()
