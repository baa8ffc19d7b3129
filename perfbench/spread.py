#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload sweep --seeds 1-10 [--trace 0]

Runs perfbench/run.py once per seed and prints, for every metric, the
median over the runs and the distance between the first and third
quartiles (statistics.quantiles(values, n=4)) as a share of the median,
next to the metric's bound from BENCHMARK.json. Exits 1 when a run fails
or a spread other than setup_s exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    for seed in seed_list(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(bench["run_seconds"]), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print(f"seed {seed}: run failed (exit {proc.returncode})")
            return 1
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect output")
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        slow = [line.split("host_slowdown ")[1].split()[0] for line in lines
                if " host_slowdown " in line]
        print(f"seed {seed}: " + " ".join(
            f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()) +
            "".join(f" host_slowdown={x}" for x in slow), flush=True)

    status = 0
    print(f"\n{'metric':34} {'median':>14} {'iqr/median':>11} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        over = bound is not None and name != "setup_s" and spread > bound
        status |= over
        print(f"{name:34} {med:14.6g} {spread:11.4f} "
              f"{'' if bound is None else bound:>6}{'  OVER' if over else ''}")
    return status


if __name__ == "__main__":
    sys.exit(main())
