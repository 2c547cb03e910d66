#!/usr/bin/env python3
"""Steadiness report for the `hazel serve` benchmark.

    python3 perfbench/steady.py [--runs K] [--seed FIRST] [--seconds S]
        [--workloads drag,edit,sessions] [--against FILE]

Runs each workload K times through run.py with --trace 0, seeds
FIRST..FIRST+K-1, and prints per (end-to-end metric, workload) the
median, the quartiles (as `statistics.quantiles(values, n=4)` gives
them), the spread
(q3 - q1) / median, and the metric's bound from BENCHMARK.json. A spread
above the bound means a change on that pair cannot be told from noise:
report it "unresolved", not "unchanged". The raw values are saved next
to the build output; --against compares this report's medians with an
earlier saved one and flags pairs that got worse by more than the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"steady.py: {workload} seed {seed} failed (exit {done.returncode})")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"steady.py: {workload} seed {seed} failed its oracle")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else 0.0
    return median, q1, q3, spread


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--workloads", default="drag,edit,sessions")
    parser.add_argument("--against")
    args = parser.parse_args()
    if args.runs < 2:
        sys.exit("steady.py: quartiles need at least two runs")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        seconds = args.seconds or json.load(f)["run_seconds"]
    bounds = load_bounds()
    raw = {}
    for workload in args.workloads.split(","):
        runs = []
        for i in range(args.runs):
            runs.append(run_once(workload, args.seed + i, seconds))
            print(f"# {workload} seed {args.seed + i} done", file=sys.stderr)
        raw[workload] = {m: [r[m] for r in runs] for m in runs[0]}

    earlier = None
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)["values"]

    print(f"{'metric':36} {'workload':9} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for workload, metrics in raw.items():
        for metric, values in metrics.items():
            median, q1, q3, spread = summarize(values)
            bound, better = bounds[metric]
            if spread > bound:
                verdict = "NOISY: unresolved at this bound"
            elif spread > bound / 3:
                verdict = "within bound, above a third of it"
            else:
                verdict = "steady"
            if earlier and metric in earlier.get(workload, {}):
                before = statistics.median(earlier[workload][metric])
                change = (median - before) / before if before else 0.0
                worse = change > bound if better == "lower" else -change > bound
                verdict += f"; vs earlier {change:+.1%}{' WORSE' if worse else ''}"
            print(f"{metric:36} {workload:9} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:7.1%} {bound:6.2f}  {verdict}")

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    out_dir = os.path.join(target, "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    out = os.path.join(out_dir, f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json")
    with open(out, "w") as f:
        json.dump({"runs": args.runs, "first_seed": args.seed, "seconds": seconds,
                   "values": raw}, f, indent=1)
    print(f"# raw values: {out}", file=sys.stderr)


if __name__ == "__main__":
    main()
