#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workload edit-session --seeds 1-10 [--trace 0]

For every metric it prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread, (Q3 - Q1) / median,
next to the bound BENCHMARK.json gives the metric. A spread above a third
of its bound is flagged. The raw results go to
.bench_out/spread-<workload>-trace<trace><label>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--label", default="", help="suffix of the output file")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    runs = []
    for seed in seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", args.trace,
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        result["seed"] = seed
        runs.append(result)
        print(f"seed {seed}: attempted {result['attempted']}, "
              f"failed {result['failed']}", file=sys.stderr)

    os.makedirs(".bench_out", exist_ok=True)
    out = (f".bench_out/spread-{args.workload}-trace{args.trace}"
           f"{args.label}.json")
    with open(out, "w") as f:
        json.dump(runs, f, indent=1)

    print(f"{'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = " !" if bound and spread > bound / 3 else ""
        print(f"{name:28s} {med:12.4f} {q1:12.4f} {q3:12.4f} "
              f"{spread:8.3f} {bound if bound else '':>6}{flag}")
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed share per run: {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
