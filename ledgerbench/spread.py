#!/usr/bin/env python3
"""Run a workload under several seeds and report each end-to-end
metric's median and quartile spread.

Usage, from the root of a checkout:

    python3 ledgerbench/spread.py --workload oltp --seeds 1-10 [--seconds 10]

For each metric it prints the median, the first and third quartiles as
statistics.quantiles(values, n=4) gives them, and the spread: the
distance between the quartiles as a share of the median. It also checks
that every run was correct and that the share of failed operations is the
same in every run.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=10)
    args = ap.parse_args()
    runs = []
    for seed in seeds_of(args.seeds):
        proc = subprocess.run(
            ["python3", "ledgerbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        host = next((l for l in lines if l.startswith("host: ")), "host: ?")
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            sys.exit(1)
        result = json.loads(lines[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {host[len('host: '):]}", file=sys.stderr)
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"{args.workload}: {len(runs)} runs, all correct: "
          f"{all(r['correct'] for r in runs)}, failed shares: {sorted(shares)}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        print(f"  {name:24s} median {med:14.4f}  q1 {q1:14.4f}  q3 {q3:14.4f}  spread {spread:6.3f}")


if __name__ == "__main__":
    main()
