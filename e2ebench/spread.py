#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

Usage (from the repository root):

    python3 e2ebench/spread.py --workload hot --runs 10 [--first-seed 1]
                               [--seconds 15] [--trace 0]

For every metric it prints the median over the runs and the distance
between the first and third quartile as a share of the median, the
run-to-run spread that BENCHMARK.json's bounds are judged against
(statistics.quantiles(values, n=4)).
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = ["bash", "e2ebench/run.sh", "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True)
        if out.returncode != 0:
            print(f"seed {seed}: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
            continue
        res = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} " +
              " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())),
              flush=True)
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])

    for k, vs in sorted(values.items()):
        med = statistics.median(vs)
        if len(vs) >= 2 and med != 0:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / abs(med)
        else:
            spread = float("nan")
        print(f"{k:32s} median {med:12.6g}  iqr/median {spread:7.3f}  n={len(vs)}")


if __name__ == "__main__":
    main()
