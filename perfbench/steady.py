#!/usr/bin/env python3
"""Steadiness mode: run benchmark workloads K times and report the spread.

For every workload it runs the command from BENCHMARK.json K times, each
with another seed, reads the JSON result on the last line of each run, and
prints for every metric the median, the quartiles (Python's
statistics.quantiles(values, n=4)) and the spread: the distance between the
quartiles as a share of the median.  A metric whose spread exceeds its
bound is flagged OVER; one above a third of its bound is flagged WIDE.

Run from the repository root:

    python3 perfbench/steady.py --runs 10 --seed 1
    python3 perfbench/steady.py --workload mix-file --runs 5 --trace 1

Exits with 1 when a run fails or reports correct=false, and with 3 when an
end-to-end metric other than setup_s is OVER its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def load_benchmark(root):
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run_once(root, bench, workload, seed, trace):
    command = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(root, ".bench_build"))
    started = time.monotonic()
    done = subprocess.run(command, cwd=root, env=env, capture_output=True,
                          text=True, timeout=900, check=False)
    wall = time.monotonic() - started
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}")
    return json.loads(lines[-1]), wall


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / abs(median) if median else float("inf")
    return median, q1, q3, spread


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="first seed")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    bench = load_benchmark(root)
    kind = "per_layer" if args.trace else "end_to_end"
    specs = {m["name"]: m for m in bench[kind]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    status = 0
    for workload in workloads:
        results, walls = [], []
        for i in range(args.runs):
            result, wall = run_once(root, bench, workload, args.seed + i, args.trace)
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {args.seed + i}: correct={result['correct']} "
                      f"failed={result['failed']}")
                status = max(status, 1)
            results.append(result)
            walls.append(wall)
        print(f"\n## {workload}: {args.runs} runs, seeds {args.seed}..{args.seed + args.runs - 1}, "
              f"{bench['run_seconds']} s each, run wall median {statistics.median(walls):.1f} s "
              f"(max {max(walls):.1f} s)\n")
        print("| metric | unit | median | q1 | q3 | spread | bound | flag |")
        print("|---|---|---|---|---|---|---|---|")
        for name, spec in specs.items():
            values = [r["metrics"][name]["value"] for r in results]
            median, q1, q3, spread = summarise(values)
            bound = spec.get("bound")
            flag = ""
            if bound is not None:
                if spread > bound:
                    flag = "OVER"
                    if name != "setup_s":
                        status = max(status, 3)
                elif spread > bound / 3:
                    flag = "WIDE"
            print(f"| {name} | {spec['unit']} | {median:.6g} | {q1:.6g} | {q3:.6g} | "
                  f"{spread:.4f} | {'' if bound is None else bound} | {flag} |")
    return status


if __name__ == "__main__":
    sys.exit(main())
