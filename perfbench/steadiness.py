#!/usr/bin/env python3
"""Steadiness record: runs the benchmark on several seeds per workload and
reports, for every end-to-end metric, the median and the spread (the
distance between the first and third quartiles as a share of the median),
then one traced run per workload for the per-layer numbers and the
tracing overhead.

Run from the repository root:

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1] [--out perfbench/steadiness.json]

Every workload of BENCHMARK.json is run, for its run_seconds. The
benchmark is built once up front (into $CARGO_TARGET_DIR, default
.bench_build) and each run is its own process.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

MANIFEST = "perfbench/Cargo.toml"
BENCHMARK = "BENCHMARK.json"


def run_once(binary, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    lines = out.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2 if q2 else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    with open(BENCHMARK) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    subprocess.run(["cargo", "build", "--release", "--quiet", "--offline",
                    "--manifest-path", MANIFEST],
                   check=True, env=dict(os.environ, CARGO_TARGET_DIR=target))
    binary = os.path.join(target, "release", "dlp-perfbench")

    record = {}
    for workload in [w["name"] for w in bench["workloads"]]:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            info, result = run_once(binary, workload, seed, seconds, 0)
            runs.append({"seed": seed, "info": info, "result": result})
            m = result["metrics"]
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in m.items())
                + f" attempted={result['attempted']} failed={result['failed']}"
                + f" correct={result['correct']}", file=sys.stderr, flush=True)
        summary = {}
        for name in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            med, sp = spread(values)
            summary[name] = {"median": med, "spread": sp,
                             "unit": runs[0]["result"]["metrics"][name]["unit"]}
        shares = sorted({r["result"]["failed"] / r["result"]["attempted"] for r in runs})
        info, traced = run_once(binary, workload, args.first_seed, seconds, 1)
        record[workload] = {
            "runs": runs,
            "summary": summary,
            "failed_shares": shares,
            "traced": traced,
            "tracing_overhead_s": traced["metrics"]["trace.run_s"]["value"]
            - summary["run_s"]["median"],
        }
        print(f"== {workload}: " + ", ".join(
            f"{k} median {v['median']:.6g} {v['unit']} spread {100 * v['spread']:.2f}%"
            for k, v in summary.items()) + f"; failed shares {shares}", flush=True)
        print(f"   traced run_s minus untraced median: "
              f"{record[workload]['tracing_overhead_s']:.4f} s", flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
