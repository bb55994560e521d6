"""Run-to-run spread of the benchmark, the check its bounds are held to.

    python3 bench/spread.py [--runs 10] [--first-seed 100] [--workloads check-line]
    python3 bench/spread.py --trace 1 [--runs 2]

--trace 0 runs each workload once per seed and prints, per end-to-end
metric, the median, the quartiles and the inter-quartile distance over the
median, against the metric's bound in BENCHMARK.json.  --trace 1 runs each
workload with one seed and checks that every count metric repeats exactly.
Runs are sequential child processes, each waited for.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import stats  # noqa: E402


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs not correct")
    return result


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    status = 0
    if args.trace:
        for workload in args.workloads:
            runs = [run_once(spec, workload, args.first_seed, 1)["metrics"] for _ in range(args.runs)]
            counts = [m["name"] for m in spec["per_layer"] if m["unit"] != "s"]
            differ = [n for n in counts if len({r[n]["value"] for r in runs}) > 1]
            print(f"{workload:<11} counts repeat over {args.runs} runs: {'yes' if not differ else differ}")
            overhead = [r["trace.overhead_s"]["value"] for r in runs]
            print(f"{workload:<11} trace.overhead_s {overhead}")
            status = status or bool(differ)
        return status

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in args.workloads:
        runs = []
        for i in range(args.runs):
            result = run_once(spec, workload, args.first_seed + i, 0)
            runs.append(result["metrics"])
            print(f"{workload:<11} seed {args.first_seed + i}: "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for name, bound in bounds.items():
            values = [r[name]["value"] for r in runs]
            spread = stats.relative_spread(values)
            q1, q2, q3 = statistics.quantiles(values, n=4)
            ok = spread <= bound / 3 or name == "setup_s"
            status = status or not ok
            print(f"{workload:<11} {name:<12} median {q2:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {spread:.4f}  bound {bound}  {'ok' if ok else 'WIDE'}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
