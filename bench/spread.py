"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py [--workloads a,b] [--seeds 1,2,3] [--trace-seed N]
                            [--out FILE]

Reads the command, run_seconds and bounds from BENCHMARK.json. For each
workload it runs one untraced run per seed and prints, per end-to-end
metric, the median, the quartiles and the spread (quartile distance over
median) next to the metric's bound. With --trace-seed it adds one traced
run per workload. With --out it writes everything, including every run's
result line, to FILE (the format of the committed baseline files).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_DIR = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 180


def run_once(spec, workload, seed, trace):
    args = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    done = subprocess.run(
        args, cwd=REPO_DIR, capture_output=True, text=True,
        timeout=RUN_TIMEOUT_S, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    results_file = next(line[len("results: "):] for line in lines if line.startswith("results: "))
    with open(os.path.join(REPO_DIR, results_file), encoding="ascii") as fh:
        details = json.load(fh)
    return json.loads(lines[-1]), details


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else float("inf"),
        "values": values,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    with open(os.path.join(REPO_DIR, "BENCHMARK.json"), encoding="ascii") as fh:
        spec = json.load(fh)
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    for name in names:
        runs = []
        for seed in seeds:
            result, details = run_once(spec, name, seed, 0)
            result["us_per_iter"] = details["us_per_iter"]
            result["solve_s"] = details["solve_s"]
            runs.append(result)
            report.setdefault("facts", details["facts"])
            values = " ".join(
                f"{k}={v['value']:.4f}" for k, v in result["metrics"].items()
            )
            print(f"{name} seed={seed} correct={result['correct']} {values}", flush=True)
        entry = {"runs": runs, "metrics": {}}
        for metric, bound in bounds.items():
            stats = summarize([r["metrics"][metric]["value"] for r in runs])
            entry["metrics"][metric] = stats
            flag = "ok" if stats["spread"] < bound / 3 else "WIDE"
            print(f"  {name} {metric}: median {stats['median']:.4f} "
                  f"[{stats['q1']:.4f}, {stats['q3']:.4f}] spread "
                  f"{stats['spread']:.4f} bound {bound} {flag}", flush=True)
        wall = summarize([r["solve_s"] for r in runs])
        entry["solve_s"] = wall
        print(f"  {name} solve_s (wall, not gated): median {wall['median']:.4f} "
              f"spread {wall['spread']:.4f}", flush=True)
        if args.trace_seed is not None:
            result, details = run_once(spec, name, args.trace_seed, 1)
            entry["traced"] = details
            print(f"  {name} traced seed={args.trace_seed} "
                  f"correct={result['correct']}", flush=True)
        report["workloads"][name] = entry
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
