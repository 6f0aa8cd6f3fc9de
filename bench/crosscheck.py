"""One-off traced screen-prune/screen-off pair on the small instance.

    python3 bench/crosscheck.py --out FILE [--seconds S] [--seed N]

Runs gaugecg.solver.run on gen_synthetic(seed, n=100, d=50), weight 1,
10k iterations, with screening on and off, untraced and traced in turn
(the same tracer as ``run_bench.py --trace 1``), and writes per-iteration
and per-call costs to FILE. It checks per-call figures measured by hand
against the benchmark's own tool; it is not a benchmark workload.
"""

import argparse
import json
import os
import statistics
import sys

import run_bench


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    run_bench.pin_blas_threads()
    import facts
    import workloads

    iters = 10_000
    report = {"instance": {"seed": args.seed, "n": 100, "d": 50, "weight": 1.0,
                           "alpha": 2.0, "iters": iters, "trace_every": 100},
              "facts": facts.collect(run_bench.REPO_DIR), "modes": {}}
    cache = None
    for mode, screening in (("screen-prune", True), ("screen-off", False)):
        workload = workloads.Screen(args.seed, screening, n=100, d=50, weight=1.0,
                                    iters=iters, trace_every=100)
        if cache is None:
            cache = workload.build_cache()
        tally = run_bench.Tally()
        os.makedirs(workloads.OUT_DIR, exist_ok=True)
        spans_path = os.path.join(workloads.OUT_DIR, f"crosscheck-{mode}.spans.csv.gz")
        plain, traced, stats = run_bench.traced_calls(
            workload, cache, [], tally, args.seconds, spans_path
        )
        layers = stats.metrics()
        entry = {
            "us_per_iter_untraced": statistics.median(plain) / iters * 1e6,
            "us_per_iter_traced": statistics.median(traced) / iters * 1e6,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "per_layer": layers,
            "layer_table": stats.table(),
        }
        report["modes"][mode] = entry
        print(f"{mode}: {entry['us_per_iter_untraced']:.1f} us/iter untraced, "
              f"{entry['us_per_iter_traced']:.1f} traced; gradient "
              f"{layers['losses.gradient.us']:.1f} us, value {layers['losses.value.us']:.1f} us, "
              f"lmo {layers['atoms.lmo.us']:.1f} us, apply_rule "
              f"{layers['screening.apply_rule.us']:.1f} us; failed {tally.failed}/{tally.attempted}")
    with open(args.out, "w", encoding="ascii") as fh:
        json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
