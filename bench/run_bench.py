"""gaugecg benchmark: run one workload and print its metrics.

    python3 bench/run_bench.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py for why each exists): screen-prune,
screen-off, reference, sweep. Every top-level call is checked for
correctness (checks.py); a call that raises or fails a check is counted in
"failed", never skipped.

With --trace 0 the run measures, with tracing off, in 5 fresh worker
processes run one after another (worker.py), which share --seconds of
calls (each makes at least one; none starts a call expected to end past
its share):
  setup_s      median over the workers of process start to ready
               (import gaugecg, generate data, build loss/penalty/set)
  solve_norm_s median wall time of the workload's top-level call over the
               calls of all workers (solve_s), scaled by the nominal over
               the median time of the calibration loop run before each
               call (calibrate.py): the solve time on a machine where the
               loop takes its nominal time, steady across the slow and
               fast spells of a shared machine
  peak_rss_mb  median over the workers of their peak resident memory
and, on stdout lines before the result, the wall-time solve_s, the loop
time, us_per_iter (fixed-budget workloads only) and failed_frac.

With --trace 1 the run alternates untraced and traced calls in one
process (at least 3 pairs) and reports
per-layer metrics from spans recorded around gaugecg's public functions
(tracing.py), plus the traced solve_s and the tracing overhead (traced
minus untraced median).

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. A results file with machine facts goes to bench/out/.
Check references that take long to compute are cached in bench/cache/;
building one is reported as reference_cache_s and is not part of setup_s.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_DIR = os.path.dirname(BENCH_DIR)
WORKLOAD_NAMES = ("screen-prune", "screen-off", "reference", "sweep")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKERS = 5
# traced runs make at least this many untraced/traced pairs
MIN_CALLS = 3
# keeps a run inside the 180 s a run may take, even if one call is slow
HARD_LIMIT_S = 110.0
SUBPROCESS_TIMEOUT_S = 60.0
ZERO_TOLERANCE_S = 1e-6


def pin_blas_threads():
    """One BLAS thread per process: the sweep's thread pool then runs at most
    nproc compute threads, and timings do not depend on how BLAS splits
    small matrix-vector products. Call before numpy loads; children inherit.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


class Tally:
    """Attempted and failed units (solves, instances or grid points)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, unit_failures):
        for failures in unit_failures:
            self.attempted += 1
            if failures:
                self.failed += 1
                self.messages.extend(failures)


def ensure_reference(workload, name, seed):
    """Build the workload's cached check reference if missing; returns the
    seconds spent (0.0 when cached or not needed)."""
    import refcache

    if workload.cache_key is None or os.path.isfile(refcache.path_for(workload)):
        return 0.0
    start = time.perf_counter()
    try:
        subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "refcache.py"), name, str(seed)],
            check=True, timeout=SUBPROCESS_TIMEOUT_S, cwd=REPO_DIR,
        )
    except subprocess.SubprocessError as err:
        print(f"check reference not built: {err}", file=sys.stderr)
    return time.perf_counter() - start


def load_reference(workload):
    """(cache, failures that apply to every call) for the workload."""
    import checks
    import refcache

    if workload.cache_key is None:
        return None, []
    try:
        cache = refcache.load(refcache.path_for(workload))
    except (OSError, ValueError) as err:
        return None, [f"no check reference: {err}"]
    return cache, checks.fingerprints_match(workload.fingerprints(), cache["fingerprints"])


def run_workers(name, seed, seconds):
    """Untraced calls spread over WORKERS fresh processes, one after another.

    Each worker is also one setup_s sample: process start to its "ready"
    line. Taking the median over calls from several processes spread over
    the run keeps one process's memory layout, or one slow spell of a
    shared machine, from setting the result. Each worker gets an equal
    share of the measuring time still left, so time a worker leaves unused
    (it starts no call that would end past its share) goes to the next.
    """
    worker = os.path.join(BENCH_DIR, "worker.py")
    setup, reports = [], []
    started = time.perf_counter()
    left = seconds
    while len(reports) < WORKERS and (
        not reports or time.perf_counter() - started < HARD_LIMIT_S
    ):
        share = max(left, 0.0) / (WORKERS - len(reports))
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, worker, name, str(seed), repr(share)],
            stdout=subprocess.PIPE, text=True, cwd=REPO_DIR,
        ) as proc:
            ready = proc.stdout.readline()
            ready_at = time.perf_counter()
            report = proc.stdout.read()
            proc.wait(timeout=SUBPROCESS_TIMEOUT_S)
        if ready.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"benchmark worker exited with code {proc.returncode}")
        setup.append(ready_at - start)
        reports.append(json.loads(report.strip().splitlines()[-1]))
        left -= reports[-1]["measured_s"]
    return setup, reports


def call_once(workload, cache, shared_failures, tally, tracer=None):
    """One timed top-level call, then its checks; returns (seconds, outcome)."""
    if tracer is not None:
        tracer.active = True
    start = time.perf_counter()
    try:
        outcome = workload.call()
    except Exception:  # a raising call is a counted failure, not a crash
        elapsed = time.perf_counter() - start
        tally.record([[traceback.format_exc(limit=4)]] * workload.units)
        return elapsed, None
    finally:
        if tracer is not None:
            tracer.active = False
    elapsed = time.perf_counter() - start
    if cache is None and shared_failures:
        tally.record([list(shared_failures)] * workload.units)
        return elapsed, outcome
    try:
        unit_failures = workload.check(outcome, cache)
    except Exception:  # a check that cannot run counts as failed
        unit_failures = [[traceback.format_exc(limit=4)]] * workload.units
    tally.record([failures + shared_failures for failures in unit_failures])
    return elapsed, outcome


def keep_going(calls, started, deadline, min_calls, limit_s, next_s=0.0):
    """Whether to start another call expected to take next_s: only if it
    ends by the deadline, so a run measures no longer than it was given,
    or if fewer than min_calls have been made."""
    now = time.perf_counter()
    if now - started > limit_s:
        return calls < 1
    return now + next_s <= deadline or calls < min_calls


def timed_calls(workload, cache, shared_failures, tally, seconds, calibration):
    """A worker's share of the untraced calls: at least one call, each just
    after a run of the calibration loop. Returns the call times, the loop
    times and the microseconds per iteration."""
    samples, loops, per_iter = [], [], []
    started = time.perf_counter()
    deadline = started + seconds
    elapsed = 0.0
    while keep_going(len(samples), started, deadline, 1, HARD_LIMIT_S / WORKERS, elapsed):
        loops.append(calibration.run())
        elapsed, outcome = call_once(workload, cache, shared_failures, tally)
        samples.append(elapsed)
        iterations = workload.iterations(outcome) if outcome is not None else None
        if iterations:
            per_iter.append(elapsed / iterations * 1e6)
        elapsed += loops[-1]
    return samples, loops, per_iter


def traced_calls(workload, cache, shared_failures, tally, seconds, spans_path):
    """Alternate untraced and traced calls in this process; fold spans into
    LayerStats."""
    import tracing

    tracer = tracing.Tracer()
    stats = tracing.LayerStats()
    plain, traced, last = [], [], []
    started = time.perf_counter()
    deadline = started + seconds
    pair_s = 0.0
    while keep_going(len(traced), started, deadline, MIN_CALLS, HARD_LIMIT_S, pair_s):
        pair_start = time.perf_counter()
        plain.append(call_once(workload, cache, shared_failures, tally)[0])
        with tracing.patched(tracer):
            traced.append(call_once(workload, cache, shared_failures, tally, tracer)[0])
        pair_s = time.perf_counter() - pair_start
        last = tracer.take()
        stats.add(last, workload.root)
    tracing.write_spans(last, spans_path)
    return plain, traced, stats


def quartiles(samples):
    if len(samples) < 2:
        return [samples[0], samples[0]]
    q = statistics.quantiles(samples, n=4)
    return [q[0], q[2]]


def per_layer_unit(name):
    if name.endswith(("_us", ".us")):
        return "us"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("calls", "cg_steps", "active_mean")):
        return "count"
    return "ratio"


def measure(tally, args):
    """End-to-end metrics with tracing off; returns (metrics, details)."""
    import workloads

    setup, reports = run_workers(args.workload, args.seed, args.seconds)
    samples = [t for r in reports for t in r["samples"]]
    loops = [t for r in reports for t in r["loop_samples"]]
    per_iter = [u for r in reports for u in r["us_per_iter"]]
    for r in reports:
        tally.attempted += r["attempted"]
        tally.failed += r["failed"]
        tally.messages.extend(r["messages"])
    peak_rss_mb = statistics.median(r["peak_rss_mb"] for r in reports)
    solve_s = statistics.median(samples)
    loop_s = statistics.median(loops)
    nominal_s = workloads.CALIBRATIONS[args.workload]["nominal_s"]
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "solve_norm_s": {"value": solve_s * nominal_s / loop_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    q1, q3 = quartiles(samples)
    us_per_iter = statistics.median(per_iter) if per_iter else None
    print(f"setup_s={metrics['setup_s']['value']:.4f} s (median of {len(setup)} processes)")
    print(f"solve_s={solve_s:.4f} s wall (median of {len(samples)} calls in "
          f"{len(reports)} processes, quartiles {q1:.4f}..{q3:.4f})")
    print(f"calibration loop {loop_s:.4f} s (median of {len(loops)}; nominal {nominal_s} s)")
    print(f"solve_norm_s={metrics['solve_norm_s']['value']:.4f} s "
          f"(solve_s * {nominal_s} / {loop_s:.4f})")
    if us_per_iter is not None:
        print(f"us_per_iter={us_per_iter:.2f} us")
    print(f"peak_rss_mb={peak_rss_mb:.1f} MB (median over processes)")
    details = {"setup_samples_s": setup, "solve_samples_s": samples,
               "solve_s": solve_s, "solve_quartiles_s": [q1, q3],
               "loop_samples_s": loops, "us_per_iter": us_per_iter,
               "peak_rss_mb_per_process": [r["peak_rss_mb"] for r in reports]}
    return metrics, details


def measure_traced(workload, tally, args, spans_path):
    """Per-layer metrics from the traced run; returns (metrics, details)."""
    cache, shared_failures = load_reference(workload)
    plain, traced, stats = traced_calls(
        workload, cache, shared_failures, tally, args.seconds, spans_path
    )
    values = stats.metrics()
    values["trace.solve_s"] = statistics.median(traced)
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in values.items()}
    for key, metric in metrics.items():
        print(f"{key}={metric['value']:.6g} {metric['unit']}")
    print(f"tracing overhead {values['trace.overhead_s']:+.4f} s on a "
          f"{statistics.median(plain):.4f} s untraced call")
    # self times must tile the main thread's root spans exactly
    tiled = (
        stats.min_self >= -ZERO_TOLERANCE_S
        and abs(stats.main_self_sum - stats.main_root_sum)
        <= ZERO_TOLERANCE_S * max(1.0, stats.main_root_sum)
    )
    if not tiled:
        tally.messages.append("span self times do not tile the root spans")
    details = {"untraced_samples_s": plain, "traced_samples_s": traced,
               "layer_table": stats.table(), "self_times_tile_root": tiled}
    return metrics, details


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join(REPO_DIR, "src", "gaugecg", "__init__.py")):
        print("error: src/gaugecg not found next to bench/; run from a gaugecg "
              "checkout", file=sys.stderr)
        return 2
    pin_blas_threads()
    # imported only now: they load numpy, which reads the pinned thread count
    import facts
    import workloads

    print(f"gaugecg bench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    stem = os.path.join(
        workloads.OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}"
    )
    workload = workloads.build(args.workload, args.seed)
    tally = Tally()
    try:
        cache_cost = ensure_reference(workload, args.workload, args.seed)
        print(f"reference_cache_s={cache_cost:.3f} "
              f"({'built' if cache_cost else 'cached or not needed'}; not in setup_s)")
        if args.trace == 0:
            metrics, details = measure(tally, args)
        else:
            metrics, details = measure_traced(
                workload, tally, args, stem + ".spans.csv.gz"
            )
    finally:
        workload.close()
    failed_frac = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"failed_frac={failed_frac:.4f} ({tally.failed}/{tally.attempted})")
    for message in tally.messages[:10]:
        print(f"check failed: {message}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "reference_cache_s": cache_cost,
        "facts": facts.collect(REPO_DIR), "attempted": tally.attempted,
        "failed": tally.failed, "failed_frac": failed_frac,
        "failures": tally.messages[:50], "metrics": metrics, **details,
    }
    with open(stem + ".json", "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=1)
    print(f"results: {os.path.relpath(stem + '.json', REPO_DIR)}")
    print(json.dumps({
        "correct": not tally.messages and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
