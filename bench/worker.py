"""One measuring process of an untraced benchmark run.

    python3 bench/worker.py WORKLOAD SEED SECONDS

Builds the workload and prints "ready"; run_bench.py takes process start
to that line as one setup_s sample. Then makes checked top-level calls for
SECONDS (at least one), each after a run of the workload's calibration
loop (calibrate.py), and prints one JSON line with the call times, the
loop times, the time spent calling, the check tally and this process's
peak resident memory.
"""

import json
import resource
import sys
import time

import run_bench

run_bench.pin_blas_threads()

import calibrate  # noqa: E402
import workloads  # noqa: E402


def main(argv):
    name, seed, seconds = argv[0], int(argv[1]), float(argv[2])
    workload = workloads.build(name, seed)
    print("ready", flush=True)
    calibration = calibrate.Calibration(**workloads.CALIBRATIONS[name])
    tally = run_bench.Tally()
    try:
        cache, shared_failures = run_bench.load_reference(workload)
        started = time.perf_counter()
        samples, loops, per_iter = run_bench.timed_calls(
            workload, cache, shared_failures, tally, seconds, calibration
        )
        measured_s = time.perf_counter() - started
    finally:
        workload.close()
    print(json.dumps({
        "samples": samples,
        "loop_samples": loops,
        "measured_s": measured_s,
        "us_per_iter": per_iter,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "messages": tally.messages[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
