"""The calibration loop and the worker's share of calls."""

import time

import numpy as np

import calibrate
import run_bench
import workloads


def test_calibration_loop_is_the_same_in_every_process():
    first = calibrate.Calibration(n=20, d=30, iters=50, nominal_s=1.0)
    second = calibrate.Calibration(n=20, d=30, iters=50, nominal_s=1.0)
    assert np.array_equal(first.a, second.a)
    assert np.array_equal(first.y, second.y)
    assert first.run() > 0.0


def test_every_workload_has_a_calibration():
    assert set(workloads.CALIBRATIONS) == set(workloads.WORKLOADS)
    assert all(spec["nominal_s"] > 0 for spec in workloads.CALIBRATIONS.values())


def test_timed_calls_loop_before_each_call_and_keep_to_the_share():
    class Sleeping:
        units = 1

        def call(self):
            time.sleep(0.1)
            return "done"

        def check(self, outcome, cache):
            return [[]]

        def iterations(self, outcome):
            return None

    class Loop:
        def run(self):
            time.sleep(0.01)
            return 0.01

    share = 0.35
    tally = run_bench.Tally()
    started = time.perf_counter()
    samples, loops, _ = run_bench.timed_calls(Sleeping(), {}, [], tally, share, Loop())
    # no call starts that would end a whole call past the share
    assert time.perf_counter() - started < share + 0.1
    assert len(samples) == len(loops) >= 2
    assert (tally.attempted, tally.failed) == (len(samples), 0)
