"""Each correctness check of the benchmark fires on a planted fault."""

import json
import os

import pytest

import gaugecg as gc
from gaugecg.screening import ScreenReport
from gaugecg.solver import TraceRecord

import checks
import refcache
import run_bench
import workloads


def small_run(screening=True, iters=300):
    data = gc.gen_synthetic(3, n=30, d=12)
    loss = gc.LogisticLoss(data)
    penalty = gc.Penalty.power(2.0, weight=0.05)
    atomic_set = gc.AtomicSet.signed_basis(12)
    config = gc.SolverConfig(max_iters=iters, screening_enabled=screening, trace_every=10)
    return gc.run(loss, penalty, atomic_set, config)


def row(t, gap, sigma=1.0):
    return TraceRecord(t, 1.0, gap, gap, sigma, 4, 2, 1.0, 0.0)


def test_gap_check_fires_on_a_negative_gap():
    assert checks.gaps_nonnegative([row(1, 0.5), row(2, 0.0), row(3, -1e-11)]) == []
    assert checks.gaps_nonnegative([row(1, 0.5), row(2, -1e-6)])
    assert checks.gaps_nonnegative([row(1, float("nan"))])


def test_elimination_check_fires_on_a_removed_support_atom():
    events = [ScreenReport(4, [1, 5], 0.1, 1.0, 10), ScreenReport(9, [7], 0.1, 1.0, 9)]
    assert checks.no_false_eliminations(events, {0, 2, 3}) == []
    failures = checks.no_false_eliminations(events, {0, 7})
    assert failures and "7" in failures[0]


def test_ledger_check_fires_on_a_broken_ledger():
    result = small_run()
    assert checks.ledger_matches(result.state) == []
    result.state.x = result.state.x + 1e-6
    assert checks.ledger_matches(result.state)


def test_objective_and_iterate_checks_fire_off_the_reference():
    assert checks.objective_bracketed(1.0 + 1e-4, 2e-4, 1.0) == []
    assert checks.objective_bracketed(1.0 + 1e-3, 2e-4, 1.0)
    assert checks.objective_bracketed(1.0 - 1e-6, 2e-4, 1.0)
    assert checks.same_iterate([1.0, 2.0], [1.0, 2.0]) == []
    assert checks.same_iterate([1.0, 2.0], [1.0, 2.0 + 1e-6])


def test_screening_modes_end_on_the_same_iterate():
    pruned, plain = small_run(True), small_run(False)
    assert pruned.screen_events
    assert checks.same_iterate(pruned.state.x, plain.state.x) == []


def test_reference_check_fires_on_a_changed_support():
    class Fake:
        reached, gap, support_ids = True, 1e-12, frozenset({1, 4})

    assert checks.reference_certified(Fake, [1, 4]) == []
    assert checks.reference_certified(Fake, [1, 5])
    Fake.gap = 1e-8
    assert checks.reference_certified(Fake, [1, 4])


def test_fingerprint_mismatch_fails_every_call(tmp_path, monkeypatch):
    monkeypatch.setattr(refcache, "CACHE_DIR", str(tmp_path))
    workload = workloads.Reference(seed=1)
    other = workloads.Reference(seed=2)
    stale = {"fingerprints": other.fingerprints(), "support_ids": [[0], [0]]}
    with open(refcache.path_for(workload), "w", encoding="ascii") as fh:
        json.dump(stale, fh)
    assert run_bench.ensure_reference(workload, "reference", 1) == 0.0
    cache, shared = run_bench.load_reference(workload)
    assert shared and "fingerprint mismatch" in shared[0]

    class Passing:
        units = 2

        def call(self):
            return "outcome"

        def check(self, outcome, cache):
            return [[], []]

    tally = run_bench.Tally()
    run_bench.call_once(Passing(), cache, shared, tally)
    assert (tally.attempted, tally.failed) == (2, 2)


def test_raising_call_is_counted_not_skipped():
    class Raising:
        units = 3

        def call(self):
            raise gc.DivergenceError("planted")

    tally = run_bench.Tally()
    run_bench.call_once(Raising(), None, [], tally)
    assert (tally.attempted, tally.failed) == (3, 3)


def test_sweep_check_fires_on_a_short_trace_csv(tmp_path):
    argv = [
        "synthetic", "--n", "30", "--d", "12", "--lambda", "0.01,0.1",
        "--screen", "prune", "--trace-every", "1", "--iters", "150",
        "--out", str(tmp_path),
    ]
    code, text = workloads.Sweep.call(type("S", (), {"argv": argv})())
    assert checks.sweep_outputs(code, text, 2) == [[], []]
    assert checks.sweep_outputs(code, text, 3)[2]
    assert all(checks.sweep_outputs(1, text, 2))
    trace_csv = sorted(p for p in os.listdir(tmp_path) if not p.endswith("screen.csv"))[0]
    path = tmp_path / trace_csv
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))
    assert sum(bool(f) for f in checks.sweep_outputs(code, text, 2)) == 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_builds_and_names_its_root(name):
    workload = workloads.build(name, 0)
    try:
        assert workload.units >= 1
        assert workload.root in {"solver.run", "experiments.reference_solve", "cli.main"}
    finally:
        workload.close()
