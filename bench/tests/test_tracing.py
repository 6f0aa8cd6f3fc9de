"""The tracer's arithmetic, and that tracing leaves gaugecg's output alone."""

import csv

import pytest

import gaugecg
from gaugecg import cli, experiments, losses, solver

import tracing
from tracing import Span


def test_self_times_on_a_hand_built_tree():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
    spans = [
        Span("root", 0.0, 10.0, None, None),
        Span("a", 1.0, 4.0, 0, None),
        Span("b", 2.0, 3.0, 1, None),
        Span("c", 5.0, 9.0, 0, None),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    stats = tracing.LayerStats()
    stats.add([spans], "root")
    assert stats.roots == 1
    assert stats.main_self_sum == pytest.approx(stats.main_root_sum) == 10.0
    assert stats.table()["a"] == {
        "calls": 1.0, "total_s": 3.0, "self_s": 2.0, "us_per_call": 3e6,
    }


def test_reference_self_time_excludes_only_its_steps():
    spans = [
        Span(tracing.REFERENCE_SOLVE, 0.0, 10.0, None, None),
        Span(tracing.STEP, 1.0, 3.0, 0, 5),
        Span("losses.gradient", 1.5, 2.0, 1, None),
        Span(tracing.STEP, 3.0, 6.0, 0, 5),
        Span("losses.gradient", 7.0, 8.0, 0, None),
    ]
    stats = tracing.LayerStats()
    stats.add([spans], tracing.REFERENCE_SOLVE)
    metrics = stats.metrics()
    assert metrics["experiments.cg_steps"] == 2
    assert metrics["experiments.reference_solve.self_s"] == pytest.approx(5.0)
    assert metrics["solver.step.self_us"] == pytest.approx(2.25e6)
    assert metrics["screening.active_mean"] == 5


def _trace_rows(directory):
    """Every trace CSV row with elapsed_s dropped, keyed by file name."""
    rows = {}
    for path in sorted(directory.glob("*.csv")):
        with open(path, newline="") as fh:
            table = list(csv.reader(fh))
        if table[0][-1] == "elapsed_s":
            table = [r[:-1] for r in table]
        rows[path.name] = table
    return rows


def _sweep(out):
    out.mkdir()
    code = cli.main([
        "synthetic", "--n", "30", "--d", "12", "--lambda", "0.01,0.1",
        "--screen", "prune", "--trace-every", "1", "--iters", "200",
        "--out", str(out),
    ])
    assert code == 0
    return _trace_rows(out)


def test_patching_leaves_outputs_bit_identical_and_restores(tmp_path, capsys):
    originals = [
        solver.step, solver.run, solver.TraceRecord, experiments.step,
        experiments.run, cli.run_experiment, cli.main,
        vars(losses.LogisticLoss)["gradient"],
    ]
    before = _sweep(tmp_path / "before")
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        assert solver.step is not originals[0]
        tracer.active = True
        during = _sweep(tmp_path / "during")
        tracer.active = False
    after = _sweep(tmp_path / "after")
    assert before == during == after
    assert len(before) == 4
    assert originals == [
        solver.step, solver.run, solver.TraceRecord, experiments.step,
        experiments.run, cli.run_experiment, cli.main,
        vars(losses.LogisticLoss)["gradient"],
    ]
    stats = tracing.LayerStats()
    threads = tracer.take()
    stats.add(threads, "cli.main")
    metrics = stats.metrics()
    assert stats.roots == 1
    assert stats.calls[tracing.STEP] == 400
    assert metrics["losses.value.useful_ratio"] == 1.0
    assert metrics["screening.apply_rule.calls"] == 400
    assert stats.min_self >= 0.0
    assert gaugecg.run is originals[1]
