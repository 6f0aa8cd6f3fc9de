"""Outside-in span tracer for gaugecg.

The tracer wraps public functions and methods of gaugecg from the
benchmark's side: nothing under src/ is edited. ``patched`` swaps the
wrappers into the module and class attributes that the library resolves
at call time and restores the originals on exit. Each wrapped call, made
while ``Tracer.active`` is set, records one span (name, start, end, parent
index, optional note) in a list owned by the calling thread; spans stay in
memory until ``take`` hands them over.

Methods are wrapped on their classes (LogisticLoss, AtomicSet, Penalty)
rather than on the benchmark's own instances, because the sweep workload
calls the CLI, which builds its loss, penalty and atomic set internally.
"""

import contextlib
import functools
import gzip
import statistics
import threading
import time
from collections import namedtuple

Span = namedtuple("Span", "name start end parent note")

STEP = "solver.step"
REFERENCE_SOLVE = "experiments.reference_solve"
RUN = "solver.run"
RUN_EXPERIMENT = "experiments.run_experiment"
APPLY_RULE = "screening.apply_rule"
TRACE_ROW = "solver.trace_row"


class Tracer:
    """Collects spans per thread while ``active`` is true."""

    def __init__(self):
        self.active = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._threads = []

    def _thread_state(self):
        """[spans, index of the open span] for the calling thread."""
        state = [[], None]
        self._local.state = state
        with self._lock:
            self._threads.append(state[0])
        return state

    def wrap(self, name, fn, note=None):
        """A stand-in for fn that records a span per call when active.

        Spans are stored as plain tuples in Span field order. note, if
        given, maps the return value to a small value stored on the span;
        it runs after the span's end time is taken.
        """
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            try:
                state = tracer._local.state
            except AttributeError:
                state = tracer._thread_state()
            spans, parent = state
            index = len(spans)
            spans.append(None)
            state[1] = index
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent, None)
                state[1] = parent
            if note is not None:
                spans[index] = spans[index][:4] + (note(result),)
            return result

        # updated=() keeps a wrapped class's __dict__ off the function
        return functools.update_wrapper(traced, fn, updated=())

    def take(self):
        """Hand over the spans recorded so far, one list per thread.

        Call only while no traced call is in flight.
        """
        with self._lock:
            threads, self._threads = self._threads, []
        self._local = threading.local()
        return threads


def _active_count(state):
    return state.mask.active_count


def _removed_any(outcome):
    return bool(outcome[1].removed_ids)


def _targets():
    """(owner, attribute, span name, note) for every traced boundary."""
    from gaugecg import atoms, cli, experiments, losses, penalties, screening, solver

    return [
        (losses.LogisticLoss, "gradient", "losses.gradient", None),
        (losses.LogisticLoss, "value", "losses.value", None),
        (atoms.AtomicSet, "lmo", "atoms.lmo", None),
        (atoms.AtomicSet, "dots", "atoms.dots", None),
        (atoms.AtomicSet, "atom_vector", "atoms.atom_vector", None),
        (penalties.Penalty, "xi_step", "penalties.xi_step", None),
        (penalties.Penalty, "value", "penalties.value", None),
        (screening, "apply_rule", APPLY_RULE, _removed_any),
        (screening, "support_of", "screening.support_of", None),
        (solver, "run", RUN, None),
        (solver, "step", STEP, _active_count),
        (solver, "TraceRecord", TRACE_ROW, None),
        (experiments, "run", RUN, None),
        (experiments, "step", STEP, _active_count),
        (experiments, "reference_solve", REFERENCE_SOLVE, None),
        (experiments, "write_trace_csv", "experiments.write_trace_csv", None),
        (experiments, "write_screen_csv", "experiments.write_screen_csv", None),
        (cli, "run_experiment", RUN_EXPERIMENT, None),
        (cli, "main", "cli.main", None),
    ]


@contextlib.contextmanager
def patched(tracer):
    """Install the tracer's wrappers on gaugecg; restore the originals on exit."""
    saved = []
    try:
        for owner, attr, name, note in _targets():
            # vars() gives the plain function for methods, not a bound one
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, note))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans):
    """Self time of every span in one thread's list: its duration minus the
    durations of its direct children."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]


class LayerStats:
    """Per-layer aggregates folded in from batches of per-thread spans."""

    def __init__(self):
        self.calls = {}
        self.total = {}
        self.self_ = {}
        self.roots = 0
        self.main_self_sum = 0.0
        self.main_root_sum = 0.0
        self.min_self = 0.0
        self.step_durations = []
        self.step_active = []
        self.pruning_passes = 0
        self.reference_outside_steps = 0.0
        self.reference_steps = 0

    def add(self, threads, root_name):
        """Fold in one batch; threads[0] must be the calling thread's list."""
        for position, spans in enumerate(threads):
            selfs = self_times(spans)
            step_time_under = {}
            for i, (name, start, end, parent, note) in enumerate(spans):
                duration = end - start
                self.calls[name] = self.calls.get(name, 0) + 1
                self.total[name] = self.total.get(name, 0.0) + duration
                self.self_[name] = self.self_.get(name, 0.0) + selfs[i]
                self.min_self = min(self.min_self, selfs[i])
                if position == 0:
                    self.main_self_sum += selfs[i]
                    if parent is None:
                        self.main_root_sum += duration
                if name == root_name and parent is None:
                    self.roots += 1
                if name == STEP:
                    self.step_durations.append(duration)
                    self.step_active.append(note)
                    if parent is not None and spans[parent][0] == REFERENCE_SOLVE:
                        self.reference_steps += 1
                        step_time_under[parent] = step_time_under.get(parent, 0.0) + duration
                elif name == APPLY_RULE and note:
                    self.pruning_passes += 1
            for i, (name, start, end, _, _) in enumerate(spans):
                if name == REFERENCE_SOLVE:
                    outside = end - start - step_time_under.get(i, 0.0)
                    self.reference_outside_steps += outside

    def _per_call_us(self, name):
        calls = self.calls.get(name, 0)
        return self.total[name] / calls * 1e6 if calls else 0.0

    def _per_root(self, table, name):
        return table.get(name, 0) / self.roots if self.roots else 0.0

    def metrics(self):
        """Per-layer metric values.

        ``*.us`` is mean wall time per call, children included; ``*.calls``
        and ``*.s`` are per root call (one top-level call of the workload).
        useful_ratio is trace rows built over loss values computed;
        prune_yield is screening passes that removed an atom over passes;
        active_mean is the mean active-atom count after each step. The
        step percentiles are over single steps, and step self time excludes
        the wrapped calls a step makes. reference_solve.self_s is its time
        outside its CG steps (the polish included) and cg_steps the steps it
        took, both per call. pool_overlap is the summed solver.run time over
        the run_experiment wall time (1.0 means serial). A layer that the
        workload never calls reads 0.
        """
        calls = self.calls
        steps = sorted(self.step_durations)
        value_calls = calls.get("losses.value", 0)
        rule_calls = calls.get(APPLY_RULE, 0)
        reference_calls = calls.get(REFERENCE_SOLVE, 0)
        experiment_wall = self.total.get(RUN_EXPERIMENT, 0.0)
        cli_calls = calls.get("cli.main", 0)
        return {
            "losses.gradient.us": self._per_call_us("losses.gradient"),
            "losses.gradient.calls": self._per_root(calls, "losses.gradient"),
            "losses.value.us": self._per_call_us("losses.value"),
            "losses.value.calls": self._per_root(calls, "losses.value"),
            "losses.value.useful_ratio": (
                calls.get(TRACE_ROW, 0) / value_calls if value_calls else 0.0
            ),
            "screening.apply_rule.us": self._per_call_us(APPLY_RULE),
            "screening.apply_rule.calls": self._per_root(calls, APPLY_RULE),
            "screening.prune_yield": (
                self.pruning_passes / rule_calls if rule_calls else 0.0
            ),
            "screening.active_mean": (
                statistics.fmean(self.step_active) if self.step_active else 0.0
            ),
            "atoms.lmo.us": self._per_call_us("atoms.lmo"),
            "atoms.dots.us": self._per_call_us("atoms.dots"),
            "atoms.dots.calls": self._per_root(calls, "atoms.dots"),
            "atoms.atom_vector.calls": self._per_root(calls, "atoms.atom_vector"),
            "penalties.xi_step.us": self._per_call_us("penalties.xi_step"),
            "penalties.value.calls": self._per_root(calls, "penalties.value"),
            "solver.step.p50_us": _quantile(steps, 0.50) * 1e6,
            "solver.step.p99_us": _quantile(steps, 0.99) * 1e6,
            "solver.step.self_us": (
                self.self_[STEP] / calls[STEP] * 1e6 if calls.get(STEP) else 0.0
            ),
            "experiments.reference_solve.self_s": (
                self.reference_outside_steps / reference_calls
                if reference_calls else 0.0
            ),
            "experiments.cg_steps": (
                self.reference_steps / reference_calls if reference_calls else 0.0
            ),
            "experiments.pool_overlap": (
                self.total.get(RUN, 0.0) / experiment_wall if experiment_wall else 0.0
            ),
            "experiments.write_trace_csv.s": self._per_root(
                self.total, "experiments.write_trace_csv"
            ),
            "experiments.write_screen_csv.s": self._per_root(
                self.total, "experiments.write_screen_csv"
            ),
            "cli.main.self_s": (
                self.self_["cli.main"] / cli_calls if cli_calls else 0.0
            ),
        }

    def table(self):
        """Per-span-name calls, total and self seconds per root call."""
        roots = self.roots or 1
        return {
            name: {
                "calls": self.calls[name] / roots,
                "total_s": self.total[name] / roots,
                "self_s": self.self_[name] / roots,
                "us_per_call": self.total[name] / self.calls[name] * 1e6,
            }
            for name in sorted(self.calls)
        }


def _quantile(ordered, q):
    """Nearest-rank quantile of a sorted list; 0.0 when empty."""
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, int(round(q * len(ordered))) - 1))
    return ordered[rank]


def write_spans(threads, path):
    """Write spans as gzip CSV: thread, index, name, start, end, parent."""
    with gzip.open(path, "wt", encoding="ascii") as fh:
        fh.write("thread,index,name,start,end,parent\n")
        for thread, spans in enumerate(threads):
            for index, (name, start, end, parent, _) in enumerate(spans):
                parent = "" if parent is None else parent
                fh.write(f"{thread},{index},{name},{start!r},{end!r},{parent}\n")
