"""Correctness checks on benchmark outcomes.

Each check returns a list of failure messages; an empty list is a pass.
The benchmark counts a solve (or grid point) as failed when any check on
it returns a message, so a failed check is counted, never skipped.
"""

import os
import re

import numpy as np

GAP_SLACK = 1e-10
LEDGER_RTOL = 1e-9
ITERATE_RTOL = 1e-9
OBJECTIVE_RTOL = 1e-9
REFERENCE_GAP_TOL = 1e-10

# Pinned here rather than imported, so a changed CSV layout shows up.
TRACE_HEADER = "t,objective,gap,min_gap,sigma,active_atoms,nonzeros,xi,elapsed_s"
SCREEN_HEADER = "t,removed_ids,threshold,sigma,remaining"

_SUMMARY_LINE = re.compile(
    r"^(?P<stem>\S+): (?P<status>\S+) .*?\biters=(?P<iters>\d+)\b"
    r".*?\btrace=(?P<trace>\S+)(?: screen=(?P<screen>\S+))?"
)


def gaps_nonnegative(trace):
    """gap >= -1e-10 * (1 + |sigma|) on every traced row."""
    bad = [
        row.t for row in trace
        if not row.gap >= -GAP_SLACK * (1.0 + abs(row.sigma))
    ]
    return [f"negative gap on traced rows t={bad[:5]}"] if bad else []


def ledger_matches(state):
    """The conic ledger rebuilds the iterate to 1e-9 relative."""
    x = state.x
    error = float(np.linalg.norm(state.reconstruct() - x))
    limit = LEDGER_RTOL * max(float(np.linalg.norm(x)), 1e-300)
    if not error <= limit:
        return [f"ledger reconstructs x with error {error:.3e} > {limit:.3e}"]
    return []


def objective_bracketed(objective, gap, reference_objective):
    """ref - eps <= objective <= ref + gap + eps.

    gap is the duality gap at the same (final) iterate, which bounds its
    suboptimality; eps covers the reference's own certified gap.
    """
    eps = OBJECTIVE_RTOL * (1.0 + abs(reference_objective))
    low = reference_objective - eps
    high = reference_objective + gap + eps
    if not low <= objective <= high:
        return [
            f"final objective {objective!r} outside "
            f"[{low!r}, {high!r}] around the reference"
        ]
    return []


def no_false_eliminations(screen_events, support_ids):
    """No screening pass removed an atom of the reference support."""
    support = set(support_ids)
    hits = [
        (event.t, sorted(set(event.removed_ids) & support))
        for event in screen_events
        if support.intersection(event.removed_ids)
    ]
    return [f"screening removed reference-support atoms: {hits[:5]}"] if hits else []


def same_iterate(x, other):
    """Two runs ended on the same iterate, to 1e-9 relative in max norm."""
    x = np.asarray(x, dtype=float)
    other = np.asarray(other, dtype=float)
    if x.shape != other.shape:
        return [f"iterate shapes differ: {x.shape} vs {other.shape}"]
    error = float(np.max(np.abs(x - other), initial=0.0))
    limit = ITERATE_RTOL * (1.0 + float(np.max(np.abs(other), initial=0.0)))
    if not error <= limit:
        return [f"final iterate differs from the cached screening-off iterate by {error:.3e}"]
    return []


def reference_certified(reference, support_ids):
    """reached, gap <= 1e-10, and the cached support for this seed."""
    failures = []
    if reference.reached is not True:
        failures.append("reference_solve did not reach its tolerance")
    if not reference.gap <= REFERENCE_GAP_TOL:
        failures.append(f"reference gap {reference.gap!r} > {REFERENCE_GAP_TOL}")
    if set(reference.support_ids) != set(support_ids):
        failures.append(
            f"support {sorted(reference.support_ids)} differs from the cached "
            f"{sorted(support_ids)}"
        )
    return failures


def fingerprints_match(expected, stored):
    """The cached references were made for exactly these problems."""
    if list(expected) != list(stored):
        return [
            "problem fingerprint mismatch with the cached check reference "
            f"({[f[:12] for f in expected]} vs {[f[:12] for f in stored]}); "
            "the data generator or problem changed: delete the cache file"
        ]
    return []


def _csv_header_and_rows(path):
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().rstrip("\n")
        rows = sum(1 for _ in fh)
    return header, rows


def sweep_outputs(exit_code, stdout, points):
    """Per-grid-point failures of one CLI sweep.

    Each point needs status ok, a trace CSV with the pinned header and one
    row per iteration plus the final row (trace_every=1), and a screening
    CSV with its pinned header. A nonzero exit fails every point.
    """
    parsed = [m for m in map(_SUMMARY_LINE.match, stdout.splitlines()) if m]
    results = []
    for i in range(points):
        failures = []
        if exit_code != 0:
            failures.append(f"cli exit code {exit_code}")
        if i >= len(parsed):
            failures.append(f"no summary line for grid point {i}")
            results.append(failures)
            continue
        match = parsed[i]
        if match["status"] != "ok":
            failures.append(f"{match['stem']}: status {match['status']}")
        expected_rows = int(match["iters"]) + 1
        try:
            header, rows = _csv_header_and_rows(match["trace"])
            if header != TRACE_HEADER:
                failures.append(f"{match['trace']}: header {header!r}")
            if rows != expected_rows:
                failures.append(f"{match['trace']}: {rows} rows, expected {expected_rows}")
            screen = match["screen"]
            if screen is None or not os.path.isfile(screen):
                failures.append(f"{match['stem']}: no screening CSV")
            elif _csv_header_and_rows(screen)[0] != SCREEN_HEADER:
                failures.append(f"{screen}: unexpected header")
        except OSError as err:
            failures.append(f"{match['stem']}: {err}")
        results.append(failures)
    if len(parsed) > points:
        results[-1].append(f"{len(parsed)} summary lines, expected {points}")
    return results
