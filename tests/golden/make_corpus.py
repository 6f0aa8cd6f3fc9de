"""Golden corpus: sha256 digests of what a fixed matrix of runs writes.

The matrix is small and fixed. Every run takes 300 steps with every row
traced and snapshots kept, screened and unscreened, unless said otherwise:
- the logistic signed basis at n=100, d=50, seeds 0 and 3, power penalty
  weights 0.01 and 1;
- the same at seed 3 with one change each: a quadratic loss, scale 0.7,
  power exponents 1.5 and 3, a log-barrier and an indicator penalty, the
  4t2 schedule, and a warm start with negative and -0 entries;
- the logistic signed basis at n=200, d=1000, seeds 3 and 11, weight 0.1:
  unscreened runs score from a window of columns (atoms._WINDOW_FLOOR),
  screened ones from a copy of the active columns from t = 189 and 193;
- n=200, d=300, seed 2, weight 0.01, unscreened: its windows never hold
  and the back-off between them reaches a wait of 256 refreshes;
- one state at n=200, d=1000, seed 11, weight 0.1, stepped 150 times
  screened, 150 times unscreened on the mask the first steps pruned, 50
  times screened again and 50 times unscreened;
- hypercube(6) and a 12-atom explicit set on a 30-row logistic problem,
  and hypercube(6) from a warm start with negative and -0 entries;
- a quadratic run that aborts under a lowered divergence limit;
- reference_solve at seeds 0 and 3 for weights 0.01 and 1, at n=200,
  d=1000, seed 3, weight 0.1 (the bench problem, whose polish does the most
  Newton work), on hypercube(6) and the 12-atom explicit set, and for a
  log-barrier and an indicator penalty;
- residuals and build_certificate for the screened and the unscreened
  seed-3, weight-0.01 run against that reference.

Each run case digests the trace rows without elapsed_s, the screen
events, the final x and margins ax, the ledger, the snapshots' x bytes and
sorted ids, and an abort's type, message and t; the reference and
certificate JSON, and every residual column but gradient_error, which is
stored as full-precision values. A full-precision summary of the same
cases serves a platform whose numpy version, BLAS build, BLAS kernel or
machine differs from the one the digests were made on.

Regenerate with the code whose outputs are to be pinned on the import path:

    PYTHONPATH=src python tests/golden/make_corpus.py
"""

import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import sys

import numpy as np

import gaugecg as gc
from gaugecg import solver
from gaugecg.experiments import residuals

CORPUS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "corpus.json")
STEPS = 300
WEIGHTS = (0.01, 1.0)


def platform_facts():
    """numpy version, BLAS build, BLAS kernel and machine, the BLAS build
    read from np.show_config as bench/facts.py reads it."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        parts = [blas.get("name", "?"), blas.get("version", "?")]
        if blas.get("openblas configuration"):
            parts.append(blas["openblas configuration"])
        build = " ".join(parts)
    except (TypeError, KeyError):
        build = "unknown"
    return {
        "numpy": np.__version__,
        "blas": build,
        "blas_core": _blas_core(),
        "machine": platform.machine(),
    }


def _blas_core():
    """The kernel set that numpy's bundled OpenBLAS chose when it loaded: a
    DYNAMIC_ARCH build picks it from the CPU, whatever its build string
    names. "unknown" when no bundled library answers."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode("ascii")
    return "unknown"


def _digest(parts):
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part if isinstance(part, bytes) else repr(part).encode())
        digest.update(b"\0")
    return digest.hexdigest()


def _signed_basis_problem(seed, weight, n=100, d=50, penalty=None, scale=1.0):
    data = gc.gen_synthetic(seed, n=n, d=d)
    if penalty is None:
        penalty = gc.Penalty.power(2.0, weight=weight)
    return gc.LogisticLoss(data), penalty, gc.AtomicSet.signed_basis(d, scale)


def _quadratic_problem():
    data = gc.gen_synthetic(3, n=100, d=50)
    features = data.features / math.sqrt(100)
    noise = np.random.default_rng(3).standard_normal(100)
    targets = features[:, :5].sum(axis=1) + 0.1 * noise
    loss = gc.QuadraticLoss(gc.DataMatrix(features, targets))
    return loss, gc.Penalty.power(2.0, weight=0.1), gc.AtomicSet.signed_basis(50)


def _small_problem(kind):
    rng = np.random.default_rng(7)
    features = rng.standard_normal((30, 6)) * 0.4
    targets = np.where(rng.standard_normal(30) > 0, 1.0, -1.0)
    loss = gc.LogisticLoss(gc.DataMatrix(features, targets))
    if kind == "hypercube":
        aset = gc.AtomicSet.hypercube(6)
    else:
        aset = gc.AtomicSet.explicit(rng.standard_normal((12, 6)))
    return loss, gc.Penalty.power(2.0, weight=0.05), aset


def _config(screened, schedule="2t1", max_iters=STEPS):
    return gc.SolverConfig(
        max_iters=max_iters, step_schedule=schedule, screening_enabled=screened,
        trace_every=1, keep_snapshots=True,
    )


def _run(problem, screened, schedule="2t1", x0=None):
    """The run's result, or the partial result of its abort with the
    error."""
    try:
        return gc.run(*problem, _config(screened, schedule), x0=x0), None
    except (gc.DivergenceError, gc.UnboundedStepError) as err:
        return err.result, err


def _switching_entry():
    """One state stepped screened, unscreened, screened again, and
    unscreened again: the unscreened steps score the mask the screened ones
    pruned, from A'v while it touches 170 columns and from the copy of its
    columns once they are few."""
    loss, penalty, aset = _signed_basis_problem(11, 0.1, n=200, d=1000)
    state = gc.SolverState(aset)
    for screened, steps in ((True, 150), (False, 150), (True, 50), (False, 50)):
        config = _config(screened, max_iters=400)
        for _ in range(steps):
            gc.step(state, loss, penalty, aset, config)
    return _run_entry(solver.RunResult(loss, penalty, aset, config, state))


def _divergence_entry():
    """The quadratic run under a divergence limit of 100, which it passes
    at t = 3 (|x| 12.9, 77.9, then 379)."""
    limit = solver._DIVERGENCE_LIMIT
    solver._DIVERGENCE_LIMIT = 100.0
    try:
        return _run_entry(*_run(_quadratic_problem(), False))
    finally:
        solver._DIVERGENCE_LIMIT = limit


def _run_entry(result, error=None):
    rows = [
        (r.t, r.objective, r.gap, r.min_gap, r.sigma, r.active_atoms, r.nonzeros, r.xi)
        for r in result.trace
    ]
    events = [
        (e.t, list(e.removed_ids), e.threshold, e.sigma, e.remaining)
        for e in result.screen_events
    ]
    snaps = []
    for snap in result.snapshots:
        snaps += [snap.t, snap.x.tobytes(), sorted(snap.active_ids)]
    state = result.state
    last = result.trace[-1]
    entry = {
        "digests": {
            "trace": _digest(rows),
            "screen_events": _digest(events),
            "x": _digest([state.x.tobytes()]),
            "ax": _digest([state.ax.tobytes()]),
            "ledger": _digest(sorted(state.coeffs.items())),
            "snapshots": _digest(snaps),
        },
        "summary": {
            "rows": len(rows),
            "objective": last.objective,
            "min_gap": last.min_gap,
            "events": len(events),
        },
    }
    # x in full up to d = 50, |x|_1 beyond, to keep the file small
    if state.x.size <= 50:
        entry["summary"]["x"] = state.x.tolist()
    else:
        entry["summary"]["x_l1"] = float(np.abs(state.x).sum())
    if error is not None:
        entry["digests"]["abort"] = _digest([type(error).__name__, str(error), error.t])
        entry["summary"]["abort"] = type(error).__name__
        entry["summary"]["abort_t"] = error.t
    return entry


def _residual_entry(result, reference):
    series = residuals(result, reference)
    cert = gc.build_certificate(result, reference)
    return {
        "digests": {
            "columns": _digest(
                [series.ts, series.objective_error, series.gap, series.support_error]
            ),
            "certificate": _digest([cert.to_json()]),
        },
        "gradient_error": series.gradient_error,
        "summary": {
            "rows": len(series),
            "objective_error": series.objective_error[-1],
            "gradient_error": series.gradient_error[-1],
        },
    }


def _reference_entry(ref):
    summary = {"objective": ref.objective, "gap": ref.gap}
    # x in full up to d = 50, |x|_1 beyond, as _run_entry keeps it
    if ref.x.size <= 50:
        summary["x"] = ref.x.tolist()
    else:
        summary["x_l1"] = float(np.abs(ref.x).sum())
    return {"digests": {"json": _digest([ref.to_json()])}, "summary": summary}


def build():
    """{case name: entry} for the whole matrix."""
    cases = {}
    runs = {}
    variants = {
        "quadratic": (_quadratic_problem(), {}),
        "scale=0.7": (_signed_basis_problem(3, 0.1, scale=0.7), {}),
        "alpha=1.5": (_signed_basis_problem(3, 0.1, penalty=gc.Penalty.power(1.5, 0.1)), {}),
        "alpha=3": (_signed_basis_problem(3, 0.1, penalty=gc.Penalty.power(3.0, 0.1)), {}),
        "log-barrier": (
            _signed_basis_problem(3, 0.1, penalty=gc.Penalty.log_barrier(1.0, weight=0.01)),
            {},
        ),
        "indicator": (_signed_basis_problem(3, 0.1, penalty=gc.Penalty.indicator(1.0)), {}),
        "4t2": (_signed_basis_problem(3, 0.1), {"schedule": "4t2"}),
        "warm-start": (_signed_basis_problem(3, 0.1), {"x0": _warm_start(50)}),
        "hypercube warm-start": (_small_problem("hypercube"), {"x0": _warm_start(6)}),
    }
    for screened in (True, False):
        for seed in (0, 3):
            for weight in WEIGHTS:
                result, _ = _run(_signed_basis_problem(seed, weight), screened)
                name = f"signed-basis seed={seed} w={weight} screened={screened}"
                cases[name] = _run_entry(result)
                runs[seed, weight, screened] = result
        for seed in (3, 11):
            problem = _signed_basis_problem(seed, 0.1, n=200, d=1000)
            cases[f"signed-basis d=1000 seed={seed} w=0.1 screened={screened}"] = _run_entry(
                *_run(problem, screened)
            )
        for kind in ("hypercube", "explicit"):
            cases[f"{kind} screened={screened}"] = _run_entry(
                *_run(_small_problem(kind), screened)
            )
        for name, (problem, options) in variants.items():
            cases[f"{name} screened={screened}"] = _run_entry(
                *_run(problem, screened, **options)
            )
    cases["signed-basis d=300 seed=2 w=0.01 screened=False"] = _run_entry(
        *_run(_signed_basis_problem(2, 0.01, n=200, d=300), False)
    )
    cases["switching d=1000 seed=11 w=0.1"] = _switching_entry()
    cases["divergence quadratic"] = _divergence_entry()
    references = {}
    for seed in (0, 3):
        for weight in WEIGHTS:
            ref = gc.reference_solve(*_signed_basis_problem(seed, weight))
            references[seed, weight] = ref
            cases[f"reference seed={seed} w={weight}"] = _reference_entry(ref)
    ref = gc.reference_solve(*_signed_basis_problem(3, 0.1, n=200, d=1000))
    cases["reference d=1000 seed=3 w=0.1"] = _reference_entry(ref)
    for kind in ("hypercube", "explicit"):
        cases[f"reference {kind}"] = _reference_entry(gc.reference_solve(*_small_problem(kind)))
    for name in ("log-barrier", "indicator"):
        problem = variants[name][0]
        ref = gc.reference_solve(*problem, iters=500, tol=1e-6)
        cases[f"reference {name}"] = _reference_entry(ref)
    for screened in (True, False):
        entry = _residual_entry(runs[3, 0.01, screened], references[3, 0.01])
        cases[f"residuals seed=3 w=0.01 screened={screened}"] = entry
    return cases


def _warm_start(d):
    """A start with negative entries, -0 entries and a few zeros."""
    x0 = np.zeros(d)
    x0[: d // 2] = np.linspace(-0.4, 0.3, d // 2)
    x0[d // 2 :: 2] = -0.0
    return x0


def main():
    corpus = {"platform": platform_facts(), "cases": build()}
    with open(CORPUS_PATH, "w", encoding="ascii") as fh:
        json.dump(corpus, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(corpus['cases'])} cases to {CORPUS_PATH}", file=sys.stderr)


if __name__ == "__main__":
    main()
