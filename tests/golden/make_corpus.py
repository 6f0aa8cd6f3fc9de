"""Golden corpus: sha256 digests of what a fixed matrix of runs writes.

The matrix is small and fixed:
- the signed basis at n=100, d=50, seeds 0 and 3, power penalty weights
  0.01 and 1, screening on and off, 300 steps with every row traced and
  snapshots kept;
- hypercube(6) and a 12-atom explicit set on a 30-row logistic problem,
  each screened and unscreened, the same way;
- reference_solve at seed 3 for both weights;
- residuals and build_certificate for the screened and the unscreened
  seed-3, weight-0.01 run against that reference.

Each case digests the trace rows without elapsed_s, the screen events, the
final x, the snapshots' x bytes and sorted ids, the reference and
certificate JSON, and every residual column but gradient_error, which is
stored as full-precision values. A full-precision summary of the same
cases serves a platform whose numpy version or BLAS build differs from the
one the digests were made on.

Regenerate with the code whose outputs are to be pinned on the import path:

    PYTHONPATH=src python tests/golden/make_corpus.py
"""

import hashlib
import json
import os
import platform
import sys

import numpy as np

import gaugecg as gc
from gaugecg.experiments import residuals

CORPUS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "corpus.json")
STEPS = 300
WEIGHTS = (0.01, 1.0)


def platform_facts():
    """numpy version, BLAS build and machine, the BLAS build read from
    np.show_config as bench/facts.py reads it."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        parts = [blas.get("name", "?"), blas.get("version", "?")]
        if blas.get("openblas configuration"):
            parts.append(blas["openblas configuration"])
        build = " ".join(parts)
    except (TypeError, KeyError):
        build = "unknown"
    return {"numpy": np.__version__, "blas": build, "machine": platform.machine()}


def _digest(parts):
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part if isinstance(part, bytes) else repr(part).encode())
        digest.update(b"\0")
    return digest.hexdigest()


def _signed_basis_problem(seed, weight):
    data = gc.gen_synthetic(seed, n=100, d=50)
    penalty = gc.Penalty.power(2.0, weight=weight)
    return gc.LogisticLoss(data), penalty, gc.AtomicSet.signed_basis(50)


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


def _run(problem, screened):
    config = gc.SolverConfig(
        max_iters=STEPS, screening_enabled=screened, trace_every=1, keep_snapshots=True,
    )
    return gc.run(*problem, config)


def _run_entry(result):
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
    last = result.trace[-1]
    return {
        "digests": {
            "trace": _digest(rows),
            "screen_events": _digest(events),
            "x": _digest([result.state.x.tobytes()]),
            "snapshots": _digest(snaps),
        },
        "summary": {
            "rows": len(rows),
            "objective": last.objective,
            "min_gap": last.min_gap,
            "x": result.state.x.tolist(),
        },
    }


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


def build():
    """{case name: entry} for the whole matrix."""
    cases = {}
    runs = {}
    for seed in (0, 3):
        for weight in WEIGHTS:
            for screened in (True, False):
                result = _run(_signed_basis_problem(seed, weight), screened)
                name = f"signed-basis seed={seed} w={weight} screened={screened}"
                cases[name] = _run_entry(result)
                runs[seed, weight, screened] = result
    for kind in ("hypercube", "explicit"):
        for screened in (True, False):
            result = _run(_small_problem(kind), screened)
            cases[f"{kind} screened={screened}"] = _run_entry(result)
    references = {}
    for weight in WEIGHTS:
        ref = gc.reference_solve(*_signed_basis_problem(3, weight))
        references[weight] = ref
        cases[f"reference seed=3 w={weight}"] = {
            "digests": {"json": _digest([ref.to_json()])},
            "summary": {"objective": ref.objective, "gap": ref.gap, "x": ref.x.tolist()},
        }
    for screened in (True, False):
        entry = _residual_entry(runs[3, 0.01, screened], references[0.01])
        cases[f"residuals seed=3 w=0.01 screened={screened}"] = entry
    return cases


def main():
    corpus = {"platform": platform_facts(), "cases": build()}
    with open(CORPUS_PATH, "w", encoding="ascii") as fh:
        json.dump(corpus, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(corpus['cases'])} cases to {CORPUS_PATH}", file=sys.stderr)


if __name__ == "__main__":
    main()
