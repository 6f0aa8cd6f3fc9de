"""The benchmark's workloads against the public gaugecg API.

Every workload is closed loop: one caller in one process starts the next
top-level call only after the previous one returns. A workload is built
from the seed alone; gaugecg receives only the generated data.

- screen-prune: logistic loss on gen_synthetic(seed, n=200, d=1000),
  power penalty (alpha=2, weight 0.1), signed basis, screening on
  (prune-lmo every iteration), 8000 iterations traced every 100th. At
  d=1000 arithmetic, not interpreter overhead, sets the cost, and
  screening shrinks the active set from 2000 to a few dozen atoms.
- screen-off: the same problem and budget with screening off; the
  control, on which screening does nothing and the gradient dominates.
  Its iterates match screen-prune's.
- reference: reference_solve(iters=10**6, tol=1e-10) on the n=100, d=50
  instance for weights 0.01 and 1.0; the small-d regime, where per-call
  overhead in solver.step dominates. One top-level call is the pair.
- sweep: gaugecg.cli.main over a 4-point weight grid with screening on
  and every row traced, 4000 iterations a point: the CLI, the
  run_experiment thread pool and CSV writing. The grid is 0.003..0.1
  because weights of 1 and above reach an exact zero gap and stop early
  on most seeds, which would make the sweep's work depend on the seed.
  BENCHMARK.json does not gate it: its two pool threads make its wall
  solve_s follow the load on both cores of a shared machine (quartile
  spread 0.40 of the median over 10 seeds in one busy spell), and a
  fourth gated workload would not fit the time all runs may take at
  35 s a run. It serves the traced per-layer record of the cli, pool and
  CSV layers.
"""

import contextlib
import io
import os
import re
import shutil
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_DIR = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(REPO_DIR, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
if SRC_DIR not in sys.path:
    sys.path.insert(0, SRC_DIR)

import gaugecg as gc  # noqa: E402
from gaugecg import cli as gc_cli  # noqa: E402
from gaugecg import experiments as gc_experiments  # noqa: E402
from gaugecg import solver as gc_solver  # noqa: E402

import checks  # noqa: E402

REFERENCE_ITERS = 10**6
REFERENCE_TOL = 1e-10


class Screen:
    """screen-prune and screen-off: one gaugecg.solver.run per solve."""

    root = "solver.run"
    units = 1

    def __init__(self, seed, screening, n=200, d=1000, weight=0.1,
                 iters=8000, trace_every=100):
        data = gc.gen_synthetic(seed, n=n, d=d)
        self.loss = gc.LogisticLoss(data)
        self.penalty = gc.Penalty.power(2.0, weight=weight)
        self.atomic_set = gc.AtomicSet.signed_basis(d)
        self.config = gc.SolverConfig(
            max_iters=iters, screening_enabled=screening, trace_every=trace_every
        )
        self.cache_key = f"screen-seed{seed}-n{n}-d{d}-w{weight!r}-i{iters}-e{trace_every}"

    def fingerprints(self):
        return [gc.problem_fingerprint(self.loss, self.penalty, self.atomic_set)]

    def call(self):
        return gc_solver.run(self.loss, self.penalty, self.atomic_set, self.config)

    def iterations(self, result):
        return result.state.t - 1

    def check(self, result, cache):
        """One failure list for the one solve.

        Both modes are compared with the cached screening-off iterate:
        screening never changes the argmax atom, so screen-prune must end
        where screen-off does, and screen-off must end there every time.
        """
        final = result.trace[-1]
        return [
            checks.gaps_nonnegative(result.trace)
            + checks.ledger_matches(result.state)
            + checks.objective_bracketed(final.objective, final.gap, cache["objective"])
            + checks.no_false_eliminations(result.screen_events, cache["support_ids"])
            + checks.same_iterate(result.state.x, cache["x_final_off"])
        ]

    def build_cache(self):
        """Reference solution plus the final iterate with screening off."""
        reference = gc.reference_solve(
            self.loss, self.penalty, self.atomic_set,
            iters=REFERENCE_ITERS, tol=REFERENCE_TOL,
        )
        off = gc_solver.run(
            self.loss, self.penalty, self.atomic_set,
            gc.SolverConfig(
                max_iters=self.config.max_iters, screening_enabled=False,
                trace_every=self.config.trace_every,
            ),
        )
        return {
            "objective": reference.objective,
            "support_ids": sorted(reference.support_ids),
            "reference_gap": reference.gap,
            "reached": reference.reached,
            "x_final_off": [float(v) for v in off.state.x],
        }

    def close(self):
        pass


class Reference:
    """reference: reference_solve on two weights; the pair is one solve."""

    root = "experiments.reference_solve"
    weights = (0.01, 1.0)
    units = len(weights)

    def __init__(self, seed, n=100, d=50):
        data = gc.gen_synthetic(seed, n=n, d=d)
        loss = gc.LogisticLoss(data)
        atomic_set = gc.AtomicSet.signed_basis(d)
        self.problems = [
            (loss, gc.Penalty.power(2.0, weight=w), atomic_set) for w in self.weights
        ]
        self.cache_key = f"reference-seed{seed}-n{n}-d{d}"

    def fingerprints(self):
        return [gc.problem_fingerprint(*problem) for problem in self.problems]

    def call(self):
        return [
            gc_experiments.reference_solve(
                *problem, iters=REFERENCE_ITERS, tol=REFERENCE_TOL
            )
            for problem in self.problems
        ]

    def iterations(self, outcome):
        return None

    def check(self, outcome, cache):
        """One failure list per instance."""
        return [
            checks.reference_certified(reference, support)
            for reference, support in zip(outcome, cache["support_ids"])
        ]

    def build_cache(self):
        return {"support_ids": [sorted(r.support_ids) for r in self.call()]}

    def close(self):
        pass


class Sweep:
    """sweep: gaugecg.cli.main over a weight grid into a scratch directory."""

    root = "cli.main"
    grid = "0.003,0.01,0.03,0.1"
    units = len(grid.split(","))
    cache_key = None
    _iters_field = re.compile(r"\biters=(\d+)\b")

    def __init__(self, seed, iters=4000):
        os.makedirs(OUT_DIR, exist_ok=True)
        self.out_dir = tempfile.mkdtemp(prefix="sweep-", dir=OUT_DIR)
        self.argv = [
            "synthetic", "--seed", str(seed), "--lambda", self.grid,
            "--screen", "prune", "--trace-every", "1", "--iters", str(iters),
            "--out", self.out_dir,
        ]

    def fingerprints(self):
        return []

    def call(self):
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            code = gc_cli.main(self.argv)
        return code, captured.getvalue()

    def iterations(self, outcome):
        return sum(int(v) for v in self._iters_field.findall(outcome[1]))

    def check(self, outcome, cache):
        """One failure list per grid point."""
        code, text = outcome
        return checks.sweep_outputs(code, text, self.units)

    def close(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)


WORKLOADS = {
    "screen-prune": lambda seed: Screen(seed, screening=True),
    "screen-off": lambda seed: Screen(seed, screening=False),
    "reference": Reference,
    "sweep": Sweep,
}

# The calibration loop of each workload (calibrate.py): the shape of its
# data and about 1.2 s of work, half of one of its calls. The loop's own
# noise adds to solve_norm_s, so it gets a third of the measuring time;
# the noise of the normalised median is lowest when loop and calls share
# the time equally, but calls need enough samples for a median. nominal_s is
# the loop's median on the machine the baseline was recorded on (Intel
# Xeon, 2 vCPUs, one BLAS thread); it fixes the scale of solve_norm_s and
# must never change, or results before and after stop being comparable.
_LARGE = {"n": 200, "d": 1000, "iters": 8000, "nominal_s": 1.12}
_SMALL = {"n": 100, "d": 50, "iters": 40000, "nominal_s": 1.2}
CALIBRATIONS = {
    "screen-prune": _LARGE,
    "screen-off": _LARGE,
    "reference": _SMALL,
    "sweep": _SMALL,
}


def build(name, seed):
    return WORKLOADS[name](seed)
