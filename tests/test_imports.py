"""What importing and running the package loads.

A screened signed-basis solve, a CLI sweep, the trace files and a
signed-basis reference solve need only numpy: no scipy module is loaded.
scipy.optimize (linprog, the LP gauge of an explicit atom list) is imported
on first use. Each check runs in a fresh interpreter: inside the test
session other tests import scipy, for the LP gauge or as a reference, and
leave it in sys.modules.
"""

import os
import subprocess
import sys
import textwrap

import gaugecg as gc

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(gc.__file__)))


def run_fresh(code, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_solver_sweep_and_traces_do_not_load_scipy(tmp_path):
    out = run_fresh(
        f"""
        import glob, sys
        import gaugecg as gc
        from gaugecg import cli
        from gaugecg.experiments import read_trace_csv

        data = gc.gen_synthetic(0, n=40, d=30)
        cfg = gc.SolverConfig(max_iters=200, screening_enabled=True)
        result = gc.run(
            gc.LogisticLoss(data), gc.Penalty.power(2.0, weight=0.1),
            gc.AtomicSet.signed_basis(30), cfg,
        )
        assert result.screen_events, "the run never screened"
        ref = gc.reference_solve(
            gc.LogisticLoss(data), gc.Penalty.power(2.0, weight=1.0),
            gc.AtomicSet.signed_basis(30),
        )
        assert ref.reached and ref.gap <= 1e-10
        code = cli.main([
            "synthetic", "--seed", "1", "--n", "40", "--d", "10",
            "--lambda", "0.1,1.0", "--iters", "50", "--screen", "prune",
            "--out", {str(tmp_path)!r},
        ])
        assert code == 0
        traces = sorted(glob.glob({str(tmp_path / "*.csv")!r}))
        assert len(traces) == 4
        for path in traces:
            if not path.endswith(".screen.csv"):
                assert read_trace_csv(path)
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        """,
        tmp_path,
    )
    assert out.splitlines()[-1] == "[]"


def test_lp_gauge_imports_scipy_optimize_on_first_use(tmp_path):
    out = run_fresh(
        """
        import sys
        import numpy as np
        import gaugecg as gc

        print("scipy.optimize" in sys.modules)
        atoms = gc.AtomicSet.explicit(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]))
        assert abs(atoms.gauge_value(np.array([2.0, 3.0])) - 5.0) < 1e-12
        print("scipy.optimize" in sys.modules)
        """,
        tmp_path,
    )
    assert out.split()[-2:] == ["False", "True"]
