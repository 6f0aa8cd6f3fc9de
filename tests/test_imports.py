"""What importing and running the package loads, what memory a screened
or an unscreened solve holds, and what its snapshots keep.

A screened signed-basis solve, a CLI sweep, the trace files and a
signed-basis reference solve need only numpy: no scipy module is loaded.
scipy.optimize (linprog, the LP gauge of an explicit atom list) is imported
on first use. Each check runs in a fresh interpreter: inside the test
session other tests import scipy, for the LP gauge or as a reference, and
leave it in sys.modules, and a process's peak memory depends on what it
did before.
"""

import os
import subprocess
import sys
import textwrap

import pytest

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


@pytest.mark.skipif(
    not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc"
)
def test_a_screened_solve_holds_at_most_an_eighth_of_the_features(tmp_path):
    # after an unscreened solve has set the process's peak, two screened
    # solves raise it by their column copy, which is made only once the
    # active atoms touch at most an eighth of the columns (so at most
    # n*d*8 // 8 bytes), and a margin: 368-380 KiB measured on seeds 0, 3, 5
    # and 11. Copying the touched columns from the first prune on read
    # 1752-1816 KiB; squaring the whole matrix for L and the first call of
    # np.unique added 2.9-4.7 MB more.
    # The peak is VmHWM: ru_maxrss counts the memory a child inherits from
    # the forking process before its exec, so in a child of the test session
    # it reads the session's size.
    n, d = 200, 1000
    out = run_fresh(
        f"""
        import gaugecg as gc

        def peak_bytes():
            with open("/proc/self/status", encoding="ascii") as fh:
                line = next(line for line in fh if line.startswith("VmHWM:"))
            return 1024 * int(line.split()[1])

        data = gc.gen_synthetic(3, n={n}, d={d})
        loss, penalty = gc.LogisticLoss(data), gc.Penalty.power(2.0, weight=0.1)
        aset = gc.AtomicSet.signed_basis({d})
        gc.run(loss, penalty, aset, gc.SolverConfig(max_iters=300))
        base = peak_bytes()
        for _ in range(2):
            result = gc.run(
                loss, penalty, aset,
                gc.SolverConfig(max_iters=300, screening_enabled=True),
            )
            assert result.screen_events, "the run never screened"
            del result
        print(peak_bytes() - base)
        """,
        tmp_path,
    )
    assert int(out.split()[-1]) <= n * d * 8 // 8 + 512 * 1024


@pytest.mark.skipif(
    not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc"
)
def test_an_unscreened_solve_holds_at_most_an_eighth_of_the_features(tmp_path):
    # an unscreened signed basis above the size floor scores from a window
    # of at most d // 8 copied columns (atoms._Columns), so the solve raises
    # the peak by at most n*d*8 // 8 bytes and the margin the screened test
    # allows. A first solve on 40 rows loads the code the window runs, so
    # what is measured is what the 200-row data adds (24 KiB on seed 3); a
    # copy of every column would add 1.6 MB.
    n, d = 200, 1000
    out = run_fresh(
        f"""
        import gaugecg as gc

        def peak_bytes():
            with open("/proc/self/status", encoding="ascii") as fh:
                line = next(line for line in fh if line.startswith("VmHWM:"))
            return 1024 * int(line.split()[1])

        penalty, aset = gc.Penalty.power(2.0, weight=0.1), gc.AtomicSet.signed_basis({d})
        config = gc.SolverConfig(max_iters=300)
        gc.run(gc.LogisticLoss(gc.gen_synthetic(0, n=40, d={d})), penalty, aset, config)
        loss = gc.LogisticLoss(gc.gen_synthetic(3, n={n}, d={d}))
        base = peak_bytes()
        result = gc.run(loss, penalty, aset, config)
        assert result.state._oracle.sub is not None, "no window was open at the end"
        print(peak_bytes() - base)
        """,
        tmp_path,
    )
    assert int(out.split()[-1]) <= n * d * 8 // 8 + 512 * 1024


@pytest.mark.parametrize("screening", [True, False], ids=["screened", "unscreened"])
def test_a_snapshot_row_keeps_the_iterate_and_little_more(tmp_path, screening):
    # a snapshot keeps x (8000 bytes at d=1000) and the atoms its run
    # claims, one frozenset while they stay; with its trace row and the
    # run's state that is 9.2-9.5 KB per row screened and 8.5 KB
    # unscreened on seeds 0-4. A full A'v per row and one new id set per
    # row kept 25.0 and 17.9 KB on seed 0.
    out = run_fresh(
        f"""
        import tracemalloc
        import gaugecg as gc

        loss = gc.LogisticLoss(gc.gen_synthetic(0, n=200, d=1000))
        penalty, aset = gc.Penalty.power(2.0, weight=0.1), gc.AtomicSet.signed_basis(1000)
        config = dict(screening_enabled={screening}, keep_snapshots=True)
        gc.run(loss, penalty, aset, gc.SolverConfig(max_iters=50, **config))
        tracemalloc.start()
        base = tracemalloc.get_traced_memory()[0]
        result = gc.run(loss, penalty, aset, gc.SolverConfig(max_iters=2000, **config))
        kept = tracemalloc.get_traced_memory()[0] - base
        assert len(result.snapshots) == 2001
        print(kept / len(result.snapshots))
        """,
        tmp_path,
    )
    assert float(out.split()[-1]) <= 10_000


def test_snapshots_of_an_unchanged_mask_share_one_id_set(tmp_path):
    out = run_fresh(
        """
        import gaugecg as gc

        loss = gc.LogisticLoss(gc.gen_synthetic(0, n=100, d=50))
        config = gc.SolverConfig(max_iters=300, screening_enabled=True, keep_snapshots=True)
        penalty, aset = gc.Penalty.power(2.0, weight=0.1), gc.AtomicSet.signed_basis(50)
        result = gc.run(loss, penalty, aset, config)
        assert result.screen_events, "the run never screened"
        shared = 0
        pairs = zip(result.trace, result.trace[1:], result.snapshots, result.snapshots[1:])
        for row, next_row, snap, next_snap in pairs:
            if next_row.active_atoms == row.active_atoms:
                assert next_snap.active_ids is snap.active_ids, next_row.t
                shared += 1
            else:
                assert next_snap.active_ids < snap.active_ids, next_row.t
        print(shared)
        """,
        tmp_path,
    )
    assert int(out.split()[-1]) > 0

