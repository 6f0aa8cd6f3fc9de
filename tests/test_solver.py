"""Solver iteration: hand-derived values on the 1-d two-atom problem, trace
bookkeeping, the state invariants as properties, and both failure paths."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gaugecg as gc
from gaugecg.errors import ContractViolationError, DivergenceError, UnboundedStepError

from conftest import one_dim_problem, tame_quadratic


# --------------------------------------------------------------- step schedule


def test_theta_schedule_values():
    assert gc.theta_schedule("2t1", 1) == 1.0
    assert gc.theta_schedule("2t1", 3) == 0.5
    assert gc.theta_schedule("4t2", 1) == 1.0  # capped
    assert gc.theta_schedule("4t2", 2) == 1.0
    assert gc.theta_schedule("4t2", 3) == pytest.approx(0.8)
    with pytest.raises(ContractViolationError):
        gc.theta_schedule("1t1", 1)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_iters": 0},
        {"max_iters": 1.5},
        {"gap_tolerance": -1.0},
        {"gap_tolerance": math.nan},
        {"step_schedule": "linear"},
        {"screening_mode": "prune"},
        {"screen_every": 0},
        {"trace_every": 0},
        {"max_iters": math.nan},
        {"max_iters": math.inf},
        {"max_iters": "3"},
        {"gap_tolerance": "x"},
        {"screen_every": math.nan},
        {"trace_every": math.inf},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ContractViolationError):
        gc.SolverConfig(**kwargs)


# ------------------------------------------------- frozen 1-d two-atom problem


def test_one_dim_first_iterations_hand_derived():
    # x: 0 -> 2 -> 2/3 -> 1 with gaps 2, 2, 2/9 and a final exact zero
    loss, penalty, aset = one_dim_problem(c=2.0)
    result = gc.run(loss, penalty, aset, gc.SolverConfig(max_iters=3))
    ts = [row.t for row in result.trace]
    gaps = [row.gap for row in result.trace]
    assert ts == [1, 2, 3, 4]
    assert gaps[0] == pytest.approx(2.0, abs=1e-15)
    assert gaps[1] == pytest.approx(2.0, abs=1e-15)
    assert gaps[2] == pytest.approx(2.0 / 9.0, abs=1e-15)
    assert gaps[3] == 0.0
    assert result.state.x[0] == 1.0
    assert result.state.min_gap == 0.0


def test_one_dim_converges_under_both_schedules():
    for schedule in ("2t1", "4t2"):
        loss, penalty, aset = one_dim_problem(c=2.0)
        cfg = gc.SolverConfig(max_iters=4000, step_schedule=schedule)
        result = gc.run(loss, penalty, aset, cfg)
        assert result.state.x[0] == pytest.approx(1.0, abs=1e-3)
        assert result.state.min_gap < 1e-5


def test_one_dim_negative_direction():
    loss, penalty, aset = one_dim_problem(c=-2.0)
    result = gc.run(loss, penalty, aset, gc.SolverConfig(max_iters=2000))
    assert result.state.x[0] == pytest.approx(-1.0, abs=1e-3)


# ------------------------------------------------------------ trace bookkeeping


def test_trace_cadence_rows():
    data = gc.gen_synthetic(3, n=40, d=10)
    loss = gc.LogisticLoss(data)
    penalty = gc.Penalty.power(2.0, weight=1.0)
    aset = gc.AtomicSet.signed_basis(10)
    cfg = gc.SolverConfig(max_iters=10, trace_every=3)
    result = gc.run(loss, penalty, aset, cfg)
    assert [row.t for row in result.trace] == [1, 3, 6, 9, 11]


def test_infinite_tolerance_stops_after_first_step():
    loss, penalty, aset = one_dim_problem()
    cfg = gc.SolverConfig(max_iters=500, gap_tolerance=math.inf)
    result = gc.run(loss, penalty, aset, cfg)
    assert [row.t for row in result.trace] == [1, 2]


def test_gap_tolerance_stops_early():
    loss, penalty, aset = one_dim_problem()
    cfg = gc.SolverConfig(max_iters=10**6, gap_tolerance=1e-6)
    result = gc.run(loss, penalty, aset, cfg)
    assert result.state.min_gap <= 1e-6
    assert result.state.t < 10**5


def test_result_unpacks_to_state_and_trace():
    loss, penalty, aset = one_dim_problem()
    result = gc.run(loss, penalty, aset, gc.SolverConfig(max_iters=3))
    state, trace = result
    assert state is result.state
    assert trace is result.trace
    assert len(result.fingerprint) == 64


def test_snapshots_align_with_trace():
    loss, penalty, aset = one_dim_problem()
    cfg = gc.SolverConfig(max_iters=20, trace_every=7, keep_snapshots=True)
    result = gc.run(loss, penalty, aset, cfg)
    assert [s.t for s in result.snapshots] == [row.t for row in result.trace]
    # snapshot x is the iterate the row was computed at
    assert result.snapshots[0].x[0] == 0.0


def test_trace_objective_and_nonzeros():
    loss, penalty, aset = one_dim_problem()
    result = gc.run(loss, penalty, aset, gc.SolverConfig(max_iters=5))
    first = result.trace[0]
    assert first.objective == pytest.approx(2.0)  # 0.5*(0-2)^2 at x = 0
    assert first.nonzeros == 0
    assert result.trace[-1].nonzeros == len(gc.support_of(result.state.coeffs))


# ------------------------------------------------------------------ x0 support


def test_x0_seeds_the_ledger():
    loss, penalty, aset = one_dim_problem()
    state = gc.SolverState(aset, x0=np.array([0.5]))
    assert state.kappa_bound == pytest.approx(0.5)
    np.testing.assert_allclose(state.reconstruct(), [0.5])


def test_x0_validation():
    aset = gc.AtomicSet.signed_basis(2)
    with pytest.raises(ContractViolationError):
        gc.SolverState(aset, x0=np.ones(3))
    with pytest.raises(ContractViolationError):
        gc.SolverState(aset, x0=np.array([1.0, math.inf]))


def test_run_from_optimum_sees_zero_gap_immediately():
    # x* = 1 for c = 2: the first probe lands on the iterate itself
    loss, penalty, aset = one_dim_problem(c=2.0)
    cfg = gc.SolverConfig(max_iters=5)
    warm = gc.run(loss, penalty, aset, cfg, x0=np.array([1.0]))
    assert warm.trace[0].gap == 0.0
    assert warm.state.x[0] == 1.0


@pytest.mark.parametrize("kind", ["signed-basis", "hypercube", "explicit-list"])
def test_in_place_move_is_the_formula_to_the_bit(kind):
    # x <- (1 - theta) x + theta * xi * atom, signed zeros included: a -0
    # entry (theta = 1 on a negative warm start) meets the formula's +0 term;
    # the signed basis names the one coordinate that can grow, x_k
    rng = np.random.default_rng(8)
    if kind == "signed-basis":
        aset = gc.AtomicSet.signed_basis(4, scale=1.5)
    elif kind == "hypercube":
        aset = gc.AtomicSet.hypercube(3, scale=0.5)
    else:
        aset = gc.AtomicSet.explicit(rng.standard_normal((5, 4)))
    d = aset.dimension
    start = np.array([-0.7, -0.0, 0.0, 2.5][:d])
    for atom_id in range(aset.num_atoms):
        for theta in (1.0, 2.0 / 3.0, 0.1):
            for xi in (0.0, 1.3):
                expected = (1.0 - theta) * start + theta * (xi * aset.atom_vector(atom_id))
                x = start.copy()
                grown = aset.move(x, theta, xi, atom_id)
                assert x.tobytes() == expected.tobytes(), (atom_id, theta, xi)
                if kind != "signed-basis":
                    assert grown is None
                    continue
                assert grown == atom_id % d
                others = np.arange(d) != grown
                assert np.all(np.abs(x[others]) <= np.abs(start[others]))


@pytest.mark.parametrize("kind", ["signed-basis", "explicit-list"])
def test_in_place_steps_leave_x0_and_snapshots_alone(kind):
    # the step updates x in place: the caller's x0 must not move, and each
    # snapshot must hold the iterate of its own t, not the final one
    rng = np.random.default_rng(4)
    if kind == "signed-basis":
        data = gc.gen_synthetic(3, n=20, d=5)
        loss, aset = gc.LogisticLoss(data), gc.AtomicSet.signed_basis(5)
        x0 = np.array([0.0, -0.4, 0.0, 0.2, 0.0])
    else:
        loss, aset = tame_quadratic(rng)
        x0 = 0.3 * aset.atom_vector(0) + 0.2 * aset.atom_vector(5)
    penalty = gc.Penalty.power(2.0, weight=1.0)
    kept = x0.copy()
    cfg = gc.SolverConfig(max_iters=30, trace_every=1, keep_snapshots=True)
    result = gc.run(loss, penalty, aset, cfg, x0=x0)
    assert x0.tobytes() == kept.tobytes()

    state = gc.SolverState(aset, x0=x0)
    ledger = {}
    while state.t <= cfg.max_iters:
        ledger[state.t] = state.reconstruct()
        gc.step(state, loss, penalty, aset, cfg)
    ledger[state.t] = state.reconstruct()
    assert [snap.t for snap in result.snapshots] == sorted(ledger)
    for snap in result.snapshots:
        assert snap.x is not result.state.x
        scale = 1.0 + np.max(np.abs(snap.x))
        assert np.max(np.abs(snap.x - ledger[snap.t])) <= 1e-12 * scale, snap.t
    # the iterates move, so a snapshot aliased to the final x would fail
    assert np.max(np.abs(ledger[2] - ledger[cfg.max_iters + 1])) > 1e-3


# --------------------------------------------------------------- failure paths


def test_unbounded_step_at_first_iteration():
    loss, penalty, aset = one_dim_problem(c=2.0, alpha=1.0)
    with pytest.raises(UnboundedStepError) as info:
        gc.run(loss, penalty, aset, gc.SolverConfig(max_iters=50))
    err = info.value
    assert err.t == 1
    assert err.result is not None
    last = err.result.trace[-1]
    assert last.t == 1
    assert last.xi == math.inf and last.gap == math.inf


def test_unbounded_step_below_threshold_is_fine():
    # |c| < 1 keeps the linear penalty's slope unbeaten
    loss, penalty, aset = one_dim_problem(c=0.8, alpha=1.0)
    result = gc.run(loss, penalty, aset, gc.SolverConfig(max_iters=100))
    assert result.state.x[0] == pytest.approx(0.0, abs=1e-12)


def test_divergence_aborts_with_partial_result(monkeypatch):
    monkeypatch.setattr("gaugecg.solver._DIVERGENCE_LIMIT", 1.5)
    loss, penalty, aset = one_dim_problem(c=2.0)
    cfg = gc.SolverConfig(max_iters=50)
    with pytest.raises(DivergenceError) as info:
        gc.run(loss, penalty, aset, cfg)
    err = info.value
    assert err.t == 1  # the first update jumps to x = 2 > 1.5
    assert err.result.trace[-1].t == 1
    assert err.result.state.x[0] == 2.0


def test_signed_basis_divergence_after_the_first_step(monkeypatch):
    # open-loop steps overshoot after t = 1; a signed-basis step checks only
    # the coordinate it moved, and must abort exactly where, and with what,
    # a check of all of x does
    rng = np.random.default_rng(2)
    A = rng.standard_normal((30, 10))
    loss = gc.QuadraticLoss(gc.DataMatrix(A, A @ (3.0 * rng.standard_normal(10))))
    penalty = gc.Penalty.power(2.0, weight=10.0)
    aset = gc.AtomicSet.signed_basis(10)
    cfg = gc.SolverConfig(max_iters=50)
    state, iterates = gc.SolverState(aset), []
    for _ in range(50):
        gc.step(state, loss, penalty, aset, cfg)
        iterates.append(state.x.copy())
    peaks = [float(np.abs(x).max()) for x in iterates]
    limit = 0.5 * (peaks[0] + max(peaks))
    t = next(i for i, peak in enumerate(peaks, 1) if peak > limit)
    assert t >= 2
    monkeypatch.setattr("gaugecg.solver._DIVERGENCE_LIMIT", limit)
    with pytest.raises(DivergenceError) as info:
        gc.run(loss, penalty, aset, cfg)
    err = info.value
    assert err.t == t
    assert str(err) == (
        f"iterate magnitude {peaks[t - 1]!r} exceeded {limit:g} at iteration {t}"
    )
    assert err.result.state.x.tobytes() == iterates[t - 1].tobytes()
    assert err.result.trace[-1].t == t


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_divergence_on_overflowing_steps():
    loss, penalty, aset = one_dim_problem(c=2.0, lam=1e-3)
    with pytest.raises(DivergenceError):
        gc.run(
            loss, penalty, aset,
            gc.SolverConfig(max_iters=50),
            x0=np.array([1e308]),
        )


def test_genuine_overshoot_divergence():
    # strong data, weak penalty: open-loop steps overshoot geometrically
    rng = np.random.default_rng(0)
    half = rng.standard_normal((4, 6)) * 2.0
    atoms = np.vstack([half, -half])
    A = rng.standard_normal((9, 6)) * 3.0
    loss = gc.QuadraticLoss(gc.DataMatrix(A, rng.standard_normal(9)))
    aset = gc.AtomicSet.explicit(atoms)
    penalty = gc.Penalty.power(2.0, weight=1e-4)
    with pytest.raises(DivergenceError) as info:
        gc.run(loss, penalty, aset, gc.SolverConfig(max_iters=10**4))
    assert info.value.t <= 100


# ------------------------------------------------------------------- screening


def synthetic_run(screening_mode="prune-lmo", **kwargs):
    data = gc.gen_synthetic(0, n=60, d=20)
    loss = gc.LogisticLoss(data)
    penalty = gc.Penalty.power(2.0, weight=1.0)
    aset = gc.AtomicSet.signed_basis(20)
    cfg = gc.SolverConfig(
        max_iters=kwargs.pop("max_iters", 800),
        screening_enabled=True,
        screening_mode=screening_mode,
        **kwargs,
    )
    return gc.run(loss, penalty, aset, cfg)


def test_prune_mode_shrinks_the_mask():
    result = synthetic_run()
    assert result.screen_events
    assert result.state.mask.active_count < 40
    counts = [row.active_atoms for row in result.trace]
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_report_mode_keeps_the_mask():
    result = synthetic_run("report-only")
    assert result.screen_events
    assert result.state.mask.active_count == 40
    assert all(row.active_atoms == 40 for row in result.trace)


def test_screen_every_gates_passes():
    result = synthetic_run(screen_every=7)
    assert result.screen_events
    assert all(event.t % 7 == 0 for event in result.screen_events)


def test_screening_off_keeps_everything():
    data = gc.gen_synthetic(0, n=60, d=20)
    loss = gc.LogisticLoss(data)
    penalty = gc.Penalty.power(2.0, weight=1.0)
    aset = gc.AtomicSet.signed_basis(20)
    result = gc.run(loss, penalty, aset, gc.SolverConfig(max_iters=200))
    assert not result.screen_events
    assert result.state.mask.active_count == 40


# ----------------------------------------------------------- state invariants


@settings(max_examples=20)
@given(seed=st.integers(0, 10_000))
def test_state_invariants_on_random_problems(seed):
    rng = np.random.default_rng(seed)
    loss, aset = tame_quadratic(rng)
    penalty = gc.Penalty.power(2.0, weight=1.0)
    cfg = gc.SolverConfig(max_iters=25, screening_enabled=True)
    result = gc.run(loss, penalty, aset, cfg)
    state, trace = result

    gaps = [row.gap for row in trace]
    assert all(g >= -1e-10 for g in gaps)

    mins = [row.min_gap for row in trace]
    assert all(a >= b for a, b in zip(mins, mins[1:]))
    running = math.inf
    for g, m in zip(gaps, mins):
        running = min(running, g)
        assert m == running

    rebuilt = state.reconstruct()
    assert np.max(np.abs(state.x - rebuilt)) <= 1e-8 * (1.0 + np.max(np.abs(state.x)))

    assert state.kappa_bound >= aset.gauge_value(state.x) - 1e-8

    counts = [row.active_atoms for row in trace]
    assert all(a >= b for a, b in zip(counts, counts[1:]))


@settings(max_examples=15)
@given(seed=st.integers(0, 10_000))
def test_objective_row_is_consistent(seed):
    rng = np.random.default_rng(seed)
    loss, aset = tame_quadratic(rng)
    penalty = gc.Penalty.power(2.0, weight=1.0)
    cfg = gc.SolverConfig(max_iters=12, keep_snapshots=True)
    result = gc.run(loss, penalty, aset, cfg)
    for row, snap in zip(result.trace, result.snapshots):
        value = loss.value(snap.x)
        # the row objective includes the penalty at the ledger bound, which
        # upper-bounds the true penalty at the iterate
        assert row.objective >= value - 1e-12


def test_ledger_scale_renormalizes_on_long_runs():
    loss, penalty, aset = one_dim_problem()
    cfg = gc.SolverConfig(max_iters=5000)
    result = gc.run(loss, penalty, aset, cfg)
    # (t0/t)^2 decay over 5000 iterations crosses many decades without
    # losing the reconstruction
    rebuilt = result.state.reconstruct()
    assert abs(rebuilt[0] - result.state.x[0]) <= 1e-10


def test_problem_fingerprint_is_stable_and_sensitive():
    loss, penalty, aset = one_dim_problem()
    a = gc.problem_fingerprint(loss, penalty, aset)
    b = gc.problem_fingerprint(loss, penalty, aset)
    assert a == b
    other = gc.problem_fingerprint(loss, gc.Penalty.power(2.0, weight=0.5), aset)
    assert a != other


def test_problem_fingerprint_hashes_the_joined_fingerprint_bytes():
    # the pieces are hashed in turn, the arrays without a copy; the digest
    # and the bytes stay those of the joined byte strings, whatever the
    # memory order of the data or the atoms
    rng = np.random.default_rng(8)
    penalty = gc.Penalty.power(2.0, weight=0.3)
    for order in ("C", "F"):
        features = np.asarray(rng.standard_normal((7, 4)), order=order)
        data = gc.DataMatrix(features, np.sign(rng.standard_normal(7)))
        assert data.fingerprint_bytes() == (
            b"data|7|4|" + features.tobytes() + data.targets.tobytes()
        )
        atom_rows = np.asarray(rng.standard_normal((5, 4)), order=order)
        sets = (
            gc.AtomicSet.signed_basis(4),
            gc.AtomicSet.hypercube(4),
            gc.AtomicSet.explicit(atom_rows, scale=0.5),
        )
        assert sets[2].fingerprint_bytes() == (
            b"explicit-list|4|0.5|" + (atom_rows * 0.5).tobytes()
        )
        for loss in (gc.LogisticLoss(data), gc.QuadraticLoss(data)):
            assert loss.fingerprint_bytes() == (
                f"{loss.kind}|".encode() + data.fingerprint_bytes()
            )
            for aset in sets:
                joined = (
                    loss.fingerprint_bytes()
                    + penalty.fingerprint_bytes()
                    + aset.fingerprint_bytes()
                )
                assert gc.problem_fingerprint(loss, penalty, aset) == (
                    hashlib.sha256(joined).hexdigest()
                )


# ------------------------------------------------- margins and the active set


def _explicit_logistic(seed=0, n=60, d=20, count=12):
    rng = np.random.default_rng(seed)
    half = rng.standard_normal((count, d))
    half /= np.linalg.norm(half, axis=1, keepdims=True)
    loss = gc.LogisticLoss(gc.gen_synthetic(seed, n=n, d=d))
    return loss, gc.AtomicSet.explicit(np.vstack([half, -half]))


@pytest.mark.parametrize(
    "kind",
    ["logistic-signed", "logistic-explicit", "quadratic-signed", "quadratic-explicit"],
)
def test_margin_drift_is_bounded(kind):
    # the incremental margins track A x to near machine precision over a
    # long run, re-syncs included
    if kind == "logistic-signed":
        loss = gc.LogisticLoss(gc.gen_synthetic(0, n=60, d=20))
        aset = gc.AtomicSet.signed_basis(20)
    elif kind == "logistic-explicit":
        loss, aset = _explicit_logistic()
    else:
        loss, aset = tame_quadratic(np.random.default_rng(1))
        if kind == "quadratic-signed":
            aset = gc.AtomicSet.signed_basis(aset.dimension)
    penalty = gc.Penalty.power(2.0, weight=1.0)
    cfg = gc.SolverConfig(max_iters=10_000, trace_every=10_000)
    state = gc.SolverState(aset)
    worst = 0.0
    while state.t <= cfg.max_iters:
        gc.step(state, loss, penalty, aset, cfg)
        exact = loss.data.features @ state.x
        drift = np.max(np.abs(state.ax - exact)) / (1.0 + np.max(np.abs(exact)))
        worst = max(worst, drift)
    assert worst <= 1e-12


def test_screening_changes_nothing_but_the_work():
    data = gc.gen_synthetic(2, n=100, d=300)
    loss = gc.LogisticLoss(data)
    penalty = gc.Penalty.power(2.0, weight=0.1)
    aset = gc.AtomicSet.signed_basis(300)

    def solve(screening):
        cfg = gc.SolverConfig(
            max_iters=3000, trace_every=50, screening_enabled=screening
        )
        return gc.run(loss, penalty, aset, cfg)

    on, off = solve(True), solve(False)
    # the pruned run computed its gradient on a few columns only
    assert on.state.mask.active_count < 100
    assert off.state.mask.active_count == 600
    scale = 1.0 + np.max(np.abs(off.state.x))
    assert np.max(np.abs(on.state.x - off.state.x)) <= 1e-9 * scale
    assert set(on.state.coeffs) == set(off.state.coeffs)
    assert len(on.trace) == len(off.trace)
    for a, b in zip(on.trace, off.trace):
        assert (a.t, a.nonzeros) == (b.t, b.nonzeros)
        for name in ("objective", "gap", "min_gap", "sigma", "xi"):
            assert getattr(a, name) == pytest.approx(
                getattr(b, name), rel=1e-9, abs=1e-15
            ), name


@pytest.mark.parametrize("screening", [False, True])
def test_loss_value_only_on_trace_rows(screening):
    data = gc.gen_synthetic(3, n=40, d=10)
    loss = gc.LogisticLoss(data)
    original = loss.value
    calls = []

    def counted(x):
        calls.append(1)
        return original(x)

    loss.value = counted
    penalty = gc.Penalty.power(2.0, weight=1.0)
    aset = gc.AtomicSet.signed_basis(10)
    cfg = gc.SolverConfig(max_iters=100, trace_every=7, screening_enabled=screening)
    result = gc.run(loss, penalty, aset, cfg)
    assert len(result.trace) == 16  # t = 1, 7, ..., 98 and the final row
    assert len(calls) == len(result.trace)


def _cube_problem(d=64, n=80):
    rng = np.random.default_rng(5)
    A = rng.standard_normal((n, d)) / np.sqrt(n * d)
    b = rng.standard_normal(n)
    loss = gc.QuadraticLoss(gc.DataMatrix(A, b))
    return loss, gc.Penalty.power(2.0, weight=1.0), gc.AtomicSet.hypercube(d)


def test_hypercube_run_beyond_enumeration():
    # 2^64 atoms: the mask stays unmaterialized and the implicit sign
    # oracle answers every query
    loss, penalty, aset = _cube_problem()
    result = gc.run(loss, penalty, aset, gc.SolverConfig(max_iters=400, trace_every=50))
    trace = result.trace
    assert [row.t for row in trace][-1] == 401
    assert all(row.active_atoms == 2**64 for row in trace)
    assert all(row.gap >= -1e-10 for row in trace)
    assert trace[-1].gap < 1e-2 * trace[0].gap
    state = result.state
    assert state.mask.is_full
    np.testing.assert_allclose(state.reconstruct(), state.x, atol=1e-12)
    assert state.kappa_bound >= aset.gauge_value(state.x) - 1e-12


@pytest.mark.parametrize("option", ["screening_enabled", "keep_snapshots"])
def test_enumerating_options_refused_on_huge_sets(option):
    loss, penalty, aset = _cube_problem()
    cfg = gc.SolverConfig(max_iters=10, **{option: True})
    with pytest.raises(ContractViolationError, match="enumerable"):
        gc.run(loss, penalty, aset, cfg)


def test_screened_hypercube_enumerates_its_vertices_once(monkeypatch):
    # every screening pass scores the vertices; the 2^d x d matrix behind
    # the scores is built on the first pass and kept
    loss, penalty, aset = _cube_problem(d=10)
    built, calls = [], []
    enumerate_vertices = gc.AtomicSet.atoms_matrix

    def spy(self):
        calls.append(1)
        mat = enumerate_vertices(self)
        if not any(mat is seen for seen in built):
            built.append(mat)
        return mat

    monkeypatch.setattr(gc.AtomicSet, "atoms_matrix", spy)
    cfg = gc.SolverConfig(max_iters=300, screening_enabled=True)
    gc.run(loss, penalty, aset, cfg)
    assert len(calls) >= cfg.max_iters  # one scoring per pass at least
    assert len(built) <= 1
