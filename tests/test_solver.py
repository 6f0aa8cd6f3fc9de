"""Solver iteration: hand-derived values on the 1-d two-atom problem, trace
bookkeeping, the state invariants as properties, and both failure paths."""

import dataclasses
import hashlib
import math
import sys
import types
import warnings
from gc import get_referents

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gaugecg as gc
from gaugecg import atoms, screening, solver
from gaugecg.errors import ContractViolationError, DivergenceError, UnboundedStepError

from conftest import one_dim_problem, synthetic_problem, tame_quadratic


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
        {"step_schedule": None},
        {"trace_every": 1.5},
        {"trace_every": 0},
        {"max_iters": math.nan},
        {"max_iters": math.inf},
        {"max_iters": "3"},
        {"gap_tolerance": "x"},
        {"trace_every": math.nan},
        {"trace_every": math.inf},
        # bool("no") is True: only a bool switches
        {"screening_enabled": "no"},
        {"screening_enabled": 1},
        {"keep_snapshots": "no"},
        {"keep_snapshots": None},
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


def test_infinite_tolerance_ends_at_the_first_iterate():
    # every gap meets tol = inf: the run ends at t = 1 without moving
    loss, penalty, aset = one_dim_problem()
    cfg = gc.SolverConfig(max_iters=500, gap_tolerance=math.inf)
    result = gc.run(loss, penalty, aset, cfg)
    assert [row.t for row in result.trace] == [1]
    assert result.state.t == 1 and result.state.x[0] == 0.0


def test_gap_tolerance_stops_early():
    loss, penalty, aset = one_dim_problem()
    cfg = gc.SolverConfig(max_iters=10**6, gap_tolerance=1e-6)
    result = gc.run(loss, penalty, aset, cfg)
    assert result.state.min_gap <= 1e-6
    assert result.state.t < 10**5


@pytest.mark.parametrize("tol", [1e-4, 1e-6])
@pytest.mark.parametrize("lam", [0.1, 1.0])
@pytest.mark.parametrize("seed", range(4))
def test_tolerance_stop_returns_the_iterate_its_gap_certified(seed, lam, tol):
    # a run that stops on gap_tolerance ends on the first iterate whose gap
    # meets it, does not move past it, and returns it; its last row and
    # snapshot are that iterate's
    loss, penalty, aset = synthetic_problem(seed, lam=lam)
    cfg = gc.SolverConfig(max_iters=1000, gap_tolerance=tol, keep_snapshots=True)
    result = gc.run(loss, penalty, aset, cfg)
    state, last = result.state, result.trace[-1]
    assert len(result.trace) == state.t  # one row per iterate, iterations + 1
    assert last.t == state.t
    assert all(row.gap > tol for row in result.trace[:-1])
    if state.t > cfg.max_iters:
        assert last.gap > tol  # ended on its budget instead
        return
    assert last.gap <= tol
    assert result.snapshots[-1].x.tobytes() == state.x.tobytes()


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
    # a nonzero start is decomposed over the enumerated atoms
    with pytest.raises(ContractViolationError, match="limited to desk scale"):
        gc.SolverState(gc.AtomicSet.hypercube(23), x0=np.ones(23))


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


@pytest.mark.parametrize("kind", ["signed-basis", "hypercube", "explicit-list"])
def test_in_place_steps_leave_x0_and_snapshots_alone(kind):
    # the step updates x in place: the caller's x0 must not move, and each
    # snapshot must hold the iterate of its own t, not the final one
    rng = np.random.default_rng(4)
    if kind != "explicit-list":
        data = gc.gen_synthetic(3, n=20, d=5)
        loss = gc.LogisticLoss(data)
        aset = gc.AtomicSet.signed_basis(5) if kind == "signed-basis" else gc.AtomicSet.hypercube(5)
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
    ledger, t = {}, None
    while state.t != t:  # as run does: until a step does not move
        t = state.t
        ledger[t] = state.reconstruct()
        gc.step(state, loss, penalty, aset, cfg)
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


def test_an_overflow_in_a_run_aborts_without_a_warning():
    # the margins of data at 1e300 overflow in the first step's image, and
    # the gap comes out NaN: the typed abort, with no RuntimeWarning first
    data = gc.gen_synthetic(0, n=20, d=5)
    loss = gc.QuadraticLoss(gc.DataMatrix(data.features * 1e300, data.targets))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DivergenceError) as info:
            gc.run(loss, gc.Penalty.power(2.0), gc.AtomicSet.signed_basis(5),
                   gc.SolverConfig(max_iters=5))
    assert type(info.value) is DivergenceError
    assert (str(info.value), info.value.t) == ("gap is NaN at iteration 1", 1)


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


@pytest.mark.parametrize(
    "n, d, entry, target, scale, message",
    [
        (10, 3, 1e10, 1.0, 1e300, "support value inf at iteration 1"),
        (100, 5, 1e308, -1.0, 1.0, "gap is NaN at iteration 1"),
    ],
    ids=["support-value-inf", "gap-nan"],
)
def test_certificate_aborts_carry_the_first_row(n, d, entry, target, scale, message):
    # the certificate itself aborts: the oracle's score overflows (C*A'v),
    # or the step's image does and the gap comes out NaN
    data = gc.DataMatrix(np.full((n, d), entry), np.full(n, target))
    loss = gc.LogisticLoss(data)
    aset = gc.AtomicSet.signed_basis(d, scale=scale)
    with np.errstate(over="ignore"), pytest.raises(DivergenceError, match=message) as info:
        gc.run(loss, gc.Penalty.power(2.0, weight=1.0), aset, gc.SolverConfig(max_iters=10))
    assert info.value.t == 1
    (row,) = info.value.result.trace
    assert row.t == 1 and row.objective == pytest.approx(math.log(2.0))


# ------------------------------------------------------------------- screening


def test_prune_mode_shrinks_the_mask():
    data = gc.gen_synthetic(0, n=60, d=20)
    loss = gc.LogisticLoss(data)
    penalty = gc.Penalty.power(2.0, weight=1.0)
    aset = gc.AtomicSet.signed_basis(20)
    cfg = gc.SolverConfig(max_iters=800, screening_enabled=True)
    result = gc.run(loss, penalty, aset, cfg)
    assert result.screen_events
    assert result.state.mask.active_count < 40
    counts = [row.active_atoms for row in result.trace]
    assert all(a >= b for a, b in zip(counts, counts[1:]))


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
    state, trace = result.state, result.trace

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


@pytest.mark.parametrize("screening", [False, True])
@pytest.mark.parametrize("set_kind", ["signed-basis", "hypercube"])
def test_indicator_iterates_read_feasible(set_kind, screening):
    # every move is a convex combination of points within the cap, so the
    # gauge passes the cap by rounding alone: |x|_1 / C on the signed basis
    # first did at t = 28 here, the ledger sum on the hypercube at t = 9
    if set_kind == "signed-basis":
        d, aset = 50, gc.AtomicSet.signed_basis(50)
    else:
        d, aset = 6, gc.AtomicSet.hypercube(6)
    loss = gc.LogisticLoss(gc.gen_synthetic(0, n=100, d=d))
    cfg = gc.SolverConfig(max_iters=200, screening_enabled=screening)
    result = gc.run(loss, gc.Penalty.indicator(1.0), aset, cfg)
    assert all(math.isfinite(row.gap) for row in result.trace)
    assert all(math.isfinite(row.objective) for row in result.trace)


def test_indicator_admits_only_the_rounding_of_its_gauge():
    # at t = 1 the bound is (3 + d) eps kappa, about 1.2e-14 here: a start
    # 4 ulps past the cap is within it, one 1e-12 past is infeasible
    loss = gc.LogisticLoss(gc.gen_synthetic(0, n=100, d=50))
    aset = gc.AtomicSet.signed_basis(50)
    eps = np.finfo(float).eps
    for excess, feasible in ((4 * eps, True), (1e-12, False)):
        x0 = np.zeros(50)
        x0[0] = 1.0 + excess
        result = gc.run(
            loss, gc.Penalty.indicator(1.0), aset, gc.SolverConfig(max_iters=2), x0=x0
        )
        first = result.trace[0]
        assert math.isfinite(first.gap) is feasible, excess
        assert math.isfinite(first.objective) is feasible, excess
        assert math.isfinite(result.trace[-1].gap)


def test_finite_penalty_values_never_ask_for_the_rounding_bound(monkeypatch):
    # the admission is reached only where value(kappa) reads inf, so the
    # power and log-barrier steps do no extra work for it
    def refuse(self, xi, rounding):
        raise AssertionError(f"{self!r} asked to admit {xi!r}")

    monkeypatch.setattr(gc.Penalty, "_value_rounded", refuse)
    loss, _, aset = synthetic_problem(0)
    for penalty in (
        gc.Penalty.power(2.0, weight=0.01),
        gc.Penalty.log_barrier(1.0, weight=0.01),
    ):
        gc.run(loss, penalty, aset, gc.SolverConfig(max_iters=300, screening_enabled=True))


def test_ledger_reconstructs_x_after_a_long_run():
    loss, penalty, aset = one_dim_problem()
    cfg = gc.SolverConfig(max_iters=5000)
    result = gc.run(loss, penalty, aset, cfg)
    # the (t0/t)^2 decay takes the ledger scale down to about 8e-8 over
    # 5000 iterations without losing the reconstruction
    rebuilt = result.state.reconstruct()
    assert abs(rebuilt[0] - result.state.x[0]) <= 1e-10


def test_ledger_renormalization_keeps_what_the_ledger_says():
    # theta = 1 - 1e-6 shrinks the ledger scale about a millionfold per
    # decay, so it crosses the 1e-250 cut on the 42nd and the raw weights
    # take the scale over; every decay, that one included, must scale the
    # coefficients, the gauge bound and the rebuilt x by 1 - theta
    rng = np.random.default_rng(0)
    aset = gc.AtomicSet.explicit(rng.standard_normal((4, 3)))
    state = gc.SolverState(aset)
    state._ledger_add(0, 0.5)
    state._ledger_add(2, 0.25)
    theta = 1.0 - 1e-6
    shrink = 1.0 - theta
    renormalized = 0
    for _ in range(45):
        coeffs, kappa, rebuilt = state.coeffs, state.kappa_bound, state.reconstruct()
        state._ledger_decay(theta)
        renormalized += state._ledger_scale == 1.0
        assert state.coeffs.keys() == coeffs.keys()
        for atom_id, weight in coeffs.items():
            assert state.coeffs[atom_id] == pytest.approx(shrink * weight, rel=1e-12)
        assert state.kappa_bound == pytest.approx(shrink * kappa, rel=1e-12)
        np.testing.assert_allclose(
            state.reconstruct(), shrink * rebuilt,
            rtol=1e-12, atol=1e-12 * float(np.abs(rebuilt).max()),
        )
    assert renormalized == 1
    assert 0.0 < state.coeffs[2] < 1e-250


def test_problem_fingerprint_is_stable_and_sensitive():
    loss, penalty, aset = one_dim_problem()
    a = gc.problem_fingerprint(loss, penalty, aset)
    b = gc.problem_fingerprint(loss, penalty, aset)
    assert a == b
    other = gc.problem_fingerprint(loss, gc.Penalty.power(2.0, weight=0.5), aset)
    assert a != other
    assert gc.run(loss, penalty, aset, gc.SolverConfig(max_iters=3)).fingerprint == a


def test_a_run_hashes_its_problem_only_when_asked(monkeypatch):
    calls = []
    hash_problem = gc.solver.problem_fingerprint
    monkeypatch.setattr(
        "gaugecg.solver.problem_fingerprint", lambda *args: calls.append(1) or hash_problem(*args)
    )
    loss, penalty, aset = one_dim_problem()
    result = gc.run(loss, penalty, aset, gc.SolverConfig(max_iters=3))
    assert calls == []
    assert result.fingerprint == result.fingerprint == hash_problem(loss, penalty, aset)
    assert calls == [1]


def test_problem_fingerprint_hashes_the_joined_fingerprint_bytes():
    # the pieces are hashed in turn, the arrays without a copy; the digest
    # and the bytes stay those of the joined byte strings, whatever the
    # memory order of the data or the atoms
    rng = np.random.default_rng(8)
    penalty = gc.Penalty.power(2.0, weight=0.3)
    for order in ("C", "F"):
        features = np.asarray(rng.standard_normal((7, 4)), order=order)
        data = gc.DataMatrix(features, np.sign(rng.standard_normal(7)))
        data_bytes = b"".join(data.fingerprint_parts())
        assert data_bytes == (
            b"data|7|4|" + features.tobytes() + data.targets.tobytes()
        )
        atom_rows = np.asarray(rng.standard_normal((5, 4)), order=order)
        sets = (
            gc.AtomicSet.signed_basis(4),
            gc.AtomicSet.hypercube(4),
            gc.AtomicSet.explicit(atom_rows, scale=0.5),
        )
        assert b"".join(sets[2].fingerprint_parts()) == (
            b"explicit-list|4|0.5|" + (atom_rows * 0.5).tobytes()
        )
        for loss in (gc.LogisticLoss(data), gc.QuadraticLoss(data)):
            loss_bytes = b"".join(loss.fingerprint_parts())
            assert loss_bytes == f"{loss.kind}|".encode() + data_bytes
            for aset in sets:
                joined = (
                    loss_bytes
                    + penalty.fingerprint_bytes()
                    + b"".join(aset.fingerprint_parts())
                )
                assert gc.problem_fingerprint(loss, penalty, aset) == (
                    hashlib.sha256(joined).hexdigest()
                )


# The problem fingerprint of one tiny problem per set and penalty kind. The
# bench's cached references and saved reference files pair with runs by
# these digests, so a changed byte in any fingerprint piece breaks them.
PINNED_FINGERPRINTS = {
    ("signed-basis", "power"): "6db80abff4de32e46d255697d9ae279d9c20d652bbe12aa7000dc403f7e1580e",
    ("signed-basis", "log-barrier"): "53c847508c35343b79dfec1789a807d8ad16ef8c8b8dd1fcd8676fcbe0171404",
    ("signed-basis", "indicator"): "2dbcd11d6e9a495e5fd990265cf19024d605dc299524cc8921b1175bf77af39f",
    ("hypercube", "power"): "4b8b31fa6fb166b6c02f9727739881a20fb4722a162fe9190358d5bbe472383d",
    ("hypercube", "log-barrier"): "ab377c009129f4169e95dbf5fe613ffbd025294dbe5c17664e1348eb9672e928",
    ("hypercube", "indicator"): "e5796e6d5644b3eebb19a0433207771b688157ca7349b55a4aa40ac764821160",
    ("explicit", "power"): "a4416cc6ce4eeda3212bc9de161801232ae1e6f5d9ce3ff3a277dafa5f5f787d",
    ("explicit", "log-barrier"): "c6458d56b0bc8783b48823786f723765dd37d7fc3e442e9b0b18eb7ff40c1805",
    ("explicit", "indicator"): "995482c033da0843b77b4da1fa95c71194bb2b5d38fde05f32f837ef866616e0",
}


@pytest.mark.parametrize("set_kind, penalty_kind", sorted(PINNED_FINGERPRINTS))
def test_problem_fingerprint_is_pinned_for_every_kind(set_kind, penalty_kind):
    data = gc.DataMatrix(np.array([[1.0, -2.0, 0.5], [0.0, 3.0, -1.5]]), np.array([1.0, -1.0]))
    aset = {
        "signed-basis": lambda: gc.AtomicSet.signed_basis(3, scale=0.5),
        "hypercube": lambda: gc.AtomicSet.hypercube(3),
        "explicit": lambda: gc.AtomicSet.explicit(
            [[1.0, 0.0, 2.0], [0.0, -1.0, 1.0]], scale=2.0
        ),
    }[set_kind]()
    penalty = {
        "power": lambda: gc.Penalty.power(2.5, weight=0.5),
        "log-barrier": lambda: gc.Penalty.log_barrier(2.0, growth=1.5, weight=0.7),
        "indicator": lambda: gc.Penalty.indicator(1.5),
    }[penalty_kind]()
    digest = gc.problem_fingerprint(gc.LogisticLoss(data), penalty, aset)
    assert digest == PINNED_FINGERPRINTS[set_kind, penalty_kind]


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
    worst, t = 0.0, None
    while state.t != t:  # as run does: until a step does not move
        t = state.t
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


# ---------------------------------------- the unscreened window of columns


def _window_case(case):
    """(loss, penalty, atomic_set, config, x0) of one unscreened run above
    the window's size floor (atoms._WINDOW_FLOOR)."""
    seed = 11 if case == "logistic-11" else 3
    data = gc.gen_synthetic(seed, n=200, d=300 if case == "quadratic" else 1000)
    loss = gc.LogisticLoss(data)
    if case == "quadratic":
        features = data.features / math.sqrt(200)
        noise = np.random.default_rng(seed).standard_normal(200)
        targets = features[:, :5].sum(axis=1) + 0.1 * noise
        loss = gc.QuadraticLoss(gc.DataMatrix(features, targets))
    d = loss.data.d
    aset = gc.AtomicSet.signed_basis(d, scale=0.3 if case == "scale-0.3" else 1.0)
    x0 = None
    if case == "warm-start":
        x0 = np.zeros(d)
        x0[:20] = np.linspace(-0.5, 0.5, 20)
    schedule = "4t2" if case in ("warm-start", "4t2") else "2t1"
    config = gc.SolverConfig(max_iters=400, step_schedule=schedule)
    return loss, gc.Penalty.power(2.0, weight=0.1), aset, config, x0


@pytest.mark.parametrize(
    "case", ["logistic-3", "logistic-11", "quadratic", "scale-0.3", "warm-start", "4t2"]
)
def test_the_window_picks_the_atom_of_the_full_product(case, monkeypatch):
    # at every step the atom equals the full-product oracle's, recomputed
    # from the margins the step reads, and sigma is within the rounding of
    # two length-n dot products, 2 C n eps max|a_k| |v| (atoms._Columns); a
    # step that formed the product reads the full oracle's sigma to the bit
    loss, penalty, aset, config, x0 = _window_case(case)
    served, moves = [], []
    answer, move = atoms._Columns.answer, aset.move

    def counted(window, v):
        out = answer(window, v)
        served.append(out is not None)
        return out

    def recorded(x, theta, xi, atom_id):
        moves.append(atom_id)
        return move(x, theta, xi, atom_id)

    monkeypatch.setattr(atoms._Columns, "answer", counted)
    aset.move = recorded
    features = loss.data.features
    top_norm = math.sqrt(float(np.max(np.sum(features * features, axis=0))))
    state = gc.SolverState(aset, x0=x0)
    for t in range(1, config.max_iters + 1):
        v = loss.link(solver._margins(state, loss))
        atom_id, sigma = aset.lmo(-(features.T @ v))
        gc.step(state, loss, penalty, aset, config)
        assert moves[-1] == atom_id, t
        row = state.trace[-1]
        if served[-1]:
            bound = 2.0 * aset.scale * v.size * solver._EPS * top_norm * np.linalg.norm(v)
            assert abs(row.sigma - sigma) <= bound, t
        else:
            assert row.sigma == sigma, t
    # the window answered most steps: the comparison is not vacuous
    assert sum(served) > config.max_iters // 2, sum(served)


def test_a_non_finite_link_aborts_as_without_the_window(monkeypatch):
    # a NaN in the margins makes v NaN: the window's test fails, the step
    # forms the full product, and the abort is the one the full product
    # always gave, in type, message and t
    loss, penalty, aset = synthetic_problem(3, lam=0.1, n=200, d=1000)
    config = gc.SolverConfig(max_iters=1000)
    outcomes = []
    for floor in (atoms._WINDOW_FLOOR, math.inf):
        monkeypatch.setattr(atoms, "_WINDOW_FLOOR", floor)
        state = gc.SolverState(aset)
        for _ in range(150):
            gc.step(state, loss, penalty, aset, config)
        opened = state._oracle.sub is not None  # a full mask's copy is a window's
        assert opened == (floor != math.inf)
        state.ax[7] = math.nan
        with pytest.raises(DivergenceError) as info:
            gc.step(state, loss, penalty, aset, config)
        outcomes.append((type(info.value), str(info.value), info.value.t))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][2] == 151


def test_a_run_below_the_window_floor_forms_the_product_on_every_step(monkeypatch):
    # n*d = 30000 entries, under atoms._WINDOW_FLOOR: the run opens no
    # window and matches a run with the window held off, to the byte; with
    # the floor lowered the same run opens one
    loss, penalty, aset = synthetic_problem(2, lam=0.1, n=100, d=300)
    config = gc.SolverConfig(max_iters=2000, trace_every=50)

    def solve():
        result = gc.run(loss, penalty, aset, config)
        rows = [dataclasses.replace(row, elapsed_s=0.0) for row in result.trace]
        return result.state, rows

    state, rows = solve()
    assert loss.data.features.size < atoms._WINDOW_FLOOR
    assert state._oracle.norms is None  # set by the first window refresh: none ran
    monkeypatch.setattr(atoms, "_WINDOW_FLOOR", math.inf)
    plain, plain_rows = solve()
    assert rows == plain_rows
    assert state.x.tobytes() == plain.x.tobytes()
    monkeypatch.setattr(atoms, "_WINDOW_FLOOR", loss.data.features.size)
    assert solve()[0]._oracle.norms is not None


def test_a_window_served_step_enters_neither_best_atom_nor_image():
    # a step the window serves answers by the sign rule and takes its image
    # from the window's copy: over 300 of them at n=200, d=1000 the profile
    # sees no call of best_atom or of either _image, which the steps that
    # form A'v do make
    loss, penalty, aset = synthetic_problem(3, lam=0.1, n=200, d=1000)
    config = gc.SolverConfig(max_iters=2000)
    hops = {"best_atom", "AtomicSet._image", "_SignedBasis._image"}
    entered, refreshes = set(), set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_globals.get("__name__") == "gaugecg.atoms":
            entered.add(frame.f_code.co_qualname)

    state, served = gc.SolverState(aset), 0
    while served < 300:
        entered.clear()
        sys.setprofile(profile)
        try:
            gc.step(state, loss, penalty, aset, config)
        finally:
            sys.setprofile(None)
        if state._oracle.pick is not None:  # the copy answered
            served += 1
            assert not entered & hops, (state.t, entered & hops)
        else:
            refreshes |= entered
    assert "_SignedBasis._image" in refreshes
    assert "_Columns.answer" in entered
    assert state.t < 400


# ------------------------------------------------- the zero-sign pass of a move


def _formula_move(aset):
    """AtomicSet.move as its formula, out of place: the zero-sign pass on
    every step, whatever step has shown of x."""

    def move(x, theta, xi, atom_id):
        x[:] = (1.0 - theta) * x + theta * (xi * aset.atom_vector(atom_id))
        return atom_id % aset.dimension

    return move


def _trail(loss, penalty, aset, config, x0, t, steps, move=None):
    """The bytes of x, ax and the ledger after each of steps steps of a state
    from x0 at iteration t, and the repr of its trace rows less elapsed_s
    (repr tells -0 from +0); move stands in for aset.move if given. After
    each step the state's floor bounds the nonzero |x_j| from below, and is
    0 while x holds a -0."""
    state = gc.SolverState(aset, x0=x0)
    state.t = t
    if move is not None:
        aset.move = move
    trail = []
    try:
        for _ in range(steps):
            gc.step(state, loss, penalty, aset, config)
            mags = np.abs(state.x)
            assert state._floor <= np.min(mags[mags > 0.0], initial=np.inf)
            assert state._floor == 0.0 or not np.signbit(state.x[mags == 0.0]).any()
            ledger = repr((sorted(state._ledger.items()), state._ledger_scale))
            trail.append((state.x.tobytes(), state.ax.tobytes(), ledger))
    finally:
        vars(aset).pop("move", None)
    return trail, repr([dataclasses.replace(row, elapsed_s=0.0) for row in state.trace])


@pytest.mark.parametrize(
    "case", ["negative-start", "negative-start-4t2", "negative-subnormals", "resumed-with-zeros"]
)
def test_a_move_left_without_its_zero_sign_pass_is_the_formula(case):
    # step leaves the pass x += theta * (xi * 0) out of a signed-basis move
    # where the state's floor shows it a no-op. Against a run whose every
    # move is the formula, pass and all, the trace rows, x, ax and the
    # ledger agree to the byte after every step. A negative start meets
    # theta = 1, which makes a -0 of each negative entry; a state resumed
    # at t = 2 (theta = 2/3) from negative subnormals has products that
    # underflow to -0 (a run from t = 1 reaches no such product: past
    # t = 3 a subnormal times 1 - theta > 1/2 rounds back up), and one
    # resumed from a start with -0 entries holds them from the first move
    if case in ("negative-subnormals", "resumed-with-zeros"):
        loss, penalty, aset = synthetic_problem(5, lam=0.1, n=60, d=40)
        x0 = np.zeros(40)
        x0[:7] = [-5e-324, -1e-323, -2.5e-322, 3e-310, -0.4, 0.9, -1e-320]
        if case == "resumed-with-zeros":
            x0[:7] = [-0.0, 0.2, -0.0, -0.7, -0.4, 0.9, 0.3]
        t, steps, schedule = 2, 100, "2t1"
        scaled = (1.0 - gc.theta_schedule("2t1", t)) * x0
        assert np.any(np.signbit(scaled[x0 <= 0.0]) & (scaled[x0 <= 0.0] == 0.0))
    else:
        loss, penalty, aset = synthetic_problem(3, lam=0.1, n=200, d=1000)
        x0 = np.zeros(1000)
        x0[:30] = np.linspace(-0.6, 0.6, 30)
        x0[3] = -0.0
        t, steps, schedule = 1, 300, "4t2" if case.endswith("4t2") else "2t1"
    config = gc.SolverConfig(max_iters=1000, step_schedule=schedule)
    move, plain = aset.move, []

    def lean(x, theta, xi, atom_id):  # the move step makes, noting the pass it left out
        plain.append(atoms._PLAIN_ITERATE.get() is x)
        return move(x, theta, xi, atom_id)

    trail, rows = _trail(loss, penalty, aset, config, x0, t, steps, lean)
    assert (trail, rows) == _trail(loss, penalty, aset, config, x0, t, steps, _formula_move(aset))
    assert len(plain) == steps and not plain[0]
    if t == 2:
        assert not any(plain)  # the floor is 0 from the start or at once: every pass runs
    else:
        assert sum(plain) >= steps - 3


def test_a_move_that_leaves_x_k_at_negative_zero_zeroes_the_floor():
    # at theta = 1 the pass leaves every entry but x_k at +0, and x_k at -0
    # where xi C rounds to -0 on a negative start (an indicator of radius
    # 5e-324 over C = 0.3): the floor, positive only while x holds no -0,
    # reads 0 there, not the inf of an x of +0s
    data = gc.gen_synthetic(1, n=30, d=8)
    loss = gc.QuadraticLoss(gc.DataMatrix(data.features * 4.0, data.targets))
    aset = gc.AtomicSet.signed_basis(8, scale=0.3)
    state = gc.SolverState(aset, x0=np.full(8, -0.01))
    gc.step(state, loss, gc.Penalty.indicator(5e-324), aset, gc.SolverConfig(max_iters=5))
    assert np.count_nonzero(np.signbit(state.x)) == 1 and not state.x.any()
    assert state._floor == 0.0


def _column_copies(state, features):
    """The 2-d float arrays of features' row count, features aside, that
    state reaches through its objects and containers (not through types,
    modules or functions, which reach everything)."""
    skip = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)
    seen, todo, found = set(), [state], []
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            if obj.ndim == 2 and obj.dtype.kind == "f" and obj.shape[0] == features.shape[0]:
                if obj is not features:
                    found.append(obj)
            if obj.base is not None:
                todo.append(obj.base)
            continue
        todo.extend(get_referents(obj))
    return found


@pytest.mark.parametrize(
    "legs",
    [
        ((True, 150), (False, 150), (True, 50), (False, 50)),
        ((False, 150), (True, 150), (False, 100)),
    ],
    ids=["screened-first", "unscreened-first"],
)
def test_a_state_that_switches_screening_keeps_one_column_copy(legs):
    # the corpus's switching schedules, (screened, steps) each leg: whatever
    # the order, the state reaches one copy of data columns, and it is the
    # active columns of its mask. With an oracle per setting, unscreened
    # first kept the window's (200, 97) copy next to the pruned (200, 89) one
    loss, penalty, aset = synthetic_problem(11, lam=0.1, n=200, d=1000)
    features = loss.data.features
    state = gc.SolverState(aset)
    for screened, steps in legs:
        config = gc.SolverConfig(max_iters=400, screening_enabled=screened)
        for _ in range(steps):
            gc.step(state, loss, penalty, aset, config)
    assert not state.mask.is_full
    cols = np.unique(state.mask.active_ids() % aset.dimension)
    copies = _column_copies(state, features)
    assert [copy.shape for copy in copies] == [(200, cols.size)]
    assert copies[0].tobytes() == np.ascontiguousarray(features[:, cols]).tobytes()


def test_the_rule_runs_only_on_passes_that_can_fire(monkeypatch):
    # a screened step calls apply_rule exactly on the passes where some
    # score sigma - <p, -grad> exceeds the radius 2 sqrt(L gap), or the gap
    # is negative; the passes it skips would have removed nothing, so the
    # removals of the calls it makes are the run's screen events
    loss, penalty, aset = synthetic_problem(11, lam=0.1, n=200, d=1000)
    calls, certs = [], []
    apply_rule, certificate = screening.apply_rule, solver.certificate

    def spy_rule(*args, **kwargs):
        mask, report = apply_rule(*args, **kwargs)
        calls.append(report)
        return mask, report

    def spy_certificate(*args):
        certs.append(certificate(*args))
        return certs[-1]

    monkeypatch.setattr(screening, "apply_rule", spy_rule)
    monkeypatch.setattr(solver, "certificate", spy_certificate)
    config = gc.SolverConfig(max_iters=400, screening_enabled=True)
    result = gc.run(loss, penalty, aset, config)
    L = loss.smoothness_wrt(aset)
    fire = []
    for t, cert in enumerate(certs[: config.max_iters], start=1):
        values = cert.scores[1]  # the scores the pass read
        radius = 2.0 * math.sqrt(L * max(cert.gap, 0.0))
        if cert.gap < 0.0 or float(np.max(cert.sigma - values)) > radius:
            fire.append(t)
    assert [report.t for report in calls] == fire
    assert 0 < len(fire) < config.max_iters
    assert [report for report in calls if report.removed_ids] == result.screen_events
    assert result.screen_events


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


def test_readme_hypercube_ledger_bound():
    # the README's figures: off the signed basis the objective's gauge is
    # the ledger sum, an upper bound on the gauge max|x| / C
    data = gc.gen_synthetic(0, n=30, d=6)
    aset = gc.AtomicSet.hypercube(6)
    result = gc.run(
        gc.LogisticLoss(data), gc.Penalty.power(2.0, weight=0.1), aset,
        gc.SolverConfig(max_iters=500),
    )
    state = result.state
    assert state.kappa_bound == pytest.approx(0.95259, abs=5e-6)
    assert aset.gauge_value(state.x) == pytest.approx(0.95045, abs=5e-6)
    assert float(np.max(np.abs(state.x))) == aset.gauge_value(state.x)


@pytest.mark.parametrize("option",["screening_enabled", "keep_snapshots"])
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
