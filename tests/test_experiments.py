"""Data generation, IDX loading, the reference oracle, residual series,
rate fits, CSV round-trips, and experiment orchestration."""

import gzip
import json
import math
import struct
import sys
import warnings

import numpy as np
import pytest

import gaugecg as gc
from gaugecg import experiments
from gaugecg.errors import (
    ContractViolationError,
    DivergenceError,
    FileFormatError,
    ReferenceMismatchError,
    UnboundedStepError,
)
from gaugecg.experiments import (
    RESIDUAL_COLUMNS,
    SCREEN_COLUMNS,
    TRACE_COLUMNS,
    ExperimentConfig,
    ReferenceSolution,
    ResidualSeries,
    identified_at,
    load_reference,
    rate_slope,
    read_csv_columns,
    read_trace_csv,
    residuals,
    save_reference,
    write_residuals_csv,
    write_screen_csv,
    write_trace_csv,
)
from gaugecg.screening import ScreenReport
from gaugecg.solver import TraceRecord

from conftest import (
    get_reference,
    one_dim_problem,
    synthetic_problem,
    tame_quadratic,
    write_idx_pair,
)


# -------------------------------------------------------------- synthetic data


def test_gen_synthetic_shape_and_determinism():
    a = gc.gen_synthetic(11, n=30, d=7)
    b = gc.gen_synthetic(11, n=30, d=7)
    assert a.features.shape == (30, 7)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.targets, np.ones(30))
    c = gc.gen_synthetic(12, n=30, d=7)
    assert not np.array_equal(a.features, c.features)


def test_gen_synthetic_moments():
    data = gc.gen_synthetic(0, n=4000, d=25)
    assert abs(float(data.features.mean())) < 0.02
    assert abs(float(data.features.std()) - 1.0) < 0.02


def test_gen_synthetic_validation():
    with pytest.raises(ContractViolationError):
        gc.gen_synthetic(0, n=0, d=5)
    for n, d in (("x", 3), (2.5, 3), (3, None)):
        with pytest.raises(ContractViolationError, match="n and d must be >= 1"):
            gc.gen_synthetic(0, n=n, d=d)
    for seed in (-1, 1.5, "3", None):
        with pytest.raises(ContractViolationError, match="seed"):
            gc.gen_synthetic(seed, n=5, d=5)


# ----------------------------------------------------------------- IDX loading


def test_load_idx_pair(mnist_fixture):
    img, lbl, labels = mnist_fixture
    data = gc.load_mnist_pair(img, lbl, digits=(4, 9))
    n4 = int((labels == 4).sum())
    n9 = int((labels == 9).sum())
    assert data.features.shape == (n4 + n9, 784)
    assert int((data.targets == -1.0).sum()) == n4
    assert int((data.targets == 1.0).sum()) == n9
    assert float(data.features.min()) >= 0.0
    assert float(data.features.max()) <= 1.0


def test_load_idx_pair_other_digit_order(mnist_fixture):
    img, lbl, labels = mnist_fixture
    data = gc.load_mnist_pair(img, lbl, digits=(9, 4))
    assert int((data.targets == -1.0).sum()) == int((labels == 9).sum())


def test_load_idx_gzipped(tmp_path):
    img, lbl, labels = write_idx_pair(tmp_path, gzipped=True)
    data = gc.load_mnist_pair(img, lbl)
    assert data.features.shape[0] == int(((labels == 4) | (labels == 9)).sum())


def test_gzip_and_plain_agree(tmp_path):
    plain_dir = tmp_path / "p"
    gz_dir = tmp_path / "g"
    plain_dir.mkdir()
    gz_dir.mkdir()
    pi, pl, _ = write_idx_pair(plain_dir, seed=3)
    gi, gl, _ = write_idx_pair(gz_dir, seed=3, gzipped=True)
    a = gc.load_mnist_pair(pi, pl)
    b = gc.load_mnist_pair(gi, gl)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.targets, b.targets)


def test_idx_bad_images_magic(tmp_path):
    path = tmp_path / "bad.idx"
    path.write_bytes(struct.pack(">IIII", 0x804, 1, 28, 28) + bytes(784))
    lbl = tmp_path / "okateller.idx"
    lbl.write_bytes(struct.pack(">II", 0x801, 1) + bytes([4]))
    with pytest.raises(FileFormatError) as info:
        gc.load_mnist_pair(str(path), str(lbl))
    assert info.value.offset == 0
    assert "magic" in str(info.value)


def test_idx_truncated_header(tmp_path):
    path = tmp_path / "tiny.idx"
    path.write_bytes(b"\x00\x00\x08")
    lbl = tmp_path / "l.idx"
    lbl.write_bytes(struct.pack(">II", 0x801, 0))
    with pytest.raises(FileFormatError) as info:
        gc.load_mnist_pair(str(path), str(lbl))
    assert info.value.offset == 3


def test_idx_truncated_payload(tmp_path):
    path = tmp_path / "short.idx"
    payload = struct.pack(">IIII", 0x803, 2, 28, 28) + bytes(784)  # one image missing
    path.write_bytes(payload)
    lbl = tmp_path / "l.idx"
    lbl.write_bytes(struct.pack(">II", 0x801, 2) + bytes([4, 9]))
    with pytest.raises(FileFormatError) as info:
        gc.load_mnist_pair(str(path), str(lbl))
    assert info.value.offset == len(payload)


def test_idx_count_mismatch(tmp_path):
    img = tmp_path / "i.idx"
    img.write_bytes(struct.pack(">IIII", 0x803, 1, 28, 28) + bytes(784))
    lbl = tmp_path / "l.idx"
    lbl.write_bytes(struct.pack(">II", 0x801, 2) + bytes([4, 9]))
    with pytest.raises(FileFormatError) as info:
        gc.load_mnist_pair(str(img), str(lbl))
    assert info.value.offset == 4


def test_idx_bad_digits(mnist_fixture):
    img, lbl, _ = mnist_fixture
    for digits in ((4, 4), (4,), (4, 11)):
        with pytest.raises(ContractViolationError):
            gc.load_mnist_pair(img, lbl, digits=digits)


def test_idx_no_matching_rows(tmp_path):
    img = tmp_path / "i.idx"
    img.write_bytes(struct.pack(">IIII", 0x803, 1, 28, 28) + bytes(784))
    lbl = tmp_path / "l.idx"
    lbl.write_bytes(struct.pack(">II", 0x801, 1) + bytes([3]))
    with pytest.raises(ContractViolationError):
        gc.load_mnist_pair(str(img), str(lbl), digits=(4, 9))


# ------------------------------------------------------------ reference oracle


def test_reference_on_the_frozen_problem():
    loss, penalty, aset = one_dim_problem(c=2.0)
    ref = gc.reference_solve(loss, penalty, aset, iters=2000, tol=1e-10)
    assert ref.reached
    assert ref.x[0] == pytest.approx(1.0, abs=1e-9)
    assert ref.grad[0] == pytest.approx(-1.0, abs=1e-9)
    assert ref.support_ids == {0}
    assert ref.delta == pytest.approx(2.0, abs=1e-8)
    assert ref.gap <= 1e-10


def test_reference_is_deterministic():
    loss, penalty, aset = synthetic_problem(5, lam=1.0, n=40, d=12)
    a = gc.reference_solve(loss, penalty, aset, iters=30_000, tol=1e-10)
    b = gc.reference_solve(loss, penalty, aset, iters=30_000, tol=1e-10)
    np.testing.assert_array_equal(a.x, b.x)
    assert a.to_json() == b.to_json()


def test_reference_certifies_past_a_stalled_newton_polish():
    # a value-monotone Newton polish stalled on the 20k-step iterate of this
    # instance, at a projected gradient near 3e-10 where the value is flat
    # to its last bit (see the next test); the polish of the warm start
    # certifies at the first checkpoint
    loss, penalty, aset = synthetic_problem(3, lam=0.01)
    ref = gc.reference_solve(loss, penalty, aset, iters=10**6, tol=1e-10)
    assert ref.reached and ref.gap <= 1e-10
    assert ref.iters_used == 10


def test_polish_certifies_the_20k_step_iterate_in_one_minimization(monkeypatch):
    # the Newton steps that keep the value within a few ulps while the
    # projected gradient shrinks carry the polish past the flat spot
    loss, penalty, aset = synthetic_problem(3, lam=0.01)
    config = gc.SolverConfig(max_iters=20_000, trace_every=20_000)
    state = gc.SolverState(aset)
    for _ in range(20_000):
        gc.step(state, loss, penalty, aset, config)
    calls = []
    inner = experiments._restricted_minimize

    def spy(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(experiments, "_restricted_minimize", spy)
    candidate = experiments._polish(loss, penalty, aset, state, 1e-10)
    assert candidate["gap"] <= 1e-10
    assert len(calls) == 1


def test_polish_at_most_doubles_the_working_support_per_round(monkeypatch):
    # the 10-step warm start holds a few of this instance's 23 support
    # atoms; each polish round adds violators, best first, at most as many
    # as the working support holds
    loss, penalty, aset = synthetic_problem(3, lam=0.01)
    calls = []
    inner = experiments._restricted_minimize

    def spy(loss_, penalty_, mat, c0):
        c = inner(loss_, penalty_, mat, c0)
        calls.append((mat, c))
        return c

    monkeypatch.setattr(experiments, "_restricted_minimize", spy)
    ref = gc.reference_solve(loss, penalty, aset, iters=10**6, tol=1e-10)
    assert ref.reached and ref.gap <= 1e-10
    assert ref.iters_used == 10
    assert len(ref.support_ids) == 23
    assert len(calls) >= 3
    atoms = aset.atoms_matrix()

    def ids_of(mat):
        return [int(np.flatnonzero((atoms == col).all(axis=1))[0]) for col in mat.T]

    for (mat, c), (grown_mat, _) in zip(calls, calls[1:]):
        support, grown = ids_of(mat), ids_of(grown_mat)
        assert grown[: len(support)] == support
        added = grown[len(support):]
        assert 1 <= len(added) <= len(support)
        ids, scores = aset.dots(-loss.gradient(mat @ c))
        inside = np.isin(ids, support)
        violators = ~inside & (scores > scores[inside].max())
        assert np.all(violators[added])
        left_out = violators & ~np.isin(ids, added)
        if np.any(left_out):
            assert scores[added].min() >= scores[left_out].max()
    assert set(ids_of(calls[-1][0])) >= ref.support_ids


def test_reference_certifies_after_the_warm_start():
    # the working-set fast path: the polish of the 10-step warm start
    # certifies; a fall back to the long phases fails here
    problems = [synthetic_problem(seed, lam=lam) for seed in range(5) for lam in (0.01, 1.0)]
    problems.append(synthetic_problem(0, lam=1.0, alpha=3.0))
    quadratic, explicit = tame_quadratic(np.random.default_rng(0))
    problems.append((quadratic, gc.Penalty.power(2.0), explicit))
    for i, (loss, penalty, aset) in enumerate(problems):
        ref = gc.reference_solve(loss, penalty, aset, iters=10**6, tol=1e-10)
        assert ref.reached and ref.gap <= 1e-10, i
        assert ref.iters_used == 10, i


@pytest.mark.parametrize(
    "rng_seed, weight, abort_t",
    [(0, 0.1, 19), (0, 0.03, 9), (1, 0.03, 12), (2, 0.03, 15), (3, 0.03, 9)],
)
def test_reference_polishes_the_state_a_divergence_abort_leaves(rng_seed, weight, abort_t):
    # open-loop steps overshoot past the divergence limit on these
    # quadratics; an abort before the first checkpoint (t=9) is polished
    # and the support is found, and the others certify at the checkpoint
    loss, aset = tame_quadratic(np.random.default_rng(rng_seed))
    penalty = gc.Penalty.power(2.0, weight=weight)
    with pytest.raises(DivergenceError) as aborted:
        gc.run(loss, penalty, aset, gc.SolverConfig(max_iters=200))
    assert aborted.value.t == abort_t
    ref = gc.reference_solve(loss, penalty, aset, iters=10**6, tol=1e-10)
    assert ref.reached and ref.gap <= 1e-10
    assert ref.iters_used == min(abort_t, 10)


def test_reference_refuses_a_set_too_large_to_enumerate(monkeypatch):
    # delta scores every atom: the refusal must come before any CG step
    def no_step(*args):
        raise AssertionError("reference_solve stepped before refusing")

    monkeypatch.setattr(experiments, "step", no_step)
    loss = gc.LogisticLoss(gc.gen_synthetic(0, n=10, d=23))
    with pytest.raises(ContractViolationError, match="too large to enumerate"):
        gc.reference_solve(loss, gc.Penalty.power(2.0), gc.AtomicSet.hypercube(23))


def test_reference_gap_is_nonnegative_at_an_exact_optimum():
    # the one-atom optimum of this instance is met exactly: the gap's
    # rounding-level negative value reads as 0, like the solver's
    data = gc.gen_synthetic(5, n=40, d=12)
    ref = gc.reference_solve(
        gc.LogisticLoss(data), gc.Penalty.power(2.0, weight=1.0),
        gc.AtomicSet.signed_basis(12),
    )
    assert ref.reached
    assert ref.gap >= 0.0


def test_reference_gap_matches_the_conjugate_form():
    # the conjugate form phi*(sigma) + grad'x + phi(kappa), assembled here
    # from Penalty.conjugate, is an independent oracle for the margins-form
    # gap that the reference certifies with
    for seed in range(5):
        for lam in (0.01, 1.0):
            _, penalty, aset = synthetic_problem(seed, lam=lam)
            ref = get_reference(seed, lam)
            sigma = aset.support_value(-ref.grad)
            conjugate_gap = (
                penalty.conjugate(max(sigma, 0.0))
                + float(ref.grad @ ref.x)
                + penalty.value(aset.gauge_value(ref.x))
            )
            assert abs(ref.gap - conjugate_gap) <= 1e-12, (seed, lam)


def test_reference_validation():
    loss, penalty, aset = one_dim_problem()
    for iters in (0, math.nan, math.inf):
        with pytest.raises(ContractViolationError):
            gc.reference_solve(loss, penalty, aset, iters=iters)
    with pytest.raises(ContractViolationError):
        gc.reference_solve(loss, penalty, aset, tol=-1.0)
    linear = gc.Penalty.power(1.0, weight=10.0)
    with pytest.raises(ContractViolationError):
        gc.reference_solve(loss, linear, aset)


@pytest.mark.parametrize(
    "kwargs",
    [{"iters": 1.5}, {"iters": "3"}, {"iters": None}, {"tol": "x"}, {"tol": None}],
)
def test_reference_rejects_non_numbers(kwargs):
    loss, penalty, aset = one_dim_problem()
    with pytest.raises(ContractViolationError):
        gc.reference_solve(loss, penalty, aset, **kwargs)


def test_reference_polishes_once(monkeypatch):
    # one path: the 10-step warm start is polished once and certifies
    calls = []
    inner = experiments._polish

    def spy(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(experiments, "_polish", spy)
    for lam in (0.01, 1.0):
        loss, penalty, aset = synthetic_problem(3, lam=lam)
        ref = gc.reference_solve(loss, penalty, aset, iters=10**6, tol=1e-10)
        assert ref.reached and ref.iters_used == 10
    assert len(calls) == 2


# numpy's Python-level reduction and set wrappers, by module (its last
# dotted part, which names it in numpy 1 and 2 alike) and function name:
# each costs microseconds on the few dozen entries of a reference's arrays,
# where the ufunc reduction or array method it forwards to costs about one
_WRAPPERS = {
    "fromnumeric": {"sum", "max", "amax", "min", "amin", "any", "all"},
    "_methods": {"_mean"},
    "_arraysetops_impl": {"isin", "in1d"},
    "arraysetops": {"isin", "in1d"},
    "numeric": {"array_equal"},
    "_twodim_base_impl": {"eye"},
    "twodim_base": {"eye"},
}


def test_a_reference_enters_no_numpy_reduction_wrapper():
    # np.linalg.solve and np.stack have no lighter form and stay
    problem = synthetic_problem(3, lam=0.01)
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            module = frame.f_globals.get("__name__", "")
            name = frame.f_code.co_name
            if module.startswith("numpy.") and name in _WRAPPERS.get(module.rsplit(".", 1)[-1], ()):
                entered.add(f"{module}.{name}")

    sys.setprofile(profile)
    try:
        ref = gc.reference_solve(*problem)
    finally:
        sys.setprofile(None)
    assert ref.reached
    assert not entered


@pytest.mark.parametrize(
    "penalty",
    [gc.Penalty.log_barrier(1.0, weight=0.01), gc.Penalty.indicator(1.0)],
    ids=["log-barrier", "indicator"],
)
def test_reference_without_polish_is_the_solver_run(penalty):
    # no derivatives, no polish: the reference is the CG run under the
    # solver's own tolerance stop, the iterate its first gap <= tol certified,
    # or the iterate after iters steps
    loss, _, aset = synthetic_problem(0)
    for iters, tol in ((5000, 1e-3), (200, 1e-10)):
        cfg = gc.SolverConfig(max_iters=iters, gap_tolerance=tol)
        run = gc.run(loss, penalty, aset, cfg)
        ref = gc.reference_solve(loss, penalty, aset, iters=iters, tol=tol)
        last = run.trace[-1]
        assert ref.iters_used == last.t - 1
        assert ref.x.tobytes() == run.state.x.tobytes()
        assert ref.reached is (last.gap <= tol)
        if ref.reached:
            assert ref.iters_used < iters
            assert all(row.gap > tol for row in run.trace[:-1])
        else:
            assert ref.iters_used == iters


def test_a_reference_on_overflowing_data_raises_no_warning():
    # the CG run aborts on the overflow, and the polish of the state it
    # leaves forms an image that overflows too: the same reference, gap NaN
    # and not reached, comes back with RuntimeWarnings made errors
    data = gc.gen_synthetic(0, n=20, d=5)
    loss = gc.QuadraticLoss(gc.DataMatrix(data.features * 1e300, data.targets))
    problem = loss, gc.Penalty.power(2.0), gc.AtomicSet.signed_basis(5)
    plain = gc.reference_solve(*problem)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        strict = gc.reference_solve(*problem)
    assert strict.to_json() == plain.to_json()
    assert not strict.reached and math.isnan(strict.gap)


def test_reference_unreached_flag():
    # indicator penalties admit no restricted polish, and this optimum sits
    # strictly inside a face, reached only in the limit of the open-loop
    # steps; three iterations cannot certify 1e-10
    loss = gc.QuadraticLoss(gc.DataMatrix(np.eye(2), np.array([1.0, 0.8])))
    penalty = gc.Penalty.indicator(1.0)
    aset = gc.AtomicSet.signed_basis(2)
    ref = gc.reference_solve(loss, penalty, aset, iters=3, tol=1e-10)
    assert not ref.reached
    assert ref.gap > 1e-10


def test_reference_json_round_trip(tmp_path):
    loss, penalty, aset = one_dim_problem()
    ref = gc.reference_solve(loss, penalty, aset, iters=500, tol=1e-10)
    path = tmp_path / "ref.json"
    save_reference(ref, str(path))
    clone = load_reference(str(path))
    np.testing.assert_array_equal(clone.x, ref.x)
    np.testing.assert_array_equal(clone.grad, ref.grad)
    assert clone.support_ids == ref.support_ids
    assert clone.delta == ref.delta
    assert clone.fingerprint == ref.fingerprint
    assert clone.reached is True


def test_reference_json_handles_infinite_delta(tmp_path):
    payload = ReferenceSolution(
        x=[0.0], grad=[0.0], objective=0.0, support_ids=[0, 1],
        delta=math.inf, gap=0.0, iters_used=10, reached=True, fingerprint="ab",
    )
    path = tmp_path / "inf.json"
    save_reference(payload, str(path))
    assert load_reference(str(path)).delta == math.inf


# ------------------------------------------------------------- residual series


def residual_inputs():
    loss, penalty, aset = one_dim_problem(c=2.0)
    ref = gc.reference_solve(loss, penalty, aset, iters=2000, tol=1e-10)
    cfg = gc.SolverConfig(max_iters=50, keep_snapshots=True, screening_enabled=True)
    result = gc.run(loss, penalty, aset, cfg)
    return loss, penalty, aset, ref, result


def test_residuals_columns_and_signs():
    loss, penalty, aset, ref, result = residual_inputs()
    series = residuals(result, ref)
    assert len(series) == len(result.trace)
    assert series.ts == [row.t for row in result.trace]
    assert all(e >= -1e-12 for e in series.objective_error)
    assert all(g >= 0.0 for g in series.gap)
    assert all(e >= 0.0 for e in series.gradient_error)
    # the run identifies the one-atom support quickly and stays there
    assert series.support_error[-1] == 0


def test_residuals_from_reference_start_are_tiny():
    loss, penalty, aset, ref, _ = residual_inputs()
    cfg = gc.SolverConfig(max_iters=3, keep_snapshots=True)
    warm = gc.run(loss, penalty, aset, cfg, x0=ref.x.copy())
    series = residuals(warm, ref)
    assert abs(series.objective_error[0]) <= 1e-9
    assert series.gradient_error[0] <= 1e-9


def test_residual_gradient_error_is_the_max_over_atoms_of_the_abs_dot():
    # a lopsided explicit set: the error is max_p |<p, g - g*>|, which no
    # one-sided support value gives
    rng = np.random.default_rng(4)
    A = rng.standard_normal((20, 5))
    b = np.where(rng.standard_normal(20) > 0, 1.0, -1.0)
    loss = gc.LogisticLoss(gc.DataMatrix(A, b))
    atoms = rng.standard_normal((7, 5))
    aset = gc.AtomicSet.explicit(atoms)
    cfg = gc.SolverConfig(max_iters=40, keep_snapshots=True, trace_every=1)
    result = gc.run(loss, gc.Penalty.power(2.0, weight=0.1), aset, cfg)
    one_sided = 0
    direction = rng.standard_normal(5)
    for grad_star in (direction, -direction):
        ref = ReferenceSolution(
            x=np.zeros(5), grad=grad_star, objective=0.0, support_ids=[],
            delta=0.0, gap=0.0, iters_used=0, reached=True, fingerprint="",
        )
        series = residuals(result, ref)
        for snap, err in zip(result.snapshots, series.gradient_error):
            dots = atoms @ (loss.gradient(snap.x) - grad_star)
            assert err == pytest.approx(float(np.max(np.abs(dots))), rel=1e-14, abs=0.0)
            one_sided += float(np.max(dots)) < err
    assert one_sided > 0, "no row needed the negations: the check shows nothing"


def test_residuals_fingerprint_mismatch():
    loss, penalty, aset, ref, result = residual_inputs()
    other_loss, other_penalty, other_aset = one_dim_problem(c=3.0)
    cfg = gc.SolverConfig(max_iters=5, keep_snapshots=True)
    other = gc.run(other_loss, other_penalty, other_aset, cfg)
    with pytest.raises(ReferenceMismatchError):
        residuals(other, ref)


def test_residuals_need_snapshots():
    loss, penalty, aset, ref, _ = residual_inputs()
    bare = gc.run(loss, penalty, aset, gc.SolverConfig(max_iters=5))
    with pytest.raises(ContractViolationError):
        residuals(bare, ref)


def test_residuals_cover_the_rows_an_abort_observed(monkeypatch):
    # the divergence guard fires after the first move: the partial result
    # has the observed row at t = 1 and the abort's diagnostic row
    loss, penalty, aset = synthetic_problem(0, lam=0.01)
    ref = gc.reference_solve(loss, penalty, aset, iters=1000)
    monkeypatch.setattr("gaugecg.solver._DIVERGENCE_LIMIT", 5.0)
    cfg = gc.SolverConfig(max_iters=100, keep_snapshots=True)
    with pytest.raises(DivergenceError) as info:
        gc.run(loss, penalty, aset, cfg)
    result = info.value.result
    assert [row.t for row in result.trace] == [1, 1] and len(result.snapshots) == 1
    series = residuals(result, ref)
    assert series.ts == [1]
    assert series.gap == [result.trace[0].gap]


def test_residuals_of_an_abort_before_any_observed_row():
    # a linear penalty this weak has no finite step at t = 1: the only row
    # is the abort's, and snapshots were kept
    loss, _, aset = synthetic_problem(0)
    cfg = gc.SolverConfig(max_iters=10, keep_snapshots=True)
    with pytest.raises(UnboundedStepError) as info:
        gc.run(loss, gc.Penalty.power(1.0, weight=0.001), aset, cfg)
    ref = ReferenceSolution(
        x=np.zeros(50), grad=np.zeros(50), objective=0.0, support_ids=[],
        delta=0.0, gap=0.0, iters_used=0, reached=True, fingerprint="",
    )
    with pytest.raises(ContractViolationError, match="run aborted at t=1 before"):
        residuals(info.value.result, ref)


def test_identified_at_threshold():
    rows = [
        TraceRecord(t=1, objective=1, gap=1, min_gap=1.0, sigma=0,
                    active_atoms=2, nonzeros=1, xi=0, elapsed_s=0),
        TraceRecord(t=2, objective=1, gap=1, min_gap=0.1, sigma=0,
                    active_atoms=2, nonzeros=1, xi=0, elapsed_s=0),
        TraceRecord(t=3, objective=1, gap=1, min_gap=0.001, sigma=0,
                    active_atoms=2, nonzeros=1, xi=0, elapsed_s=0),
    ]
    # sqrt(L*min_gap) < margin/4 with L = 1, margin = 0.4 needs min_gap < 0.01
    assert identified_at(rows, 1.0, 0.4) == 3
    assert identified_at(rows, 1.0, 4.1) == 1
    assert identified_at(rows, 1.0, 0.0) is None


def test_build_certificate_on_the_frozen_problem():
    loss, penalty, aset, ref, result = residual_inputs()
    cert = gc.build_certificate(result, ref)
    assert cert.delta == ref.delta
    assert cert.identified_at is not None
    assert cert.support_ids == ref.support_ids
    clone = gc.SupportCertificate.from_json(cert.to_json())
    assert clone == cert


def test_build_certificate_of_an_unscreened_run_claims_the_ledger_support():
    loss, penalty, aset = synthetic_problem(3, n=40, d=12)
    ref = gc.reference_solve(loss, penalty, aset, iters=1000)
    result = gc.run(loss, penalty, aset, gc.SolverConfig(max_iters=200))
    cert = gc.build_certificate(result, ref)
    support = gc.support_of(result.state.coeffs)
    assert cert.support_ids == support
    # the unscreened mask keeps every atom: claiming it would claim them all
    assert 0 < len(support) < aset.num_atoms
    assert cert.L == loss.smoothness_wrt(aset) and cert.min_gap == result.state.min_gap


def test_unscreened_residuals_count_the_ledger_support():
    # an unscreened mask keeps every atom, so its snapshots hold the ledger
    # support, as build_certificate claims it; the mask's ids would read
    # num_atoms - |S*| = 23 on every row here
    loss, penalty, aset = synthetic_problem(5, lam=0.5, n=40, d=12)
    ref = gc.reference_solve(loss, penalty, aset)
    config = gc.SolverConfig(max_iters=1000, step_schedule="4t2", keep_snapshots=True)
    result = gc.run(loss, penalty, aset, config)
    series = residuals(result, ref)
    assert [snap.active_ids for snap in result.snapshots][-1] == gc.support_of(
        result.state.coeffs
    )
    assert series.support_error[-1] == 0
    assert series.support_error[0] == 1  # x = 0 at t = 1: the empty support


@pytest.mark.parametrize(
    "call",
    [
        lambda: gc.run(*synthetic_problem(0), gc.SolverConfig(max_iters=2), x0="abc"),
        lambda: gc.SupportCertificate.from_json("{}"),
        lambda: gc.SupportCertificate.from_json("[1, 2]"),
        lambda: gc.SupportCertificate.from_json(
            '{"support_ids": [1], "delta": "x", "identified_at": null, "L": 1, "min_gap": 0}'
        ),
        lambda: rate_slope(("a", "b"), 1, 2),
        lambda: residuals(None, None),
        lambda: gc.Penalty.power(2, weight=True),
        lambda: gc.Penalty.log_barrier(np.bool_(True)),
        lambda: gc.reference_solve(*one_dim_problem(), tol=True),
        lambda: gc.reference_solve(*one_dim_problem(), iters=5.0),
        lambda: rate_slope(([1.0, 2, 3, 4, 5, 6], [1.0, 2, 3, 4, 5, 6]), True, 10),
        lambda: gc.AtomicSet.signed_basis(3).atom_vector(1.5),
        lambda: gc.AtomicSet.signed_basis(3).atom_vector(True),
        lambda: gc.AtomicSet.signed_basis(3).image(np.ones((2, 3)), 1.5),
        lambda: gc.AtomicSet.signed_basis(3).image(np.ones((2, 3)), 6),
        lambda: gc.AtomicSet.hypercube(3).image(np.ones((2, 3)), np.bool_(True)),
        lambda: gc.Penalty.power(2).value(True),
        lambda: gc.Penalty.power(2).xi_step(True),
        lambda: gc.Penalty.power(2).conjugate(True),
        lambda: gc.Penalty.power(2).value("a"),
        lambda: gc.AtomicSet.signed_basis(3).lmo("abc"),
        lambda: gc.AtomicSet.signed_basis(3).gauge_value("abc"),
        lambda: gc.LogisticLoss(gc.gen_synthetic(0, n=4, d=3)).value("abc"),
        lambda: gc.run(*synthetic_problem(0), None),
        lambda: gc.run(None, *synthetic_problem(0)[1:], gc.SolverConfig(max_iters=2)),
        lambda: gc.reference_solve(None, *one_dim_problem()[1:]),
        lambda: gc.problem_fingerprint(None, None, None),
        lambda: gc.run_experiment(None),
        lambda: gc.theta_schedule("2t1", -1),
        lambda: gc.theta_schedule("2t1", "a"),
        lambda: gc.theta_schedule("2t1", 0),
        lambda: gc.support_of([1, 2]),
        lambda: gc.support_of({1: "a"}),
        lambda: gc.QuadraticLoss("a"),
        lambda: gc.LogisticLoss(None),
        lambda: gc.SolverState(None),
        lambda: gc.AtomicSet.signed_basis(3).dots(np.ones(3), mask=3),
        lambda: gc.AtomicSet.signed_basis(3).lmo(np.ones(3), mask="x"),
        lambda: gc.AtomicSet.signed_basis(3).support_value(np.ones(3), mask=3),
        lambda: gc.AtomicSet.hypercube(3).lmo(np.ones(3), mask="x"),
        lambda: gc.AtomicSet.signed_basis(3).dots(
            np.ones(3), mask=gc.AtomicSet.signed_basis(4).full_mask()
        ),
        lambda: gc.LogisticLoss(gc.gen_synthetic(0, n=4, d=3)).smoothness_wrt(None),
    ],
    ids=[
        "x0-word", "certificate-empty", "certificate-list", "certificate-word",
        "rate-slope-words",
        "residuals-none", "power-weight-bool", "log-barrier-cap-bool",
        "reference-tol-bool", "reference-iters-float", "rate-slope-t-bool",
        "atom-vector-float", "atom-vector-bool", "image-float", "image-out-of-range",
        "hypercube-image-bool", "penalty-value-bool", "xi-step-bool", "conjugate-bool",
        "penalty-value-word", "lmo-word", "gauge-value-word", "loss-value-word",
        "run-config-none", "run-loss-none", "reference-loss-none", "fingerprint-none",
        "experiment-none", "theta-negative-t", "theta-word-t", "theta-zero-t",
        "support-of-list", "support-of-word-weight", "quadratic-loss-word",
        "logistic-loss-none", "state-none", "dots-mask-int", "lmo-mask-word",
        "support-value-mask-int", "hypercube-lmo-mask-word", "dots-mask-of-another-set",
        "smoothness-none",
    ],
)
def test_public_calls_refuse_bad_arguments_with_the_contract_error(call):
    with pytest.raises(ContractViolationError):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: ExperimentConfig("synthetic", seed="a"),
        lambda: ExperimentConfig("synthetic", n=None),
        lambda: ExperimentConfig("synthetic", weights=("a",)),
        lambda: ExperimentConfig("synthetic", capacity=None),
        lambda: ExperimentConfig("synthetic", digits=5),
        lambda: ExperimentConfig("synthetic", solver="x"),
        lambda: gc.SolverConfig(max_iters=True),
        lambda: gc.SolverConfig(max_iters=5.0),
        lambda: gc.SolverConfig(trace_every=2.0),
        lambda: gc.SolverConfig(gap_tolerance=True),
        lambda: gc.AtomicSet.signed_basis(True),
        lambda: gc.gen_synthetic(True, n=3, d=2),
        lambda: gc.AtomicSet.signed_basis(3).full_mask().deactivate([1.5]),
        lambda: gc.AtomicSet.signed_basis(3).full_mask().deactivate([True]),
        lambda: gc.AtomicSet.signed_basis(3).full_mask().deactivate(["a"]),
        lambda: gc.build_certificate(None, None),
        lambda: gc.AtomMask(True),
        lambda: gc.SupportCertificate([True], 0.0, None, 1.0, 0.0),
        lambda: gc.SupportCertificate([1], 0.0, 2.5, 1.0, 0.0),
    ],
    ids=[
        "config-seed-word", "config-n-none", "config-weight-word", "config-capacity-none",
        "config-digits-int", "config-solver-word", "max-iters-bool", "max-iters-float",
        "trace-every-float", "gap-tolerance-bool", "dimension-bool",
        "seed-bool", "deactivate-float", "deactivate-bool", "deactivate-word",
        "certificate-none", "mask-bool", "certificate-id-bool", "certificate-t-float",
    ],
)
def test_constructors_refuse_words_none_and_bools_with_the_contract_error(call):
    # a bool is refused wherever a number is expected: int reads it as 0 or 1
    with pytest.raises(ContractViolationError):
        call()


def _record_fields(record):
    if record is ReferenceSolution:
        value = ReferenceSolution(
            x=[1.0, 0.0], grad=[0.5, -0.5], objective=1.0, support_ids=[0], delta=0.1,
            gap=0.0, iters_used=3, reached=True, fingerprint="f",
        )
    else:
        value = gc.SupportCertificate(
            support_ids=[0], delta=0.1, identified_at=None, L=1.0, min_gap=0.0
        )
    fields = json.loads(value.to_json())
    assert record.from_json(value.to_json()).to_json() == value.to_json()
    return fields


@pytest.mark.parametrize("record, number", [(ReferenceSolution, "x"), (gc.SupportCertificate, "L")])
@pytest.mark.parametrize("fault", ["empty", "non-object", "extra-key", "non-numeric"])
def test_records_read_back_only_an_object_with_their_fields(record, number, fault):
    fields = _record_fields(record)
    if fault == "empty":
        text = "{}"
    elif fault == "non-object":
        text = json.dumps([fields])
    elif fault == "extra-key":
        text = json.dumps(dict(fields, extra=1))
    else:
        text = json.dumps(dict(fields, **{number: "a"}))
    with pytest.raises(ContractViolationError):
        record.from_json(text)


def test_a_reference_file_that_is_not_json_says_where(tmp_path):
    path = tmp_path / "reference.json"
    path.write_text('{"x": [1,, 2]}')
    with pytest.raises(FileFormatError) as info:
        load_reference(str(path))
    assert info.value.offset == 9


# ------------------------------------------------------------------- rate fits


def test_rate_slope_exact_powers():
    ts = np.arange(1, 2001)
    assert rate_slope((ts, 3.0 / ts), 100, 2000) == pytest.approx(-1.0, abs=1e-6)
    assert rate_slope((ts, 2.0 / np.sqrt(ts)), 100, 2000) == pytest.approx(-0.5, abs=1e-6)


def test_rate_slope_stops_at_the_rounding_floor():
    # an error series against a reference that hits the reference's own
    # accuracy part-way through the window: 0 and +-1 ulp from there on
    ts = np.arange(10, 2001, 10, dtype=float)
    values = 1.0 / ts
    ulp = float(np.spacing(1.0))
    values[ts >= 300] = np.resize([0.0, ulp, -ulp, 0.0, ulp], int(np.sum(ts >= 300)))
    assert rate_slope((ts, values), 100, 2000) == pytest.approx(-1.0, abs=1e-12)
    # fewer than 5 positive values before the first nonpositive one
    with pytest.raises(ContractViolationError):
        rate_slope((ts, values), 260, 2000)


def test_rate_slope_validation():
    ts = np.arange(1, 11)
    with pytest.raises(ContractViolationError):
        rate_slope((ts, 1.0 / ts), 7, 10)  # 4 points only
    with pytest.raises(ContractViolationError):
        rate_slope((ts, 1.0 / ts), 10, 7)
    with pytest.raises(ContractViolationError):
        rate_slope((ts, np.zeros(10)), 1, 10)
    with pytest.raises(ContractViolationError):
        rate_slope((ts, 1.0 / ts[:5]), 1, 10)
    with pytest.raises(ContractViolationError, match="finite on the window"):
        rate_slope((ts, np.where(ts == 8, np.inf, 1.0 / ts)), 1, 10)


# -------------------------------------------------------------- CSV round-trip


def test_trace_csv_round_trip(tmp_path):
    loss, penalty, aset = one_dim_problem()
    result = gc.run(loss, penalty, aset, gc.SolverConfig(max_iters=7))
    path = tmp_path / "trace.csv"
    write_trace_csv(result.trace, str(path))
    rows = read_trace_csv(str(path))
    assert len(rows) == len(result.trace)
    for a, b in zip(result.trace, rows):
        for col in TRACE_COLUMNS:
            assert getattr(a, col) == getattr(b, col), col
    header = path.read_text().splitlines()[0]
    assert header == ",".join(TRACE_COLUMNS)


def test_trace_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("t,objective\n1,2.0\n")
    with pytest.raises(FileFormatError):
        read_trace_csv(str(path))


def test_trace_csv_rejects_ragged_row(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text(",".join(TRACE_COLUMNS) + "\n1,2.0\n")
    with pytest.raises(FileFormatError):
        read_trace_csv(str(path))


def test_trace_csv_rejects_non_numeric_cell(tmp_path):
    path = tmp_path / "trace.csv"
    cells = ["1"] * len(TRACE_COLUMNS)
    cells[1] = "abc"
    path.write_text(",".join(TRACE_COLUMNS) + "\n" + ",".join(cells) + "\n")
    with pytest.raises(FileFormatError, match="non-numeric"):
        read_trace_csv(str(path))


def test_trace_csv_rejects_a_fractional_count(tmp_path):
    path = tmp_path / "trace.csv"
    cells = ["1"] * len(TRACE_COLUMNS)
    cells[TRACE_COLUMNS.index("active_atoms")] = "1.5"
    path.write_text(",".join(TRACE_COLUMNS) + "\n" + ",".join(cells) + "\n")
    with pytest.raises(FileFormatError):
        read_trace_csv(str(path))


def test_screen_csv_cells(tmp_path):
    data = gc.gen_synthetic(0, n=60, d=20)
    loss = gc.LogisticLoss(data)
    cfg = gc.SolverConfig(max_iters=400, screening_enabled=True)
    result = gc.run(loss, gc.Penalty.power(2.0, weight=1.0),
                    gc.AtomicSet.signed_basis(20), cfg)
    assert result.screen_events
    path = tmp_path / "screen.csv"
    write_screen_csv(result.screen_events, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(SCREEN_COLUMNS)
    first = lines[1].split(",")
    event = result.screen_events[0]
    assert int(first[0]) == event.t
    assert [int(v) for v in first[1].split(";")] == list(event.removed_ids)
    assert int(first[4]) == event.remaining


def test_residuals_csv_round_trip(tmp_path):
    loss, penalty, aset = one_dim_problem()
    ref = gc.reference_solve(loss, penalty, aset, iters=500, tol=1e-10)
    result = gc.run(loss, penalty, aset,
                    gc.SolverConfig(max_iters=9, keep_snapshots=True))
    series = residuals(result, ref)
    path = tmp_path / "res.csv"
    write_residuals_csv(series, str(path))
    table = read_csv_columns(str(path))
    assert set(table) == set(RESIDUAL_COLUMNS)
    np.testing.assert_array_equal(table["t"], series.ts)
    np.testing.assert_array_equal(table["gap"], series.gap)


def test_read_csv_columns_rejects_text(tmp_path):
    path = tmp_path / "x.csv"
    # a non-numeric cell or a ragged row is a format error at its line
    for text, complaint, line in (
        ("a,b\n1.0,oops\n", "non-numeric cell", 2),
        ("a,b\n1,2\n3,4\n5\n", "malformed row", 4),
        ("a,b\n1,2\n3,4,5\n", "malformed row", 3),
    ):
        path.write_text(text)
        with pytest.raises(FileFormatError, match=f"x.csv:{line}: {complaint}") as info:
            read_csv_columns(str(path))
        assert info.value.offset == line
    # a byte outside ASCII is a format error at its line, in the trace
    # reader too
    path.write_bytes(",".join(TRACE_COLUMNS).encode() + b"\n" + b"1," * 8 + b"\xff\n")
    for reader in (read_csv_columns, read_trace_csv):
        with pytest.raises(FileFormatError, match="x.csv:2: byte outside ASCII") as info:
            reader(str(path))
        assert info.value.offset == 2


@pytest.mark.parametrize("value", [True, np.bool_(False)], ids=["bool", "numpy-bool"])
def test_csv_cells_refuse_booleans(value):
    with pytest.raises(ContractViolationError, match="booleans"):
        experiments._cell(value)


def test_float_cells_are_bit_exact(tmp_path):
    values = [1.0 / 3.0, 2.0 ** -40, math.pi]
    rows = [
        TraceRecord(t=1, objective=values[0], gap=values[1], min_gap=values[1],
                    sigma=values[2], active_atoms=2, nonzeros=1, xi=0.1,
                    elapsed_s=0.0)
    ]
    path = tmp_path / "t.csv"
    write_trace_csv(rows, str(path))
    back = read_trace_csv(str(path))[0]
    assert back.objective == values[0]
    assert back.gap == values[1]
    assert back.sigma == values[2]


# Hand-built records with every kind of cell the artifacts hold, and the
# exact bytes each writer must give for them.
_THIRD, _TINY, _INF, _NAN = 1.0 / 3.0, 2.0 ** -40, math.inf, math.nan
_GOLDEN_TRACE = (
    "t,objective,gap,min_gap,sigma,active_atoms,nonzeros,xi,elapsed_s\n"
    "1,0.3333333333333333,9.094947017729282e-13,-0.0,inf,7,0,nan,0.5\n"
    "20,-inf,0.0,0.0,1.0,3,2,0.3333333333333333,1.25\n"
)
_GOLDEN_SCREEN = (
    "t,removed_ids,threshold,sigma,remaining\n"
    "4,1;5,0.3333333333333333,inf,10\n"
    "9,,9.094947017729282e-13,-0.0,10\n"
)
_GOLDEN_RESIDUALS = (
    "t,objective_error,gap,gradient_error,support_error\n"
    "1,0.3333333333333333,9.094947017729282e-13,nan,3\n"
    "2,-0.0,inf,0.0,0\n"
)
_GOLDEN_CERTIFICATE = (
    '{"L": 0.3333333333333333, "delta": "inf", "identified_at": null, '
    '"min_gap": -0.0, "support_ids": [2, 5]}'
)
_GOLDEN_REFERENCE = (
    '{"delta": "inf", "fingerprint": "ab", "gap": 9.094947017729282e-13, '
    '"grad": [-0.0, "inf"], "iters_used": 200, "objective": "nan", '
    '"reached": true, "support_ids": [0, 1], "x": [0.3333333333333333, 0.0]}\n'
)


def test_artifacts_match_their_golden_bytes(tmp_path):
    trace = [
        TraceRecord(1, _THIRD, _TINY, -0.0, _INF, 7, 0, _NAN, 0.5),
        TraceRecord(20, -_INF, 0.0, 0.0, 1.0, 3, 2, _THIRD, 1.25),
    ]
    events = [ScreenReport(4, [1, 5], _THIRD, _INF, 10), ScreenReport(9, [], _TINY, -0.0, 10)]
    series = ResidualSeries([1, 2], [_THIRD, -0.0], [_TINY, _INF], [_NAN, 0.0], [3, 0])
    cert = gc.SupportCertificate([5, 2], _INF, None, _THIRD, -0.0)
    ref = ReferenceSolution(
        x=[_THIRD, 0.0], grad=[-0.0, _INF], objective=_NAN, support_ids=[1, 0],
        delta=_INF, gap=_TINY, iters_used=200, reached=True, fingerprint="ab",
    )
    write_trace_csv(trace, str(tmp_path / "trace.csv"))
    write_screen_csv(events, str(tmp_path / "screen.csv"))
    write_screen_csv([], str(tmp_path / "empty.screen.csv"))
    write_residuals_csv(series, str(tmp_path / "residuals.csv"))
    save_reference(ref, str(tmp_path / "reference.json"))
    assert (tmp_path / "trace.csv").read_bytes() == _GOLDEN_TRACE.encode()
    assert (tmp_path / "screen.csv").read_bytes() == _GOLDEN_SCREEN.encode()
    assert (tmp_path / "empty.screen.csv").read_bytes() == b"t,removed_ids,threshold,sigma,remaining\n"
    assert (tmp_path / "residuals.csv").read_bytes() == _GOLDEN_RESIDUALS.encode()
    assert cert.to_json() == _GOLDEN_CERTIFICATE
    assert (tmp_path / "reference.json").read_bytes() == _GOLDEN_REFERENCE.encode()
    # and each reads back to the same values
    back = read_trace_csv(str(tmp_path / "trace.csv"))
    assert repr(back) == repr(trace)
    assert gc.SupportCertificate.from_json(_GOLDEN_CERTIFICATE) == cert
    clone = load_reference(str(tmp_path / "reference.json"))
    assert clone.to_json() + "\n" == _GOLDEN_REFERENCE


def test_a_reference_with_json_infinity_literals_still_loads(tmp_path):
    # files written before non-finite floats were spelled "inf"/"nan"
    path = tmp_path / "old.json"
    path.write_text(
        _GOLDEN_REFERENCE.replace('"inf"', "Infinity").replace('"nan"', "NaN")
    )
    ref = load_reference(str(path))
    assert ref.delta == math.inf and math.isnan(ref.objective)
    assert ref.grad[1] == math.inf
    assert ref.to_json() + "\n" == _GOLDEN_REFERENCE


# --------------------------------------------------------------- orchestration


def test_experiment_config_grid_and_stem():
    cfg = ExperimentConfig("synthetic", alphas=(2.0, 3.0), weights=(0.01, 1.0))
    assert cfg.grid() == [(2.0, 0.01), (2.0, 1.0), (3.0, 0.01), (3.0, 1.0)]
    stem = cfg.stem(2.0, 1.0)
    assert stem.startswith("synthetic-") and len(stem) == len("synthetic-") + 12
    assert stem != cfg.stem(2.0, 0.01)
    assert stem == ExperimentConfig(
        "synthetic", alphas=(2.0, 3.0), weights=(0.01, 1.0)
    ).stem(2.0, 1.0)
    # stems are file names: a change to the configuration's canonical form
    # would orphan every artifact written before it
    assert ExperimentConfig("synthetic").stem(2.0, 1.0) == "synthetic-5943dae67314"
    solver = gc.SolverConfig(max_iters=500, screening_enabled=True, trace_every=10)
    assert ExperimentConfig(
        "synthetic", seed=3, weights=(0.01, 1.0), solver=solver
    ).stem(2.0, 0.01) == "synthetic-af67281775a7"


# One changed value per configuration field; the stem must see each of them.
_SOLVER_CHANGES = {
    "max_iters": 7,
    "gap_tolerance": 1e-3,
    "step_schedule": "4t2",
    "screening_enabled": True,
    "trace_every": 10,
    "keep_snapshots": True,
}
_EXPERIMENT_CHANGES = {
    "experiment": "synthetic",
    "seed": 1,
    "n": 40,
    "d": 10,
    "penalty_kind": "log-barrier",
    "alphas": (2.0, 3.0),
    "weights": (0.5,),
    "capacity": 2.0,
    "growth": 2.0,
    "scale": 2.0,
    "images_path": "other-images.idx",
    "labels_path": "other-labels.idx",
    "digits": (3, 8),
}


def _stem_config(**changes):
    kwargs = dict(
        experiment="mnist", images_path="images.idx", labels_path="labels.idx",
        weights=(1.0,), out_dir="runs",
    )
    kwargs.update(changes)
    return ExperimentConfig(**kwargs)


def test_stem_changes_cover_every_field():
    assert set(_SOLVER_CHANGES) == set(vars(gc.SolverConfig()))
    assert set(_EXPERIMENT_CHANGES) == set(vars(_stem_config())) - {"out_dir", "solver"}
    # the output directory is where the files go, not part of their name
    assert _stem_config(out_dir="a").stem(2.0, 1.0) == _stem_config().stem(2.0, 1.0)


@pytest.mark.parametrize("field", sorted(_EXPERIMENT_CHANGES))
def test_every_experiment_field_changes_the_stem(field):
    base = _stem_config().stem(2.0, 1.0)
    assert _stem_config().stem(2.0, 1.0) == base
    assert _stem_config(**{field: _EXPERIMENT_CHANGES[field]}).stem(2.0, 1.0) != base


@pytest.mark.parametrize("field", sorted(_SOLVER_CHANGES))
def test_every_solver_field_changes_the_stem(field):
    base = _stem_config(solver=gc.SolverConfig()).stem(2.0, 1.0)
    assert _stem_config(solver=gc.SolverConfig()).stem(2.0, 1.0) == base
    changed = gc.SolverConfig(**{field: _SOLVER_CHANGES[field]})
    assert _stem_config(solver=changed).stem(2.0, 1.0) != base


def test_experiment_config_validation(tmp_path):
    with pytest.raises(ContractViolationError):
        ExperimentConfig("other")
    with pytest.raises(ContractViolationError):
        ExperimentConfig("mnist")
    with pytest.raises(ContractViolationError):
        ExperimentConfig("synthetic", alphas=())


def test_unknown_penalty_kind_is_refused_before_any_directory(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(ContractViolationError, match="unknown penalty kind 'bogus'"):
        gc.run_experiment(ExperimentConfig("synthetic", penalty_kind="bogus", out_dir=str(out)))
    assert not out.exists()


def test_barrier_grid_ignores_alpha_axis():
    cfg = ExperimentConfig(
        "synthetic", penalty_kind="log-barrier",
        alphas=(2.0, 3.0), weights=(0.5,), capacity=2.0,
    )
    assert cfg.grid() == [(2.0, 0.5)]
    penalty = cfg.build_penalty(2.0, 0.5)
    assert penalty.kind == "log-barrier" and penalty.cap == 2.0


def test_indicator_grid_ignores_alpha_and_weight_axes():
    # the indicator reads neither, so a weight list is one run, not one
    # identical trace per weight under different stems
    cfg = ExperimentConfig(
        "synthetic", penalty_kind="indicator", alphas=(2.0, 3.0), weights=(0.1, 1.0),
    )
    assert cfg.grid() == [(2.0, 0.1)]
    barrier = ExperimentConfig("synthetic", penalty_kind="log-barrier", weights=(0.1, 1.0))
    assert barrier.grid() == [(2.0, 0.1), (2.0, 1.0)]


@pytest.mark.parametrize(
    "kind, stems",
    [
        ("power", ("synthetic-5943dae67314", "synthetic-611f0fa727c8")),
        ("log-barrier", ("synthetic-f7dda233b63d", "synthetic-deb447c0fa42")),
        ("indicator", ("synthetic-772a5030f971", "synthetic-35714e7eb4e2")),
    ],
)
def test_single_point_stems_are_pinned(kind, stems):
    # a grid of one point keeps its file name whatever the axes a kind reads
    configs = (
        ExperimentConfig("synthetic", penalty_kind=kind),
        ExperimentConfig(
            "synthetic", penalty_kind=kind, alphas=(3.0,), weights=(0.1,), capacity=5.0
        ),
    )
    assert tuple(cfg.stem(*point) for cfg in configs for point in cfg.grid()) == stems


def test_run_experiment_single_point(tmp_path):
    cfg = ExperimentConfig(
        "synthetic", seed=1, n=40, d=10,
        solver=gc.SolverConfig(max_iters=60, screening_enabled=True),
        out_dir=str(tmp_path),
    )
    (summary,) = gc.run_experiment(cfg)
    assert summary["status"] == "ok"
    assert summary["failed_at"] is None
    assert summary["iterations"] == 60
    trace = read_trace_csv(summary["trace_path"])
    assert trace[0].t == 1 and trace[-1].t == 61
    screen = open(summary["screen_path"]).readline().strip()
    assert screen == ",".join(SCREEN_COLUMNS)


def test_run_experiment_sweep_and_unbounded_point(tmp_path):
    cfg = ExperimentConfig(
        "synthetic", seed=1, n=40, d=10,
        alphas=(1.0, 2.0), weights=(1e-3,),
        solver=gc.SolverConfig(max_iters=40),
        out_dir=str(tmp_path),
    )
    summaries = gc.run_experiment(cfg)
    by_alpha = {s["alpha"]: s for s in summaries}
    assert by_alpha[1.0]["status"] == "unbounded-step"
    assert by_alpha[1.0]["failed_at"] == 1
    assert by_alpha[2.0]["status"] == "ok"
    # the blown point still writes its partial trace
    rows = read_trace_csv(by_alpha[1.0]["trace_path"])
    assert rows[-1].xi == math.inf and rows[-1].gap == math.inf


def test_run_experiment_divergence_status(tmp_path, monkeypatch):
    monkeypatch.setattr("gaugecg.solver._DIVERGENCE_LIMIT", 1e-6)
    cfg = ExperimentConfig(
        "synthetic", seed=1, n=40, d=10,
        solver=gc.SolverConfig(max_iters=40),
        out_dir=str(tmp_path),
    )
    (summary,) = gc.run_experiment(cfg)
    assert summary["status"] == "divergence"
    assert summary["failed_at"] == 1


def test_run_experiment_mnist(tmp_path, mnist_fixture):
    img, lbl, labels = mnist_fixture
    cfg = ExperimentConfig(
        "mnist", images_path=img, labels_path=lbl,
        solver=gc.SolverConfig(max_iters=30),
        out_dir=str(tmp_path),
    )
    (summary,) = gc.run_experiment(cfg)
    assert summary["status"] == "ok"
    assert summary["stem"].startswith("mnist-")


def test_run_experiment_deterministic_modulo_elapsed(tmp_path):
    def run_once(sub):
        out = tmp_path / sub
        cfg = ExperimentConfig(
            "synthetic", seed=9, n=30, d=8,
            solver=gc.SolverConfig(max_iters=50, screening_enabled=True),
            out_dir=str(out),
        )
        (summary,) = gc.run_experiment(cfg)
        return summary

    a = run_once("a")
    b = run_once("b")

    def strip_elapsed(path):
        lines = open(path).read().splitlines()
        return [line.rsplit(",", 1)[0] for line in lines]

    assert strip_elapsed(a["trace_path"]) == strip_elapsed(b["trace_path"])
    assert open(a["screen_path"]).read() == open(b["screen_path"]).read()
    np.testing.assert_array_equal(a["result"].state.x, b["result"].state.x)
    assert a["result"].state.min_gap == b["result"].state.min_gap
