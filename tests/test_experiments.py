"""Data generation, IDX loading, the reference oracle, residual series,
rate fits, CSV round-trips, and experiment orchestration."""

import gzip
import json
import math
import struct

import numpy as np
import pytest

import gaugecg as gc
from gaugecg import experiments
from gaugecg.errors import (
    ContractViolationError,
    FileFormatError,
    ReferenceMismatchError,
)
from gaugecg.experiments import (
    RESIDUAL_COLUMNS,
    SCREEN_COLUMNS,
    TRACE_COLUMNS,
    ExperimentConfig,
    ReferenceSolution,
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
from gaugecg.solver import TraceRecord

from conftest import one_dim_problem, synthetic_problem, write_idx_pair


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
    x, grad, support, margin = ref
    assert x is ref.x and support == {0}


def test_reference_is_deterministic():
    loss, penalty, aset = synthetic_problem(5, lam=1.0, n=40, d=12)
    a = gc.reference_solve(loss, penalty, aset, iters=30_000, tol=1e-10)
    b = gc.reference_solve(loss, penalty, aset, iters=30_000, tol=1e-10)
    np.testing.assert_array_equal(a.x, b.x)
    assert a.to_json() == b.to_json()


def test_reference_certifies_past_a_stalled_newton_polish():
    # on this instance the polish of the 20k-step iterate stalls (see the
    # next test); the polish of the warm start certifies at the first
    # checkpoint
    loss, penalty, aset = synthetic_problem(3, lam=0.01)
    ref = gc.reference_solve(loss, penalty, aset, iters=10**6, tol=1e-10)
    assert ref.reached and ref.gap <= 1e-10
    assert ref.iters_used == 200


def test_polish_retries_a_stalled_newton_loop_with_flat_steps(monkeypatch):
    # polished from the 20k-step iterate, the value-monotone Newton loop
    # stalls at a projected gradient near 3e-10, where the value is flat to
    # its last bit; the retry that takes flat steps certifies
    loss, penalty, aset = synthetic_problem(3, lam=0.01)
    config = gc.SolverConfig(max_iters=20_000, trace_every=20_000)
    state = gc.SolverState(aset)
    for _ in range(20_000):
        gc.step(state, loss, penalty, aset, config)
    passes = []
    inner = experiments._restricted_minimize

    def spy(loss, penalty, mat, c0, flat_steps=False):
        passes.append(flat_steps)
        return inner(loss, penalty, mat, c0, flat_steps)

    monkeypatch.setattr(experiments, "_restricted_minimize", spy)
    candidate = experiments._polish(loss, penalty, aset, state, 1e-10)
    assert candidate["gap"] <= 1e-10
    assert passes[0] is False and True in passes


def test_reference_certifies_after_the_warm_start():
    # the active-set fast path: the polish of the 200-step warm start
    # certifies; a fall back to the long phases fails here
    for seed in range(5):
        for lam in (0.01, 1.0):
            loss, penalty, aset = synthetic_problem(seed, lam=lam)
            ref = gc.reference_solve(loss, penalty, aset, iters=10**6, tol=1e-10)
            assert ref.reached and ref.gap <= 1e-10, (seed, lam)
            assert ref.iters_used == 200, (seed, lam)


def test_reference_validation():
    loss, penalty, aset = one_dim_problem()
    with pytest.raises(ContractViolationError):
        gc.reference_solve(loss, penalty, aset, iters=0)
    with pytest.raises(ContractViolationError):
        gc.reference_solve(loss, penalty, aset, tol=-1.0)
    linear = gc.Penalty.power(1.0, weight=10.0)
    with pytest.raises(ContractViolationError):
        gc.reference_solve(loss, linear, aset)


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
    path.write_text("a,b\n1.0,oops\n")
    with pytest.raises(FileFormatError):
        read_csv_columns(str(path))


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


def test_experiment_config_validation(tmp_path):
    with pytest.raises(ContractViolationError):
        ExperimentConfig("other")
    with pytest.raises(ContractViolationError):
        ExperimentConfig("mnist")
    with pytest.raises(ContractViolationError):
        ExperimentConfig("synthetic", alphas=())


def test_barrier_grid_ignores_alpha_axis():
    cfg = ExperimentConfig(
        "synthetic", penalty_kind="log-barrier",
        alphas=(2.0, 3.0), weights=(0.5,), capacity=2.0,
    )
    assert cfg.grid() == [(2.0, 0.5)]
    penalty = cfg.build_penalty(2.0, 0.5)
    assert penalty.kind == "log-barrier" and penalty.cap == 2.0


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


def test_run_experiment_divergence_status(tmp_path):
    cfg = ExperimentConfig(
        "synthetic", seed=1, n=40, d=10,
        solver=gc.SolverConfig(max_iters=40, divergence_limit=1e-6),
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
