"""Experiment harness: data generation, MNIST loading, the active-set
reference oracle, residual series against a reference, rate diagnostics,
and deterministic CSV emission.

Both built-in experiments fit sparse logistic regression over the signed
basis; the penalty family, weight grid, and solver knobs come from an
ExperimentConfig. One CSV trace is written per grid point, named by a
hash of the full configuration so reruns overwrite their own output.
"""

import gzip
import hashlib
import json
import math
import os
import struct
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.optimize import minimize

from . import atoms as _atoms
from . import penalties as _penalties
from . import screening as _screening
from .errors import (
    ContractViolationError,
    DivergenceError,
    FileFormatError,
    ReferenceMismatchError,
    UnboundedConjugateError,
    UnboundedStepError,
)
from .losses import DataMatrix, LogisticLoss
from .solver import (
    SolverConfig,
    SolverState,
    TraceRecord,
    problem_fingerprint,
    run,
    step,
)

TRACE_COLUMNS = (
    "t", "objective", "gap", "min_gap", "sigma",
    "active_atoms", "nonzeros", "xi", "elapsed_s",
)
SCREEN_COLUMNS = ("t", "removed_ids", "threshold", "sigma", "remaining")
RESIDUAL_COLUMNS = ("t", "objective_error", "gap", "gradient_error", "support_error")

_INT_TRACE_COLUMNS = {"t", "active_atoms", "nonzeros"}


def gen_synthetic(seed, n=100, d=50):
    """Standard normal feature rows with all-ones labels.

    All randomness flows through numpy's default generator (PCG64) keyed
    by the seed, so the matrix is reproducible across platforms.
    """
    if n < 1 or d < 1:
        raise ContractViolationError("n and d must be >= 1")
    rng = np.random.default_rng(seed)
    return DataMatrix(rng.standard_normal((n, d)), np.ones(n))


# IDX binary format: big-endian magic, dimension fields, then raw bytes.
_IDX_IMAGES_MAGIC = 0x00000803
_IDX_LABELS_MAGIC = 0x00000801


def _read_maybe_gzip(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:2] == b"\x1f\x8b":
        return gzip.decompress(raw)
    return raw


def _parse_idx_images(data, path):
    if len(data) < 16:
        raise FileFormatError(
            f"{path}: images header truncated at byte offset {len(data)}",
            offset=len(data),
        )
    magic, count, rows, cols = struct.unpack_from(">IIII", data, 0)
    if magic != _IDX_IMAGES_MAGIC:
        raise FileFormatError(
            f"{path}: bad images magic 0x{magic:08x} at byte offset 0 "
            f"(expected 0x{_IDX_IMAGES_MAGIC:08x})",
            offset=0,
        )
    expected = 16 + count * rows * cols
    if len(data) != expected:
        raise FileFormatError(
            f"{path}: images payload ends at byte offset {len(data)}, expected {expected}",
            offset=min(len(data), expected),
        )
    pixels = np.frombuffer(data, dtype=np.uint8, offset=16)
    return pixels.reshape(count, rows * cols)


def _parse_idx_labels(data, path):
    if len(data) < 8:
        raise FileFormatError(
            f"{path}: labels header truncated at byte offset {len(data)}",
            offset=len(data),
        )
    magic, count = struct.unpack_from(">II", data, 0)
    if magic != _IDX_LABELS_MAGIC:
        raise FileFormatError(
            f"{path}: bad labels magic 0x{magic:08x} at byte offset 0 "
            f"(expected 0x{_IDX_LABELS_MAGIC:08x})",
            offset=0,
        )
    expected = 8 + count
    if len(data) != expected:
        raise FileFormatError(
            f"{path}: labels payload ends at byte offset {len(data)}, expected {expected}",
            offset=min(len(data), expected),
        )
    return np.frombuffer(data, dtype=np.uint8, offset=8)


def load_mnist_pair(images_path, labels_path, digits=(4, 9)):
    """Read one IDX image/label file pair and keep two digit classes.

    Pixels are scaled to [0, 1]; the first digit maps to label -1, the
    second to +1. Plain and gzip-compressed files are both accepted.
    """
    if len(digits) != 2 or digits[0] == digits[1] or not all(
        0 <= int(v) <= 9 for v in digits
    ):
        raise ContractViolationError("digits must be two distinct values in 0..9")
    images = _parse_idx_images(_read_maybe_gzip(images_path), images_path)
    labels = _parse_idx_labels(_read_maybe_gzip(labels_path), labels_path)
    if images.shape[0] != labels.shape[0]:
        raise FileFormatError(
            f"{images_path} holds {images.shape[0]} images but {labels_path} "
            f"holds {labels.shape[0]} labels (count fields at byte offset 4)",
            offset=4,
        )
    keep = (labels == digits[0]) | (labels == digits[1])
    if not np.any(keep):
        raise ContractViolationError(f"no rows labeled {digits[0]} or {digits[1]}")
    features = images[keep].astype(float) / 255.0
    targets = np.where(labels[keep] == digits[0], -1.0, 1.0)
    return DataMatrix(features, targets)


class ReferenceSolution:
    """High-accuracy solution used as ground truth by the safety tests.

    Iterating unpacks to (x, grad, support_ids, delta).
    """

    def __init__(self, x, grad, objective, support_ids, delta, gap,
                 iters_used, reached, fingerprint):
        self.x = np.asarray(x, dtype=float)
        self.grad = np.asarray(grad, dtype=float)
        self.objective = float(objective)
        self.support_ids = frozenset(int(i) for i in support_ids)
        self.delta = float(delta)
        self.gap = float(gap)
        self.iters_used = int(iters_used)
        self.reached = bool(reached)
        self.fingerprint = fingerprint

    def __iter__(self):
        return iter((self.x, self.grad, self.support_ids, self.delta))

    def to_json(self):
        payload = {
            "x": [float(v) for v in self.x],
            "grad": [float(v) for v in self.grad],
            "objective": self.objective,
            "support_ids": sorted(self.support_ids),
            "delta": self.delta,
            "gap": self.gap,
            "iters_used": self.iters_used,
            "reached": self.reached,
            "fingerprint": self.fingerprint,
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        raw = json.loads(text)
        return cls(**raw)


def save_reference(reference, path):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(reference.to_json())
        fh.write("\n")


def load_reference(path):
    with open(path, "r", encoding="ascii") as fh:
        return ReferenceSolution.from_json(fh.read())


# Checkpoints at which the CG run pauses for the restricted polish. The
# first is the warm start: 200 steps are enough for the polish to find the
# support by adding atoms and certify gap <= tol on every instance surveyed
# (n=100, d=50 and d=1000). The later ones are the fallback for a problem
# on which that polish falls short.
_REFERENCE_PHASES = (200, 1_000, 5_000, 20_000, 60_000, 150_000, 400_000, 1_000_000)


def _full_gap_at(loss, penalty, atomic_set, x, kappa):
    """Full-set gap certificate at a candidate point with known gauge bound."""
    grad = loss.gradient(x)
    z = -grad
    sigma = atomic_set.support_value(z)
    h_x = penalty.value(kappa)
    try:
        conj = penalty.conjugate(max(sigma, 0.0))
    except UnboundedConjugateError:
        conj = math.inf
    gap = conj - float(z @ x) + h_x
    return grad, gap, loss.value(x) + h_x


def _restricted_minimize(loss, penalty, mat, c0, flat_steps=False):
    """Minimize f(Mc) + phi(1'c) over c >= 0 down to machine precision.

    L-BFGS-B makes the bulk of the progress but stalls around 1e-9
    suboptimality (its relative-reduction exit), far too loose for the
    zero-tolerance safety tests; a projected Newton loop sharpens the
    result until the free-coordinate gradient is at roundoff level. Its
    steps must not raise the value. With flat_steps, a step that the line
    search can only shrink below rounding is taken in full instead, when
    the value stays within a few ulps and the projected gradient shrinks.
    """
    alpha, weight = penalty.alpha, penalty.weight

    def fun(c):
        point = mat @ c
        total = float(np.sum(c))
        value = loss.value(point) + penalty.value(total)
        grad_c = mat.T @ loss.gradient(point) + weight * total ** (alpha - 1.0)
        return value, grad_c

    def projected_norm(c, grad_c):
        free = (c > 0.0) | (grad_c < 0.0)
        return free, (float(np.max(np.abs(grad_c[free]))) if np.any(free) else 0.0)

    found = minimize(
        fun, c0, jac=True, method="L-BFGS-B",
        bounds=[(0.0, None)] * mat.shape[1],
        options={"maxiter": 500},
    )
    c = np.maximum(found.x, 0.0)
    features = loss.data.features
    for _ in range(60):
        value, grad_c = fun(c)
        free, norm = projected_norm(c, grad_c)
        if norm < 1e-15:
            break
        point = mat @ c
        total = float(np.sum(c))
        if total == 0.0 and alpha < 2.0:
            curve = 0.0
        else:
            curve = weight * (alpha - 1.0) * total ** (alpha - 2.0)
        mapped = features @ mat[:, free]
        omega = loss.curvature_weights(point)
        hess = mapped.T @ (mapped * omega[:, None]) + curve
        hess += (1e-14 * (1.0 + np.max(np.diag(hess)))) * np.eye(hess.shape[0])
        try:
            direction = np.linalg.solve(hess, grad_c[free])
        except np.linalg.LinAlgError:
            break
        scale = 1.0
        for _ in range(60):
            trial = c.copy()
            trial[free] = np.maximum(c[free] - scale * direction, 0.0)
            if fun(trial)[0] <= value:
                break
            scale *= 0.5
        else:
            break
        if np.array_equal(trial, c):
            # the halvings shrank the step below rounding: the value is flat
            # to its last bit here and cannot judge the step
            if not flat_steps:
                break
            trial = c.copy()
            trial[free] = np.maximum(c[free] - direction, 0.0)
            trial_value, trial_grad = fun(trial)
            flat = value + 4.0 * np.finfo(float).eps * abs(value)
            if not (trial_value <= flat and projected_norm(trial, trial_grad)[1] < norm):
                break
        c = trial
    return c


def _polish(loss, penalty, atomic_set, state, tol):
    """Candidate solution from the current state.

    For power penalties with alpha > 1 the smooth restricted problem over
    the ledger support (coefficients >= 0) is minimized to machine
    precision, and while the full-set gap stays above tol with the best
    scoring atom outside the working support, that atom is added and the
    minimization repeated. Other penalties fall back to the raw iterate.
    Returns the candidate with a full-set gap certificate evaluated at it.
    """
    coeffs = state.coeffs
    support = sorted(_screening.support_of(coeffs))
    refinable = (
        bool(support)
        and penalty.kind == _penalties.POWER
        and penalty.alpha > 1.0
    )
    if not refinable:
        x = state.x.copy()
        grad, gap, objective = _full_gap_at(
            loss, penalty, atomic_set, x, state.kappa_bound
        )
        return {
            "x": x,
            "grad": grad,
            "objective": objective,
            "gap": gap,
            "support": _screening.support_of(coeffs),
        }
    c = np.array([coeffs[i] for i in support])
    flat_steps = False
    for _ in range(50):
        mat = np.stack([atomic_set.atom_vector(i) for i in support], axis=1)
        c = _restricted_minimize(loss, penalty, mat, c, flat_steps)
        x = mat @ c
        grad, gap, objective = _full_gap_at(
            loss, penalty, atomic_set, x, float(np.sum(c))
        )
        if gap <= tol:
            break
        best_id, _ = atomic_set.lmo(-grad)
        if best_id in support:
            if flat_steps:
                break  # the floor is optimizer precision, not a missing atom
            # the Newton loop may have stalled on the value's last bit
            flat_steps = True
            continue
        support.append(best_id)
        c = np.append(c, 0.0)
    return {
        "x": x,
        "grad": grad,
        "objective": objective,
        "gap": gap,
        "support": _screening.support_of(dict(zip(support, c))),
    }


def reference_solve(loss, penalty, atomic_set, iters=1_000_000, tol=1e-10):
    """High-accuracy solution by an active-set method.

    A warm start of plain unscreened CG steps gives a conic support; the
    polish then minimizes the problem restricted to that support and adds
    the best-scoring outside atom until the full-set gap is <= tol. When
    the polish falls short, the CG run goes on to the next checkpoint of
    _REFERENCE_PHASES and polishes again. Stops at the first candidate
    that certifies a full-set gap <= tol; otherwise exhausts the iteration
    budget and returns the best candidate with reached=False so callers
    can skip. iters_used is the number of CG steps behind the returned
    candidate.
    """
    if iters < 1:
        raise ContractViolationError("iters must be >= 1")
    if not (math.isnan(tol) is False and tol >= 0):
        raise ContractViolationError("tol must be nonnegative")
    if not penalty.guarantees_convergence:
        raise ContractViolationError(
            "reference oracle requires a penalty with quadratic growth"
        )
    iters = int(iters)
    checkpoints = sorted({min(p, iters) for p in _REFERENCE_PHASES} | {iters})
    config = SolverConfig(max_iters=iters, trace_every=iters)
    state = SolverState(atomic_set)
    done = 0
    best = None
    used = 0
    for target in checkpoints:
        while done < target:
            step(state, loss, penalty, atomic_set, config)
            done += 1
        candidate = _polish(loss, penalty, atomic_set, state, tol)
        if best is None or candidate["gap"] < best["gap"]:
            best = candidate
            used = done
        if best["gap"] <= tol:
            break
    margin = _screening.delta(atomic_set, best["grad"], best["support"])
    return ReferenceSolution(
        x=best["x"],
        grad=best["grad"],
        objective=best["objective"],
        support_ids=best["support"],
        delta=margin,
        gap=best["gap"],
        iters_used=used,
        reached=best["gap"] <= tol,
        fingerprint=problem_fingerprint(loss, penalty, atomic_set),
    )


class ResidualSeries:
    """Per-iterate errors of a run against a reference solution."""

    def __init__(self, ts, objective_error, gap, gradient_error, support_error):
        self.ts = list(ts)
        self.objective_error = list(objective_error)
        self.gap = list(gap)
        self.gradient_error = list(gradient_error)
        self.support_error = list(support_error)

    def __len__(self):
        return len(self.ts)


def residuals(result, reference):
    """Objective error, gap, gradient error, and support error per traced t.

    The run must have been made with keep_snapshots=True (gradient and
    active-set errors need the stored iterate data) and on the same problem
    as the reference (fingerprints are compared).
    """
    if reference.fingerprint and result.fingerprint != reference.fingerprint:
        raise ReferenceMismatchError(
            "run and reference come from different problems "
            f"({result.fingerprint[:12]} vs {reference.fingerprint[:12]})"
        )
    if not result.snapshots:
        raise ContractViolationError(
            "run kept no snapshots; rerun with keep_snapshots=True"
        )
    if len(result.snapshots) != len(result.trace):
        raise ContractViolationError("trace and snapshots are misaligned")
    aset = result.atomic_set
    sym = aset if aset.symmetric else aset.symmetrize()
    ts, obj_err, gaps, grad_err, supp_err = [], [], [], [], []
    for row, snap in zip(result.trace, result.snapshots):
        if row.t != snap.t:
            raise ContractViolationError("trace and snapshots are misaligned")
        ts.append(row.t)
        obj_err.append(row.objective - reference.objective)
        gaps.append(row.gap)
        grad_err.append(sym.support_value(snap.grad - reference.grad))
        supp_err.append(len(snap.active_ids ^ reference.support_ids))
    return ResidualSeries(ts, obj_err, gaps, grad_err, supp_err)


def identified_at(trace, L, margin):
    """First traced t whose running min gap certifies identification."""
    for row in trace:
        if math.sqrt(L * row.min_gap) < margin / 4.0:
            return row.t
    return None


def build_certificate(result, reference):
    """Assemble the JSON-able support certificate for a finished run."""
    aset = result.atomic_set
    sym = aset if aset.symmetric else aset.symmetrize()
    L = result.loss.smoothness_wrt(sym)
    found_at = identified_at(result.trace, L, reference.delta)
    if result.config.screening_enabled:
        support = [int(i) for i in result.state.mask.active_ids()]
    else:
        support = sorted(_screening.support_of(result.state.coeffs))
    return _screening.SupportCertificate(
        support_ids=support,
        delta=reference.delta,
        identified_at=found_at,
        L=L,
        min_gap=result.state.min_gap,
    )


def rate_slope(series, t_lo, t_hi):
    """Least-squares slope of log(value) against log(t) over a window.

    series is a (ts, values) pair with ts ascending; the window needs at
    least 5 points and finite values. The fit stops before the first
    nonpositive value in the window: an error against a reference that
    reaches 0 (or a last-bit negative) has hit the reference's own
    accuracy, and the points from there on carry no rate. At least 5
    positive values must come before it.
    """
    ts, values = series
    ts = np.asarray(ts, dtype=float)
    values = np.asarray(values, dtype=float)
    if ts.shape != values.shape:
        raise ContractViolationError("ts and values must have matching length")
    if not (t_lo > 0 and t_hi > t_lo):
        raise ContractViolationError("need 0 < t_lo < t_hi")
    inside = (ts >= t_lo) & (ts <= t_hi)
    if int(inside.sum()) < 5:
        raise ContractViolationError(
            f"need at least 5 trace points in [{t_lo}, {t_hi}], have {int(inside.sum())}"
        )
    window = values[inside]
    if not np.all(np.isfinite(window)):
        raise ContractViolationError("values must be finite on the window")
    nonpositive = np.flatnonzero(window <= 0)
    end = int(nonpositive[0]) if nonpositive.size else window.size
    if end < 5:
        raise ContractViolationError(
            f"need at least 5 positive values in [{t_lo}, {t_hi}] before the "
            f"first nonpositive one, have {end}"
        )
    coeffs = np.polyfit(np.log(ts[inside][:end]), np.log(window[:end]), 1)
    return float(coeffs[0])


def _fmt(value):
    if isinstance(value, (bool, np.bool_)):
        raise ContractViolationError("booleans do not belong in trace CSVs")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_trace_csv(trace, path):
    """Emit the pinned trace header and one row per record, repr floats."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        for row in trace:
            fh.write(",".join(_fmt(getattr(row, col)) for col in TRACE_COLUMNS) + "\n")


def read_trace_csv(path):
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != ",".join(TRACE_COLUMNS):
            raise FileFormatError(f"{path}: unexpected trace header {header!r}", offset=0)
        out = []
        for line in fh:
            parts = line.strip().split(",")
            if len(parts) != len(TRACE_COLUMNS):
                raise FileFormatError(f"{path}: malformed trace row {line!r}", offset=0)
            values = {
                col: (int(cell) if col in _INT_TRACE_COLUMNS else float(cell))
                for col, cell in zip(TRACE_COLUMNS, parts)
            }
            out.append(TraceRecord(**values))
    return out


def write_screen_csv(events, path):
    """Screening events, one row per pass that removed atoms; the removed
    ids are ;-joined inside a single CSV cell."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(SCREEN_COLUMNS) + "\n")
        for event in events:
            ids = ";".join(str(int(i)) for i in event.removed_ids)
            fh.write(
                f"{event.t},{ids},{_fmt(event.threshold)},"
                f"{_fmt(event.sigma)},{event.remaining}\n"
            )


def write_residuals_csv(series, path):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(RESIDUAL_COLUMNS) + "\n")
        for i in range(len(series)):
            fh.write(
                f"{series.ts[i]},{_fmt(series.objective_error[i])},"
                f"{_fmt(series.gap[i])},{_fmt(series.gradient_error[i])},"
                f"{series.support_error[i]}\n"
            )


def read_csv_columns(path):
    """Generic numeric CSV reader: header names to float arrays."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip().split(",")
        rows = []
        for line in fh:
            parts = line.strip().split(",")
            if len(parts) != len(header):
                raise FileFormatError(f"{path}: malformed row {line!r}", offset=0)
            try:
                rows.append([float(cell) for cell in parts])
            except ValueError:
                raise FileFormatError(
                    f"{path}: non-numeric cell in row {line!r}", offset=0
                ) from None
    table = np.array(rows) if rows else np.zeros((0, len(header)))
    return {name: table[:, i] for i, name in enumerate(header)}


class ExperimentConfig:
    """One experiment invocation, possibly fanning out over a penalty grid.

    Identical configurations (same seed included) produce byte-identical
    trace rows except for the wall-clock elapsed_s column.
    """

    def __init__(
        self,
        experiment,
        seed=0,
        n=100,
        d=50,
        penalty_kind=_penalties.POWER,
        alphas=(2.0,),
        weights=(1.0,),
        capacity=1.0,
        growth=1.0,
        scale=1.0,
        solver=None,
        out_dir=".",
        images_path=None,
        labels_path=None,
        digits=(4, 9),
    ):
        if experiment not in ("synthetic", "mnist"):
            raise ContractViolationError(
                f"experiment must be 'synthetic' or 'mnist', got {experiment!r}"
            )
        if experiment == "mnist" and (images_path is None or labels_path is None):
            raise ContractViolationError("mnist experiment needs images and labels paths")
        if not alphas or not weights:
            raise ContractViolationError("alpha and weight grids must be nonempty")
        self.experiment = experiment
        self.seed = int(seed)
        self.n = int(n)
        self.d = int(d)
        self.penalty_kind = penalty_kind
        self.alphas = tuple(float(a) for a in alphas)
        self.weights = tuple(float(w) for w in weights)
        self.capacity = float(capacity)
        self.growth = float(growth)
        self.scale = float(scale)
        self.solver = solver if solver is not None else SolverConfig()
        self.out_dir = out_dir
        self.images_path = images_path
        self.labels_path = labels_path
        self.digits = tuple(int(v) for v in digits)

    def build_penalty(self, alpha, weight):
        if self.penalty_kind == _penalties.POWER:
            return _penalties.Penalty.power(alpha, weight=weight)
        if self.penalty_kind == _penalties.LOG_BARRIER:
            return _penalties.Penalty.log_barrier(
                self.capacity, growth=self.growth, weight=weight
            )
        if self.penalty_kind == _penalties.INDICATOR:
            return _penalties.Penalty.indicator(self.capacity)
        raise ContractViolationError(f"unknown penalty kind {self.penalty_kind!r}")

    def grid(self):
        """Penalty grid: alpha varies only for the power kind."""
        if self.penalty_kind == _penalties.POWER:
            return [(a, w) for a in self.alphas for w in self.weights]
        return [(self.alphas[0], w) for w in self.weights]

    def stem(self, alpha, weight):
        sc = self.solver
        canon = "|".join(
            [
                self.experiment,
                str(self.seed),
                str(self.n),
                str(self.d),
                self.penalty_kind,
                repr(float(alpha)),
                repr(float(weight)),
                repr(self.capacity),
                repr(self.growth),
                repr(self.scale),
                str(sc.max_iters),
                repr(sc.gap_tolerance),
                sc.step_schedule,
                str(sc.screening_enabled),
                sc.screening_mode,
                str(sc.screen_every),
                str(sc.trace_every),
                "-".join(str(v) for v in self.digits),
            ]
        )
        digest = hashlib.sha256(canon.encode()).hexdigest()[:12]
        return f"{self.experiment}-{digest}"


def _load_experiment_data(config):
    if config.experiment == "synthetic":
        return gen_synthetic(config.seed, n=config.n, d=config.d)
    return load_mnist_pair(config.images_path, config.labels_path, config.digits)


def run_experiment(config):
    """Run every grid point, write its CSVs, and summarize the outcomes.

    Grid points are independent and fan out over a thread pool; each owns
    its solver state and output files. Divergence and unbounded-step exits
    are reported in the summary (status 'divergence' / 'unbounded-step')
    rather than raised, so one blown grid point does not kill a sweep.
    """
    data = _load_experiment_data(config)
    loss = LogisticLoss(data)
    atomic_set = _atoms.AtomicSet.signed_basis(data.d, scale=config.scale)
    os.makedirs(config.out_dir, exist_ok=True)

    def one_point(point):
        alpha, weight = point
        penalty = config.build_penalty(alpha, weight)
        stem = config.stem(alpha, weight)
        status, failed_at = "ok", None
        try:
            result = run(loss, penalty, atomic_set, config.solver)
        except DivergenceError as err:
            status, failed_at, result = "divergence", err.t, err.result
        except UnboundedStepError as err:
            status, failed_at, result = "unbounded-step", err.t, err.result
        trace_path = os.path.join(config.out_dir, stem + ".csv")
        write_trace_csv(result.trace, trace_path)
        summary = {
            "stem": stem,
            "alpha": alpha,
            "weight": weight,
            "status": status,
            "failed_at": failed_at,
            "trace_path": trace_path,
            "screen_path": None,
            "min_gap": result.state.min_gap,
            "iterations": result.state.t - 1,
            "result": result,
        }
        if config.solver.screening_enabled:
            screen_path = os.path.join(config.out_dir, stem + ".screen.csv")
            write_screen_csv(result.screen_events, screen_path)
            summary["screen_path"] = screen_path
        return summary

    points = config.grid()
    if len(points) == 1:
        return [one_point(points[0])]
    workers = min(len(points), os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(one_point, points))
