"""Experiment harness: data generation, MNIST loading, the active-set
reference oracle, residual series against a reference, rate diagnostics,
and deterministic CSV emission.

Both built-in experiments fit sparse logistic regression over the signed
basis; the penalty family, weight grid, and solver knobs come from an
ExperimentConfig. One CSV trace is written per grid point, named by a
hash of the full configuration so reruns overwrite their own output.
"""

import dataclasses
import gzip
import hashlib
import json
import math
import operator
import os
import struct

import numpy as np

from . import atoms as _atoms
from . import penalties as _penalties
from . import screening as _screening
from .errors import (
    ContractViolationError,
    DivergenceError,
    FileFormatError,
    ReferenceMismatchError,
    UnboundedStepError,
)
from .losses import DataMatrix, LogisticLoss
from .solver import (
    SolverConfig,
    SolverState,
    TraceRecord,
    _check_enumerable,
    certificate,
    check_count,
    check_tolerance,
    problem_fingerprint,
    run,
    step,
)

TRACE_COLUMNS = TraceRecord.__slots__
SCREEN_COLUMNS = _screening.ScreenReport.__slots__
RESIDUAL_COLUMNS = ("t", "objective_error", "gap", "gradient_error", "support_error")


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


def _parse_idx(data, path, kind, magic_expected, dims):
    """Check an IDX file's header, magic and payload length; returns the
    dimension fields and the payload as uint8. kind names the file in the
    error texts."""
    header = 4 + 4 * dims
    if len(data) < header:
        raise FileFormatError(
            f"{path}: {kind} header truncated at byte offset {len(data)}",
            offset=len(data),
        )
    magic, *shape = struct.unpack_from(">" + "I" * (1 + dims), data, 0)
    if magic != magic_expected:
        raise FileFormatError(
            f"{path}: bad {kind} magic 0x{magic:08x} at byte offset 0 "
            f"(expected 0x{magic_expected:08x})",
            offset=0,
        )
    expected = header + math.prod(shape)
    if len(data) != expected:
        raise FileFormatError(
            f"{path}: {kind} payload ends at byte offset {len(data)}, expected {expected}",
            offset=min(len(data), expected),
        )
    return shape, np.frombuffer(data, dtype=np.uint8, offset=header)


def load_mnist_pair(images_path, labels_path, digits=(4, 9)):
    """Read one IDX image/label file pair and keep two digit classes.

    Pixels are scaled to [0, 1]; the first digit maps to label -1, the
    second to +1. Plain and gzip-compressed files are both accepted.
    """
    if len(digits) != 2 or digits[0] == digits[1] or not all(
        0 <= int(v) <= 9 for v in digits
    ):
        raise ContractViolationError("digits must be two distinct values in 0..9")
    (count, rows, cols), pixels = _parse_idx(
        _read_maybe_gzip(images_path), images_path, "images", _IDX_IMAGES_MAGIC, 3
    )
    images = pixels.reshape(count, rows * cols)
    _, labels = _parse_idx(
        _read_maybe_gzip(labels_path), labels_path, "labels", _IDX_LABELS_MAGIC, 1
    )
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


@dataclasses.dataclass(eq=False)
class ReferenceSolution:
    """High-accuracy solution used as ground truth by the safety tests.

    Iterating unpacks to (x, grad, support_ids, delta).
    """

    x: np.ndarray
    grad: np.ndarray
    objective: float
    support_ids: frozenset
    delta: float
    gap: float
    iters_used: int
    reached: bool
    fingerprint: str

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.grad = np.asarray(self.grad, dtype=float)
        self.objective = float(self.objective)
        self.support_ids = frozenset(int(i) for i in self.support_ids)
        self.delta = float(self.delta)
        self.gap = float(self.gap)
        self.iters_used = int(self.iters_used)
        self.reached = bool(self.reached)

    def __iter__(self):
        return iter((self.x, self.grad, self.support_ids, self.delta))

    to_json = _screening._record_json

    @classmethod
    def from_json(cls, text):
        return cls(**json.loads(text))


def save_reference(reference, path):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(reference.to_json())
        fh.write("\n")


def load_reference(path):
    """Read a file written by save_reference; any other content raises
    FileFormatError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return ReferenceSolution.from_json(raw.decode("ascii"))
    except (ValueError, TypeError) as err:
        # JSONDecodeError and UnicodeDecodeError say where the bad byte is
        offset = getattr(err, "pos", getattr(err, "start", None))
        raise FileFormatError(
            f"{path}: not a reference file: {err}", offset=offset
        ) from None


# Checkpoints at which the CG run pauses for the restricted polish. The
# first is the warm start: 10 steps give the polish a seed support, which it
# grows to the solution's, at most doubling it per round, and certifies
# gap <= tol on every instance surveyed (logistic at alpha 2, 2.5 and 3
# with n=100, d=50, at alpha 2 with n=200, d=1000, small quadratics over
# explicit sets, and hypercube(6)). On the d=50 survey a first checkpoint
# of 5 to 50 cost within 20% of 10, 1 and 3 up to 1.5x, and 200 3.3x. The
# later ones are the fallback for a problem on which that polish falls
# short.
_REFERENCE_PHASES = (10, 1_000, 5_000, 20_000, 60_000, 150_000, 400_000, 1_000_000)


def _restricted_minimize(loss, penalty, mat, c0):
    """Minimize f(Mc) + phi(1'c) over c >= 0 down to machine precision.

    A projected Newton loop (Bertsekas, SIAM J. Control Optim. 1982) run
    from c0, the ledger's warm start. It works in margins, as the solver
    does: the images A M are formed once, and the value, gradient and
    curvature weights all come from the margins A M c. Each step solves the
    Newton system on the free coordinates (c > 0, or a gradient that points
    into c > 0) and projects onto c >= 0. The step is halved until the value
    drops, or until the value stays within 4 ulps and the projected
    gradient's max-norm shrinks: near the optimum the value is flat to its
    last bit and cannot judge a step alone. The loop stops once that norm is
    at roundoff level or no halving is accepted. phi is a power penalty with
    alpha >= 2, the only one that reference_solve polishes.
    """
    alpha, weight = penalty.alpha, penalty.weight
    images = loss.data.features @ mat
    flat = 4.0 * np.finfo(float).eps

    def evaluate(c):
        ax = images @ c
        total = float(np.sum(c))
        value = loss.value_of_margins(ax) + penalty.value(total)
        grad_c = images.T @ loss.link(ax) + weight * total ** (alpha - 1.0)
        free = (c > 0.0) | (grad_c < 0.0)
        norm = float(np.max(np.abs(grad_c[free]))) if np.any(free) else 0.0
        return value, grad_c, free, norm, ax

    c = c0
    value, grad_c, free, norm, ax = evaluate(c)
    for _ in range(60):
        if norm < 1e-15:
            break
        curve = weight * (alpha - 1.0) * float(np.sum(c)) ** (alpha - 2.0)
        mapped = images[:, free]
        omega = loss.curvature_weights(ax)
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
            if np.array_equal(trial, c):
                return c  # the step shrank below rounding
            t_value, t_grad, t_free, t_norm, t_ax = evaluate(trial)
            if t_value < value or (t_value <= value + flat * abs(value) and t_norm < norm):
                break
            scale *= 0.5
        else:
            break
        c, value, grad_c, free, norm, ax = trial, t_value, t_grad, t_free, t_norm, t_ax
    return c


def _growth(atomic_set, cert, support):
    """Atoms to add to the working support: up to len(support) violators,
    best first, the oracle's atom leading.

    A violator is an atom outside the support that scores <p, -grad> above
    the best in-support score. Adding at most as many as the support holds
    lets it at most double per round, as in working-set solvers (Blitz,
    Johnson & Guestrin 2015; Celer, Massias et al. 2018): adding every
    violator at once builds Newton systems as large as the atom set.
    """
    ids, values = cert.scores(atomic_set, None)
    inside = np.isin(ids, support)
    violators = np.flatnonzero(~inside & (values > values[inside].max()))
    best_first = ids[violators[np.argsort(-values[violators], kind="stable")]]
    others = [i for i in best_first.tolist() if i != cert.atom_id]
    return [cert.atom_id] + others[: len(support) - 1]


def _polish(loss, penalty, atomic_set, state, tol):
    """Candidate solution from the current state.

    For power penalties the smooth restricted problem over the ledger
    support (coefficients >= 0) is minimized to machine precision. While
    the full-set gap stays above tol with the best scoring atom outside the
    working support, up to as many violators as the support holds are
    added, best first (_growth), and the minimization repeated: the support
    at most doubles per round (seed 3 at weight 0.01, n=100, d=50 goes
    through 4, 8, 16 and 30 columns to its 23-atom support from the 10-step
    warm start). Once the best atom is already in the support,
    the polish has reached its precision and stops. Other penalties fall
    back to the raw iterate. Returns the candidate with a full-set gap
    certificate evaluated at it.
    """
    coeffs = state.coeffs
    support = sorted(_screening.support_of(coeffs))
    if not support or penalty.kind != _penalties.POWER:
        x = state.x.copy()
        cert = certificate(loss, penalty, atomic_set, loss.margins(x), state.kappa_bound)
        return {
            "x": x,
            "grad": cert.grad,
            "objective": loss.value(x) + cert.h_x,
            "gap": cert.gap,
            "support": _screening.support_of(coeffs),
        }
    c = np.array([coeffs[i] for i in support])
    for _ in range(50):
        mat = np.stack([atomic_set.atom_vector(i) for i in support], axis=1)
        c = _restricted_minimize(loss, penalty, mat, c)
        x = mat @ c
        cert = certificate(loss, penalty, atomic_set, loss.margins(x), float(np.sum(c)))
        if cert.gap <= tol or cert.atom_id in support:
            break
        added = _growth(atomic_set, cert, support)
        support += added
        c = np.append(c, np.zeros(len(added)))
    return {
        "x": x,
        "grad": cert.grad,
        "objective": loss.value(x) + cert.h_x,
        "gap": cert.gap,
        "support": _screening.support_of(dict(zip(support, c))),
    }


def reference_solve(loss, penalty, atomic_set, iters=1_000_000, tol=1e-10):
    """High-accuracy solution by a working-set method.

    A warm start of 10 plain unscreened CG steps gives a seed support; the
    polish then minimizes the problem restricted to that support and adds
    the best-scoring outside atoms, at most doubling the support per round,
    until the full-set gap is <= tol. When the polish falls short, the CG run goes on to the next checkpoint of
    _REFERENCE_PHASES and polishes again. Stops at the first candidate
    that certifies a full-set gap <= tol; otherwise exhausts the iteration
    budget and returns the best candidate with reached=False so callers
    can skip. iters_used is the number of CG steps behind the returned
    candidate. A CG run that aborts with DivergenceError (open-loop steps
    can overshoot before the support settles) is not an error here: the
    state it leaves is polished like a checkpoint, and its candidate is the
    last one.
    """
    check_count("iters", iters)
    check_tolerance("tol", tol)
    if not penalty.guarantees_convergence:
        raise ContractViolationError(
            "reference oracle requires a penalty with quadratic growth"
        )
    _check_enumerable(atomic_set)
    iters = int(iters)
    checkpoints = sorted({min(p, iters) for p in _REFERENCE_PHASES} | {iters})
    config = SolverConfig(max_iters=iters, trace_every=iters)
    state = SolverState(atomic_set)
    best = None
    for target in checkpoints:
        diverged = False
        try:
            while state.t <= target:
                step(state, loss, penalty, atomic_set, config)
        except DivergenceError:
            diverged = True
        candidate = _polish(loss, penalty, atomic_set, state, tol)
        if best is None or candidate["gap"] < best["gap"]:
            best = candidate
            used = state.t - 1
        if best["gap"] <= tol or diverged:
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


@dataclasses.dataclass
class ResidualSeries:
    """Per-iterate errors of a run against a reference solution."""

    ts: list
    objective_error: list
    gap: list
    gradient_error: list
    support_error: list

    def __post_init__(self):
        for field in dataclasses.fields(self):
            setattr(self, field.name, list(getattr(self, field.name)))

    def __len__(self):
        return len(self.ts)


def residuals(result, reference):
    """Objective error, gap, gradient error, and support error per traced t.

    The gradient error is the max over atoms of |<p, grad - grad*>|, the
    support value of the symmetrized set. The run must have been made with
    keep_snapshots=True (gradient and active-set errors need the stored
    iterate data) and on the same problem as the reference (fingerprints
    are compared).
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
    ts, obj_err, gaps, grad_err, supp_err = [], [], [], [], []
    for row, snap in zip(result.trace, result.snapshots):
        if row.t != snap.t:
            raise ContractViolationError("trace and snapshots are misaligned")
        ts.append(row.t)
        obj_err.append(row.objective - reference.objective)
        gaps.append(row.gap)
        g = snap.grad - reference.grad
        grad_err.append(max(aset.support_value(g), aset.support_value(-g)))
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
    L = result.loss.smoothness_wrt(result.atomic_set)
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


def _cell(value):
    """One CSV cell: an int as an int, a float by its repr (bit-exact on
    reading back), a list of atom ids ;-joined."""
    if isinstance(value, (bool, np.bool_)):
        raise ContractViolationError("booleans do not belong in CSV cells")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (list, tuple, np.ndarray)):
        return ";".join(str(int(i)) for i in value)
    return repr(float(value))


def _write_csv(path, columns, rows):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(map(_cell, row)) + "\n")


def write_trace_csv(trace, path):
    """Emit the pinned trace header and one row per record, repr floats."""
    _write_csv(path, TRACE_COLUMNS, map(operator.attrgetter(*TRACE_COLUMNS), trace))


def write_screen_csv(events, path):
    """Screening events, one row per pass that removed atoms; the removed
    ids are ;-joined inside a single CSV cell."""
    _write_csv(path, SCREEN_COLUMNS, map(operator.attrgetter(*SCREEN_COLUMNS), events))


def write_residuals_csv(series, path):
    _write_csv(path, RESIDUAL_COLUMNS, zip(*dataclasses.astuple(series)))


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


def read_trace_csv(path):
    """Read a file written by write_trace_csv; the count columns, typed int
    on TraceRecord, must hold integers."""
    table = read_csv_columns(path)
    if tuple(table) != TRACE_COLUMNS:
        raise FileFormatError(f"{path}: unexpected trace header {','.join(table)!r}", offset=0)
    columns = []
    for field in dataclasses.fields(TraceRecord):
        values = table[field.name].tolist()
        if field.type is int:
            if not all(v.is_integer() for v in values):
                raise FileFormatError(f"{path}: non-integer {field.name} cell", offset=0)
            values = [int(v) for v in values]
        columns.append(values)
    return [TraceRecord(*row) for row in zip(*columns)]


@dataclasses.dataclass
class ExperimentConfig:
    """One experiment invocation, possibly fanning out over a penalty grid.

    Identical configurations (same seed included) produce byte-identical
    trace rows except for the wall-clock elapsed_s column.
    """

    experiment: str
    seed: int = 0
    n: int = 100
    d: int = 50
    penalty_kind: str = _penalties.POWER
    alphas: tuple = (2.0,)
    weights: tuple = (1.0,)
    capacity: float = 1.0
    growth: float = 1.0
    scale: float = 1.0
    solver: SolverConfig | None = None
    out_dir: str = "."
    images_path: str | None = None
    labels_path: str | None = None
    digits: tuple = (4, 9)

    def __post_init__(self):
        if self.experiment not in ("synthetic", "mnist"):
            raise ContractViolationError(
                f"experiment must be 'synthetic' or 'mnist', got {self.experiment!r}"
            )
        if self.experiment == "mnist" and (self.images_path is None or self.labels_path is None):
            raise ContractViolationError("mnist experiment needs images and labels paths")
        if not self.alphas or not self.weights:
            raise ContractViolationError("alpha and weight grids must be nonempty")
        self.seed, self.n, self.d = int(self.seed), int(self.n), int(self.d)
        self.alphas = tuple(float(a) for a in self.alphas)
        self.weights = tuple(float(w) for w in self.weights)
        self.capacity, self.growth = float(self.capacity), float(self.growth)
        self.scale = float(self.scale)
        if self.solver is None:
            self.solver = SolverConfig()
        self.digits = tuple(int(v) for v in self.digits)

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

    def build_problem(self):
        """(loss, atomic_set): the logistic loss on the experiment's data
        and the signed basis of its dimension."""
        if self.experiment == "synthetic":
            data = gen_synthetic(self.seed, n=self.n, d=self.d)
        else:
            data = load_mnist_pair(self.images_path, self.labels_path, self.digits)
        return LogisticLoss(data), _atoms.AtomicSet.signed_basis(data.d, scale=self.scale)

    def stem(self, alpha, weight):
        """File stem of one grid point: the experiment name and a hash of
        the point and of every field but out_dir, solver knobs included."""
        fields = dataclasses.asdict(self)
        del fields["out_dir"]
        fields["point"] = (float(alpha), float(weight))
        canon = json.dumps(fields, sort_keys=True, default=str)
        digest = hashlib.sha256(canon.encode()).hexdigest()[:12]
        return f"{self.experiment}-{digest}"


def run_experiment(config):
    """Run the grid points one after another, write their CSVs, and
    summarize the outcomes.

    Divergence and unbounded-step exits are reported in the summary (status
    'divergence' / 'unbounded-step') rather than raised, so one blown grid
    point does not kill a sweep.
    """
    loss, atomic_set = config.build_problem()
    os.makedirs(config.out_dir, exist_ok=True)
    summaries = []
    for alpha, weight in config.grid():
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
        summaries.append(summary)
    return summaries
