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
from . import screening as _screening
from .errors import (
    ContractViolationError,
    DivergenceError,
    FileFormatError,
    ReferenceMismatchError,
    UnboundedStepError,
    _checked,
    _index,
    _real,
)
from .losses import DataMatrix, LogisticLoss
from .penalties import KINDS, POWER
from .solver import (
    RunResult,
    SolverConfig,
    SolverState,
    TraceRecord,
    _check_enumerable,
    certificate,
    claimed_ids,
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
    n, d = (_checked(_index, v, lambda v: v >= 1, "n and d must be >= 1") for v in (n, d))
    seed = _checked(_index, seed, lambda s: s >= 0, f"seed must be an integer >= 0, got {seed!r}")
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


def _digit_pair(digits):
    return _checked(
        lambda pair: tuple(_index(v) for v in pair), digits,
        lambda pair: len(pair) == 2 and pair[0] != pair[1] and all(0 <= v <= 9 for v in pair),
        "digits must be two distinct values in 0..9",
    )


def load_mnist_pair(images_path, labels_path, digits=(4, 9)):
    """Read one IDX image/label file pair and keep two digit classes.

    Pixels are scaled to [0, 1]; the first digit maps to label -1, the
    second to +1. Plain and gzip-compressed files are both accepted.
    """
    digits = _digit_pair(digits)
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
    """High-accuracy solution used as ground truth by the safety tests."""

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
        self.x, self.grad = (
            _checked(
                lambda a: np.asarray(a, dtype=float), v, lambda a: a.ndim == 1,
                "x and grad must be real vectors",
            )
            for v in (self.x, self.grad)
        )
        self.objective, self.delta, self.gap = (
            _checked(_real, v, lambda v: True, "objective, delta and gap must be reals")
            for v in (self.objective, self.delta, self.gap)
        )
        self.support_ids = _checked(
            lambda ids: frozenset(_index(i) for i in ids), self.support_ids,
            lambda ids: True, "support_ids must be atom ids",
        )
        self.iters_used = _checked(
            _index, self.iters_used, lambda k: k >= 0, "iters_used must be a count"
        )
        self.reached = bool(self.reached)

    to_json = _screening._record_json
    from_json = classmethod(_screening._record_from_json)


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
        # JSONDecodeError, which from_json refuses with, and UnicodeDecodeError
        # say where the bad byte is
        cause = err.__context__ or err
        offset = getattr(cause, "pos", getattr(cause, "start", None))
        raise FileFormatError(
            f"{path}: not a reference file: {err}", offset=offset
        ) from None


# CG steps before the polish of a power penalty: they give it a seed
# support, which it grows to the solution's, at most doubling it per round,
# and certifies gap <= tol on every instance surveyed (logistic at alpha 2,
# 2.5 and 3 with n=100, d=50, at alpha 2 with n=200, d=1000, small
# quadratics over explicit sets, and hypercube(6); none of 116 needed a
# longer CG run). On the d=50 survey 5 to 50 steps cost within 20% of 10,
# 1 and 3 up to 1.5x, and 200 3.3x.
_WARM_START = 10


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
    at roundoff level or no halving is accepted. phi' and phi'' come from
    penalty.derivatives.
    """
    images = loss.data.features @ mat
    flat = 4.0 * np.finfo(float).eps

    def evaluate(c):
        ax = images @ c
        total = float(np.add.reduce(c))  # >= 0, as the projection keeps c >= 0
        slope, curve = penalty.derivatives(total)
        value = loss.value_of_margins(ax) + penalty._value(total)
        grad_c = images.T @ loss.link(ax) + slope
        free = (c > 0.0) | (grad_c < 0.0)
        norm = float(np.abs(grad_c[free]).max()) if free.any() else 0.0
        return value, norm, (grad_c, free, ax, curve)

    c = c0
    value, norm, (grad_c, free, ax, curve) = evaluate(c)
    for _ in range(60):
        if norm < 1e-15:
            break
        mapped = images[:, free]
        omega = loss.curvature_weights(ax)
        hess = mapped.T @ (mapped * omega[:, None]) + curve
        hess.reshape(-1)[:: hess.shape[0] + 1] += 1e-14 * (1.0 + hess.diagonal().max())
        try:
            direction = np.linalg.solve(hess, grad_c[free])
        except np.linalg.LinAlgError:
            break
        scale = 1.0
        for _ in range(60):
            trial = c.copy()
            trial[free] = np.maximum(c[free] - scale * direction, 0.0)
            if (trial == c).all():
                return c  # the step shrank below rounding
            t_value, t_norm, t_rest = evaluate(trial)
            if t_value < value or (t_value <= value + flat * abs(value) and t_norm < norm):
                break
            scale *= 0.5
        else:
            break
        c, value, norm, (grad_c, free, ax, curve) = trial, t_value, t_norm, t_rest
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
    _, values = cert.scores(atomic_set, None)  # every atom's score, by id
    inside = np.zeros(values.size, dtype=bool)
    inside[support] = True
    violators = (~inside & (values > values[inside].max())).nonzero()[0]
    best_first = violators[(-values[violators]).argsort(kind="stable")]
    others = [i for i in best_first.tolist() if i != cert.atom_id]
    return [cert.atom_id] + others[: len(support) - 1]


def _polish(loss, penalty, atomic_set, state, tol):
    """Candidate solution from the current state.

    For a penalty with derivatives (the power kind) the smooth restricted
    problem over the ledger support (coefficients >= 0) is minimized to
    machine precision. While the full-set gap stays above tol with the best
    scoring atom outside the working support, up to as many violators as
    the support holds are added, best first (_growth), and the minimization
    repeated: the support at most doubles per round (seed 3 at weight 0.01,
    n=100, d=50 goes through 4, 8, 16 and 30 columns to its 23-atom support
    from the 10-step warm start). Once the best atom is already in the
    support, the polish has reached its precision and stops. Other
    penalties fall back to the raw iterate. Returns the candidate with a
    full-set gap certificate evaluated at it.
    """
    coeffs = state.coeffs
    support = sorted(_screening._support_of(coeffs))
    if not support or penalty.derivatives is None:
        x = state.x.copy()
        cert = certificate(loss, penalty, atomic_set, loss.margins(x), state.kappa_bound, state)
    else:
        c = np.array([coeffs[i] for i in support])
        for _ in range(50):
            mat = np.stack([atomic_set.atom_vector(i) for i in support], axis=1)
            c = _restricted_minimize(loss, penalty, mat, c)
            x = mat @ c
            cert = certificate(loss, penalty, atomic_set, loss.margins(x), float(np.add.reduce(c)))
            if cert.gap <= tol or cert.atom_id in support:
                break
            added = _growth(atomic_set, cert, support)
            support += added
            c = np.concatenate((c, np.zeros(len(added))))
        coeffs = dict(zip(support, c))
    return {
        "x": x,
        "grad": cert.grad,
        "objective": loss.value(x) + cert.h_x,
        "gap": cert.gap,
        "support_ids": _screening._support_of(coeffs),
    }


def reference_solve(loss, penalty, atomic_set, iters=1_000_000, tol=1e-10):
    """High-accuracy solution by a working-set method.

    For a power penalty a warm start of min(10, iters) plain unscreened CG
    steps gives a seed support; the polish then minimizes the problem
    restricted to that support and adds the best-scoring outside atoms, at
    most doubling the support per round, until the full-set gap is <= tol
    (_polish). Any other penalty has no polish: the candidate is the CG
    run's first iterate whose gap is <= tol, else its iterate after iters
    steps. reached is False when the candidate's full-set gap is above tol,
    so callers can skip. iters_used is the number of CG steps behind it. A
    CG run that aborts with DivergenceError (open-loop steps can overshoot
    before the support settles) is not an error here: the state it leaves
    is polished, as is one that stops on an exact zero gap.
    """
    fingerprint = problem_fingerprint(loss, penalty, atomic_set)  # checks the three
    iters = _checked(_index, iters, lambda k: k >= 1, "iters must be an integer >= 1")
    tol = _checked(_real, tol, lambda t: t >= 0, "tol must be a real >= 0")
    if not penalty.guarantees_convergence:
        raise ContractViolationError(
            "reference oracle requires a penalty with quadratic growth"
        )
    _check_enumerable(atomic_set)
    polished = penalty.derivatives is not None
    budget = min(_WARM_START, iters) if polished else iters
    config = SolverConfig(budget, 0.0 if polished else tol, trace_every=budget)
    state = SolverState(atomic_set)
    t = None
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow aborts, or polishes to NaN
        try:
            while state.t != t and state.t <= budget:  # a step at gap <= tol does not move
                t = state.t
                step(state, loss, penalty, atomic_set, config)
        except DivergenceError:
            pass
        candidate = _polish(loss, penalty, atomic_set, state, tol)
    return ReferenceSolution(
        **candidate,
        delta=_screening.delta(atomic_set, candidate["grad"], candidate["support_ids"]),
        iters_used=state.t - 1,
        reached=candidate["gap"] <= tol,
        fingerprint=fingerprint,
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
    support value of the symmetrized set, at the gradient of each snapshot's
    x. The run must have been made with keep_snapshots=True (the errors need
    the stored iterates and claimed atoms) and on the same problem as the
    reference (fingerprints are compared). Of an aborted run's partial
    result, the rows observed before the abort are covered; its diagnostic
    row has no snapshot.
    """
    if not (isinstance(result, RunResult) and isinstance(reference, ReferenceSolution)):
        raise ContractViolationError("residuals needs a RunResult and a ReferenceSolution")
    if reference.fingerprint and result.fingerprint != reference.fingerprint:
        raise ReferenceMismatchError(
            "run and reference come from different problems "
            f"({result.fingerprint[:12]} vs {reference.fingerprint[:12]})"
        )
    d = result.atomic_set.dimension
    if reference.x.shape != (d,) or reference.grad.shape != (d,):
        raise ReferenceMismatchError(
            f"reference x and grad have shapes {reference.x.shape} and "
            f"{reference.grad.shape}; the run's dimension is {d}"
        )
    trace = result.trace[:-1] if result.aborted else result.trace
    if not trace:
        raise ContractViolationError(
            f"run aborted at t={result.trace[-1].t} before it observed an iterate"
        )
    if not result.snapshots:
        raise ContractViolationError(
            "run kept no snapshots; rerun with keep_snapshots=True"
        )
    if len(result.snapshots) != len(trace):
        raise ContractViolationError("trace and snapshots are misaligned")
    aset = result.atomic_set
    ts, obj_err, gaps, grad_err, supp_err = [], [], [], [], []
    for row, snap in zip(trace, result.snapshots):
        if row.t != snap.t:
            raise ContractViolationError("trace and snapshots are misaligned")
        ts.append(row.t)
        obj_err.append(row.objective - reference.objective)
        gaps.append(row.gap)
        g = result.loss.gradient(snap.x) - reference.grad
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
    """The JSON-able support certificate of the atoms a finished run claims."""
    if not (isinstance(result, RunResult) and isinstance(reference, ReferenceSolution)):
        raise ContractViolationError("build_certificate needs a RunResult and a ReferenceSolution")
    L = result.loss.smoothness_wrt(result.atomic_set)
    found_at = identified_at(result.trace, L, reference.delta)
    return _screening.SupportCertificate(
        support_ids=claimed_ids(result.state, result.config.screening_enabled),
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
    ts, values = _checked(
        lambda pair: [np.asarray(a, dtype=float) for a in pair], series,
        lambda pair: len(pair) == 2 and pair[0].shape == pair[1].shape,
        "series must be a (ts, values) pair of real arrays of matching length",
    )
    t_lo = _checked(_real, t_lo, lambda t: t > 0, "need reals 0 < t_lo < t_hi")
    t_hi = _checked(_real, t_hi, lambda t: t > t_lo, "need reals 0 < t_lo < t_hi")
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


def _ascii_lines(path):
    """The lines of a text file that must be ASCII; a byte outside ASCII
    raises FileFormatError with its line number as the offset."""
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        lines = fh.readlines()
    for lineno, line in enumerate(lines, start=1):
        if not line.isascii():
            raise FileFormatError(f"{path}:{lineno}: byte outside ASCII", offset=lineno)
    return lines


def read_csv_columns(path):
    """Generic numeric CSV reader: header names to float arrays. A bad row
    raises FileFormatError with its line number as the offset."""
    lines = _ascii_lines(path) or [""]
    header = lines[0].strip().split(",")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.strip().split(",")
        if len(parts) != len(header):
            raise FileFormatError(
                f"{path}:{lineno}: malformed row {line!r}", offset=lineno
            )
        try:
            rows.append([float(cell) for cell in parts])
        except ValueError:
            raise FileFormatError(
                f"{path}:{lineno}: non-numeric cell in row {line!r}", offset=lineno
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
    penalty_kind: str = POWER
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
        if self.penalty_kind not in KINDS:
            raise ContractViolationError(f"unknown penalty kind {self.penalty_kind!r}")
        self.seed, self.n, self.d = (
            _checked(_index, v, lambda v: v >= low, f"{name} must be an integer >= {low}")
            for name, v, low in (("seed", self.seed, 0), ("n", self.n, 1), ("d", self.d, 1))
        )
        self.alphas, self.weights = (
            _checked(
                lambda grid: tuple(_real(v) for v in grid), grid, bool,
                "alpha and weight grids must be nonempty sequences of reals",
            )
            for grid in (self.alphas, self.weights)
        )
        self.capacity, self.growth, self.scale = (
            _checked(_real, v, lambda v: True, "capacity, growth and scale must be reals")
            for v in (self.capacity, self.growth, self.scale)
        )
        if self.solver is None:
            self.solver = SolverConfig()
        if not isinstance(self.solver, SolverConfig):
            raise ContractViolationError(f"solver must be a SolverConfig, got {self.solver!r}")
        self.digits = _digit_pair(self.digits)

    def build_penalty(self, alpha, weight):
        """The penalty at one grid point, given the parameters its kind reads."""
        values = {"alpha": alpha, "weight": weight, "cap": self.capacity, "growth": self.growth}
        kind = KINDS[self.penalty_kind]
        return kind(**{name: values[name] for name in kind.params})

    def grid(self):
        """(alpha, weight) points over the axes the kind reads; the first
        value stands for an axis it does not read."""
        reads = KINDS[self.penalty_kind].params
        alphas = self.alphas if "alpha" in reads else self.alphas[:1]
        weights = self.weights if "weight" in reads else self.weights[:1]
        return [(a, w) for a in alphas for w in weights]

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
    if not isinstance(config, ExperimentConfig):
        raise ContractViolationError(f"expected an ExperimentConfig, got {config!r}")
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
