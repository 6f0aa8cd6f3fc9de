"""Generalized conditional gradient iteration over an atomic set.

Each step works at the current iterate x: take z = -gradient(x), ask the
(mask-restricted) linear maximization oracle for the best atom and its
score sigma, solve the scalar subproblem xi = xi_step(sigma), and move to
the convex combination x <- (1 - theta) x + theta * xi * atom under a
pre-set schedule theta. Optional gap-safe screening shrinks the active
mask as atoms are certified out of the optimal support.

The state keeps the margins ax = A x alongside x and moves them with the
iterate, ax <- (1 - theta) ax + theta * A s (AtomicSet.image), and re-syncs
them to A x every _RESYNC_EVERY iterations. Everything per iteration comes
from them: the loss link v with gradient = A'v, and the duality gap in the
margins form v'(ax - A s) + h(x) - h(xi), which equals the primal form
-grad'(s - x) + h(x) - h(s). The same function, certificate, gives the
full-set gap of the reference oracle. The loss value is computed only for
trace rows.

At most one score vector serves each step: the screening rule reads the
scores of the certificate's oracle (AtomicSet.oracle). The step moves x
(AtomicSet.move) and ax in place, bit-identical to the formulas above.

The conic coefficient ledger is kept as raw weights plus one global decay
multiplier, so the (1 - theta) rescale of every step is O(1).
"""

import dataclasses
import hashlib
import math
import numbers
import time

import numpy as np

from . import screening as _screening
from .errors import (
    ContractViolationError,
    DivergenceError,
    UnboundedStepError,
)

_SCHEDULES = ("2t1", "4t2")
_SCREEN_MODES = ("prune-lmo", "report-only")
# Iterations between re-syncs of the incremental margins to A x. The update
# ax <- (1 - theta) ax + theta A s damps old rounding errors, so drift stays
# near machine precision; the re-sync costs one A x per this many steps.
_RESYNC_EVERY = 1000
# A step that leaves |x|_inf above this bound aborts with DivergenceError.
_DIVERGENCE_LIMIT = 1e12
_EPS = float(np.finfo(float).eps)


def theta_schedule(schedule, t):
    """Step size at iteration t (1-based). "2t1" is 2/(t+1), "4t2" is
    4/(t+2) capped at 1 so the first steps stay convex combinations."""
    if schedule == "2t1":
        return 2.0 / (t + 1.0)
    if schedule == "4t2":
        return min(1.0, 4.0 / (t + 2.0))
    raise ContractViolationError(f"unknown step schedule {schedule!r}")


def check_count(name, count):
    """Refuse anything but a finite real with an integer value >= 1."""
    real = isinstance(count, numbers.Real)  # int(count) needs a finite real
    if not (real and 1 <= count < math.inf and count == int(count)):
        raise ContractViolationError(f"{name} must be an integer >= 1")


def check_tolerance(name, tol):
    """Refuse anything but a real >= 0, so NaN too."""
    if not isinstance(tol, numbers.Real) or not tol >= 0:
        raise ContractViolationError(f"{name} must be >= 0")


def _check_enumerable(atomic_set):
    """Refuse a set too large to enumerate before the first step, not in
    it: screening, snapshots and reference solutions list atom ids."""
    if not atomic_set.enumerable:
        raise ContractViolationError(
            f"screening, snapshots and reference solutions need an enumerable "
            f"atomic set; {atomic_set!r} is too large to enumerate"
        )


@dataclasses.dataclass
class SolverConfig:
    """Knobs for a single run."""

    max_iters: int = 1000
    gap_tolerance: float = 0.0
    step_schedule: str = "2t1"
    screening_enabled: bool = False
    screening_mode: str = "prune-lmo"
    screen_every: int = 1
    trace_every: int = 1
    keep_snapshots: bool = False

    def __post_init__(self):
        for name in ("max_iters", "screen_every", "trace_every"):
            check_count(name, getattr(self, name))
            setattr(self, name, int(getattr(self, name)))
        check_tolerance("gap_tolerance", self.gap_tolerance)
        if self.step_schedule not in _SCHEDULES:
            raise ContractViolationError(
                f"step_schedule must be one of {_SCHEDULES}, got {self.step_schedule!r}"
            )
        if self.screening_mode not in _SCREEN_MODES:
            raise ContractViolationError(
                f"screening_mode must be one of {_SCREEN_MODES}, got {self.screening_mode!r}"
            )
        self.gap_tolerance = float(self.gap_tolerance)
        self.screening_enabled = bool(self.screening_enabled)
        self.keep_snapshots = bool(self.keep_snapshots)


@dataclasses.dataclass(slots=True)
class TraceRecord:
    """One monitored iteration; field names and order are the CSV columns."""

    t: int
    objective: float
    gap: float
    min_gap: float
    sigma: float
    active_atoms: int
    nonzeros: int
    xi: float
    elapsed_s: float


@dataclasses.dataclass(slots=True, eq=False)
class Snapshot:
    """Iterate-level data kept when config.keep_snapshots is on."""

    t: int
    x: np.ndarray
    grad: np.ndarray
    active_ids: frozenset


class SolverState:
    """Mutable run state; t is the 1-based index of the current iterate."""

    def __init__(self, atomic_set, x0=None):
        d = atomic_set.dimension
        if x0 is None:
            x = np.zeros(d)
        else:
            x = np.array(x0, dtype=float)
            if x.shape != (d,):
                raise ContractViolationError(f"x0 must have shape ({d},)")
            if not np.all(np.isfinite(x)):
                raise ContractViolationError("x0 must be finite")
        self.x = x
        self.t = 1
        self.mask = atomic_set.full_mask()
        self.min_gap = math.inf
        self.trace = []
        self.screen_events = []
        self.snapshots = []
        self._aset = atomic_set
        self._ledger = {}
        self._ledger_scale = 1.0
        if np.any(x):
            # a nonzero start needs a conic witness so the ledger invariant
            # x == sum(coeffs * atoms) holds from the first record on
            _, witness = atomic_set.gauge_decomposition(x)
            self._ledger = {
                int(i): float(w) for i, w in enumerate(witness) if w > 0.0
            }
        # margins A x, kept incrementally by step (see _margins)
        self.ax = None
        self._smoothness = None
        self._started = time.perf_counter()

    @property
    def elapsed(self):
        return time.perf_counter() - self._started

    @property
    def coeffs(self):
        """Conic ledger as {atom_id: weight}, zero entries dropped."""
        scale = self._ledger_scale
        return {i: scale * w for i, w in self._ledger.items() if w > 0.0}

    @property
    def kappa_bound(self):
        """Upper bound on the gauge of x: the ledger sum, unless the set
        reads the gauge off x itself (see AtomicSet.iterate_gauge)."""
        gauge = self._aset.iterate_gauge(self.x)
        if gauge is not None:
            return gauge
        return self._ledger_scale * math.fsum(self._ledger.values())

    def reconstruct(self):
        """Rebuild x from the ledger (test hook for the state invariant)."""
        out = np.zeros(self._aset.dimension)
        for atom_id, weight in self.coeffs.items():
            out += weight * self._aset.atom_vector(atom_id)
        return out

    def _ledger_decay(self, theta):
        if theta == 1.0:
            self._ledger.clear()
            self._ledger_scale = 1.0
            return
        self._ledger_scale *= 1.0 - theta
        if self._ledger_scale < 1e-250:
            for key in self._ledger:
                self._ledger[key] *= self._ledger_scale
            self._ledger_scale = 1.0

    def _ledger_add(self, atom_id, amount):
        if amount != 0.0:
            raw = amount / self._ledger_scale
            self._ledger[atom_id] = self._ledger.get(atom_id, 0.0) + raw


class RunResult:
    """Final state plus everything recorded along the way.

    Iterating unpacks to (state, trace) for callers that only want those.
    """

    def __init__(self, loss, penalty, atomic_set, config, state):
        self.loss = loss
        self.penalty = penalty
        self.atomic_set = atomic_set
        self.config = config
        self.state = state
        self.trace = state.trace
        self.screen_events = state.screen_events
        self.snapshots = state.snapshots
        self.fingerprint = problem_fingerprint(loss, penalty, atomic_set)

    def __iter__(self):
        return iter((self.state, self.trace))


def problem_fingerprint(loss, penalty, atomic_set):
    """Stable hash of the problem triplet, for pairing runs with references.

    Hashes the pieces of the fingerprint bytes in turn: joining them would
    copy the data matrix, a transient of its full size on every run."""
    digest = hashlib.sha256()
    for part in loss.fingerprint_parts():
        digest.update(part)
    digest.update(penalty.fingerprint_bytes())
    for part in atomic_set.fingerprint_parts():
        digest.update(part)
    return digest.hexdigest()


class _Certificate:
    """Oracle answer and duality gap at one point.

    grad is A'v and _scores the oracle's (ids, values), as AtomicSet.oracle
    returns them: either may be None when the oracle did without it. xi and
    gap stay +inf, and error holds the abort to raise, when the support
    value is not finite or the step subproblem is unbounded.
    """

    __slots__ = (
        "v", "grad", "_scores", "atom_id", "sigma", "h_x", "xi", "image", "gap",
        "error", "_ax", "_h_xi",
    )

    def __init__(self, v, grad, scores, atom_id, sigma, h_x, ax):
        self.v = v
        self.grad = grad
        self._scores = scores
        self.atom_id = atom_id
        self.sigma = sigma
        self.h_x = h_x
        self.xi = math.inf
        self.image = None
        self.gap = math.inf
        self.error = None
        self._ax = ax
        self._h_xi = math.inf

    def scores(self, atomic_set, mask):
        """(ids, values) over mask, the mask the oracle ran over; enumerated
        here on first use when the oracle scored no atom."""
        if self._scores is None:
            self._scores = atomic_set.dots(-self.grad, mask)
        return self._scores

    def rounding(self):
        """Bound on the rounding error of a finite gap: the error of the
        length-n dot product v'(ax - A s) over margins that carry their own
        rounding, plus the penalty values. A gap within it has no sign.
        Reads the margins, so it holds only until the step moves them."""
        v = self.v
        scale = float(np.abs(v).sum()) * float(
            np.abs(self._ax).max() + np.abs(self.image).max()
        )
        return v.size * _EPS * (scale + self.h_x + self._h_xi)


def _at(state):
    return "" if state is None else f" at iteration {state.t}"


def certificate(loss, penalty, atomic_set, ax, kappa, state=None):
    """Oracle answer and duality gap at a point with margins ax = A x and
    gauge bound kappa, the one gap computation of the package.

    With v = link(ax) and grad = A'v, the target s = xi * atom has
    A s = xi * image(atom), so the gap -grad'(s - x) + h(x) - h(s) is
    computed as v'(ax - A s) + h(x) - h(xi) without A x. With no state the
    oracle runs over the full atom set; with the solver state it runs over
    state.mask. It scores the atoms at most once, keeps the scores for the
    screening rule, and takes the first maximum (see AtomicSet.oracle).
    """
    v = loss.link(ax)
    mask = None if state is None else state.mask
    grad, scores, (atom_id, sigma) = atomic_set.oracle(loss.data.features, v, mask)
    cert = _Certificate(v, grad, scores, atom_id, sigma, penalty.value(kappa), ax)
    if not math.isfinite(sigma):
        cert.error = DivergenceError(f"support value {sigma!r}{_at(state)}")
        return cert
    try:
        cert.xi = penalty.xi_step(sigma)
    except UnboundedStepError as err:
        cert.error = err
        return cert
    cert.image = cert.xi * atomic_set.image(loss.data.features, atom_id)
    if not math.isinf(cert.h_x):
        cert._h_xi = penalty.value(cert.xi)
        gap = float(v @ (ax - cert.image)) + cert.h_x - cert._h_xi
        # The gap is nonnegative by weak duality. A negative value within its
        # rounding error has no sign and reads as zero; a larger one is kept,
        # so corruption still shows.
        if -math.inf < gap < 0.0 and gap >= -cert.rounding():
            gap = 0.0
        if math.isnan(gap):
            cert.error = DivergenceError(f"gap is NaN{_at(state)}")
        cert.gap = gap
    return cert


def _margins(state, loss):
    """The incremental margins, re-synced to A x every _RESYNC_EVERY
    iterations."""
    if state.ax is None or state.t % _RESYNC_EVERY == 0:
        state.ax = loss.margins(state.x)
    return state.ax


def _record(state, t, objective, gap, sigma, xi):
    nonzeros = len(_screening.support_of(state.coeffs))
    state.trace.append(
        TraceRecord(
            t=t,
            objective=objective,
            gap=gap,
            min_gap=state.min_gap,
            sigma=sigma,
            active_atoms=state.mask.active_count,
            nonzeros=nonzeros,
            xi=xi,
            elapsed_s=state.elapsed,
        )
    )


def _snapshot(state, loss, t, v):
    ids = frozenset(int(i) for i in state.mask.active_ids())
    grad = loss.data.features.T @ v  # the full gradient, whatever the mask
    state.snapshots.append(Snapshot(t, state.x.copy(), grad, ids))


def _abort(state, loss, penalty, atomic_set, config, t, exc, sigma, xi, gap):
    """Append a diagnostic row for the failing iteration, then raise."""
    try:
        objective = loss.value(state.x) + penalty.value(state.kappa_bound)
    except (ContractViolationError, OverflowError):
        objective = math.nan
    _record(state, t, objective, gap, sigma, xi)
    exc.t = t
    exc.result = RunResult(loss, penalty, atomic_set, config, state)
    raise exc


def step(state, loss, penalty, atomic_set, config):
    """Advance one iteration in place; returns the same state."""
    t = state.t
    x = state.x
    ax = _margins(state, loss)
    cert = certificate(loss, penalty, atomic_set, ax, state.kappa_bound, state)
    if cert.error is not None:
        _abort(
            state, loss, penalty, atomic_set, config, t, cert.error,
            sigma=cert.sigma, xi=cert.xi, gap=cert.gap,
        )
    atom_id, sigma, xi, gap = cert.atom_id, cert.sigma, cert.xi, cert.gap
    if gap < state.min_gap:
        state.min_gap = gap

    if config.screening_enabled and t % config.screen_every == 0:
        if state._smoothness is None:
            state._smoothness = loss.smoothness_wrt(atomic_set)
        ids, values = cert.scores(atomic_set, state.mask)
        new_mask, report = _screening.apply_rule(
            state.mask, ids, values, sigma, gap, state._smoothness, t=t,
            rounding=cert.rounding,
        )
        if report.removed_ids:
            state.screen_events.append(report)
            if config.screening_mode == "prune-lmo":
                state.mask = new_mask

    if t == 1 or t % config.trace_every == 0:
        _record(state, t, loss.value(x) + cert.h_x, gap, sigma, xi)
        if config.keep_snapshots:
            _snapshot(state, loss, t, cert.v)

    theta = theta_schedule(config.step_schedule, t)
    grown = atomic_set.move(x, theta, xi, atom_id)
    ax *= 1.0 - theta
    ax += theta * cert.image
    state._ledger_decay(theta)
    state._ledger_add(atom_id, theta * xi)
    state.t = t + 1

    if t > 1 and grown is not None:
        # only x[grown] can grow (AtomicSet.move), the rest passed the check
        # a step ago; t = 1 checks all of x, as x0 is never checked
        peak = abs(float(x[grown]))
    else:
        peak = float(np.abs(x).max())
    if not math.isfinite(peak) or peak > _DIVERGENCE_LIMIT:
        new_inf = float(np.abs(x).max())
        _abort(
            state, loss, penalty, atomic_set, config, t,
            DivergenceError(
                f"iterate magnitude {new_inf!r} exceeded "
                f"{_DIVERGENCE_LIMIT:g} at iteration {t}"
            ),
            sigma=sigma, xi=xi, gap=gap,
        )
    return state


def _final_diagnostic(state, loss, penalty, atomic_set, config):
    """Evaluate the terminal iterate and append one last trace row."""
    t = state.t
    cert = certificate(
        loss, penalty, atomic_set, _margins(state, loss), state.kappa_bound, state
    )
    if cert.gap < state.min_gap:
        state.min_gap = cert.gap
    _record(state, t, loss.value(state.x) + cert.h_x, cert.gap, cert.sigma, cert.xi)
    if config.keep_snapshots:
        _snapshot(state, loss, t, cert.v)


def run(loss, penalty, atomic_set, config, x0=None):
    """Iterate until max_iters or min_gap <= gap_tolerance.

    The trace gets a row at t = 1, every trace_every-th iteration, and one
    final row for the terminal iterate (an extra gap evaluation, no update).
    Unbounded-step and divergence errors carry .t and a partial .result.
    """
    if config.screening_enabled or config.keep_snapshots:
        _check_enumerable(atomic_set)
    state = SolverState(atomic_set, x0=x0)
    while state.t <= config.max_iters:
        step(state, loss, penalty, atomic_set, config)
        if state.min_gap <= config.gap_tolerance:
            break
    _final_diagnostic(state, loss, penalty, atomic_set, config)
    return RunResult(loss, penalty, atomic_set, config, state)
