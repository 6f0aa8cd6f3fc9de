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
scores of the run's oracle, which the atomic set chooses once per state
and screening setting (AtomicSet._run_oracle). A step that does not screen
reads only the oracle's answer, so on large data the signed basis gives it
from a certified window of columns, without forming A'v (atoms._Window).
The step moves x (AtomicSet.move) and ax in place, bit-identical to the
formulas above.

The conic coefficient ledger is kept as raw weights plus one global decay
multiplier, so the (1 - theta) rescale of every step is O(1).

A run is a loop of step, the one place that observes an iterate. A step
past max_iters, or at a gap within gap_tolerance, records the final row
and does not move: the run returns the iterate its last row certifies.
"""

import dataclasses
import functools
import hashlib
import math
import time

import numpy as np

from . import atoms as _atoms, losses as _losses, penalties as _penalties
from . import screening as _screening
from .errors import (
    ContractViolationError,
    DivergenceError,
    UnboundedStepError,
    _checked,
    _index,
    _real,
)

_SCHEDULES = ("2t1", "4t2")
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
    return _theta(schedule, _checked(_index, t, lambda t: t >= 1, "t must be an integer >= 1"))


def _theta(schedule, t):  # theta_schedule at the solver's own t, unchecked
    if schedule == "2t1":
        return 2.0 / (t + 1.0)
    if schedule == "4t2":
        return min(1.0, 4.0 / (t + 2.0))
    raise ContractViolationError(f"unknown step schedule {schedule!r}")


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
    trace_every: int = 1
    keep_snapshots: bool = False

    def __post_init__(self):
        for name in ("max_iters", "trace_every"):
            count = _checked(
                _index, getattr(self, name), lambda k: k >= 1, f"{name} must be an integer >= 1"
            )
            setattr(self, name, count)
        self.gap_tolerance = _checked(
            _real, self.gap_tolerance, lambda tol: tol >= 0, "gap_tolerance must be a real >= 0"
        )
        if self.step_schedule not in _SCHEDULES:
            raise ContractViolationError(
                f"step_schedule must be one of {_SCHEDULES}, got {self.step_schedule!r}"
            )
        for name in ("screening_enabled", "keep_snapshots"):
            # bool("no") is True, so anything but a bool is refused
            if not isinstance(getattr(self, name), bool):
                raise ContractViolationError(f"{name} must be True or False")


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
    """A traced iterate and the atoms its run claims there (claimed_ids)."""

    t: int
    x: np.ndarray
    active_ids: frozenset


class SolverState:
    """Mutable run state; t is the 1-based index of the current iterate."""

    def __init__(self, atomic_set, x0=None):
        _checked(lambda a: a, atomic_set, lambda a: isinstance(a, _atoms.AtomicSet),
                 "a state needs an AtomicSet")
        d = atomic_set.dimension
        if x0 is None:
            x = np.zeros(d)
        else:
            x = _checked(
                lambda a: np.array(a, dtype=float), x0, lambda a: a.shape == (d,),
                f"x0 must be a real vector of shape ({d},)",
            )
            if not np.all(np.isfinite(x)):
                raise ContractViolationError("x0 must be finite")
        self.x = x
        self.t = 1
        self.mask = atomic_set.full_mask()
        self.min_gap = math.inf
        self.trace = []
        self.screen_events = []
        self.snapshots = []
        self._claimed = frozenset()  # see claimed_ids
        self._oracles = {}  # the run's oracle per screening setting, see step
        self._aset = atomic_set
        self._ledger = {}
        self._ledger_scale = 1.0
        if x.any():
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
    """Final state plus everything recorded along the way. aborted marks an
    abort's partial result, whose last trace row is the diagnostic row."""

    def __init__(self, loss, penalty, atomic_set, config, state, aborted=False):
        self.loss = loss
        self.penalty = penalty
        self.atomic_set = atomic_set
        self.config = config
        self.state = state
        self.trace = state.trace
        self.screen_events = state.screen_events
        self.snapshots = state.snapshots
        self.aborted = aborted

    @functools.cached_property
    def fingerprint(self):
        # hashes the whole data matrix, so only on first read
        return problem_fingerprint(self.loss, self.penalty, self.atomic_set)


def _check_problem(*problem):
    """Refuse a loss, penalty, atomic set or config of another type; step does not."""
    kinds = (_losses._Loss, _penalties.Penalty, _atoms.AtomicSet, SolverConfig)
    for kind, value in zip(kinds, problem):
        if not isinstance(value, kind):
            raise ContractViolationError(f"expected a {kind.__name__.lstrip('_')}, got {value!r}")


def problem_fingerprint(loss, penalty, atomic_set):
    """Stable hash of the problem triplet, for pairing runs with references.

    Hashes the fingerprint pieces of the three in turn: joining them would
    copy the data matrix, a transient of its full size on every run."""
    _check_problem(loss, penalty, atomic_set)
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


def certificate(loss, penalty, atomic_set, ax, kappa, state=None, oracle=None):
    """Oracle answer and duality gap at a point with margins ax = A x and
    gauge bound kappa, the one gap computation of the package.

    With v = link(ax) and grad = A'v, the target s = xi * atom has
    A s = xi * image(atom), so the gap -grad'(s - x) + h(x) - h(s) is
    computed as v'(ax - A s) + h(x) - h(xi) without A x. With no state the
    oracle runs over the full atom set; with the solver state it runs over
    state.mask. oracle is the run's (AtomicSet._run_oracle), else the
    stateless AtomicSet.oracle answers. It scores the atoms at most once,
    keeps the scores for the screening rule, and takes the first maximum;
    one with an image method also forms that atom's image. The penalty
    takes kappa >= 0, sigma and xi unchecked: they are the solver's floats.
    """
    v = loss.link(ax)
    mask = None if state is None else state.mask
    if oracle is None:
        oracle = functools.partial(atomic_set.oracle, loss.data.features)
    grad, scores, (atom_id, sigma) = oracle(v, mask)
    cert = _Certificate(v, grad, scores, atom_id, sigma, penalty._value(kappa), ax)
    if not math.isfinite(sigma):
        cert.error = DivergenceError(f"support value {sigma!r}{_at(state)}")
        return cert
    try:
        cert.xi = penalty._xi_step(sigma) if sigma > 0 else 0.0
    except UnboundedStepError as err:
        cert.error = err
        return cert
    image = getattr(oracle, "image", None)
    if image is None:
        cert.image = cert.xi * atomic_set._image(loss.data.features, atom_id)
    else:
        cert.image = image(atom_id, cert.xi)
    if math.isinf(cert.h_x):
        # kappa at step t came through t - 1 moves of at most 3 roundings each
        # (to (1 - theta) kappa + theta xi, in x or the ledger) and a final sum
        # of d terms, so it passes the exact recursion's by < (3t + d) eps kappa
        if state is not None:
            rounding = (3 * state.t + atomic_set.dimension) * _EPS * kappa
            cert.h_x = penalty._value_rounded(kappa, rounding)
        if math.isinf(cert.h_x):
            return cert
    cert._h_xi = penalty._value(cert.xi)
    gap = float(np.dot(v, ax - cert.image)) + cert.h_x - cert._h_xi  # @'s bits, less overhead
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


def claimed_ids(state, screened, support=None):
    """The atoms a run claims, one frozenset while they stay: the active atoms
    of a screened run's mask, else the ledger support (given, or support_of)."""
    last = state._claimed
    if not screened:
        support = _screening._support_of(state.coeffs) if support is None else support
        state._claimed = last if support == last else frozenset(support)
    elif len(last) != state.mask.active_count:  # the mask only shrinks
        # the last set less the atoms it lost shares the last set's ints
        active = state.mask.active_ids().tolist()
        state._claimed = last - last.difference(active) if last else frozenset(active)
    return state._claimed


def _record(state, t, objective, gap, sigma, xi):
    support = _screening._support_of(state.coeffs)  # returned for claimed_ids
    state.trace.append(
        TraceRecord(
            t=t,
            objective=objective,
            gap=gap,
            min_gap=state.min_gap,
            sigma=sigma,
            active_atoms=state.mask.active_count,
            nonzeros=len(support),
            xi=xi,
            elapsed_s=state.elapsed,
        )
    )
    return support


def _abort(state, loss, penalty, atomic_set, config, t, exc, sigma, xi, gap):
    """Append a diagnostic row for the failing iteration, then raise."""
    try:
        objective = loss.value(state.x) + penalty.value(state.kappa_bound)
    except (ContractViolationError, OverflowError):
        objective = math.nan
    _record(state, t, objective, gap, sigma, xi)
    exc.t = t
    exc.result = RunResult(loss, penalty, atomic_set, config, state, aborted=True)
    raise exc


def step(state, loss, penalty, atomic_set, config):
    """Observe the iterate at state.t and move to t + 1 in place; returns
    the same state. The observation is the certificate, min_gap, a screening
    pass while t <= max_iters, and the trace row. A step past max_iters, or
    at a gap within gap_tolerance, records the final row and does not move."""
    t = state.t
    x = state.x
    ax = _margins(state, loss)
    screened = config.screening_enabled
    oracle = state._oracles.get(screened)
    if oracle is None:  # sharing the column copy of the other setting's oracle
        oracle = state._oracles[screened] = atomic_set._run_oracle(
            loss.data.features, screened, state._oracles.get(not screened))
    kappa = atomic_set.iterate_gauge(x)  # kappa_bound without its hop
    kappa = state.kappa_bound if kappa is None else kappa
    cert = certificate(loss, penalty, atomic_set, ax, kappa, state, oracle)
    if cert.error is not None:
        _abort(
            state, loss, penalty, atomic_set, config, t, cert.error,
            sigma=cert.sigma, xi=cert.xi, gap=cert.gap,
        )
    atom_id, sigma, xi, gap = cert.atom_id, cert.sigma, cert.xi, cert.gap
    if gap < state.min_gap:
        state.min_gap = gap
    last = t > config.max_iters or gap <= config.gap_tolerance

    if screened and t <= config.max_iters:
        L = state._smoothness
        if L is None:
            L = state._smoothness = loss.smoothness_wrt(atomic_set)
        ids, values = cert.scores(atomic_set, state.mask)
        # the rule runs where a score passes the radius, or to refuse gap or L;
        # values[values.argmin()] is values.min(), NaN too, at a third of its cost
        radius = _screening._radius(L, gap) if gap >= 0.0 and 0.0 < L < math.inf else math.nan
        if not sigma - values[values.argmin()] <= radius:
            _, report = _screening.apply_rule(
                state.mask, ids, values, sigma, gap, L, t=t, rounding=cert.rounding
            )
            if report.removed_ids:
                state.screen_events.append(report)

    if last or t == 1 or t % config.trace_every == 0:
        support = _record(state, t, loss.value(x) + cert.h_x, gap, sigma, xi)
        if config.keep_snapshots:
            state.snapshots.append(Snapshot(t, x.copy(), claimed_ids(state, screened, support)))
    if last:
        return state

    theta = _theta(config.step_schedule, t)
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


def run(loss, penalty, atomic_set, config, x0=None):
    """Step until a step does not move: past max_iters, or at the first
    iterate whose gap is <= gap_tolerance, the iterate returned.

    The trace gets a row at t = 1, every trace_every-th iteration, and one
    final row, the certificate of the returned iterate.
    Unbounded-step and divergence errors carry .t and a partial .result.
    A numpy overflow on the way raises no warning: it leads to the abort.
    """
    _check_problem(loss, penalty, atomic_set, config)
    if config.screening_enabled or config.keep_snapshots:
        _check_enumerable(atomic_set)
    state = SolverState(atomic_set, x0=x0)
    t = None
    with np.errstate(over="ignore", invalid="ignore"):
        while state.t != t:
            t = state.t
            step(state, loss, penalty, atomic_set, config)
    return RunResult(loss, penalty, atomic_set, config, state)
