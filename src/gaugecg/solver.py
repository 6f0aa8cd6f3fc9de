"""Generalized conditional gradient iteration over an atomic set.

Each step works at the current iterate x: take z = -gradient(x), ask the
(mask-restricted) linear maximization oracle for the best atom and its
score sigma, solve the scalar subproblem xi = xi_step(sigma), and move to
the convex combination x <- (1 - theta) x + theta * xi * atom under a
pre-set schedule theta. Optional gap-safe screening shrinks the active
mask as atoms are certified out of the optimal support.

The state keeps the margins ax = A x alongside x and moves them with the
iterate, ax <- (1 - theta) ax + theta * A s; for the signed basis A s is
one scaled column of A, so the update costs O(n). The margins are re-synced
to A x every _RESYNC_EVERY iterations. Everything per iteration comes from
them: the loss link v with gradient = A'v, and the duality gap in the
margins form v'(ax - A s) + h(x) - h(xi), which equals the primal form
-grad'(s - x) + h(x) - h(s). The same function, certificate, gives the
full-set gap of the reference oracle. The loss value is computed only for
trace rows.

At most one score vector serves each step: the certificate's oracle
scores the active atoms, values <p, -grad>, takes the argmax atom from
them, and the screening rule reads the same pair. Once screening has
pruned a signed basis the scores come straight from the columns of A that
still carry an active atom, with no d-length gradient. At full mask a
signed basis or a hypercube answers from an implicit oracle and scores
the atoms only for a screening pass. The step then moves x and ax in
place: x *= 1 - theta, plus theta * xi * C at the one coordinate a
signed-basis atom touches, and ax *= 1 - theta, ax += theta * A s. Both
are bit-identical to the convex-combination formulas above. On a
signed-basis step after the first only that coordinate can grow, so the
divergence check reads it alone.

The conic coefficient ledger is kept as raw weights plus one global decay
multiplier, so the (1 - theta) rescale of every step is O(1).
"""

import hashlib
import math
import time

import numpy as np

from . import atoms as _atoms
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


class SolverConfig:
    """Knobs for a single run."""

    def __init__(
        self,
        max_iters=1000,
        gap_tolerance=0.0,
        step_schedule="2t1",
        screening_enabled=False,
        screening_mode="prune-lmo",
        screen_every=1,
        trace_every=1,
        keep_snapshots=False,
    ):
        if max_iters != int(max_iters) or max_iters < 1:
            raise ContractViolationError("max_iters must be an integer >= 1")
        if math.isnan(gap_tolerance) or gap_tolerance < 0:
            raise ContractViolationError("gap_tolerance must be >= 0")
        if step_schedule not in _SCHEDULES:
            raise ContractViolationError(
                f"step_schedule must be one of {_SCHEDULES}, got {step_schedule!r}"
            )
        if screening_mode not in _SCREEN_MODES:
            raise ContractViolationError(
                f"screening_mode must be one of {_SCREEN_MODES}, got {screening_mode!r}"
            )
        if screen_every != int(screen_every) or screen_every < 1:
            raise ContractViolationError("screen_every must be an integer >= 1")
        if trace_every != int(trace_every) or trace_every < 1:
            raise ContractViolationError("trace_every must be an integer >= 1")
        self.max_iters = int(max_iters)
        self.gap_tolerance = float(gap_tolerance)
        self.step_schedule = step_schedule
        self.screening_enabled = bool(screening_enabled)
        self.screening_mode = screening_mode
        self.screen_every = int(screen_every)
        self.trace_every = int(trace_every)
        self.keep_snapshots = bool(keep_snapshots)


class TraceRecord:
    """One monitored iteration; attribute names match the CSV columns."""

    __slots__ = (
        "t",
        "objective",
        "gap",
        "min_gap",
        "sigma",
        "active_atoms",
        "nonzeros",
        "xi",
        "elapsed_s",
    )

    def __init__(self, t, objective, gap, min_gap, sigma, active_atoms, nonzeros, xi, elapsed_s):
        self.t = t
        self.objective = objective
        self.gap = gap
        self.min_gap = min_gap
        self.sigma = sigma
        self.active_atoms = active_atoms
        self.nonzeros = nonzeros
        self.xi = xi
        self.elapsed_s = elapsed_s

    def __repr__(self):
        return (
            f"TraceRecord(t={self.t}, objective={self.objective:.6g}, "
            f"gap={self.gap:.6g}, min_gap={self.min_gap:.6g}, "
            f"active={self.active_atoms}, nonzeros={self.nonzeros})"
        )


class Snapshot:
    """Iterate-level data kept when config.keep_snapshots is on."""

    __slots__ = ("t", "x", "grad", "active_ids")

    def __init__(self, t, x, grad, active_ids):
        self.t = t
        self.x = x
        self.grad = grad
        self.active_ids = active_ids


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
        # (mask, coordinates, compact columns of A) for the active columns
        self._columns = None
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
        """Upper bound on the gauge of x: the ledger sum, tightened to the
        exact closed form for the signed basis."""
        if self._aset.kind == _atoms.SIGNED_BASIS:
            return float(np.abs(self.x).sum()) / self._aset.scale
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
    """Stable hash of the problem triplet, for pairing runs with references."""
    digest = hashlib.sha256()
    digest.update(loss.fingerprint_bytes())
    digest.update(penalty.fingerprint_bytes())
    digest.update(atomic_set.fingerprint_bytes())
    return digest.hexdigest()


class _Certificate:
    """Oracle answer and duality gap at one point.

    ids and values are the oracle's scores <p, -grad> over the active atoms,
    ids ascending; the screening rule reads the same pair. They stay None
    at full mask on a signed basis or a hypercube, whose implicit oracles
    score no atom, until scores() enumerates them. grad is A'v, None once
    a pruned signed basis scores straight from its active columns. xi and
    gap stay +inf, and error holds the abort to raise, when the support
    value is not finite or the step subproblem is unbounded.
    """

    __slots__ = (
        "v", "grad", "ids", "values", "atom_id", "sigma", "h_x", "xi", "image",
        "gap", "error",
    )

    def __init__(self, v, grad, ids, values, atom_id, sigma, h_x):
        self.v = v
        self.grad = grad
        self.ids = ids
        self.values = values
        self.atom_id = atom_id
        self.sigma = sigma
        self.h_x = h_x
        self.xi = math.inf
        self.image = None
        self.gap = math.inf
        self.error = None

    def scores(self, atomic_set, mask):
        """(ids, values) over mask, the mask the oracle ran over; enumerated
        here on first use when the oracle was the implicit one."""
        if self.ids is None:
            self.ids, self.values = atomic_set.dots(-self.grad, mask)
        return self.ids, self.values


def _active_scores(state, loss, atomic_set, v):
    """Scores <p, -grad> of the active atoms of a pruned signed basis.

    They come from a compact copy of the columns of A that an active atom
    touches, rebuilt when the mask changes: the value of atom +/-C e_k is
    -/+C * (A'v)_k, bit-identical to +/-C * (-grad)_k, and the other d
    entries of the gradient are never formed.
    """
    mask = state.mask
    if state._columns is None or state._columns[0] is not mask:
        state._columns = None  # free the old copy before building the new one
        ids = mask.active_ids()
        d = atomic_set.dimension
        cols = atomic_set.coordinates(ids)
        pos = np.searchsorted(cols, ids % d)
        neg_factor = np.where(ids < d, -atomic_set.scale, atomic_set.scale)
        state._columns = (mask, ids, pos, neg_factor, loss.data.features[:, cols])
    _, ids, pos, neg_factor, sub = state._columns
    return ids, neg_factor * (sub.T @ v)[pos]


def _at(state):
    return "" if state is None else f" at iteration {state.t}"


def certificate(loss, penalty, atomic_set, ax, kappa, state=None):
    """Oracle answer and duality gap at a point with margins ax = A x and
    gauge bound kappa, the one gap computation of the package.

    With v = link(ax) and grad = A'v, the target s = xi * atom has
    A s = xi * image(atom), so the gap -grad'(s - x) + h(x) - h(s) is
    computed as v'(ax - A s) + h(x) - h(xi) without A x. With no state the
    oracle runs over the full atom set; with the solver state it runs over
    state.mask. It scores the atoms once, keeps the scores for the
    screening rule, and takes the first maximum (see atoms.best_atom). A
    pruned signed basis scores only its active atoms, from their columns
    of A (see _active_scores); at full mask a signed basis or a hypercube
    takes the implicit oracle of AtomicSet.lmo and scores no atom.
    """
    v = loss.link(ax)
    mask = None if state is None else state.mask
    grad = ids = values = None
    if mask is not None and not mask.is_full and atomic_set.kind == _atoms.SIGNED_BASIS:
        ids, values = _active_scores(state, loss, atomic_set, v)
        atom_id, sigma = _atoms.best_atom(ids, values)
    else:
        grad = loss.data.features.T @ v
        if atomic_set.kind != _atoms.EXPLICIT and (mask is None or mask.is_full):
            atom_id, sigma = atomic_set.lmo(-grad)
        else:
            ids, values = atomic_set.dots(-grad, mask)
            atom_id, sigma = _atoms.best_atom(ids, values)
    cert = _Certificate(v, grad, ids, values, atom_id, sigma, penalty.value(kappa))
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
        h_xi = penalty.value(cert.xi)
        gap = float(v @ (ax - cert.image)) + cert.h_x - h_xi
        if -math.inf < gap < 0.0:
            # The gap is nonnegative by weak duality. A negative value within
            # the rounding error of this evaluation (a length-n dot product
            # over margins that carry their own rounding) has no sign and
            # reads as zero; a larger one is kept, so corruption still shows.
            scale = float(np.abs(v).sum()) * float(
                np.abs(ax).max() + np.abs(cert.image).max()
            )
            if gap >= -v.size * _EPS * (scale + cert.h_x + h_xi):
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


def _move(x, atomic_set, theta, xi, atom_id):
    """x <- (1 - theta) x + theta * xi * atom, in place and bit-identical to
    that formula. For the signed basis only x_k meets a nonzero atom entry;
    every other entry gets the formula's zero term theta * (xi * 0), which
    turns a -0 into +0 as the formula does."""
    if atomic_set.kind != _atoms.SIGNED_BASIS:
        x *= 1.0 - theta
        x += theta * (xi * atomic_set.atom_vector(atom_id))
        return
    d = atomic_set.dimension
    k = atom_id % d
    entry = atomic_set.scale if atom_id < d else -atomic_set.scale
    x_k = x[k]
    x *= 1.0 - theta
    x += theta * (xi * 0.0)
    x[k] = (1.0 - theta) * x_k + theta * (xi * entry)


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
    _move(x, atomic_set, theta, xi, atom_id)
    ax *= 1.0 - theta
    ax += theta * cert.image
    state._ledger_decay(theta)
    state._ledger_add(atom_id, theta * xi)
    state.t = t + 1

    if t > 1 and atomic_set.kind == _atoms.SIGNED_BASIS:
        # only x_k can grow (see _move), and every other entry passed the
        # check a step ago; t = 1 checks all of x, as x0 is never checked
        peak = abs(float(x[atom_id % atomic_set.dimension]))
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
    if (config.screening_enabled or config.keep_snapshots) and not atomic_set.enumerable:
        # both list active atom ids: refuse before the first step, not in it
        raise ContractViolationError(
            f"screening and snapshots need an enumerable atomic set; "
            f"{atomic_set!r} is too large to enumerate"
        )
    state = SolverState(atomic_set, x0=x0)
    while state.t <= config.max_iters:
        step(state, loss, penalty, atomic_set, config)
        if state.min_gap <= config.gap_tolerance:
            break
    _final_diagnostic(state, loss, penalty, atomic_set, config)
    return RunResult(loss, penalty, atomic_set, config, state)
