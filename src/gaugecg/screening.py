"""Gap-safe screening: prune atoms certified absent from the optimal support.

The rule is evaluated at the current iterate from a duality-gap certificate:
an active atom p is removed when sigma + p'grad > 2*sqrt(L*gap), where sigma
is the support value of -grad over the active mask and L the curvature
constant of the loss over the set's own atoms (the symmetrized set gives
the same constant); a gap below its rounding bound is raised to the bound
(see apply_rule). The atom that
achieves sigma scores exactly zero and is additionally protected outright.
The scores are not recomputed here: the certificate's linear oracle has
already scored every active atom, values <p, -grad>, and the rule takes
sigma - values (negation is exact, so this is sigma + p'grad to the bit).

Also here: the degeneracy margin delta of a reference solution, support
extraction from a coefficient ledger, the JSON support certificate, and
the one JSON writer and reader that it and the reference solution share.
"""

import dataclasses
import json
import math

import numpy as np

from .errors import CertificateCorruptionError, ContractViolationError, _checked, _index, _real


@dataclasses.dataclass(slots=True)
class ScreenReport:
    """Outcome of one screening pass; field names and order are the
    screen CSV columns."""

    t: int
    removed_ids: list
    threshold: float
    sigma: float
    remaining: int

    def __repr__(self):
        return (
            f"ScreenReport(t={self.t}, removed={len(self.removed_ids)}, "
            f"threshold={self.threshold:.6g}, remaining={self.remaining})"
        )


def apply_rule(mask, ids, values, sigma, gap, L, t=None, rounding=None):
    """Apply the screening rule once: deactivate the removed ids on mask, in
    place; returns (mask, report).

    Inputs must come from one consistent certificate: ids and values the
    oracle's scores <p, -grad> of the atoms active in `mask`, sigma their
    maximum (the support value), gap the duality gap at the same iterate,
    L the smoothness constant. The rule scores are sigma - values, so the
    pass makes no inner products of its own. When no score exceeds the
    radius it returns at once, with an empty report.

    rounding, when given, returns the rounding bound b of gap. It is
    called only when some score exceeds the radius, and the pass then
    removes at the radius 2*sqrt(L*max(gap, b)): a gap within rounding of
    zero (an exact optimum reads 0) certifies nothing, and at radius 0 the
    support atoms, which score 0 only up to rounding, would go.

    Why the radius is safe. Let v = link(A x), v* the same at a solution,
    beta the curvature bound of the link (1/(4n) logistic, 1 quadratic),
    G = AtomicSet.gram_bound and L = beta*G, q the oracle's atom:
    (1) gap is the primal-dual gap at v, whose two parts each are at least
        |v - v*|^2/(2*beta), so |v - v*| <= sqrt(beta*gap);
    (2) an atom p of the optimal support has <A(p - q), v*> <= 0, so its
        score sigma - <p, -grad> = <A(p - q), v> <= <A(p - q), v - v*>
        <= |A(p - q)|*sqrt(beta*gap) <= 2*sqrt(L*gap), as |A(p - q)| <= 2*sqrt(G).
    A pruned mask keeps this: its gap is that of the problem restricted to
    the atoms left, which has the same solution.
    """
    if not (math.isfinite(L) and L > 0):
        raise ContractViolationError(f"smoothness constant must be finite positive, got {L!r}")
    if gap < -1e-10 * (1.0 + abs(sigma)):
        raise CertificateCorruptionError(
            f"negative duality gap {gap!r} at iteration {t}; refusing to screen"
        )
    gap = max(gap, 0.0)
    threshold = _radius(L, gap)
    # rounding is monotone, so sigma - min(values) is max(sigma - values)
    if not values.size or sigma - values.min() <= threshold:
        return mask, ScreenReport(t, [], threshold, sigma, mask.active_count)
    if rounding is not None:
        floor = rounding()
        if floor > gap:
            threshold = _radius(L, floor)
    scores = sigma - values
    keep_id = ids[int(np.argmin(scores))]
    removable = (scores > threshold) & (ids != keep_id)
    removed = [int(i) for i in ids[removable]]
    if removed:
        mask.deactivate(removed)
    return mask, ScreenReport(t, removed, threshold, sigma, mask.active_count)


def _radius(L, gap):
    """The screening radius 2*sqrt(L*gap) at a gap >= 0 (see apply_rule)."""
    return 2.0 * math.sqrt(L * gap)


def delta(atomic_set, grad_star, support_ids):
    """Degeneracy margin of a reference solution.

    The minimum of sigma + p'grad_star over atoms p outside the support,
    with sigma the support value of -grad_star over the full set. Positive
    delta separates the support; zero flags a degenerate instance; +inf
    means every atom is in the support (nothing to screen). An id outside
    0..num_atoms-1 is refused.
    """
    _, dots = atomic_set.dots(grad_star)  # every atom's, by id
    support = _checked(lambda s: [_index(i) for i in s], support_ids,
                       lambda s: all(0 <= i < dots.size for i in s),
                       f"support ids must be atom ids in 0..{dots.size - 1}")
    sigma_star = float((-dots).max())
    outside = np.ones(dots.size, dtype=bool)
    outside[support] = False
    if not outside.any():
        return math.inf
    value = sigma_star + float(dots[outside].min())
    return max(value, 0.0)


def support_of(coeffs):
    """Atom ids whose weight in coeffs, {atom id: real}, exceeds 1e-6 times the largest."""
    return _support_of(_checked(
        lambda c: {_index(i): _real(w) for i, w in dict(c).items()}, coeffs,
        lambda c: True, "coeffs must map atom ids to real weights",
    ))


def _support_of(coeffs):  # support_of on the solver's own ledger, unchecked
    if not coeffs:
        return set()
    top = max(coeffs.values())
    if top <= 0.0:
        return set()
    cut = 1e-6 * top
    return {i for i, w in coeffs.items() if w > cut}


def _record_json(record):
    """A dataclass record as JSON text: sorted keys, arrays as float lists,
    id sets sorted, and non-finite floats as their repr ("inf", "nan"),
    which json has no literal for; the records' float conversions read
    them back, and also the Infinity and NaN that json itself writes."""

    def encode(value):
        if isinstance(value, np.ndarray):
            return [encode(float(v)) for v in value]
        if isinstance(value, (set, frozenset)):
            return sorted(value)
        if isinstance(value, float) and not math.isfinite(value):
            return repr(value)
        return value

    fields = dataclasses.fields(record)
    return json.dumps({f.name: encode(getattr(record, f.name)) for f in fields}, sort_keys=True)


def _record_from_json(cls, text):
    """Read text written by _record_json into the record class cls. Text
    that is not JSON, or not an object with exactly the record's fields, is
    refused, and so is a field that the record's checks refuse."""
    names = {f.name for f in dataclasses.fields(cls)}
    fields = _checked(
        json.loads, text, lambda f: isinstance(f, dict) and set(f) == names,
        f"not a {cls.__name__}: need a JSON object with {sorted(names)}",
    )
    return cls(**fields)


@dataclasses.dataclass
class SupportCertificate:
    """Identified-support claim with the quantities that justify it."""

    support_ids: frozenset
    delta: float
    identified_at: int | None
    L: float
    min_gap: float

    def __post_init__(self):
        self.support_ids = _checked(
            lambda ids: frozenset(_index(i) for i in ids), self.support_ids,
            lambda ids: True, "support_ids must be atom ids",
        )
        self.delta = _checked(_real, self.delta, lambda v: not v < 0, "delta must be nonnegative")
        if self.identified_at is not None:
            self.identified_at = _checked(
                _index, self.identified_at, lambda t: True, "identified_at must be an iteration"
            )
        self.L, self.min_gap = (
            _checked(_real, v, lambda v: True, "L and min_gap must be reals")
            for v in (self.L, self.min_gap)
        )

    to_json = _record_json
    from_json = classmethod(_record_from_json)
