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
extraction from a coefficient ledger, and the JSON support certificate.
"""

import json
import math

import numpy as np

from .errors import CertificateCorruptionError, ContractViolationError


class ScreenReport:
    """Outcome of one screening pass."""

    __slots__ = ("t", "removed_ids", "threshold", "sigma", "remaining")

    def __init__(self, t, removed_ids, threshold, sigma, remaining):
        self.t = t
        self.removed_ids = removed_ids
        self.threshold = threshold
        self.sigma = sigma
        self.remaining = remaining

    def __repr__(self):
        return (
            f"ScreenReport(t={self.t}, removed={len(self.removed_ids)}, "
            f"threshold={self.threshold:.6g}, remaining={self.remaining})"
        )


def apply_rule(mask, ids, values, sigma, gap, L, t=None, rounding=None):
    """Apply the screening rule once; returns (mask, report).

    Inputs must come from one consistent certificate: ids and values the
    oracle's scores <p, -grad> of the atoms active in `mask`, sigma their
    maximum (the support value), gap the duality gap at the same iterate,
    L the smoothness constant. The rule scores are sigma - values, so the
    pass makes no inner products of its own. The incoming mask is not
    modified: the returned mask is a pruned copy when the pass removes
    atoms and the incoming mask itself when it removes none; when no score
    exceeds the radius it returns at once, with an empty report.

    rounding, when given, returns the rounding bound b of gap. It is
    called only when some score exceeds the radius, and the pass then
    removes at the radius 2*sqrt(L*max(gap, b)): a gap within rounding of
    zero (an exact optimum reads 0) certifies nothing, and at radius 0 the
    support atoms, which score 0 only up to rounding, would go.
    """
    if not (math.isfinite(L) and L > 0):
        raise ContractViolationError(f"smoothness constant must be finite positive, got {L!r}")
    if gap < -1e-10 * (1.0 + abs(sigma)):
        raise CertificateCorruptionError(
            f"negative duality gap {gap!r} at iteration {t}; refusing to screen"
        )
    gap = max(gap, 0.0)
    threshold = 2.0 * math.sqrt(L * gap)
    # rounding is monotone, so sigma - min(values) is max(sigma - values)
    if not values.size or sigma - values.min() <= threshold:
        return mask, ScreenReport(t, [], threshold, sigma, mask.active_count)
    if rounding is not None:
        floor = rounding()
        if floor > gap:
            threshold = 2.0 * math.sqrt(L * floor)
    scores = sigma - values
    keep_id = ids[int(np.argmin(scores))]
    removable = (scores > threshold) & (ids != keep_id)
    removed = [int(i) for i in ids[removable]]
    if removed:
        mask = mask.copy()
        mask.deactivate(removed)
    return mask, ScreenReport(t, removed, threshold, sigma, mask.active_count)


def delta(atomic_set, grad_star, support_ids):
    """Degeneracy margin of a reference solution.

    The minimum of sigma + p'grad_star over atoms p outside the support,
    with sigma the support value of -grad_star over the full set. Positive
    delta separates the support; zero flags a degenerate instance; +inf
    means every atom is in the support (nothing to screen).
    """
    grad_star = np.asarray(grad_star, dtype=float)
    ids, dots = atomic_set.dots(grad_star)
    sigma_star = float(np.max(-dots))
    outside = ~np.isin(ids, list(support_ids))
    if not np.any(outside):
        return math.inf
    value = sigma_star + float(np.min(dots[outside]))
    return max(value, 0.0)


def support_of(coeffs, relative_tol=1e-6):
    """Atom ids whose ledger weight exceeds relative_tol times the largest."""
    if relative_tol < 0:
        raise ContractViolationError("relative_tol must be nonnegative")
    if not coeffs:
        return set()
    top = max(coeffs.values())
    if top <= 0.0:
        return set()
    cut = relative_tol * top
    return {i for i, w in coeffs.items() if w > cut}


class SupportCertificate:
    """Identified-support claim with the quantities that justify it."""

    def __init__(self, support_ids, delta, identified_at, L, min_gap):
        if delta < 0:
            raise ContractViolationError("delta must be nonnegative")
        self.support_ids = frozenset(int(i) for i in support_ids)
        self.delta = float(delta)
        self.identified_at = None if identified_at is None else int(identified_at)
        self.L = float(L)
        self.min_gap = float(min_gap)

    def __eq__(self, other):
        if not isinstance(other, SupportCertificate):
            return NotImplemented
        return (
            self.support_ids == other.support_ids
            and self.delta == other.delta
            and self.identified_at == other.identified_at
            and self.L == other.L
            and self.min_gap == other.min_gap
        )

    def to_json(self):
        def enc(v):
            return repr(v) if isinstance(v, float) and not math.isfinite(v) else v

        payload = {
            "support_ids": sorted(self.support_ids),
            "delta": enc(self.delta),
            "identified_at": self.identified_at,
            "L": enc(self.L),
            "min_gap": enc(self.min_gap),
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        raw = json.loads(text)

        def dec(v):
            return float(v) if isinstance(v, str) else v

        return cls(
            support_ids=raw["support_ids"],
            delta=dec(raw["delta"]),
            identified_at=raw["identified_at"],
            L=dec(raw["L"]),
            min_gap=dec(raw["min_gap"]),
        )
