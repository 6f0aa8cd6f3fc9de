"""Gap-safe screening: prune atoms certified absent from the optimal support.

The rule is evaluated at the current iterate from a duality-gap certificate:
an active atom p is removed when sigma + p'grad > 2*sqrt(L*gap), where sigma
is the support value of -grad over the active mask and L the curvature
constant of the loss relative to the symmetrized atomic set. The atom that
achieves sigma scores exactly zero and is additionally protected outright.

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


def apply_rule(mask, atomic_set, grad, sigma, gap, L, t=None):
    """Apply the screening rule once; returns (mask, report).

    Inputs must come from one consistent certificate: sigma the support value
    of -grad over `mask`, gap the duality gap at the same iterate, L the
    smoothness constant. Only the entries of grad that active atoms touch
    are read. The incoming mask is not modified: the returned mask is a
    pruned copy when the pass removes atoms and the incoming mask itself
    when it removes none.
    """
    if not (math.isfinite(L) and L > 0):
        raise ContractViolationError(f"smoothness constant must be finite positive, got {L!r}")
    if gap < -1e-10 * (1.0 + abs(sigma)):
        raise CertificateCorruptionError(
            f"negative duality gap {gap!r} at iteration {t}; refusing to screen"
        )
    gap = max(gap, 0.0)
    threshold = 2.0 * math.sqrt(L * gap)
    if mask.active_count == 0:
        return mask, ScreenReport(t, [], threshold, sigma, 0)
    ids, dots = atomic_set.dots(grad, mask)
    scores = sigma + dots
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
