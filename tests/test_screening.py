"""Screening rule against a brute-force oracle, the degeneracy margin, and
the support certificate."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gaugecg as gc
from gaugecg.errors import CertificateCorruptionError, ContractViolationError
from gaugecg.screening import ScreenReport, apply_rule, delta, support_of


def brute_removals(atoms, active, grad, sigma, gap, L):
    """Independent evaluation: remove active p with sigma + p'grad beyond the
    radius, never the score minimizer."""
    threshold = 2.0 * math.sqrt(L * max(gap, 0.0))
    scores = {i: sigma + float(atoms[i] @ grad) for i in active}
    keeper = min(active, key=lambda i: (scores[i], i))
    return {i for i in active if scores[i] > threshold and i != keeper}


def make_set(rng, d=5, count=8):
    half = rng.standard_normal((count, d))
    half /= np.linalg.norm(half, axis=1, keepdims=True)
    atoms = np.vstack([half, -half])
    return gc.AtomicSet.explicit(atoms), atoms


@settings(max_examples=60)
@given(seed=st.integers(0, 10**6), gap=st.floats(0.0, 10.0))
def test_rule_matches_brute_force(seed, gap):
    rng = np.random.default_rng(seed)
    aset, atoms = make_set(rng)
    grad = rng.standard_normal(5)
    mask = aset.full_mask()
    ids, dots = aset.dots(-grad, mask)
    sigma = float(np.max(dots))
    L = float(rng.uniform(0.1, 5.0))

    new_mask, report = apply_rule(mask, aset, grad, sigma, gap, L, t=3)
    expected = brute_removals(atoms, list(ids), grad, sigma, gap, L)

    assert set(report.removed_ids) == expected
    assert new_mask.active_count == len(atoms) - len(expected)
    assert report.remaining == new_mask.active_count
    for i in expected:
        assert not new_mask.is_active(i)
    # the original mask is untouched
    assert mask.active_count == len(atoms)


def test_achiever_survives_zero_gap():
    # gap = 0 collapses the radius; everyone scores positive except the
    # achiever at exactly zero, which is kept
    aset = gc.AtomicSet.signed_basis(3)
    grad = np.array([-2.0, 1.0, 0.5])
    ids, dots = aset.dots(-grad)
    sigma = float(np.max(dots))
    mask, report = apply_rule(aset.full_mask(), aset, grad, sigma, 0.0, 1.0)
    assert mask.active_count == 1
    assert report.threshold == 0.0
    survivor = next(i for i in range(6) if mask.is_active(i))
    assert dots[survivor] == sigma


def test_zero_score_ties_are_not_removed():
    # scores sit exactly at the threshold boundary when grad = 0: keep all
    aset = gc.AtomicSet.signed_basis(2)
    grad = np.zeros(2)
    incoming = aset.full_mask()
    mask, report = apply_rule(incoming, aset, grad, 0.0, 0.0, 1.0)
    assert mask.active_count == 4
    assert report.removed_ids == []
    assert mask is incoming  # nothing removed, nothing copied


def test_small_negative_gap_is_clamped():
    aset = gc.AtomicSet.signed_basis(2)
    grad = np.array([-1.0, 0.0])
    mask, report = apply_rule(aset.full_mask(), aset, grad, 1.0, -5e-11, 1.0)
    assert report.threshold == 0.0
    assert mask.active_count == 1


def test_negative_gap_beyond_tolerance_raises():
    aset = gc.AtomicSet.signed_basis(2)
    grad = np.array([-1.0, 0.0])
    with pytest.raises(CertificateCorruptionError):
        apply_rule(aset.full_mask(), aset, grad, 1.0, -1e-6, 1.0, t=17)


def test_negative_gap_tolerance_scales_with_sigma():
    aset = gc.AtomicSet.signed_basis(2)
    grad = np.array([-1e6, 0.0])
    sigma = 1e6
    # -5e-5 is within 1e-10 * (1 + sigma) of zero here
    mask, _ = apply_rule(aset.full_mask(), aset, grad, sigma, -5e-5, 1.0)
    assert mask.active_count >= 1


@pytest.mark.parametrize("L", [0.0, -1.0, math.inf, math.nan])
def test_bad_smoothness_constant(L):
    aset = gc.AtomicSet.signed_basis(2)
    with pytest.raises(ContractViolationError):
        apply_rule(aset.full_mask(), aset, np.zeros(2), 0.0, 1.0, L)


def test_rule_on_empty_mask():
    aset = gc.AtomicSet.signed_basis(2)
    mask = aset.full_mask()
    mask.deactivate(range(4))
    new_mask, report = apply_rule(mask, aset, np.zeros(2), 0.0, 1.0, 1.0)
    assert new_mask.active_count == 0
    assert report.removed_ids == []
    assert report.remaining == 0


def test_rule_respects_incoming_mask():
    # an already-inactive atom cannot be "removed" again
    aset = gc.AtomicSet.signed_basis(3)
    mask = aset.full_mask()
    mask.deactivate([1, 4])
    grad = np.array([-3.0, 0.0, 0.1])
    ids, dots = aset.dots(-grad, mask)
    sigma = float(np.max(dots))
    new_mask, report = apply_rule(mask, aset, grad, sigma, 1e-8, 2.0)
    assert 1 not in report.removed_ids and 4 not in report.removed_ids
    assert new_mask.active_count == 1


def test_report_repr_mentions_counts():
    report = ScreenReport(5, [1, 2], 0.25, 1.0, 7)
    text = repr(report)
    assert "removed=2" in text and "remaining=7" in text


# ----------------------------------------------------------- degeneracy margin


def brute_delta(atoms, grad_star, support_ids):
    dots = atoms @ grad_star
    sigma = max(-dots)
    outside = [i for i in range(len(atoms)) if i not in support_ids]
    if not outside:
        return math.inf
    return max(sigma + min(dots[i] for i in outside), 0.0)


@settings(max_examples=40)
@given(seed=st.integers(0, 10**6), k=st.integers(0, 6))
def test_delta_matches_brute_force(seed, k):
    rng = np.random.default_rng(seed)
    aset, atoms = make_set(rng, d=4, count=5)
    grad_star = rng.standard_normal(4)
    support = set(rng.choice(len(atoms), size=min(k, len(atoms)), replace=False).tolist())
    assert delta(aset, grad_star, support) == pytest.approx(
        brute_delta(atoms, grad_star, support), abs=1e-12
    )


def test_delta_full_support_is_infinite():
    aset = gc.AtomicSet.signed_basis(2)
    assert delta(aset, np.array([1.0, -1.0]), {0, 1, 2, 3}) == math.inf


def test_delta_on_the_frozen_problem():
    # quadratic 0.5*(x-2)^2 at x* = 1: grad* = -1, atoms +-1, support {+1}
    aset = gc.AtomicSet.signed_basis(1)
    assert delta(aset, np.array([-1.0]), {0}) == pytest.approx(2.0)


def test_delta_clamps_tiny_negative():
    # sigma + min outside dot can round slightly below zero; never negative
    aset = gc.AtomicSet.signed_basis(1)
    value = delta(aset, np.array([1e-300]), {1})
    assert value >= 0.0


# ------------------------------------------------------------------ support_of


def test_support_of_relative_cut():
    coeffs = {0: 1.0, 3: 1e-5, 7: 1e-8}
    assert support_of(coeffs) == {0, 3}
    assert support_of(coeffs, relative_tol=1e-4) == {0}
    assert support_of(coeffs, relative_tol=0.0) == {0, 3, 7}


def test_support_of_empty_and_zero():
    assert support_of({}) == set()
    assert support_of({2: 0.0}) == set()
    with pytest.raises(ContractViolationError):
        support_of({0: 1.0}, relative_tol=-0.5)


# ----------------------------------------------------------------- certificate


def test_certificate_round_trip():
    cert = gc.SupportCertificate(
        support_ids=[3, 1], delta=0.125, identified_at=420, L=2.5, min_gap=1e-9
    )
    clone = gc.SupportCertificate.from_json(cert.to_json())
    assert clone == cert
    assert clone.support_ids == frozenset({1, 3})


def test_certificate_round_trip_with_infinite_delta():
    cert = gc.SupportCertificate(
        support_ids=[0], delta=math.inf, identified_at=None, L=1.0, min_gap=0.0
    )
    clone = gc.SupportCertificate.from_json(cert.to_json())
    assert clone.delta == math.inf
    assert clone.identified_at is None
    assert clone == cert


def test_certificate_rejects_negative_delta():
    with pytest.raises(ContractViolationError):
        gc.SupportCertificate([0], -0.1, 1, 1.0, 0.0)


def test_certificate_inequality():
    a = gc.SupportCertificate([0], 1.0, 5, 1.0, 0.1)
    b = gc.SupportCertificate([1], 1.0, 5, 1.0, 0.1)
    assert a != b
    assert a != "not a certificate"
