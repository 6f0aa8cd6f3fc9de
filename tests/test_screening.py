"""Screening rule against a brute-force oracle, the degeneracy margin, and
the support certificate."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import gaugecg as gc
from gaugecg.errors import CertificateCorruptionError, ContractViolationError
from gaugecg.screening import ScreenReport, apply_rule, delta, support_of

from conftest import get_reference, synthetic_problem


def rule(mask, aset, grad, sigma, gap, L, t=None):
    """apply_rule fed the oracle scores <p, -grad> over mask, as the
    solver's certificate feeds it."""
    ids, values = aset.dots(-grad, mask)
    return apply_rule(mask, ids, values, sigma, gap, L, t)


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

    new_mask, report = rule(mask, aset, grad, sigma, gap, L, t=3)
    expected = brute_removals(atoms, list(ids), grad, sigma, gap, L)

    assert set(report.removed_ids) == expected
    # the given mask is pruned in place
    assert new_mask is mask
    assert mask.active_count == len(atoms) - len(expected)
    assert report.remaining == mask.active_count
    for i in expected:
        assert i not in mask.active_ids()


def test_achiever_survives_zero_gap():
    # gap = 0 collapses the radius; everyone scores positive except the
    # achiever at exactly zero, which is kept
    aset = gc.AtomicSet.signed_basis(3)
    grad = np.array([-2.0, 1.0, 0.5])
    ids, dots = aset.dots(-grad)
    sigma = float(np.max(dots))
    mask, report = rule(aset.full_mask(), aset, grad, sigma, 0.0, 1.0)
    assert mask.active_count == 1
    assert report.threshold == 0.0
    survivor = next(i for i in range(6) if i in mask.active_ids())
    assert dots[survivor] == sigma


def test_zero_score_ties_are_not_removed():
    # scores sit exactly at the threshold boundary when grad = 0: keep all
    aset = gc.AtomicSet.signed_basis(2)
    grad = np.zeros(2)
    incoming = aset.full_mask()
    mask, report = rule(incoming, aset, grad, 0.0, 0.0, 1.0)
    assert mask.active_count == 4
    assert report.removed_ids == []
    assert mask is incoming


def test_small_negative_gap_is_clamped():
    aset = gc.AtomicSet.signed_basis(2)
    grad = np.array([-1.0, 0.0])
    mask, report = rule(aset.full_mask(), aset, grad, 1.0, -5e-11, 1.0)
    assert report.threshold == 0.0
    assert mask.active_count == 1


def test_negative_gap_beyond_tolerance_raises():
    aset = gc.AtomicSet.signed_basis(2)
    grad = np.array([-1.0, 0.0])
    with pytest.raises(CertificateCorruptionError):
        rule(aset.full_mask(), aset, grad, 1.0, -1e-6, 1.0, t=17)


def test_negative_gap_tolerance_scales_with_sigma():
    aset = gc.AtomicSet.signed_basis(2)
    grad = np.array([-1e6, 0.0])
    sigma = 1e6
    # -5e-5 is within 1e-10 * (1 + sigma) of zero here
    mask, _ = rule(aset.full_mask(), aset, grad, sigma, -5e-5, 1.0)
    assert mask.active_count >= 1


@pytest.mark.parametrize("L", [0.0, -1.0, math.inf, math.nan])
def test_bad_smoothness_constant(L):
    aset = gc.AtomicSet.signed_basis(2)
    with pytest.raises(ContractViolationError):
        rule(aset.full_mask(), aset, np.zeros(2), 0.0, 1.0, L)


def test_rule_on_empty_mask():
    aset = gc.AtomicSet.signed_basis(2)
    mask = aset.full_mask()
    mask.deactivate(range(4))
    new_mask, report = rule(mask, aset, np.zeros(2), 0.0, 1.0, 1.0)
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
    new_mask, report = rule(mask, aset, grad, sigma, 1e-8, 2.0)
    assert 1 not in report.removed_ids and 4 not in report.removed_ids
    assert new_mask.active_count == 1


def _screened_problem(kind):
    rng = np.random.default_rng(7)
    A = rng.standard_normal((30, 6)) * 0.4
    b = np.where(rng.standard_normal(30) > 0, 1.0, -1.0)
    loss = gc.LogisticLoss(gc.DataMatrix(A, b))
    if kind == "signed-basis":
        aset = gc.AtomicSet.signed_basis(6)
    elif kind == "hypercube":
        aset = gc.AtomicSet.hypercube(6)
    else:
        # not closed under negation: L comes from the set's own atoms
        aset = gc.AtomicSet.explicit(rng.standard_normal((9, 6)))
    return loss, aset


@pytest.mark.parametrize(
    "kind", ["signed-basis", "hypercube", "explicit-list"],
    ids=lambda kind: f"{kind}-prune-lmo",
)
def test_solver_screening_matches_brute_force_on_every_set_kind(kind):
    # each pass of a run is rebuilt from the gradient its certificate forms,
    # A'link(ax) at the step's margins (A x at t = 1), the trace row's sigma
    # and gap, and the ids active when it ran
    loss, aset = _screened_problem(kind)
    penalty = gc.Penalty.power(2.0, weight=0.05)
    cfg = gc.SolverConfig(max_iters=150, screening_enabled=True, trace_every=1)
    state = gc.SolverState(aset)
    L = loss.smoothness_wrt(aset)
    atoms = aset.atoms_matrix()
    active = list(range(aset.num_atoms))
    for t in range(1, cfg.max_iters + 1):
        ax = loss.margins(state.x) if state.ax is None else state.ax
        grad = loss.data.features.T @ loss.link(ax)
        passes = len(state.screen_events)
        gc.step(state, loss, penalty, aset, cfg)
        row = state.trace[-1]
        assert row.t == t
        expected = brute_removals(atoms, active, grad, row.sigma, row.gap, L)
        if len(state.screen_events) == passes:
            assert expected == set(), t
            continue
        event = state.screen_events[-1]
        assert set(event.removed_ids) == expected, t
        assert event.threshold == 2.0 * math.sqrt(L * max(row.gap, 0.0))
        assert event.sigma == row.sigma
        assert event.remaining == len(active) - len(expected)
        active = state.mask.active_ids().tolist()
        assert len(active) == event.remaining
    assert state.screen_events, "the run never screened: the check would be empty"


@pytest.mark.parametrize(
    "seed, n, d, lam, first_compact",
    [(11, 200, 1000, 0.1, 193), (0, 100, 50, 0.3, 228)],
)
def test_screened_signed_basis_follows_the_unscreened_run_until_few_columns_are_left(
    seed, n, d, lam, first_compact, monkeypatch
):
    # until its active atoms touch at most d // 8 columns, a screened run's
    # oracle scores through the unscreened product A'v: every trace column
    # but active_atoms and elapsed_s, and every x, match the unscreened run
    # to the byte, up to the step that first scores from a column copy. The
    # unscreened comparator forms A'v on every step: its window of columns
    # (atoms._Columns) is held off by a floor above n*d.
    monkeypatch.setattr("gaugecg.atoms._WINDOW_FLOOR", n * d + 1)
    loss, penalty, aset = synthetic_problem(seed, lam, n=n, d=d)
    on = gc.SolverConfig(max_iters=first_compact, screening_enabled=True)
    off = gc.SolverConfig(max_iters=first_compact)
    screened, plain = gc.SolverState(aset), gc.SolverState(aset)
    skip = {"active_atoms", "elapsed_s"}
    while np.unique(screened.mask.active_ids() % d).size > d // 8:
        t = screened.t
        gc.step(screened, loss, penalty, aset, on)
        gc.step(plain, loss, penalty, aset, off)
        rows = [
            {k: repr(v) for k, v in dataclasses.asdict(state.trace[-1]).items() if k not in skip}
            for state in (screened, plain)
        ]
        assert rows[0] == rows[1], t
        assert screened.x.tobytes() == plain.x.tobytes(), t
    assert screened.t == first_compact
    # over a hundred of the steps compared ran on a pruned mask
    assert screened.screen_events[0].t < first_compact - 100


def test_rounding_floor_is_read_only_when_atoms_would_go():
    aset = gc.AtomicSet.signed_basis(2)
    grad = np.array([-1.0, 0.0])
    calls = []

    def rounding():
        calls.append(None)
        return 1e-20

    # every score within the radius: the early exit never asks for the floor
    rule_args = (aset.full_mask(), *aset.dots(-grad), 1.0)
    _, report = apply_rule(*rule_args, 1.0, 1.0, rounding=rounding)
    assert report.removed_ids == [] and calls == []
    # at gap 0 the pass removes at the floor's radius, not at radius 0
    _, report = apply_rule(*rule_args, 0.0, 4.0, rounding=rounding)
    assert len(calls) == 1
    assert report.threshold == 2.0 * math.sqrt(4.0 * 1e-20)
    assert report.removed_ids == [1, 2, 3]
    # a gap above the floor keeps its own radius
    _, report = apply_rule(*rule_args, 1e-6, 4.0, rounding=rounding)
    assert report.threshold == 2.0 * math.sqrt(4.0 * 1e-6)


def closed_form_optimum(b, w):
    """Minimizer of 0.5*|x - b|^2 + w*|x|_1^2 / 2 for targets b >= 0, and its
    support: x_S = b_S - w*kappa with kappa = sum(b_S) / (1 + w*|S|), S the
    largest top-k set of b whose smallest entry exceeds w*kappa."""
    order = np.argsort(-b, kind="stable")
    for k in range(b.size, 0, -1):
        kappa = float(np.sum(b[order[:k]])) / (1.0 + w * k)
        if b[order[k - 1]] > w * kappa:
            break
    support = sorted(int(i) for i in order[:k])
    x = np.zeros(b.size)
    x[support] = b[support] - w * kappa
    return x, support


@st.composite
def sparse_targets(draw):
    d = draw(st.integers(3, 7))
    positive = draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=d - 1, unique=True))
    b = np.zeros(d)
    b[positive] = draw(st.lists(st.floats(0.01, 1.0), min_size=len(positive), max_size=len(positive)))
    return b


@settings(max_examples=200)
@given(b=sparse_targets(), w=st.floats(0.05, 1.0))
@example(b=np.array([0.3, 0.7, 0.0]), w=0.1)
def test_screening_at_an_exact_optimum_keeps_the_support(b, w):
    # started at the closed-form optimum the gap often reads exactly 0; a
    # radius of 0 would remove support atoms whose scores are 0 only up to
    # rounding. Atom i is +e_i, the support's direction since x*_S > 0.
    d = b.size
    x_star, support = closed_form_optimum(b, w)
    assume(len(support) >= 2)
    loss = gc.QuadraticLoss(gc.DataMatrix(np.eye(d), b))
    cfg = gc.SolverConfig(max_iters=1, screening_enabled=True)
    result = gc.run(loss, gc.Penalty.power(2.0, weight=w), gc.AtomicSet.signed_basis(d), cfg, x0=x_star)
    removed = {i for event in result.screen_events for i in event.removed_ids}
    assert not removed & set(support)


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


@pytest.mark.parametrize("support", [{4}, {-1}, {0, 7}, {1.5}, {True}, {"a"}, None])
def test_delta_refuses_ids_outside_the_set(support):
    # the atoms of signed_basis(2) are 0..3; a mask indexed by -1 would take the last
    aset = gc.AtomicSet.signed_basis(2)
    with pytest.raises(ContractViolationError):
        delta(aset, np.array([1.0, -1.0]), support)


def test_delta_clamps_tiny_negative():
    # sigma + min outside dot can round slightly below zero; never negative
    aset = gc.AtomicSet.signed_basis(1)
    value = delta(aset, np.array([1e-300]), {1})
    assert value >= 0.0


@pytest.mark.parametrize("lam", [0.01, 1.0])
@pytest.mark.parametrize("seed", [3, 4, 5, 6])
def test_gap_bounds_the_distance_to_the_dual_solution(seed, lam):
    # step (1) of the radius argument in apply_rule: |v - v*|^2 <= beta*gap
    # at every traced iterate, beta = 1/(4n) for the logistic loss; gaps
    # below 1e-6 are left out, where the reference's own error can dominate
    loss, penalty, aset = synthetic_problem(seed, lam)
    v_star = loss.link(loss.margins(get_reference(seed, lam).x))
    beta = 1.0 / (4.0 * loss.data.n)
    rows = 0
    for screening in (False, True):
        config = gc.SolverConfig(
            max_iters=300, screening_enabled=screening, keep_snapshots=True
        )
        result = gc.run(loss, penalty, aset, config)
        for row, snap in zip(result.trace, result.snapshots):
            if row.gap >= 1e-6:
                v = loss.link(loss.margins(snap.x))
                assert float(np.sum((v - v_star) ** 2)) <= beta * row.gap, row.t
                rows += 1
    assert rows > 0


# ------------------------------------------------------------------ support_of


def test_support_of_relative_cut():
    coeffs = {0: 1.0, 3: 1e-5, 7: 1e-8}
    assert support_of(coeffs) == {0, 3}


def test_support_of_empty_and_zero():
    assert support_of({}) == set()
    assert support_of({2: 0.0}) == set()


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
