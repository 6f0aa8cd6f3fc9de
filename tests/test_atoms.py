"""Atomic set oracles: every closed-form query is checked against brute
force over the materialized atom list."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

import gaugecg as gc
from gaugecg import atoms
from gaugecg.errors import ContractViolationError, InfeasibleGaugeError


def brute_lmo(atomic_set, z, mask=None):
    """Independent argmax over the materialized atom matrix."""
    mat = atomic_set.atoms_matrix()
    ids = np.arange(mat.shape[0]) if mask is None else mask.active_ids()
    values = mat[ids] @ z
    k = int(np.argmax(values))
    return int(ids[k]), float(values[k])


# ---------------------------------------------------------------- construction


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: gc.AtomicSet.signed_basis(0), "dimension must be positive"),
        (lambda: gc.AtomicSet.hypercube(-1, scale=0.0), "dimension must be positive"),
        (lambda: gc.AtomicSet.signed_basis(3, scale=0.0), "scale must be a positive finite"),
        (lambda: gc.AtomicSet.hypercube(3, scale=np.inf), "scale must be a positive finite"),
        (lambda: gc.AtomicSet.signed_basis(3, scale=np.nan), "scale must be a positive finite"),
        (lambda: gc.AtomicSet.explicit(np.ones(3)), "expected a 2-d array of atom rows"),
        (lambda: gc.AtomicSet.explicit(np.ones((2, 2, 2))), "expected a 2-d array"),
        # the width is the dimension, so a list of no columns has none
        (lambda: gc.AtomicSet.explicit(np.ones((2, 0))), "dimension must be positive"),
        (lambda: gc.AtomicSet.explicit(np.ones((0, 3))), r"nonempty \(m, d\) array"),
        (lambda: gc.AtomicSet.explicit([[1.0, np.nan]]), "atom vectors must be finite"),
        (lambda: gc.AtomicSet.explicit([[1.0, np.inf]]), "atom vectors must be finite"),
        (lambda: gc.AtomMask(0), "mask needs at least one atom"),
        # the scale is checked before the atoms
        (lambda: gc.AtomicSet.explicit([[1.0, np.nan]], scale=0.0), "scale must be"),
        # arguments that do not convert
        pytest.param(
            lambda: gc.AtomicSet.signed_basis(None), "dimension must be positive",
            id="dimension-None",
        ),
        pytest.param(
            lambda: gc.AtomicSet.signed_basis("x"), "dimension must be positive",
            id="dimension-word",
        ),
        pytest.param(
            lambda: gc.AtomicSet.signed_basis(np.inf), "dimension must be positive",
            id="dimension-inf",
        ),
        pytest.param(
            lambda: gc.AtomicSet.hypercube(3, scale=None), "scale must be a positive finite",
            id="scale-None",
        ),
        pytest.param(
            lambda: gc.AtomicSet.hypercube(None, scale=None), "dimension must be positive",
            id="dimension-before-scale",
        ),
        pytest.param(
            lambda: gc.AtomicSet.explicit([["a", 1.0]]), "expected a 2-d array",
            id="explicit-word",
        ),
        pytest.param(
            lambda: gc.AtomicSet.explicit([[1.0], [1.0, 2.0]]), "expected a 2-d array",
            id="explicit-ragged",
        ),
        pytest.param(lambda: gc.AtomMask(None), "mask needs at least one atom", id="mask-None"),
    ],
)
def test_bad_constructor_arguments_rejected(build, message):
    with pytest.raises(ContractViolationError, match=message):
        build()


def test_no_kind_overrides_a_checked_entry_point():
    # lmo, dots and atom_vector check their arguments on the base class for
    # every kind, and bench/tracing.py wraps them there
    for cls in atoms.AtomicSet.__subclasses__():
        for name in ("lmo", "dots", "atom_vector"):
            assert name not in vars(cls), (cls, name)


# ---------------------------------------------------------------- signed basis


def test_signed_basis_atom_vectors():
    aset = gc.AtomicSet.signed_basis(3, scale=2.0)
    assert aset.num_atoms == 6
    np.testing.assert_array_equal(aset.atom_vector(0), [2.0, 0.0, 0.0])
    np.testing.assert_array_equal(aset.atom_vector(4), [0.0, -2.0, 0.0])


def test_signed_basis_lmo_matches_brute_force():
    rng = np.random.default_rng(3)
    aset = gc.AtomicSet.signed_basis(7, scale=0.5)
    for _ in range(50):
        z = rng.standard_normal(7)
        assert aset.lmo(z) == brute_lmo(aset, z)


def test_signed_basis_lmo_respects_mask():
    rng = np.random.default_rng(4)
    aset = gc.AtomicSet.signed_basis(5)
    for _ in range(25):
        z = rng.standard_normal(5)
        mask = aset.full_mask()
        drop = rng.choice(10, size=4, replace=False)
        mask.deactivate([int(i) for i in drop])
        assert aset.lmo(z, mask) == brute_lmo(aset, z, mask)


def test_signed_basis_masked_dots_match_the_full_computation():
    # the masked path computes only the active values; they must equal, bit
    # for bit, the full 2d computation indexed by the active ids
    rng = np.random.default_rng(6)
    aset = gc.AtomicSet.signed_basis(9, scale=0.3)
    mask = aset.full_mask()
    for drop in ([0, 17], [3, 9, 12], [1, 2, 5, 10, 14]):
        mask.deactivate(drop)
        for _ in range(5):
            z = rng.standard_normal(9)
            z[0] = -0.0
            ids, values = aset.dots(z, mask)
            np.testing.assert_array_equal(ids, mask.active_ids())
            assert np.all(np.diff(ids) > 0)
            full_ids, full_values = aset.dots(z)
            np.testing.assert_array_equal(full_ids, np.arange(18))
            expected = (0.3 * np.concatenate([z, -z]))[ids]
            assert values.tobytes() == expected.tobytes()
            assert values.tobytes() == full_values[ids].tobytes()


def test_signed_basis_lmo_tie_breaks_to_lowest_id():
    aset = gc.AtomicSet.signed_basis(2)
    atom_id, value = aset.lmo(np.array([1.0, 1.0]))
    assert atom_id == 0 and value == 1.0
    assert aset.lmo(np.array([-1.0, 1.0])) == (1, 1.0)  # +e_1 before -e_0
    atom_id, value = aset.lmo(np.array([-1.0, np.nan]))
    assert atom_id == 1 and np.isnan(value)


def _oracle_cases():
    rng = np.random.default_rng(8)
    for scale in (1.0, 0.3):
        for _ in range(20):
            yield scale, rng.standard_normal(7)
            yield scale, rng.integers(-2, 3, size=6).astype(float)  # many ties
    # |z| differ but 0.3 * |z| round to one value: a cross-sign tie only
    # in the scaled scores, so the lower id, +e_1, must win
    wide, narrow = 1.6734693877551023, 1.6734693877551021
    yield 0.3, np.array([-wide, narrow])
    yield 0.3, np.array([wide, -narrow])
    for z in (
        [2.0], [-2.0], [0.0], [-0.0], [np.nan],  # d = 1
        [-1.0, 1.0], [1.0, -1.0],  # cross-sign ties
        [0.0, 0.0, 0.0], [-0.0, 0.0], [-0.0, -0.0], [0.0, -0.0],
        [1.0, np.nan, -5.0], [-3.0, np.nan, np.nan], [-np.inf, 2.0],
    ):
        yield 1.0, np.array(z)


@pytest.mark.parametrize("scale, z", list(_oracle_cases()))
def test_signed_basis_implicit_lmo_matches_scoring_bit_for_bit(scale, z):
    # the full-mask oracle scores no atom; its id and value must be those
    # of the first maximum over the 2d scores, -0 and NaN included
    aset = gc.AtomicSet.signed_basis(z.size, scale=scale)
    atom_id, value = aset.lmo(z)
    best_id, best_value = atoms.best_atom(*aset.dots(z))
    assert atom_id == best_id
    assert np.float64(value).tobytes() == np.float64(best_value).tobytes()


def test_signed_basis_gauge_is_scaled_l1():
    rng = np.random.default_rng(5)
    aset = gc.AtomicSet.signed_basis(6, scale=2.5)
    for _ in range(20):
        x = rng.standard_normal(6)
        assert aset.gauge_value(x) == pytest.approx(np.abs(x).sum() / 2.5, abs=1e-12)


def test_signed_basis_decomposition_reconstructs():
    aset = gc.AtomicSet.signed_basis(4, scale=2.0)
    x = np.array([1.0, -3.0, 0.0, 0.5])
    value, coeffs = aset.gauge_decomposition(x)
    assert value == pytest.approx(np.abs(x).sum() / 2.0)
    rebuilt = coeffs @ aset.atoms_matrix()
    np.testing.assert_allclose(rebuilt, x, atol=1e-12)
    assert coeffs.sum() == pytest.approx(value)
    assert np.all(coeffs >= 0)


# ------------------------------------------------------------------ hypercube


def test_hypercube_vertex_encoding():
    # bit k set means coordinate k sits at -scale
    aset = gc.AtomicSet.hypercube(2, scale=1.0)
    np.testing.assert_array_equal(aset.atom_vector(0), [1.0, 1.0])
    np.testing.assert_array_equal(aset.atom_vector(1), [-1.0, 1.0])
    np.testing.assert_array_equal(aset.atom_vector(2), [1.0, -1.0])
    np.testing.assert_array_equal(aset.atom_vector(3), [-1.0, -1.0])


def test_hypercube_implicit_lmo_matches_enumeration():
    rng = np.random.default_rng(6)
    aset = gc.AtomicSet.hypercube(8, scale=1.5)
    for _ in range(30):
        z = rng.standard_normal(8)
        atom_id, value = aset.lmo(z)
        brute_id, brute_value = brute_lmo(aset, z)
        assert atom_id == brute_id
        assert value == pytest.approx(brute_value, rel=1e-14)


def test_hypercube_lmo_tie_at_zero_takes_positive_coordinate():
    aset = gc.AtomicSet.hypercube(2)
    atom_id, value = aset.lmo(np.array([0.0, -3.0]))
    assert atom_id == 2  # (+1, -1) has the lowest id among maximizers
    assert value == 3.0


def test_hypercube_implicit_lmo_works_beyond_enumeration_limit():
    d = 40  # 2^40 vertices; only the implicit oracle can answer
    aset = gc.AtomicSet.hypercube(d)
    z = np.zeros(d)
    z[0], z[7] = 1.0, -2.0
    atom_id, value = aset.lmo(z)
    assert value == pytest.approx(3.0)
    assert atom_id == 1 << 7


def test_hypercube_masked_query_guarded_at_scale():
    aset = gc.AtomicSet.hypercube(23)
    with pytest.raises(ContractViolationError):
        aset.dots(np.zeros(23))


def test_hypercube_gauge_is_scaled_inf_norm():
    aset = gc.AtomicSet.hypercube(5, scale=2.0)
    x = np.array([0.5, -3.0, 1.0, 0.0, 2.0])
    assert aset.gauge_value(x) == pytest.approx(1.5)
    # the witness is the linear program's over the 32 enumerated vertices;
    # a hypercube too large to enumerate has none
    value, coeffs = aset.gauge_decomposition(x)
    assert value == pytest.approx(1.5)
    np.testing.assert_allclose(coeffs @ aset.atoms_matrix(), x, atol=1e-12)
    assert np.all(coeffs >= 0)
    with pytest.raises(ContractViolationError, match="limited to desk scale"):
        gc.AtomicSet.hypercube(23).gauge_decomposition(np.ones(23))


# -------------------------------------------------------------- explicit lists


def test_explicit_dots_and_lmo_match_matrix():
    rng = np.random.default_rng(7)
    vectors = rng.standard_normal((9, 4))
    aset = gc.AtomicSet.explicit(vectors)
    z = rng.standard_normal(4)
    ids, values = aset.dots(z)
    np.testing.assert_allclose(values, vectors @ z)
    assert aset.lmo(z) == brute_lmo(aset, z)


def test_explicit_gauge_lp_matches_l1_on_signed_basis_atoms():
    rng = np.random.default_rng(8)
    d = 6
    eye = np.eye(d)
    aset = gc.AtomicSet.explicit(np.vstack([eye, -eye]))
    for _ in range(30):
        x = rng.standard_normal(d)
        assert abs(aset.gauge_value(x) - np.abs(x).sum()) <= 1e-9


def test_explicit_gauge_decomposition_reconstructs():
    rng = np.random.default_rng(9)
    vectors = rng.standard_normal((7, 3))
    vectors = np.vstack([vectors, -vectors])
    aset = gc.AtomicSet.explicit(vectors)
    x = 0.3 * vectors[0] + 1.2 * vectors[3]
    value, coeffs = aset.gauge_decomposition(x)
    np.testing.assert_allclose(coeffs @ vectors, x, atol=1e-8)
    assert value == pytest.approx(coeffs.sum())
    assert value <= 1.5 + 1e-8  # no worse than the generating combination


def test_explicit_gauge_infeasible_outside_cone():
    aset = gc.AtomicSet.explicit(np.array([[1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(InfeasibleGaugeError):
        aset.gauge_value(np.array([-1.0, 0.0]))


def test_explicit_zero_point_has_zero_gauge():
    aset = gc.AtomicSet.explicit(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert aset.gauge_value(np.zeros(2)) == 0.0


def test_support_value_is_lmo_value():
    rng = np.random.default_rng(10)
    aset = gc.AtomicSet.signed_basis(4)
    z = rng.standard_normal(4)
    assert aset.support_value(z) == aset.lmo(z)[1]


# ------------------------------------------------------------------- the mask


def test_mask_deactivate_in_place():
    aset = gc.AtomicSet.signed_basis(3)
    mask, other = aset.full_mask(), aset.full_mask()
    assert mask.active_count == 6
    mask.deactivate([0, 4])
    assert mask.active_count == 4
    assert other.active_count == 6  # masks of one set share nothing
    assert set(mask.active_ids().tolist()) == {1, 2, 3, 5}
    mask.deactivate([0, 1])  # an inactive id is ignored
    assert mask.active_ids().tolist() == [2, 3, 5]


def test_lmo_over_empty_mask_raises():
    aset = gc.AtomicSet.signed_basis(2)
    mask = aset.full_mask()
    mask.deactivate(list(range(4)))
    with pytest.raises(ContractViolationError):
        aset.lmo(np.ones(2), mask)


def test_atom_id_out_of_range():
    aset = gc.AtomicSet.signed_basis(2)
    with pytest.raises(ContractViolationError):
        aset.atom_vector(4)
    with pytest.raises(ContractViolationError):
        aset.atom_vector(-1)


def test_dimension_mismatch_rejected():
    aset = gc.AtomicSet.signed_basis(3)
    with pytest.raises(ContractViolationError):
        aset.lmo(np.ones(4))


def test_fingerprints_distinguish_sets():
    a = gc.AtomicSet.signed_basis(3)
    b = gc.AtomicSet.signed_basis(3, scale=2.0)
    c = gc.AtomicSet.hypercube(3)
    prints = {b"".join(s.fingerprint_parts()) for s in (a, b, c)}
    assert len(prints) == 3
    assert b"".join(a.fingerprint_parts()) == b"".join(
        gc.AtomicSet.signed_basis(3).fingerprint_parts()
    )


# ------------------------------------------------------------------ properties


@given(
    x=hnp.arrays(
        np.float64,
        5,
        elements=st.floats(-50, 50, allow_nan=False, allow_infinity=False),
    ),
    y=hnp.arrays(
        np.float64,
        5,
        elements=st.floats(-50, 50, allow_nan=False, allow_infinity=False),
    ),
    c=st.floats(0.0, 20.0),
)
def test_gauge_triangle_and_homogeneity(x, y, c):
    aset = gc.AtomicSet.signed_basis(5)
    gx, gy = aset.gauge_value(x), aset.gauge_value(y)
    assert aset.gauge_value(x + y) <= gx + gy + 1e-9 * (1 + gx + gy)
    assert aset.gauge_value(c * x) == pytest.approx(c * gx, rel=1e-12, abs=1e-12)


@given(
    z=hnp.arrays(
        np.float64,
        4,
        elements=st.floats(-10, 10, allow_nan=False, allow_infinity=False),
    )
)
def test_lmo_value_bounds_every_atom(z):
    rng = np.random.default_rng(12)
    vectors = rng.standard_normal((6, 4))
    aset = gc.AtomicSet.explicit(vectors)
    _, value = aset.lmo(z)
    assert np.all(vectors @ z <= value + 1e-12)


def test_mask_is_lazy_until_first_deactivate():
    huge = gc.AtomMask(2**64)
    assert huge.is_full and huge.active_count == 2**64
    with pytest.raises(ContractViolationError):
        huge.deactivate([0])
    mask = gc.AtomicSet.signed_basis(3).full_mask()
    assert mask.is_full
    mask.deactivate([2])
    assert not mask.is_full and mask.active_count == 5


def test_mask_active_ids_cached_and_shrink_only():
    mask = gc.AtomicSet.signed_basis(3).full_mask()
    ids = mask.active_ids()
    assert mask.active_ids() is ids
    assert not ids.flags.writeable
    mask.deactivate([0, 4])
    shrunk = mask.active_ids()
    assert shrunk.tolist() == [1, 2, 3, 5]
    assert ids.tolist() == list(range(6))  # earlier arrays stay as they were
    assert mask.active_ids() is shrunk


def test_mask_range_is_the_same_before_and_after_materializing():
    aset = gc.AtomicSet.signed_basis(3)
    full, pruned = aset.full_mask(), aset.full_mask()
    pruned.deactivate([2])
    for mask in (full, pruned):
        assert -1 not in mask.active_ids() and 6 not in mask.active_ids()
        assert 0 in mask.active_ids() and 5 in mask.active_ids()
    assert 2 not in pruned.active_ids()
    for bad in ([-1], [6], [0, 7]):
        with pytest.raises(ContractViolationError):
            full.deactivate(bad)
        with pytest.raises(ContractViolationError):
            pruned.deactivate(bad)
    # a refused id switches nothing off
    assert full.is_full
    assert pruned.active_ids().tolist() == [0, 1, 3, 4, 5]
    full.deactivate([])
    assert full.active_count == 6


def test_hypercube_ids_beyond_64_bits():
    d = 70
    aset = gc.AtomicSet.hypercube(d, scale=2.0)
    z = np.ones(d)
    z[[3, 64, 69]] = -1.0
    atom_id, value = aset.lmo(z, aset.full_mask())
    assert atom_id == (1 << 3) | (1 << 64) | (1 << 69)
    assert value == pytest.approx(2.0 * d)
    np.testing.assert_array_equal(aset.atom_vector(atom_id), 2.0 * np.sign(z))


def test_atom_image_is_features_times_atom():
    rng = np.random.default_rng(11)
    features = rng.standard_normal((5, 4))
    sets = (
        gc.AtomicSet.signed_basis(4, scale=1.5),
        gc.AtomicSet.hypercube(4, scale=0.5),
        gc.AtomicSet.explicit(rng.standard_normal((3, 4)), scale=2.0),
    )
    for aset in sets:
        for atom_id in range(aset.num_atoms):
            np.testing.assert_allclose(
                aset.image(features, atom_id),
                features @ aset.atom_vector(atom_id),
                rtol=1e-15, atol=1e-15,
            )


def _compact(aset, mask):
    """True when the oracle scores from a copy of the active columns: a
    pruned signed basis whose active atoms touch at most d // 8 columns."""
    if aset.kind != atoms.SIGNED_BASIS or mask.is_full:
        return False
    return np.unique(mask.active_ids() % aset.dimension).size <= aset.dimension // 8


def _oracle_matches_scoring(aset, features, v, mask, oracle=None):
    """A screened run's oracle (a new one unless given) against best_atom
    over dots(-(A'v), mask): to the byte where it scores through dots, a
    full implicit mask's answer lmo's; a copy of the active columns sums
    A'v in another order, so there to within rounding."""
    full_grad = features.T @ v
    ids, values = aset.dots(-full_grad, mask)
    if oracle is None:
        oracle = aset._run_oracle(features)
    grad, scores, best = oracle(v, mask, True)
    compact = _compact(aset, mask)
    assert (grad is None) == compact
    assert scores[0].tobytes() == ids.tobytes()
    if mask.is_full and aset.kind != atoms.EXPLICIT:  # the implicit oracle (see AtomicSet.lmo)
        assert grad.tobytes() == full_grad.tobytes()
        assert scores[1].tobytes() == values.tobytes()
        assert best == aset.lmo(-full_grad)
        assert best[0] == atoms.best_atom(ids, values)[0]
        return
    if not compact:
        assert grad.tobytes() == full_grad.tobytes()
        assert scores[1].tobytes() == values.tobytes()
        assert best == atoms.best_atom(ids, values)
        return
    coords = ids % aset.dimension
    rounding = 8 * np.finfo(float).eps * aset.scale * (np.abs(features).T @ np.abs(v))
    assert np.all(np.abs(scores[1] - values) <= rounding[coords])
    assert best[0] == atoms.best_atom(ids, values)[0]
    assert best == atoms.best_atom(*scores)


def test_pruned_columns_are_the_plain_copy_once_few_are_left():
    # a mask pruned in place, as the solver prunes it. While the active
    # atoms touch more than d // 8 = 5 columns the oracle copies nothing
    # and scores, with grad, to the byte as dots(-(A'v), mask) and A'v do.
    # From then on every copy of the active columns scores to the byte as
    # features[:, cols] does, for row- and column-major data; a prune that
    # leaves the columns as they were keeps the copy. One run oracle serves
    # the mask for the whole run, and scoring again without a prune reuses
    # its copy.
    rng = np.random.default_rng(5)
    d = 40
    aset = gc.AtomicSet.signed_basis(d)
    prunes = (  # (ids switched off, columns left, copy kept; None: no copy)
        ([d + 0], d, None),
        ([d + 1], d, None),
        (list(range(6, d)) + list(range(d + 6, 2 * d)), 6, None),
        ([5, d + 5], 5, False),
        ([d + 2], 5, True),
        ([0], 4, False),
        ([1, 2, 3, d + 3], 1, False),
    )
    for n, order in ((9, "C"), (9, "F"), (300, "C")):
        features = np.asarray(rng.standard_normal((n, d)), order=order)
        v = rng.standard_normal(n)
        mask, before = aset.full_mask(), None
        oracle = aset._run_oracle(features)
        for off, columns, same_copy in prunes:
            mask.deactivate(off)
            grad, (ids, values), _ = oracle(v, mask, True)
            coords = ids % d
            cols = np.unique(coords)
            assert cols.size == columns
            if same_copy is None:
                full_grad = features.T @ v
                assert oracle.sub is None
                assert grad.tobytes() == full_grad.tobytes()
                assert values.tobytes() == aset.dots(-full_grad, mask)[1].tobytes()
            else:
                plain = features[:, cols]
                expected = (plain.T @ v)[np.searchsorted(cols, coords)]
                expected *= np.where(ids < d, -1.0, 1.0)
                assert grad is None
                assert values.tobytes() == expected.tobytes()
                assert oracle.sub.shape == plain.shape == (n, columns)
                assert oracle.sub.strides == plain.strides
                assert (oracle.sub is before) == same_copy
            before = oracle.sub
            again = oracle(v, mask, True)[1]
            assert oracle.sub is before
            assert again[1].tobytes() == values.tobytes()


def test_active_columns_are_the_sorted_distinct_coordinates():
    # cols against their np.unique construction on every mask; pos and
    # neg_factor on the masks of at most d // 8 columns, which are scored
    # from a copy: random ones, one coordinate with both signs and one atom
    # left. A wider mask (random ones, and one materialized with every atom
    # active) holds no copy and no positions in one
    rng = np.random.default_rng(19)
    d = 30
    aset = gc.AtomicSet.signed_basis(d, scale=0.3)
    features = rng.standard_normal((6, d))
    offs = [rng.random(2 * d) < rng.uniform(0.1, 0.95) for _ in range(40)]
    for _ in range(45):
        coords = rng.choice(d, size=rng.integers(1, d // 8 + 1), replace=False)
        signs = rng.integers(0, 3, size=coords.size)  # +, - or both
        keep = np.concatenate([coords[signs != 1], coords[signs != 0] + d])
        offs.append(~np.isin(np.arange(2 * d), keep))
    offs.append(np.arange(2 * d) % d != 7)  # +e_7 and -e_7 only
    offs.append(np.arange(2 * d) != d + 11)  # -e_11 only
    offs.append(np.zeros(2 * d, dtype=bool))  # every atom active
    copies = 0
    for off in offs:
        mask = aset.full_mask()
        mask.deactivate(np.flatnonzero(off))
        if not mask.active_count:
            continue
        cache = aset._run_oracle(features)
        cache(rng.standard_normal(6), mask, True)
        ids = mask.active_ids()
        cols = np.unique(ids % d)
        assert cache.cols.dtype == cols.dtype
        assert cache.cols.tobytes() == cols.tobytes()
        if cols.size > d // 8:
            assert cache.sub is None and cache.pos is None and cache.neg_factor is None
            continue
        copies += 1
        assert cache.sub.tobytes() == np.ascontiguousarray(features[:, cols]).tobytes()
        assert cache.pos.tobytes() == np.searchsorted(cols, ids % d).tobytes()
        assert cache.neg_factor.tobytes() == np.where(ids < d, -0.3, 0.3).tobytes()
    assert copies >= 47  # the 45 narrow draws and the two fixed narrow masks


def test_oracle_scores_match_dots_on_every_kind():
    # a signed basis pruned to at most d // 8 columns scores from a copy of
    # them, an explicit set or any other pruned set through dots, a full
    # implicit set through lmo
    rng = np.random.default_rng(31)
    d = 6
    features = rng.standard_normal((9, d))
    sets = (
        gc.AtomicSet.signed_basis(d, scale=0.3),
        gc.AtomicSet.hypercube(d, scale=0.3),
        gc.AtomicSet.explicit(rng.standard_normal((7, d)), scale=0.3),
    )
    for aset in sets:
        for trial in range(40):
            v = rng.standard_normal(9)
            mask = aset.full_mask()
            if trial:
                off = rng.random(aset.num_atoms) < rng.uniform(0.1, 0.7)
                off[int(rng.integers(aset.num_atoms))] = False  # keep one atom
                mask.deactivate(np.flatnonzero(off))
            _oracle_matches_scoring(aset, features, v, mask)
    # at d = 24, random masks of 1 to 6 atoms, then one-sided (+e_0 only,
    # -e_1 only), two-sided (e_2) and gone (e_3..e_23)
    d = 24
    aset = gc.AtomicSet.signed_basis(d, scale=0.3)
    features = rng.standard_normal((9, d))
    for trial in range(40):
        keep = rng.choice(2 * d, size=int(rng.integers(1, 7)), replace=False)
        mask = aset.full_mask()
        mask.deactivate(np.setdiff1d(np.arange(2 * d), keep))
        _oracle_matches_scoring(aset, features, rng.standard_normal(9), mask)
    mask = aset.full_mask()
    mask.deactivate([1] + list(range(3, d + 1)) + list(range(d + 3, 2 * d)))
    assert _compact(aset, mask)
    _oracle_matches_scoring(aset, features, rng.standard_normal(9), mask)


def test_column_cache_never_outlives_its_mask():
    # the compact columns belong to the run's oracle: a prune rebuilds its
    # copy, and another run on the same set, another features object or
    # another set makes its own, sharing none
    rng = np.random.default_rng(32)
    d = 16
    features = rng.standard_normal((8, d))
    aset = gc.AtomicSet.signed_basis(d, scale=0.3)
    v = rng.standard_normal(8)
    mask = aset.full_mask()
    mask.deactivate([0, d + 1] + list(range(2, d)) + list(range(d + 2, 2 * d)))
    assert _compact(aset, mask)
    oracle = aset._run_oracle(features)
    _oracle_matches_scoring(aset, features, v, mask, oracle)  # builds the copy
    copy = oracle.sub
    other = aset.full_mask()
    other.deactivate(list(range(1, d)) + list(range(d + 1, 2 * d)))
    other_oracle = aset._run_oracle(features)
    _oracle_matches_scoring(aset, features, v, other, other_oracle)
    assert other_oracle.sub is not copy
    mask.deactivate([d + 0])
    _oracle_matches_scoring(aset, features, v, mask, oracle)
    assert oracle.sub is not copy and not np.shares_memory(oracle.sub, copy)
    _oracle_matches_scoring(aset, features.copy() * 2.0, v, mask)
    _oracle_matches_scoring(gc.AtomicSet.signed_basis(d, scale=2.0), features, v, mask)
    _oracle_matches_scoring(aset, features, v, other, other_oracle)
    twin = aset._run_oracle(features)  # a second run on one set and data
    _oracle_matches_scoring(aset, features, v, mask, twin)
    assert twin.sub is not oracle.sub and not np.shares_memory(twin.sub, oracle.sub)


def _open_window(aset, features, cols, v):
    """A signed basis's run oracle with a window open on cols at v_s = v,
    of a radius no v leaves, so that its answer scores every call."""
    oracle = aset._run_oracle(features)
    oracle.sub, oracle.cols, oracle.v = features[:, cols], cols, v.copy()
    oracle.v_norm, oracle.rho, oracle.grow = float(np.sqrt(v @ v)), np.inf, np.inf
    return oracle


@pytest.mark.parametrize("scale", [1.0, 0.3])
def test_the_window_answers_by_the_sign_rule_to_the_bit(scale):
    # _Columns.answer scores the |K| products g = sub'v alone: the + atom is
    # the first argmin of C g, the - atom the first argmax, and the + atom
    # wins a tie. best_atom over the 2|K| scores by id, (-C) g on K then
    # C g on K + d, gives the same id and the same bits of sigma, and the
    # image is the one _image forms. On columns of one 1 each, g is v
    # itself: cross-sign ties, equal magnitudes, exact zeros of either
    # sign, magnitudes that C rounds together, and random draws of them
    rng = np.random.default_rng(34)
    n, d = 7, 40
    aset = gc.AtomicSet.signed_basis(d, scale=scale)
    cols = np.array([2, 5, 6, 11, 17, 23, 39])
    unit = np.zeros((n, d))
    unit[np.arange(n), cols] = 1.0
    near = 0.9317519014656098  # 0.3 * near == 0.3 * its successor
    after = float(np.nextafter(near, 2.0))
    assert 0.3 * near == 0.3 * after and near != after
    cases = [
        [0.5, -0.5, 0.2, 0.0, 0.1, -0.3, 0.4],
        [-0.5, 0.2, 0.5, 0.0, 0.1, -0.3, 0.4],
        [0.5, 0.5, -0.1, 0.0, 0.2, -0.5, -0.5],
        [-0.5, -0.5, 0.1, 0.5, 0.2, 0.5, 0.0],
        [0.0] * n,
        [-0.0] * n,
        [0.0, -0.0, -0.0, 0.0, 0.0, -0.0, 0.0],
        [-near, -after, 0.1, 0.0, -0.2, 0.3, near],
        [near, after, -0.1, 0.0, 0.2, -0.3, -near],
        [after, near, -after, -near, 0.0, 0.0, 0.0],
    ]
    pool = [-1.0, -0.5, -0.0, 0.0, 0.5, 1.0, near, after, -near, -after]
    cases += [rng.choice(pool, size=n) for _ in range(300)]
    cases += [rng.standard_normal(n) for _ in range(50)]
    features = rng.standard_normal((60, d))
    picked = set()
    for case in cases:
        for data, v in ((unit, np.array(case, dtype=float)), (features, rng.standard_normal(60))):
            oracle = _open_window(aset, data, cols, v)
            atom_id, sigma = oracle.answer(v)
            g = np.dot(oracle.sub.T, v)
            ids = np.concatenate([cols, cols + d])
            best = atoms.best_atom(ids, np.where(ids < d, -scale, scale) * np.concatenate([g, g]))
            assert (atom_id, np.float64(sigma).tobytes()) == (best[0], np.float64(best[1]).tobytes())
            image = oracle.image(atom_id, 1.3)
            assert image.tobytes() == (1.3 * aset._image(data, atom_id)).tobytes()
            picked.add(atom_id >= d)
    assert picked == {False, True}  # atoms of both signs won


def test_the_windows_bound_on_v_gives_each_step_the_tests_verdict():
    # answer tries (|v_s| + |v - v_s|) grow for the computed |v| in the
    # window's test before it forms |v|: at every v it serves exactly where
    # the test with the computed |v| passes. v_s at scales from 1e-300 (under
    # _NORM_FLOOR, where grow is inf) to 1e6, and v on rays from v_s at
    # steps that straddle the radius to the last bit
    rng = np.random.default_rng(35)
    n, d = 50, 80
    aset = gc.AtomicSet.signed_basis(d)
    features = rng.standard_normal((n, d))
    verdicts = set()
    for scale in (1e-300, 1e-118, 1e-3, 1.0, 1e6):
        oracle = aset._run_oracle(features)
        v_s = rng.standard_normal(n) * scale
        oracle.refresh(features.T @ v_s, v_s)
        assert oracle.sub is not None and (oracle.grow == np.inf) == (scale < 1e-120)

        def test(v):
            shift = v - v_s
            reach = np.sqrt(shift @ shift) + oracle.gamma * (oracle.v_norm + np.sqrt(v @ v))
            return bool(reach * oracle.inflate <= oracle.rho)

        for _ in range(20):
            ray = rng.standard_normal(n)
            inside, outside = 0.0, 1.0
            while test(v_s + outside * scale * ray):
                outside *= 2.0
            for _ in range(200):  # bisect to where the verdict turns
                mid = 0.5 * (inside + outside)
                if test(v_s + mid * scale * ray):
                    inside = mid
                else:
                    outside = mid
            for length in (inside, outside, *np.nextafter(outside, [0.0, 2.0]), 0.0, 1e-9):
                v = v_s + length * scale * ray
                verdicts.add(test(v))
                assert (oracle.answer(v) is not None) == test(v), (scale, length)
    assert verdicts == {False, True}
