"""Atomic set oracles: every closed-form query is checked against brute
force over the materialized atom list."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

import gaugecg as gc
from gaugecg import atoms
from gaugecg.errors import ContractViolationError, FileFormatError, InfeasibleGaugeError


def brute_lmo(atomic_set, z, mask=None):
    """Independent argmax over the materialized atom matrix."""
    mat = atomic_set.atoms_matrix()
    ids = np.arange(mat.shape[0]) if mask is None else mask.active_ids()
    values = mat[ids] @ z
    k = int(np.argmax(values))
    return int(ids[k]), float(values[k])


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
    with pytest.raises(ContractViolationError):
        aset.gauge_decomposition(x)


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


def test_mask_deactivate_and_copy_independence():
    aset = gc.AtomicSet.signed_basis(3)
    mask = aset.full_mask()
    assert mask.active_count == 6
    clone = mask.copy()
    mask.deactivate([0, 4])
    assert mask.active_count == 4
    assert clone.active_count == 6
    assert set(mask.active_ids().tolist()) == {1, 2, 3, 5}


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


# ------------------------------------------------------------------ file I/O


def test_atoms_file_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    vectors = rng.standard_normal((5, 3))
    aset = gc.AtomicSet.explicit(vectors)
    path = tmp_path / "atoms.txt"
    gc.save_atoms_file(aset, str(path))
    back = gc.load_atoms_file(str(path))
    assert back.kind == aset.kind
    np.testing.assert_array_equal(back.atoms_matrix(), vectors)


def test_atoms_file_errors_name_offsets(tmp_path):
    path = tmp_path / "bad.txt"
    for text, offset in (
        ("not a header\n", 0),
        ("atoms 2 2\n1.0 2.0\n", 1),
        ("atoms 2 2\n1.0 2.0\n3 x\n", 1),
    ):
        path.write_text(text)
        with pytest.raises(FileFormatError) as info:
            gc.load_atoms_file(str(path))
        assert info.value.offset == offset, text


def test_fingerprints_distinguish_sets():
    a = gc.AtomicSet.signed_basis(3)
    b = gc.AtomicSet.signed_basis(3, scale=2.0)
    c = gc.AtomicSet.hypercube(3)
    prints = {a.fingerprint_bytes(), b.fingerprint_bytes(), c.fingerprint_bytes()}
    assert len(prints) == 3
    assert a.fingerprint_bytes() == gc.AtomicSet.signed_basis(3).fingerprint_bytes()


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
    assert huge.is_active(2**63) and not huge.is_active(2**64)
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
    full = gc.AtomicSet.signed_basis(3).full_mask()
    pruned = full.copy()
    pruned.deactivate([2])
    for mask in (full, pruned):
        assert not mask.is_active(-1) and not mask.is_active(6)
        assert mask.is_active(0) and mask.is_active(5)
    assert not pruned.is_active(2)
    for bad in ([-1], [6], [0, 7]):
        with pytest.raises(ContractViolationError):
            full.copy().deactivate(bad)
        with pytest.raises(ContractViolationError):
            pruned.deactivate(bad)
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


def _oracle_matches_scoring(aset, features, v, mask):
    """The oracle against best_atom over dots(-(A'v), mask): to the byte
    where it scores through dots or lmo; the active columns of a pruned
    signed basis sum A'v in another order, so there to within rounding."""
    full_grad = features.T @ v
    ids, values = aset.dots(-full_grad, mask)
    grad, scores, best = aset.oracle(features, v, mask)
    pruned_basis = aset.kind == atoms.SIGNED_BASIS and not mask.is_full
    assert (grad is None) == pruned_basis
    assert (scores is None) == (mask.is_full and aset.kind != atoms.EXPLICIT)
    if scores is None:  # the implicit oracle (see AtomicSet.lmo)
        assert best == aset.lmo(-full_grad)
        assert best[0] == atoms.best_atom(ids, values)[0]
        return
    assert scores[0].tobytes() == ids.tobytes()
    if not pruned_basis:
        assert grad.tobytes() == full_grad.tobytes()
        assert scores[1].tobytes() == values.tobytes()
        assert best == atoms.best_atom(ids, values)
        return
    coords = ids % aset.dimension
    rounding = 8 * np.finfo(float).eps * aset.scale * (np.abs(features).T @ np.abs(v))
    assert np.all(np.abs(scores[1] - values) <= rounding[coords])
    assert best[0] == atoms.best_atom(ids, values)[0]
    assert best == atoms.best_atom(*scores)


def test_pruned_columns_are_the_plain_copy_and_reuse_their_memory():
    # a mask pruned as the solver prunes it (copy, then deactivate): every
    # copy of the active columns scores to the byte as features[:, cols]
    # does, for row- and column-major data and in several fill blocks
    # (n=3000). A prune that leaves the columns as they were keeps the
    # copy; the next copy goes into the same memory unless it would fill
    # less than half of it. A mask that was copied scores again from a
    # copy of its own.
    rng = np.random.default_rng(5)
    d = 40
    aset = gc.AtomicSet.signed_basis(d)
    prunes = (  # (ids switched off, columns left, copy kept, memory kept)
        ([d + 0], d, False, False),
        ([d + 1], d, True, True),
        ([2, d + 2], d - 1, False, True),
        (list(range(3, 25)) + list(range(d + 3, d + 25)), d - 23, False, False),
        ([25, d + 25], d - 24, False, True),
    )
    for n, order in ((9, "C"), (9, "F"), (3000, "C")):
        features = np.asarray(rng.standard_normal((n, d)), order=order)
        v = rng.standard_normal(n)
        mask, before, scored = aset.full_mask(), (None, None), None
        for off, columns, same_copy, same_memory in prunes:
            earlier, mask = mask, mask.copy()
            mask.deactivate(off)
            ids, values = aset.oracle(features, v, mask)[1]
            coords = ids % d
            cols = np.unique(coords)
            plain = features[:, cols]
            expected = (plain.T @ v)[np.searchsorted(cols, coords)]
            expected *= np.where(ids < d, -1.0, 1.0)
            assert values.tobytes() == expected.tobytes()
            cached = mask._columns
            assert cached.sub.shape == plain.shape == (n, columns)
            assert cached.sub.strides == plain.strides
            if before[0] is not None:
                assert (cached.sub is before[0]) == same_copy
                assert (cached.memory is before[1]) == same_memory
            before = (cached.sub, cached.memory)
            if scored is not None:
                again = aset.oracle(features, v, earlier)[1]
                assert earlier._columns is not cached
                assert again[1].tobytes() == scored.tobytes()
            scored = values


def test_oracle_scores_match_dots_on_every_kind():
    # a pruned signed basis scores from its active columns, an explicit set
    # or a pruned hypercube through dots, a full implicit set through lmo
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
    # one-sided (+e_0 only, -e_1 only), two-sided (e_2) and gone (e_3..e_5)
    aset = sets[0]
    mask = aset.full_mask()
    mask.deactivate([3, 4, 5, d + 0, d + 3, d + 4, d + 5])
    _oracle_matches_scoring(aset, features, rng.standard_normal(9), mask)


def test_column_cache_never_outlives_its_mask():
    # the compact columns are cached on the mask: a copy, a deactivated
    # mask, another features object or another set must not read them
    rng = np.random.default_rng(32)
    features = rng.standard_normal((8, 5))
    aset = gc.AtomicSet.signed_basis(5, scale=0.3)
    v = rng.standard_normal(8)
    mask = aset.full_mask()
    mask.deactivate([0, 7])
    _oracle_matches_scoring(aset, features, v, mask)  # builds the cache
    copy = mask.copy()
    copy.deactivate([3, 4])
    _oracle_matches_scoring(aset, features, v, copy)
    mask.deactivate([1, 9])
    _oracle_matches_scoring(aset, features, v, mask)
    _oracle_matches_scoring(aset, features.copy() * 2.0, v, mask)
    _oracle_matches_scoring(gc.AtomicSet.signed_basis(5, scale=2.0), features, v, mask)
    _oracle_matches_scoring(aset, features, v, copy)
