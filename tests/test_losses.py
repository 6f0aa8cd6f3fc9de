"""Loss oracles: gradients against central finite differences, values
against naive formulas on tame data, and curvature certificates against
exact Hessian quadratic forms."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import expit

import gaugecg as gc
from gaugecg import atoms
from gaugecg.errors import ContractViolationError


def fd_gradient(fun, x, h=1e-6):
    out = np.zeros_like(x)
    for k in range(x.size):
        up, down = x.copy(), x.copy()
        up[k] += h
        down[k] -= h
        out[k] = (fun(up) - fun(down)) / (2 * h)
    return out


def naive_logistic_value(A, b, x):
    margins = b * (A @ x)
    return sum(math.log(1.0 + math.exp(-m)) for m in margins) / len(margins)


def small_quadratic(seed=0, n=8, d=5):
    rng = np.random.default_rng(seed)
    data = gc.DataMatrix(rng.standard_normal((n, d)), rng.standard_normal(n))
    return gc.QuadraticLoss(data), rng


def small_logistic(seed=1, n=9, d=4):
    rng = np.random.default_rng(seed)
    targets = rng.choice([-1.0, 1.0], size=n)
    data = gc.DataMatrix(rng.standard_normal((n, d)), targets)
    return gc.LogisticLoss(data), rng


# ------------------------------------------------------------------ DataMatrix


def test_data_matrix_validation():
    with pytest.raises(ContractViolationError):
        gc.DataMatrix(np.ones((3, 2)), np.ones(4))
    with pytest.raises(ContractViolationError):
        gc.DataMatrix(np.array([[1.0, math.nan]]), np.ones(1))
    with pytest.raises(ContractViolationError):
        gc.DataMatrix(np.ones(3), np.ones(3))  # features must be 2-d
    with pytest.raises(ContractViolationError, match="features must be a 2-d array"):
        gc.DataMatrix([["a"]], [1.0])
    with pytest.raises(ContractViolationError, match="targets must have one entry per row"):
        gc.DataMatrix([[1.0]], ["a"])


def test_logistic_requires_sign_targets():
    with pytest.raises(ContractViolationError):
        gc.LogisticLoss(gc.DataMatrix(np.ones((2, 2)), np.array([1.0, 0.0])))


# ------------------------------------------------------------------- quadratic


def test_quadratic_value_and_gradient_formulas():
    loss, rng = small_quadratic()
    A, b = loss.data.features, loss.data.targets
    for _ in range(10):
        x = rng.standard_normal(5)
        r = A @ x - b
        assert loss.value(x) == pytest.approx(0.5 * float(r @ r))
        np.testing.assert_allclose(loss.gradient(x), A.T @ r, atol=1e-12)


def test_quadratic_gradient_matches_finite_differences():
    loss, rng = small_quadratic(seed=2)
    x = rng.standard_normal(5)
    np.testing.assert_allclose(loss.gradient(x), fd_gradient(loss.value, x), atol=1e-5)


# -------------------------------------------------------------------- logistic


def test_logistic_value_matches_naive_on_tame_data():
    loss, rng = small_logistic()
    A, b = loss.data.features, loss.data.targets
    for _ in range(10):
        x = rng.standard_normal(4) * 0.5
        assert loss.value(x) == pytest.approx(naive_logistic_value(A, b, x), abs=1e-12)


def test_logistic_gradient_matches_finite_differences():
    loss, rng = small_logistic(seed=3)
    x = rng.standard_normal(4)
    np.testing.assert_allclose(loss.gradient(x), fd_gradient(loss.value, x), atol=1e-5)


def test_logistic_stays_finite_at_extreme_margins():
    # naive exp() overflows near margin 750; the stable evaluation must not
    loss, _ = small_logistic(seed=4)
    x = np.full(4, 1e3)
    value = loss.value(x)
    grad = loss.gradient(x)
    assert math.isfinite(value)
    assert np.all(np.isfinite(grad))
    # at huge margins the per-row term approaches max(0, -margin)
    margins = loss.data.targets * (loss.data.features @ x)
    expected = float(np.mean(np.maximum(0.0, -margins)))
    assert value == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("entry", [math.inf, -math.inf, math.nan, 1e300])
def test_value_and_gradient_at_a_non_finite_point_raise_no_warning(entry):
    # an infinite entry made the margins' matmul (and logaddexp after it)
    # warn "invalid value"; both run under run's np.errstate, so the value
    # an aborting run records is the one it was, with no warning on the way
    for loss in (small_logistic(seed=4)[0], small_quadratic()[0]):
        x = np.full(loss.data.d, entry)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, grad = loss.value(x), loss.gradient(x)
        with np.errstate(over="ignore", invalid="ignore"):
            margins = loss.data.features @ x
            expected = loss.value_of_margins(margins)
            expected_grad = loss.data.features.T @ loss.link(margins)
        assert np.float64(value).tobytes() == np.float64(expected).tobytes()
        assert grad.tobytes() == expected_grad.tobytes()
        if entry != 1e300:
            assert not math.isfinite(value)


def test_logistic_link_is_the_closed_form_to_the_bit():
    rng = np.random.default_rng(3)
    n = 40
    b = np.where(rng.standard_normal(n) > 0, 1.0, -1.0)
    b[:4] = [1.0, 1.0, -1.0, -1.0]
    loss = gc.LogisticLoss(gc.DataMatrix(rng.standard_normal((n, 3)), b))
    ax = 5.0 * rng.standard_normal(n)
    ax[:6] = [1e3, -1e3, 1e3, -1e3, 0.0, -0.0]  # saturated margins, both signs
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        expected = (-b / n) / (np.exp(np.minimum(b * ax, 709.0)) + 1.0)
        got = loss.link(ax)
    assert got.tobytes() == expected.tobytes()


def test_logistic_link_tracks_scipy_expit():
    # the link's former form, -(b * expit(-b * ax)) / n: within 3 ulps while
    # the exact value is a normal number, and within 1e-300 past the clamp
    rng = np.random.default_rng(14)
    n = 200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for trial in range(500):
            b = np.where(rng.standard_normal(n) > 0, 1.0, -1.0)
            loss = gc.LogisticLoss(gc.DataMatrix(np.zeros((n, 1)), b))
            ax = 10.0 ** rng.uniform(-3.0, 3.0) * rng.standard_normal(n)
            if trial == 0:
                ax[:12] = [0.0, -0.0, 700.0, -700.0, 709.0, -709.0,
                           709.8, -709.8, 800.0, -800.0, 1e300, -1e300]
            got = loss.link(ax)
            expected = -(b * expit(-b * ax)) / n
            inside = np.abs(b * ax) <= 700.0
            ulps = np.abs(got - expected)[inside] / np.spacing(np.abs(expected[inside]))
            assert ulps.max() <= 3.0
            assert np.all(np.abs(got - expected)[~inside] <= 1e-300)
            zero = ax == 0.0
            assert np.array_equal(got[zero], expected[zero])
            assert np.all(np.signbit(got) == (b > 0))


def test_logistic_curvature_weights_match_the_sigmoid_product():
    # one feature column holding the margins, so A x is them exactly
    margins = np.concatenate([np.linspace(-800.0, 800.0, 16001), [0.0, -0.0]])
    n = margins.size
    b = np.where(np.random.default_rng(5).standard_normal(n) > 0, 1.0, -1.0)
    loss = gc.LogisticLoss(gc.DataMatrix(margins[:, None], b))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = loss.curvature_weights(loss.margins(np.ones(1)))
        m = b * margins
        expected = expit(m) * expit(-m) / n
    # relative 1e-14 wherever the weight is a normal number
    np.testing.assert_allclose(got, expected, rtol=1e-14, atol=np.finfo(float).tiny)
    assert got[-2] == got[-1] == 0.25 / n


def test_curvature_weights_factor_the_hessian():
    for build in (small_quadratic, small_logistic):
        loss, rng = build()
        A = loss.data.features
        x = rng.standard_normal(A.shape[1]) * 0.3
        w = loss.curvature_weights(loss.margins(x))
        hess = A.T @ (A * w[:, None])
        # compare against a finite-difference Jacobian of the gradient
        fd = np.stack(
            [fd_gradient(lambda y, k=k: loss.gradient(y)[k], x) for k in range(A.shape[1])]
        )
        np.testing.assert_allclose(hess, fd, atol=2e-5)


def test_value_is_its_margins_form_to_the_bit():
    # value(x) goes through value_of_margins(A x), which the reference
    # polish calls on margins it keeps; both match the formulas written out
    quadratic, rng = small_quadratic()
    logistic, _ = small_logistic()
    for loss in (quadratic, logistic):
        A, b = loss.data.features, loss.data.targets
        for scale in (0.3, 1.0, 1e3):
            x = rng.standard_normal(A.shape[1]) * scale
            ax = A @ x
            if loss is quadratic:
                r = ax - b
                expected = 0.5 * float(r @ r)
            else:
                expected = float(np.mean(np.logaddexp(0.0, -(b * ax))))
            got = loss.value(x)
            assert np.float64(got).tobytes() == np.float64(expected).tobytes()
            assert np.float64(loss.value_of_margins(ax)).tobytes() == np.float64(got).tobytes()


# ------------------------------------------------------------ smoothness bound


def test_smoothness_closed_forms():
    loss, _ = small_quadratic()
    A = loss.data.features
    basis = gc.AtomicSet.signed_basis(5, scale=2.0)
    expected = 4.0 * max(float(A[:, k] @ A[:, k]) for k in range(5))
    assert loss.smoothness_wrt(basis) == pytest.approx(expected)

    cube = gc.AtomicSet.hypercube(5, scale=0.5)
    col_norms = np.linalg.norm(A, axis=0)
    assert loss.smoothness_wrt(cube) == pytest.approx(0.25 * float(col_norms.sum()) ** 2)


def test_smoothness_refuses_a_set_of_another_dimension():
    loss, _ = small_quadratic(d=5)
    with pytest.raises(ContractViolationError, match="dimension does not match"):
        loss.smoothness_wrt(gc.AtomicSet.signed_basis(4))


def _layouts(rng):
    """(name, features) in the layouts gram_bound must handle, including
    the shapes whose column blocks would leave one column over."""
    width = atoms._COPY_BLOCK // 200  # block width at n=200
    for n, d in ((200, 2 * width + 1), (200, width + 1), (200, 3 * width), (7, 1), (1, 5)):
        base = rng.standard_normal((n, d)) * 3.0
        yield f"C {n}x{d}", base
        yield f"F {n}x{d}", np.asfortranarray(base)
        yield f"column-strided {n}x{d}", np.repeat(base, 2, axis=1)[:, ::2]
        yield f"row-strided {n}x{d}", np.repeat(base, 2, axis=0)[::2]
    # two columns to a block: the last of 5 would be alone
    yield "C 16384x5", rng.standard_normal((atoms._COPY_BLOCK, 5))


def test_gram_bound_is_the_whole_matrix_expression_to_the_bit():
    # the column norms are streamed a block at a time; L must keep the bits
    # of the expressions that square the whole matrix at once
    rng = np.random.default_rng(19)
    for name, A in _layouts(rng):
        norms = np.sum(A * A, axis=0)
        assert atoms._column_sq_norms(A).tobytes() == norms.tobytes(), name
        for scale in (1.0, 0.7):
            basis = gc.AtomicSet.signed_basis(A.shape[1], scale=scale)
            cube = gc.AtomicSet.hypercube(A.shape[1], scale=scale)
            whole = scale**2 * float(np.max(norms))
            cube_whole = scale**2 * float(np.sum(np.sqrt(np.sum(A**2, axis=0)))) ** 2
            assert basis.gram_bound(A).hex() == whole.hex(), name
            assert cube.gram_bound(A).hex() == cube_whole.hex(), name


def test_smoothness_forms_no_matrix_sized_temporary():
    data = gc.gen_synthetic(3, n=200, d=1000)
    loss = gc.LogisticLoss(data)
    for aset in (gc.AtomicSet.signed_basis(1000), gc.AtomicSet.hypercube(1000)):
        tracemalloc.start()
        try:
            loss.smoothness_wrt(aset)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= data.features.nbytes / 4, aset


def test_smoothness_explicit_is_gram_max():
    loss, rng = small_quadratic(seed=5)
    A = loss.data.features
    half = rng.standard_normal((3, 5))
    aset = gc.AtomicSet.explicit(np.vstack([half, -half]))
    mapped = aset.atoms_matrix() @ A.T
    expected = float(np.max(np.abs(mapped @ mapped.T)))
    assert loss.smoothness_wrt(aset) == pytest.approx(expected)


def test_smoothness_over_own_atoms_equals_the_symmetrized_set():
    # negating an atom only flips signs in the Gram matrix of the A p, so
    # the set's own atoms give the constant of V and -V together
    for seed in range(5):
        loss, rng = small_quadratic(seed=seed)
        vectors = rng.standard_normal((4, 5))
        lopsided = gc.AtomicSet.explicit(vectors, scale=1.5)
        both = gc.AtomicSet.explicit(np.vstack([vectors, -vectors]), scale=1.5)
        assert loss.smoothness_wrt(lopsided) == pytest.approx(
            loss.smoothness_wrt(both), rel=1e-14, abs=0.0
        )


def test_logistic_smoothness_scales_quadratic_by_quarter_n():
    data = gc.gen_synthetic(0, n=20, d=6)
    quad = gc.QuadraticLoss(data)
    logi = gc.LogisticLoss(data)
    aset = gc.AtomicSet.signed_basis(6)
    assert logi.smoothness_wrt(aset) == pytest.approx(
        quad.smoothness_wrt(aset) / (4.0 * 20)
    )


@given(
    t=st.floats(-2.0, 2.0, allow_nan=False),
    seed=st.integers(0, 50),
)
def test_descent_lemma_along_atoms(t, seed):
    """f(x + t p) <= f(x) + t grad'p + L t^2 / 2 for every atom p."""
    rng = np.random.default_rng(seed)
    data = gc.DataMatrix(
        rng.standard_normal((7, 4)) * 0.8, rng.choice([-1.0, 1.0], size=7)
    )
    aset = gc.AtomicSet.signed_basis(4, scale=1.5)
    for loss in (gc.QuadraticLoss(data), gc.LogisticLoss(data)):
        L = loss.smoothness_wrt(aset)
        x = rng.standard_normal(4) * 0.5
        fx = loss.value(x)
        g = loss.gradient(x)
        atom_id = int(rng.integers(0, aset.num_atoms))
        p = aset.atom_vector(atom_id)
        lhs = loss.value(x + t * p)
        rhs = fx + t * float(g @ p) + 0.5 * L * t * t
        assert lhs <= rhs + 1e-10 * (1.0 + abs(rhs))


def test_fingerprint_tracks_data_and_kind():
    data = gc.gen_synthetic(0, n=5, d=3)
    other = gc.gen_synthetic(1, n=5, d=3)

    def joined(loss):
        return b"".join(loss.fingerprint_parts())

    assert joined(gc.QuadraticLoss(data)) != joined(gc.LogisticLoss(data))
    assert joined(gc.LogisticLoss(data)) != joined(gc.LogisticLoss(other))
    assert joined(gc.LogisticLoss(data)) == joined(
        gc.LogisticLoss(gc.gen_synthetic(0, n=5, d=3))
    )
