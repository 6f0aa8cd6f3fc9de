"""Penalty oracles: conjugates and step solutions are checked against a
dense grid maximizer built from the closed-form definitions written here,
independent of the Penalty class internals."""

import inspect
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import gaugecg as gc
from gaugecg.errors import (
    ContractViolationError,
    UnboundedConjugateError,
    UnboundedStepError,
)


def power_phi(xi, alpha, weight):
    return weight * xi**alpha / alpha


def barrier_phi(xi, cap, growth, weight):
    return weight * (-np.log(cap - xi) / growth - xi / (cap * growth) + np.log(cap) / growth)


def grid_argmax(nu, phi_values, grid):
    scores = nu * grid - phi_values
    k = int(np.argmax(scores))
    return float(grid[k]), float(scores[k])


# ---------------------------------------------------------------------- power


def test_power_alpha2_conjugate_exact():
    pen = gc.Penalty.power(2.0)
    for nu in np.arange(0.0, 100.5, 0.5):
        assert abs(pen.conjugate(nu) - nu * nu / 2.0) <= 1e-12


def test_power_conjugate_and_step_match_grid():
    alpha, weight = 3.0, 0.7
    pen = gc.Penalty.power(alpha, weight=weight)
    grid = np.linspace(0.0, 12.0, 200_001)
    phi = power_phi(grid, alpha, weight)
    for nu in (0.0, 0.3, 1.0, 4.5):
        xi_grid, val_grid = grid_argmax(nu, phi, grid)
        assert pen.conjugate(nu) == pytest.approx(val_grid, abs=1e-7)
        assert pen.xi_step(nu) == pytest.approx(xi_grid, abs=1e-4)


def test_power_value_matches_definition():
    pen = gc.Penalty.power(1.7, weight=2.0)
    for xi in (0.0, 0.4, 3.0):
        assert pen.value(xi) == pytest.approx(power_phi(xi, 1.7, 2.0))


def test_power_past_the_double_range_reads_as_inf():
    # float ** raises OverflowError where the true value exceeds the double
    # range: the except branches of _Power._conjugate and _Power._xi_step
    # (penalties.py:169-170 and 182-183) return inf
    assert gc.Penalty.power(1.5).xi_step(1e200) == math.inf
    assert gc.Penalty.power(3.0).conjugate(1e300) == math.inf


def test_linear_penalty_threshold_behavior():
    pen = gc.Penalty.power(1.0, weight=2.0)
    assert pen.conjugate(1.5) == 0.0
    assert pen.conjugate(2.0) == 0.0  # boundary stays finite
    assert pen.xi_step(1.9) == 0.0
    with pytest.raises(UnboundedConjugateError):
        pen.conjugate(2.0000001)
    with pytest.raises(UnboundedStepError):
        pen.xi_step(2.0000001)


def test_power_alpha_below_one_rejected():
    with pytest.raises(ContractViolationError):
        gc.Penalty.power(0.5)


# ----------------------------------------------------------------- log-barrier


def test_barrier_value_matches_definition_and_domain():
    pen = gc.Penalty.log_barrier(2.0, growth=0.8, weight=1.3)
    for xi in (0.0, 0.5, 1.9):
        assert pen.value(xi) == pytest.approx(barrier_phi(xi, 2.0, 0.8, 1.3))
    assert pen.value(2.0) == math.inf
    assert pen.value(5.0) == math.inf
    assert pen.value(0.0) == 0.0


def test_barrier_conjugate_and_step_match_grid():
    cap, growth, weight = 2.0, 0.8, 1.3
    pen = gc.Penalty.log_barrier(cap, growth=growth, weight=weight)
    grid = np.linspace(0.0, cap, 100_001)[:-1]
    phi = barrier_phi(grid, cap, growth, weight)
    res = cap / 100_000
    for nu in np.linspace(0.0, 8.0, 17):
        xi_grid, val_grid = grid_argmax(nu, phi, grid)
        assert abs(pen.conjugate(nu) - val_grid) <= res
        assert abs(pen.xi_step(nu) - xi_grid) <= res


def test_barrier_step_capped():
    pen = gc.Penalty.log_barrier(3.0)
    assert pen.xi_step(0.0) == 0.0
    assert pen.xi_step(1e12) < 3.0
    assert pen.xi_step(1e12) == pytest.approx(3.0, abs=1e-8)


def test_barrier_growth_flattens_the_penalty():
    flat = gc.Penalty.log_barrier(2.0, growth=5.0)
    steep = gc.Penalty.log_barrier(2.0, growth=0.5)
    assert flat.value(1.5) < steep.value(1.5)


# ------------------------------------------------------------------- indicator


def test_indicator_value_boundary_inclusive():
    pen = gc.Penalty.indicator(2.0)
    assert pen.value(0.0) == 0.0
    assert pen.value(2.0) == 0.0
    assert pen.value(2.0000001) == math.inf


def test_indicator_conjugate_and_step():
    pen = gc.Penalty.indicator(2.0)
    for nu in (0.0, 0.5, 7.0):
        assert pen.conjugate(nu) == 2.0 * nu
    assert pen.xi_step(0.0) == 0.0
    assert pen.xi_step(-3.0) == 0.0
    assert pen.xi_step(0.4) == 2.0


# ------------------------------------------------------------------ validation


@pytest.mark.parametrize(
    "build",
    [
        lambda: gc.Penalty.power(2.0, weight=0.0),
        lambda: gc.Penalty.power(2.0, weight=-1.0),
        lambda: gc.Penalty.power(math.inf),
        lambda: gc.Penalty.log_barrier(0.0),
        lambda: gc.Penalty.log_barrier(1.0, growth=0.0),
        lambda: gc.Penalty.indicator(-2.0),
        lambda: gc.Penalty.power(None),
        lambda: gc.Penalty.power(math.nan),
        lambda: gc.Penalty.log_barrier(None),
        lambda: gc.Penalty.log_barrier(1.0, growth=None),
        lambda: gc.Penalty.indicator(None),
    ],
)
def test_bad_parameters_rejected(build):
    with pytest.raises(ContractViolationError):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: gc.Penalty.power(None), "power exponent must satisfy alpha >= 1"),
        (lambda: gc.Penalty.log_barrier(None), "log-barrier cap must be positive"),
        (lambda: gc.Penalty.log_barrier(1.0, growth=None), "log-barrier growth must be"),
        (lambda: gc.Penalty.indicator(None), "indicator cap must be positive"),
        # arguments that do not convert
        pytest.param(
            lambda: gc.Penalty.power(2.0, weight=None), "penalty weight must be positive",
            id="weight-None",
        ),
        pytest.param(
            lambda: gc.Penalty.power("a"), "power exponent must satisfy alpha >= 1",
            id="alpha-word",
        ),
        pytest.param(
            lambda: gc.Penalty.log_barrier("x"), "log-barrier cap must be positive",
            id="log-barrier-cap-word",
        ),
        pytest.param(
            lambda: gc.Penalty.indicator("x"), "indicator cap must be positive",
            id="indicator-cap-word",
        ),
        # the weight is checked first, then the parameters in their order
        (lambda: gc.Penalty.power(None, weight=0.0), "penalty weight must be positive"),
        (lambda: gc.Penalty.log_barrier(0.0, growth=0.0, weight=math.nan), "weight"),
        (lambda: gc.Penalty.log_barrier(0.0, growth=0.0), "log-barrier cap"),
        pytest.param(
            lambda: gc.Penalty.power("a", weight=None), "penalty weight must be positive",
            id="weight-before-alpha-word",
        ),
    ],
)
def test_bad_parameters_name_the_first_bad_one(build, message):
    with pytest.raises(ContractViolationError, match=message):
        build()


def test_each_kind_declares_its_constructor_parameters():
    for cls in gc.Penalty.__subclasses__():
        assert tuple(inspect.signature(cls).parameters) == cls.params, cls


def test_repr_shows_the_parameters_the_kind_reads():
    assert repr(gc.Penalty.power(2.0, weight=0.5)) == "Penalty(power, alpha=2.0, weight=0.5)"
    assert repr(gc.Penalty.log_barrier(1.0, growth=2.0, weight=0.5)) == (
        "Penalty(log-barrier, cap=1.0, growth=2.0, weight=0.5)"
    )
    assert repr(gc.Penalty.indicator(2.0)) == "Penalty(indicator, cap=2.0)"


def test_no_kind_overrides_a_checked_evaluation():
    # value, conjugate and xi_step check their argument on the base class
    # for every kind; bench/tracing.py wraps value and xi_step there
    for cls in gc.Penalty.__subclasses__():
        for name in ("value", "conjugate", "xi_step"):
            assert name not in vars(cls), (cls, name)


def test_negative_arguments_rejected():
    pen = gc.Penalty.power(2.0)
    with pytest.raises(ContractViolationError):
        pen.value(-0.1)
    with pytest.raises(ContractViolationError):
        pen.conjugate(-0.1)
    with pytest.raises(ContractViolationError):
        pen.xi_step(math.nan)


def test_nonpositive_slope_maps_to_zero_step():
    for pen in (
        gc.Penalty.power(2.0),
        gc.Penalty.power(1.0),
        gc.Penalty.log_barrier(1.0),
        gc.Penalty.indicator(1.0),
    ):
        assert pen.xi_step(0.0) == 0.0
        assert pen.xi_step(-5.0) == 0.0


# ---------------------------------------------------------- growth bookkeeping


def test_growth_constants_alpha2():
    pen = gc.Penalty.power(2.0, weight=3.0)
    assert pen.mu == 1.5
    assert pen.guarantees_convergence


def test_flat_powers_flag_no_guarantee():
    assert not gc.Penalty.power(1.5).guarantees_convergence
    assert not gc.Penalty.power(1.0).guarantees_convergence
    assert gc.Penalty.log_barrier(1.0).guarantees_convergence
    assert gc.Penalty.indicator(1.0).guarantees_convergence


@given(nu=st.floats(0.0, 100.0, allow_nan=False))
def test_step_bound_from_growth_constants(nu):
    # offset: 0 at alpha = 2, the point (2/alpha)^(1/(alpha-2)) where
    # mu*xi^2 - phi(xi) peaks above it, and the cap where mu = inf
    for pen, offset in (
        (gc.Penalty.power(2.0, weight=0.5), 0.0),
        (gc.Penalty.power(3.0, weight=1.2), 2.0 / 3.0),
        (gc.Penalty.log_barrier(2.0, growth=0.7, weight=1.1), 2.0),
        (gc.Penalty.indicator(1.5), 1.5),
    ):
        assert pen.xi_step(nu) <= nu / pen.mu + offset + 1e-9


@given(
    xi=st.floats(0.0, 50.0, allow_nan=False),
    nu=st.floats(0.0, 50.0, allow_nan=False),
)
def test_fenchel_young_inequality(xi, nu):
    for pen in (
        gc.Penalty.power(2.0, weight=0.8),
        gc.Penalty.power(3.5, weight=1.5),
        gc.Penalty.log_barrier(4.0, growth=1.2, weight=0.6),
        gc.Penalty.indicator(3.0),
    ):
        lhs = nu * xi
        rhs = pen.value(xi) + pen.conjugate(nu)
        if math.isinf(rhs):
            continue
        assert lhs <= rhs + 1e-9 * (1.0 + abs(rhs))


@given(nu=st.floats(0.0, 30.0, allow_nan=False))
def test_fenchel_young_tight_at_the_step(nu):
    for pen in (
        gc.Penalty.power(2.0, weight=0.8),
        gc.Penalty.power(3.5, weight=1.5),
        gc.Penalty.log_barrier(4.0, growth=1.2, weight=0.6),
    ):
        xi = pen.xi_step(nu)
        lhs = nu * xi
        rhs = pen.value(xi) + pen.conjugate(nu)
        assert lhs == pytest.approx(rhs, abs=1e-8, rel=1e-8)


def test_fingerprints_distinguish_penalties():
    prints = {
        gc.Penalty.power(2.0).fingerprint_bytes(),
        gc.Penalty.power(2.0, weight=0.5).fingerprint_bytes(),
        gc.Penalty.log_barrier(1.0).fingerprint_bytes(),
        gc.Penalty.indicator(1.0).fingerprint_bytes(),
    }
    assert len(prints) == 4
