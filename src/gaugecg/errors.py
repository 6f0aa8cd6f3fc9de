"""Exception types shared across the package.

Every error the library raises deliberately is one of these, so callers
(and the command line front end) can map failures to exit codes without
string matching. _checked refuses a bad argument with the first, and _real
and _index convert a number and a count for it; _vector checks a point.
"""

import operator

import numpy as np


class ContractViolationError(ValueError):
    """An argument violated a documented precondition (wrong sign, empty
    mask, mismatched dimension, ...)."""


def _checked(to, value, ok, message):
    """to(value) when it converts and ok accepts it, else
    ContractViolationError(message): None, a word or an infinite count
    is refused like any other bad argument."""
    try:
        value = to(value)
    except (TypeError, ValueError, OverflowError):
        raise ContractViolationError(message) from None
    if not ok(value):
        raise ContractViolationError(message)
    return value


def _real(value):
    """float(value) for _checked where a number is expected; a bool, which
    float reads as 0 or 1, raises TypeError."""
    if isinstance(value, (bool, np.bool_)):
        raise TypeError("a bool is not a number")
    return float(value)


def _index(value):
    """operator.index(value) for _checked where a count or an id is
    expected; a bool, which it reads as 0 or 1, raises TypeError."""
    if isinstance(value, (bool, np.bool_)):
        raise TypeError("a bool is not a count")
    return operator.index(value)


_FLOAT = np.dtype(float)


def _vector(value, size):
    """value as a float vector of the given size, else ContractViolationError;
    a float array is returned as it is, as np.asarray would return it."""
    if type(value) is not np.ndarray or value.dtype is not _FLOAT:
        value = _checked(
            lambda a: np.asarray(a, dtype=float), value, lambda a: True,
            "a point must be a real vector",
        )
    if value.shape != (size,):
        raise ContractViolationError(
            f"expected a point of dimension {size}, got shape {value.shape}"
        )
    return value


class InfeasibleGaugeError(ValueError):
    """The point lies outside the cone generated by the atoms, so its
    gauge is +inf and no conic decomposition exists."""


class UnboundedConjugateError(ArithmeticError):
    """The penalty conjugate is +inf at the requested argument (linear
    penalty queried beyond its slope)."""


class UnboundedStepError(ArithmeticError):
    """The scalar step subproblem has no finite minimizer; the overall
    objective is unbounded below along the selected ray."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t
        self.result = None  # attached by the solver driver when available


class DivergenceError(RuntimeError):
    """Iterates overflowed or left the trusted numeric range."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t
        self.result = None  # attached by the solver driver when available


class CertificateCorruptionError(RuntimeError):
    """A quantity that certifies optimality (the duality gap) came out
    negative beyond tolerance; screening aborts rather than prune."""


class FileFormatError(ValueError):
    """An input file does not match its documented byte/text layout.

    ``offset`` points at the first offending byte (or line) when known.
    """

    def __init__(self, message, offset=None):
        super().__init__(message)
        self.offset = offset


class ReferenceMismatchError(ValueError):
    """A residual/certificate computation was handed a reference solution
    produced for a different problem (fingerprints disagree)."""
