"""Smooth data-fitting losses and their curvature relative to an atomic set.

Two losses are provided over a dense data matrix (features A, targets b):

* quadratic:  f(x) = 0.5 * ||A x - b||^2
* logistic:   f(x) = (1/n) * sum_i log(1 + exp(-b_i * <a_i, x>)),
              targets restricted to {-1, +1}, evaluated with a stable
              softplus so huge margins neither overflow nor lose the value.

``smoothness_wrt`` returns an upper curvature constant relative to a
symmetrized atomic set: the largest |<A p, A q>| over atom pairs (times the
scalar curvature bound of the link function). For the implicit kinds this
collapses to closed forms in the feature column norms.
"""

import io

import numpy as np
from scipy.special import expit

from . import atoms as _atoms
from .errors import ContractViolationError, FileFormatError


class DataMatrix:
    """Dense feature matrix plus one target per row."""

    def __init__(self, features, targets):
        self.features = np.asarray(features, dtype=float)
        self.targets = np.asarray(targets, dtype=float)
        if self.features.ndim != 2:
            raise ContractViolationError("features must be a 2-d array")
        n, _ = self.features.shape
        if self.targets.shape != (n,):
            raise ContractViolationError(
                f"targets must have one entry per row, got {self.targets.shape}"
            )
        if not np.all(np.isfinite(self.features)) or not np.all(
            np.isfinite(self.targets)
        ):
            raise ContractViolationError("data must be finite")

    @property
    def n(self):
        return self.features.shape[0]

    @property
    def d(self):
        return self.features.shape[1]

    def fingerprint_bytes(self):
        return (
            f"data|{self.n}|{self.d}|".encode()
            + self.features.tobytes()
            + self.targets.tobytes()
        )


def load_data_file(path):
    """Read a DataMatrix from a text file.

    Layout: a header line ``<n> <d>`` followed by n rows of d feature values
    plus the target as the last value; separators are whitespace or commas.
    """
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().replace(",", " ").split()
        if len(header) != 2:
            raise FileFormatError(
                "data file must start with a '<n> <d>' header", offset=0
            )
        try:
            n, d = int(header[0]), int(header[1])
        except ValueError:
            raise FileFormatError("data header entries are not integers", offset=0) from None
        body = fh.read().replace(",", " ")
    rows = np.loadtxt(io.StringIO(body), ndmin=2)
    if rows.shape != (n, d + 1):
        raise FileFormatError(
            f"expected {n} rows of {d} features + target, got shape {tuple(rows.shape)}",
            offset=1,
        )
    return DataMatrix(rows[:, :d], rows[:, d])


def save_data_file(data, path):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{data.n} {data.d}\n")
        for row, target in zip(data.features, data.targets):
            cells = " ".join(repr(float(v)) for v in row)
            fh.write(f"{cells} {float(target)!r}\n")


class _Loss:
    """Common plumbing for the two concrete losses.

    Both losses depend on x only through the margins ax = A x. Each states
    its gradient once, as ``link(ax)``: the vector v with gradient = A'v.
    ``gradient(x)`` computes the margins and calls it; the solver keeps ax
    itself, calls ``link`` directly, and calls ``value(x)`` only for trace
    rows. (value and gradient are defined on each concrete class, where
    bench/tracing.py looks them up to wrap them.)
    """

    kind = None
    # upper bound on the second derivative of the scalar link function
    _curvature = None

    def __init__(self, data):
        if not isinstance(data, DataMatrix):
            data = DataMatrix(*data)
        self.data = data

    @property
    def dimension(self):
        return self.data.d

    def _check_x(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.data.d,):
            raise ContractViolationError(
                f"expected a point of dimension {self.data.d}, got shape {x.shape}"
            )
        return x

    def margins(self, x):
        """A x: the loss value and gradient at x depend on x only through it."""
        return self.data.features @ self._check_x(x)

    def smoothness_wrt(self, atomic_set):
        """Curvature constant relative to a symmetrized atomic set.

        The set must be closed under negation (symmetrize it first); the
        constant bounds <p, H q> over atom pairs for every Hessian H of the
        loss, which is what the gap certificates and screening need.
        """
        if atomic_set.dimension != self.data.d:
            raise ContractViolationError("atomic set dimension does not match data")
        if not atomic_set.symmetric:
            raise ContractViolationError(
                "smoothness is defined against a symmetrized set; call "
                "symmetrize() first"
            )
        A = self.data.features
        scale = atomic_set.scale
        if atomic_set.kind == _atoms.SIGNED_BASIS:
            base = scale**2 * float(np.max(np.sum(A * A, axis=0)))
        elif atomic_set.kind == _atoms.HYPERCUBE:
            base = scale**2 * float(np.sum(np.sqrt(np.sum(A * A, axis=0)))) ** 2
        else:
            mapped = A @ atomic_set.atoms_matrix().T  # columns are A p
            gram = mapped.T @ mapped
            base = float(np.max(np.abs(gram)))
        return self._curvature(base)


class QuadraticLoss(_Loss):
    """f(x) = 0.5 * ||A x - b||^2."""

    kind = "quadratic"

    def value(self, x):
        r = self.margins(x) - self.data.targets
        return 0.5 * float(r @ r)

    def gradient(self, x):
        return self.data.features.T @ self.link(self.margins(x))

    def link(self, ax):
        return ax - self.data.targets

    def curvature_weights(self, x):
        """Per-row weights w with hessian(x) = A' diag(w) A."""
        return np.ones(self.data.n)

    def _curvature(self, base):
        return base

    def fingerprint_bytes(self):
        return b"quadratic|" + self.data.fingerprint_bytes()


class LogisticLoss(_Loss):
    """f(x) = (1/n) * sum_i log(1 + exp(-b_i <a_i, x>)) with b_i in {-1,+1}."""

    kind = "logistic"

    def __init__(self, data):
        super().__init__(data)
        if not np.all(np.isin(self.data.targets, (-1.0, 1.0))):
            raise ContractViolationError("logistic targets must be -1 or +1")

    def value(self, x):
        margins = self.data.targets * self.margins(x)
        # log(1 + exp(-m)) computed without overflow for any margin
        return float(np.mean(np.logaddexp(0.0, -margins)))

    def gradient(self, x):
        return self.data.features.T @ self.link(self.margins(x))

    def link(self, ax):
        w = expit(-self.data.targets * ax)  # = 1 - sigmoid(m), saturates cleanly
        return -(self.data.targets * w) / self.data.n

    def curvature_weights(self, x):
        """Per-row weights w with hessian(x) = A' diag(w) A."""
        x = self._check_x(x)
        margins = self.data.targets * (self.data.features @ x)
        return expit(margins) * expit(-margins) / self.data.n

    def _curvature(self, base):
        # the scalar link has second derivative at most 1/4, averaged over n
        return base / (4.0 * self.data.n)

    def fingerprint_bytes(self):
        return b"logistic|" + self.data.fingerprint_bytes()
