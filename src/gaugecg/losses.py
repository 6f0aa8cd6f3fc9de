"""Smooth data-fitting losses and their curvature relative to an atomic set.

Two losses are provided over a dense data matrix (features A, targets b):

* quadratic:  f(x) = 0.5 * ||A x - b||^2
* logistic:   f(x) = (1/n) * sum_i log(1 + exp(-b_i * <a_i, x>)),
              targets restricted to {-1, +1}, evaluated with a stable
              softplus so huge margins neither overflow nor lose the value.

The logistic link and curvature weights are numpy ufuncs too, so the
losses, and the package with them, load no scipy module.

``smoothness_wrt`` returns an upper curvature constant L over the set's
own atoms: the set's bound on |<A p, A q>| over atom pairs
(AtomicSet.gram_bound) times the scalar curvature bound of the link function.
"""

import numpy as np

from .errors import ContractViolationError, _checked, _vector


class DataMatrix:
    """Dense feature matrix plus one target per row."""

    def __init__(self, features, targets):
        self.features = _checked(
            lambda a: np.asarray(a, dtype=float), features, lambda a: a.ndim == 2,
            "features must be a 2-d array",
        )
        n = self.features.shape[0]
        self.targets = _checked(
            lambda a: np.asarray(a, dtype=float), targets, lambda a: a.shape == (n,),
            f"targets must have one entry per row ({n})",
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

    def fingerprint_parts(self):
        """Stable description for problem fingerprints, in pieces, the
        arrays as buffers rather than copies, so problem_fingerprint hashes
        the data without copying it."""
        return [
            f"data|{self.n}|{self.d}|".encode(),
            np.ascontiguousarray(self.features),
            np.ascontiguousarray(self.targets),
        ]


class _Loss:
    """Common plumbing for the two concrete losses.

    Both losses depend on x only through the margins ax = A x. Each states
    its value, gradient and curvature once, on the margins:
    ``value_of_margins(ax)``, ``link(ax)`` (the vector v with gradient =
    A'v) and ``curvature_weights(ax)``. ``value(x)`` and ``gradient(x)``
    compute the margins and call them; the solver keeps ax itself, calls
    ``link`` directly, and calls ``value(x)`` only for trace rows. (value
    and gradient are defined on each concrete class, where bench/tracing.py
    looks them up to wrap them.)
    """

    kind = None
    # upper bound on the second derivative of the scalar link function
    _curvature = None

    def __init__(self, data):
        self.data = _checked(lambda d: d, data, lambda d: isinstance(d, DataMatrix),
                             "a loss needs a DataMatrix")

    def margins(self, x):
        """A x: the loss value and gradient at x depend on x only through it."""
        return self.data.features @ _vector(x, self.data.d)

    def smoothness_wrt(self, atomic_set):
        """Curvature constant L over the set's own atoms (the symmetrized
        set gives the same constant).

        L bounds |<p, H q>| over atom pairs for every Hessian H of the
        loss, which is what the gap certificates and screening need.
        """
        if atomic_set.dimension != self.data.d:
            raise ContractViolationError("atomic set dimension does not match data")
        return self._curvature(atomic_set.gram_bound(self.data.features))

    def fingerprint_parts(self):
        return [f"{self.kind}|".encode(), *self.data.fingerprint_parts()]


class QuadraticLoss(_Loss):
    """f(x) = 0.5 * ||A x - b||^2."""

    kind = "quadratic"

    def value(self, x):
        return self.value_of_margins(self.margins(x))

    def value_of_margins(self, ax):
        r = ax - self.data.targets
        return 0.5 * float(r @ r)

    def gradient(self, x):
        return self.data.features.T @ self.link(self.margins(x))

    def link(self, ax):
        return ax - self.data.targets

    def curvature_weights(self, ax):
        """Per-row weights w with hessian = A' diag(w) A at margins ax."""
        return np.ones(self.data.n)

    def _curvature(self, base):
        return base


class LogisticLoss(_Loss):
    """f(x) = (1/n) * sum_i log(1 + exp(-b_i <a_i, x>)) with b_i in {-1,+1}."""

    kind = "logistic"

    def __init__(self, data):
        super().__init__(data)
        if not np.all(np.isin(self.data.targets, (-1.0, 1.0))):
            raise ContractViolationError("logistic targets must be -1 or +1")
        self._neg_targets_over_n = -self.data.targets / self.data.n

    def value(self, x):
        return self.value_of_margins(self.margins(x))

    def value_of_margins(self, ax):
        margins = self.data.targets * ax
        # log(1 + exp(-m)) computed without overflow for any margin
        # np.mean's own reduction and division, less its wrapper
        return float(np.add.reduce(np.logaddexp(0.0, -margins))) / self.data.n

    def gradient(self, x):
        return self.data.features.T @ self.link(self.margins(x))

    def link(self, ax):
        # -b / (n * (1 + exp(b * ax))), which is -(b * sigmoid(-b * ax)) / n,
        # in place on one temporary. The exponent is clamped below exp's
        # overflow at 709.78, so saturated margins raise no warning: past
        # the clamp an entry reads at most 1/(n * exp(709)) ~ 1e-308 where
        # the exact value is smaller still.
        w = self.data.targets * ax
        np.minimum(w, 709.0, out=w)
        np.exp(w, out=w)
        w += 1.0
        return np.divide(self._neg_targets_over_n, w, out=w)

    def curvature_weights(self, ax):
        """Per-row weights w with hessian = A' diag(w) A at margins ax."""
        # sigmoid(m) * sigmoid(-m) = e / (1 + e)^2 with e = exp(-|m|) <= 1,
        # even in the margin's sign, so the targets drop out
        e = np.exp(-np.abs(ax))
        return e / (1.0 + e) ** 2 / self.data.n

    def _curvature(self, base):
        # the scalar link has second derivative at most 1/4, averaged over n
        return base / (4.0 * self.data.n)
