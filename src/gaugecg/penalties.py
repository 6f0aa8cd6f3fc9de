"""Scalar penalties on the gauge value, with conjugates and step solutions.

A penalty is a nondecreasing convex function ``phi`` on [0, inf) with
phi(0) = 0. Three kinds are provided, one Penalty subclass each, each
carrying a positive weight (the regularization strength, multiplied into
the function):

* ``power``       phi(xi) = w * xi^alpha / alpha           (alpha >= 1)
* ``log-barrier`` phi(xi) = w * (-log(cap-xi)/b - xi/(cap*b) + log(cap)/b)
                  on [0, cap), +inf beyond
* ``indicator``   phi(xi) = 0 on [0, cap], +inf beyond

Besides values, each kind exposes its convex conjugate on nu >= 0 and the
scalar step solution

    xi_step(nu) = argmin_{xi >= 0}  -nu*xi + phi(xi),

which is the conjugate's maximizer. +inf is represented by math.inf
(float('inf')); comparisons against it saturate naturally.

Quadratic-growth bookkeeping: each penalty records a constant mu with
phi(xi) >= mu*xi^2 - c for some constant c, so that xi_step grows at most
like nu/mu. Kinds with bounded domain register mu = +inf (the step is
capped outright); power exponents below 2 register mu = 0, which flags
that the sublinear-rate guarantee does not apply.
"""

import math

from .errors import (
    ContractViolationError,
    UnboundedConjugateError,
    UnboundedStepError,
    _checked,
    _real,
)

POWER = "power"
LOG_BARRIER = "log-barrier"
INDICATOR = "indicator"


class Penalty:
    """One scalar penalty; the power / log_barrier / indicator classmethods
    build the subclass of each kind."""

    kind = None
    # the constructor parameters the kind reads, in the constructor's order
    params = ()
    alpha = cap = growth = None
    # (phi'(xi), phi''(xi)) on the kinds smooth enough for the reference
    # polish (experiments._polish); None on the others
    derivatives = None

    def __init__(self, weight):
        self.weight = _checked(
            _real, weight, lambda w: 0 < w < math.inf,
            "penalty weight must be positive and finite",
        )

    # -- constructors ---------------------------------------------------

    @classmethod
    def power(cls, alpha, weight=1.0):
        """phi(xi) = weight * xi^alpha / alpha."""
        return _Power(alpha, weight)

    @classmethod
    def log_barrier(cls, cap, growth=1.0, weight=1.0):
        """Soft cap: finite on [0, cap), slope exploding at the cap.

        ``growth`` is the barrier steepness parameter (larger = flatter
        away from the cap).
        """
        return _LogBarrier(cap, growth, weight)

    @classmethod
    def indicator(cls, cap):
        """Hard cap: 0 on [0, cap], +inf beyond. Weight is irrelevant."""
        return _Indicator(cap)

    # -- properties -------------------------------------------------------

    @property
    def guarantees_convergence(self):
        """True when the quadratic-growth constant is positive (the
        sublinear gap rate applies)."""
        return self.mu > 0

    # -- the three evaluations ---------------------------------------------

    def value(self, xi):
        """phi(xi); +inf outside the domain; xi < 0 is a contract violation."""
        if type(xi) is not float:  # the solver's own floats as they are
            xi = _checked(_real, xi, lambda v: True, "penalty argument must be a real")
        if xi < 0:
            raise ContractViolationError("penalty argument must be nonnegative")
        return self._value(xi)

    def conjugate(self, nu):
        """sup_{xi >= 0} nu*xi - phi(xi), for nu >= 0."""
        if type(nu) is not float:
            nu = _checked(_real, nu, lambda v: True, "conjugate argument must be a real")
        if nu < 0:
            raise ContractViolationError("conjugate argument must be nonnegative")
        return self._conjugate(nu)

    def xi_step(self, nu):
        """argmin_{xi >= 0} -nu*xi + phi(xi) (the conjugate's maximizer).

        Nonpositive nu (and nu below the initial slope) maps to 0. Raises
        UnboundedStepError when no finite minimizer exists.
        """
        if type(nu) is not float:
            nu = _checked(_real, nu, lambda v: True, "step argument must be a real")
        if not math.isfinite(nu):
            raise ContractViolationError("step argument must be finite")
        if nu <= 0:
            return 0.0
        return self._xi_step(nu)

    def _value_rounded(self, xi, rounding):
        """phi at a xi pushed past the domain by at most rounding: +inf on
        every kind but the indicator, whose domain is closed."""
        return self._value(xi)

    def fingerprint_bytes(self):
        return (
            f"{self.kind}|{self.weight!r}|{self.alpha!r}|{self.cap!r}|"
            f"{self.growth!r}".encode()
        )

    def __repr__(self):
        values = "".join(f", {name}={getattr(self, name)}" for name in self.params)
        return f"Penalty({self.kind}{values})"


class _Power(Penalty):
    kind = POWER
    params = ("alpha", "weight")

    def __init__(self, alpha, weight):
        super().__init__(weight)
        self.alpha = _checked(
            _real, alpha, lambda a: 1 <= a < math.inf,
            "power exponent must satisfy alpha >= 1",
        )
        # alpha in [1, 2): no quadratic growth, no rate guarantee
        self.mu = self.weight / self.alpha if self.alpha >= 2.0 else 0.0

    # float ** raises OverflowError past the double range while * and /
    # saturate; a true value beyond the range reads as inf here
    def _value(self, xi):
        try:
            return self.weight * xi**self.alpha / self.alpha
        except OverflowError:
            return math.inf

    def _conjugate(self, nu):
        if self.alpha == 1.0:
            if nu > self.weight:
                raise UnboundedConjugateError(
                    "linear penalty conjugate is +inf beyond its slope"
                )
            return 0.0
        beta = self.alpha / (self.alpha - 1.0)
        try:
            return self.weight * (nu / self.weight) ** beta / beta
        except OverflowError:
            return math.inf

    def _xi_step(self, nu):
        if self.alpha == 1.0:
            if nu > self.weight:
                raise UnboundedStepError(
                    "linear penalty cannot match a slope above its weight; "
                    "the step subproblem is unbounded below"
                )
            return 0.0
        try:
            return (nu / self.weight) ** (1.0 / (self.alpha - 1.0))
        except OverflowError:
            return math.inf

    def derivatives(self, xi):
        w, alpha = self.weight, self.alpha
        return w * xi ** (alpha - 1.0), w * (alpha - 1.0) * xi ** (alpha - 2.0)


class _LogBarrier(Penalty):
    kind = LOG_BARRIER
    params = ("cap", "growth", "weight")
    mu = math.inf

    def __init__(self, cap, growth, weight):
        super().__init__(weight)
        self.cap = _checked(_real, cap, lambda c: c > 0, "log-barrier cap must be positive")
        self.growth = _checked(
            _real, growth, lambda b: b > 0, "log-barrier growth must be positive"
        )

    def _value(self, xi):
        if xi >= self.cap:
            return math.inf
        b, cap = self.growth, self.cap
        return self.weight * (
            -math.log(cap - xi) / b - xi / (cap * b) + math.log(cap) / b
        )

    def _conjugate(self, nu):
        # cap*nu - (w/b) * log(1 + cap*b*nu/w)
        t = self.cap * self.growth * nu / self.weight
        return self.cap * nu - self.weight / self.growth * math.log1p(t)

    def _xi_step(self, nu):
        t = self.cap * self.growth * nu / self.weight
        return self.cap * t / (t + 1.0)


class _Indicator(Penalty):
    kind = INDICATOR
    params = ("cap",)
    mu = math.inf

    def __init__(self, cap):
        super().__init__(1.0)
        self.cap = _checked(_real, cap, lambda c: c > 0, "indicator cap must be positive")

    def _value(self, xi):
        return 0.0 if xi <= self.cap else math.inf

    def _value_rounded(self, xi, rounding):
        return self._value(xi - rounding)  # [0, cap] is closed

    def _conjugate(self, nu):
        return self.cap * nu

    def _xi_step(self, nu):
        return self.cap


# the class of each kind, by its name
KINDS = {cls.kind: cls for cls in (_Power, _LogBarrier, _Indicator)}
