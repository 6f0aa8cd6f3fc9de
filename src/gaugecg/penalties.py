"""Scalar penalties on the gauge value, with conjugates and step solutions.

A penalty is a nondecreasing convex function ``phi`` on [0, inf) with
phi(0) = 0. Three kinds are provided, each carrying a positive weight
(the regularization strength, multiplied into the function):

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
)

POWER = "power"
LOG_BARRIER = "log-barrier"
INDICATOR = "indicator"


def _sat_pow(base, exponent):
    # float ** raises OverflowError past the double range while * and /
    # saturate; a true value beyond the range should read as inf here
    try:
        return base**exponent
    except OverflowError:
        return math.inf


class Penalty:
    """One scalar penalty; construct via the power / log_barrier / indicator
    classmethods rather than directly."""

    def __init__(self, kind, weight, alpha=None, cap=None, growth=None):
        self.kind = kind
        self.weight = float(weight)
        self.alpha = None if alpha is None else float(alpha)
        self.cap = None if cap is None else float(cap)
        self.growth = None if growth is None else float(growth)
        if not self.weight > 0 or not math.isfinite(self.weight):
            raise ContractViolationError("penalty weight must be positive and finite")
        if kind == POWER:
            if self.alpha is None or self.alpha < 1 or not math.isfinite(self.alpha):
                raise ContractViolationError("power exponent must satisfy alpha >= 1")
            # alpha in [1, 2): no quadratic growth, no rate guarantee
            self.mu = self.weight / self.alpha if self.alpha >= 2.0 else 0.0
        elif kind == LOG_BARRIER:
            if self.cap is None or not self.cap > 0:
                raise ContractViolationError("log-barrier cap must be positive")
            if self.growth is None or not self.growth > 0:
                raise ContractViolationError("log-barrier growth must be positive")
            self.mu = math.inf
        elif kind == INDICATOR:
            if self.cap is None or not self.cap > 0:
                raise ContractViolationError("indicator cap must be positive")
            self.mu = math.inf
        else:
            raise ContractViolationError(f"unknown penalty kind {kind!r}")

    # -- constructors ---------------------------------------------------

    @classmethod
    def power(cls, alpha, weight=1.0):
        """phi(xi) = weight * xi^alpha / alpha."""
        return cls(POWER, weight, alpha=alpha)

    @classmethod
    def log_barrier(cls, cap, growth=1.0, weight=1.0):
        """Soft cap: finite on [0, cap), slope exploding at the cap.

        ``growth`` is the barrier steepness parameter (larger = flatter
        away from the cap).
        """
        return cls(LOG_BARRIER, weight, cap=cap, growth=growth)

    @classmethod
    def indicator(cls, cap):
        """Hard cap: 0 on [0, cap], +inf beyond. Weight is irrelevant."""
        return cls(INDICATOR, 1.0, cap=cap)

    # -- properties -------------------------------------------------------

    @property
    def guarantees_convergence(self):
        """True when the quadratic-growth constant is positive (the
        sublinear gap rate applies)."""
        return self.mu > 0

    # -- the three evaluations ---------------------------------------------

    def value(self, xi):
        """phi(xi); +inf outside the domain; xi < 0 is a contract violation."""
        xi = float(xi)
        if xi < 0:
            raise ContractViolationError("penalty argument must be nonnegative")
        if self.kind == POWER:
            return self.weight * _sat_pow(xi, self.alpha) / self.alpha
        if self.kind == LOG_BARRIER:
            if xi >= self.cap:
                return math.inf
            b, cap = self.growth, self.cap
            return self.weight * (
                -math.log(cap - xi) / b - xi / (cap * b) + math.log(cap) / b
            )
        # indicator
        return 0.0 if xi <= self.cap else math.inf

    def conjugate(self, nu):
        """sup_{xi >= 0} nu*xi - phi(xi), for nu >= 0."""
        nu = float(nu)
        if nu < 0:
            raise ContractViolationError("conjugate argument must be nonnegative")
        if self.kind == POWER:
            if self.alpha == 1.0:
                if nu > self.weight:
                    raise UnboundedConjugateError(
                        "linear penalty conjugate is +inf beyond its slope"
                    )
                return 0.0
            beta = self.alpha / (self.alpha - 1.0)
            return self.weight * _sat_pow(nu / self.weight, beta) / beta
        if self.kind == LOG_BARRIER:
            # cap*nu - (w/b) * log(1 + cap*b*nu/w)
            t = self.cap * self.growth * nu / self.weight
            return self.cap * nu - self.weight / self.growth * math.log1p(t)
        return self.cap * nu  # indicator

    def xi_step(self, nu):
        """argmin_{xi >= 0} -nu*xi + phi(xi) (the conjugate's maximizer).

        Nonpositive nu (and nu below the initial slope) maps to 0. Raises
        UnboundedStepError when no finite minimizer exists.
        """
        nu = float(nu)
        if not math.isfinite(nu):
            raise ContractViolationError("step argument must be finite")
        if nu <= 0:
            return 0.0
        if self.kind == POWER:
            if self.alpha == 1.0:
                if nu > self.weight:
                    raise UnboundedStepError(
                        "linear penalty cannot match a slope above its weight; "
                        "the step subproblem is unbounded below"
                    )
                return 0.0
            return _sat_pow(nu / self.weight, 1.0 / (self.alpha - 1.0))
        if self.kind == LOG_BARRIER:
            t = self.cap * self.growth * nu / self.weight
            return self.cap * t / (t + 1.0)
        return self.cap  # indicator

    def fingerprint_bytes(self):
        return (
            f"{self.kind}|{self.weight!r}|{self.alpha!r}|{self.cap!r}|"
            f"{self.growth!r}".encode()
        )

    def __repr__(self):
        params = {
            POWER: f"alpha={self.alpha}",
            LOG_BARRIER: f"cap={self.cap}, growth={self.growth}",
            INDICATOR: f"cap={self.cap}",
        }[self.kind]
        return f"Penalty({self.kind}, weight={self.weight}, {params})"
