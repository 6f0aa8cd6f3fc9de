"""Conditional gradient solver over atomic sets with gauge-type penalties
and gap-safe screening.

The top level holds the names the README, the tests and the bench use,
plus every exception a public call raises; every other name is imported
from its own module (``gaugecg.solver``, ``gaugecg.experiments``, ...).
"""

from .atoms import AtomicSet, AtomMask
from .errors import (
    CertificateCorruptionError,
    ContractViolationError,
    DivergenceError,
    FileFormatError,
    InfeasibleGaugeError,
    ReferenceMismatchError,
    UnboundedConjugateError,
    UnboundedStepError,
)
from .experiments import (
    build_certificate,
    gen_synthetic,
    load_mnist_pair,
    reference_solve,
    run_experiment,
)
from .losses import DataMatrix, LogisticLoss, QuadraticLoss
from .penalties import Penalty
from .screening import SupportCertificate, support_of
from .solver import (
    SolverConfig,
    SolverState,
    problem_fingerprint,
    run,
    step,
    theta_schedule,
)

__version__ = "0.1.0"

__all__ = [
    "AtomicSet",
    "AtomMask",
    "CertificateCorruptionError",
    "ContractViolationError",
    "DataMatrix",
    "DivergenceError",
    "FileFormatError",
    "InfeasibleGaugeError",
    "LogisticLoss",
    "Penalty",
    "QuadraticLoss",
    "ReferenceMismatchError",
    "SolverConfig",
    "SolverState",
    "SupportCertificate",
    "UnboundedConjugateError",
    "UnboundedStepError",
    "build_certificate",
    "gen_synthetic",
    "load_mnist_pair",
    "problem_fingerprint",
    "reference_solve",
    "run",
    "run_experiment",
    "step",
    "support_of",
    "theta_schedule",
]
