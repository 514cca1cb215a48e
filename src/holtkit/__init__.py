"""Exact verification of higher-order integrals for Holt-family potentials."""

# first, so that every submodule can import it while the package loads
__version__ = "0.1.0"

from .phasepoly import (
    K1,
    K2,
    K3,
    DomainError,
    PhasePoly,
    Term,
    VectorField,
    PX,
    PY,
    U,
    X,
    Y,
    hamiltonian_vf,
    poisson_bracket,
    upow,
    vf_commutator,
)
from .parsing import ParseError, parse_expression

__all__ = [
    "K1",
    "K2",
    "K3",
    "DomainError",
    "PhasePoly",
    "Term",
    "VectorField",
    "PX",
    "PY",
    "U",
    "X",
    "Y",
    "hamiltonian_vf",
    "poisson_bracket",
    "upow",
    "vf_commutator",
    "ParseError",
    "parse_expression",
]
