"""Exact verification of higher-order integrals for Holt-family potentials."""

from .ring import K1, K2, K3, ParamPoly, Rational
from .phasepoly import (
    DomainError,
    Monomial,
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
    "ParamPoly",
    "Rational",
    "DomainError",
    "Monomial",
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

__version__ = "0.1.0"
