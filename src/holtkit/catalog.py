"""Named potentials, Hamiltonians, integrals, and vector fields.

Everything is transcribed term-by-term from the printed sources, not
re-derived: the verify module is the authority on whether a transcription
is right.  All expressions use u = y^(1/3), so y^(4/3) is u^4 and
y^(-2/3) is u^-2.  Hamiltonians are (1/2)(px^2 + py^2) + V.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple

from .phasepoly import (K1, K2, K3, PX, PY, PhasePoly, U as u, VectorField, X as x,
                        hamiltonian_vf, upow)
from .ring import Scalar


class CatalogEntry(NamedTuple):
    name: str
    kind: str  # potential | hamiltonian | integral | vectorfield
    expression: PhasePoly | VectorField
    momentum_order: int
    source: str


def _V_h1() -> PhasePoly:
    return 4 * x**2 * upow(-2) + 3 * u**4


def _V_h2() -> PhasePoly:
    return 2 * x**2 * upow(-2) + 9 * u**4


def _V_h3() -> PhasePoly:
    return x**2 * upow(-2) + 12 * u**4


def _V_h1_k() -> PhasePoly:
    return (4 * K1 * x**2 * upow(-2) + 3 * K1 * u**4
            + K2 * x * upow(-2) + K3 * upow(-2))


def _V_h2_k() -> PhasePoly:
    return (2 * K1 * x**2 * upow(-2) + 9 * K1 * u**4
            + K2 * x * upow(-2) + K3 * upow(-2))


def _V_h3_k() -> PhasePoly:
    return (K1 * x**2 * upow(-2) + 12 * K1 * u**4
            + K2 * x * upow(-2) + K3 * upow(-2))


def _U() -> PhasePoly:
    return K2 * x * upow(-2) + K3 * upow(-2)


def _J_h1_3() -> PhasePoly:
    return (2 * PX**3 + 3 * PX * PY**2
            + 24 * x**2 * upow(-2) * PX - 36 * u**4 * PX
            + 72 * x * u * PY)


def _J_h2_4() -> PhasePoly:
    return (PX**4 + 2 * PX**2 * PY**2
            + 8 * x**2 * upow(-2) * PX**2
            + 48 * x * u * PX * PY
            + 288 * x**2 * u**2)


def _J_h3_6() -> PhasePoly:
    return (PX**6 + 3 * PX**4 * PY**2
            + 6 * x**2 * upow(-2) * PX**4 + 18 * u**4 * PX**4
            + 72 * x * u * PX**3 * PY
            + 648 * x**2 * u**2 * PX**2
            + 648 * x**4)


def _J_h1_3_k() -> PhasePoly:
    return (2 * PX**3 + 3 * PX * PY**2
            + 24 * K1 * x**2 * upow(-2) * PX - 36 * K1 * u**4 * PX
            + 72 * K1 * x * u * PY
            + 6 * K2 * x * upow(-2) * PX + 9 * K2 * u * PY
            + 6 * K3 * upow(-2) * PX)


def _J_h2_4_k() -> PhasePoly:
    return (PX**4 + 2 * PX**2 * PY**2
            + (8 * K1 * x**2 + 4 * K2 * x + 4 * K3) * upow(-2) * PX**2
            + (48 * K1 * x + 12 * K2) * u * PX * PY
            + 18 * (16 * K1**2 * x**2 + 8 * K1 * K2 * x + K2**2) * u**2)


def _J_h3_6_k() -> PhasePoly:
    return (PX**6 + 3 * PX**4 * PY**2
            + (6 * K1 * x**2 * upow(-2) + 18 * K1 * u**4
               + 6 * K2 * x * upow(-2) + 6 * K3 * upow(-2)) * PX**4
            + (72 * K1 * x + 36 * K2) * u * PX**3 * PY
            + (648 * K1**2 * x**2 + 648 * K1 * K2 * x + 162 * K2**2) * u**2 * PX**2
            + 648 * K1**3 * x**4 + 1296 * K1**2 * K2 * x**3
            + 972 * K1 * K2**2 * x**2 + 324 * K2**3 * x)


def _K2_3() -> PhasePoly:
    return (2 * PX**3 + 3 * PX * PY**2
            + 6 * K2 * x * upow(-2) * PX + 9 * K2 * u * PY
            + 6 * K3 * upow(-2) * PX)


def _K3_4() -> PhasePoly:
    return (PX**4 + 2 * PX**2 * PY**2
            + 4 * K2 * x * upow(-2) * PX**2 + 4 * K3 * upow(-2) * PX**2
            + 12 * K2 * u * PX * PY
            + 18 * K2**2 * u**2)


def _K4_6() -> PhasePoly:
    return (PX**6 + 3 * PX**4 * PY**2
            + 6 * K2 * x * upow(-2) * PX**4 + 6 * K3 * upow(-2) * PX**4
            + 36 * K2 * u * PX**3 * PY
            + 162 * K2**2 * u**2 * PX**2
            + 324 * K2**3 * x)


def _Gamma_H() -> VectorField:
    # dynamical field of H(U), components as printed, not derived
    return VectorField(
        cx=PhasePoly.monomial(epx=1),
        cy=PhasePoly.monomial(epy=1),
        cpx=-(K2 * upow(-2)),
        cpy=Fraction(2, 3) * K2 * x * upow(-5) + Fraction(2, 3) * K3 * upow(-5),
    )


# name -> (builder, source, the integrals its Hamiltonian conserves)
_POTENTIALS = {
    "V_h1": (_V_h1, "Holt (1982)", ("J_h1_3",)),
    "V_h2": (_V_h2, "Holt family; Tsiganov (1999)", ("J_h2_4",)),
    "V_h3": (_V_h3, "Holt family; Tsiganov (1999)", ("J_h3_6",)),
    "V_h1_k": (_V_h1_k, "three-parameter extension of V_h1", ("J_h1_3_k",)),
    "V_h2_k": (_V_h2_k, "three-parameter extension of V_h2", ("J_h2_4_k",)),
    "V_h3_k": (_V_h3_k, "three-parameter extension of V_h3", ("J_h3_6_k",)),
    "U": (_U, "Post and Winternitz (2011)", ("K2_3", "K3_4", "K4_6")),
}

_INTEGRALS = {
    "J_h1_3": (_J_h1_3, "Holt (1982), cubic integral of V_h1"),
    "J_h2_4": (_J_h2_4, "quartic integral of V_h2; Tsiganov (1999)"),
    "J_h3_6": (_J_h3_6, "sextic integral of V_h3; Tsiganov (1999)"),
    "J_h1_3_k": (_J_h1_3_k, "cubic integral of V_h1_k"),
    "J_h2_4_k": (_J_h2_4_k, "quartic integral of V_h2_k"),
    "J_h3_6_k": (_J_h3_6_k, "sextic integral of V_h3_k"),
    "K2_3": (_K2_3, "Post and Winternitz (2011), cubic integral of U"),
    "K3_4": (_K3_4, "Post and Winternitz (2011), quartic integral of U"),
    "K4_6": (_K4_6, "sextic integral of U, k1 -> 0 limit of J_h3_6_k"),
}

# name -> (builder of the field from the entries read through get, source)
_FIELDS = {
    "X2": (lambda get: hamiltonian_vf(get("K2_3")), "Hamiltonian vector field of K2_3"),
    "X3": (lambda get: hamiltonian_vf(get("K3_4")), "Hamiltonian vector field of K3_4"),
    "X4": (lambda get: hamiltonian_vf(get("K4_6")), "Hamiltonian vector field of K4_6"),
    "Gamma_H": (lambda get: _Gamma_H(), "dynamical vector field of H(U)"),
}


def names() -> list[str]:
    """All catalog identifiers, grouped by kind, deterministic order."""
    out = list(_POTENTIALS)
    out += [f"H_{n}" for n in _POTENTIALS]
    out += list(_INTEGRALS)
    out += list(_FIELDS)
    return out


def build(name: str, get: Callable[[str], PhasePoly] | None = None) -> CatalogEntry:
    """Construct a catalog entry with symbolic k-coefficients.

    A derived entry (H_<V>, X2, X3, X4) reads the expression it is made from
    through get(name), by default a fresh build; a get that returns an
    overridden entry carries the override into everything derived from it.
    """
    if get is None:
        get = lambda source: build(source).expression
    if name in _POTENTIALS:
        kind, (builder, source, _) = "potential", _POTENTIALS[name]
        expr = builder()
    elif name.startswith("H_") and name[2:] in _POTENTIALS:
        kind, V = "hamiltonian", name[2:]
        expr = Fraction(1, 2) * (PX**2 + PY**2) + get(V)
        source = f"kinetic term plus {V}; {_POTENTIALS[V][1]}"
    elif name in _INTEGRALS:
        kind, (builder, source) = "integral", _INTEGRALS[name]
        expr = builder()
    elif name in _FIELDS:
        kind, (builder, source) = "vectorfield", _FIELDS[name]
        expr = builder(get)
    else:
        raise KeyError(f"unknown catalog name {name!r}; see names()")
    return CatalogEntry(name, kind, expr, expr.momentum_order, source)


def invariants(potential: str) -> list[str]:
    """The Hamiltonian of a catalog potential, then the integrals it conserves."""
    return [f"H_{potential}", *_POTENTIALS[potential][2]]


def specialize(entry: CatalogEntry, k1: Scalar | None = None,
               k2: Scalar | None = None, k3: Scalar | None = None) -> CatalogEntry:
    """Substitute given parameters exactly, leaving the others symbolic."""
    expr = entry.expression
    if isinstance(expr, VectorField):
        new = VectorField(*(c.substitute_params(k1=k1, k2=k2, k3=k3)
                            for c in expr.components()))
    else:
        new = expr.substitute_params(k1=k1, k2=k2, k3=k3)
    if new.is_zero:
        raise ValueError(f"specialization annihilates {entry.name}")
    return entry._replace(expression=new, momentum_order=new.momentum_order)
