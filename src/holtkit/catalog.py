"""Named potentials, Hamiltonians, integrals, and vector fields.

Everything is transcribed term-by-term from the printed sources, not
re-derived: the verify module is the authority on whether a transcription
is right.  Each transcription is stored as the canonical text that
`holtkit catalog show` prints, so its line here reads exactly as the entry
renders.  All expressions use u = y^(1/3), so y^(4/3) is u^4 and
y^(-2/3) is u^-2.  Hamiltonians are (1/2)(px^2 + py^2) + V.
"""

from __future__ import annotations

from typing import NamedTuple

from .parsing import parse_expression
from .phasepoly import PhasePoly, VectorField, hamiltonian_vf


class CatalogEntry(NamedTuple):
    name: str
    kind: str  # potential | hamiltonian | integral | vectorfield
    expression: PhasePoly | VectorField
    source: str

    @property
    def momentum_order(self) -> int:
        """The expression's own momentum order, so a _replace copy stays right."""
        return self.expression.momentum_order


# the kinetic term of every Hamiltonian
KINETIC = parse_expression("1/2*px^2 + 1/2*py^2")

# name -> (text, source, the integrals its Hamiltonian conserves)
_POTENTIALS = {
    "V_h1": ("4*x^2*u^-2 + 3*u^4", "Holt (1982)", ("J_h1_3",)),
    "V_h2": ("2*x^2*u^-2 + 9*u^4", "Holt family; Tsiganov (1999)", ("J_h2_4",)),
    "V_h3": ("x^2*u^-2 + 12*u^4", "Holt family; Tsiganov (1999)", ("J_h3_6",)),
    "V_h1_k": ("4*k1*x^2*u^-2 + k2*x*u^-2 + 3*k1*u^4 + k3*u^-2",
               "three-parameter extension of V_h1", ("J_h1_3_k",)),
    "V_h2_k": ("2*k1*x^2*u^-2 + k2*x*u^-2 + 9*k1*u^4 + k3*u^-2",
               "three-parameter extension of V_h2", ("J_h2_4_k",)),
    "V_h3_k": ("k1*x^2*u^-2 + k2*x*u^-2 + 12*k1*u^4 + k3*u^-2",
               "three-parameter extension of V_h3", ("J_h3_6_k",)),
    "U": ("k2*x*u^-2 + k3*u^-2", "Post and Winternitz (2011)", ("K2_3", "K3_4", "K4_6")),
}

# name -> (text, source)
_INTEGRALS = {
    "J_h1_3": ("2*px^3 + 3*px*py^2 + 24*x^2*u^-2*px - 36*u^4*px + 72*x*u*py",
               "Holt (1982), cubic integral of V_h1"),
    "J_h2_4": ("px^4 + 2*px^2*py^2 + 8*x^2*u^-2*px^2 + 48*x*u*px*py + 288*x^2*u^2",
               "quartic integral of V_h2; Tsiganov (1999)"),
    "J_h3_6": ("px^6 + 3*px^4*py^2 + 6*x^2*u^-2*px^4 + 18*u^4*px^4 + 72*x*u*px^3*py + 648*x^2*u^2*px^2 + 648*x^4",
               "sextic integral of V_h3; Tsiganov (1999)"),
    "J_h1_3_k": ("2*px^3 + 3*px*py^2 + 24*k1*x^2*u^-2*px + 6*k2*x*u^-2*px - 36*k1*u^4*px + 6*k3*u^-2*px + 72*k1*x*u*py + 9*k2*u*py",
                 "cubic integral of V_h1_k"),
    "J_h2_4_k": ("px^4 + 2*px^2*py^2 + 8*k1*x^2*u^-2*px^2 + 4*k2*x*u^-2*px^2 + 4*k3*u^-2*px^2 + 48*k1*x*u*px*py + 12*k2*u*px*py + 288*k1^2*x^2*u^2 + 144*k1*k2*x*u^2 + 18*k2^2*u^2",
                 "quartic integral of V_h2_k"),
    "J_h3_6_k": ("px^6 + 3*px^4*py^2 + 6*k1*x^2*u^-2*px^4 + 6*k2*x*u^-2*px^4 + 18*k1*u^4*px^4 + 6*k3*u^-2*px^4 + 72*k1*x*u*px^3*py + 36*k2*u*px^3*py + 648*k1^2*x^2*u^2*px^2 + 648*k1*k2*x*u^2*px^2 + 162*k2^2*u^2*px^2 + 648*k1^3*x^4 + 1296*k1^2*k2*x^3 + 972*k1*k2^2*x^2 + 324*k2^3*x",
                 "sextic integral of V_h3_k"),
    "K2_3": ("2*px^3 + 3*px*py^2 + 6*k2*x*u^-2*px + 6*k3*u^-2*px + 9*k2*u*py",
             "Post and Winternitz (2011), cubic integral of U"),
    "K3_4": ("px^4 + 2*px^2*py^2 + 4*k2*x*u^-2*px^2 + 4*k3*u^-2*px^2 + 12*k2*u*px*py + 18*k2^2*u^2",
             "Post and Winternitz (2011), quartic integral of U"),
    "K4_6": ("px^6 + 3*px^4*py^2 + 6*k2*x*u^-2*px^4 + 6*k3*u^-2*px^4 + 36*k2*u*px^3*py + 162*k2^2*u^2*px^2 + 324*k2^3*x",
             "sextic integral of U, k1 -> 0 limit of J_h3_6_k"),
}

# name -> (the integral it is the Hamiltonian vector field of, or the texts of
# its components dx/dt, dy/dt, dpx/dt, dpy/dt; source)
_FIELDS = {
    "X2": ("K2_3", "Hamiltonian vector field of K2_3"),
    "X3": ("K3_4", "Hamiltonian vector field of K3_4"),
    "X4": ("K4_6", "Hamiltonian vector field of K4_6"),
    # the dynamical field of H(U), components as printed, not derived
    "Gamma_H": (("px", "py", "-k2*u^-2", "2/3*k2*x*u^-5 + 2/3*k3*u^-5"),
                "dynamical vector field of H(U)"),
}


# transcription text -> its parsed value; only the texts above enter it
_PARSED: dict[str, PhasePoly] = {}


def _parsed(text: str) -> PhasePoly:
    """A fresh copy of the parsed text, which is parsed on its first call only."""
    stored = _PARSED.get(text)
    if stored is None:
        stored = _PARSED[text] = parse_expression(text)
    return PhasePoly._wrap(stored.den, dict(stored.nums))


def names() -> list[str]:
    """All catalog identifiers, grouped by kind, deterministic order."""
    out = list(_POTENTIALS)
    out += [f"H_{n}" for n in _POTENTIALS]
    out += list(_INTEGRALS)
    out += list(_FIELDS)
    return out


def build(name: str, in_force: dict[str, CatalogEntry] | None = None) -> CatalogEntry:
    """Construct a catalog entry with symbolic k-coefficients.

    A transcribed entry is a fresh copy of its text's value, which is
    parsed once per process, so no two builds share an expression and no
    caller can change what a later build returns.  A derived entry (H_<V>,
    X2, X3, X4) reads its source through entry(source, in_force) on every
    build, so an overridden source in in_force carries the override into it.
    """
    in_force = {} if in_force is None else in_force
    if name in _POTENTIALS:
        kind, (text, source, _) = "potential", _POTENTIALS[name]
        expr = _parsed(text)
    elif name.startswith("H_") and name[2:] in _POTENTIALS:
        kind, V = "hamiltonian", name[2:]
        expr = KINETIC + entry(V, in_force).expression
        source = f"kinetic term plus {V}; {_POTENTIALS[V][1]}"
    elif name in _INTEGRALS:
        kind, (text, source) = "integral", _INTEGRALS[name]
        expr = _parsed(text)
    elif name in _FIELDS:
        kind, (spec, source) = "vectorfield", _FIELDS[name]
        if isinstance(spec, str):
            expr = hamiltonian_vf(entry(spec, in_force).expression)
        else:
            expr = VectorField(*map(_parsed, spec))
    else:
        raise KeyError(f"unknown catalog name {name!r}; see names()")
    return CatalogEntry(name, kind, expr, source)


def entry(name: str, in_force: dict[str, CatalogEntry]) -> CatalogEntry:
    """in_force[name], built by build(name, in_force) and stored there if missing."""
    found = in_force.get(name)
    if found is None:
        found = in_force[name] = build(name, in_force)
    return found


def invariants(potential: str) -> list[str]:
    """The Hamiltonian of a catalog potential, then the integrals it conserves."""
    if potential not in _POTENTIALS:
        raise ValueError(f"{potential} is not a potential")
    return [f"H_{potential}", *_POTENTIALS[potential][2]]

