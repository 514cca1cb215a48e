"""Identity engine: each claim is checked as an exact zero statement.

No tolerances anywhere: a check passes iff the residual polynomial (or
every component of the residual vector field) is exactly zero, with exact
rational coefficients and k1, k2, k3 kept symbolic.  Failures carry the
canonically rendered residual, which is the useful artifact when hunting a
transcription slip.
"""

from __future__ import annotations

import time
from typing import Mapping, NamedTuple

from . import __version__, catalog
from .phasepoly import (
    K2,
    K3,
    ZERO_FIELD,
    PhasePoly,
    VectorField,
    hamiltonian_vf,
    poisson_bracket,
    vf_commutator,
)

# version of the `verify --out` JSON layout; raised when a key changes meaning
# or goes away
SCHEMA_VERSION = 1


class Check(NamedTuple):
    id: str
    description: str
    citation: str
    passed: bool
    residual: str | None  # canonical text, only when failed
    millis: float  # the claim's whole cost, entry builds included


class VerificationReport(NamedTuple):
    checks: tuple[Check, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> str:
        """The report as JSON, tagged with its schema and package versions."""
        import json  # only `verify --out` writes JSON; keep it out of every start-up
        doc = {
            "schema_version": SCHEMA_VERSION,
            "holtkit_version": __version__,
            "all_passed": self.all_passed,
            "checks": [c._asdict() for c in self.checks],
        }
        return json.dumps(doc, indent=2) + "\n"

    def render_text(self) -> str:
        """One line per check; no timings, so repeated runs are byte-identical."""
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            line = f"{status}  {c.id}: {c.description}"
            if not c.passed:
                line += f"  [residual: {c.residual}]"
            lines.append(line)
        verdict = "all checks passed" if self.all_passed else "VERIFICATION FAILED"
        lines.append(f"{sum(c.passed for c in self.checks)}/{len(self.checks)} passed; {verdict}")
        return "\n".join(lines) + "\n"


def _failure(residual: PhasePoly | VectorField) -> str | None:
    """None if the residual is exactly zero, else its canonical text."""
    return None if residual.is_zero else residual.render()


def check_conserved(J: PhasePoly, H: PhasePoly) -> str | None:
    """None if {J, H} = 0, else the residual's text."""
    return _failure(poisson_bracket(J, H))


def check_identity(lhs: PhasePoly | VectorField, rhs: PhasePoly | VectorField) -> str | None:
    """None if lhs = rhs, else the text of lhs - rhs."""
    return _failure(lhs - rhs)


# a field relation is the same exact zero test, componentwise
check_vf_relation = check_identity


def check_lie_closure(basis: Mapping[str, PhasePoly],
                      claimed_brackets: Mapping[tuple[str, str], PhasePoly]) -> str | None:
    """Verify every pairwise bracket against the claimed table: None if it
    closes, else every pair that is off, with its residual.

    Each unordered pair must be claimed in exactly one orientation (the
    other is implied by antisymmetry).  A missing pair, a pair claimed both
    ways, or a claim naming an element outside the basis is an error, not a
    failure.  An unclaimed self-bracket is zero by antisymmetry, so it is
    not computed; a claimed one is checked like any other pair.
    """
    if not basis:
        raise ValueError("basis must be nonempty")
    for na, nb in claimed_brackets:
        if na not in basis or nb not in basis:
            raise KeyError(f"claimed bracket ({na}, {nb}) names an element outside the basis")
        if na != nb and (nb, na) in claimed_brackets:
            raise KeyError(f"bracket of ({na}, {nb}) claimed in both orientations")
    names = list(basis)
    failures = []
    for i, na in enumerate(names):
        for nb in names[i:]:
            if (na, nb) in claimed_brackets:
                claimed = claimed_brackets[(na, nb)]
            elif (nb, na) in claimed_brackets:
                claimed = -claimed_brackets[(nb, na)]
            elif na == nb:
                continue  # zero by antisymmetry
            else:
                raise KeyError(f"no claimed bracket for pair ({na}, {nb})")
            failure = _failure(poisson_bracket(basis[na], basis[nb]) - claimed)
            if failure is not None:
                failures.append(f"{{{na}, {nb}}} off by {failure}")
    return "; ".join(failures) or None


def _conserved(J: str, V: str, citation: str, note: str = "") -> tuple:
    return (f"conserved_{J}", f"{{{J}, H({V})}} = 0{note}", citation, "conserved",
            lambda get: (get(J), get(f"H_{V}")))


def _limit(J: str, K: str) -> tuple:
    return (f"limit_{K}", f"{J} at k1 = 0 equals {K} term-for-term",
            "k1 -> 0 limit of the Holt family", "identity",
            lambda get: (get(J).substitute_params(k1=0), get(K)))


def _jacobi(f: PhasePoly, g: PhasePoly, h: PhasePoly) -> PhasePoly:
    return (poisson_bracket(poisson_bracket(f, g), h)
            + poisson_bracket(poisson_bracket(g, h), f)
            + poisson_bracket(poisson_bracket(h, f), g))


_SYMBOLIC = " with symbolic k1, k2, k3"

# the claims' constant sides, built once at import: no entry in force
# reaches them, and no check changes its operands
_ZERO = PhasePoly.zero()
_ONE = PhasePoly.constant(1)
_108_K2_CUBED = 108 * K2**3
_432_K2_CUBED = 432 * K2**3
_1944_K2_CUBED = 1944 * K2**3
_324_K2_SQUARED_K3 = 324 * K2**2 * K3

# (id, description, citation, check kind, operands): one row per claim, in
# printed order.  The suite calls check_<kind>(*operands(get)), where
# get(name) is the expression of the catalog entry in force.
CLAIMS = (
    _conserved("J_h1_3", "V_h1", "Holt (1982)"),
    _conserved("J_h1_3_k", "V_h1_k", "three-parameter Holt family", _SYMBOLIC),
    _conserved("J_h2_4", "V_h2", "Holt family; Tsiganov (1999)"),
    _conserved("J_h2_4_k", "V_h2_k", "three-parameter Holt family", _SYMBOLIC),
    _conserved("J_h3_6", "V_h3", "Holt family; Tsiganov (1999)"),
    _conserved("J_h3_6_k", "V_h3_k", "three-parameter Holt family", _SYMBOLIC),
    _conserved("K2_3", "U", "Post and Winternitz (2011)"),
    _conserved("K3_4", "U", "Post and Winternitz (2011)"),
    _limit("J_h1_3_k", "K2_3"),
    _limit("J_h2_4_k", "K3_4"),
    _limit("J_h3_6_k", "K4_6"),
    ("relation_K4_6", "K4_6 = 18*H*K3_4 - 2*K2_3^2 - 324*k2^2*k3",
     "functional relation among the U integrals", "identity",
     lambda get: (get("K4_6"), 18 * get("H_U") * get("K3_4") - 2 * get("K2_3")**2
                  - _324_K2_SQUARED_K3)),
    ("bracket_K3_K2", "{K3_4, K2_3} = 108*k2^3", "Post and Winternitz (2011)",
     "identity", lambda get: (poisson_bracket(get("K3_4"), get("K2_3")), _108_K2_CUBED)),
    ("bracket_K4_K2", "{K4_6, K2_3} = 1944*k2^3*H", "bracket table of the U integrals",
     "identity", lambda get: (poisson_bracket(get("K4_6"), get("K2_3")),
                              _1944_K2_CUBED * get("H_U"))),
    ("bracket_K4_K3", "{K4_6, K3_4} = 432*k2^3*K2_3", "bracket table of the U integrals",
     "identity", lambda get: (poisson_bracket(get("K4_6"), get("K3_4")),
                              _432_K2_CUBED * get("K2_3"))),
    ("gamma_H", "hamiltonian_vf(H(U)) = Gamma_H as printed", "dynamical vector field of H(U)",
     "vf_relation", lambda get: (hamiltonian_vf(get("H_U")), get("Gamma_H"))),
    ("commutator_X2_X3", "[X2, X3] = 0", "commuting integral fields of U",
     "vf_relation", lambda get: (vf_commutator(get("X2"), get("X3")), ZERO_FIELD)),
    ("commutator_X2_X4", "[X2, X4] = 1944*k2^3*Gamma_H", "commutator table of the U fields",
     "vf_relation", lambda get: (vf_commutator(get("X2"), get("X4")),
                                 _1944_K2_CUBED * get("Gamma_H"))),
    ("commutator_X3_X4", "[X3, X4] = 432*k2^3*X2", "commutator table of the U fields",
     "vf_relation", lambda get: (vf_commutator(get("X3"), get("X4")), _432_K2_CUBED * get("X2"))),
    ("closure_heisenberg_K3", "(K2_3, K3_4, 1) close a Heisenberg algebra; H central",
     "algebra of the cubic and quartic U integrals", "lie_closure",
     lambda get: ({"K2_3": get("K2_3"), "K3_4": get("K3_4"), "one": _ONE,
                   "H": get("H_U")},
                  {("K3_4", "K2_3"): _108_K2_CUBED,
                   ("K2_3", "one"): _ZERO, ("K3_4", "one"): _ZERO,
                   ("one", "H"): _ZERO, ("K2_3", "H"): _ZERO,
                   ("K3_4", "H"): _ZERO})),
    ("closure_heisenberg_K4", "(K2_3, K4_6, H) close a Heisenberg algebra with center H",
     "algebra of the cubic and sextic U integrals", "lie_closure",
     lambda get: ({"K2_3": get("K2_3"), "K4_6": get("K4_6"), "H": get("H_U")},
                  {("K4_6", "K2_3"): _1944_K2_CUBED * get("H_U"),
                   ("K2_3", "H"): _ZERO, ("K4_6", "H"): _ZERO})),
    ("jacobi_H_K2_K3", "Jacobi identity on (H(U), K2_3, K3_4)",
     "Poisson bracket axiom, checked on the catalog triple", "identity",
     lambda get: (_jacobi(get("H_U"), get("K2_3"), get("K3_4")), _ZERO)),
)


def full_suite(entries: Mapping[str, "catalog.CatalogEntry"] | None = None) -> VerificationReport:
    """Run every claim of CLAIMS in its printed order and collect the report.

    `entries` seeds the dict of entries in force (a name outside
    catalog.names() is a KeyError), and catalog.entry builds each other
    name once from it.  A check's millis covers all of its work: building
    the entries it is the first to read, and the check.  Catalog texts are
    parsed on a process's first suite only, and the claims' constant sides
    are built at import, so every later suite repeats only the work that
    reads the entries in force.
    """
    in_force = dict(entries or {})
    unknown = sorted(in_force.keys() - set(catalog.names()))
    if unknown:
        raise KeyError(f"entries override unknown catalog names {unknown}")

    def get(name: str):
        return catalog.entry(name, in_force).expression

    checks = []
    for id, description, citation, kind, operands in CLAIMS:
        t0 = time.perf_counter()
        # looked up per run, so a wrapper installed on the module sees the call
        failure = globals()[f"check_{kind}"](*operands(get))
        checks.append(Check(id, description, citation, failure is None, failure,
                            (time.perf_counter() - t0) * 1000.0))
    return VerificationReport(tuple(checks))
