"""Identity engine: each claim is checked as an exact zero statement.

No tolerances anywhere: a check passes iff the residual polynomial (or
every component of the residual vector field) is exactly zero, with exact
rational coefficients and k1, k2, k3 kept symbolic.  Failures carry the
canonically rendered residual, which is the useful artifact when hunting a
transcription slip.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace
from functools import cache
from typing import Callable, Mapping

from . import catalog
from .phasepoly import (
    ZERO_FIELD,
    PhasePoly,
    VectorField,
    hamiltonian_vf,
    poisson_bracket,
    vf_commutator,
)
from .ring import K2, K3


@dataclass(frozen=True)
class Check:
    id: str
    description: str
    citation: str
    passed: bool
    residual_rendered: str | None  # canonical text, only when failed
    millis: float


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[Check, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> str:
        doc = {
            "all_passed": self.all_passed,
            "checks": [
                {
                    "id": c.id,
                    "description": c.description,
                    "citation": c.citation,
                    "passed": c.passed,
                    "residual": c.residual_rendered,
                    "millis": c.millis,
                }
                for c in self.checks
            ],
        }
        return json.dumps(doc, indent=2) + "\n"

    def render_text(self) -> str:
        """One line per check; no timings, so repeated runs are byte-identical."""
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            line = f"{status}  {c.id}: {c.description}"
            if not c.passed:
                line += f"  [residual: {c.residual_rendered}]"
            lines.append(line)
        verdict = "all checks passed" if self.all_passed else "VERIFICATION FAILED"
        lines.append(f"{sum(c.passed for c in self.checks)}/{len(self.checks)} passed; {verdict}")
        return "\n".join(lines) + "\n"


def _zero_check(id: str, description: str, citation: str,
                residual_of: Callable[[], PhasePoly | VectorField]) -> Check:
    """Time residual_of() and pass iff the residual is exactly zero."""
    t0 = time.perf_counter()
    residual = residual_of()
    millis = (time.perf_counter() - t0) * 1000.0
    passed = residual.is_zero
    return Check(id, description, citation, passed,
                 None if passed else residual.render(), millis)


def check_conserved(J: PhasePoly, H: PhasePoly, *, id: str = "conserved",
                    description: str = "{J, H} = 0", citation: str = "") -> Check:
    return _zero_check(id, description, citation, lambda: poisson_bracket(J, H))


def check_identity(lhs: PhasePoly, rhs: PhasePoly, *, id: str = "identity",
                   description: str = "lhs = rhs", citation: str = "") -> Check:
    return _zero_check(id, description, citation, lambda: lhs - rhs)


def check_vf_relation(lhs: VectorField, rhs: VectorField, *, id: str = "vf_relation",
                      description: str = "lhs = rhs", citation: str = "") -> Check:
    return _zero_check(id, description, citation, lambda: lhs - rhs)


def check_lie_closure(basis: Mapping[str, PhasePoly],
                      claimed_brackets: Mapping[tuple[str, str], PhasePoly], *,
                      id: str = "lie_closure",
                      description: str = "bracket table closes",
                      citation: str = "") -> Check:
    """Verify every pairwise bracket against the claimed table.

    Each unordered pair must be claimed in one orientation (the other is
    implied by antisymmetry); missing entries are an error, not a failure.
    Self-brackets default to the forced zero.
    """
    if not basis:
        raise ValueError("basis must be nonempty")
    t0 = time.perf_counter()
    names = list(basis)
    failures = []
    for i, na in enumerate(names):
        for nb in names[i:]:
            if na == nb:
                claimed = claimed_brackets.get((na, nb), PhasePoly.zero())
            elif (na, nb) in claimed_brackets:
                claimed = claimed_brackets[(na, nb)]
            elif (nb, na) in claimed_brackets:
                claimed = -claimed_brackets[(nb, na)]
            else:
                raise KeyError(f"no claimed bracket for pair ({na}, {nb})")
            residual = poisson_bracket(basis[na], basis[nb]) - claimed
            if not residual.is_zero:
                failures.append(f"{{{na}, {nb}}} off by {residual.render()}")
    millis = (time.perf_counter() - t0) * 1000.0
    passed = not failures
    return Check(id, description, citation, passed,
                 None if passed else "; ".join(failures), millis)


def full_suite(entries: Mapping[str, "catalog.CatalogEntry"] | None = None) -> VerificationReport:
    """Run every claim in its printed order and collect the report.

    `entries` overrides individual catalog entries by name; the fault
    injection tests use it to slip in a corrupted transcription.  A check's
    millis covers all of its work: building the entries it is the first to
    read, both sides of the claim, and the residual.
    """
    @cache
    def get(name: str):
        if entries and name in entries:
            return entries[name].expression
        return catalog.build(name).expression

    checks = []

    def timed(make_check: Callable[[], Check]) -> None:
        t0 = time.perf_counter()
        check = make_check()
        checks.append(replace(check, millis=(time.perf_counter() - t0) * 1000.0))

    for tag, order in (("h1", 3), ("h2", 4), ("h3", 6)):
        timed(lambda: check_conserved(
            get(f"J_{tag}_{order}"), get(f"H_V_{tag}"),
            id=f"conserved_J_{tag}_{order}",
            description=f"{{J_{tag}_{order}, H(V_{tag})}} = 0",
            citation="Holt (1982)" if tag == "h1" else "Holt family; Tsiganov (1999)"))
        timed(lambda: check_conserved(
            get(f"J_{tag}_{order}_k"), get(f"H_V_{tag}_k"),
            id=f"conserved_J_{tag}_{order}_k",
            description=f"{{J_{tag}_{order}_k, H(V_{tag}_k)}} = 0 with symbolic k1, k2, k3",
            citation="three-parameter Holt family"))

    timed(lambda: check_conserved(
        get("K2_3"), get("H_U"), id="conserved_K2_3", description="{K2_3, H(U)} = 0",
        citation="Post and Winternitz (2011)"))
    timed(lambda: check_conserved(
        get("K3_4"), get("H_U"), id="conserved_K3_4", description="{K3_4, H(U)} = 0",
        citation="Post and Winternitz (2011)"))

    for jk, kname in (("J_h1_3_k", "K2_3"), ("J_h2_4_k", "K3_4"), ("J_h3_6_k", "K4_6")):
        timed(lambda: check_identity(
            get(jk).substitute_params(k1=0), get(kname),
            id=f"limit_{kname}",
            description=f"{jk} at k1 = 0 equals {kname} term-for-term",
            citation="k1 -> 0 limit of the Holt family"))

    timed(lambda: check_identity(
        get("K4_6"),
        18 * get("H_U") * get("K3_4") - 2 * get("K2_3")**2
        - PhasePoly.constant(324 * K2**2 * K3),
        id="relation_K4_6",
        description="K4_6 = 18*H*K3_4 - 2*K2_3^2 - 324*k2^2*k3",
        citation="functional relation among the U integrals"))

    timed(lambda: check_identity(
        poisson_bracket(get("K3_4"), get("K2_3")), PhasePoly.constant(108 * K2**3),
        id="bracket_K3_K2", description="{K3_4, K2_3} = 108*k2^3",
        citation="Post and Winternitz (2011)"))
    timed(lambda: check_identity(
        poisson_bracket(get("K4_6"), get("K2_3")), 1944 * K2**3 * get("H_U"),
        id="bracket_K4_K2", description="{K4_6, K2_3} = 1944*k2^3*H",
        citation="bracket table of the U integrals"))
    timed(lambda: check_identity(
        poisson_bracket(get("K4_6"), get("K3_4")), 432 * K2**3 * get("K2_3"),
        id="bracket_K4_K3", description="{K4_6, K3_4} = 432*k2^3*K2_3",
        citation="bracket table of the U integrals"))

    timed(lambda: check_vf_relation(
        hamiltonian_vf(get("H_U")), get("Gamma_H"),
        id="gamma_H", description="hamiltonian_vf(H(U)) = Gamma_H as printed",
        citation="dynamical vector field of H(U)"))
    timed(lambda: check_vf_relation(
        vf_commutator(get("X2"), get("X3")), ZERO_FIELD,
        id="commutator_X2_X3", description="[X2, X3] = 0",
        citation="commuting integral fields of U"))
    timed(lambda: check_vf_relation(
        vf_commutator(get("X2"), get("X4")), 1944 * K2**3 * get("Gamma_H"),
        id="commutator_X2_X4", description="[X2, X4] = 1944*k2^3*Gamma_H",
        citation="commutator table of the U fields"))
    timed(lambda: check_vf_relation(
        vf_commutator(get("X3"), get("X4")), 432 * K2**3 * get("X2"),
        id="commutator_X3_X4", description="[X3, X4] = 432*k2^3*X2",
        citation="commutator table of the U fields"))

    timed(lambda: check_lie_closure(
        {"K2_3": get("K2_3"), "K3_4": get("K3_4"), "one": PhasePoly.constant(1),
         "H": get("H_U")},
        {
            ("K3_4", "K2_3"): PhasePoly.constant(108 * K2**3),
            ("K2_3", "one"): PhasePoly.zero(),
            ("K3_4", "one"): PhasePoly.zero(),
            ("one", "H"): PhasePoly.zero(),
            ("K2_3", "H"): PhasePoly.zero(),
            ("K3_4", "H"): PhasePoly.zero(),
        },
        id="closure_heisenberg_K3",
        description="(K2_3, K3_4, 1) close a Heisenberg algebra; H central",
        citation="algebra of the cubic and quartic U integrals"))
    timed(lambda: check_lie_closure(
        {"K2_3": get("K2_3"), "K4_6": get("K4_6"), "H": get("H_U")},
        {
            ("K4_6", "K2_3"): 1944 * K2**3 * get("H_U"),
            ("K2_3", "H"): PhasePoly.zero(),
            ("K4_6", "H"): PhasePoly.zero(),
        },
        id="closure_heisenberg_K4",
        description="(K2_3, K4_6, H) close a Heisenberg algebra with center H",
        citation="algebra of the cubic and sextic U integrals"))

    H_U, K23, K34 = get("H_U"), get("K2_3"), get("K3_4")
    timed(lambda: check_identity(
        poisson_bracket(poisson_bracket(H_U, K23), K34)
        + poisson_bracket(poisson_bracket(K23, K34), H_U)
        + poisson_bracket(poisson_bracket(K34, H_U), K23),
        PhasePoly.zero(),
        id="jacobi_H_K2_K3",
        description="Jacobi identity on (H(U), K2_3, K3_4)",
        citation="Poisson bracket axiom, checked on the catalog triple"))

    return VerificationReport(tuple(checks))
