"""Acceptance suite: one test and one printed verdict line per guarantee.

Run with `pytest -s tests/test_acceptance.py` to see the lines stream;
without -s they appear for failing tests only.  Exact checks tolerate
nothing; numeric checks state their tolerance inline.
"""

import random
import time
from fractions import Fraction

import pytest

from holtkit import catalog, verify
from holtkit.dynamics import (
    SimConfig,
    TrajectoryAborted,
    convergence_order,
    integrate,
)
from holtkit.phasepoly import PhasePoly, Term, poisson_bracket


@pytest.fixture(scope="module")
def report():
    return verify.full_suite()


def _verdict(number, ok, text):
    print(f"acceptance {number:02d} {'PASS' if ok else 'FAIL'}  {text}")
    return ok


def _ids_pass(report, ids):
    by_id = {c.id: c for c in report.checks}
    return all(by_id[i].passed for i in ids), by_id


def test_01_holt_family_conservation_exact(report):
    ids = ["conserved_J_h1_3_k", "conserved_J_h2_4_k", "conserved_J_h3_6_k"]
    ok, by_id = _ids_pass(report, ids)
    worst = max(by_id[i].millis for i in ids)
    ok = ok and worst < 10_000.0
    assert _verdict(1, ok, "cubic/quartic/sextic Holt-family integrals conserved "
                           f"with symbolic k1,k2,k3; worst check {worst:.1f} ms (< 10 s)")


def test_02_linear_family_conservation_exact(report):
    ok, _ = _ids_pass(report, ["conserved_K2_3", "conserved_K3_4"])
    assert _verdict(2, ok, "{K2_3, H(U)} = 0 and {K3_4, H(U)} = 0 exactly")


def test_03_cubic_quartic_bracket_value(report):
    ok, _ = _ids_pass(report, ["bracket_K3_K2"])
    assert _verdict(3, ok, "{K3_4, K2_3} = 108*k2^3 under the fixed sign convention")


def test_04_sextic_bracket_values(report):
    ok, _ = _ids_pass(report, ["bracket_K4_K2", "bracket_K4_K3"])
    assert _verdict(4, ok, "{K4_6, K2_3} = 1944*k2^3*H and {K4_6, K3_4} = 432*k2^3*K2_3")


def test_05_sextic_functional_relation(report):
    ok, _ = _ids_pass(report, ["relation_K4_6"])
    assert _verdict(5, ok, "K4_6 = 18*H*K3_4 - 2*K2_3^2 - 324*k2^2*k3 exactly")


def test_06_limits_reproduce_linear_family_integrals(report):
    ok, _ = _ids_pass(report, ["limit_K2_3", "limit_K3_4", "limit_K4_6"])
    assert _verdict(6, ok, "k1 = 0 in J_h1_3_k/J_h2_4_k/J_h3_6_k gives "
                           "K2_3/K3_4/K4_6 term-for-term")


def test_07_vector_field_commutators(report):
    ids = ["gamma_H", "commutator_X2_X3", "commutator_X2_X4", "commutator_X3_X4"]
    ok, _ = _ids_pass(report, ids)
    assert _verdict(7, ok, "[X2,X3] = 0, [X2,X4] = 1944*k2^3*Gamma_H, "
                           "[X3,X4] = 432*k2^3*X2, with Gamma_H as printed")


def test_08_heisenberg_closures(report):
    ok, _ = _ids_pass(report, ["closure_heisenberg_K3", "closure_heisenberg_K4"])
    assert _verdict(8, ok, "both basis choices close Heisenberg algebras "
                           "by exact bracket tables")


def _random_param_poly(rng):
    terms = {}
    for _ in range(rng.randint(0, 2)):
        term = Term(k1=rng.randint(0, 2), k2=rng.randint(0, 2), k3=rng.randint(0, 2))
        terms[term] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
    return PhasePoly(terms)


def _random_phase_poly(rng):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        mono = Term(rng.randint(0, 2), rng.randint(-3, 3),
                    rng.randint(0, 2), rng.randint(0, 2))
        coeff = _random_param_poly(rng)
        if coeff.is_zero:
            coeff = PhasePoly.constant(rng.randint(1, 3))
        terms[mono] = coeff
    return sum((c * PhasePoly({m: 1}) for m, c in terms.items()), PhasePoly.zero())


def test_09_algebraic_property_suite(report):
    rng = random.Random(1729)
    checked = 0
    ok = True
    for _ in range(200):
        f, g, h = (_random_phase_poly(rng) for _ in range(3))
        a = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        b = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        ok &= poisson_bracket(a * f + b * g, h) == (
            a * poisson_bracket(f, h) + b * poisson_bracket(g, h))
        ok &= poisson_bracket(f, g) == -poisson_bracket(g, f)
        ok &= poisson_bracket(f * g, h) == (
            f * poisson_bracket(g, h) + g * poisson_bracket(f, h))
        jac = (poisson_bracket(poisson_bracket(f, g), h)
               + poisson_bracket(poisson_bracket(g, h), f)
               + poisson_bracket(poisson_bracket(h, f), g))
        ok &= jac.is_zero
        checked += 1
        if not ok:
            break
    catalog_jacobi, _ = _ids_pass(report, ["jacobi_H_K2_K3"])
    ok = ok and catalog_jacobi and checked == 200
    assert _verdict(9, ok, f"bilinearity/antisymmetry/Leibniz/Jacobi exact on "
                           f"{checked} seeded random triples; Jacobi exact on "
                           f"(H(U), K2_3, K3_4)")


def test_10_numeric_corroboration():
    t_start = time.perf_counter()
    U = catalog.build("U")
    start = (0.0, 1.0, 0.5, 0.5)
    hs = [4e-3, 2e-3, 1e-3, 5e-4]

    # The configured orbit cannot reach t = 10: it falls into the y = 0
    # wall at t = 5.8696 (dpx/dt = -k2*y^(-2/3) is strictly monotone, so
    # the wall eventually attracts; confirmed by step refinement and an
    # independent adaptive integration).  The regression window is the
    # implementation-established anchor t_end = 5.5, where the orbit still
    # has y >= 1 throughout.
    with pytest.raises(TrajectoryAborted) as exc_info:
        integrate(U, start, SimConfig(h=1e-3, t_end=10.0, k2=1.0))
    collision_pinned = abs(exc_info.value.time - 5.8696) < 0.02

    windows = {"leapfrog2": (1.5, 2.5), "composed4": (3.3, 4.7)}
    slopes = {}
    slopes_ok = True
    for integ, (lo, hi) in windows.items():
        cfg = SimConfig(h=1e-3, t_end=5.5, integrator=integ, k2=1.0)
        for name in ("H_U", "K2_3", "K3_4"):
            s = convergence_order(U, start, catalog.build(name), hs, cfg)
            slopes[(integ, name)] = s
            slopes_ok &= s is not None and lo <= s <= hi

    reversibility_ok = True
    worst_rev = 0.0
    for integ in windows:
        cfg = SimConfig(h=1e-3, t_end=5.5, integrator=integ, k2=1.0)
        x, y, px, py = (c[-1] for c in integrate(U, start, cfg).columns[1:5])
        back = integrate(U, (x, y, -px, -py), cfg)
        bx, by, bpx, bpy = (c[-1] for c in back.columns[1:5])
        sx, sy, spx, spy = start
        err = max(abs(bx - sx), abs(by - sy), abs(-bpx - spx), abs(-bpy - spy))
        worst_rev = max(worst_rev, err)
        reversibility_ok &= err <= 1e-9

    elapsed = time.perf_counter() - t_start
    runtime_ok = elapsed < 60.0
    ok = collision_pinned and slopes_ok and reversibility_ok and runtime_ok
    lf = ", ".join(f"{n}={slopes[('leapfrog2', n)]:.2f}" for n in ("H_U", "K2_3", "K3_4"))
    c4 = ", ".join(f"{n}={slopes[('composed4', n)]:.2f}" for n in ("H_U", "K2_3", "K3_4"))
    assert _verdict(
        10, ok,
        "U(k2=1, k3=0) from (0, 1, 0.5, 0.5): stated t = 10 is unreachable "
        f"(orbit hits the y = 0 wall at t = {exc_info.value.time:.4f}, pinned); "
        f"at the established anchor t_end = 5.5 over h = {hs}: "
        f"leapfrog2 slopes [{lf}] in [1.5, 2.5]; composed4 slopes [{c4}] in "
        f"[3.3, 4.7]; reversibility {worst_rev:.2e} <= 1e-9/coordinate; "
        f"numeric suite {elapsed:.1f} s < 60 s")


def test_11_fault_injection_on_cubic_integral():
    entry = catalog.build("K2_3")
    terms = entry.expression.terms
    monos = sorted(terms, key=lambda m: m.sort_key(), reverse=True)
    ok = len(monos) == 5
    for mono in monos:
        flipped = dict(terms)
        flipped[mono] = -flipped[mono]
        bad = entry._replace(expression=PhasePoly(flipped))
        rep = verify.full_suite(entries={"K2_3": bad})
        by_id = {c.id: c for c in rep.checks}
        for cid in ("conserved_K2_3", "bracket_K3_K2", "relation_K4_6"):
            check = by_id[cid]
            ok &= (not check.passed
                   and check.residual is not None
                   and check.residual != "0")
    assert _verdict(11, ok, "every single-term sign flip in K2_3 breaks "
                            "conservation, the 108*k2^3 bracket, and the "
                            "sextic relation, each with a rendered residual")
