"""Identity engine behavior, including deliberate fault injection."""

import gc
import json
from fractions import Fraction
from pathlib import Path

import pytest

import holtkit
from holtkit import catalog, verify
from holtkit.parsing import parse_expression
from holtkit.phasepoly import _SORT_KEY, K2, PX, X, PhasePoly, VectorField, poisson_bracket, upow

EXPECTED_IDS = [
    "conserved_J_h1_3", "conserved_J_h1_3_k",
    "conserved_J_h2_4", "conserved_J_h2_4_k",
    "conserved_J_h3_6", "conserved_J_h3_6_k",
    "conserved_K2_3", "conserved_K3_4",
    "limit_K2_3", "limit_K3_4", "limit_K4_6",
    "relation_K4_6",
    "bracket_K3_K2", "bracket_K4_K2", "bracket_K4_K3",
    "gamma_H",
    "commutator_X2_X3", "commutator_X2_X4", "commutator_X3_X4",
    "closure_heisenberg_K3", "closure_heisenberg_K4",
    "jacobi_H_K2_K3",
]


@pytest.fixture(scope="module")
def report():
    return verify.full_suite()


def test_full_suite_passes(report):
    assert report.all_passed
    assert [c.id for c in report.checks] == EXPECTED_IDS


def test_passed_checks_have_no_residual(report):
    for c in report.checks:
        assert c.passed
        assert c.residual is None
        assert c.millis >= 0.0
        assert c.description
        assert c.citation


def test_json_document_shape(report):
    doc = json.loads(report.to_json())
    assert list(doc) == ["schema_version", "holtkit_version", "all_passed", "checks"]
    assert doc["schema_version"] == verify.SCHEMA_VERSION == 1
    assert doc["holtkit_version"] == holtkit.__version__
    assert doc["all_passed"] is True
    assert len(doc["checks"]) == len(EXPECTED_IDS)
    for item in doc["checks"]:
        assert list(item) == list(verify.Check._fields) == [
            "id", "description", "citation", "passed", "residual", "millis"]


def test_text_rendering_is_stable(report):
    text = report.render_text()
    assert text == report.render_text()
    assert "millis" not in text
    assert text.count("PASS") == len(EXPECTED_IDS)


def test_check_conserved_failure_renders_residual():
    H = catalog.build("H_U").expression
    assert verify.check_conserved(PX, H) == "-k2*u^-2"
    assert verify.check_conserved(H, H) is None


def test_check_identity_direction():
    assert verify.check_identity(PhasePoly.constant(2), PhasePoly.constant(1)) == "1"
    assert verify.check_identity(X, X) is None


def test_check_vf_relation_mismatch():
    G = catalog.build("Gamma_H").expression
    assert "dx/dt" in verify.check_vf_relation(G, 3 * G)
    assert verify.check_vf_relation(G, G) is None


def test_lie_closure_requires_claims():
    K23 = catalog.build("K2_3").expression
    K34 = catalog.build("K3_4").expression
    with pytest.raises(KeyError):
        verify.check_lie_closure({"a": K23, "b": K34}, {})
    with pytest.raises(ValueError):
        verify.check_lie_closure({}, {})


@pytest.mark.parametrize("basis, claimed", [
    ({"a": X}, {("a", "b"): 7 * X}),
    ({"a": X, "b": PX}, {("a", "b"): PhasePoly.constant(1), ("b", "a"): PhasePoly.constant(1)}),
], ids=["outside-basis", "both-orientations"])
def test_lie_closure_rejects_a_claim_it_would_not_check(basis, claimed):
    # {x, px} = 1, so only the reversed claim of the second table is wrong
    with pytest.raises(KeyError):
        verify.check_lie_closure(basis, claimed)


def test_lie_closure_single_element_trivial():
    K23 = catalog.build("K2_3").expression
    assert verify.check_lie_closure({"a": K23}, {}) is None


def test_lie_closure_uses_antisymmetry_for_reversed_claims():
    K23 = catalog.build("K2_3").expression
    K34 = catalog.build("K3_4").expression
    claimed = {("K2_3", "K3_4"): -108 * K2**3}
    assert verify.check_lie_closure({"K3_4": K34, "K2_3": K23}, claimed) is None


def test_lie_closure_names_every_pair_that_is_off():
    # a claimed self-bracket is checked: {x, x} = 0 is off from x, {px, px} is not from 0
    claimed = {("px", "x"): 1, ("x", "x"): X, ("px", "px"): 0}
    failure = verify.check_lie_closure({"x": X, "px": PX}, claimed)
    assert failure == "{x, x} off by -x; {x, px} off by 2"


def test_the_suite_brackets_no_element_with_itself(monkeypatch):
    """An unclaimed self-bracket is zero by antisymmetry, so the closure
    checks take none."""
    operands = []

    def recording_bracket(f, g):
        operands.append((f, g))
        return poisson_bracket(f, g)

    monkeypatch.setattr(verify, "poisson_bracket", recording_bracket)
    assert verify.full_suite().all_passed
    assert len(operands) == 26 and not [f for f, g in operands if f is g]


def test_full_suite_is_the_only_clock(report):
    """A lone check returns no record to time; every row of the suite is timed, as a whole."""
    assert verify.check_identity(X, X) is None
    assert verify.check_lie_closure({"x": X}, {}) is None
    assert all(c.millis > 0.0 for c in report.checks)


def _flip_term(poly, index):
    monos = sorted(poly.terms, key=_SORT_KEY, reverse=True)
    target = monos[index]
    flipped = dict(poly.terms)
    flipped[target] = -flipped[target]
    return PhasePoly(flipped)


@pytest.mark.parametrize("index", range(5))
def test_single_sign_flip_in_cubic_integral_is_caught(index):
    """Any one sign error in the 5-term cubic integral breaks conservation,
    the cubic/quartic bracket value, and the sextic functional relation."""
    entry = catalog.build("K2_3")
    bad = entry._replace(expression=_flip_term(entry.expression, index))
    report = verify.full_suite(entries={"K2_3": bad})
    assert not report.all_passed
    by_id = {c.id: c for c in report.checks}
    for cid in ("conserved_K2_3", "bracket_K3_K2", "relation_K4_6"):
        assert not by_id[cid].passed, cid
        assert by_id[cid].residual not in (None, "0")


def test_a_failing_report_names_the_residual_and_the_verdict():
    entry = catalog.build("K2_3")
    bad = entry._replace(expression=_flip_term(entry.expression, 0))
    report = verify.full_suite({"K2_3": bad})
    lines = report.render_text().splitlines()
    assert "FAIL  conserved_K2_3: {K2_3, H(U)} = 0  [residual: 12*k2*u^-2*px^2]" in lines
    assert lines[-1] == "11/22 passed; VERIFICATION FAILED"
    doc = json.loads(report.to_json())
    assert doc["all_passed"] is False
    row = next(item for item in doc["checks"] if item["id"] == "conserved_K2_3")
    assert row["passed"] is False and row["residual"] == "12*k2*u^-2*px^2"


def test_fault_injection_leaves_untouched_checks_green():
    entry = catalog.build("K2_3")
    bad = entry._replace(expression=_flip_term(entry.expression, 0))
    report = verify.full_suite(entries={"K2_3": bad})
    by_id = {c.id: c for c in report.checks}
    for cid in ("conserved_J_h1_3", "conserved_K3_4", "limit_K3_4", "gamma_H"):
        assert by_id[cid].passed, cid
    # X2 is the field of the K2_3 in force, so the corruption reaches it
    assert not by_id["commutator_X2_X3"].passed


def test_one_suite_reads_every_catalog_name(monkeypatch):
    read = []
    real_build = catalog.build

    def recording_build(name, get=None):
        read.append(name)
        return real_build(name, get)

    monkeypatch.setattr(catalog, "build", recording_build)
    assert verify.full_suite().all_passed
    assert sorted(read) == sorted(catalog.names())  # each name built once


def test_an_override_suite_between_default_suites_changes_only_its_own_claims():
    """Stored transcriptions and the claims' constant sides are shared by
    every suite in a process, so an override reaches only the claims that
    read it, and the next default suite reads the catalog as before."""
    expected = (Path(__file__).resolve().parents[1] / "bench" / "verify_expected.txt").read_text()
    for name in catalog.names():
        catalog.build(name)
    stored = {text: (p.den, dict(p.nums)) for text, p in catalog._PARSED.items()}
    V = catalog.build("V_h1")._replace(expression=parse_expression("4*x^2*u^-2 + 2*u^4"))
    K = catalog.build("K4_6")
    K = K._replace(expression=K.expression + K2**3 * X)
    # the claims that read an overridden entry, or H_V_h1 or X4, which are built from one
    touched = {"V_h1", "H_V_h1", "K4_6", "X4"}
    readers = set()
    for id, _, _, _, operands in verify.CLAIMS:
        read = set()
        operands(lambda name: read.add(name) or catalog.build(name).expression)
        if read & touched:
            readers.add(id)
    assert readers == {"conserved_J_h1_3", "limit_K4_6", "relation_K4_6", "bracket_K4_K2",
                       "bracket_K4_K3", "commutator_X2_X4", "commutator_X3_X4",
                       "closure_heisenberg_K4"}

    first = verify.full_suite()
    middle = verify.full_suite({"V_h1": V, "K4_6": K})
    last = verify.full_suite()
    assert first.render_text() == last.render_text() == expected
    assert {c.id for c in middle.checks if not c.passed} == readers
    assert {text: (p.den, p.nums) for text, p in catalog._PARSED.items()} == stored


def test_a_suite_leaves_no_reference_cycle():
    """The entries in force are one plain dict, so a suite frees all it built
    without the cycle collector."""
    entry = catalog.build("K2_3")
    bad = entry._replace(expression=_flip_term(entry.expression, 0))
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for entries in (None, {"K2_3": bad}):
            for _ in range(10):
                verify.full_suite(entries)
        gc.collect()
        assert gc.garbage == []
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def test_an_unknown_override_name_is_a_key_error():
    bad = catalog.build("K2_3")
    with pytest.raises(KeyError, match="K2-3"):
        verify.full_suite(entries={"K2-3": bad})


def test_the_suite_calls_each_check_through_the_module(monkeypatch):
    """A wrapper installed on the module sees every call, as a tracer's does."""
    calls = {}
    for kind in ("conserved", "identity", "vf_relation", "lie_closure"):
        def counting(*args, _kind=kind, _check=getattr(verify, f"check_{kind}"), **kwargs):
            calls[_kind] = calls.get(_kind, 0) + 1
            return _check(*args, **kwargs)
        monkeypatch.setattr(verify, f"check_{kind}", counting)
    assert verify.full_suite().all_passed
    assert calls == {"conserved": 8, "identity": 8, "vf_relation": 4, "lie_closure": 2}


# the four single-term mutations applied to every term of every potential
MUTATIONS = {
    "sign": lambda terms, t: {**terms, t: -terms[t]},
    "plus_one": lambda terms, t: {**terms, t: terms[t] + 1},
    "dropped": lambda terms, t: {m: c for m, c in terms.items() if m != t},
    "u_plus_one": lambda terms, t: {**{m: c for m, c in terms.items() if m != t},
                                    t._replace(eu=t.eu + 1): terms[t]},
}
POTENTIALS = [n for n in catalog.names() if catalog.build(n).kind == "potential"]


def _potential_mutants():
    for name in POTENTIALS:
        terms = catalog.build(name).expression.terms
        for index, t in enumerate(sorted(terms, key=_SORT_KEY)):
            for label, mutate in MUTATIONS.items():
                yield f"{name}-{index}-{label}", name, PhasePoly(mutate(terms, t))


MUTANTS = list(_potential_mutants())


def test_there_are_eighty_potential_mutants():
    assert len(POTENTIALS) == 7 and len(MUTANTS) == 80
    for _, name, bad in MUTANTS:
        assert bad != catalog.build(name).expression


@pytest.mark.parametrize("name, bad", [m[1:] for m in MUTANTS], ids=[m[0] for m in MUTANTS])
def test_every_potential_mutant_fails_the_suite(name, bad):
    entry = catalog.build(name)._replace(expression=bad)
    assert not verify.full_suite(entries={name: entry}).all_passed
