from pathlib import Path

import pytest

from holtkit import catalog, ring
from holtkit.parsing import parse_expression
from holtkit.phasepoly import K2, PhasePoly, X, hamiltonian_vf, poisson_bracket


def transcriptions():
    """Every text the catalog stores: potentials, integrals, Gamma_H's components."""
    texts = [text for text, *_ in (*catalog._POTENTIALS.values(), *catalog._INTEGRALS.values())]
    texts += [text for spec, _ in catalog._FIELDS.values() if not isinstance(spec, str)
              for text in spec]
    return texts


def test_names_cover_all_kinds():
    names = catalog.names()
    assert len(names) == len(set(names))
    kinds = {catalog.build(n).kind for n in names}
    assert kinds == {"potential", "hamiltonian", "integral", "vectorfield"}


def test_unknown_name_raises():
    with pytest.raises(KeyError):
        catalog.build("V_h4")


def test_potentials_are_momentum_free():
    for name in ("V_h1", "V_h2", "V_h3", "V_h1_k", "V_h2_k", "V_h3_k", "U"):
        assert catalog.build(name).momentum_order == 0


def test_hamiltonians_are_quadratic_in_momenta():
    for name in catalog.names():
        if name.startswith("H_"):
            assert catalog.build(name).momentum_order == 2


def test_integral_momentum_orders():
    expected = {"J_h1_3": 3, "J_h2_4": 4, "J_h3_6": 6,
                "J_h1_3_k": 3, "J_h2_4_k": 4, "J_h3_6_k": 6,
                "K2_3": 3, "K3_4": 4, "K4_6": 6}
    for name, order in expected.items():
        assert catalog.build(name).momentum_order == order, name


def test_entries_are_fresh_per_build():
    a = catalog.build("K2_3").expression
    b = catalog.build("K2_3").expression
    assert a == b
    assert a is not b


def test_building_every_entry_parses_each_distinct_text_once(monkeypatch):
    parsed = []

    def recording_parse(text):
        parsed.append(text)
        return parse_expression(text)

    monkeypatch.setattr(catalog, "_PARSED", {})
    monkeypatch.setattr(catalog, "parse_expression", recording_parse)
    for _ in range(2):
        for name in catalog.names():
            catalog.build(name)
    assert sorted(parsed) == sorted(transcriptions()) == sorted(catalog._PARSED)


def test_a_caller_that_changes_a_built_entry_changes_no_later_build():
    for name in catalog.names():
        catalog.build(name)
    stored = {text: (p.den, dict(p.nums)) for text, p in catalog._PARSED.items()}
    K = catalog.build("K2_3").expression
    fresh = PhasePoly._wrap(K.den, dict(K.nums))
    K.nums.clear()
    K.den = 7
    for component in catalog.build("Gamma_H").expression:
        component.nums[(0,) * 7] = 1
    assert catalog.build("K2_3").expression == fresh
    assert catalog.build("X2").expression == hamiltonian_vf(fresh)
    assert {text: (p.den, p.nums) for text, p in catalog._PARSED.items()} == stored


def test_the_stored_values_hold_only_catalog_texts(capsys):
    from holtkit.cli import main

    assert main(["bracket", "K2_3", "x*px + 1/3*y"]) == 0
    assert main(["catalog", "show", "U"]) == 0
    capsys.readouterr()
    assert set(catalog._PARSED) <= set(transcriptions())


def test_building_every_entry_takes_no_kernel_product(monkeypatch):
    calls = []
    for layout in ("tuple", "packed"):
        monkeypatch.setattr(ring, f"_{layout}_products",
                            lambda *args, layout=layout: calls.append(layout))
    entries = [catalog.build(name) for name in catalog.names()]
    assert len(entries) == 27 and calls == []


def test_each_transcription_is_stored_as_it_renders():
    texts = transcriptions()
    assert len(texts) == len(set(texts)) == 7 + 9 + 4
    for text in texts:
        assert parse_expression(text).render() == text
    assert catalog.KINETIC.render() == "1/2*px^2 + 1/2*py^2"


def test_derived_entries_read_their_source_from_the_entries_in_force():
    V = X * X
    U = catalog.build("U")._replace(expression=V)
    H = catalog.build("H_U", {"U": U}).expression
    assert H == catalog.build("H_U").expression - catalog.build("U").expression + V
    K = 2 * catalog.build("K2_3").expression
    K2_3 = catalog.build("K2_3")._replace(expression=K)
    assert catalog.build("X2", {"K2_3": K2_3}).expression == hamiltonian_vf(K)


def test_entry_builds_a_missing_name_once_and_stores_it_with_its_source():
    in_force = {}
    H = catalog.entry("H_U", in_force)
    assert in_force == {"U": catalog.build("U"), "H_U": H}
    assert catalog.entry("H_U", in_force) is H
    assert catalog.entry("U", in_force) is in_force["U"]


def test_k_family_reduces_to_originals():
    for kname, name in (("V_h1_k", "V_h1"), ("V_h2_k", "V_h2"), ("V_h3_k", "V_h3"),
                        ("J_h1_3_k", "J_h1_3"), ("J_h2_4_k", "J_h2_4"),
                        ("J_h3_6_k", "J_h3_6")):
        got = catalog.build(kname).expression.substitute_params(k1=1, k2=0, k3=0)
        assert got == catalog.build(name).expression, kname


def test_limits_reach_the_linear_family():
    for kname, name in (("J_h1_3_k", "K2_3"), ("J_h2_4_k", "K3_4"),
                        ("J_h3_6_k", "K4_6"), ("V_h1_k", "U"), ("V_h2_k", "U")):
        got = catalog.build(kname).expression.substitute_params(k1=0)
        assert got == catalog.build(name).expression, kname


def test_sextic_constant_part_consistency():
    # the momentum-free block of the sextic family integral collapses, at
    # k1 = 0, to the final term of the sextic U integral
    def momentum_free(name):
        return PhasePoly({t: c for t, c in catalog.build(name).expression.terms.items()
                          if t.epx == t.epy == 0})

    assert momentum_free("J_h3_6_k").substitute_params(k1=0) == 324 * K2**3 * X
    assert momentum_free("K4_6") == 324 * K2**3 * X


def test_fields_are_hamiltonian_fields_of_their_integrals():
    for fname, iname in (("X2", "K2_3"), ("X3", "K3_4"), ("X4", "K4_6")):
        field = catalog.build(fname).expression
        assert (field - hamiltonian_vf(catalog.build(iname).expression)).is_zero


def test_sources_are_nonempty():
    for name in catalog.names():
        assert catalog.build(name).source.strip()


def test_renders_match_the_golden_file():
    """render() of every entry, byte for byte as the nested-coefficient kernel
    printed it; the flat kernel must not change the canonical text."""
    golden = Path(__file__).parent / "data" / "catalog_render.txt"
    lines = golden.read_text().splitlines()
    assert [line.split("\t", 1)[0] for line in lines] == catalog.names()
    for line in lines:
        name, text = line.split("\t", 1)
        assert catalog.build(name).expression.render() == text, name


def test_invariants_are_conserved_by_their_potential():
    potentials = [n for n in catalog.names() if catalog.build(n).kind == "potential"]
    listed = []
    for name in potentials:
        hamiltonian, *integrals = catalog.invariants(name)
        assert hamiltonian == f"H_{name}"
        H = catalog.build(hamiltonian).expression
        for j in integrals:
            assert poisson_bracket(catalog.build(j).expression, H).is_zero, (name, j)
        listed += integrals
    # every integral belongs to exactly one potential
    assert sorted(listed) == sorted(n for n in catalog.names()
                                    if catalog.build(n).kind == "integral")
    assert catalog.invariants("U") == ["H_U", "K2_3", "K3_4", "K4_6"]


def test_invariants_of_a_non_potential_are_a_value_error():
    for name in ("H_U", "K2_3", "X2"):
        with pytest.raises(ValueError, match=f"^{name} is not a potential$"):
            catalog.invariants(name)
