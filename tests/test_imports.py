"""What a fresh `holtkit` process pays for at import."""

import os
import subprocess
import sys
from pathlib import Path

import holtkit

# dataclasses brings inspect (and with it ast, dis and tokenize); json serves
# only `verify --out` and statistics only convergence_order; fractions (with
# decimal and numbers) only PhasePoly.terms, `bracket --k*` and a caller's
# own Fraction
UNWANTED = ("dataclasses", "inspect", "json", "statistics", "fractions", "decimal", "numbers")

# what no exact or numeric path loads unless a Fraction is made
RATIONALS = ("fractions", "decimal", "numbers")

# prints the modules `import holtkit.cli` adds to a bare interpreter's, so
# that whatever a site hook loads at start-up does not count
SCRIPT = ("import sys; bare = set(sys.modules); import holtkit.cli; "
          "print(*sorted(set(sys.modules) - bare))")

# builds every catalog entry, runs the suite (whose 1944*k2^3 * Gamma_H
# multiplies a vector field by a polynomial) and a short simulation of U,
# then prints which of RATIONALS it loaded
WORKLOAD = f"""
import sys
bare = set(sys.modules)
import holtkit
from holtkit import catalog, verify
from holtkit.dynamics import SimConfig, drift_report, format_trajectory, integrate
entries = {{n: catalog.build(n) for n in catalog.names()}}
assert verify.full_suite().all_passed
traj = integrate(entries["U"], (0.0, 1.0, 0.5, 0.5), SimConfig(t_end=0.01, k2=1.0),
                 [entries[n] for n in catalog.invariants("U")])
assert format_trajectory(traj) and drift_report(traj).samples == 11
print(*(m for m in {RATIONALS!r} if m in set(sys.modules) - bare))
"""

# PhasePoly.terms loads fractions itself, and a Fraction made after the
# package loaded enters the ring as one made before it would
TERMS = """
import sys
bare = set(sys.modules)
from holtkit import K2, X, PhasePoly, VectorField
assert "fractions" not in set(sys.modules) - bare
terms = (X - 3 * K2).terms
from fractions import Fraction
assert all(type(c) is Fraction for c in terms.values()), terms
assert terms == {(1, 0, 0, 0, 0, 0, 0): 1, (0, 0, 0, 0, 0, 1, 0): -3}
assert X * Fraction(1, 2) == Fraction(1, 2) * X and (X * Fraction(1, 2)).den == 2
assert PhasePoly.constant(Fraction(2, 4)) == Fraction(1, 2)
field = VectorField(X, X, X, X) * Fraction(1, 2)
assert field.cx == Fraction(1, 2) * X
assert (K2 * X).substitute_params(k2=Fraction(1, 3)) == Fraction(1, 3) * X
"""


def _run(script: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(Path(holtkit.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True, timeout=60).stdout


def test_importing_the_cli_loads_none_of_the_unwanted_modules():
    added = _run(SCRIPT).split()
    assert "holtkit.cli" in added
    assert [m for m in UNWANTED if m in added] == []
    # only `holtkit verify` runs the suite, so only it loads the suite's module
    assert "holtkit.verify" not in added


def test_building_verifying_and_simulating_load_no_rational_module():
    assert _run(WORKLOAD).split() == []


def test_terms_load_fractions_and_a_later_fraction_is_exact():
    _run(TERMS)
