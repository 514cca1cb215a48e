"""The package's record types: their repr, immutability and checks."""

import pytest

from holtkit import catalog, verify
from holtkit.dynamics import (
    DriftReport,
    InvariantDrift,
    SimConfig,
    integrate,
)
from holtkit.phasepoly import PX, X, PhasePoly, VectorField

U = catalog.build("U")
CFG = SimConfig(h=0.25, t_end=0.5, k2=1.0)
CHECK = verify.Check("c", "d", "src", False, "x", 1.5)
FIELD = VectorField(X, PX, -X, PhasePoly.zero())
DRIFT = InvariantDrift("H_U", 1.0, 2.5e-7)
DRIFTS = DriftReport((DRIFT,), 3)
TRAJECTORY = integrate(U, (0.0, 1.0, 0.5, 0.5), CFG)

# (record, one of its fields)
RECORDS = [
    (U, "name"),
    (CHECK, "id"),
    (verify.VerificationReport((CHECK,)), "checks"),
    (FIELD, "cx"),
    (CFG, "h"),
    (DRIFT, "name"),
    (DRIFTS, "invariants"),
    (TRAJECTORY, "names"),
]


def _name(record) -> str:
    return type(record).__name__


# captured from the frozen dataclasses these records used to be
REPRS = {
    "CatalogEntry": "CatalogEntry(name='U', kind='potential', "
                    "expression=PhasePoly('k2*x*u^-2 + k3*u^-2'), "
                    "source='Post and Winternitz (2011)')",
    "Check": "Check(id='c', description='d', citation='src', passed=False, "
             "residual='x', millis=1.5)",
    "VectorField": "VectorField(cx=PhasePoly('x'), cy=PhasePoly('px'), "
                   "cpx=PhasePoly('-x'), cpy=PhasePoly('0'))",
    "SimConfig": "SimConfig(h=0.25, t_end=0.5, integrator='leapfrog2', y_min=1e-06, "
                 "k1=0.0, k2=1.0, k3=0.0)",
    "InvariantDrift": "InvariantDrift(name='H_U', initial=1.0, drift=2.5e-07)",
    "DriftReport": "DriftReport(invariants=(InvariantDrift(name='H_U', initial=1.0, "
                   "drift=2.5e-07),), samples=3)",
}


@pytest.mark.parametrize("record", [U, CHECK, FIELD, CFG, DRIFT, DRIFTS], ids=_name)
def test_repr_names_every_field(record):
    assert repr(record) == REPRS[_name(record)]


@pytest.mark.parametrize("record, field", RECORDS, ids=_name)
def test_records_refuse_attribute_assignment(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)


def test_replace_validates_a_sim_config_as_the_constructor_does():
    with pytest.raises(ValueError) as direct:
        SimConfig(h=0.3, t_end=1.0)
    with pytest.raises(ValueError) as replaced:
        SimConfig(h=0.25, t_end=1.0)._replace(h=0.3)
    assert "whole number" in str(direct.value)
    assert str(replaced.value) == str(direct.value)


def test_a_replaced_catalog_entry_reads_the_momentum_order_of_its_new_expression():
    cubic = catalog.build("K2_3").expression
    assert U._replace(expression=cubic).momentum_order == cubic.momentum_order == 3


def test_a_sim_config_has_a_default_for_every_setting():
    assert SimConfig() == SimConfig(h=1e-3, t_end=1.0)


def test_a_trajectory_counts_its_samples():
    assert len(TRAJECTORY) == len(TRAJECTORY.columns[0]) == 3
