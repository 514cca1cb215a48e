"""The benchmark tracer (bench/tracing.py) wraps package attributes by name.

It is loaded here from its file, unchanged, so a refactor that drops or
renames a name it wraps fails these tests, not only the benchmark job.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from holtkit import catalog, phasepoly, verify

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("holtkit_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_attributes(targets):
    """The value each traced name has on its class, or in each holtkit module."""
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "holtkit" or n.startswith("holtkit."))]
    return {(holder, attr): getattr(holder, attr, None)
            for owner, attr, _, _ in targets
            for holder in ([owner] if isinstance(owner, type) else modules)}


def test_every_traced_name_resolves(tracing):
    for owner, attr, span, _ in tracing.TARGETS:
        assert callable(getattr(owner, attr, None)), (owner, attr, span)


def test_a_tracer_installs_and_removes_cleanly(tracing, monkeypatch):
    monkeypatch.setattr(catalog, "_PARSED", {})  # so no earlier test has parsed a text
    before = traced_attributes(tracing.TARGETS)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for owner, attr, _, _ in tracing.TARGETS:
            assert getattr(owner, attr) is not before[(owner, attr)], (owner, attr)
        assert verify.poisson_bracket is phasepoly.poisson_bracket  # every holder is wrapped
        K = catalog.build("K2_3").expression
        failure = verify.check_conserved(K, catalog.build("H_U").expression)
        square = K * K
        first = tracer.layer_metrics()
        catalog.build("K2_3"), catalog.build("H_U")
    finally:
        tracer.remove()
    assert failure is None and square == K**2
    assert first["verify.check_calls"] == 1 and first["phasepoly.bracket_calls"] == 1
    # H_U is built from U, so three builds; K2_3 and U are parsed from their
    # text, and the kinetic term of H_U was parsed once at import
    assert first["catalog.build_calls"] == 3 and first["parsing.parse_calls"] == 2
    assert first["phasepoly.mul_calls"] == 1
    # the same builds again read both texts' stored values
    metrics = tracer.layer_metrics()
    assert metrics["catalog.build_calls"] == 6 and metrics["parsing.parse_calls"] == 2
    after = traced_attributes(tracing.TARGETS)
    assert [key for key in before if after[key] is not before[key]] == []
