"""Spans and counts recorded around calls into holtkit's public functions.

The wrappers live here, not in the package: a traced run installs them,
measures, and removes them again, so untraced timings pay nothing.  A
function is replaced in every holtkit module that holds it, because
modules import names directly (verify takes poisson_bracket, hamiltonian_vf
and vf_commutator into its own namespace; cli takes integrate and friends).
Class-level aliases such as `__radd__ = __add__` are separate attributes and
are wrapped one by one; `0 + coeff` inside the kernels reaches `__radd__`.

A span's self time is its inclusive time minus the inclusive time of the
spans it directly encloses.  Spans are aggregated per name in memory.
"""

from __future__ import annotations

import sys
import time

from holtkit import catalog, cli, dynamics, parsing, phasepoly, ring, verify


def _pairs(args):
    a, b = args
    return len(a.terms) * (len(b.terms) if type(b) is type(a) else 1)


def _count_ring_mul(counts, args, kwargs, result):
    if result is not NotImplemented:
        counts["ring.mul_pairs"] += _pairs(args)


def _count_phase_mul(counts, args, kwargs, result):
    if result is not NotImplemented:
        counts["phasepoly.mul_pairs"] += _pairs(args)
        counts["phasepoly.mul_terms"] += len(result.terms)


def _count_parse(counts, args, kwargs, result):
    counts["parsing.chars"] += len(args[0])


def _count_suite(counts, args, kwargs, result):
    counts["verify.millis_s"] += sum(c.millis for c in result.checks) / 1000.0


def _count_integrate(counts, args, kwargs, result):
    counts["dynamics.steps"] += len(result) - 1


def _count_drift(counts, args, kwargs, result):
    counts["dynamics.invariant_evals"] += result.samples * len(result.invariants)


def _count_format(counts, args, kwargs, result):
    rows = result.count("\n") - 1
    invariants = args[1] if len(args) > 1 else kwargs.get("invariants", ())
    counts["dynamics.rows"] += rows
    counts["dynamics.invariant_evals"] += rows * len(invariants)


# (owner, attribute, span name, counter); a class owner is patched in place,
# a module owner in every holtkit module that holds the same function
TARGETS = (
    (ring.ParamPoly, "__mul__", "ring.mul", _count_ring_mul),
    (ring.ParamPoly, "__rmul__", "ring.mul", _count_ring_mul),
    (ring.ParamPoly, "__add__", "ring.add", None),
    (ring.ParamPoly, "__radd__", "ring.add", None),
    (phasepoly.PhasePoly, "__mul__", "phasepoly.mul", _count_phase_mul),
    (phasepoly.PhasePoly, "__rmul__", "phasepoly.mul", _count_phase_mul),
    (phasepoly.PhasePoly, "__add__", "phasepoly.add", None),
    (phasepoly.PhasePoly, "__radd__", "phasepoly.add", None),
    (phasepoly.PhasePoly, "diff", "phasepoly.diff", None),
    (phasepoly.PhasePoly, "render", "phasepoly.render", None),
    (phasepoly.PhasePoly, "compile", "dynamics.compile", None),
    (phasepoly, "poisson_bracket", "phasepoly.bracket", None),
    (phasepoly, "vf_commutator", "phasepoly.commutator", None),
    (phasepoly, "hamiltonian_vf", "phasepoly.hamiltonian_vf", None),
    (parsing, "parse_expression", "parsing.parse", _count_parse),
    (catalog, "build", "catalog.build", None),
    (verify, "check_conserved", "verify.check", None),
    (verify, "check_identity", "verify.check", None),
    (verify, "check_vf_relation", "verify.check", None),
    (verify, "check_lie_closure", "verify.check", None),
    (verify, "full_suite", "verify.suite", _count_suite),
    (dynamics, "integrate", "dynamics.integrate", _count_integrate),
    (dynamics, "drift_report", "dynamics.drift", _count_drift),
    (dynamics, "format_trajectory", "dynamics.format", _count_format),
    (cli, "main", "cli.main", None),
)

COUNTERS = ("ring.mul_pairs", "phasepoly.mul_pairs", "phasepoly.mul_terms",
            "parsing.chars", "verify.millis_s", "dynamics.steps",
            "dynamics.invariant_evals", "dynamics.rows")


class Tracer:
    """Per-name span totals and counters; install() wraps, remove() restores."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.spans: dict[str, list] = {}  # name -> [calls, inclusive_s, self_s]
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._open: list[float] = []  # child time of each open span

    def _wrap(self, fn, name, counter):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            self._open.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                child = self._open.pop()
                if self._open:
                    self._open[-1] += elapsed
                span = self.spans.setdefault(name, [0, 0.0, 0.0])
                span[0] += 1
                span[1] += elapsed
                span[2] += elapsed - child
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "holtkit" or n.startswith("holtkit."))]
        for owner, attr, name, counter in TARGETS:
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, counter)
            holders = [owner] if isinstance(owner, type) else \
                [m for m in modules if getattr(m, attr, None) is original]
            for holder in holders:
                self._undo.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def remove(self) -> None:
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)

    def layer_metrics(self) -> dict[str, float]:
        """Per-pass numbers: calls and self time per span, counters, ratios."""
        out: dict[str, float] = {}
        names = {name for _, _, name, _ in TARGETS}
        for name in sorted(names):
            calls, inclusive, self_s = self.spans.get(name, (0, 0.0, 0.0))
            out[f"{name}_calls"] = calls
            out[f"{name}_self_s"] = self_s
            out[f"{name}_s"] = inclusive
        out.update(self.counts)
        c = self.counts
        out["phasepoly.mul_useful_ratio"] = (
            c["phasepoly.mul_terms"] / c["phasepoly.mul_pairs"] if c["phasepoly.mul_pairs"] else 0.0)
        integrate_s = out["dynamics.integrate_self_s"]
        out["dynamics.steps_per_s"] = c["dynamics.steps"] / integrate_s if integrate_s else 0.0
        suite_s = out["verify.suite_s"]
        out["verify.millis_coverage"] = c["verify.millis_s"] / suite_s if suite_s else 0.0
        return out
