"""Symplectic integration and invariant-drift measurement.

Forces come from symbolic differentiation of the catalog potential,
compiled once per run; there is no numerical differentiation anywhere.
Fixed step only: the convergence study needs clean order estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from statistics import linear_regression
from typing import Iterable, Sequence

from .catalog import CatalogEntry
from .phasepoly import PX, PY, DomainError, PhasePoly

INTEGRATORS = ("leapfrog2", "composed4")

_KINETIC = Fraction(1, 2) * (PX**2 + PY**2)

# triple-composition coefficients turning a second-order step into fourth order
_C1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_C2 = 1.0 - 2.0 * _C1


class TrajectoryAborted(DomainError):
    """Trajectory left the y > y_min domain; carries the violation time."""

    def __init__(self, time: float, y: float, y_min: float):
        self.time = time
        self.y = y
        self.y_min = y_min
        super().__init__(f"y = {y} fell to or below the guard {y_min} at t = {time}")


@dataclass(frozen=True)
class PhasePoint:
    x: float
    y: float
    px: float
    py: float

    def __post_init__(self):
        # one combined test: integrate builds a point at every step, so a
        # state that blows up mid-run ends as a DomainError
        if not all(map(math.isfinite, (self.x, self.y, self.px, self.py))):
            raise DomainError(f"coordinates must be finite, got {self}")


@dataclass(frozen=True)
class SimConfig:
    h: float
    t_end: float
    integrator: str = "leapfrog2"
    y_min: float = 1e-6
    k1: float = 0.0
    k2: float = 0.0
    k3: float = 0.0

    def __post_init__(self):
        for name in ("h", "t_end", "y_min", "k1", "k2", "k3"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.h <= 0:
            raise ValueError("step h must be positive")
        if self.t_end <= 0:
            raise ValueError("t_end must be positive")
        if self.h > self.t_end:
            raise ValueError("step h must not exceed t_end")
        steps = round(self.t_end / self.h)
        if abs(steps * self.h - self.t_end) > 1e-9 * self.t_end:
            raise ValueError(f"t_end = {self.t_end!r} is not a whole number of "
                             f"steps of h = {self.h!r}")
        if self.y_min <= 0:
            raise ValueError("y_min must be positive")
        if self.integrator not in INTEGRATORS:
            raise ValueError(f"integrator must be one of {INTEGRATORS}")


@dataclass(frozen=True)
class Trajectory:
    times: tuple[float, ...]
    points: tuple[PhasePoint, ...]

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


@dataclass(frozen=True)
class InvariantDrift:
    name: str
    initial: float
    drift: float  # max |I(t) - I(0)| / max(|I(0)|, 1)


@dataclass(frozen=True)
class DriftReport:
    invariants: tuple[InvariantDrift, ...]
    samples: int


def _potential_poly(entry: CatalogEntry) -> PhasePoly:
    """Extract the momentum-free potential from a potential or Hamiltonian entry."""
    expr = entry.expression
    if not isinstance(expr, PhasePoly):
        raise ValueError(f"{entry.name} is not a scalar phase-space expression")
    if entry.kind == "hamiltonian":
        expr = expr - _KINETIC
    if expr.momentum_order != 0:
        raise ValueError(f"{entry.name} is not momentum-free; pass a potential")
    return expr


def integrate(potential: CatalogEntry, start: PhasePoint, cfg: SimConfig) -> Trajectory:
    """Kick-drift-kick trajectory of H = (1/2)|p|^2 + V, sampled every step.

    leapfrog2 is the plain KDK splitting; composed4 chains three KDK
    substeps with weights (_C1, _C2, _C1), the middle one backward.
    Aborts with TrajectoryAborted if y drops to y_min at any substep.
    """
    if start.y <= cfg.y_min:
        raise ValueError(f"start.y = {start.y} must exceed y_min = {cfg.y_min}")
    V = _potential_poly(potential)
    fx = (-V.diff("x")).compile(cfg.k1, cfg.k2, cfg.k3)
    fy = (-V.diff("y")).compile(cfg.k1, cfg.k2, cfg.k3)

    weights = (1.0,) if cfg.integrator == "leapfrog2" else (_C1, _C2, _C1)
    n_steps = max(1, round(cfg.t_end / cfg.h))
    x, y, px, py = start.x, start.y, start.px, start.py
    ax, ay = fx(x, y, px, py), fy(x, y, px, py)

    times = [0.0]
    points = [start]
    t = 0.0
    for i in range(n_steps):
        t_sub = t
        for w in weights:
            dt = w * cfg.h
            px += 0.5 * dt * ax
            py += 0.5 * dt * ay
            x += dt * px
            y += dt * py
            t_sub += dt
            if y <= cfg.y_min:
                raise TrajectoryAborted(t_sub, y, cfg.y_min)
            ax, ay = fx(x, y, px, py), fy(x, y, px, py)
            px += 0.5 * dt * ax
            py += 0.5 * dt * ay
        t = (i + 1) * cfg.h
        times.append(t)
        points.append(PhasePoint(x, y, px, py))
    return Trajectory(tuple(times), tuple(points))


def drift_report(traj: Trajectory, invariants: Iterable[CatalogEntry], *,
                 k1: float = 0.0, k2: float = 0.0, k3: float = 0.0) -> DriftReport:
    """Normalized max deviation of each invariant along the trajectory."""
    drifts = []
    for entry in invariants:
        if not isinstance(entry.expression, PhasePoly):
            raise ValueError(f"{entry.name} is not evaluable on phase points")
        compiled = entry.expression.compile(k1, k2, k3)
        p0 = traj.points[0]
        initial = compiled(p0.x, p0.y, p0.px, p0.py)
        scale = max(abs(initial), 1.0)
        worst = 0.0
        for p in traj.points:
            dev = abs(compiled(p.x, p.y, p.px, p.py) - initial)
            if dev > worst:
                worst = dev
        drifts.append(InvariantDrift(entry.name, initial, worst / scale))
    return DriftReport(tuple(drifts), len(traj))


def convergence_order(potential: CatalogEntry, start: PhasePoint,
                      invariant: CatalogEntry, h_list: Sequence[float],
                      cfg: SimConfig) -> float | None:
    """Observed order: least-squares slope of log(max drift) against log(h).

    h_list must hold at least three step sizes, each half the previous.
    Returns None when the drift vanishes at every step size (the fit is
    degenerate; the flow is exact for this invariant), e.g. the free case.
    """
    if len(h_list) < 3:
        raise ValueError("need at least 3 step sizes")
    for a, b in zip(h_list, h_list[1:]):
        if not math.isclose(b, a / 2.0, rel_tol=1e-9):
            raise ValueError("each step size must halve the previous one")
    log_h, log_d = [], []
    for h in h_list:
        traj = integrate(potential, start, replace(cfg, h=h))
        report = drift_report(traj, [invariant], k1=cfg.k1, k2=cfg.k2, k3=cfg.k3)
        drift = report.invariants[0].drift
        if drift > 0.0:
            log_h.append(math.log(h))
            log_d.append(math.log(drift))
    if len(log_d) < 2:
        return None
    return linear_regression(log_h, log_d).slope


def format_trajectory(traj: Trajectory, invariants: Sequence[CatalogEntry] = (), *,
                      k1: float = 0.0, k2: float = 0.0, k3: float = 0.0) -> str:
    """Tab-separated table, one row per sample, repr-precision floats."""
    compiled = [(e.name, e.expression.compile(k1, k2, k3)) for e in invariants]
    header = ["t", "x", "y", "px", "py"] + [name for name, _ in compiled]
    lines = ["\t".join(header)]
    for t, p in zip(traj.times, traj.points):
        row = [repr(t), repr(p.x), repr(p.y), repr(p.px), repr(p.py)]
        row += [repr(fn(p.x, p.y, p.px, p.py)) for _, fn in compiled]
        lines.append("\t".join(row))
    return "\n".join(lines) + "\n"
