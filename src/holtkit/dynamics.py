"""Symplectic integration and invariant-drift measurement.

Forces come from symbolic differentiation of the catalog potential,
compiled once per run into one evaluator for both components; there is no
numerical differentiation anywhere.  A run is recorded as float columns:
the steps fill t, x, y, px and py, then one generated function evaluates
every tracked invariant once per sample into one shared column, of which
each invariant reads a strided view; the table and the drift report only
read them.  A large table is formatted in contiguous row blocks, one per
usable CPU, in forked children whose text is joined in row order, and is
the same text as one process makes.  Fixed step only: the convergence
study needs clean order estimates.
"""

from __future__ import annotations

import math
import os
from itertools import chain, repeat
from math import isfinite
from operator import sub
from typing import Iterable, NamedTuple, Sequence

from .catalog import CatalogEntry
from .phasepoly import DomainError, PhasePoly, compile_all

INTEGRATORS = ("leapfrog2", "composed4")

# triple-composition coefficients turning a second-order step into fourth order
_C1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_C2 = 1.0 - 2.0 * _C1

# the most steps a run may take: a run tracking four invariants records nine
# float columns, 720 MB at 10**7 samples, before its table is formatted
_MAX_STEPS = 10**7

# the columns every run records, ahead of its tracked invariants
_STATE = ("t", "x", "y", "px", "py")


class TrajectoryAborted(DomainError):
    """Trajectory left the y > y_min domain; carries the violation time."""

    def __init__(self, time: float, y: float, y_min: float):
        self.time = time
        self.y = y
        self.y_min = y_min
        super().__init__(f"y = {y} fell to or below the guard {y_min} at t = {time}")


class _SimFields(NamedTuple):
    h: float = 1e-3
    t_end: float = 1.0
    integrator: str = "leapfrog2"
    y_min: float = 1e-6
    k1: float = 0.0
    k2: float = 0.0
    k3: float = 0.0


class SimConfig(_SimFields):
    """Step, duration, integrator, y guard and parameters of one run, checked;
    the defaults are the ones `holtkit simulate` uses."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
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
        ratio = self.t_end / self.h
        if ratio > _MAX_STEPS:  # an infinite ratio included
            raise ValueError(f"t_end = {self.t_end!r} holds too many steps of h = {self.h!r}: "
                             f"{ratio!r}, past the limit of {_MAX_STEPS}")
        steps = round(ratio)
        if abs(steps * self.h - self.t_end) > 1e-9 * self.t_end:
            raise ValueError(f"t_end = {self.t_end!r} is not a whole number of "
                             f"steps of h = {self.h!r}")
        if self.y_min <= 0:
            raise ValueError("y_min must be positive")
        if self.integrator not in INTEGRATORS:
            raise ValueError(f"integrator must be one of {INTEGRATORS}")
        return self

    @classmethod
    def _make(cls, iterable) -> "SimConfig":
        # _replace builds through _make; keep the checks on that path too
        return cls(*iterable)


class Trajectory:
    """The record of one run: one read-only float column per name.

    names is ("t", "x", "y", "px", "py", *the tracked invariants), and
    columns holds, for each name, its value at every sample; len() counts
    the samples.
    """

    __slots__ = ("names", "columns")

    def __init__(self, names: tuple[str, ...], columns: tuple[Sequence[float], ...]):
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "columns", columns)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __len__(self) -> int:
        return len(self.columns[0])


class InvariantDrift(NamedTuple):
    name: str
    initial: float
    drift: float  # max |I(t) - I(0)| / max(|I(0)|, 1)


class DriftReport(NamedTuple):
    invariants: tuple[InvariantDrift, ...]
    samples: int


def _potential_poly(entry: CatalogEntry) -> PhasePoly:
    """The expression of a potential entry, checked to be a momentum-free polynomial."""
    if entry.kind != "potential":
        raise ValueError(f"{entry.name} is not a potential")
    if not isinstance(entry.expression, PhasePoly) or entry.expression.momentum_order:
        raise ValueError(f"{entry.name} is not a momentum-free polynomial")
    return entry.expression


def integrate(potential: CatalogEntry, start: Sequence[float], cfg: SimConfig,
              invariants: Iterable[CatalogEntry] = ()) -> Trajectory:
    """Kick-drift-kick trajectory of H = (1/2)|p|^2 + V from start, the four
    floats (x, y, px, py), sampled every step, with each invariant evaluated
    at every sample at cfg's k1, k2, k3.

    A start that is not finite, or whose y is at or below y_min, is a
    ValueError.  leapfrog2 is the plain KDK splitting; composed4 chains
    three KDK substeps with weights (_C1, _C2, _C1), the middle one
    backward.  Aborts with TrajectoryAborted if y drops to y_min at any
    substep, and with DomainError if the state stops being finite.
    The invariants are evaluated only once every step has been taken, so a
    y-guard abort, a non-finite state or a force overflow is raised before
    any error of theirs.
    """
    start = x, y, px, py = tuple(start)
    if not all(map(isfinite, start)):
        raise ValueError(f"start = {start} must be a finite point")
    if y <= cfg.y_min:
        raise ValueError(f"start.y = {y} must exceed y_min = {cfg.y_min}")
    V = _potential_poly(potential)
    entries = tuple(invariants)
    for entry in entries:
        if not isinstance(entry.expression, PhasePoly):
            raise ValueError(f"{entry.name} is a vector field and cannot be tracked")
    force = compile_all((-V.diff("x"), -V.diff("y")), cfg.k1, cfg.k2, cfg.k3)

    # imported here: only a run uses it, and an import at the top would
    # cost every start-up
    from array import array

    h, y_min = cfg.h, cfg.y_min
    weights = (1.0,) if cfg.integrator == "leapfrog2" else (_C1, _C2, _C1)
    n_steps = round(cfg.t_end / h)
    ax, ay = force(x, y, px, py)

    state = tuple(array("d", (value,)) for value in start)
    append_x, append_y, append_px, append_py = (c.append for c in state)
    for i in range(n_steps):
        t = i * h
        for w in weights:
            dt = w * h
            px += 0.5 * dt * ax
            py += 0.5 * dt * ay
            x += dt * px
            y += dt * py
            t += dt
            if y <= y_min:
                raise TrajectoryAborted(t, y, y_min)
            ax, ay = force(x, y, px, py)
            px += 0.5 * dt * ax
            py += 0.5 * dt * ay
        if not (isfinite(x) and isfinite(y) and isfinite(px) and isfinite(py)):
            raise DomainError(f"the state is not finite at t = {t}: "
                              f"(x, y, px, py) = {(x, y, px, py)}")
        append_x(x)
        append_y(y)
        append_px(px)
        append_py(py)
    times = array("d", map(h.__mul__, range(n_steps + 1)))  # sample i is at i * h
    columns = tuple(memoryview(c).toreadonly() for c in (times, *state))
    if entries:  # a run tracking nothing takes no pass over its samples
        evaluate = compile_all([e.expression for e in entries], cfg.k1, cfg.k2, cfg.k3)
        # every invariant's value at each sample in turn; each invariant's
        # column is a strided view of this one array
        values = memoryview(array("d", chain.from_iterable(map(evaluate, *state)))).toreadonly()
        columns += tuple(values[i::len(entries)] for i in range(len(entries)))
    return Trajectory((*_STATE, *(e.name for e in entries)), columns)


def drift_report(traj: Trajectory) -> DriftReport:
    """Normalized max deviation of each invariant the trajectory tracked.

    The largest |I - I0| starts at 0.0 and takes a deviation only when it is
    larger, so a nan deviation never wins.  A column whose first value is
    nan keeps 0.0 as its largest deviation, but its scale max(|nan|, 1.0)
    is nan, so its drift reads nan.
    """
    drifts = []
    for name, column in zip(traj.names[len(_STATE):], traj.columns[len(_STATE):]):
        worst = max(chain((0.0,), map(abs, map(sub, column, repeat(column[0])))))
        drifts.append(InvariantDrift(name, column[0], worst / max(abs(column[0]), 1.0)))
    return DriftReport(tuple(drifts), len(traj))


def convergence_order(potential: CatalogEntry, start: Sequence[float],
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
        traj = integrate(potential, start, cfg._replace(h=h), [invariant])
        drift = drift_report(traj).invariants[0].drift
        if drift > 0.0:
            log_h.append(math.log(h))
            log_d.append(math.log(drift))
    if len(log_d) < 2:
        return None
    # imported here: no other path needs statistics, and every start-up paid for it
    from statistics import linear_regression
    return linear_regression(log_h, log_d).slope


def format_trajectory(traj: Trajectory) -> str:
    """Tab-separated table, one row per sample, repr-precision floats: the
    time, the point and each tracked invariant's value.

    A large table is formatted in contiguous row blocks, one per usable CPU
    (see _processes); the text is the same whatever the number of blocks.
    """
    return _format_in_blocks(traj, _processes(len(traj) * len(traj.columns)))


# the fewest floats worth a process of their own: a fork round trip (fork,
# pipe, exit and wait, in a process that has imported holtkit.cli) costs
# 2.2-2.5 ms and repr about 0.6 us a float, so a block under about 5000
# floats never pays for its fork
_FLOATS_PER_PROCESS = 5000


def _processes(floats: int) -> int:
    """How many processes format a table of this many floats: one per usable
    CPU, each with at least _FLOATS_PER_PROCESS of them, and just this one
    where os.fork is missing or a second thread runs, as a fork then risks
    a child stuck on a lock that thread held."""
    if floats < 2 * _FLOATS_PER_PROCESS or not hasattr(os, "fork"):
        return 1
    # imported here: only a table worth splitting asks
    import threading

    if threading.active_count() > 1:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, floats // _FLOATS_PER_PROCESS)


def _format_rows(columns: Sequence[Sequence[float]], start: int, stop: int) -> str:
    """Rows start to stop of the table, each closed by a newline."""
    # repr each column in one map, then join the row; repr is most of the cost
    lines = list(map("\t".join, zip(*(map(repr, c[start:stop]) for c in columns))))
    lines.append("")  # the closing newline, without a second copy of the block
    return "\n".join(lines)


def _format_in_blocks(traj: Trajectory, processes: int) -> str:
    """The table in `processes` contiguous row blocks: this process formats
    block 0 and a forked child each other block, which it sends back over a
    pipe; the blocks are joined in row order.

    A child leaves only through os._exit, with 0 only once its whole block
    is written.  Every child is reaped, and this process formats each block
    whose child did not exit with 0, or could not be given a pipe or be
    forked, so a child can cost time but never change or lose a row.
    """
    n, columns = len(traj), traj.columns
    bounds = [n * i // processes for i in range(processes + 1)]
    blocks: list = [None] * processes  # each block's text in pieces, or None
    children = []  # (block, pid, read end of its pipe)
    try:
        for i in range(1, processes):
            pipe = ()  # the ends opened so far
            try:
                pipe = read_end, write_end = os.pipe()
                pid = os.fork()
            except OSError:  # no pipe or no process to be had: this one formats the rest
                for fd in pipe:
                    os.close(fd)
                break
            if pid == 0:  # the child sends block i and leaves at once
                code = 1
                try:
                    # a read end left open here would keep an earlier child
                    # writing to a pipe its reader has closed
                    for fd in (read_end, *(r for *_, r in children)):
                        os.close(fd)
                    with open(write_end, "wb") as out:
                        out.write(_format_rows(columns, bounds[i], bounds[i + 1]).encode())
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_end)
            children.append((i, pid, read_end))
        blocks[0] = [_format_rows(columns, bounds[0], bounds[1])]
        for i, _, read_end in children:
            # piece by piece, so no block is held as bytes and as str at once
            blocks[i] = pieces = []
            while piece := os.read(read_end, 1 << 16):
                pieces.append(piece.decode())
    finally:
        for i, pid, read_end in children:
            os.close(read_end)  # a child still writing stops at once
            if os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) != 0:
                blocks[i] = None  # a part of its block at most
    for i, pieces in enumerate(blocks):
        if pieces is None:
            blocks[i] = [_format_rows(columns, bounds[i], bounds[i + 1])]
    return "".join(["\t".join(traj.names), "\n", *chain.from_iterable(blocks)])
