"""Symplectic integration and invariant-drift measurement.

Forces come from symbolic differentiation of the catalog potential; there
is no numerical differentiation anywhere.  Each run is one generated
function, from the package's only code generator: its unrolled substeps
compute both force components inline, and at each sample it evaluates
every tracked invariant inline, each sum bit for bit what
PhasePoly.compile's loop gives, reusing the force's cube root of y and the
powers of x and u they share, and stores x, y, px, py and each invariant
straight into a float column of its own, allocated at full length before
the first step.  An invariant's errors wait until every step has run.
The table and the drift report only read the columns.  A large table is
formatted in contiguous row blocks, one per usable CPU, in forked children
whose text is joined in row order, and is the same text as one process
makes.  Fixed step only: the convergence study needs clean order
estimates.
"""

from __future__ import annotations

import math
import os
from itertools import chain
from math import isfinite
from typing import Callable, Iterable, NamedTuple, Sequence

from .catalog import CatalogEntry
from .phasepoly import DomainError, FloatTerms, PhasePoly, _overflow

# triple-composition coefficients turning a second-order step into fourth order
_C1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_C2 = 1.0 - 2.0 * _C1

# integrator -> the weights of its kick-drift-kick substeps, each w * h long
_WEIGHTS = {"leapfrog2": (1.0,), "composed4": (_C1, _C2, _C1)}
INTEGRATORS = tuple(_WEIGHTS)

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
        for w in _WEIGHTS[self.integrator]:
            if not math.isfinite(w * self.h):  # then so is its half kick
                raise ValueError(f"step h = {self.h!r} makes a {self.integrator} substep "
                                 f"of {w * self.h!r}, past the float range")
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
    substep, and with DomainError if the state stops being finite or the
    force overflows.  An invariant's errors are raised only once every step
    has been taken, so any of those comes first: a parameter power too
    large for a float, then an overflow at the first sample where one
    occurs.  The whole run is one generated function (see _run_function).
    """
    start = tuple(start)
    if not all(map(isfinite, start)):
        raise ValueError(f"start = {start} must be a finite point")
    start = x, y, px, py = tuple(map(float, start))  # as sample 0 stores it
    if y <= cfg.y_min:
        raise ValueError(f"start.y = {y} must exceed y_min = {cfg.y_min}")
    V = _potential_poly(potential)
    entries = tuple(invariants)
    for entry in entries:
        if not isinstance(entry.expression, PhasePoly):
            raise ValueError(f"{entry.name} is a vector field and cannot be tracked")
    k = cfg.k1, cfg.k2, cfg.k3
    coeffs: list[float] = []
    powers: set[str] = set()
    force = _statements([(-V.diff(v))._fold(*k) for v in ("x", "y")], ("ax", "ay"),
                        coeffs, powers)
    held = None  # an invariant's folding error, raised once every step has run
    try:
        folded = [e.expression._fold(*k) for e in entries]
    except DomainError as exc:
        held, folded = exc, []
    # the force is momentum-free, so each power it assigns, of x or u, holds
    # at the sample its last substep ends on, and the invariants reuse it
    sample = _statements(folded, [f"i{j}" for j in range(len(folded))], coeffs, powers)

    # imported here: only a run uses it, and an import at the top would
    # cost every start-up
    from array import array

    n_steps = round(cfg.t_end / cfg.h)
    run = _run_function(force, sample, len(folded), coeffs, cfg, n_steps)
    columns = [array("d", [0.0]) * (n_steps + 1) for _ in range(4 + len(folded))]
    bad = run(*start, *map(memoryview, columns))
    if held is not None:
        raise held
    if bad >= 0:
        raise _overflow(*(c[bad] for c in columns[:4]))
    times = array("d", map(cfg.h.__mul__, range(n_steps + 1)))  # sample i is at i * h
    return Trajectory((*_STATE, *(e.name for e in entries)),
                      tuple(memoryview(c).toreadonly() for c in (times, *columns)))


def _not_finite(t: float, x: float, y: float, px: float, py: float) -> DomainError:
    return DomainError(f"the state is not finite at t = {t}: "
                       f"(x, y, px, py) = {(x, y, px, py)}")


def _indent(lines: Iterable[str]) -> list[str]:
    return ["    " + line for line in lines]


# terms per generated sum expression: CPython's compiler recurses once per
# '+' of one expression and gives up somewhere below 3000 of them
_SUM_CHUNK = 500


def _statements(folded: Sequence[FloatTerms], targets: Sequence[str], coeffs: list[float],
                powers: set[str]) -> list[str]:
    """Generated statements that set each target to the sum of its folded
    terms, at a point held in the locals x, u, px and py.

    Each sum is bit for bit what PhasePoly.compile's loop gives.  The
    statements first assign each distinct power a term uses (u**-2, px**2,
    ...) to a local (u_m2, px_2, ...), unless powers already names it, and
    add it there: the same float the loop's own `**` gives, and an overflow
    still raises.  A factor with exponent 0 (the float 1.0) or 1 (the base
    itself) is left out, which is exact.  Then each sum keeps the term
    order and 0.0 as its first operand (so -0.0 terms still sum to 0.0),
    in expressions of at most _SUM_CHUNK terms, and each product keeps the
    factor order c * x * u * px * py.  The coefficients are appended to
    coeffs and read as the globals c0, c1, ... by their index there, not
    as printed literals, because a folded one can be inf or nan.
    """
    assigned = []
    sums = []
    for target, terms in zip(targets, folded):
        products = []
        for c, *exponents in terms:
            factors = [f"c{len(coeffs)}"]
            coeffs.append(c)
            for var, e in zip(("x", "u", "px", "py"), exponents):
                if e == 1:
                    factors.append(var)
                elif e:
                    name = f"{var}_{e}".replace("-", "m")
                    if name not in powers:
                        powers.add(name)
                        assigned.append(f"{name} = {var}**{e}")
                    factors.append(name)
            products.append(" * ".join(factors))
        sums.append(f"{target} = 0.0")
        sums += [f"{target} = {target} + {' + '.join(products[j:j + _SUM_CHUNK])}"
                 for j in range(0, len(products), _SUM_CHUNK)]
    return assigned + sums


def _run_function(force: list[str], sample: list[str], n_invariants: int,
                  coeffs: list[float], cfg: SimConfig, n_steps: int) -> Callable:
    """The generated run(x, y, px, py, s_x, s_y, s_px, s_py, s_i0, ...) of
    n_steps steps, from the statements of the force (ax, ay) and of the
    invariants at a sample (i0, i1, ...) that _statements emitted.

    It stores the start and the state after each step into the columns
    s_x ... s_py at the sample's index, and each invariant's value there
    into its s_i column, and returns the first index whose invariants
    overflowed, or -1.  The substeps are unrolled with the force
    statements inline, so each float is what a loop over the weights
    gives: dt = w * h, a kick adds (0.5 * dt) * a, and the time of an
    abort is (i - 1) * h plus each dt so far, added in turn.  A state is
    finite when (x - x) + ... + (py - py) is 0.0, as inf - inf and every
    nan operation give nan.  Its globals are the coefficients c0, c1, ...
    and the few names its body raises or reads; this is the one place the
    package runs generated code.
    """
    weights = _WEIGHTS[cfg.integrator]
    evaluate_force = ["u = y ** (1.0 / 3.0)",
                      "try:", *_indent(force),
                      "except OverflowError:",
                      "    raise _overflow(x, y, px, py) from None"]
    record = [f"s_{v}[i] = {v}" for v in ("x", "y", "px", "py")]
    if n_invariants:
        stores = [f"s_i{j}[i] = i{j}" for j in range(n_invariants)]
        record += ["try:", *_indent(sample), *_indent(stores),
                   "except OverflowError:",
                   "    if bad < 0:",
                   "        bad = i"]
    step, t = [], "(i - 1) * h"
    for j in range(len(weights)):
        t += f" + dt{j}"
        step += [f"px += half{j} * ax",
                 f"py += half{j} * ay",
                 f"x += dt{j} * px",
                 f"y += dt{j} * py",
                 "if y <= y_min:",
                 f"    raise TrajectoryAborted({t}, y, y_min)",
                 *evaluate_force,
                 f"px += half{j} * ax",
                 f"py += half{j} * ay"]
    step += ["if (x - x) + (y - y) + (px - px) + (py - py) != 0.0:",
             f"    raise _not_finite({t}, x, y, px, py)",
             *record]
    # the floats are bound to locals once, not printed as literals, since a
    # dt past the float range is inf, which has none
    dts = [w * cfg.h for w in weights]
    constants = (cfg.h, cfg.y_min, *chain.from_iterable((dt, 0.5 * dt) for dt in dts))
    names = ", ".join(("h", "y_min", *(f"dt{j}, half{j}" for j in range(len(weights)))))
    body = [f"{names} = _constants",
            *evaluate_force,
            "i = 0",
            "bad = -1",
            *record,
            f"for i in range(1, {n_steps + 1}):",
            *_indent(step),
            "return bad"]
    columns = ("s_x", "s_y", "s_px", "s_py", *(f"s_i{j}" for j in range(n_invariants)))
    namespace = {f"c{i}": c for i, c in enumerate(coeffs)}
    namespace.update(_constants=constants, TrajectoryAborted=TrajectoryAborted,
                     _not_finite=_not_finite, _overflow=_overflow)
    exec("\n".join((f"def run(x, y, px, py, {', '.join(columns)}):", *_indent(body))),
         namespace)
    # popped, so that the function and its globals form no cycle and are
    # freed as soon as the caller drops the function
    return namespace.pop("run")


def drift_report(traj: Trajectory) -> DriftReport:
    """Normalized max deviation of each invariant the trajectory tracked.

    The largest |I - I0| is taken from the column's extremes, as
    max(0.0, max - I0, I0 - min): c - I0 rounds monotonically in c, and
    symmetrically, so this is the largest rounded deviation, and 0.0 when
    every one is 0.0 or nan.  max and min skip a nan unless it comes
    first, so a nan deviation never wins.  A column whose first value is
    nan keeps 0.0 as its largest deviation, but its scale max(|nan|, 1.0)
    is nan, so its drift reads nan.
    """
    drifts = []
    for name, column in zip(traj.names[len(_STATE):], traj.columns[len(_STATE):]):
        first = column[0]
        worst = max(0.0, max(column) - first, first - min(column))
        drifts.append(InvariantDrift(name, first, worst / max(abs(first), 1.0)))
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
