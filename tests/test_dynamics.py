"""Integrator behavior against exactly known flows and cross-module facts.

The U dynamics with k2 != 0 always ends on the y = 0 wall: dpx/dt =
-k2*y^(-2/3) never changes sign, so x is eventually dragged to the side
where the wall attracts, and nothing in the y direction can stop the
fall.  From (0, 1, 0.5, 0.5) with k2 = 1 the collision is at t = 5.8696,
which bounds every usable baseline window; regression anchors below sit
at t_end = 5.5, where the orbit still has y >= 1.
"""

import os
import random
import signal
import threading
from fractions import Fraction
from math import isfinite

import pytest

from holtkit import catalog, dynamics
from holtkit.dynamics import (
    InvariantDrift,
    SimConfig,
    TrajectoryAborted,
    convergence_order,
    drift_report,
    format_trajectory,
    integrate,
)
from holtkit.phasepoly import DomainError, PhasePoly

U = catalog.build("U")
START = (0.0, 1.0, 0.5, 0.5)
COLLISION_TIME = 5.8696  # established by step refinement and an adaptive check


def _end(traj):
    """The last sampled point of a run, (x, y, px, py)."""
    return tuple(column[-1] for column in traj.columns[1:5])


def test_simconfig_validation():
    with pytest.raises(ValueError):
        SimConfig(h=0.0, t_end=1.0)
    with pytest.raises(ValueError):
        SimConfig(h=2.0, t_end=1.0)
    with pytest.raises(ValueError):
        SimConfig(h=1e-3, t_end=1.0, y_min=0.0)
    with pytest.raises(ValueError):
        SimConfig(h=1e-3, t_end=1.0, integrator="euler")


def test_simconfig_refuses_substeps_past_the_float_range():
    # a composed4 substep is _C1 * h and _C2 * h: inf and -inf here, where
    # leapfrog2's one substep of h is finite
    assert SimConfig(h=1.5e308, t_end=1.5e308).h == 1.5e308
    with pytest.raises(ValueError, match=r"^step h = 1\.5e\+308 makes a composed4 "
                                         r"substep of inf, past the float range$"):
        SimConfig(h=1.5e308, t_end=1.5e308, integrator="composed4")
    with pytest.raises(ValueError, match="past the float range"):
        SimConfig()._replace(h=1.5e308, t_end=1.5e308, integrator="composed4")


@pytest.mark.parametrize("field", ["h", "t_end", "y_min", "k1", "k2", "k3"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_simconfig_rejects_non_finite_values(field, bad):
    values = dict(h=1e-3, t_end=1.0)
    values[field] = bad
    with pytest.raises(ValueError, match="finite"):
        SimConfig(**values)


def test_simconfig_requires_whole_number_of_steps():
    with pytest.raises(ValueError, match="whole number"):
        SimConfig(h=0.3, t_end=1.0)
    for h, t_end in ((1e-3, 5.5), (1e-2, 0.1), (0.05, 0.1), (0.25, 0.5), (4e-3, 1.0),
                     (1e-7, 1.0)):  # 10**7 steps, the most a run may take
        assert SimConfig(h=h, t_end=t_end).t_end == t_end


@pytest.mark.parametrize("h, t_end", [(5e-324, 1.0), (1e-308, 1e308), (1e-300, 1.0)])
def test_simconfig_rejects_a_step_count_too_large_to_count(h, t_end):
    with pytest.raises(ValueError, match="too many steps"):
        SimConfig(h=h, t_end=t_end)
    with pytest.raises(ValueError, match="too many steps") as exc_info:
        SimConfig(h=1.0, t_end=1.0)._replace(h=h, t_end=t_end)
    assert len(str(exc_info.value)) < 120  # the ratio printed as a float


@pytest.mark.parametrize("coords, text", [
    ((float("nan"), 1.0, 0.0, 0.0), "(nan, 1.0, 0.0, 0.0)"),
    ((0.0, float("inf"), 0.0, 0.0), "(0.0, inf, 0.0, 0.0)"),
    ((0.0, 1.0, float("-inf"), float("nan")), "(0.0, 1.0, -inf, nan)"),
])
def test_integrate_refuses_a_non_finite_start(coords, text):
    with pytest.raises(ValueError) as exc_info:
        integrate(U, coords, SimConfig(h=0.25, t_end=0.5))
    assert type(exc_info.value) is ValueError
    assert str(exc_info.value) == f"start = {text} must be a finite point"


def test_a_start_is_any_four_floats_and_is_sample_0():
    traj = integrate(U, [0.5, 1.0, -2.0, 0], SimConfig(h=0.25, t_end=0.5))
    assert [column[0] for column in traj.columns[:5]] == [0.0, 0.5, 1.0, -2.0, 0.0]


def test_a_trajectory_names_its_columns_and_keeps_them_read_only():
    tracked = [catalog.build("H_U"), catalog.build("K2_3")]
    traj = integrate(U, START, SimConfig(h=0.05, t_end=0.1, k2=1.0), tracked)
    assert traj.names == ("t", "x", "y", "px", "py", "H_U", "K2_3")
    assert len(traj.columns) == len(traj.names)
    assert [column[0] for column in traj.columns[:5]] == [0.0, *START]
    for column in traj.columns:
        assert len(column) == len(traj) == 3
        with pytest.raises(TypeError):
            column[0] = 0.0


def test_start_must_clear_the_guard():
    with pytest.raises(ValueError, match=r"^start\.y = 1e-07 must exceed y_min = 1e-06$"):
        integrate(U, (0.0, 1e-7, 0.0, 0.0), SimConfig(h=1e-3, t_end=1.0))


def test_free_case_is_exact():
    cfg = SimConfig(h=1e-3, t_end=1.0)
    traj = integrate(U, (0.0, 1.0, 0.5, 0.0), cfg)
    assert len(traj) == 1001
    x, y, px, py = _end(traj)
    assert x == pytest.approx(0.5, abs=1e-12)
    assert y == 1.0
    assert px == 0.5 and py == 0.0


def test_free_case_convergence_is_degenerate():
    cfg = SimConfig(h=1e-3, t_end=1.0)
    H = catalog.build("H_U")
    order = convergence_order(U, (0.0, 1.0, 0.5, 0.0), H,
                              [4e-3, 2e-3, 1e-3], cfg)
    assert order is None


def test_time_reversibility_both_integrators():
    for integ in ("leapfrog2", "composed4"):
        cfg = SimConfig(h=1e-3, t_end=5.5, integrator=integ, k2=1.0)
        fwd = integrate(U, START, cfg)
        x, y, px, py = _end(fwd)
        bx, by, bpx, bpy = _end(integrate(U, (x, y, -px, -py), cfg))
        x0, y0, px0, py0 = START
        assert abs(bx - x0) <= 1e-9
        assert abs(by - y0) <= 1e-9
        assert abs(-bpx - px0) <= 1e-9
        assert abs(-bpy - py0) <= 1e-9


def test_baseline_run_completes_with_bounded_drift():
    cfg = SimConfig(h=1e-3, t_end=5.5, k2=1.0)
    invs = [catalog.build(n) for n in ("H_U", "K2_3", "K3_4", "K4_6")]
    traj = integrate(U, START, cfg, invs)
    report = drift_report(traj)
    assert report.samples == len(traj) == 5501
    for d in report.invariants:
        assert 0.0 < d.drift < 1e-4, d.name


def test_collision_of_the_linear_potential_orbit():
    """The stated start point cannot reach t = 10: the orbit falls into
    the singular wall just before t = 5.87, independent of step size."""
    abort_times = []
    for h in (4e-3, 1e-3):
        cfg = SimConfig(h=h, t_end=10.0, k2=1.0)
        with pytest.raises(TrajectoryAborted) as exc_info:
            integrate(U, START, cfg)
        assert exc_info.value.time == pytest.approx(COLLISION_TIME, abs=0.02)
        abort_times.append(exc_info.value.time)
    assert abs(abort_times[-1] - COLLISION_TIME) <= abs(abort_times[0] - COLLISION_TIME) + 1e-3


def test_forces_match_the_dynamical_field():
    # integrator forces and the printed field must agree numerically
    G = catalog.build("Gamma_H").expression
    V = U.expression
    fx = (-V.diff("x")).compile(k2=1.0, k3=0.25)
    fy = (-V.diff("y")).compile(k2=1.0, k3=0.25)
    gx = G.cpx.compile(k2=1.0, k3=0.25)
    gy = G.cpy.compile(k2=1.0, k3=0.25)
    pts = [(0.3, 0.7, 0.1, -0.2), (-1.2, 2.5, 0.0, 0.0), (4.0, 0.04, 1.0, 1.0)]
    for x, y, px, py in pts:
        assert abs(fx(x, y, px, py) - gx(x, y, px, py)) <= 1e-12
        assert abs(fy(x, y, px, py) - gy(x, y, px, py)) <= 1e-12


def test_constant_invariant_has_zero_drift():
    one = catalog.CatalogEntry("one", "integral", PhasePoly.constant(1), "unit test")
    cfg = SimConfig(h=1e-2, t_end=1.0, k2=1.0)
    traj = integrate(U, START, cfg, [one])
    report = drift_report(traj)
    assert report.invariants[0].drift == 0.0


def test_convergence_orders_on_the_baseline_window():
    hs = [4e-3, 2e-3, 1e-3, 5e-4]
    windows = {"leapfrog2": (1.5, 2.5), "composed4": (3.3, 4.7)}
    for integ, (lo, hi) in windows.items():
        cfg = SimConfig(h=1e-3, t_end=5.5, integrator=integ, k2=1.0)
        for name in ("H_U", "K2_3", "K3_4"):
            slope = convergence_order(U, START, catalog.build(name), hs, cfg)
            assert lo <= slope <= hi, (integ, name, slope)


def test_convergence_order_input_validation():
    cfg = SimConfig(h=1e-3, t_end=1.0, k2=1.0)
    H = catalog.build("H_U")
    with pytest.raises(ValueError):
        convergence_order(U, START, H, [1e-3, 5e-4], cfg)
    with pytest.raises(ValueError):
        convergence_order(U, START, H, [1e-3, 5e-4, 3e-4], cfg)


@pytest.mark.parametrize("name", ["H_U", "K2_3", "Gamma_H"])
def test_integrate_refuses_what_is_not_a_potential(name):
    with pytest.raises(ValueError, match=f"^{name} is not a potential$"):
        integrate(catalog.build(name), START, SimConfig(h=1e-2, t_end=0.5))


def test_a_hand_built_potential_must_be_momentum_free():
    entry = U._replace(expression=U.expression + PhasePoly.monomial(epx=2))
    with pytest.raises(ValueError, match="^U is not a momentum-free polynomial$"):
        integrate(entry, START, SimConfig(h=1e-2, t_end=0.5))


@pytest.mark.parametrize("names, bound", [
    pytest.param((), 64, id="state_only"),
    pytest.param(tuple(catalog.invariants("U")), 96, id="four_invariants"),
])
def test_a_run_records_each_sample_in_a_few_dozen_bytes(names, bound):
    # five float columns hold 40 bytes a sample, and each invariant adds 8;
    # the rest of the bound is room for the run's fixed costs, and a tuple
    # per step would take 232.  Every column is allocated at its full length
    # at once, so at 20,001 samples the two runs read about 42 and 74 bytes
    # a sample
    import tracemalloc

    tracked = [catalog.build(name) for name in names]
    tracemalloc.start()
    try:
        traj = integrate(U, START, SimConfig(h=5e-5, t_end=1.0, k2=1.0), tracked)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(traj) == 20001
    assert peak / len(traj) < bound


def test_trajectory_table_round_trips():
    cfg = SimConfig(h=0.25, t_end=0.5, k2=1.0, k3=0.5)
    traj = integrate(U, START, cfg, [catalog.build("H_U")])
    table = format_trajectory(traj)
    lines = table.strip().split("\n")
    assert lines[0].split("\t") == ["t", "x", "y", "px", "py", "H_U"]
    assert len(lines) == 1 + len(traj)
    row = lines[1].split("\t")
    assert float(row[0]) == 0.0
    assert float(row[2]) == START[1]
    H0 = float(row[5])
    assert H0 == catalog.build("H_U").expression.evaluate(*START, k2=1.0, k3=0.5)


# a potential with no force, so a run's state moves in straight lines
NO_FORCE = catalog.CatalogEntry("zero", "potential", PhasePoly.zero(), "no force")


def sampled(polys, point, k=None):
    """Sample 0 of each polynomial tracked through one step of h = 1 from
    point under no force, at the parameters k: what the generated run
    function stores at the point itself.  Any y > 0 clears the guard
    y_min = 5e-324."""
    tracked = [catalog.CatalogEntry(f"P{i}", "integral", p, "tracked")
               for i, p in enumerate(polys)]
    cfg = SimConfig(h=1.0, t_end=1.0, y_min=5e-324, **(k or {}))
    return tuple(column[0] for column in integrate(NO_FORCE, point, cfg, tracked).columns[5:])


def run_sources(monkeypatch):
    """The list that every later run's generated source is appended to, as
    dynamics passes it to exec."""
    sources = []

    def recording_exec(source, namespace):
        sources.append(source)
        exec(source, namespace)

    # a module global shadows the builtin for dynamics alone
    monkeypatch.setattr(dynamics, "exec", recording_exec, raising=False)
    return sources


def test_a_run_tracking_nothing_never_calls_an_invariant_evaluator(monkeypatch):
    folded, emitted = [], []
    real_fold, real_statements = PhasePoly._fold, dynamics._statements

    def fold(self, *k):
        folded.append(self)
        return real_fold(self, *k)

    def statements(terms, targets, *rest):
        lines = real_statements(terms, targets, *rest)
        emitted.append((tuple(targets), lines))
        return lines

    monkeypatch.setattr(PhasePoly, "_fold", fold)
    monkeypatch.setattr(dynamics, "_statements", statements)
    sources = run_sources(monkeypatch)
    traj = integrate(U, START, SimConfig(h=0.01, t_end=1.0, k2=1.0))
    assert len(folded) == 2  # the two force components only
    assert [(targets, bool(lines)) for targets, lines in emitted] == \
        [(("ax", "ay"), True), ((), False)]
    (source,) = sources
    signature, *body = source.split("\n")
    assert signature == "def run(x, y, px, py, s_x, s_y, s_px, s_py):"
    # the force's sums are the only sums, and the state the only stores
    assert {line.split(" = ")[0].strip() for line in body if line.endswith(" = 0.0")} == \
        {"ax", "ay"}
    assert {line.split(" = ")[0].strip() for line in body if "[i] = " in line} == \
        {"s_x[i]", "s_y[i]", "s_px[i]", "s_py[i]"}
    assert traj.names == ("t", "x", "y", "px", "py") and len(traj.columns) == 5
    assert len(traj) == 101


@pytest.fixture(scope="module")
def long_runs():
    """Tables of several thousand rows, tracking U's four invariants and
    tracking none, each with its text as one process formats it."""
    tracked = [catalog.build(name) for name in catalog.invariants("U")]
    cfg = SimConfig(h=1e-3, t_end=4.0, k2=1.0)
    runs = [integrate(U, START, cfg, tracked), integrate(U, START, cfg)]
    return [(traj, dynamics._format_in_blocks(traj, 1)) for traj in runs]


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("processes", [2, 3])
def test_a_table_in_blocks_is_the_table_in_one(long_runs, processes):
    for traj, text in long_runs:
        assert len(traj) == 4001 and len(traj.columns) in (9, 5)
        assert dynamics._format_in_blocks(traj, processes) == text
        assert format_trajectory(traj) == text
    _assert_no_child_left()


def test_a_table_takes_a_process_per_usable_cpu_and_never_more():
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert dynamics._processes(10**9) == (cpus if hasattr(os, "fork") else 1)
    # the golden tables, of at most 107 rows of nine floats, stay in one process
    assert dynamics._processes(107 * 9) == dynamics._processes(0) == 1
    assert dynamics._processes(2 * dynamics._FLOATS_PER_PROCESS - 1) == 1


def test_a_table_without_fork_is_the_same_text(long_runs, monkeypatch):
    monkeypatch.delattr(os, "fork", raising=False)
    assert dynamics._processes(10**9) == 1
    for traj, text in long_runs:
        assert format_trajectory(traj) == text


def test_a_second_thread_keeps_the_table_in_one_process(long_runs, monkeypatch):
    def fork():
        raise AssertionError("forked while a second thread ran")

    monkeypatch.setattr(os, "fork", fork)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        for traj, text in long_runs:
            assert format_trajectory(traj) == text
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_a_block_is_formatted_here_when_its_child_fails(long_runs, monkeypatch):
    parent, real = os.getpid(), dynamics._format_rows

    def format_rows(*args):
        if os.getpid() != parent:
            raise RuntimeError("a child that fails")
        return real(*args)

    monkeypatch.setattr(dynamics, "_format_rows", format_rows)
    for traj, text in long_runs:
        assert dynamics._format_in_blocks(traj, 3) == text
    _assert_no_child_left()


def test_a_reader_that_fails_ends_every_child(long_runs, monkeypatch):
    # each child's block outgrows its pipe's buffer, so a child writes until
    # it is read or its pipe has no reader left; a read end that a later
    # child still held would keep an earlier one writing, and this call
    # waiting for it, so an alarm ends the wait as a failure
    def read(fd, size):
        raise RuntimeError("a reader that fails")

    def stuck(signum, frame):
        raise TimeoutError("a child is still writing")

    monkeypatch.setattr(os, "read", read)
    previous = signal.signal(signal.SIGALRM, stuck)
    signal.alarm(30)
    try:
        with pytest.raises(RuntimeError, match="a reader that fails"):
            dynamics._format_in_blocks(long_runs[0][0], 3)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    _assert_no_child_left()


def test_a_block_is_formatted_here_when_no_process_can_be_forked(long_runs, monkeypatch):
    def fork():
        raise BlockingIOError("no process to be had")

    monkeypatch.setattr(os, "fork", fork)
    for traj, text in long_runs:
        assert dynamics._format_in_blocks(traj, 3) == text


def test_a_block_is_formatted_here_when_no_pipe_can_be_opened(long_runs, monkeypatch):
    real, calls = os.pipe, []

    def pipe():  # the first pipe opens, the second does not
        calls.append(None)
        if len(calls) % 2 == 0:
            raise OSError(24, "Too many open files")
        return real()

    monkeypatch.setattr(os, "pipe", pipe)
    for traj, text in long_runs:
        assert dynamics._format_in_blocks(traj, 3) == text
    _assert_no_child_left()


def test_domain_error_type_hierarchy():
    assert issubclass(TrajectoryAborted, DomainError)
    assert issubclass(DomainError, ValueError)


# the settings of the golden simulate runs in tests/test_cli.py
GOLDEN_SETTINGS = [
    ("V_h3_k", (0.5, 1.0, 0.5, 6.0), dict(k1=0.5, k2=0.25, k3=0.125)),
    ("U", START, dict(k2=1.0)),
]


@pytest.mark.parametrize("integrator", ["leapfrog2", "composed4"])
@pytest.mark.parametrize("name, start, k", GOLDEN_SETTINGS, ids=["V_h3_k", "U"])
def test_sampled_invariants_are_the_evaluate_loop_values(name, start, k, integrator):
    cfg = SimConfig(h=0.01, t_end=1.0, integrator=integrator, **k)
    entries = [catalog.build(n) for n in catalog.invariants(name)]
    traj = integrate(catalog.build(name), start, cfg, entries)
    assert traj.names[5:] == tuple(e.name for e in entries)
    points = list(zip(*traj.columns[1:5]))
    reference = [[e.expression.evaluate(*p, **k) for p in points] for e in entries]
    assert [list(map(repr, column)) for column in traj.columns[5:]] == \
        [list(map(repr, column)) for column in reference]
    drifts = []
    for e, column in zip(entries, reference):
        worst = 0.0
        for value in column:
            dev = abs(value - column[0])
            if dev > worst:
                worst = dev
        drifts.append(InvariantDrift(e.name, column[0], worst / max(abs(column[0]), 1.0)))
    report = drift_report(traj)
    assert report.samples == len(traj) == 101
    assert repr(report.invariants) == repr(tuple(drifts))


def test_a_trajectory_keeps_its_sampled_values_read_only():
    tracked = [catalog.build(name) for name in catalog.invariants("U")]
    traj = integrate(U, START, SimConfig(h=0.25, t_end=0.5, k2=1.0), tracked)
    # each invariant column, like each state column, is a read-only view of
    # its own array
    for column in traj.columns[5:]:
        with pytest.raises(TypeError):
            column[0] = 0.0
    assert len(traj.columns) == 9


def test_a_vector_field_cannot_be_tracked():
    with pytest.raises(ValueError, match="Gamma_H is a vector field and cannot be tracked"):
        integrate(U, START, SimConfig(h=0.25, t_end=0.5), [catalog.build("Gamma_H")])


def _reference_columns(potential, start, cfg, invariants=()):
    """The columns of a run as a plain kick-drift-kick loop records them: the
    compiled force components called at each substep, and once every step
    is taken, each invariant's compiled loop called at each sample in turn.
    It raises what integrate raises, in the same order."""
    x, y, px, py = map(float, start)
    k = cfg.k1, cfg.k2, cfg.k3
    fx, fy = ((-potential.expression.diff(v)).compile(*k) for v in ("x", "y"))
    h, y_min = cfg.h, cfg.y_min
    weights = ((1.0,) if cfg.integrator == "leapfrog2"
               else (dynamics._C1, dynamics._C2, dynamics._C1))
    n_steps = round(cfg.t_end / h)
    ax, ay = fx(x, y, px, py), fy(x, y, px, py)
    state = [[x], [y], [px], [py]]
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
            ax, ay = fx(x, y, px, py), fy(x, y, px, py)
            px += 0.5 * dt * ax
            py += 0.5 * dt * ay
        if not (isfinite(x) and isfinite(y) and isfinite(px) and isfinite(py)):
            raise DomainError(f"the state is not finite at t = {t}: "
                              f"(x, y, px, py) = {(x, y, px, py)}")
        for column, value in zip(state, (x, y, px, py)):
            column.append(value)
    evaluators = [e.expression.compile(*k) for e in invariants]
    rows = [[evaluate(*point) for evaluate in evaluators] for point in zip(*state)]
    return [[i * h for i in range(n_steps + 1)], *state, *map(list, zip(*rows))]


def _run_outcome(run, *args):
    """repr of every value of every column, or the type and text of the error."""
    try:
        return [list(map(repr, column)) for column in run(*args)]
    except (ValueError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)


def _random_setting(name):
    """A start and rational parameters drawn from a seed of the potential's own."""
    rng = random.Random(f"reference {name}")
    start = (rng.uniform(-1, 1), rng.uniform(1, 2), rng.uniform(-1, 1), rng.uniform(-1, 1))
    k = {f"k{i}": float(Fraction(rng.randint(-9, 9), rng.randint(1, 9))) for i in (1, 2, 3)}
    return name, start, k


REFERENCE_SETTINGS = [
    *(pytest.param(*setting, 1.0, id=f"golden-{setting[0]}") for setting in GOLDEN_SETTINGS),
    *(pytest.param(*_random_setting(name), 0.25, id=f"random-{name}")
      for name in catalog.names() if catalog.build(name).kind == "potential"),
]


@pytest.mark.parametrize("integrator", ["leapfrog2", "composed4"])
@pytest.mark.parametrize("name, start, k, t_end", REFERENCE_SETTINGS)
def test_a_run_records_what_the_reference_loop_records(name, start, k, t_end, integrator):
    cfg = SimConfig(h=0.005, t_end=t_end, integrator=integrator, **k)
    entries = [catalog.build(n) for n in catalog.invariants(name)]
    args = (catalog.build(name), start, cfg, entries)
    columns = _run_outcome(lambda *a: integrate(*a).columns, *args)
    assert len(columns) == 5 + len(entries)  # the run took every step
    assert columns == _run_outcome(_reference_columns, *args)


# runs that end in each error a run can raise, the invariants' behind the steps'
REFERENCE_ERRORS = [
    pytest.param(START, dict(k2=1.0, t_end=10.0), ("H_U",), id="y-guard"),
    pytest.param((0, 1, 0, 0), dict(k2=1e308), ("H_U",), id="state-blow-up"),
    pytest.param((0, 1, 0, 0), dict(k3=1e300), ("H_U",), id="force-overflow"),
    pytest.param((0, 1, 1e52, 0), {}, catalog.invariants("U"), id="invariant-overflow"),
    # py**2 overflows at sample 1, where the state is still finite
    pytest.param((0, 1, 0, 0), dict(k3=1e200), ("H_U",),
                 id="invariant-overflow-after-the-first-sample"),
    pytest.param((0, 1e-5, 1e52, -1), {}, catalog.invariants("U"),
                 id="y-guard-before-invariant-overflow"),
    pytest.param(START, dict(k1=1e200, k2=1.0), ("H_U", "J_h2_4_k"),
                 id="invariant-parameter-overflow"),
    pytest.param(START, dict(k1=1e200, k2=1.0, t_end=10.0), ("J_h2_4_k",),
                 id="y-guard-before-invariant-parameter-overflow"),
    # leapfrog2 alone: composed4's substeps of this step are past the float
    # range, which SimConfig refuses
    pytest.param(START, dict(k2=1.0, h=1.5e308, t_end=1.5e308), ("H_U",),
                 id="substeps-too-long-for-a-float"),
]


@pytest.mark.parametrize("start, settings, names, integrator", [
    pytest.param(*row.values, integrator, id=f"{row.id}-{integrator}")
    for row in REFERENCE_ERRORS for integrator in dynamics.INTEGRATORS
    if (row.id, integrator) != ("substeps-too-long-for-a-float", "composed4")])
def test_a_run_fails_as_the_reference_loop_fails(start, settings, names, integrator):
    cfg = SimConfig(**{"h": 1e-3, "t_end": 0.01, **settings, "integrator": integrator})
    args = (U, start, cfg, [catalog.build(n) for n in names])
    outcome = _run_outcome(lambda *a: integrate(*a).columns, *args)
    assert outcome == _run_outcome(_reference_columns, *args)
    assert outcome[0] in ("TrajectoryAborted", "DomainError")
