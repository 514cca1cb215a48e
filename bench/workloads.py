"""The three benchmark workloads: inputs drawn from a seed, one pass, checks.

Each workload object builds its inputs in the constructor (untimed) and
offers two passes:

- warm_pass() runs the user operation inside this process and returns the
  wall time of each stage, in seconds;
- cold_pass(run_child) runs the same operation in fresh processes, one at a
  time, and returns their summed wall time and highest peak RSS.

Every output is checked for exactness; each checked operation is recorded
in a Tally, so a wrong answer is counted, never silently timed.

Run as a script (`python bench/workloads.py ladder SEED`), this file is the
fresh process of the ladder's cold pass: it prints every ladder bracket in
canonical text, one per line.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

# modules, not their functions, are imported: a traced run swaps the
# functions inside these modules for timing wrappers
from holtkit import K2, catalog, cli, parsing, phasepoly, verify

BENCH = Path(__file__).resolve().parent


class Tally:
    """Attempted and failed operations; failures are reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)


@dataclass(frozen=True)
class ColdResult:
    wall_s: float
    peak_rss_mb: float


class PaperSuite:
    """The paper's 22 exact identities: warm full_suite() and cold `holtkit verify`."""

    name = "paper_suite"

    def __init__(self, seed: int, workdir: Path, tally: Tally):
        # the paper's identities are fixed: the seed draws nothing here
        self.tally = tally
        self.expected = (BENCH / "verify_expected.txt").read_text()

    def warm_pass(self) -> dict[str, float]:
        t0 = time.perf_counter()
        report = verify.full_suite()
        elapsed = time.perf_counter() - t0
        self.tally.record(report.all_passed and report.render_text() == self.expected,
                          "full_suite() report differs from the 22/22 text")
        return {"verify_s": elapsed}

    def cold_pass(self, run_child) -> ColdResult:
        child = run_child(["-m", "holtkit", "verify"])
        self.tally.record(child.returncode == 0 and child.stdout == self.expected.encode(),
                          f"`holtkit verify` exit {child.returncode} or stdout differs")
        return ColdResult(child.wall_s, child.peak_rss_mb)


LADDER_A = range(1, 5)  # powers of K3_4
LADDER_B = range(1, 4)  # powers of K2_3
# numerators and denominators of the seed-drawn (k2, k3): a narrow range
# keeps coefficient bit lengths, and so the run time, alike across seeds
_RATIONAL_PARTS = (13, 17, 19, 23)


def draw_rational_k(seed: int) -> tuple[Fraction, Fraction]:
    """Seed-drawn nonzero, non-integer rationals (k2, k3)."""
    rng = random.Random(seed)
    values = []
    for _ in range(2):
        num, den = rng.sample(_RATIONAL_PARTS, 2)
        values.append(Fraction(rng.choice((-1, 1)) * num, den))
    return values[0], values[1]


def ladder_operands(k2: Fraction | None = None, k3: Fraction | None = None):
    """(a, b, K3_4^a, K2_3^b) for every rung, exactly specialized if k is given."""
    K34 = catalog.build("K3_4").expression.substitute_params(k2=k2, k3=k3)
    K23 = catalog.build("K2_3").expression.substitute_params(k2=k2, k3=k3)
    first = {a: K34**a for a in LADDER_A}
    second = {b: K23**b for b in LADDER_B}
    return [(a, b, first[a], second[b]) for a in LADDER_A for b in LADDER_B]


def ladder_brackets(operands):
    return [phasepoly.poisson_bracket(A, B) for _, _, A, B in operands]


class Ladder:
    """Scaled exact brackets {K3_4^a, K2_3^b}, symbolic and at rational k."""

    name = "ladder"

    def __init__(self, seed: int, workdir: Path, tally: Tally):
        self.seed = seed
        self.tally = tally
        self.k2, self.k3 = draw_rational_k(seed)
        self.symbolic = ladder_operands()
        self.rational = ladder_operands(self.k2, self.k3)
        self.expected = (self._leibniz(self.symbolic, K2)
                         + self._leibniz(self.rational, self.k2))

    @staticmethod
    def _leibniz(operands, k2):
        """{K3_4^a, K2_3^b} = 108*a*b*k2^3 * K3_4^(a-1) * K2_3^(b-1)."""
        first = {a: A for a, b, A, _ in operands if b == 1}
        second = {b: B for a, b, _, B in operands if a == 1}
        out = []
        for a, b, _, _ in operands:
            value = 108 * a * b * k2**3
            if a > 1:
                value = value * first[a - 1]
            if b > 1:
                value = value * second[b - 1]
            out.append(value)
        return out

    def _check(self, results, what: str) -> None:
        rungs = [(a, b) for a, b, _, _ in self.symbolic] * 2
        for (a, b), got, want in zip(rungs, results, self.expected):
            self.tally.record(got == want, f"{what} {{K3_4^{a}, K2_3^{b}}} "
                              "differs from the Leibniz closed form")

    def warm_pass(self) -> dict[str, float]:
        t0 = time.perf_counter()
        symbolic = ladder_brackets(self.symbolic)
        t1 = time.perf_counter()
        rational = ladder_brackets(self.rational)
        t2 = time.perf_counter()
        results = symbolic + rational
        parsed = [parsing.parse_expression(r.render()) for r in results]
        t3 = time.perf_counter()
        self._check(results, "bracket")
        for r, back in zip(results, parsed):
            self.tally.record(back == r, "parse(render(r)) != r")
        return {"ladder_symbolic_s": t1 - t0, "ladder_rational_s": t2 - t1,
                "roundtrip_s": t3 - t2}

    def cold_pass(self, run_child) -> ColdResult:
        child = run_child([str(BENCH / "workloads.py"), "ladder", str(self.seed)])
        lines = child.stdout.decode().splitlines()
        self.tally.record(child.returncode == 0 and len(lines) == len(self.expected),
                          f"ladder process exit {child.returncode}, {len(lines)} lines")
        if len(lines) == len(self.expected):
            self._check([parsing.parse_expression(line) for line in lines], "cold bracket")
        return ColdResult(child.wall_s, child.peak_rss_mb)


ORBIT_H = 1e-3
ORBIT_T_END = 5.5
ORBIT_STEPS = round(ORBIT_T_END / ORBIT_H)
ORBIT_INVARIANTS = ("H_U", "K2_3", "K3_4", "K4_6")
# half-width of the start box around (0, 1, 0.5, 0.5); over a 3^4 grid
# plus 60 random points of this box, y stays above 0.70 up to t = 5.5
# (at half-width 0.02 a corner reaches the y = 0 wall at t = 5.43)
ORBIT_BOX = 0.01
# largest normalized drift seen over that box is 6.9e-4 (leapfrog2) and
# 6.0e-9 (composed4); the bounds leave a margin of more than ten
DRIFT_BOUND = {"leapfrog2": 1e-2, "composed4": 1e-7}


class Orbit:
    """`holtkit simulate` of U at k2 = 1 with both integrators."""

    name = "orbit"

    def __init__(self, seed: int, workdir: Path, tally: Tally):
        self.tally = tally
        rng = random.Random(seed)
        centre = (0.0, 1.0, 0.5, 0.5)
        start = [c + rng.uniform(-ORBIT_BOX, ORBIT_BOX) for c in centre]
        self.start = ",".join(repr(v) for v in start)
        self.table = workdir / "orbit.tsv"

    def argv(self, integrator: str) -> list[str]:
        # --start=... keeps a negative first coordinate from reading as an option
        return ["simulate", "--potential", "U", f"--start={self.start}",
                "--h", repr(ORBIT_H), "--t-end", repr(ORBIT_T_END), "--k2", "1",
                "--integrator", integrator, "--out", str(self.table)]

    def _check(self, integrator: str, returncode: int, stdout: str) -> None:
        what = f"simulate {integrator} from {self.start}"
        if returncode != 0:
            self.tally.record(False, f"{what}: exit {returncode}")
            return
        rows = self.table.read_text().splitlines()
        self.tally.record(len(rows) == ORBIT_STEPS + 2
                          and rows[-1].split("\t", 1)[0] == repr(ORBIT_T_END),
                          f"{what}: {len(rows) - 1} rows, want {ORBIT_STEPS + 1} "
                          f"ending at t = {ORBIT_T_END}")
        drifts = {}
        for line in stdout.splitlines():
            if line.startswith("drift "):
                name = line[len("drift "):line.index(":")]
                drifts[name] = float(line.rsplit("= ", 1)[1])
        bound = DRIFT_BOUND[integrator]
        self.tally.record(tuple(drifts) == ORBIT_INVARIANTS
                          and all(math.isfinite(d) and d < bound for d in drifts.values()),
                          f"{what}: drifts {drifts} not all finite and below {bound}")

    def warm_pass(self) -> dict[str, float]:
        out = {}
        for integrator in DRIFT_BOUND:
            buf = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(self.argv(integrator))
            out[f"{integrator}_s"] = time.perf_counter() - t0
            self._check(integrator, rc, buf.getvalue())
        return out

    def cold_pass(self, run_child) -> ColdResult:
        wall, rss = 0.0, 0.0
        for integrator in DRIFT_BOUND:
            child = run_child(["-m", "holtkit"] + self.argv(integrator))
            self._check(integrator, child.returncode, child.stdout.decode())
            wall += child.wall_s
            rss = max(rss, child.peak_rss_mb)
        return ColdResult(wall, rss)


WORKLOADS = {w.name: w for w in (PaperSuite, Ladder, Orbit)}


def _ladder_process(seed: int) -> None:
    k2, k3 = draw_rational_k(seed)
    for operands in (ladder_operands(), ladder_operands(k2, k3)):
        for r in ladder_brackets(operands):
            print(r.render())


if __name__ == "__main__":
    if sys.argv[1:2] != ["ladder"] or len(sys.argv) != 3:
        sys.exit("usage: workloads.py ladder SEED")
    _ladder_process(int(sys.argv[2]))
