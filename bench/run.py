"""Benchmark of holtkit's exact verification and numeric corroboration.

    python3 bench/run.py --workload {paper_suite,ladder,orbit,all}
                         --seed N --seconds S --trace {0,1}

With --trace 0 it measures the end-to-end metrics of BENCHMARK.json with
no tracing installed; with --trace 1 it makes a separate traced run that
reports the per-layer metrics and the tracing overhead.  End-to-end times
are calibrated: each sample is rescaled to a machine on which a fixed
stdlib reference loop takes REFERENCE_S, because the speed of a shared
machine drifts by up to 1.6x within minutes.  One caller sends one request
at a time (a closed loop), and at most one child process runs at a time.
Every output is checked; a wrong one counts as failed.

Stdout: provenance, one `name value unit` line per metric, and as the last
line one JSON object with the keys correct, attempted, failed and metrics.
Exit code 0 when every output was right, 1 when any was wrong, 2 when the
program or BENCHMARK.json is missing.  See bench/README.md for why each
workload exists and which layer metric should move which end-to-end one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_RUNS = 25  # fresh set-up processes per run, after one untimed
COLD_RUNS = 13  # cold passes per run
CLI_RUNS = 5  # interpreter and import processes per traced run
REFERENCE_N = 4000  # iterations of the reference loop
REFERENCE_S = 0.01  # its duration on the machine calibrated times refer to
SETUP_CODE = ("import time; t0 = time.perf_counter(); import holtkit; "
              "from holtkit import catalog; "
              "[catalog.build(n) for n in catalog.names()]; "
              "print(time.perf_counter() - t0)")
NOTE = ("CPUs are not pinned and clock speeds are not fixed on this machine; "
        "compare medians over repeated runs, never single values")
# end-to-end metrics under the names the workload's users know them by
ALIASES = {
    "paper_suite": {"warm_s": "verify_s", "cold_s": "verify_cold_s"},
    "orbit": {"warm_s": "simulate_s"},
}


@dataclass(frozen=True)
class Child:
    wall_s: float
    returncode: int
    peak_rss_mb: float
    stdout: bytes


class ChildRunner:
    """Runs `python ARGS` from the checkout root and waits for it to end."""

    def __init__(self, workdir: Path):
        self.stdout_path = workdir / "child.out"
        paths = [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))

    def __call__(self, args: list[str]) -> Child:
        with open(self.stdout_path, "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=ROOT,
                                    env=self.env, stdout=out)
            # wait4 gives this child's own peak RSS (ru_maxrss, KiB on Linux)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(wall, proc.returncode, usage.ru_maxrss / 1024.0,
                     self.stdout_path.read_bytes())


def git_commit() -> str:
    try:
        res = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    lines = res.stdout.split()
    if res.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int) -> dict:
    return {"commit": git_commit(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu": cpu_model(), "seed": seed, "note": NOTE}


def reference_loop() -> float:
    """Seconds taken by a fixed loop like the kernel's: Fractions summed into a dict."""
    t0 = time.perf_counter()
    acc: dict = {}
    for i in range(REFERENCE_N):
        key = (i % 11, i % 7, i % 3)
        acc[key] = acc.get(key, 0) + Fraction(i, 7)
    return time.perf_counter() - t0


class Calibration:
    """Rescales each sample by the machine's speed around it.

    The reference loop runs after every sample; a sample is scaled by the
    mean of the loop times just before and just after it.
    """

    def __init__(self):
        self.last = reference_loop()

    def __call__(self, raw_s: float) -> float:
        before, self.last = self.last, reference_loop()
        return raw_s * 2.0 * REFERENCE_S / (before + self.last)


def median_of(samples: list[dict[str, float]], key: str) -> float:
    return statistics.median(s[key] for s in samples)


def end_to_end(workload, seconds: float, run_child, tally) -> tuple[dict, list[str]]:
    """Warm passes in a closed loop for `seconds`, with the set-up processes
    and cold passes spread evenly over the same window."""
    child = run_child(["-c", SETUP_CODE])  # untimed: writes the bytecode caches
    tally.record(child.returncode == 0, f"set-up process exit {child.returncode}")
    workload.warm_pass()  # warm-up, checked but not timed
    calibrate = Calibration()
    passes, raw_warm, setup_s, colds, cold_s = [], [], [], [], []
    setup_runs = 0
    start = time.perf_counter()
    while True:
        share = min((time.perf_counter() - start) / seconds, 1.0)
        if setup_runs < SETUP_RUNS * share:
            setup_runs += 1
            child = run_child(["-c", SETUP_CODE])
            tally.record(child.returncode == 0, f"set-up process exit {child.returncode}")
            if child.returncode == 0:
                setup_s.append(calibrate(float(child.stdout)))
        elif len(colds) < COLD_RUNS * share:
            colds.append(workload.cold_pass(run_child))
            cold_s.append(calibrate(colds[-1].wall_s))
        elif share < 1.0 or len(passes) < 10:
            stages = workload.warm_pass()
            raw = sum(stages.values())
            scale = calibrate(raw) / raw
            passes.append({k: v * scale for k, v in stages.items()})
            raw_warm.append(raw)
        else:
            break
    warm_s = [sum(p.values()) for p in passes]
    p90 = statistics.quantiles(warm_s, n=10)[-1]
    metrics = {
        "setup_s": statistics.median(setup_s),
        "warm_s": statistics.median(warm_s),
        "cold_s": statistics.median(cold_s),
        "peak_rss_mb": statistics.median(c.peak_rss_mb for c in colds),
    }
    notes = [f"times are calibrated to a reference loop of {REFERENCE_S} s; "
             f"uncalibrated warm_s {statistics.median(raw_warm):.6g} s, "
             f"cold_s {statistics.median(c.wall_s for c in colds):.6g} s",
             f"setup_s: median of {len(setup_s)} fresh processes",
             f"warm_s: median of {len(warm_s)} passes; their 90th percentile, "
             f"warm_p90_s, is {p90:.6g} s with {sum(w > p90 for w in warm_s)} "
             "passes beyond it (printed only: its spread across runs is too wide "
             "for a bound)",
             f"cold_s, peak_rss_mb: median of {len(colds)} cold passes"]
    for stage in passes[0]:
        notes.append(f"stage {stage}: median {median_of(passes, stage):.6g} s")
    for metric, alias in ALIASES.get(workload.name, {}).items():
        notes.append(f"{alias} = {metric} = {metrics[metric]:.6g} s")
    return metrics, notes


def traced(workload, seconds: float, run_child) -> tuple[dict, list[str]]:
    from tracing import Tracer  # only a traced run loads the wrappers

    workload.warm_pass()
    tracer = Tracer()
    per_pass, untraced_s, traced_s = [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not per_pass:
        # untraced and traced passes alternate, so both see the same machine
        untraced_s.append(sum(workload.warm_pass().values()))
        tracer.reset()
        tracer.install()
        try:
            traced_s.append(sum(workload.warm_pass().values()))
        finally:
            tracer.remove()
        per_pass.append(tracer.layer_metrics())

    # counts are exact and identical per pass; times are medians over passes
    metrics = {k: v if isinstance(v, int) else median_of(per_pass, k)
               for k, v in per_pass[0].items()}
    untraced, traced = statistics.median(untraced_s), statistics.median(traced_s)
    metrics["trace.overhead_s"] = traced - untraced
    metrics["trace.overhead_ratio"] = traced / untraced - 1.0

    interp = statistics.median(run_child(["-c", "pass"]).wall_s for _ in range(CLI_RUNS))
    imported = statistics.median(run_child(["-c", "import holtkit.cli"]).wall_s
                                 for _ in range(CLI_RUNS))
    metrics["cli.interpreter_s"] = interp
    metrics["cli.import_s"] = imported - interp
    notes = [f"per pass: {len(per_pass)} traced passes alternating with untraced ones; "
             f"untraced {untraced:.6g} s, traced {traced:.6g} s"]
    return metrics, notes


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict,
                 workdir: Path) -> tuple[dict, "Tally"]:
    from workloads import WORKLOADS, Tally

    tally = Tally()
    run_child = ChildRunner(workdir)
    workload = WORKLOADS[name](seed, workdir, tally)
    if trace:
        measured, notes = traced(workload, seconds, run_child)
        wanted = spec["per_layer"]
    else:
        measured, notes = end_to_end(workload, seconds, run_child, tally)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"== {name} (seed {seed}, {'traced' if trace else 'end to end'})")
    for m, v in metrics.items():
        print(f"{m:<34} {v['value']:<24.10g} {v['unit']}")
    print(f"{'fail_ratio':<34} {tally.failed / max(tally.attempted, 1):<24.10g} "
          f"ratio ({tally.failed} of {tally.attempted} operations)")
    for line in notes:
        print(f"  {line}")
    return metrics, tally


def main(argv: list[str] | None = None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "holtkit" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no holtkit sources under {SRC} or no {spec_path.name}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(SRC), str(BENCH)]
    print("provenance " + json.dumps(provenance(args.seed)))
    chosen = names if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_work-") as tmp:
        for name in chosen:
            got, tally = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                      spec, Path(tmp))
            attempted += tally.attempted
            failed += tally.failed
            if len(chosen) == 1:
                metrics = got
            else:
                metrics.update({f"{name}/{m}": v for m, v in got.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
