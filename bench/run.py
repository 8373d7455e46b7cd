"""Benchmark of `spinloc localize`: end-to-end metrics and a traced per-layer run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The program runs from ``src/`` in child
processes, one at a time; all inputs and outputs go to ``.bench_work/``.
Human-readable lines (machine facts, output checks, metrics with units) come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, and
``.bench_work/<workload>/result.json`` keeps it with the raw per-run values.

``--trace 0`` measures the end-to-end metrics (END_TO_END): the median of
``setup_s`` over SETUP_REPEATS interpreter starts, then timed ``localize``
runs repeated until ``--seconds`` have passed (at least one), reporting the
median wall time and peak RSS; repeated runs must write identical reports.
``--trace 1`` runs ``localize`` once untraced and once under
``bench/tracer.py``, requires identical reports from the two, and derives
the per-layer metrics (PER_LAYER) from the spans.

Workloads (why each was chosen). Each generates a truth file, simulates its
measurements with ``spinloc simulate`` at DEFAULT_SEED, and localizes with
the workload seed as the Monte Carlo seed. The measurement noise stays
fixed because the Nelder-Mead point fit costs a different number of cost
calls for each noise draw (at 8000 samples on a 2-core 2.0 GHz Xeon, one
noise seed ran 8.3 s against 5.0 s for another, while Monte Carlo seeds
moved it by under 3 %), which would make the run time a property of the
seed rather than of the program.

* ``c1_free_40k``: the truth-example nucleus with three coil fields at
  40 000 samples, ``--fix-a-iso auto`` (frees a_iso: r at zero contact is
  about 8.6 A). The default unit of work; the Monte Carlo joint golden
  search dominates. Every run checks that the simulated input equals
  ``data/measurements_example.txt`` byte for byte, and, untimed, that the
  same input with ``--fix-a-iso 0`` gives the same report with
  ``--parallel 2`` as with ``--parallel 1``.
* ``survey_12x2k``: twelve nuclei at the first twelve points of the Halton
  sequence (bases 2, 3, 5, 7) over r 6-15 A, theta 5-85 deg, phi 0-360 deg
  and a_iso -20..20 kHz (the ranges of acceptance criterion 5), with the
  fields and noise of the truth example, at 2000 samples. The point fit
  dominates, the Monte Carlo runs both the free and the fixed a_iso search
  on small lane arrays, and some nuclei fail; failures are counted, not
  avoided.

A third workload, the C1 input with ``--fix-a-iso 0 --parallel 2``, was
left out: on a 2-core 2.0 GHz Xeon its wall time moved between 3.0 s and
4.6 s from one run to the next, and the quartile spread of its per-seed
medians over ten seeds was 0.28 of the median, wider than any bound the
benchmark may set.

A ``localize`` run is a failed operation unless it exits 0 with no failures
or 1 with failures listed in its report, prints no traceback and writes its
report.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from tracer import LAYERS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE_MEASUREMENTS = ROOT / "data" / "measurements_example.txt"

DEFAULT_SEED = 20260822
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150.0

# [fields] and [noise] of data/truth_example.txt
_TRUTH_COMMON = """\
[fields coil1]
B0_mT = 0.028 -0.056 9.502
dB_mT = -1.715 0.614 -1.547

[fields coil2]
B0_mT = 0.028 -0.056 9.502
dB_mT = 0.9 -1.4 0.3

[fields coil3]
B0_mT = 0.028 -0.056 9.502
dB_mT = -0.4 -1.1 1.0

[noise]
sigma_f_kHz = 0.1
sigma_f_rabi_kHz = 0.1
sigma_fp_kHz = 0.25
sigma_B_mT = 0.015
"""


@dataclass(frozen=True)
class Nucleus:
    label: str
    r_A: float
    theta_deg: float
    phi_deg: float
    a_iso_kHz: float


def _halton(i: int, base: int) -> float:
    f, x = 1.0, 0.0
    while i > 0:
        f /= base
        x += f * (i % base)
        i //= base
    return x


C1 = (Nucleus("C1", 8.3, 58.0, 238.0, 9.0),)
SURVEY = tuple(
    Nucleus(f"S{i:02d}", 6.0 + 9.0 * _halton(i, 2), 5.0 + 80.0 * _halton(i, 3),
            360.0 * _halton(i, 5), -20.0 + 40.0 * _halton(i, 7))
    for i in range(1, 13))


@dataclass(frozen=True)
class Workload:
    nuclei: tuple
    samples: int
    fix_a_iso: str


WORKLOADS = {
    "c1_free_40k": Workload(C1, 40_000, "auto"),
    "survey_12x2k": Workload(SURVEY, 2_000, "auto"),
}
# the C1 input with a_iso fixed, run untimed at --parallel 1 and 2
PARITY = Workload(C1, 40_000, "0")

END_TO_END = {"wall_s": "s", "samples_per_s": "1/s", "setup_s": "s",
              "peak_rss_mb": "MB", "nuclei_localized_frac": "frac",
              "samples_ok_frac": "frac", "phi_err_deg": "deg"}
PER_LAYER = {
    "cli.import_s": "s", "cli.self_s": "s",
    "fileio.load_s": "s", "fileio.write_s": "s", "fileio.bytes_written": "B",
    "extract.s": "s", "extract.calls": "count", "extract.failed": "count",
    "localize.fit_s": "s", "localize.fit_calls": "count",
    "localize.cost_calls": "count", "localize.cost_curve_s": "s",
    "dipole.invert_s": "s", "dipole.invert_lanes.montecarlo": "count",
    "dipole.invert_lanes.localize": "count",
    "montecarlo.self_s": "s", "montecarlo.evals_per_sample": "count",
    "montecarlo.lanes_per_s": "1/s", "montecarlo.histogram_s": "s",
    "montecarlo.failed_samples": "count",
    "montecarlo.phi_ci95_cover_frac": "frac",
    "trace.overhead_s": "s",
}


def truth_text(nuclei, seed: int) -> str:
    parts = ["kind = truth\nversion = 1\n"]
    for n in nuclei:
        parts.append(f"[nucleus {n.label}]\nr_A = {n.r_A!r}\n"
                     f"theta_deg = {n.theta_deg!r}\nphi_deg = {n.phi_deg!r}\n"
                     f"a_iso_kHz = {n.a_iso_kHz!r}\n")
    parts.append(_TRUTH_COMMON)
    parts.append(f"[options]\nseed = {seed}\n")
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# child processes

@dataclass
class Child:
    code: int
    wall_s: float
    peak_rss_mb: float
    stderr: str


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    # the program computes elementwise; keep BLAS from starting its own threads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args, log_stem: Path) -> Child:
    """Run one child to completion; wall time from spawn to exit."""
    with (open(f"{log_stem}.out", "wb") as out,
          open(f"{log_stem}.err", "wb") as err):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *map(str, args)], cwd=ROOT,
                                env=_child_env(), stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = Path(f"{log_stem}.err").read_text(errors="replace")
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0, stderr)


def spinloc_args(w: Workload, measurements: Path, seed: int, out: Path,
                 parallel: int = 1):
    return ["localize", measurements, "--samples", w.samples, "--seed", seed,
            "--parallel", parallel, "--fix-a-iso", w.fix_a_iso, "--out", out]


def simulate(nuclei, work: Path) -> Path:
    truth = work / "truth.txt"
    truth.write_text(truth_text(nuclei, DEFAULT_SEED))
    out = work / "input"
    child = run_child(["-m", "spinloc.cli", "simulate", truth, "--out", out],
                      work / "simulate")
    if child.code != 0:
        raise SystemExit(f"simulate failed with exit code {child.code}:\n"
                         f"{child.stderr}")
    return out / "measurements.txt"


# ---------------------------------------------------------------------------
# localize runs and output checks

@dataclass
class Run:
    child: Child
    out: Path
    report_bytes: bytes | None = None
    report: dict | None = None
    problems: list = field(default_factory=list)

    @property
    def valid(self) -> bool:
        return not self.problems


def check_run(child: Child, out: Path, labels) -> Run:
    run = Run(child, out)
    path = out / "report.json"
    if "Traceback (most recent call last)" in child.stderr:
        run.problems.append("traceback on stderr")
    if child.code not in (0, 1):
        run.problems.append(f"exit code {child.code}")
    if not path.is_file():
        run.problems.append("no report.json")
        return run
    run.report_bytes = path.read_bytes()
    try:
        run.report = json.loads(run.report_bytes)
        nuclei, failures = run.report["nuclei"], run.report["failures"]
        expected_rows = {label: e["n_samples"] - e["n_failed"]
                         for label, e in nuclei.items()}
    except (ValueError, KeyError, TypeError) as exc:
        run.problems.append(f"report.json unreadable: {exc!r}")
        return run
    if (child.code == 1) != bool(failures):
        run.problems.append(f"exit code {child.code} with "
                            f"{len(failures)} failures listed")
    if set(nuclei) & set(failures) or set(nuclei) | set(failures) != set(labels):
        run.problems.append("nuclei and failures do not cover the labels")
    for label, expected in expected_rows.items():
        scatter = out / f"scatter_{label}.tsv"
        rows = (sum(1 for line in scatter.open() if not line.startswith("#"))
                if scatter.is_file() else -1)
        if rows != expected:
            run.problems.append(f"scatter_{label}.tsv has {rows} rows, "
                                f"expected {expected}")
    return run


def _circ_deg(a: float, b: float) -> float:
    return abs((a - b + 180.0) % 360.0 - 180.0)


def quality(report: dict, w: Workload) -> dict:
    """Failure counts and accuracy against the truth, from one report."""
    nuclei = report["nuclei"]
    truth = {n.label: n for n in w.nuclei}
    n_samples = sum(e["n_samples"] for e in nuclei.values())
    n_failed = sum(e["n_failed"] for e in nuclei.values())
    mc_failed = sum(int(m.group(1)) for m in (
        re.match(r"(\d+)/\d+ Monte Carlo samples", msg)
        for msg in report["failures"].values()) if m)
    errs, covered = [], 0
    for label, e in nuclei.items():
        true_phi = truth[label].phi_deg
        errs.append(_circ_deg(e["point"]["phi_deg"], true_phi))
        lo, hi = e["ci"]["phi_deg"]["95"]
        covered += any(lo <= true_phi + k * 360.0 <= hi for k in (-1, 0, 1))
    return {
        "nuclei_attempted": len(w.nuclei),
        "nuclei_localized": len(nuclei),
        "samples_ok": n_samples - n_failed,
        "samples": n_samples,
        "failed_samples": n_failed + mc_failed,
        "phi_err_deg": statistics.median(errs) if errs else 0.0,
        "phi_ci95_cover_frac": covered / len(nuclei) if nuclei else 0.0,
    }


# ---------------------------------------------------------------------------
# per-layer metrics from spans

@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    caller: str
    t0: float
    t1: float
    raised: bool
    count: int | None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def layer_metrics(trace: dict, report: dict, quality_: dict,
                  wall_traced: float, wall_untraced: float) -> dict:
    spans = [Span(*s) for s in trace["spans"]]
    by_id = {s.sid: s for s in spans}
    children: dict[int, list] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)

    def self_time(s: Span) -> float:
        return s.dur - _covered([(c.t0, c.t1) for c in children.get(s.sid, [])],
                                s.t0, s.t1)

    def outermost(s: Span) -> bool:
        parent = by_id.get(s.parent)
        return parent is None or parent.layer != s.layer

    def under(s: Span, name: str) -> bool:
        while s is not None:
            if s.name == name:
                return True
            s = by_id.get(s.parent)
        return False

    def named(*names):
        return [s for s in spans if s.name in names]

    def total(ss):
        return sum(s.dur for s in ss)

    fileio_top = [s for s in spans if s.layer == "fileio" and outermost(s)]
    extract_top = [s for s in spans if s.layer == "extract" and outermost(s)]
    invert_top = [s for s in named("dipole.invert_dipole", "dipole.invert_many")
                  if outermost(s)]
    lanes = {caller: sum(s.count or 0 for s in named("dipole.invert_many")
                         if s.caller == caller)
             for caller in ("montecarlo", "localize")}
    propagate = named("montecarlo.propagate")
    fits_in_mc = [s for s in named("localize.fit_azimuth")
                  if s.caller == "montecarlo"]
    mc_solve_s = total(propagate) - total(fits_in_mc)
    mc_samples = report["mc"]["n_samples"] * len(propagate)
    return {
        "cli.import_s": trace["import_s"],
        "cli.self_s": sum(self_time(s) for s in spans if s.layer == "cli"),
        "fileio.load_s": total(s for s in fileio_top if ".load_" in s.name),
        "fileio.write_s": total(s for s in fileio_top if ".load_" not in s.name),
        "fileio.bytes_written": sum(s.count or 0 for s in fileio_top),
        "extract.s": total(extract_top),
        "extract.calls": len(extract_top),
        "extract.failed": sum(s.raised for s in extract_top),
        "localize.fit_s": total(s for s in named("localize.fit_azimuth")
                                if outermost(s)),
        "localize.fit_calls": len(named("localize.fit_azimuth")),
        "localize.cost_calls": len(named("localize.sum_sq_xi")),
        "localize.cost_curve_s": total(named("localize.cost_curve")),
        "dipole.invert_s": total(invert_top),
        "dipole.invert_lanes.montecarlo": lanes["montecarlo"],
        "dipole.invert_lanes.localize": lanes["localize"],
        "montecarlo.self_s": sum(
            self_time(s) for s in spans
            if s.layer == "montecarlo" and not under(s, "montecarlo.histogram")),
        "montecarlo.evals_per_sample": (lanes["montecarlo"] / mc_samples
                                        if mc_samples else 0.0),
        "montecarlo.lanes_per_s": (lanes["montecarlo"] / mc_solve_s
                                   if mc_solve_s > 0 else 0.0),
        "montecarlo.histogram_s": total(named("montecarlo.histogram")),
        "montecarlo.failed_samples": quality_["failed_samples"],
        "montecarlo.phi_ci95_cover_frac": quality_["phi_ci95_cover_frac"],
        "trace.overhead_s": wall_traced - wall_untraced,
    }


# ---------------------------------------------------------------------------
# entry point

def machine_facts() -> dict:
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
            "src_lines": src_lines}


class Invocation:
    """One invocation: a workload, its seed, its input and every run made."""

    def __init__(self, workload: str, seed: int):
        self.name = workload
        self.w = WORKLOADS[workload]
        self.seed = seed
        self.work = WORK / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.measurements = simulate(self.w.nuclei, self.work)
        self.runs: list[Run] = []
        self.setups: list[Child] = []
        self.checks: dict[str, bool] = {}
        if self.w.nuclei == C1:
            self.checks["default_seed_reproduces_example"] = (
                self.measurements.read_bytes()
                == REFERENCE_MEASUREMENTS.read_bytes())

    def localize(self, name: str, w: Workload | None = None, parallel: int = 1,
                 tracer_args=()) -> Run:
        w = w or self.w
        out = self.work / name
        program = list(tracer_args) or ["-m", "spinloc.cli"]
        child = run_child(
            [*program, *spinloc_args(w, self.measurements, self.seed, out,
                                     parallel)],
            self.work / name)
        run = check_run(child, out, [n.label for n in w.nuclei])
        self.runs.append(run)
        return run

    def check_same(self, name: str, a: Run, b: Run):
        self.checks[name] = (a.report_bytes is not None
                             and a.report_bytes == b.report_bytes)

    def end_to_end(self, seconds: float) -> dict:
        self.setups = [run_child(["-c", "import spinloc.cli"],
                                 self.work / f"setup{k}")
                       for k in range(SETUP_REPEATS)]
        self.checks["setup_imports"] = all(c.code == 0 for c in self.setups)
        if self.w.nuclei == C1:
            self.check_same("parallel2_report_equals_parallel1",
                            *(self.localize(f"fixed_parallel{p}", PARITY, p)
                              for p in (1, 2)))
        timed: list[Run] = []
        t_start = time.perf_counter()
        while not timed or time.perf_counter() - t_start < seconds:
            timed.append(self.localize(f"rep{len(timed)}"))
        if len(timed) > 1:
            self.checks["seeded_reports_identical"] = all(
                r.report_bytes == timed[0].report_bytes for r in timed[1:])
        print(f"{len(timed)} timed localize run(s): wall_s "
              + " ".join(f"{r.child.wall_s:.3f}" for r in timed))

        wall = statistics.median(r.child.wall_s for r in timed)
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(c.wall_s for c in self.setups),
            "peak_rss_mb": statistics.median(r.child.peak_rss_mb
                                             for r in timed),
        }
        good = next((r for r in timed if r.valid), None)
        if good:
            q = quality(good.report, self.w)
            print("quality: " + " ".join(f"{k}={v:.6g}" for k, v in q.items()))
            metrics.update({
                "samples_per_s": q["samples_ok"] / wall,
                "nuclei_localized_frac": (q["nuclei_localized"]
                                          / q["nuclei_attempted"]),
                "samples_ok_frac": (q["samples_ok"] / q["samples"]
                                    if q["samples"] else 0.0),
                "phi_err_deg": q["phi_err_deg"],
            })
        return metrics

    def per_layer(self) -> dict:
        untraced = self.localize("untraced")
        spans_path = self.work / "trace_spans.json"
        run_id = f"{self.name}-seed{self.seed}"
        traced = self.localize(
            "traced", tracer_args=["bench/tracer.py", spans_path, run_id, "--"])
        self.check_same("traced_report_equals_untraced", traced, untraced)
        self.checks["trace_written"] = traced.valid and spans_path.is_file()
        if not self.checks["trace_written"]:
            return {}
        trace = json.loads(spans_path.read_text())
        self.checks["wrappers_cover_layers"] = all(
            any(n.startswith(f"{layer}.") for n in trace["wrapped"])
            for layer in LAYERS)
        return layer_metrics(trace, traced.report,
                             quality(traced.report, self.w),
                             traced.child.wall_s, untraced.child.wall_s)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "spinloc" / "cli.py").is_file():
        print(f"error: no spinloc sources under {SRC}", file=sys.stderr)
        return 2
    if not REFERENCE_MEASUREMENTS.is_file():
        print(f"error: missing {REFERENCE_MEASUREMENTS}", file=sys.stderr)
        return 2

    facts = machine_facts()
    print("machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    inv = Invocation(args.workload, args.seed)
    if args.trace == 0:
        metrics, units = inv.end_to_end(args.seconds), END_TO_END
    else:
        metrics, units = inv.per_layer(), PER_LAYER

    for r in inv.runs:
        for problem in r.problems:
            print(f"failed operation {r.out.name}: {problem}")
    for name, ok in inv.checks.items():
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    for name, unit in units.items():
        if name in metrics:
            print(f"{args.workload} {name} = {metrics[name]:.6g} {unit}")

    failed = sum(not r.valid for r in inv.runs)
    result = {
        "correct": (failed == 0 and all(inv.checks.values())
                    and set(metrics) == set(units)),
        "attempted": len(inv.runs),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }
    (inv.work / "result.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "trace": args.trace,
         "machine": facts, "checks": inv.checks,
         "setup_s": [c.wall_s for c in inv.setups],
         "runs": [{"name": r.out.name, "exit_code": r.child.code,
                   "wall_s": r.child.wall_s,
                   "peak_rss_mb": r.child.peak_rss_mb,
                   "problems": r.problems} for r in inv.runs],
         **result}, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
