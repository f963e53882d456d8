"""End-to-end and per-layer benchmark of the flaghom CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload flag-homology --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seconds 36   # each workload in turn

Each job is one fresh ``python -m flaghom.cli ... --format json`` process,
run one at a time (a closed loop with one client) and started by the small
``launcher.py`` process, which times it and reads its rusage.  Passes over
the seed's jobs repeat until ``--seconds`` have passed, at least once.  Every
job's report is checked against ``golden.json``; a job fails if it exits
non-zero, prints a traceback, runs past ``JOB_TIMEOUT_S`` or returns another
answer.

``--trace 0`` reports the end-to-end metrics, summed over the jobs of one
pass from each job's median over the passes:
  wall_s       launch-to-exit seconds of the job processes
  cpu_s        user+sys CPU seconds of the job processes, from os.wait4
  peak_rss_mb  highest ru_maxrss of any job process, MiB
  setup_s      median time for a fresh interpreter to import flaghom.cli
The failure ratio is the result's ``failed`` over ``attempted`` (job runs).

``--trace 1`` runs each job twice in a row, plainly and under
``trace_driver.py``, and reports the per-layer metrics from the traced runs
(``LAYER_METRICS``).  Every ``_s`` metric is self time: span time minus the
time of the spans nested in it.  ``trace.overhead_s`` is traced minus plain
``wall_s`` over the same runs.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Lines before it name the
workload, the seed and every metric with its unit.  Exit code 2, without a
result, means the program could not be set up at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from workloads import DEV_SEED, WORKLOADS, Job, Workload, job_id

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN_PATH = HERE / "golden.json"
WORK_DIR = ROOT / ".bench_build"
JOB_TIMEOUT_S = 60
SETUP_LAUNCHES = 11

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}


def _ratio(num: float, den: float) -> float:
    """num/den, and 0 where nothing was attempted; the base is its own metric."""
    return num / den if den else 0.0


# Per-layer metric -> (unit, value from the raw span totals summed over a pass).
# Raw keys are "<span>.self_s", "<span>.span_s", "<span>.calls" and "<span>.<count>";
# "routes" counts kappa route calls under any span.
LAYER_METRICS = {
    "rootsys.build_s": ("s", lambda t: t["rootsys.build.self_s"]),
    "rootsys.builds": ("count", lambda t: t["rootsys.build.calls"]),
    "weyl.enumerate_s": ("s", lambda t: t["weyl.enumerate.self_s"]),
    "weyl.elements": ("count", lambda t: t["weyl.enumerate.elements"]),
    "weyl.covers_s": ("s", lambda t: t["weyl.covers.self_s"]),
    "weyl.covers_calls": ("count", lambda t: t["weyl.covers.calls"]),
    "weyl.covers_pairs": ("count", lambda t: t["weyl.covers.pairs"]),
    "weyl.reps_s": ("s", lambda t: t["weyl.reps.self_s"]),
    "weyl.reps_calls": ("count", lambda t: t["weyl.reps.calls"]),
    "weyl.reps_scanned": ("count", lambda t: t["weyl.reps.scanned"]),
    "weyl.reps_yield": ("ratio", lambda t: _ratio(t["weyl.reps.returned"], t["weyl.reps.scanned"])),
    "coeffs.kappa_report_s": ("s", lambda t: t["coeffs.kappa_report.self_s"]),
    "coeffs.kappa_report_calls": ("count", lambda t: t["coeffs.kappa_report.calls"]),
    "coeffs.coefficient_s": ("s", lambda t: t["coeffs.coefficient.self_s"]),
    "coeffs.coefficient_calls": ("count", lambda t: t["coeffs.coefficient.calls"]),
    "coeffs.route_evals": ("count", lambda t: t["routes"]),
    "coeffs.routes_per_coefficient": (
        "ratio", lambda t: _ratio(t["coeffs.coefficient.routes"], t["coeffs.coefficient.calls"])),
    "coeffs.sign_unknown": ("count", lambda t: t["coeffs.coefficient.unknown"]),
    "coeffs.sign_known_ratio": ("ratio", lambda t: _ratio(
        t["coeffs.coefficient.nonzero"] - t["coeffs.coefficient.unknown"],
        t["coeffs.coefficient.nonzero"])),
    "homology.complex_s": ("s", lambda t: t["homology.complex.self_s"]),
    "homology.cells": ("count", lambda t: t["homology.complex.cells"]),
    "homology.zeroed_rows": ("count", lambda t: t["homology.complex.zeroed"]),
    "homology.snf_s": ("s", lambda t: t["homology.snf.self_s"]),
    "homology.snf_calls": ("count", lambda t: t["homology.snf.calls"]),
    "homology.snf_entries": ("count", lambda t: t["homology.snf.entries"]),
    "homology.topcell_s": ("s", lambda t: t["homology.topcell.self_s"]),
    "homology.poincare_s": ("s", lambda t: t["homology.poincare.self_s"]),
    "cli.report_s": ("s", lambda t: t["cli.report.self_s"]),
    "cli.render_s": ("s", lambda t: t["cli.render.self_s"]),
    "cli.output_bytes": ("bytes", lambda t: t["cli.render.bytes"]),
    "trace.inproc_s": ("s", lambda t: t["cli.main.span_s"]),
    "trace.overhead_s": ("s", lambda t: t["trace.overhead_s"]),
}


class SetupError(RuntimeError):
    """The program cannot be started at all; no result is printed."""


@dataclass
class JobRun:
    wall_s: float
    cpu_s: float
    rss_mb: float
    failure: str | None
    layers: Counter | None = None


@dataclass
class Samples:
    """Runs per job id, in the order they were made."""

    runs: dict[str, list[JobRun]] = field(default_factory=dict)

    def add(self, job: Job, run: JobRun) -> None:
        self.runs.setdefault(job_id(job), []).append(run)

    def summed_median(self, key) -> float:
        return sum(statistics.median(key(r) for r in runs) for runs in self.runs.values())


def report_hash(stdout: bytes) -> str:
    """SHA-256 of the JSON report without its `job` echo and `schema_version`."""
    report = json.loads(stdout)
    report.pop("job", None)
    report.pop("schema_version", None)
    canonical = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # Fixed string hashing keeps set iteration order, and so run time, the same between runs.
    env["PYTHONHASHSEED"] = "0"
    return env


class Launcher:
    """Runs processes one at a time through launcher.py, with their output in
    a scratch directory under WORK_DIR.  Use as a context manager."""

    def __enter__(self) -> "Launcher":
        WORK_DIR.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="perfbench-", dir=WORK_DIR))
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launcher.py")], cwd=ROOT,
                                     env=child_env(), stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc_info) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=JOB_TIMEOUT_S + 10)  # it ends a running job at its timeout
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        shutil.rmtree(self.workdir)

    def run(self, argv: list[str]) -> tuple[dict, bytes, bytes]:
        """Run argv to completion, killed after JOB_TIMEOUT_S; return the
        launcher's reply (wall_s, cpu_s, maxrss_kb, exit_code), stdout and stderr."""
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        request = {"argv": argv, "stdout": str(out_path), "stderr": str(err_path),
                   "timeout": JOB_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise SetupError("the launcher process stopped")
        return json.loads(reply), out_path.read_bytes(), err_path.read_bytes()


def layer_totals(spans: list[list]) -> Counter:
    """Raw per-span totals of one traced job: self time, calls and counts."""
    child_s = [0.0] * len(spans)
    for name, start, end, parent, counts in spans:
        if parent >= 0:
            child_s[parent] += end - start
    totals: Counter = Counter()
    for i, (name, start, end, parent, counts) in enumerate(spans):
        totals[f"{name}.self_s"] += end - start - child_s[i]
        totals[f"{name}.span_s"] += end - start
        totals[f"{name}.calls"] += 1
        for key, value in counts.items():
            totals[f"{name}.{key}"] += value
            if key == "routes":
                totals["routes"] += value
    return totals


def run_job(job: Job, golden: dict[str, str], launcher: Launcher, traced: bool) -> JobRun:
    cli_args = [*job, "--format", "json"]
    spans_path = launcher.workdir / "spans.json"
    if traced:
        argv = [sys.executable, str(HERE / "trace_driver.py"), str(spans_path), job_id(job),
                *cli_args]
    else:
        argv = [sys.executable, "-m", "flaghom.cli", *cli_args]
    reply, stdout, stderr = launcher.run(argv)
    code = reply["exit_code"]
    failure = None
    if code is None:
        failure = f"timed out after {JOB_TIMEOUT_S} s"
    elif code != 0:
        failure = f"exit code {code}"
    elif b"Traceback" in stderr:
        failure = "traceback on stderr"
    else:
        try:
            digest = report_hash(stdout)
        except ValueError:
            failure = "report is not JSON"
        else:
            if digest != golden.get(job_id(job)):
                failure = "answer differs from golden"
    layers = None
    if traced and failure is None:
        layers = layer_totals(json.loads(spans_path.read_text())["spans"])
    if failure:
        tail = stderr.decode(errors="replace").strip().splitlines()[-1:]
        print(f"FAILED {job_id(job)}{' (traced)' if traced else ''}: {failure} {tail}",
              file=sys.stderr)
    return JobRun(reply["wall_s"], reply["cpu_s"], reply["maxrss_kb"] / 1024, failure, layers)


def measure_setup(launcher: Launcher) -> float:
    """Median launch-to-exit time of `import flaghom.cli` in a fresh interpreter."""
    times = []
    for i in range(SETUP_LAUNCHES + 1):  # the first launch only warms the bytecode cache
        reply, _, stderr = launcher.run([sys.executable, "-c", "import flaghom.cli"])
        if reply["exit_code"] != 0:
            raise SetupError(f"cannot import flaghom.cli from {ROOT / 'src'}: "
                             f"{stderr.decode(errors='replace').strip()}")
        if i:
            times.append(reply["wall_s"])
    return statistics.median(times)


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            golden: dict[str, str]) -> dict:
    """Run the workload for `seconds`; return the result object."""
    jobs = workload.jobs(seed)
    plain, traced = Samples(), Samples()
    with Launcher() as launcher:
        setup_s = measure_setup(launcher)
        start = perf_counter()
        launched = 0
        while launched < len(jobs) or perf_counter() - start < seconds:
            job = jobs[launched % len(jobs)]
            plain.add(job, run_job(job, golden, launcher, traced=False))
            if trace:
                traced.add(job, run_job(job, golden, launcher, traced=True))
            launched += 1
    every_run = [r for s in (plain, traced) for runs in s.runs.values() for r in runs]
    failed = sum(r.failure is not None for r in every_run)
    if trace:
        metrics = layer_metrics(plain, traced)
    else:
        metrics = {
            "wall_s": plain.summed_median(lambda r: r.wall_s),
            "cpu_s": plain.summed_median(lambda r: r.cpu_s),
            "peak_rss_mb": max(statistics.median(r.rss_mb for r in runs)
                               for runs in plain.runs.values()),
            "setup_s": setup_s,
        }
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in metrics.items()}
    return {"correct": failed == 0, "attempted": len(every_run), "failed": failed,
            "metrics": metrics}


def layer_metrics(plain: Samples, traced: Samples) -> dict:
    totals: Counter = Counter()
    for runs in traced.runs.values():
        ok = [r.layers for r in runs if r.layers is not None]
        for key in {k for layers in ok for k in layers}:
            totals[key] += statistics.median(layers[key] for layers in ok)
    totals["trace.overhead_s"] = (traced.summed_median(lambda r: r.wall_s)
                                  - plain.summed_median(lambda r: r.wall_s))
    return {name: {"value": value(totals), "unit": unit}
            for name, (unit, value) in LAYER_METRICS.items()}


def summary_lines(name: str, seed: int, result: dict) -> list[str]:
    lines = [f"# workload {name}  seed {seed}"]
    metrics = result["metrics"]
    for metric, entry in metrics.items():
        lines.append(f"{metric} {entry['value']:.6g} {entry['unit']}")
    lines.append(f"fail_ratio {result['failed']}/{result['attempted']} job runs")
    if "trace.inproc_s" in metrics and metrics["trace.inproc_s"]["value"] > 0:
        total = metrics["trace.inproc_s"]["value"]
        shares = sorted(((e["value"] / total, m) for m, e in metrics.items()
                         if m.endswith("_s") and not m.startswith("trace.") and e["value"] > 0),
                        reverse=True)
        lines.append("# self-time shares of trace.inproc_s: " + ", ".join(
            f"{m} {share:.1%}" for share, m in shares))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEV_SEED)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    golden = json.loads(GOLDEN_PATH.read_text())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = measure(WORKLOADS[name], args.seed, args.seconds,
                                    bool(args.trace), golden)
            print("\n".join(summary_lines(name, args.seed, results[name])), flush=True)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
