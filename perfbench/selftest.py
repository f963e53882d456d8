"""Self-test of the benchmark on a tiny grid (A2, B2, G2) with every workload's subcommands.

Usage (from the repository root): python3 perfbench/selftest.py

It checks that every metric in BENCHMARK.json is printed by name with its
unit, that each workload drives the per-layer counters it exists for, that
the traced driver patches names at their import sites, and that a corrupted
golden answer counts as a failure.  Exit code 0 means every check held.
"""

from __future__ import annotations

import json
import sys

from make_golden import golden_for
from run import GOLDEN_PATH, HERE, ROOT, Launcher, measure, summary_lines
from workloads import DEV_SEED, WORKLOADS, deep_covers, flag_homology, job_id, theta_sweep

TINY = [
    flag_homology([("A", 2), ("B", 2), ("G", 2)], [("A", 2), ("B", 2)]),
    deep_covers([("A", 2), ("B", 2), ("G", 2)], [("A", 2), ("B", 2)]),
    theta_sweep([("A", 2), ("B", 2), ("G", 2)], [("B", 2)]),
]

# Import sites the traced driver must patch besides the defining module.
REQUIRED_SITES = {
    "flaghom.coeffs.coefficient": "flaghom.homology.coefficient",
    "flaghom.homology.build_complex": "flaghom.cli.build_complex",
    "flaghom.coeffs.kappa_report": "flaghom.cli.kappa_report",
    "flaghom.homology.orientable_via_topcell": "flaghom.cli.orientable_via_topcell",
}


def check(condition: bool, message: str, problems: list[str]) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {message}")
    if not condition:
        problems.append(message)


def check_printed(result: dict, expected: list[dict], name: str, problems: list[str]) -> None:
    metrics = result["metrics"]
    printed = set(summary_lines(name, DEV_SEED, result))
    for entry in expected:
        metric, unit = entry["name"], entry["unit"]
        got = metrics.get(metric, {})
        check(got.get("unit") == unit and isinstance(got.get("value"), (int, float))
              and any(line.startswith(f"{metric} ") and line.endswith(f" {unit}") for line in printed),
              f"{name}: {metric} printed in {unit}", problems)
    extra = set(metrics) - {entry["name"] for entry in expected}
    check(not extra, f"{name}: no metric outside BENCHMARK.json {sorted(extra)}", problems)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    committed = json.loads(GOLDEN_PATH.read_text())
    unanswered = [job_id(job) for w in WORKLOADS.values() for job in w.every_job()
                  if job_id(job) not in committed]
    check(not unanswered, f"golden.json answers every job of every seed {unanswered}", problems)
    with Launcher() as launcher:
        golden, failed = golden_for([job for w in TINY for job in w.every_job()], launcher)
        check(not failed, f"every tiny job answers {failed}", problems)

        spans_path = launcher.workdir / "spans.json"
        launcher.run([sys.executable, str(HERE / "trace_driver.py"), str(spans_path), "probe",
                      "homology", "A", "2", "--format", "json"])
        trace = json.loads(spans_path.read_text())
        check(not trace["missing"], f"every traced target exists {trace['missing']}", problems)
        for target, site in REQUIRED_SITES.items():
            check(site in trace["sites"].get(target, []), f"{target} patched at {site}", problems)

    for workload in TINY:
        plain = measure(workload, DEV_SEED, 0, False, golden)
        check(plain["correct"] and plain["failed"] == 0 and plain["attempted"] > 0,
              f"{workload.name}: 0 of {plain['attempted']} runs failed", problems)
        check_printed(plain, spec["end_to_end"], workload.name, problems)

        traced = measure(workload, DEV_SEED, 0, True, golden)
        check(traced["correct"], f"{workload.name}: traced runs correct", problems)
        check_printed(traced, spec["per_layer"], workload.name, problems)
        for metric in workload.must_drive:
            check(traced["metrics"][metric]["value"] > 0,
                  f"{workload.name}: {metric} is non-zero", problems)

        victim = workload.jobs(DEV_SEED)[0]
        corrupted = dict(golden)
        corrupted[job_id(victim)] = "0" * 64
        bad = measure(workload, DEV_SEED, 0, False, corrupted)
        check(not bad["correct"] and bad["failed"] == 1,
              f"{workload.name}: corrupted golden counted as 1 failure", problems)

    print(f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
