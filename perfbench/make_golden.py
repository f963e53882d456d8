"""Write golden.json: the report hash of every job any seed of any workload can run.

Usage (from the repository root): python3 perfbench/make_golden.py

Run it only at a commit whose answers are trusted.  A job that fails gets no
golden entry and prints a line here; the benchmark then counts it as failed
on every run rather than dropping it from the grid.
"""

from __future__ import annotations

import json
import sys

from run import GOLDEN_PATH, Launcher, report_hash
from workloads import WORKLOADS, Job, job_id


def golden_for(jobs: list[Job], launcher: Launcher) -> tuple[dict[str, str], list[str]]:
    """Report hash of every job that succeeds, and the ids of those that fail."""
    golden: dict[str, str] = {}
    failed: list[str] = []
    for job in jobs:
        argv = [sys.executable, "-m", "flaghom.cli", *job, "--format", "json"]
        reply, stdout, stderr = launcher.run(argv)
        if reply["exit_code"] != 0 or b"Traceback" in stderr:
            print(f"no golden for {job_id(job)}: exit code {reply['exit_code']}", file=sys.stderr)
            failed.append(job_id(job))
        else:
            golden[job_id(job)] = report_hash(stdout)
    return golden, failed


def main() -> int:
    jobs = [job for workload in WORKLOADS.values() for job in workload.every_job()]
    with Launcher() as launcher:
        golden, failed = golden_for(jobs, launcher)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"{len(golden)} golden answers written to {GOLDEN_PATH.name}, {len(failed)} jobs failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
