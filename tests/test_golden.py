"""Tier-1 guard on the benchmark's golden answers.

For every (command, family, rank) in ``perfbench/golden.json`` the
lexicographically last job id is run in-process as JSON, and its report,
without the ``job`` echo and ``schema_version``, must hash to the recorded
SHA-256.  The test only reads ``perfbench/``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from flaghom.cli import main

GOLDEN = json.loads((Path(__file__).parents[1] / "perfbench" / "golden.json").read_text())


def _last_job_per_grid_point() -> list[str]:
    last: dict[tuple[str, ...], str] = {}
    for job_id in sorted(GOLDEN):
        last[tuple(job_id.split()[:3])] = job_id
    return sorted(last.values())


def _report_hash(stdout: str) -> str:
    report = json.loads(stdout)
    report.pop("job", None)
    report.pop("schema_version", None)
    canonical = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


@pytest.mark.parametrize("job_id", _last_job_per_grid_point())
def test_report_matches_golden_hash(capsys, job_id):
    assert main([*job_id.split(), "--format", "json"]) == 0
    assert _report_hash(capsys.readouterr().out) == GOLDEN[job_id]
