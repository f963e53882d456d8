"""Tier-1 guard on the benchmark's golden answers.

Every job in ``perfbench/golden.json``, each command line the benchmark
sends, is run in-process as JSON, and its report, without the ``job`` echo
and ``schema_version``, must hash to the recorded SHA-256.  The test only
reads ``perfbench/``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from flaghom.cli import main

GOLDEN = json.loads((Path(__file__).parents[1] / "perfbench" / "golden.json").read_text())


def _report_hash(stdout: str) -> str:
    report = json.loads(stdout)
    report.pop("job", None)
    report.pop("schema_version", None)
    canonical = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


@pytest.mark.parametrize("job_id", sorted(GOLDEN))
def test_report_matches_golden_hash(capsys, job_id):
    assert main([*job_id.split(), "--format", "json"]) == 0
    assert _report_hash(capsys.readouterr().out) == GOLDEN[job_id]
