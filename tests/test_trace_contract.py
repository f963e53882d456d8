"""Tier-1 guard on the names the benchmark's trace driver wraps.

``perfbench/trace_driver.py`` looks up each traced entry point by name and
reports the ones it cannot find as ``missing``; their per-layer metrics then
read 0 without any failure.  This test runs the driver as the harness does,
in a subprocess, and only reads ``perfbench/``.  It also checks that the
``weyl.covers`` span runs once per walked cell and, on ``coeffs``, counts
every reported covering pair: a walk that bypassed `bruhat_covers` would
leave ``weyl.covers_calls`` and ``weyl.covers_pairs`` short.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import CHILD_ENV

ROOT = Path(__file__).parents[1]


@pytest.mark.parametrize("job", ["homology A 2", "sweep A 2", "coeffs A 3 --max-degree 6"])
def test_trace_driver_finds_every_entry_point(tmp_path, job):
    spans_path = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "trace_driver.py"), str(spans_path), job,
         *job.split(), "--format", "json"],
        capture_output=True, text=True, cwd=tmp_path, env=CHILD_ENV, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(spans_path.read_text())
    assert traced["missing"] == []
    assert traced["spans"]
    # the walk calls `bruhat_covers` once per cell, so the covers spans
    # account for every cell walked and every covering pair reported
    counts = {name: [c for span, _, _, _, c in traced["spans"] if span == name]
              for name in ("weyl.covers", "weyl.reps")}
    assert len(counts["weyl.covers"]) == sum(c["returned"] for c in counts["weyl.reps"])
    if job.startswith("coeffs"):
        rows = json.loads(proc.stdout)["covering_pairs"]
        assert rows and sum(c["pairs"] for c in counts["weyl.covers"]) == len(rows)
