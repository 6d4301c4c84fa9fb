"""Tests for the benchmark itself: each workload at a tiny size, untraced and
traced, must report every metric BENCHMARK.json names, with its unit, and
pass its output checks.

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
FULL_NAMES = {
    "identify": ("identify_p50_ms", "identify_p90_ms", "hr_at_1", "quad_p50_ms",
                 "quad_p90_ms", "quad_hr_at_1", "ingest_segments_per_s"),
    "train": ("train_pairs_per_s", "train_step_p50_ms"),
    "search": ("search_p50_ms", "search_p90_ms", "ivfpq_build_s", "ivfpq_p50_ms",
               "ivfpq_recall_at_20"),
}


def _run(workload: str, trace: int, cwd: Path = ROOT, run: Path = RUN):
    proc = subprocess.run(
        [sys.executable, str(run), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_reports_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"], m["name"]
    if trace:
        assert "digests equal to the untraced run's" in proc.stdout
    else:
        for m in SPEC["end_to_end"]:
            assert result["metrics"][m["name"]]["value"] > 0, m["name"]
        text = "\n".join(lines[:-1])
        for name in FULL_NAMES[workload] + ("setup_s", "peak_rss_mb", "attempted="):
            assert name in text, name


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("identify", 0, cwd=tmp_path, run=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_self_time_and_restore():
    class Box:
        def inner(self):
            return 7

        def outer(self):
            return self.inner() + 1

    original = Box.__dict__["outer"]
    with Tracer() as tracer:
        tracer.wrap(Box, "inner", "inner", observe=lambda args, out: out)
        tracer.wrap(Box, "outer", "outer")
        with tracer.op("x"):
            assert Box().outer() == 8
    assert Box.__dict__["outer"] is original
    (view,) = tracer.ops(("x",))
    assert view.calls("inner") == 1 and view.value("inner") == 7
    assert view.self_time("outer") == pytest.approx(
        view.total("outer") - view.total("inner"))
