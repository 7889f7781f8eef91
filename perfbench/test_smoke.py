"""Smoke test of the benchmark at a tiny size (dim 16, 2 objects).

Run from the repository root: ``python3 -m pytest perfbench/test_smoke.py``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _bench(script: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "0", "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170,
    )


def _all_pass(log: str, check: str) -> bool:
    """Every repetition passed the named check (the repetition count depends on speed)."""
    found = re.search(rf"check {re.escape(check)}: (\d+)/(\d+) repetitions pass", log)
    return found is not None and found[1] == found[2] and int(found[2]) >= run.MIN_REPS


def _result(workload: str, trace: int) -> tuple[str, dict]:
    proc = _bench(HERE / "run.py", workload, trace)
    assert proc.returncode == 0, proc.stderr
    *lines, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return "\n".join(lines), result


def test_workloads_match_benchmark_json():
    assert WORKLOADS == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_checks(workload):
    log, result = _result(workload, 0)
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "output bytes identical across" in log
    assert "final_mean_iou == recorded" in log
    if workload.startswith("loop-"):
        assert _all_pass(log, "C5 per-object IoU never decreases")
    else:
        assert _all_pass(log, "every CLI call exits 0")
        assert _all_pass(log, "C4 carved hull contains thresholded GT")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    log, result = _result(workload, 1)
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    traced = re.search(r"layer counts repeat exactly across (\d+) traced repetitions", log)
    assert traced is not None and int(traced[1]) >= 2
    layers = {name: m["value"] for name, m in result["metrics"].items()}
    if workload.startswith("loop-"):
        assert layers["harness.run_object_iteration.calls"] > 0 and layers["carve.carve.calls"] > 0
    else:
        assert layers["cli.main.calls"] == 2 * 5
        assert layers["io.bytes_read"] > 0 and layers["io.bytes_written"] > 0


def _rep(**changes) -> dict:
    rep = {"ops": 10, "failed": 0, "digest": "a", "final_mean_iou": 0.5, "checks": {"C5": "pass"},
           "traced": False}
    rep.update(changes)
    return rep


def test_checks_count_failed_ops():
    recorded = {"final_mean_iou": 0.5, "sha256": "a"}
    assert run.check([_rep(), _rep()], recorded)[:2] == (20, 0)
    assert run.check([_rep(), _rep(digest="b")], recorded)[:2] == (20, 10)
    assert run.check([_rep(), _rep(final_mean_iou=0.25)], recorded)[:2] == (20, 10)
    assert run.check([_rep(failed=3, checks={"C5": "fail (3 decreases)"})], None)[:2] == (10, 3)
    traced = [_rep(traced=True, layers={name: 1 for name, *_ in run.PER_LAYER}) for _ in range(2)]
    traced[1]["layers"]["carve.carve.calls"] = 2
    assert run.check([_rep(), *traced], recorded)[:2] == (30, 20)


def test_times_scale_to_reference_speed():
    rep = _rep(wall_s=3.0, setup_s=0.5, views=30, peak_rss_mb=100.0,
               reference_s=2 * run.reference.NOMINAL_S)
    values = run.end_to_end([rep])
    assert values["wall_s"] == pytest.approx(1.5)
    assert values["setup_s"] == pytest.approx(0.25)
    assert values["views_per_s"] == pytest.approx(20.0)


def test_fails_without_program_sources():
    stripped = HERE.parent / ".perfbench_out" / "stripped"
    shutil.rmtree(stripped, ignore_errors=True)
    shutil.copytree(HERE, stripped / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", stripped)
    try:
        proc = _bench(stripped / HERE.name / "run.py", WORKLOADS[0], 0)
    finally:
        shutil.rmtree(stripped, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
