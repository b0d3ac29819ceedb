"""Tests of the benchmark itself, at tiny input sizes.

Run from the repository root:
    python3 -m pytest bench
"""
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from harness import run, tail, timed_pass  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_workloads_are_the_ones_benchmark_json_names():
    assert sorted(workloads.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_emitted_with_its_unit(workload, trace, kind):
    info, result = run(workload, seed=7, seconds=0.2, trace=trace, root=ROOT, tiny=True)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC[kind]}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        if kind == "end_to_end":
            assert m["value"] > 0, name
    for key in ("git_sha", "python", "numpy", "openblas", "blas_threads", "nproc", "seed"):
        assert key in info


def _shift_pmax(real, delta):
    def wrong(psi, cfg):
        r = real(psi, cfg)
        return dataclasses.replace(r, pmax=r.pmax + delta)
    return wrong


def _failed_everywhere(name):
    wl = workloads.WORKLOADS[name](seed=7, tr=Tracer(False), out_dir=ROOT / ".bench_out", tiny=True)
    stats = timed_pass(wl, 0.05, Tracer(False))
    assert stats.attempted > 0
    assert stats.failed == stats.attempted
    assert stats.results == {}


def test_haar_large_counts_a_wrong_pmax(monkeypatch):
    monkeypatch.setattr(workloads, "pmax_alternating", _shift_pmax(workloads.pmax_alternating, 1e-6))
    _failed_everywhere("haar-large")


def test_symmetric_small_counts_wrong_pmax_and_gridsearch(monkeypatch):
    monkeypatch.setattr(workloads, "pmax_alternating", _shift_pmax(workloads.pmax_alternating, 1e-6))
    real_grid = workloads.pmax_gridsearch
    monkeypatch.setattr(workloads, "pmax_gridsearch", lambda psi, res: real_grid(psi, res) + 0.1)
    _failed_everywhere("symmetric-small")


def test_refute_counts_the_flawed_maximum_reported_as_true(monkeypatch):
    real = workloads.refutation_report

    def wrong(**kwargs):
        return {**real(**kwargs), "true_max": 1.0}

    monkeypatch.setattr(workloads, "refutation_report", wrong)
    _failed_everywhere("refute")


def test_tail_is_the_highest_percentile_with_ten_ops_beyond_it():
    assert tail([1.0] * 38 + [5.0]) == (5.0, "max")
    assert tail([float(i) for i in range(40)])[1] == "p75"
    assert tail([float(i) for i in range(200)])[1] == "p95"
    assert tail([float(i) for i in range(1000)])[1] == "p99"


def test_fails_without_a_result_when_the_program_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "refute", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
