"""Tests of the benchmark itself, on its quick inputs.

    python -m pytest bench
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

run.import_rewb()

import workloads  # noqa: E402  (needs rewb on the path)
from tracing import NullTracer  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def test_workloads_match_the_spec():
    assert NAMES == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_quick_run_reports_every_metric_with_its_unit(name, trace):
    result, record = run.run_workload(name, seed=3, seconds=0.1, trace=trace, quick=True)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert record["fail_ratio"] == 0
    times = [v["value"] for v in result["metrics"].values() if v["unit"] in ("ms", "s")]
    assert all(value > 0 for value in times)


@pytest.mark.parametrize("name", NAMES)
def test_planted_wrong_reference_counts_as_failure(name, monkeypatch):
    cls = workloads.WORKLOADS[name]
    original = cls.expected

    def planted(self, key):
        return "planted" if key == self.keys[0] else original(self, key)

    monkeypatch.setattr(cls, "expected", planted)
    result, record = run.run_workload(name, seed=3, seconds=0.1, trace=1, quick=True)
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]
    assert record["fail_ratio"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_inputs_follow_the_seed(name):
    cls = workloads.WORKLOADS[name]
    assert cls(5, False, NullTracer()).digest == cls(5, False, NullTracer()).digest
    assert cls(5, False, NullTracer()).digest != cls(6, False, NullTracer()).digest


def test_seeds_rename_one_shape():
    """Seeds give other names to the same graphs: every answer keeps its size."""
    a, b = (workloads.Rpq(seed, True, NullTracer()) for seed in (5, 6))
    assert a.graph_texts != b.graph_texts
    sizes = []
    for w in (a, b):
        w.setup()
        sizes.append([len(w.op(key)) for key in w.keys])
    assert sizes[0] == sizes[1]


def test_without_the_sources_the_run_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
