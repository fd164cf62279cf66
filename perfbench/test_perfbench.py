"""Smoke tests of the benchmark itself, at ``--tiny`` sizes.

    python3 -m pytest perfbench/test_perfbench.py

Every workload, untraced and traced, must emit exactly the metrics
BENCHMARK.json declares, with the declared units, and pass its
correctness gate; a wrong kappa must fail the gate; and the benchmark
must refuse to run without the package next to it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_declared_workloads_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert E2E_UNITS == workloads.E2E
    assert LAYER_UNITS == workloads.LAYER_METRICS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_emits_every_metric_and_passes_the_gate(name, trace):
    proc = bench("--workload", name, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    w = workloads.TINY[name]
    expected = LAYER_UNITS if trace else E2E_UNITS
    assert {m: v["unit"] for m, v in result["metrics"].items()} == expected
    on_path = workloads.layer_metrics(w) if trace else list(E2E_UNITS)
    values = {m: v["value"] for m, v in result["metrics"].items()}
    assert all(values[m] > 0 for m in on_path)
    assert all(v == 0 for m, v in values.items() if m not in on_path)
    if trace:
        assert "absent seams: none" in lines
    assert any(line.startswith("gate ok:") and "kappa==peel" in line for line in lines)
    assert any(line.startswith("host_probe ") for line in lines)


def test_traced_counts_repeat_exactly():
    def counts():
        proc = bench("--workload", "served_trickle", "--seed", "5", "--seconds", "1",
                     "--trace", "1", "--tiny")
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        return {k: v["value"] for k, v in metrics.items() if v["unit"] == "count"}
    first = counts()
    assert first and first == counts()


def test_missing_seams_are_absent_and_uninstall_restores():
    import spans
    from repro.core.backend import ArrayBackend
    from repro.graph.columnar import ColumnarBatch
    from repro.parallel.runtime import ParallelRuntime, SerialRuntime

    def state():
        return (ArrayBackend.__dict__["sweep_and_converge"],
                ColumnarBatch.__dict__["from_batch"],
                ParallelRuntime.__dict__["parallel_map_ranges"],
                "parallel_map_ranges" in vars(SerialRuntime))

    before = state()
    seams = workloads.ENGINE_SEAMS + (
        spans.Seam("gone.method", "repro.core.base", "NoSuchClass.apply_batch"),
        spans.Seam("gone.module", "repro.no_such_module", "f"),
        spans.Seam("gone.instance", None, "views.maintainer.view_publisher"),
    )
    uninstall, absent = spans.install(spans.Tracer(), seams, root=object())
    uninstall()
    assert sorted(absent) == ["gone.instance", "gone.method", "gone.module"]
    assert state() == before


def test_gate_rejects_a_wrong_kappa():
    from repro.graph.generators import clique

    class Wrong:
        sub = clique(4)

        def kappa(self):
            return {v: 1 for v in range(4)}

    w = workloads.TINY["graph_bulk"]
    with pytest.raises(workloads.GateFailure):
        workloads.gate(w, workloads.System(Wrong()), None, [])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "graph_bulk", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
