"""Self-test of the benchmark at toy sizes.

    python3 -m pytest perfbench -q

Runs every workload with and without tracing on small grids, checks that each
metric named in BENCHMARK.json is printed with its unit, that the layer self
times add up to the traced root spans, and that the correctness gate rejects
corrupted outputs.
"""

import json
import math
import shutil
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = list(workloads.WORKLOADS)


def run_bench(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "5",
         "--seconds", "0.5", "--trace", str(trace), "--toy"],
        capture_output=True, text=True, timeout=300, cwd=cwd)
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"], m["name"]
        assert math.isfinite(metrics[m["name"]]["value"]), m["name"]
    return {name: entry["value"] for name, entry in metrics.items()}


def test_workloads_match_benchmark_json():
    assert {w["name"] for w in SPEC["workloads"]} <= set(NAMES)
    assert [m["name"] for m in SPEC["per_layer"]] == list(tracing.PER_LAYER)
    assert [m["unit"] for m in SPEC["per_layer"]] == list(tracing.PER_LAYER.values())


@pytest.mark.parametrize("workload", NAMES)
def test_end_to_end_run(workload):
    values = check_metrics(last_json(run_bench(workload, 0)), SPEC["end_to_end"])
    assert all(v > 0 for v in values.values())
    assert values["success_frac"] == 1.0


@pytest.mark.parametrize("workload", NAMES)
def test_traced_run(workload):
    values = check_metrics(last_json(run_bench(workload, 1)), SPEC["per_layer"])
    # self times partition the root spans: irls.unwrap, plus cli.main on the CLI workload
    layer_sum = sum(values[f"{layer}.self.s"] for layer in tracing.LAYERS)
    root = values["irls.unwrap.s"] + values["arrayio.self.s"] + values["cli.self.s"]
    assert layer_sum == pytest.approx(root, rel=1e-9)
    assert values["irls.outer_iters"] >= 1 and values["pcg.iters"] >= 1
    assert values["preconditioner.sylvester_solve.gflops_computed"] > 0
    assert values["kernels.apply_system_blocks.gbps_computed"] > 0
    via_cli = workloads.WORKLOADS[workload].via_cli
    assert (values["arrayio.mb"] > 0) == via_cli
    assert (values["cli.self.s"] > 0) == via_cli


def test_trace_that_changes_the_work_is_invalid(monkeypatch, tmp_path):
    import run
    from phaseirls import irls

    real_traced = tracing.traced

    @contextmanager
    def perturbed(tracer):
        with real_traced(tracer):
            inner = irls.unwrap

            def nudged(*args, **kwargs):
                result = inner(*args, **kwargs)
                result.u[0, 0] += 1e-12
                return result

            irls.unwrap = nudged
            try:
                yield tracer
            finally:
                irls.unwrap = inner

    monkeypatch.setattr(tracing, "traced", perturbed)
    bench = run.Run(workloads.get_workload("tiles-64", toy=True), 5, tmp_path)
    metrics, invalid = bench.per_layer(0.1, tmp_path / "spans.jsonl")
    assert metrics == {}
    assert "did not repeat" in invalid


def test_missing_program_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(NAMES[0], 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture(scope="module")
def tile():
    from phaseirls.irls import unwrap

    wl = workloads.get_workload("tiles-64", toy=True)
    scene = workloads.make_pool(wl, seed=5)[0]
    return wl, scene, unwrap(scene.wrapped).u


def test_gate_accepts_solver_output(tile):
    wl, scene, u = tile
    rmse, reason = workloads.gate(u, scene, wl)
    assert reason is None
    assert 0 < rmse <= wl.rmse_gate


def test_gate_rejects_cycle_slip(tile):
    wl, scene, u = tile
    slipped = u.copy()
    slipped[: u.shape[0] // 2] += 2 * np.pi
    slipped -= slipped.mean()
    assert workloads.gate(slipped, scene, wl)[1] is not None


@pytest.mark.parametrize("corrupt", ["nan", "shape", "mean"])
def test_gate_rejects_malformed_output(tile, corrupt):
    wl, scene, u = tile
    bad = u.copy()
    if corrupt == "nan":
        bad[0, 0] = np.nan
    elif corrupt == "shape":
        bad = bad[:, :-1]
    else:
        bad += 0.5
    assert workloads.gate(bad, scene, wl)[1] is not None
