"""Fast self-test of the benchmark on a tiny workload.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np

import tenseg.shape
from perfbench import checks
from perfbench.run import ROOT, run_workload, unit_of
from perfbench.workloads import WORKLOADS

# jacobian_fk cut to a half-second roll: it runs every layer, J_p
# included, and every check in a few seconds.
TINY = replace(WORKLOADS["jacobian_fk"], name="tiny",
               sim=dict(WORKLOADS["jacobian_fk"].sim, pivot_duration=0.5))


def declared(kind):
    with open(ROOT / "BENCHMARK.json") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def test_untraced_run_reports_end_to_end_metrics(tmp_path):
    result = run_workload(TINY, seed=3, seconds=0, trace=0, out_dir=tmp_path)
    assert result["correct"]
    assert result["failed"] == 0 and result["attempted"] > 3
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_per_layer_metrics(tmp_path):
    original = tenseg.shape.reconstruct_shape
    result = run_workload(TINY, seed=3, seconds=0, trace=1, out_dir=tmp_path)
    assert tenseg.shape.reconstruct_shape is original
    assert result["correct"] and result["failed"] == 0
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == declared("per_layer")
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert values["shape.J_p.calls"] > 0
    assert values["shape.J_p.solves_per_call"] == 19
    assert values["inekf.process_imu.calls"] == values["shape.h_R.calls"]


def test_workload_names_match_benchmark_json():
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for kind in ("end_to_end", "per_layer"):
        for m in spec[kind]:
            assert unit_of(m["name"]) == m["unit"]


def test_rotation_fit_matches_svd_projection():
    rng = np.random.default_rng(0)
    for _ in range(20):
        M = rng.normal(size=(3, 3))
        U, _, Vt = np.linalg.svd(M)
        D = np.diag([1.0, 1.0, np.sign(np.linalg.det(U @ Vt))])
        np.testing.assert_allclose(checks.fit_rotation(M), U @ D @ Vt,
                                   atol=1e-9)


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("runs", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench", "--workload", "turn_imu1k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
