"""Tests of the benchmark itself.

    python3 -m pytest -q bench

Seeded ensembles must not depend on the worker count, the oracles the
benchmark checks outputs against must accept correct output and reject
wrong output, and a tiny run of every workload must print every metric
named in BENCHMARK.json with its unit and no failed operation.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (puts ./src on sys.path)
from beable_sim import config, dynamics, linalg, presets, verification  # noqa: E402
from beable_sim.errors import NumericError  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
MODELS = [run.Model(name, {"preset": name}, tuple(presets.preset_config(name)["run"]["times"]))
          for name in presets.PRESET_NAMES] + run.qubits5_models(3)


def built(model):
    return config.build_model(config.parse_config(model.raw))


@pytest.mark.parametrize("model", MODELS, ids=[m.name for m in MODELS])
def test_counts_do_not_depend_on_worker_count(model):
    counts = []
    for workers in (1, max(2, run.NPROC)):
        m = built(model)
        rep = verification.ensemble_equivariance(
            m.field, m.state0, 100, model.times, seed=5,
            rtol=run.ENSEMBLE_RTOL, atol=run.ENSEMBLE_ATOL, workers=workers)
        counts.append(rep.empirical)
    assert np.array_equal(counts[0], counts[1])


@pytest.mark.xfail(raises=NumericError, strict=True,
                   reason="VelocityField.currents: absolute imaginary-part tolerance "
                          "against |J| up to 1e7 near small P")
def test_pair_toy_ensemble_completes():
    """Why pair-toy is in run.NO_TRAJECTORIES: this seeded ensemble at the
    acceptance tolerances raises. Once it passes, the strict xfail fails, and
    pair-toy can rejoin the ensemble and simulate phases."""
    model = next(m for m in MODELS if m.name == "pair-toy")
    m = built(model)
    verification.ensemble_equivariance(
        m.field, m.state0, 100, model.times, seed=run.derive_seed(2, 1, 0, 3),
        rtol=run.ENSEMBLE_RTOL, atol=run.ENSEMBLE_ATOL, workers=1)


@pytest.mark.parametrize("model", MODELS, ids=[m.name for m in MODELS])
def test_reference_distribution_matches_the_package(model):
    m = built(model)
    reference = run.reference_distribution(m.config, model.times)
    for k, t in enumerate(sorted(model.times)):
        state = linalg.evolve(m.state0, m.propagator, t)
        _, probs = dynamics.quantum_distribution(state, m.beable_set)
        np.testing.assert_allclose(probs, reference[k], rtol=0.0, atol=1e-12)


def test_tv_oracle_accepts_noise_and_rejects_a_wrong_distribution():
    rng = np.random.default_rng(0)
    q = np.array([0.1, 0.2, 0.3, 0.4])
    n = 1000
    tv = [0.5 * np.abs(rng.multinomial(n, p) / n - q).sum()
          for p in (q, np.array([0.2, 0.2, 0.3, 0.3]))]
    assert run.tv_within_noise(tv[0], q, n, 1e-3, rng)
    assert not run.tv_within_noise(tv[1], q, n, 1e-3, rng)


def test_expected_rows_counts_the_output_grid():
    assert run.expected_rows(2.5, 0.05) == 51
    assert run.expected_rows(2 * math.pi, 0.05) == 127


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", SPEC["workloads"][0]["name"],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
