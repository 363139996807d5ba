"""Smoke tests for the benchmark at tiny sizes; not part of tier-1.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.load_program()

import layers  # noqa: E402
import workloads  # noqa: E402
from horolattice import core, fundamental, orbits  # noqa: E402
from tracing import Tracer  # noqa: E402

TINY = {
    "d2-orbit-csv": {"samples": 300},
    "d2-orbit-cusp": {"samples": 300},
    "d3-orbit": {"samples": 20},
    "d2-measures": {
        "fourier_samples": 500,
        "max_freq": 2,
        "concentration_samples": 300,
        "localization_samples": 4000,
    },
}


def _bindings() -> dict:
    out = {("core.IntegerMatrix", "inv"): core.IntegerMatrix.__dict__["inv"]}
    for name, mod in list(sys.modules.items()):
        if name.startswith("horolattice"):
            out.update({(name, key): value for key, value in vars(mod).items() if callable(value)})
    return out


def test_tracer_patches_every_calling_namespace_and_restores():
    original = fundamental._reduce_core
    before = _bindings()
    tracer = Tracer()
    layers.install(tracer)
    try:
        assert fundamental._reduce_core is not original
        assert orbits._reduce_core is not original
        assert orbits.reduce_batch_2x2 is not before[("horolattice.fundamental", "reduce_batch_2x2")]
        assert core.IntegerMatrix.__dict__["inv"] is not before[("core.IntegerMatrix", "inv")]
    finally:
        tracer.restore()
    after = _bindings()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_traced_run_restores_every_patched_function():
    before = _bindings()
    run.run("d3-orbit", 0, 0.0, True, TINY["d3-orbit"], setup_repeats=1)
    after = _bindings()
    assert [key for key in before if after[key] is not before[key]] == []


def test_reduce_core_counted_from_the_orbits_namespace():
    # y0 is reduced once, then every sample once through orbits.decompose
    n = TINY["d3-orbit"]["samples"]
    _, record = run.run("d3-orbit", 0, 0.0, True, TINY["d3-orbit"], setup_repeats=1)
    assert record["values"]["fundamental.reduce_core.calls"] == n + 1
    assert record["values"]["orbits.decompose.calls"] == n


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_and_untraced_runs_agree(name):
    plain, plain_record = run.run(name, 3, 0.0, False, TINY[name], setup_repeats=1)
    traced, traced_record = run.run(name, 3, 0.0, True, TINY[name], setup_repeats=1)
    assert plain["correct"] and traced["correct"]
    assert plain["failed"] == traced["failed"] == 0
    assert plain_record["digests"] == traced_record["digests"]
    assert traced_record["counters_agree"]


@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_appears_with_its_unit(trace):
    spec = run.benchmark_spec()
    wanted = spec["per_layer" if trace else "end_to_end"]
    result, _ = run.run("d3-orbit", 0, 0.0, trace, TINY["d3-orbit"], setup_repeats=1 if trace else 2)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])
    json.loads(json.dumps(result))


def test_untraced_times_are_scaled_by_the_reference_sampled_in_each_iteration():
    result, record = run.run("d3-orbit", 0, 0.0, False, TINY["d3-orbit"], setup_repeats=1)
    assert record["warmup_wall"] is not None
    assert len(record["walls"]) == len(record["cpus"]) == len(record["refs"]) >= 1
    walls = [run.REFERENCE_S * w / r for w, (r, _) in zip(record["walls"], record["refs"])]
    cpus = [run.REFERENCE_S * c / r for c, (_, r) in zip(record["cpus"], record["refs"])]
    assert result["metrics"]["wall_s"]["value"] == pytest.approx(statistics.median(walls))
    assert result["metrics"]["cpu_s"]["value"] == pytest.approx(statistics.median(cpus))


def test_typed_failures_are_counted_not_fatal():
    params = dict(TINY["d3-orbit"], budget=1)
    result, record = run.run("d3-orbit", 0, 0.0, False, params, setup_repeats=1)
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert not result["correct"]
    error = record["errors"][0]
    assert error["class"] == "BudgetExceededError"
    assert error["workload"] == "d3-orbit"
    assert error["stage"].startswith("lattices.")


def test_fallback_idle_on_csv_workload():
    _, record = run.run("d2-orbit-csv", 0, 0.0, True, TINY["d2-orbit-csv"], setup_repeats=1)
    assert record["values"]["fundamental.fallback.calls"] == 0
    assert record["values"]["fundamental.fast_path_ratio"] == 1.0
    assert record["values"]["harness.write_csv.bytes"] > 0


def test_checks_reject_a_corrupted_orbit(tmp_path):
    wl = workloads.OrbitD3(**TINY["d3-orbit"])
    state = wl.setup(0, str(tmp_path))
    nu = wl.run(state)
    assert wl.check(state, nu)[0].ok
    nu.gammas[3, 0, 1] += 1
    verdict = wl.check(state, nu)[0]
    assert not verdict.ok
    assert "gamma-det-1" in verdict.failures()


def test_checks_reject_a_shifted_fiber(tmp_path):
    wl = workloads.OrbitCusp(**TINY["d2-orbit-cusp"])
    state = wl.setup(0, str(tmp_path))
    nu = wl.run(state)
    nu.coords[5] = np.mod(nu.coords[5] + 1e-6, 1.0)
    assert wl.check(state, nu)[0].failures() == ["fiber-coords"]


def test_without_program_sources_exits_nonzero_without_result(tmp_path):
    root = HERE.parent
    shutil.copy(root / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "d3-orbit", "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
