"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py -q

Runs use one round per workload (``min_ops=1``) to stay short; the standard
op count applies only to ``run.py`` runs.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.use_checkout()

import workloads  # noqa: E402

FRESH_SEED = 20261017
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
_results = {}


def result_for(name: str, trace: bool) -> dict:
    if (name, trace) not in _results:
        _results[name, trace] = run.run_workload(name, FRESH_SEED, seconds=0, trace=trace, min_ops=1)
    return _results[name, trace]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_metric_names_and_units_match_benchmark_json(name, trace):
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    emitted = result_for(name, trace)["metrics"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in emitted.items()}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_fresh_seed_passes_every_check(name, trace):
    result = result_for(name, trace)
    assert result["record"]["failures"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert result["record"]["cross_checked"] == 301


def test_workload_inputs_follow_the_seed(tmp_path):
    wl = workloads.RegularWorkload()
    rounds = [wl.make_round(workloads.round_rng("regular", seed, 0), tmp_path) for seed in (5, 5, 6)]
    assert rounds[0] == rounds[1] != rounds[2]


def test_sabotaged_teq_fails_the_run(monkeypatch):
    real = workloads.teq.minimal_retentive_sets

    def first_set_only(t, cache=None):
        return real(t, cache)[:1]

    for module in (workloads.teq, workloads.counterexample, workloads.search):
        monkeypatch.setattr(module, "minimal_retentive_sets", first_set_only)
    result = run.run_workload("cli", FRESH_SEED, seconds=0, trace=False, min_ops=1)
    assert result["failed"] / result["attempted"] > 0
    assert not result["correct"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "search", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
