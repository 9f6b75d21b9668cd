"""Tests of the benchmark itself: inputs, oracles, tracing and the runner.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import child  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def lib():
    return SimpleNamespace(**child.import_program(str(run.SRC)))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_a_function_of_the_seed(workload):
    items = workloads.build(workload, 3)
    assert items == workloads.build(workload, 3)
    assert items != workloads.build(workload, 4)
    assert len(items) >= 100  # p90 keeps ten samples beyond it
    kinds = lambda xs: sorted((x[0], x[2] if x[0] == "twist" else None) for x in xs)
    assert kinds(items) == kinds(workloads.build(workload, 4))  # same mix on every seed


def test_twist_oracle_reproduces_the_paper_below_100(lib):
    items = [("twist", p, workloads.twist_passes(p)) for p in workloads.primes_between(2, 100)]
    assert [p for _, p, passes in items if passes] == [17, 41, 97]
    assert child.run_items(items, lib)["failed"] == 0


def test_every_item_kind_passes_its_oracle(lib):
    items = [("twist", 17, True), ("twist", 73, False), ("fibre", "infinity"), ("fibre", "-1/2"),
             ("selmer", "verify"), ("hilbert3", 2, 60), ("norm", (1, 0, 2, -1, 0, 1), (0, 1, 1, 1, -2, 0))]
    result = child.run_items(items, lib)
    assert result["failed"] == 0, result["errors"]
    assert result["attempted"] == len(result["latencies"]) == len(items)


@pytest.mark.parametrize("key, wrong, item", [
    ("twist_total", ["0"], ("twist", 41, True)),
    ("fibre_invariant", "0", ("fibre", "1")),
    ("F_class", [1, 0, 1, 1], ("selmer", "verify")),
    ("gamma_norm", ["10", "0"], ("selmer", "verify")),
])
def test_a_perturbed_expectation_raises_the_error_rate(lib, monkeypatch, key, wrong, item):
    assert child.run_items([item], lib)["failed"] == 0
    monkeypatch.setitem(workloads.EXPECTED, key, wrong)
    assert child.run_items([item], lib)["failed"] == 1


def test_output_of_an_unexpected_shape_is_an_error(lib, monkeypatch):
    report = '{"status": "ok", "result": {"message": "no F_class here"}}'
    monkeypatch.setattr(workloads, "execute", lambda item, lib: (0, report))
    result = child.run_items([("selmer", "verify")], lib)
    assert result["failed"] == 1 and "unexpected shape" in result["errors"][0]


def test_a_wrong_condition_verdict_is_an_error(lib):
    assert child.run_items([("twist", 73, True), ("twist", 17, False)], lib)["failed"] == 2


def test_tracer_times_public_functions_and_restores_them(lib):
    modules = vars(lib)
    before = {name: dict(vars(module)) for name, module in modules.items()}
    tracer = spans.Tracer(modules)
    child.run_items([("twist", 17, True), ("fibre", "1")], lib, tracer)
    assert {name: dict(vars(module)) for name, module in modules.items()} == before
    stats = tracer.summary()["functions"]
    assert stats["cli.main"][0] == 1
    assert stats["reichardt_lind.forced_section_invariants"][0] == 1
    assert stats["padic.power_class"][0] > 0 and stats["padic.power_class"][1] > 0
    assert not any(key.split(".")[1].startswith("_") for key in stats)


def test_traced_counts_repeat_across_fresh_processes():
    first, second = (run.spawn("trace", "cubic", "0", timeout=120)[0] for _ in range(2))
    calls = lambda res: {key: stat[0] for key, stat in res["trace"]["functions"].items()}
    assert calls(first) == calls(second)
    assert calls(first)["tower.norm_K_over_k"] > 0


def test_differing_counts_are_reported():
    trace = lambda calls: {"trace": {"functions": {"exact.factorize": [calls, 0.1, 0, 0, 0.1]},
                                     "cache_entries": {}}, "wall_s": 2.0, "raw_wall_s": 1.0}
    data = {"traces": [trace(5), trace(6)], "runs": [{"wall_s": 2.0}], "imports": [{}]}
    metrics, unstable = run.per_layer(data)
    assert unstable == ["exact.calls", "exact.factorize.calls"]
    assert metrics["exact.self_s"] == pytest.approx(0.2)  # on the reference scale


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cubic", "--seed", "0",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_result_line_names_every_metric_of_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
