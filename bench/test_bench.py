"""Smoke test of the benchmark: every workload at a tiny size.

Checks that each run reports every metric BENCHMARK.json names, with its
unit, and that a wrong reference value fails the replication it belongs to.
"""

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def one_import_probe(monkeypatch):
    monkeypatch.setattr(harness, "IMPORT_REPEATS", 1)


def tiny_run(name, trace, reference=None, seed=0):
    wl = harness.WORKLOADS[name]
    return harness.run_workload(name, seed, math.inf, trace, params=wl.tiny, max_reps=2, reference=reference)


def test_spec_and_command_line_list_every_workload():
    import run

    assert {w["name"] for w in SPEC["workloads"]} == set(harness.WORKLOADS) == set(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_reports_every_metric_with_its_unit(name, trace):
    result = tiny_run(name, trace).result()
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 2 and result["failed"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    json.dumps(result, allow_nan=False)


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_wrong_reference_fails_its_replication(name):
    wl = harness.WORKLOADS[name]
    state = wl.setup(wl.tiny, harness.NullTracer())
    reference = [
        {k: list(v) for k, v in wl.replicate(wl.tiny, state, 0, r, harness.NullTracer()).scores.items()}
        for r in range(2)
    ]
    assert tiny_run(name, False, reference).failed == 0

    main = wl.replicate(wl.tiny, state, 0, 1, harness.NullTracer()).main
    reference[1][main][0] += 0.5  # F1 far outside F1_ATOL
    run = tiny_run(name, False, reference)
    assert run.attempted == 2 and run.failed == 1
    assert run.failures[0].startswith("rep 1:")
    assert run.result()["correct"] is False
    assert run.result()["metrics"]["ops_ok_frac"]["value"] == 0.5


def test_reference_applies_only_to_the_default_seed():
    name = "cv_path"
    p = harness.WORKLOADS[name].params
    assert harness.load_reference(name, p, harness.DEFAULT_SEED + 1) is None
    assert harness.load_reference(name, harness.WORKLOADS[name].tiny, harness.DEFAULT_SEED) is None


def test_tail_percentile_keeps_ten_samples_beyond():
    values = list(range(100))
    assert harness.tail(values) == (89, 90.0, 10)
    assert harness.tail([3.0, 1.0]) == (3.0, 100.0, 0)


def test_layer_shares_add_up_to_one():
    m = tiny_run("cv_path", True).result()["metrics"]
    rep_layers = [f"{name}.share" for name in harness.REP_LAYERS] + ["driver.self.share"]
    assert sum(m[k]["value"] for k in rep_layers) == pytest.approx(1.0, rel=1e-9)
    assert m["driver.self.share"]["value"] < 0.1
    setup_layers = [f"{name}.share" for name in harness.SETUP_LAYERS]
    assert 0.5 < sum(m[k]["value"] for k in setup_layers) <= 1.0
