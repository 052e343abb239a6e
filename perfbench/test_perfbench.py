"""Tests of the benchmark itself.

Run from the root of a checkout::

    PYTHONPATH=src python3 -m pytest perfbench -q

The output-check tests run one real item of each workload (about
ten seconds in all); everything else is synthetic.
"""

from __future__ import annotations

import copy
import json
import sys
import types
from pathlib import Path

import pytest

from perfbench import layers, stats, worker, workloads
from perfbench.collector import Collector, EntryPoint

ROOT = Path(__file__).resolve().parent.parent


class FakeClock:
    """A clock that moves only when the test says work happened."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def work(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def tree(monkeypatch: pytest.MonkeyPatch):
    """A synthetic module: ``outer`` recurses once and calls ``leaf`` twice."""
    clock = FakeClock()
    module = types.ModuleType("perfbench_synthetic")
    module.invocations = {"outer": 0, "leaf": 0}

    def leaf(units: float) -> list:
        module.invocations["leaf"] += 1
        clock.work(units)
        return [0] * 3

    def outer(depth: int) -> int:
        module.invocations["outer"] += 1
        clock.work(1.0)
        module.leaf(2.0)
        if depth:
            module.outer(depth - 1)
        clock.work(0.5)
        module.leaf(0.25)
        return depth

    module.leaf = leaf
    module.outer = outer
    monkeypatch.setitem(sys.modules, module.__name__, module)
    return clock, module


def _count_items(counts, result, args, kwargs):
    counts["synthetic.items"] += len(result)


def test_self_times_plus_unattributed_equal_wall(tree):
    clock, module = tree
    original_outer, original_leaf = module.outer, module.leaf
    entry_points = (
        EntryPoint("synthetic.outer", "outerlayer", ((module.__name__, "outer"),)),
        EntryPoint("synthetic.leaf", "leaflayer", ((module.__name__, "leaf"),), _count_items),
    )
    with Collector(clock=clock) as collector:
        collector.install(entry_points)
        start = clock()
        clock.work(4.0)  # loop overhead outside any wrapped call
        module.outer(1)
        module.leaf(1.0)
        wall = clock() - start
    assert module.outer is original_outer and module.leaf is original_leaf

    # Every invocation counted once, recursion included.
    assert collector.calls == {"synthetic.outer": 2, "synthetic.leaf": 5}
    assert module.invocations == {"outer": 2, "leaf": 5}
    # outer's own work is 1.5 per call; leaf's is 2 + 0.25 per outer call, plus 1.
    assert collector.self_s["synthetic.outer"] == pytest.approx(3.0, abs=0)
    assert collector.self_s["synthetic.leaf"] == pytest.approx(5.5, abs=0)
    unattributed = wall - collector.attributed_s()
    assert unattributed == 4.0
    assert collector.attributed_s() + unattributed == wall
    assert collector.layer_self_s() == {"outerlayer": 3.0, "leaflayer": 5.5}
    assert collector.counts["synthetic.items"] == 15


def test_records_carry_their_item_and_add_up(tree):
    clock, module = tree
    entry_points = (
        EntryPoint("synthetic.outer", "outerlayer", ((module.__name__, "outer"),)),
        EntryPoint("synthetic.leaf", "leaflayer", ((module.__name__, "leaf"),)),
    )
    with Collector(clock=clock) as collector:
        collector.install(entry_points)
        for item in ("trial:1", "trial:2"):
            collector.item = item
            module.outer(0)
    records = collector.records()
    assert {r["item"] for r in records} == {"trial:1", "trial:2"}
    assert sum(r["calls"] for r in records) == sum(collector.calls.values())
    assert sum(r["self_s"] for r in records) == collector.attributed_s()


def test_a_raising_call_is_timed_and_unwound(tree):
    clock, module = tree

    def broken() -> None:
        clock.work(1.0)
        raise RuntimeError("boom")

    module.broken = broken
    entry = EntryPoint("synthetic.broken", "x", ((module.__name__, "broken"),))
    with Collector(clock=clock) as collector:
        collector.install((entry,))
        with pytest.raises(RuntimeError):
            module.broken()
        assert collector._stack == []
    assert collector.calls["synthetic.broken"] == 1
    assert collector.self_s["synthetic.broken"] == 1.0
    assert module.broken is broken


def test_every_entry_point_site_resolves_and_restores():
    with Collector() as collector:
        collector.install(layers.ENTRY_POINTS)
        from repro.serve.service import LocalizationService

        assert hasattr(LocalizationService.submit, "__wrapped__")
    assert not hasattr(LocalizationService.submit, "__wrapped__")
    import repro.scenarios.trials as trials

    assert not hasattr(trials.warehouse_trial, "__wrapped__")


# -- percentiles ---------------------------------------------------------------


def test_min_samples_and_highest_supported():
    assert stats.min_samples(90) == 100
    assert stats.min_samples(99) == 1000
    assert stats.min_samples(60) == 25
    assert stats.highest_supported(100) == 90
    assert stats.highest_supported(1000) == 99
    assert stats.highest_supported(25) == 60
    assert stats.highest_supported(99) == 89
    for n in (11, 37, 100, 480, 33928):
        q = stats.highest_supported(n)
        value = stats.percentile(range(n), q)
        beyond = sum(1 for i in range(n) if i > value)
        assert beyond >= stats.MIN_BEYOND


def test_percentile_matches_linear_interpolation():
    samples = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert stats.percentile(samples, 50) == 3.0
    assert stats.percentile(samples, 90) == pytest.approx(4.6)


def test_summarize_refuses_an_unsupported_tail():
    with pytest.raises(stats.UnsupportedTail, match="p90 needs at least 100"):
        stats.summarize("x", [1.0] * 99, 90.0)
    summary = stats.summarize("x", list(range(100)), 90.0)
    assert summary["n"] == 100 and summary["highest_q"] == 90


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_named_tails_are_supported_by_the_run_size(name):
    workload = workloads.WORKLOADS[name]
    ops = workload.min_items * workload.ops_per_item
    fixes = workload.min_items * workload.fixes_per_item
    stats.require_support(f"{name} op", ops, workload.op_tail_q)
    stats.require_support(f"{name} fix", fixes, workload.fix_tail_q)


def test_the_benchmark_refuses_a_run_too_small_for_its_tail():
    fig12 = workloads.WORKLOADS["fig12"]
    short = [workloads.ItemResult(op_s=[0.3], fix_s=[0.05], attempted=1) for _ in range(99)]
    with pytest.raises(stats.UnsupportedTail, match="fig12 trial latency"):
        worker.end_to_end(fig12, short, 30.0)
    enough = short + [workloads.ItemResult(op_s=[0.3], fix_s=[0.05], attempted=1)]
    metrics, _ = worker.end_to_end(fig12, enough, 30.0)
    assert metrics["ops_per_s"] == pytest.approx(1 / 0.3)


# -- output checks ---------------------------------------------------------------


def _first_item(workload, inputs):
    return next(workload.items(inputs))


def test_fig12_check_fails_on_a_perturbed_reference():
    workload = workloads.WORKLOADS["fig12"]
    inputs = workload.build_inputs(0)
    item = _first_item(workload, inputs)
    result = workload.run_item(inputs, item, None)
    workload.check(inputs, item, result)
    inputs["reference"] = copy.deepcopy(inputs["reference"])
    inputs["reference"]["errors_m"][item] += 1e-6
    with pytest.raises(workloads.OutputMismatch, match="^fig12: output check 'trial_error'"):
        workload.check(inputs, item, result)


def test_serve_replay_check_fails_on_a_perturbed_reference():
    workload = workloads.WORKLOADS["serve_replay"]
    inputs = workload.build_inputs(0)
    workload.check_inputs(inputs)
    result = workload.run_item(inputs, 0, None)
    workload.check(inputs, 0, result)
    perturbed = copy.deepcopy(inputs["stream"])
    perturbed["digest"] = "0" * 64
    with pytest.raises(workloads.OutputMismatch, match="^serve_replay: output check 'stream_digest'"):
        workload.check_inputs(dict(inputs, stream=perturbed))
    perturbed = copy.deepcopy(inputs["stream"])
    session = sorted(perturbed["estimates_m"])[0]
    perturbed["estimates_m"][session][0] += 1e-6
    with pytest.raises(workloads.OutputMismatch, match="^serve_replay: output check 'final_estimate'"):
        workload.check(dict(inputs, stream=perturbed), 0, result)


def test_soak_check_fails_on_a_perturbed_reference():
    workload = workloads.WORKLOADS["soak"]
    inputs = workload.build_inputs(0)
    item = _first_item(workload, inputs)
    result = workload.run_item(inputs, item, None)
    workload.check(inputs, item, result)
    key = item[0]
    for field, change in (("offered", 1), ("error_samples_m", 1e-6)):
        reference = copy.deepcopy(inputs["reference"])
        if field == "offered":
            reference[key]["offered"] += change
        else:
            reference[key]["error_samples_m"][0] += change
        with pytest.raises(workloads.OutputMismatch, match="^soak: output check"):
            workload.check(dict(inputs, reference=reference), item, result)


def test_worker_exits_nonzero_naming_the_workload(monkeypatch, capsys):
    workload = workloads.WORKLOADS["fig12"]
    reference = workloads.load_reference("fig12")
    reference["errors_m"] = [e + 1.0 for e in reference["errors_m"]]
    monkeypatch.setattr(workloads, "load_reference", lambda name: reference)
    monkeypatch.setattr(workload, "min_items", 1)
    code = worker.main(["--workload", "fig12", "--seed", "3", "--seconds", "0"])
    assert code == 3
    assert "fig12: output check 'trial_error' failed" in capsys.readouterr().err


# -- BENCHMARK.json and its metadata ----------------------------------------------


def _benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _metadata():
    return json.loads((ROOT / "perfbench" / "metadata.json").read_text())


def test_benchmark_json_lists_every_measured_metric():
    spec = _benchmark()
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _ in layers.PER_LAYER]
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_metadata_covers_every_workload_and_layer_metric():
    spec = _benchmark()
    meta = _metadata()
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    names = set(workloads.WORKLOADS)
    assert set(meta["workloads"]) == names
    benchmarked = {name for name, info in meta["workloads"].items() if info["in_benchmark_json"]}
    assert benchmarked == {w["name"] for w in spec["workloads"]}
    for info in meta["workloads"].values():
        assert set(info["end_to_end"]) | set(meta["all_workloads"]) == end_to_end
    listed = [m for row in meta["layer_metrics"] for m in row["metrics"]]
    assert sorted(listed) == sorted(m["name"] for m in spec["per_layer"])
    for row in meta["layer_metrics"]:
        assert set(row["moves"]) <= names
        for moved in row["moves"].values():
            assert set(moved) <= end_to_end
