"""Smoke test of the benchmark itself, at ``--scale tiny`` (a few seconds).

No timing is asserted -- only that the benchmark emits what
``BENCHMARK.json`` declares, that its counts are exact, that each layer's
numbers appear on the workload that stresses it and read zero on the ones
that bypass it, and that the checker really checks.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import oracle
import run
import workloads

SINGLE_PROCESS = ("olap_mem", "drift_reorg", "oltp_durable")


def _exact(result: dict) -> dict:
    """The numbers that must repeat exactly for a seed."""
    counts = {
        name: result["per_layer"][name]
        for name, unit in run.PER_LAYER.items()
        if unit == "count"
    }
    counts["sim_ns_per_op"] = result["end_to_end"]["sim_ns_per_op"]
    counts["attempted"] = result["attempted"]
    return counts


@pytest.fixture(scope="module")
def results():
    return {
        name: run.run_workload(name, 11, 1.0, True, "tiny", setups=1)
        for name in workloads.WORKLOADS
    }


def test_manifest_matches_the_benchmark(results):
    manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert manifest["command"] == ["python3", "perf/run.py"]
    assert manifest["paths"] == ["perf"]
    assert [w["name"] for w in manifest["workloads"]] == list(workloads.WORKLOADS)
    declared = {
        m["name"]: (m["unit"], m["better"], m["bound"])
        for m in manifest["end_to_end"]
    }
    assert declared == run.END_TO_END
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == run.PER_LAYER
    for result in results.values():
        assert list(result["end_to_end"]) == list(run.END_TO_END)
        assert list(result["per_layer"]) == list(run.PER_LAYER)
        contract = json.loads(run._contract_line(result))
        assert set(contract) == {"correct", "attempted", "failed", "metrics"}
        assert set(contract["metrics"]) == set(run.PER_LAYER)


def test_every_workload_is_correct(results):
    for name, result in results.items():
        assert result["correct"], name
        assert result["failed"] == 0 and result["attempted"] > 0, name
        assert result["per_layer"]["ipc.shm.leaked_segments"] == 0, name
        assert all(value > 0 for value in result["end_to_end"].values()), name


def test_counts_repeat_for_a_seed_and_differ_for_another(results):
    for name in SINGLE_PROCESS:
        again = run.run_workload(name, 11, 1.0, True, "tiny", setups=1)
        assert _exact(again) == _exact(results[name]), name
    other = run.run_workload("olap_mem", 12, 1.0, True, "tiny", setups=1)
    assert _exact(other) != _exact(results["olap_mem"])


def test_layers_show_on_their_stress_workload_and_read_zero_on_bypass(results):
    def layer(workload: str, prefix: str) -> dict:
        return {
            name: value
            for name, value in results[workload]["per_layer"].items()
            if name.startswith(prefix)
        }

    for prefix in ("durability.", "replication."):
        for name in ("olap_mem", "drift_reorg", "sharded_htap"):
            assert not any(layer(name, prefix).values()), (name, prefix)
        assert all(layer("oltp_durable", prefix).values()), prefix
    for prefix in ("sharding.", "ipc.framing."):
        for name in SINGLE_PROCESS:
            assert not any(layer(name, prefix).values()), (name, prefix)
        shown = layer("sharded_htap", prefix)
        shown.pop("sharding.codec.inline_fallbacks", None)
        assert all(shown.values()), prefix
    for prefix in ("api.reorg", "core.dp_solver."):
        for name in ("olap_mem", "oltp_durable", "sharded_htap"):
            assert not any(layer(name, prefix).values()), (name, prefix)
    drift = results["drift_reorg"]["per_layer"]
    assert drift["api.reorg.replans"] > 0
    assert drift["api.reorganizer.after_execute_ms"] > 0
    assert drift["core.dp_solver.solve_ms"] > 0
    for name in ("olap_mem", "drift_reorg"):
        assert all(layer(name, "core.monitor.").values()), name
        assert results[name]["per_layer"]["api.policies.slices_per_call"] > 0
    for name in ("oltp_durable", "sharded_htap"):
        assert not any(layer(name, "core.monitor.").values()), name
        assert results[name]["per_layer"]["api.policies.slices_per_call"] == 0
    # The client of a sharded database runs none of the storage spine.
    for prefix in ("api.session.self", "api.policies.", "storage.engine.",
                   "storage.table.", "storage.column."):
        assert not any(layer("sharded_htap", prefix).values()), prefix
        for name in SINGLE_PROCESS:
            assert any(layer(name, prefix).values()), (name, prefix)
    for result in results.values():
        assert 0.9 <= result["per_layer"]["trace.self_time_coverage"] <= 1.0


def test_the_checker_checks():
    from repro.storage.table import Row
    from repro.workload.operations import Delete, PointQuery, RangeQuery

    keys = np.asarray([0, 2, 4], dtype=np.int64)
    payload = np.asarray([[1, 1], [2, 2], [3, 3]], dtype=np.int64)
    ops = [PointQuery(2), RangeQuery(0, 4), Delete(4), Delete(4)]
    right = [[Row(2, 1, {"a": 2, "b": 2})], 3, 1, None]
    assert oracle.Oracle(keys, payload, 8).check(ops, right, 1) == (4, 0)
    wrong_row = [[Row(2, 1, {"a": 2, "b": 9})], 3, 1, None]
    assert oracle.Oracle(keys, payload, 8).check(ops, wrong_row, 1) == (4, 1)
    wrong_count = [right[0], 2, 1, None]
    assert oracle.Oracle(keys, payload, 8).check(ops, wrong_count, 1) == (4, 1)
    phantom_delete = [right[0], 3, 1, 1]
    assert oracle.Oracle(keys, payload, 8).check(ops, phantom_delete, 0)[1] >= 1
    # A row the program lost shows in the whole-table comparison.
    model = oracle.Oracle(keys, payload, 8)
    lost = oracle.sort_rows(keys[:2], payload[:2])
    assert oracle.missing_rows(model.live_rows(), lost) == 1
