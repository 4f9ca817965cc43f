"""Tests for the benchmark harness, reporting and experiment drivers (smoke)."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.bench.harness import (
    LAYOUT_ORDER,
    build_hap_database,
    compare_layouts,
    normalized_throughput,
    run_workload,
)
from repro.bench.reporting import banner, format_series, format_table
from repro.storage.layouts import LayoutKind
from repro.workload.hap import HAPConfig, make_workload
from repro.workload.operations import Delete, Insert, PointQuery, Update, Workload


@pytest.fixture(scope="module")
def tiny_config():
    return HAPConfig(num_rows=4_096, chunk_size=4_096, block_values=64)


def equi_database(config):
    return build_hap_database(LayoutKind.EQUI, config, partitions=8, monitor=False)


class TestHarness:
    def test_run_workload_aggregates(self, tiny_config):
        database = equi_database(tiny_config)
        workload = make_workload("hybrid_skewed", tiny_config, num_operations=200)
        result = run_workload(database, workload, layout_name="equi")
        assert result.operations + result.errors == 200
        assert result.simulated_seconds > 0
        assert result.throughput_ops > 0
        assert "insert" in result.mean_latency_ns
        assert result.counts["insert"] > 0

    def test_run_workload_batched_matches_sequential_accesses(self, tiny_config):
        workload = make_workload("hybrid_skewed", tiny_config, num_operations=200)
        sequential_database = equi_database(tiny_config)
        batch_database = equi_database(tiny_config)
        sequential = run_workload(sequential_database, workload, layout_name="equi")
        batched = run_workload(
            batch_database, workload, layout_name="equi", batch_size=64
        )
        assert batched.operations == sequential.operations
        assert batched.errors == sequential.errors
        # Grouped reads charge identically; grouped writes coalesce ripple
        # charges, so every access tally is bounded by the sequential one
        # and the index-probe count (never coalesced) matches exactly.
        # (The <= bound is order-safe here because hybrid_skewed has no
        # deletes and inserts only fresh unique keys -- see
        # StorageEngine.execute_batch's duplicate-key caveat.)
        batch_counts = batch_database.engine.counter.snapshot()
        sequential_counts = sequential_database.engine.counter.snapshot()
        assert batch_counts.index_probes == sequential_counts.index_probes
        for field in ("random_reads", "random_writes", "seq_reads", "seq_writes"):
            assert getattr(batch_counts, field) <= getattr(sequential_counts, field)
        assert batched.counts["batch"] == 200 // 64 + 1

    def test_run_workload_rejects_bad_batch_size(self, tiny_config):
        database = equi_database(tiny_config)
        workload = make_workload("hybrid_skewed", tiny_config, num_operations=10)
        with pytest.raises(ValueError):
            run_workload(database, workload, batch_size=0)

    def test_build_casper_engine_requires_training(self, tiny_config):
        with pytest.raises(ValueError):
            build_hap_database(LayoutKind.CASPER, tiny_config)

    def test_build_every_layout(self, tiny_config):
        training = make_workload("hybrid_skewed", tiny_config, num_operations=100)
        for layout in LAYOUT_ORDER:
            database = build_hap_database(
                layout, tiny_config, training_workload=training, partitions=8
            )
            assert database.table.num_rows == tiny_config.num_rows

    def test_compare_layouts_and_normalization(self, tiny_config):
        results = compare_layouts(
            tiny_config,
            "hybrid_skewed",
            layouts=(LayoutKind.CASPER, LayoutKind.STATE_OF_ART, LayoutKind.SORTED),
            num_operations=150,
            partitions=8,
        )
        normalized = normalized_throughput(results)
        assert normalized[LayoutKind.STATE_OF_ART] == pytest.approx(1.0)
        assert all(value > 0 for value in normalized.values())

    def test_casper_beats_sorted_on_hybrid(self, tiny_config):
        results = compare_layouts(
            tiny_config,
            "hybrid_skewed",
            layouts=(LayoutKind.CASPER, LayoutKind.SORTED),
            num_operations=300,
            partitions=8,
        )
        assert (
            results[LayoutKind.CASPER].throughput_ops
            > results[LayoutKind.SORTED].throughput_ops
        )


def _significant(value):
    """``value`` with floats rounded to 9 significant digits, so the
    digest does not depend on the last bits of a platform's float sums."""
    if isinstance(value, float):
        return float(f"{value:.9g}")
    if isinstance(value, dict):
        return {key: _significant(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_significant(item) for item in value]
    return value


def _misses_workload() -> Workload:
    """Hits mixed with deletes and updates of keys the HAP table never
    loaded (its keys are even), so both dispatch paths count misses."""
    operations = []
    for step in range(40):
        loaded, absent = 8 * step, 8 * step + 1
        operations += [
            PointQuery(loaded),
            Delete(absent),
            Update(absent, absent + 2),
            Delete(loaded + 2),
            Update(loaded + 4, absent + 4),
            Insert(10_001 + 2 * step),
        ]
    return Workload(operations=operations, name="misses")


class TestHarnessPin:
    """The figure harness's output, pinned: every layout of the paper's
    comparison, serial and in 64-operation slices."""

    CONFIG = HAPConfig(num_rows=4_096, chunk_size=2_048, block_values=64)
    PROFILES = ("hybrid_skewed", "write_heavy", "update_only_skewed")
    FIELDS = (
        "operations", "errors", "simulated_seconds", "mean_latency_ns",
        "p999_latency_ns", "counts", "batch_sizes",
    )
    DIGEST = "6a568307241b64c768500687f4e68db74d863b3b8a8f3966058f7c304ac83a85"

    def outputs(self) -> dict:
        config = self.CONFIG
        workloads = {
            profile: (
                make_workload(profile, config, num_operations=200, seed=7),
                make_workload(profile, config, num_operations=200, seed=42),
            )
            for profile in self.PROFILES
        }
        workloads["misses"] = (workloads["hybrid_skewed"][0], _misses_workload())
        pinned = {}
        for name, (training, evaluation) in workloads.items():
            for layout in LAYOUT_ORDER:
                for batch_size in (None, 64):
                    database = build_hap_database(
                        layout,
                        config,
                        training_workload=training,
                        partitions=8,
                        monitor=False,
                    )
                    result = run_workload(
                        database,
                        evaluation,
                        layout_name=layout.value,
                        constants=database.constants,
                        batch_size=batch_size,
                    )
                    pinned[f"{name}/{layout.value}/{batch_size}"] = {
                        field: _significant(getattr(result, field))
                        for field in self.FIELDS
                    }
        return pinned

    def test_run_workload_outputs(self):
        outputs = self.outputs()
        # Every absent-key delete and update is a miss on both paths.
        assert all(
            outputs[f"misses/{layout.value}/{batch_size}"]["errors"] == 80
            for layout in LAYOUT_ORDER
            for batch_size in (None, 64)
        )
        digest = hashlib.sha256(
            json.dumps(outputs, sort_keys=True).encode()
        ).hexdigest()
        assert digest == self.DIGEST


class TestReporting:
    def test_format_table_aligns_columns(self):
        text = format_table(("a", "bbb"), [(1, 2.5), ("x", 1e9)])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_format_series(self):
        text = format_series("curve", [1, 2], [0.5, 0.25])
        assert "curve" in text

    def test_banner(self):
        assert "title" in banner("title")


class TestExperimentSmoke:
    """Tiny-scale smoke runs of each experiment driver."""

    def test_fig1(self):
        from repro.bench.experiments import fig1

        results = fig1.run(
            fig1.Figure1Config(num_rows=8_192, block_values=128, num_operations=150)
        )
        assert len(results) == 3
        assert fig1.report(results)

    def test_fig2(self):
        from repro.bench.experiments import fig2

        results = fig2.run(
            fig2.Figure2Config(
                num_blocks=32,
                block_values=128,
                partition_counts=(1, 4, 16, 32),
                ghost_fractions=(0.0, 0.01),
                operations=100,
            )
        )
        structure = results["structure"]
        assert structure[0][1] >= structure[-1][1]  # read cost falls
        assert structure[0][2] <= structure[-1][2]  # write cost rises
        assert fig2.report(results)

    def test_fig9(self):
        from repro.bench.experiments import fig9

        results = fig9.run(
            fig9.Figure9Config(
                chunk_values=16_384, block_values=128, insert_partitions=16,
                pq_partitions=6, repetitions=2,
            )
        )
        for rows in results.values():
            for _partition, measured, model, ratio in rows:
                assert measured > 0 and model > 0
                assert 0.2 < ratio < 5.0
        assert fig9.report(results)

    def test_fig11(self):
        from repro.bench.experiments import fig11

        results = fig11.run(
            fig11.Figure11Config(
                data_sizes=(10_000, 1_000_000),
                chunk_counts=(1, 100),
                calibration_blocks=64,
                measured_max_blocks=256,
            )
        )
        assert len(results["rows"]) == 2
        assert fig11.report(results)

    def test_fig16(self):
        from repro.bench.experiments import fig16

        results = fig16.run(
            fig16.Figure16Config(
                num_blocks=64,
                operations=2_000,
                mass_shifts=(0.0, 0.15),
                rotational_shifts=(0.0, 0.25, 0.5),
            )
        )
        matrix = results["matrix"]
        assert matrix[0.0][0] == pytest.approx(1.0)
        # A large rotational shift should hurt the trained layout.
        assert matrix[0.0][-1] >= matrix[0.0][0]
        assert fig16.report(results)

    def test_compression(self):
        from repro.bench.experiments import compression

        results = compression.run(
            compression.CompressionConfig(num_values=16_384, partition_counts=(1, 64))
        )
        ratios = {name: dict_ratio for name, dict_ratio, _for, _rle in results["ratios"]}
        assert all(value > 1.0 for value in ratios.values())
        partitioned = dict(results["partitioned_for"])
        assert partitioned[64] >= partitioned[1]
        assert compression.report(results)
