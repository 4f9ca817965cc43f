"""End-to-end integration tests: plan -> build -> execute -> verify."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.database import Database
from repro.bench.harness import build_hap_database, run_workload
from repro.core.planner import CasperPlanner
from repro.storage.cost_accounting import constants_for_block_values
from repro.storage.layouts import LayoutKind
from repro.workload.hap import HAPConfig, build_table, make_workload
from repro.workload.operations import Delete, Insert, PointQuery, RangeQuery, Update


@pytest.fixture(scope="module")
def config():
    return HAPConfig(num_rows=8_192, chunk_size=2_048, block_values=64)


def reference_execute(keys: set[int], workload) -> list[int]:
    """Plain-Python reference results (point counts / range counts)."""
    answers = []
    for operation in workload:
        if isinstance(operation, PointQuery):
            answers.append(1 if operation.key in keys else 0)
        elif isinstance(operation, RangeQuery):
            answers.append(sum(1 for k in keys if operation.low <= k <= operation.high))
        elif isinstance(operation, Insert):
            keys.add(operation.key)
            answers.append(-1)
        elif isinstance(operation, Delete):
            keys.discard(operation.key)
            answers.append(-1)
        elif isinstance(operation, Update):
            keys.discard(operation.old_key)
            keys.add(operation.new_key)
            answers.append(-1)
    return answers


class TestEndToEnd:
    def test_casper_pipeline_multi_chunk(self, config):
        """The full Casper pipeline: sample -> plan per chunk -> execute."""
        training = make_workload("hybrid_skewed", config, num_operations=400, seed=3)
        planner = CasperPlanner(
            sample_workload=training,
            block_values=config.block_values,
            ghost_fraction=0.005,
            constants=constants_for_block_values(config.block_values),
        )
        table = build_table(config, planner.build_chunk)
        assert table.num_chunks == config.num_rows // config.chunk_size
        assert len(planner.plans) == table.num_chunks
        database = Database(table, monitor=False)
        workload = make_workload("hybrid_skewed", config, num_operations=400, seed=11)
        result = run_workload(database, workload, layout_name="casper")
        assert result.errors == 0
        table.check_invariants()

    @pytest.mark.parametrize(
        "layout",
        [LayoutKind.CASPER, LayoutKind.STATE_OF_ART, LayoutKind.EQUI_GV, LayoutKind.SORTED],
    )
    def test_query_results_match_reference(self, config, layout):
        """Every layout returns the same answers as a plain-Python reference."""
        training = make_workload("hybrid_skewed", config, num_operations=200, seed=3)
        engine = build_hap_database(
            layout, config, training_workload=training, partitions=8, monitor=False
        ).engine
        workload = make_workload("read_only_uniform", config, num_operations=300, seed=5)
        keys = set((np.arange(config.num_rows) * 2).tolist())
        expected = reference_execute(set(keys), workload)
        for operation, reference in zip(workload, expected):
            result = engine.execute(operation)
            if isinstance(operation, PointQuery):
                assert len(result) == reference
            elif isinstance(operation, RangeQuery) and reference >= 0:
                if operation.attribution()[0] == "range_count":
                    assert result == reference

    def test_mixed_workload_preserves_key_multiset(self, config):
        """After a write-heavy workload the engine's keys match the reference."""
        training = make_workload("update_only_uniform", config, num_operations=200, seed=3)
        engine = build_hap_database(
            LayoutKind.CASPER, config, training_workload=training, partitions=8,
            ghost_fraction=0.01, monitor=False,
        ).engine
        workload = make_workload(
            "update_only_uniform", config, num_operations=500, seed=23
        )
        keys = set((np.arange(config.num_rows) * 2).tolist())
        reference_execute(keys, workload)
        for operation in workload:
            engine.execute(operation)
        engine.table.check_invariants()
        assert sorted(engine.table.keys().tolist()) == sorted(keys)

    def test_casper_layout_quality_vs_equi(self, config):
        """The optimizer's layout is no worse than equi-width under its own cost model."""
        from repro.core.cost_model import CostModel, boundaries_to_vector
        from repro.core.frequency_model import learn_from_workload

        training = make_workload("hybrid_skewed", config, num_operations=500, seed=3)
        values = np.arange(config.chunk_size, dtype=np.int64) * 2
        model = learn_from_workload(training, values, block_values=config.block_values)
        constants = constants_for_block_values(config.block_values)
        cost_model = CostModel(model, constants)
        from repro.core.dp_solver import solve_dp

        optimal = solve_dp(cost_model)
        num_blocks = model.num_blocks
        equi = boundaries_to_vector(
            num_blocks, np.linspace(num_blocks // 8, num_blocks, 8).astype(int)
        )
        assert optimal.cost <= cost_model.total_cost(equi) + 1e-6
