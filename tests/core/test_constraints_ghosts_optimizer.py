"""Tests for SLA constraints, ghost allocation, the optimizer facade and the planner."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.constraints import InfeasibleSLAError, SLAConstraints, StructuralBounds
from repro.core.cost_model import boundaries_to_vector
from repro.core.frequency_model import FrequencyModel, learn_from_workload
from repro.core.ghost_allocation import (
    allocate_ghost_values,
    data_movement_per_block,
    data_movement_per_partition,
)
from repro.core.bip_solver import solve_bip
from repro.core.dp_solver import brute_force
from repro.core.optimizer import LayoutSolution, optimize_layout
from repro.core.planner import CasperPlanner
from repro.storage.cost_accounting import CostConstants, constants_for_block_values
from repro.workload.operations import Insert, PointQuery, RangeQuery, Update, Workload


def constants():
    return CostConstants(random_read=100, random_write=100, seq_read=500, seq_write=500)


class TestSLAConstraints:
    def test_update_sla_limits_partitions(self):
        sla = SLAConstraints(update_sla_ns=2_000)
        bounds = sla.to_bounds(64, constants())
        # 2000 / (100 + 100) - 1 = 9 partitions.
        assert bounds.max_partitions == 9
        assert bounds.max_partition_blocks is None

    def test_read_sla_limits_partition_width(self):
        sla = SLAConstraints(read_sla_ns=2_100)
        bounds = sla.to_bounds(64, constants())
        # (2100 - 100) / 500 = 4 blocks.
        assert bounds.max_partition_blocks == 4
        assert bounds.max_partitions is None

    def test_update_sla_infeasible(self):
        with pytest.raises(InfeasibleSLAError):
            SLAConstraints(update_sla_ns=150).to_bounds(64, constants())

    def test_read_sla_infeasible(self):
        with pytest.raises(InfeasibleSLAError):
            SLAConstraints(read_sla_ns=50).to_bounds(64, constants())

    def test_jointly_infeasible(self):
        sla = SLAConstraints(update_sla_ns=600, read_sla_ns=600)
        with pytest.raises(InfeasibleSLAError):
            sla.to_bounds(64, constants())

    def test_no_slas_yield_empty_bounds(self):
        bounds = SLAConstraints().to_bounds(64, constants())
        assert bounds == StructuralBounds()

    def test_max_insert_latency(self):
        sla = SLAConstraints()
        assert sla.max_insert_latency_ns(9, constants()) == pytest.approx(2_000)


class TestGhostAllocation:
    def test_data_movement_concentrated_where_inserts_ripple(self):
        model = FrequencyModel(8)
        model.ins[:] = [4, 0, 0, 0, 0, 0, 0, 4]
        vector = np.ones(8, dtype=bool)
        movement = data_movement_per_block(model, vector)
        # Early inserts ripple through more partitions than late ones.
        assert movement[0] > movement[7]

    def test_partition_aggregation(self):
        model = FrequencyModel(8)
        model.ins[:] = 1
        vector = boundaries_to_vector(8, [4, 8])
        per_partition = data_movement_per_partition(model, vector)
        assert per_partition.shape == (2,)
        assert per_partition[0] > per_partition[1]

    def test_allocation_sums_to_budget(self):
        model = FrequencyModel(8)
        model.ins[:] = [5, 1, 1, 1, 1, 1, 1, 5]
        vector = boundaries_to_vector(8, [2, 4, 6, 8])
        allocation = allocate_ghost_values(model, vector, 100)
        assert allocation.per_partition.sum() == 100
        assert allocation.num_partitions == 4

    def test_allocation_prefers_update_targets(self):
        model = FrequencyModel(8)
        model.utf[:] = [0, 0, 0, 0, 0, 0, 10, 0]
        model.ins[:] = [1, 0, 0, 0, 0, 0, 0, 0]
        vector = boundaries_to_vector(8, [4, 8])
        allocation = allocate_ghost_values(model, vector, 10)
        assert allocation.per_partition[1] > 0

    def test_negative_budget_rejected(self):
        model = FrequencyModel(4)
        with pytest.raises(ValueError):
            allocate_ghost_values(model, np.ones(4, dtype=bool), -1)


class TestOptimizerFacade:
    def make_model(self):
        model = FrequencyModel(16)
        model.pq[:] = 2
        model.ins[:8] = 3
        return model

    def test_solution_offsets_cover_chunk(self):
        solution = optimize_layout(
            self.make_model(), chunk_size=16 * 64, block_values=64
        )
        assert isinstance(solution, LayoutSolution)
        offsets = solution.boundary_offsets()
        assert offsets[-1] == 16 * 64
        assert np.all(np.diff(offsets) > 0)

    def test_solver_backends_agree(self):
        model = FrequencyModel(10)
        model.pq[:] = 1
        model.ins[:5] = 2
        dp = optimize_layout(model, chunk_size=640, block_values=64)
        assert dp.cost == pytest.approx(solve_bip(dp.cost_model).cost)
        assert dp.cost == pytest.approx(brute_force(dp.cost_model).cost)

    def test_sla_is_applied(self):
        model = FrequencyModel(16)
        model.pq[:] = 5
        unconstrained = optimize_layout(model, chunk_size=1024, block_values=64)
        constrained = optimize_layout(
            model,
            chunk_size=1024,
            block_values=64,
            constants=constants(),
            sla=SLAConstraints(update_sla_ns=1_000),
        )
        assert unconstrained.num_partitions > constrained.num_partitions
        assert constrained.num_partitions <= 4


class TestCasperPlanner:
    def make_planner(self, values, workload=None, **kwargs):
        if workload is None:
            workload = Workload(
                operations=(
                    [PointQuery(key=int(values[i])) for i in range(0, 200, 5)]
                    + [Insert(key=int(values[-1]) + 1 + 2 * i) for i in range(40)]
                    + [RangeQuery(low=int(values[10]), high=int(values[200]))]
                    + [Update(old_key=int(values[3]), new_key=int(values[-5]) + 1)]
                )
            )
        return CasperPlanner(
            sample_workload=workload,
            block_values=64,
            constants=constants_for_block_values(64),
            **kwargs,
        )

    def test_plan_produces_valid_boundaries(self, small_values):
        planner = self.make_planner(small_values)
        plan = planner.plan_chunk(small_values)
        assert plan.boundaries[-1] == small_values.size
        assert np.all(np.diff(plan.boundaries) > 0)
        assert plan.estimated_cost > 0

    def test_plan_allocates_ghosts(self, small_values):
        planner = self.make_planner(small_values, ghost_fraction=0.01)
        plan = planner.plan_chunk(small_values)
        assert plan.ghost_allocation is not None
        assert plan.ghost_allocation.sum() == int(round(small_values.size * 0.01))

    def test_zero_ghost_fraction(self, small_values):
        planner = self.make_planner(small_values, ghost_fraction=0.0)
        plan = planner.plan_chunk(small_values)
        assert plan.ghost_allocation is None

    def test_build_chunk_returns_working_column(self, small_values):
        from repro.storage.cost_accounting import AccessCounter

        planner = self.make_planner(small_values, ghost_fraction=0.005)
        column = planner.build_chunk(
            small_values, np.arange(small_values.size), AccessCounter()
        )
        assert column.size == small_values.size
        column.check_invariants()
        probe = int(small_values[17])
        assert column.point_query(probe, return_rowids=True).tolist() == [17]

    def test_empty_chunk_rejected(self, small_values):
        planner = self.make_planner(small_values)
        with pytest.raises(ValueError):
            planner.plan_chunk(np.empty(0, dtype=np.int64))

    def test_workload_restricted_to_chunk_range(self, small_values):
        other_chunk_ops = [PointQuery(key=int(small_values[-1]) + 10_000)] * 50
        workload = Workload(
            operations=other_chunk_ops + [PointQuery(key=int(small_values[0]))]
        )
        planner = self.make_planner(small_values, workload=workload)
        restricted = planner._restrict_workload(small_values)
        assert restricted.lows.tolist() == [int(small_values[0])]

    def test_read_hot_region_gets_finer_partitions(self, medium_values):
        # Point queries hammer the last 10% of the domain; inserts hit the front.
        hot = [
            PointQuery(key=int(v))
            for v in medium_values[-len(medium_values) // 10 :: 10]
        ]
        cold_inserts = [
            Insert(key=int(medium_values[i]) + 1) for i in range(0, 2_000, 10)
        ]
        workload = Workload(operations=hot * 3 + cold_inserts)
        planner = self.make_planner(medium_values, workload=workload)
        plan = planner.plan_chunk(medium_values)
        widths = np.diff(np.concatenate(([0], plan.boundaries)))
        hot_width = widths[-1]
        cold_width = widths[0]
        assert hot_width <= cold_width
