"""Casper layout planner: workload sample -> per-chunk physical layout.

This is the component marked (A)-(C) in the paper's architecture diagram
(Fig. 10): it learns the Frequency Model from a workload sample, solves the
layout optimization problem per chunk, allocates ghost values and applies
the physical layout by constructing the storage structures.  The sample is
an offline ``Workload`` or the columns a
:class:`~repro.core.monitor.WorkloadMonitor` recorded for a drifted chunk;
either is read as :class:`~repro.core.frequency_model.SampleColumns` once,
and each chunk learns from the rows that touch its key range.

The planner also serves as the ``chunk_builder`` plug-in for
:class:`repro.storage.table.Table`, which is how the benchmark harness builds
the Casper operation mode of the Fig. 12/13 experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from ..storage.column import PartitionedColumn, snap_boundaries_to_duplicates
from ..storage.cost_accounting import (
    DEFAULT_BLOCK_VALUES,
    DEFAULT_COST_CONSTANTS,
    AccessCounter,
    CostConstants,
)
from ..storage.ghost_values import fold_onto_snapped, ghost_budget_from_fraction
from ..workload.operations import Workload
from .constraints import SLAConstraints
from .cost_model import CostModel, boundaries_to_vector
from .frequency_model import (
    FrequencyModel,
    SampleColumns,
    learn_from_workload,
    sample_columns,
)
from .ghost_allocation import GhostAllocation, allocate_ghost_values
from .optimizer import LayoutSolution, optimize_layout


@dataclass
class ChunkPlan:
    """Physical layout decision for one column chunk."""

    boundaries: np.ndarray
    ghost_allocation: np.ndarray | None
    solution: LayoutSolution
    frequency_model: FrequencyModel

    @property
    def num_partitions(self) -> int:
        """Number of partitions in the plan."""
        return int(self.boundaries.shape[0])

    @property
    def estimated_cost(self) -> float:
        """Optimizer-estimated workload cost for the chunk."""
        return self.solution.cost


@dataclass
class CasperPlanner:
    """Workload-driven layout planner (the Casper column layout tool).

    Parameters
    ----------
    sample_workload:
        Representative workload sample used to learn the Frequency Model:
        a ``Workload``, or a monitor's recorded ``SampleColumns``.
    block_values:
        Values per logical block (16KB blocks by default).
    ghost_fraction:
        Total ghost-value budget as a fraction of each chunk's size.
    constants:
        Block-access cost constants.
    sla:
        Optional latency SLAs (Eq. 21).
    """

    sample_workload: Workload | SampleColumns
    block_values: int = DEFAULT_BLOCK_VALUES
    ghost_fraction: float = 0.001
    constants: CostConstants = DEFAULT_COST_CONSTANTS
    sla: SLAConstraints | None = None
    plans: list[ChunkPlan] = field(default_factory=list)

    def with_sample(self, sample: Workload | SampleColumns) -> "CasperPlanner":
        """A new planner with the same tuning but a fresh workload sample.

        Used by the online loop to re-plan a drifted chunk against the
        window its :class:`~repro.core.monitor.WorkloadMonitor` recorded
        instead of the original offline training sample.  The plan history
        starts empty so the caller can inspect exactly the replan decisions.
        """
        return replace(self, sample_workload=sample, plans=[])

    def plan_chunk(self, sorted_values: np.ndarray | list[int]) -> ChunkPlan:
        """Decide the layout of one chunk holding ``sorted_values``."""
        values = np.asarray(sorted_values, dtype=np.int64)
        if values.size == 0:
            raise ValueError("cannot plan an empty chunk")
        relevant = self._restrict_workload(values)
        frequency_model = learn_from_workload(
            relevant, values, block_values=self.block_values
        )
        solution = optimize_layout(
            frequency_model,
            chunk_size=int(values.size),
            block_values=self.block_values,
            constants=self.constants,
            sla=self.sla,
        )
        boundaries = snap_boundaries_to_duplicates(
            values, solution.boundary_offsets()
        )
        ghosts = self._allocate_ghosts(frequency_model, solution, boundaries, values)
        plan = ChunkPlan(
            boundaries=boundaries,
            ghost_allocation=ghosts.per_partition if ghosts is not None else None,
            solution=solution,
            frequency_model=frequency_model,
        )
        self.plans.append(plan)
        return plan

    def evaluate_layout(
        self,
        frequency_model: FrequencyModel,
        boundary_offsets: np.ndarray | Sequence[int],
    ) -> float:
        """Modeled workload cost (Eq. 16) of an *existing* layout.

        ``boundary_offsets`` are the exclusive value end offsets of the
        layout's partitions within the chunk (e.g. the cumulative live
        partition counts of a :class:`PartitionedColumn`); they are mapped
        onto block granularity and priced under ``frequency_model`` with this
        planner's cost constants.  Comparing the result against
        :attr:`ChunkPlan.estimated_cost` of a fresh plan over the *same*
        frequency model yields the modeled savings of a replan, which is what
        the session reorganization policy's cost gate charges against the
        rebuild cost.
        """
        offsets = np.asarray(boundary_offsets, dtype=np.int64).ravel()
        if offsets.size == 0 or int(offsets[-1]) <= 0:
            raise ValueError("boundary offsets must end at the chunk size")
        num_blocks = frequency_model.num_blocks
        blocks = -(-offsets // self.block_values)  # ceil to block granularity
        blocks = np.unique(np.clip(blocks, 1, num_blocks))
        if blocks[-1] != num_blocks:
            blocks = np.append(blocks, num_blocks)
        vector = boundaries_to_vector(num_blocks, blocks)
        return CostModel(frequency_model, self.constants).total_cost(vector)

    @cached_property
    def _sample_columns(self) -> SampleColumns:
        """The sample as columns, read when the first chunk is planned and
        kept for the rest: a planner plans every chunk of a table against one
        sample, and a new sample is a new planner (:meth:`with_sample`)."""
        return sample_columns(self.sample_workload)

    def _restrict_workload(self, values: np.ndarray) -> SampleColumns:
        """Keep only the sample rows that touch this chunk's key range.

        A range touches the chunk when it overlaps it; every bound of another
        kind is a key, and one inside the chunk is enough (an update's
        source or its target).
        """
        low, high = int(values[0]), int(values[-1])
        sample = self._sample_columns
        _, lows, highs = sample
        overlaps = (lows <= high) & (highs >= low)
        inside = ((low <= lows) & (lows <= high)) | (
            (low <= highs) & (highs <= high)
        )
        kept = np.where(sample.ranged, overlaps, inside)
        return SampleColumns(*(column[kept] for column in sample))

    def _allocate_ghosts(
        self,
        frequency_model: FrequencyModel,
        solution: LayoutSolution,
        boundaries: np.ndarray,
        values: np.ndarray,
    ) -> GhostAllocation | None:
        budget = ghost_budget_from_fraction(int(values.size), self.ghost_fraction)
        if budget <= 0:
            return None
        allocation = allocate_ghost_values(
            frequency_model, solution.result.vector, budget
        )
        per_partition = allocation.per_partition
        if per_partition.shape[0] != boundaries.shape[0]:
            # Boundary snapping (duplicate runs) may have merged partitions;
            # re-aggregate the block-level allocation onto the final layout.
            per_partition = fold_onto_snapped(
                allocation.per_partition, solution.boundary_offsets(), boundaries
            )
        return GhostAllocation(per_partition=per_partition, total=allocation.total)

    # ------------------------------------------------------------------ #
    # Table integration
    # ------------------------------------------------------------------ #

    def build_chunk(
        self,
        sorted_values: np.ndarray,
        rowids: np.ndarray,
        counter: AccessCounter,
    ) -> PartitionedColumn:
        """``ChunkBuilder`` entry point used by :class:`repro.storage.table.Table`."""
        plan = self.plan_chunk(sorted_values)
        return self.build_chunk_from_plan(plan, sorted_values, rowids, counter)

    def build_chunk_from_plan(
        self,
        plan: ChunkPlan,
        sorted_values: np.ndarray,
        rowids: np.ndarray,
        counter: AccessCounter,
    ) -> PartitionedColumn:
        """Materialize an already-solved :class:`ChunkPlan` as a column.

        Lets callers that planned a chunk for another reason -- e.g. the
        session reorganization policy's cost gate -- apply that plan without
        paying the layout solve a second time.  ``sorted_values`` must be
        the values the plan was computed for.
        """
        ghosts = plan.ghost_allocation
        return PartitionedColumn(
            sorted_values,
            plan.boundaries,
            block_values=self.block_values,
            ghost_allocation=ghosts,
            dense=ghosts is None,
            rowids=rowids,
            counter=counter,
        )
