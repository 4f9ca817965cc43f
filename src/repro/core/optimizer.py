"""Layout optimizer facade.

``optimize_layout`` ties the pieces of Sections 4 and 5 together: it takes a
Frequency Model (plus cost constants and optional SLAs), solves it with the
exact DP (Section 5) and converts the block-level solution into value-offset
partition boundaries that the storage layer understands.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..storage.cost_accounting import DEFAULT_COST_CONSTANTS, CostConstants
from .constraints import SLAConstraints, StructuralBounds
from .cost_model import CostModel
from .dp_solver import PartitioningResult, solve_dp
from .frequency_model import FrequencyModel


@dataclass(frozen=True)
class LayoutSolution:
    """A solved layout for one column chunk."""

    result: PartitioningResult
    cost_model: CostModel
    block_values: int
    chunk_size: int

    @property
    def cost(self) -> float:
        """Optimal workload cost (simulated nanoseconds)."""
        return self.result.cost

    @property
    def num_partitions(self) -> int:
        """Number of partitions in the solution."""
        return self.result.num_partitions

    @property
    def boundary_blocks(self) -> np.ndarray:
        """Exclusive block end offsets of every partition."""
        return self.result.boundary_blocks

    def boundary_offsets(self) -> np.ndarray:
        """Exclusive *value* end offsets of every partition within the chunk."""
        offsets = self.boundary_blocks.astype(np.int64) * self.block_values
        offsets = np.minimum(offsets, self.chunk_size)
        offsets[-1] = self.chunk_size
        return np.unique(offsets)


def optimize_layout(
    frequency_model: FrequencyModel,
    *,
    chunk_size: int,
    block_values: int,
    constants: CostConstants = DEFAULT_COST_CONSTANTS,
    sla: SLAConstraints | None = None,
    bounds: StructuralBounds | None = None,
) -> LayoutSolution:
    """Solve the column-layout problem for one chunk with the exact DP.

    The BIP, greedy and brute-force solvers (``solve_bip``,
    ``solve_greedy``, ``brute_force``) take the same cost model and bounds
    and are called directly where they are compared against it.

    Parameters
    ----------
    frequency_model:
        The chunk's Frequency Model.
    chunk_size:
        Number of values in the chunk (used to convert block boundaries to
        value offsets).
    block_values:
        Values per logical block.
    constants:
        Block access cost constants (micro-benchmarked per deployment).
    sla:
        Optional latency SLAs translated into structural bounds (Eq. 21).
    bounds:
        Pre-computed structural bounds (overrides ``sla``).
    """
    cost_model = CostModel(frequency_model, constants)
    if bounds is None:
        bounds = (
            sla.to_bounds(frequency_model.num_blocks, constants)
            if sla is not None
            else StructuralBounds()
        )
    result = solve_dp(
        cost_model,
        max_partition_blocks=bounds.max_partition_blocks,
        max_partitions=bounds.max_partitions,
    )
    return LayoutSolution(
        result=result,
        cost_model=cost_model,
        block_values=block_values,
        chunk_size=chunk_size,
    )
