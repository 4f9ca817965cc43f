"""Casper's contribution: the workload-driven column layout optimizer.

This subpackage contains the Frequency Model (Section 4.2), the cost model
over partitioned columns (Section 4.4), the layout solvers (exact DP, the
paper's BIP formulation via scipy/HiGHS, and a greedy baseline), SLA
constraints (Eq. 21), ghost-value allocation (Eq. 18), per-chunk problem
decomposition (Section 6.3), robustness analysis (Section 7.5) and the
planner facade that turns a workload sample into a physical layout.
"""

from .bip_solver import solve_bip
from .chunking import (
    ScalabilityModel,
    measure_solve_seconds,
    split_into_chunks,
    synthetic_frequency_model,
)
from .constraints import InfeasibleSLAError, SLAConstraints, StructuralBounds
from .cost_model import (
    CostModel,
    WorkloadTerms,
    bck_read,
    boundaries_to_vector,
    fwd_read,
    partition_of_blocks,
    trail_parts,
    validate_partitioning,
    vector_to_boundaries,
)
from .dp_solver import PartitioningResult, brute_force, solve_dp
from .frequency_model import (
    HISTOGRAM_NAMES,
    BlockMapper,
    FrequencyModel,
    SampleColumns,
    learn_from_distributions,
    learn_from_workload,
)
from .ghost_allocation import (
    GhostAllocation,
    allocate_ghost_values,
    data_movement_per_block,
    data_movement_per_partition,
)
from .greedy_solver import solve_greedy
from .monitor import RecentSample, WorkloadMonitor, mix_distance
from .optimizer import LayoutSolution, optimize_layout
from .planner import CasperPlanner, ChunkPlan
from .robustness import (
    RobustnessPoint,
    evaluate_robustness,
    mass_shift,
    rotational_shift,
)

__all__ = [
    "BlockMapper",
    "CasperPlanner",
    "ChunkPlan",
    "CostModel",
    "FrequencyModel",
    "GhostAllocation",
    "HISTOGRAM_NAMES",
    "InfeasibleSLAError",
    "LayoutSolution",
    "PartitioningResult",
    "RecentSample",
    "RobustnessPoint",
    "SLAConstraints",
    "SampleColumns",
    "ScalabilityModel",
    "StructuralBounds",
    "WorkloadMonitor",
    "WorkloadTerms",
    "allocate_ghost_values",
    "bck_read",
    "boundaries_to_vector",
    "brute_force",
    "data_movement_per_block",
    "data_movement_per_partition",
    "evaluate_robustness",
    "fwd_read",
    "learn_from_distributions",
    "learn_from_workload",
    "mass_shift",
    "measure_solve_seconds",
    "mix_distance",
    "optimize_layout",
    "partition_of_blocks",
    "rotational_shift",
    "solve_bip",
    "solve_dp",
    "solve_greedy",
    "split_into_chunks",
    "synthetic_frequency_model",
    "trail_parts",
    "validate_partitioning",
    "vector_to_boundaries",
]
