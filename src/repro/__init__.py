"""repro: a reproduction of "Optimal Column Layout for Hybrid Workloads".

The package reimplements Casper (Athanassoulis, Bogh, Idreos; PVLDB 12(13),
2019) in Python: an in-memory partitioned columnar storage engine with ghost
values, the Frequency Model and cost model that describe how a workload
touches a column chunk, an exact layout optimizer (with the paper's BIP
formulation available for cross-validation), workload generators for the HAP
benchmark, and a benchmark harness that regenerates every figure of the
paper's evaluation.

Quickstart
----------
>>> from repro import CasperPlanner, HAPConfig, StorageEngine, make_workload
>>> from repro.workload.hap import build_table
>>> from repro.workload.operations import Insert
>>> config = HAPConfig(num_rows=16_384, chunk_size=16_384, block_values=256)
>>> sample = make_workload("hybrid_skewed", config, num_operations=500)
>>> planner = CasperPlanner(sample_workload=sample, block_values=256)
>>> table = build_table(config, planner.build_chunk)
>>> engine = StorageEngine(table)
>>> engine.execute(Insert(12345))  # the new row's id
16384
>>> engine.statistics.operations
{'insert': 1}
"""

from .api import (
    Database,
    ExecutionPolicy,
    ReorgAction,
    ReorgDecision,
    ReorgPolicy,
    Reorganizer,
    SerialPolicy,
    Session,
    SessionReport,
    SessionResult,
    VectorizedPolicy,
)
from .core import (
    CasperPlanner,
    ChunkPlan,
    CostModel,
    FrequencyModel,
    LayoutSolution,
    PartitioningResult,
    SLAConstraints,
    learn_from_distributions,
    learn_from_workload,
    optimize_layout,
    solve_bip,
    solve_dp,
    solve_greedy,
)
from .storage import (
    AccessCounter,
    CostConstants,
    DEFAULT_BLOCK_VALUES,
    DEFAULT_COST_CONSTANTS,
    DeltaStoreColumn,
    LayoutKind,
    LayoutSpec,
    PartitionedColumn,
    StorageEngine,
    Table,
    build_column,
    layout_chunk_builder,
)
from .workload import (
    HAPConfig,
    TPCHConfig,
    Workload,
    WorkloadGenerator,
    WorkloadMix,
    figure1_workload,
    make_workload,
)

__version__ = "1.0.0"

__all__ = [
    "AccessCounter",
    "CasperPlanner",
    "ChunkPlan",
    "CostConstants",
    "CostModel",
    "Database",
    "DEFAULT_BLOCK_VALUES",
    "DEFAULT_COST_CONSTANTS",
    "DeltaStoreColumn",
    "ExecutionPolicy",
    "FrequencyModel",
    "HAPConfig",
    "LayoutKind",
    "LayoutSolution",
    "LayoutSpec",
    "PartitionedColumn",
    "PartitioningResult",
    "ReorgAction",
    "ReorgDecision",
    "ReorgPolicy",
    "Reorganizer",
    "SLAConstraints",
    "SerialPolicy",
    "Session",
    "SessionReport",
    "SessionResult",
    "StorageEngine",
    "TPCHConfig",
    "VectorizedPolicy",
    "Table",
    "Workload",
    "WorkloadGenerator",
    "WorkloadMix",
    "build_column",
    "figure1_workload",
    "layout_chunk_builder",
    "learn_from_distributions",
    "learn_from_workload",
    "make_workload",
    "optimize_layout",
    "solve_bip",
    "solve_dp",
    "solve_greedy",
    "__version__",
]
