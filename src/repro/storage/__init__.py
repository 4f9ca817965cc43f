"""Casper storage-engine substrate: partitioned columns, layouts, tables.

This subpackage implements the physical storage layer the paper's optimizer
targets: range-partitioned column chunks with ghost values and ripple
maintenance, the delta-store comparator, the six evaluated layout modes,
multi-column tables, snapshot-isolation transactions, compression codecs and
the block-access cost accounting used as the simulated-latency metric.
"""

from .access_log import (
    ATTRIBUTION_KINDS,
    CallLog,
    LogRecord,
)
from .column import (
    PartitionedColumn,
    RangeResult,
    equal_width_boundaries,
    snap_boundaries_to_duplicates,
)
from .cost_accounting import (
    CACHE_LINE_BYTES,
    DEFAULT_BLOCK_BYTES,
    DEFAULT_BLOCK_VALUES,
    DEFAULT_COST_CONSTANTS,
    DEFAULT_VALUE_BYTES,
    RANDOM_ACCESS_NS,
    SEQUENTIAL_LINE_NS,
    AccessCounter,
    CostConstants,
    SimulatedCost,
    blocks_spanned,
    constants_for_block_values,
)
from .compression import (
    CompressionStats,
    DictionaryCodec,
    FrameOfReferenceCodec,
    RunLengthCodec,
)
from .delta_store import DeltaStoreColumn
from .engine import EngineStatistics, StorageEngine
from .errors import (
    CapacityError,
    LayoutError,
    StorageError,
    TransactionConflictError,
    TransactionError,
    TransactionStateError,
    ValueNotFoundError,
)
from .ghost_values import (
    ghost_budget_from_fraction,
    spread_evenly,
    spread_proportionally,
)
from .layouts import (
    DESIGN_SPACE,
    BufferingMode,
    ColumnLike,
    DataOrganization,
    LayoutDesignPoint,
    LayoutKind,
    LayoutSpec,
    UpdatePolicy,
    build_column,
)
from .mvcc import Transaction, TransactionManager, TransactionStatus
from .partition_index import PartitionIndex, PartitionMetadata
from .table import Row, Table, layout_chunk_builder, require_key

__all__ = [
    "ATTRIBUTION_KINDS",
    "AccessCounter",
    "CallLog",
    "CACHE_LINE_BYTES",
    "RANDOM_ACCESS_NS",
    "SEQUENTIAL_LINE_NS",
    "constants_for_block_values",
    "BufferingMode",
    "CapacityError",
    "ColumnLike",
    "CompressionStats",
    "CostConstants",
    "DataOrganization",
    "DEFAULT_BLOCK_BYTES",
    "DEFAULT_BLOCK_VALUES",
    "DEFAULT_COST_CONSTANTS",
    "DEFAULT_VALUE_BYTES",
    "DESIGN_SPACE",
    "DeltaStoreColumn",
    "DictionaryCodec",
    "EngineStatistics",
    "FrameOfReferenceCodec",
    "LayoutDesignPoint",
    "LayoutError",
    "LayoutKind",
    "LayoutSpec",
    "LogRecord",
    "SimulatedCost",
    "PartitionIndex",
    "PartitionMetadata",
    "PartitionedColumn",
    "RangeResult",
    "Row",
    "RunLengthCodec",
    "StorageEngine",
    "StorageError",
    "Table",
    "Transaction",
    "TransactionConflictError",
    "TransactionError",
    "TransactionManager",
    "TransactionStateError",
    "TransactionStatus",
    "UpdatePolicy",
    "ValueNotFoundError",
    "blocks_spanned",
    "build_column",
    "equal_width_boundaries",
    "ghost_budget_from_fraction",
    "layout_chunk_builder",
    "require_key",
    "snap_boundaries_to_duplicates",
    "spread_evenly",
    "spread_proportionally",
]
