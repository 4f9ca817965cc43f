"""Column layout modes evaluated in the paper (Table 1 and Section 7).

Casper's experiments compare six distinct operation modes built from the
three-dimensional design space of Table 1 (data organization x update policy
x buffering):

=============  =================  ==============  ===============
Mode           Data organization  Update policy   Buffering
=============  =================  ==============  ===============
No Order       insertion order    in-place        none
Sorted         sorted             in-place        none
State-of-art   sorted             out-of-place    global (delta)
Equi           partitioned        in-place        none
Equi-GV        partitioned        hybrid          per-partition
Casper         partitioned        hybrid          per-partition
=============  =================  ==============  ===============

``build_column`` constructs a column chunk configured for any of the modes;
the Casper mode takes the optimizer's partition boundaries and ghost-value
allocation (produced by :mod:`repro.core.planner`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .column import (
    PartitionedColumn,
    equal_width_boundaries,
    snap_boundaries_to_duplicates,
)
from .cost_accounting import DEFAULT_BLOCK_VALUES, AccessCounter, blocks_spanned
from .delta_store import DeltaStoreColumn
from .errors import LayoutError
from .ghost_values import fold_onto_snapped, ghost_budget_from_fraction, spread_evenly


class DataOrganization(Enum):
    """How values are physically ordered inside a chunk (Table 1, column 1)."""

    INSERTION_ORDER = "insertion_order"
    SORTED = "sorted"
    PARTITIONED = "partitioned"


class UpdatePolicy(Enum):
    """How updates reach the data (Table 1, column 2)."""

    IN_PLACE = "in_place"
    OUT_OF_PLACE = "out_of_place"
    HYBRID = "hybrid"


class BufferingMode(Enum):
    """Where update buffer space lives (Table 1, column 3)."""

    NONE = "none"
    GLOBAL = "global"
    PER_PARTITION = "per_partition"


class LayoutKind(Enum):
    """The six operation modes compared in Section 7."""

    NO_ORDER = "no_order"
    SORTED = "sorted"
    STATE_OF_ART = "state_of_art"
    EQUI = "equi"
    EQUI_GV = "equi_gv"
    CASPER = "casper"


@dataclass(frozen=True)
class LayoutDesignPoint:
    """Position of a layout mode in the Table 1 design space."""

    organization: DataOrganization
    update_policy: UpdatePolicy
    buffering: BufferingMode


DESIGN_SPACE: dict[LayoutKind, LayoutDesignPoint] = {
    LayoutKind.NO_ORDER: LayoutDesignPoint(
        DataOrganization.INSERTION_ORDER, UpdatePolicy.IN_PLACE, BufferingMode.NONE
    ),
    LayoutKind.SORTED: LayoutDesignPoint(
        DataOrganization.SORTED, UpdatePolicy.IN_PLACE, BufferingMode.NONE
    ),
    LayoutKind.STATE_OF_ART: LayoutDesignPoint(
        DataOrganization.SORTED, UpdatePolicy.OUT_OF_PLACE, BufferingMode.GLOBAL
    ),
    LayoutKind.EQUI: LayoutDesignPoint(
        DataOrganization.PARTITIONED, UpdatePolicy.IN_PLACE, BufferingMode.NONE
    ),
    LayoutKind.EQUI_GV: LayoutDesignPoint(
        DataOrganization.PARTITIONED, UpdatePolicy.HYBRID, BufferingMode.PER_PARTITION
    ),
    LayoutKind.CASPER: LayoutDesignPoint(
        DataOrganization.PARTITIONED, UpdatePolicy.HYBRID, BufferingMode.PER_PARTITION
    ),
}


@dataclass(frozen=True)
class LayoutSpec:
    """Fully-specified layout configuration for building a column chunk.

    Attributes
    ----------
    kind:
        Which of the six modes to build.
    partitions:
        Number of partitions for the Equi/Equi-GV modes (ignored otherwise).
    ghost_fraction:
        Ghost-value budget as a fraction of the data size (Equi-GV/Casper).
    boundaries:
        Explicit exclusive end offsets for the Casper mode (from the
        optimizer); ``None`` for all other modes.
    ghost_allocation:
        Explicit per-partition ghost slots for the Casper mode.
    merge_threshold:
        Delta-store merge trigger as a fraction of the chunk (State-of-art).
    merge_entries:
        Absolute delta-store merge trigger; overrides ``merge_threshold`` when
        set and models continuous delta integration (State-of-art only).
    block_values:
        Values per block; defaults to 16KB / 4B = 4096 values.
    """

    kind: LayoutKind
    partitions: int = 64
    ghost_fraction: float = 0.001
    boundaries: tuple[int, ...] | None = None
    ghost_allocation: tuple[int, ...] | None = None
    merge_threshold: float = 0.05
    merge_entries: int | None = None
    block_values: int = DEFAULT_BLOCK_VALUES


ColumnLike = PartitionedColumn | DeltaStoreColumn


def build_column(
    spec: LayoutSpec,
    sorted_values: np.ndarray | list[int],
    *,
    counter: AccessCounter | None = None,
    rowids: np.ndarray | None = None,
) -> ColumnLike:
    """Build a column chunk for ``sorted_values`` under layout ``spec``.

    ``sorted_values`` must be non-decreasing; the No-Order mode nevertheless
    behaves like an insertion-order heap because its single partition is
    scanned in full by every query and appends land at its tail.  ``rowids``
    supplies the (global) row ids aligned with ``sorted_values``; ``None``
    means load order ``0..n-1``.
    """
    values = np.asarray(sorted_values, dtype=np.int64)
    size = int(values.shape[0])
    block_values = spec.block_values
    common = dict(block_values=block_values, counter=counter, rowids=rowids)

    if spec.kind is LayoutKind.NO_ORDER:
        return PartitionedColumn(
            values, np.asarray([size], dtype=np.int64), dense=True, **common
        )

    if spec.kind is LayoutKind.SORTED:
        partitions = max(1, blocks_spanned(0, size, block_values))
        return PartitionedColumn(
            values, equal_width_boundaries(size, partitions), dense=True, **common
        )

    if spec.kind is LayoutKind.STATE_OF_ART:
        return DeltaStoreColumn(
            values,
            block_values=block_values,
            merge_threshold=spec.merge_threshold,
            merge_entries=spec.merge_entries,
            counter=counter,
            rowids=rowids,
        )

    if spec.kind is LayoutKind.EQUI:
        return PartitionedColumn(
            values,
            equal_width_boundaries(size, spec.partitions),
            dense=True,
            **common,
        )

    if spec.kind is LayoutKind.EQUI_GV:
        # Snap first: the budget is spread over the partitions the column
        # will really have once no duplicate run straddles a boundary.
        boundaries = equal_width_boundaries(size, spec.partitions)
        if size:
            boundaries = snap_boundaries_to_duplicates(values, boundaries)
        budget = ghost_budget_from_fraction(size, spec.ghost_fraction)
        ghosts = spread_evenly(budget, boundaries.shape[0])
        return PartitionedColumn(
            values,
            boundaries,
            ghost_allocation=ghosts,
            dense=False,
            **common,
        )

    if spec.kind is LayoutKind.CASPER:
        if spec.boundaries is None:
            raise LayoutError(
                "Casper layout requires optimizer-provided boundaries; "
                "use repro.core.planner.CasperPlanner"
            )
        boundaries = np.asarray(spec.boundaries, dtype=np.int64)
        ghosts = (
            np.asarray(spec.ghost_allocation, dtype=np.int64)
            if spec.ghost_allocation is not None
            else None
        )
        if size and ghosts is not None:
            # Ghosts given per partition of boundaries that snapping merges
            # follow their partition's end offset.
            snapped = snap_boundaries_to_duplicates(values, boundaries)
            if snapped.shape[0] < ghosts.shape[0] == boundaries.shape[0]:
                ghosts = fold_onto_snapped(ghosts, boundaries, snapped)
                boundaries = snapped
        return PartitionedColumn(
            values,
            boundaries,
            ghost_allocation=ghosts,
            dense=ghosts is None,
            **common,
        )

    raise LayoutError(f"unknown layout kind: {spec.kind!r}")
