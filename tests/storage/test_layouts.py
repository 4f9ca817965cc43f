"""Tests for the six layout operation modes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.storage.column import PartitionedColumn
from repro.storage.delta_store import DeltaStoreColumn
from repro.storage.errors import LayoutError
from repro.storage.layouts import (
    DESIGN_SPACE,
    BufferingMode,
    DataOrganization,
    LayoutKind,
    LayoutSpec,
    UpdatePolicy,
    build_column,
)
from repro.storage.table import Table, layout_chunk_builder


@pytest.fixture
def values(small_values):
    return small_values


class TestDesignSpace:
    def test_every_mode_has_a_design_point(self):
        assert set(DESIGN_SPACE) == set(LayoutKind)

    def test_state_of_art_uses_global_buffering(self):
        point = DESIGN_SPACE[LayoutKind.STATE_OF_ART]
        assert point.organization is DataOrganization.SORTED
        assert point.update_policy is UpdatePolicy.OUT_OF_PLACE
        assert point.buffering is BufferingMode.GLOBAL

    def test_casper_uses_per_partition_buffering(self):
        point = DESIGN_SPACE[LayoutKind.CASPER]
        assert point.buffering is BufferingMode.PER_PARTITION


class TestBuildColumn:
    def test_no_order_has_single_partition(self, values):
        column = build_column(LayoutSpec(kind=LayoutKind.NO_ORDER, block_values=64), values)
        assert isinstance(column, PartitionedColumn)
        assert column.num_partitions == 1

    def test_sorted_has_one_partition_per_block(self, values):
        column = build_column(LayoutSpec(kind=LayoutKind.SORTED, block_values=64), values)
        assert column.num_partitions == values.size // 64

    def test_state_of_art_is_delta_store(self, values):
        column = build_column(
            LayoutSpec(kind=LayoutKind.STATE_OF_ART, block_values=64), values
        )
        assert isinstance(column, DeltaStoreColumn)

    def test_equi_partition_count(self, values):
        column = build_column(
            LayoutSpec(kind=LayoutKind.EQUI, partitions=16, block_values=64), values
        )
        assert column.num_partitions == 16
        assert column.ghost_counts().sum() == 0

    def test_equi_gv_allocates_ghosts(self, values):
        column = build_column(
            LayoutSpec(
                kind=LayoutKind.EQUI_GV,
                partitions=16,
                ghost_fraction=0.01,
                block_values=64,
            ),
            values,
        )
        assert column.ghost_counts().sum() == int(round(values.size * 0.01))

    def test_casper_requires_boundaries(self, values):
        with pytest.raises(LayoutError):
            build_column(LayoutSpec(kind=LayoutKind.CASPER, block_values=64), values)

    def test_casper_with_explicit_boundaries(self, values):
        spec = LayoutSpec(
            kind=LayoutKind.CASPER,
            block_values=64,
            boundaries=(256, 512, values.size),
            ghost_allocation=(4, 4, 8),
        )
        column = build_column(spec, values)
        assert column.num_partitions == 3
        assert column.ghost_counts().tolist() == [4, 4, 8]

    def test_equi_gv_spreads_ghosts_over_snapped_partitions(self):
        # The first two equal-width boundaries split the run of 1s; the
        # snapped column has three partitions and the budget spreads there.
        column = build_column(
            LayoutSpec(
                kind=LayoutKind.EQUI_GV,
                partitions=4,
                ghost_fraction=0.2,
                block_values=8,
            ),
            [1] * 8 + [2, 3, 4, 5],
        )
        assert column.partition_counts().tolist() == [8, 1, 3]
        assert column.ghost_counts().tolist() == [1, 1, 0]
        column.check_invariants()

    def test_casper_ghosts_follow_snapped_boundaries(self):
        # Boundaries 3 and 6 fall inside the run of 1s: both partitions
        # merge into the one ending at 8, and so do their ghosts.
        spec = LayoutSpec(
            kind=LayoutKind.CASPER,
            block_values=8,
            boundaries=(3, 6, 9, 12),
            ghost_allocation=(1, 2, 3, 4),
        )
        column = build_column(spec, [1] * 8 + [2, 3, 4, 5])
        assert column.partition_counts().tolist() == [8, 1, 3]
        assert column.ghost_counts().tolist() == [3, 3, 4]
        column.check_invariants()

    def test_equi_gv_table_over_duplicate_heavy_keys(self):
        keys = np.repeat(np.arange(40, dtype=np.int64), 25)
        spec = LayoutSpec(
            kind=LayoutKind.EQUI_GV, partitions=16, ghost_fraction=0.05, block_values=8
        )
        table = Table(
            keys, chunk_size=300, chunk_builder=layout_chunk_builder(spec), block_values=8
        )
        table.bulk_insert(np.arange(0, 80, 3))
        table.bulk_delete(np.arange(0, 40, 2))
        assert table.num_rows == keys.size + 27 - 20
        table.check_invariants()

    def test_rowids_passthrough(self, values):
        rowids = np.arange(100, 100 + values.size)
        column = build_column(
            LayoutSpec(kind=LayoutKind.EQUI, partitions=4, block_values=64),
            values,
            rowids=rowids,
        )
        assert column.point_query(int(values[0]), return_rowids=True).tolist() == [100]

    @pytest.mark.parametrize(
        "kind",
        [
            LayoutKind.NO_ORDER,
            LayoutKind.SORTED,
            LayoutKind.STATE_OF_ART,
            LayoutKind.EQUI,
            LayoutKind.EQUI_GV,
        ],
    )
    def test_all_modes_support_basic_operations(self, values, kind):
        column = build_column(
            LayoutSpec(kind=kind, partitions=8, block_values=64), values
        )
        probe = int(values[11])
        assert column.point_query(probe).shape[0] == 1
        assert column.range_query(probe, probe + 10).count >= 1
        column.insert(probe + 1)
        column.delete(probe)
        column.update(int(values[20]), probe + 3)
        assert column.point_query(probe).shape[0] == 0
        assert column.point_query(probe + 1).shape[0] == 1
        column.check_invariants()

    @pytest.mark.parametrize(
        "kind", [LayoutKind.NO_ORDER, LayoutKind.SORTED, LayoutKind.EQUI]
    )
    def test_size_preserved_across_modes(self, values, kind):
        column = build_column(
            LayoutSpec(kind=kind, partitions=8, block_values=64), values
        )
        assert column.size == values.size
