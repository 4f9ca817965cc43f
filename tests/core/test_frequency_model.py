"""Tests for the Frequency Model and its learning paths."""

from __future__ import annotations

from bisect import bisect_left, bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.frequency_model import (
    HISTOGRAM_NAMES,
    BlockMapper,
    FrequencyModel,
    learn_from_distributions,
    learn_from_workload,
)
from repro.workload.operations import (
    Aggregate,
    Delete,
    Insert,
    MultiDelete,
    MultiInsert,
    MultiPointQuery,
    MultiRangeCount,
    MultiUpdate,
    PointQuery,
    RangeQuery,
    Update,
    Workload,
)


class TestFrequencyModel:
    def test_all_histograms_initialized(self):
        model = FrequencyModel(16)
        assert set(model.histograms) == set(HISTOGRAM_NAMES)
        for histogram in model.histograms.values():
            assert histogram.shape == (16,)
            assert histogram.sum() == 0

    def test_invalid_block_count(self):
        with pytest.raises(ValueError):
            FrequencyModel(0)

    def test_invalid_histogram_shape(self):
        with pytest.raises(ValueError):
            FrequencyModel(4, {"pq": np.zeros(3)})

    def test_record_point_query(self):
        model = FrequencyModel(8)
        model.record_point_query(3)
        assert model.pq[3] == 1

    def test_record_point_query_clamped(self):
        model = FrequencyModel(8)
        model.record_point_query(100)
        model.record_point_query(-5)
        assert model.pq[7] == 1
        assert model.pq[0] == 1

    def test_record_range_query_paper_example(self):
        # Fig. 7b: a range starting in block 1, scanning 2-3, ending in 4.
        model = FrequencyModel(8)
        model.record_range_query(1, 4)
        assert model.rs[1] == 1
        assert model.sc[2] == 1 and model.sc[3] == 1
        assert model.re[4] == 1

    def test_record_range_query_single_block(self):
        model = FrequencyModel(8)
        model.record_range_query(2, 2)
        assert model.rs[2] == 1
        assert model.re.sum() == 0
        assert model.sc.sum() == 0

    def test_record_update_forward_and_backward(self):
        # Fig. 7f/7g: 3 -> 16 is a forward ripple, 55 -> 17 a backward one.
        model = FrequencyModel(8)
        model.record_update(0, 3)
        model.record_update(5, 3)
        assert model.udf[0] == 1 and model.utf[3] == 1
        assert model.udb[5] == 1 and model.utb[3] == 1

    def test_record_insert_and_delete(self):
        model = FrequencyModel(8)
        model.record_insert(3)
        model.record_delete(5)
        assert model.ins[3] == 1
        assert model.de[5] == 1

    def test_total_operations(self):
        model = FrequencyModel(8)
        model.record_point_query(0)
        model.record_range_query(1, 3)
        model.record_insert(2)
        model.record_delete(2)
        model.record_update(1, 5)
        assert model.total_operations() == 5

    def test_copy_is_independent(self):
        model = FrequencyModel(8)
        model.record_insert(1)
        clone = model.copy()
        clone.record_insert(1)
        assert model.ins[1] == 1
        assert clone.ins[1] == 2

    def test_scaled(self):
        model = FrequencyModel(4)
        model.record_point_query(1)
        assert model.scaled(3.0).pq[1] == 3.0

    def test_merged(self):
        first, second = FrequencyModel(4), FrequencyModel(4)
        first.record_insert(0)
        second.record_insert(0)
        assert first.merged(second).ins[0] == 2
        with pytest.raises(ValueError):
            first.merged(FrequencyModel(8))

    def test_coarsened_preserves_mass(self):
        model = FrequencyModel(10)
        model.pq[:] = np.arange(10)
        coarse = model.coarsened(3)
        assert coarse.num_blocks == 4
        assert coarse.pq.sum() == model.pq.sum()

    def test_coarsened_factor_one_is_copy(self):
        model = FrequencyModel(10)
        assert model.coarsened(1).num_blocks == 10
        with pytest.raises(ValueError):
            model.coarsened(0)


class TestBlockMapper:
    def test_block_of_maps_sorted_positions(self):
        values = np.arange(0, 200, 2)
        mapper = BlockMapper(values, block_values=10)
        assert mapper.num_blocks == 10
        assert mapper.block_of(0) == 0
        assert mapper.block_of(21) == 1
        assert mapper.block_of(198) == 9
        assert mapper.block_of(10_000) == 9

    def test_block_range(self):
        # A range's blocks, read off the model it trains: [0, 18] stays in
        # block 0; [0, 58] starts in 0, scans 1 and ends in 2.
        values = np.arange(0, 200, 2)
        one = learn_from_workload([RangeQuery(0, 18)], values, block_values=10)
        assert one.rs.tolist() == [1] + [0] * 9
        assert one.sc.sum() == 0 and one.re.sum() == 0
        three = learn_from_workload([RangeQuery(0, 58)], values, block_values=10)
        assert three.rs.tolist() == [1] + [0] * 9
        assert three.sc.tolist() == [0, 1] + [0] * 8
        assert three.re.tolist() == [0, 0, 1] + [0] * 7

    def test_validation(self):
        with pytest.raises(ValueError):
            BlockMapper(np.asarray([3, 1]), 4)
        with pytest.raises(ValueError):
            BlockMapper(np.empty(0), 4)
        with pytest.raises(ValueError):
            BlockMapper(np.arange(4), 0)


class TestLearnFromWorkload:
    def test_counts_match_operations(self):
        values = np.arange(0, 2_000, 2)
        workload = Workload(
            operations=[
                PointQuery(key=100),
                PointQuery(key=1_500),
                RangeQuery(low=0, high=500),
                Insert(key=777),
                Delete(key=200),
                Update(old_key=100, new_key=1_999),
            ]
        )
        model = learn_from_workload(workload, values, block_values=100)
        assert model.pq.sum() == 2
        assert model.rs.sum() == 1
        assert model.ins.sum() == 1
        assert model.de.sum() == 1
        assert model.udf.sum() + model.udb.sum() == 1

    def test_skewed_accesses_land_in_skewed_blocks(self):
        values = np.arange(0, 2_000, 2)
        workload = Workload(
            operations=[PointQuery(key=1_900 + 2 * i) for i in range(20)]
        )
        model = learn_from_workload(workload, values, block_values=100)
        assert model.pq[-1] == 20
        assert model.pq[:-1].sum() == 0

    def test_rejects_unknown_operation(self):
        values = np.arange(10)
        with pytest.raises(TypeError):
            learn_from_workload(Workload(operations=["bogus"]), values, block_values=2)


def replay(operations, chunk, block_values):
    """Fig. 8a by hand: every scalar of every operation mapped to its
    blocks with ``bisect`` and recorded through the scalar ``record_*`` API."""
    chunk = list(chunk)
    blocks = -(-len(chunk) // block_values)
    model = FrequencyModel(blocks)

    def block_of(key):
        return min(bisect_left(chunk, key) // block_values, blocks - 1)

    for operation in operations:
        for scalar in operation.scalars():
            if isinstance(scalar, PointQuery):
                model.record_point_query(block_of(scalar.key))
            elif isinstance(scalar, RangeQuery):
                start = block_of(scalar.low)
                last_covered = bisect_right(chunk, scalar.high) - 1
                model.record_range_query(
                    start, max(start, last_covered // block_values)
                )
            elif isinstance(scalar, Insert):
                model.record_insert(block_of(scalar.key))
            elif isinstance(scalar, Delete):
                model.record_delete(block_of(scalar.key))
            else:
                model.record_update(
                    block_of(scalar.old_key), block_of(scalar.new_key)
                )
    return model


def assert_same_model(learned, expected):
    assert learned.num_blocks == expected.num_blocks
    for name in HISTOGRAM_NAMES:
        assert np.array_equal(learned[name], expected[name]), name


def workloads(low, high):
    """Every scalar and ``Multi*`` kind over keys in ``[low, high]``."""
    key = st.integers(min_value=low, max_value=high)
    bounds = st.tuples(key, key).map(sorted).map(tuple)
    aggregate = st.sampled_from(list(Aggregate))
    several = {"min_size": 0, "max_size": 5}
    return st.lists(
        st.one_of(
            st.builds(PointQuery, key=key),
            st.builds(
                lambda b, a: RangeQuery(b[0], b[1], aggregate=a), bounds, aggregate
            ),
            st.builds(Insert, key=key),
            st.builds(Delete, key=key),
            st.builds(Update, old_key=key, new_key=key),
            st.lists(key, **several).map(lambda k: MultiPointQuery(keys=tuple(k))),
            st.lists(bounds, **several).map(
                lambda b: MultiRangeCount(bounds=tuple(b))
            ),
            st.lists(key, **several).map(lambda k: MultiInsert(keys=tuple(k))),
            st.lists(key, **several).map(lambda k: MultiDelete(keys=tuple(k))),
            st.lists(st.tuples(key, key), **several).map(
                lambda p: MultiUpdate(pairs=tuple(p))
            ),
        ),
        min_size=0,
        max_size=30,
    )


class TestVectorizedLearnerEqualsReplay:
    @settings(max_examples=300, deadline=None)
    @given(
        chunk=st.lists(st.integers(0, 40), min_size=1, max_size=64).map(sorted),
        block_values=st.integers(min_value=1, max_value=16),
        operations=workloads(-8, 48),
    )
    def test_random_chunks_and_workloads(self, chunk, block_values, operations):
        # Sorted chunks with duplicate runs; keys from below the chunk's
        # first value to above its last.
        learned = learn_from_workload(
            Workload(operations=operations), chunk, block_values=block_values
        )
        assert_same_model(learned, replay(operations, chunk, block_values))

    def test_every_case_the_pass_distinguishes(self):
        # Chunk 0, 2, .., 198 in ten blocks of ten values (block b holds
        # 20b .. 20b + 18), with one duplicate run across blocks 4 and 5.
        chunk = sorted(list(range(0, 200, 2)) + [98] * 4)[:100]
        operations = [
            PointQuery(key=-5),  # below the chunk
            PointQuery(key=500),  # above it
            PointQuery(key=98),  # a duplicate run: its first block
            RangeQuery(22, 30),  # inside one block
            RangeQuery(25, 25),  # covers no value at all
            RangeQuery(22, 58, aggregate=Aggregate.SUM),  # adjacent blocks
            RangeQuery(5, 130),  # start, five scanned blocks, end
            RangeQuery(150, 900),  # ends past the chunk
            RangeQuery(-50, -10),  # entirely below it
            RangeQuery(-50, 45),  # starts below it
            MultiRangeCount(bounds=((0, 198), (60, 61), (300, 400))),
            Insert(key=41),
            Delete(key=500),
            MultiInsert(keys=(1, 1, 199)),
            MultiDelete(keys=(-1, 100)),
            MultiPointQuery(keys=(0, 98, 98)),
            Update(old_key=10, new_key=150),  # forward
            Update(old_key=150, new_key=10),  # backward
            Update(old_key=42, new_key=44),  # same block: backward
            MultiUpdate(pairs=((0, 500), (500, -3), (98, 98))),
        ]
        learned = learn_from_workload(operations, chunk, block_values=10)
        assert_same_model(learned, replay(operations, chunk, block_values=10))
        # The cases above are the ones meant: three or more blocks scanned
        # by one range, and updates counted on both ripple directions.
        assert learned.sc.max() >= 3 and learned.sc[2:6].min() >= 2
        assert learned.udf.sum() == 2 and learned.udb.sum() == 4
        assert learned.utb[2] == 1 and learned.udb[2] == 1


class TestLearnFromDistributions:
    def test_histograms_assigned(self):
        model = learn_from_distributions(
            4,
            point_queries=np.asarray([1.0, 2.0, 3.0, 4.0]),
            inserts=np.asarray([4.0, 3.0, 2.0, 1.0]),
            updates_from=np.asarray([1.0, 1.0, 1.0, 1.0]),
            updates_to=np.asarray([2.0, 0.0, 0.0, 2.0]),
        )
        assert model.pq.tolist() == [1, 2, 3, 4]
        assert model.ins.tolist() == [4, 3, 2, 1]
        # Updates are split between forward and backward ripples.
        assert (model.udf + model.udb).tolist() == [1, 1, 1, 1]
        assert (model.utf + model.utb).tolist() == [2, 0, 0, 2]

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            learn_from_distributions(4, point_queries=np.ones(3))
