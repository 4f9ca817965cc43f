"""Tests for block-access accounting and cost constants."""

from __future__ import annotations

import pytest

from repro.storage.cost_accounting import (
    CACHE_LINE_BYTES,
    DEFAULT_BLOCK_BYTES,
    DEFAULT_BLOCK_VALUES,
    DEFAULT_COST_CONSTANTS,
    RANDOM_ACCESS_NS,
    SEQUENTIAL_LINE_NS,
    AccessCounter,
    CostConstants,
    blocks_spanned,
    constants_for_block_values,
)


class TestCostConstants:
    def test_defaults_follow_paper_values(self):
        constants = DEFAULT_COST_CONSTANTS
        assert constants.random_read == pytest.approx(100.0)
        assert constants.random_write == pytest.approx(100.0)
        lines = DEFAULT_BLOCK_BYTES / CACHE_LINE_BYTES
        assert constants.seq_read == pytest.approx(lines * 100.0 / 14.0)

    def test_for_block_scales_with_block_size(self):
        small = CostConstants.for_block(4 * 1024)
        large = CostConstants.for_block(64 * 1024)
        assert large.seq_read == pytest.approx(small.seq_read * 16)
        assert large.random_read == small.random_read

    def test_constants_for_block_values(self):
        constants = constants_for_block_values(1024)
        assert constants.seq_read == pytest.approx(
            1024 * 4 / CACHE_LINE_BYTES * SEQUENTIAL_LINE_NS
        )

    def test_scaled(self):
        doubled = DEFAULT_COST_CONSTANTS.scaled(2.0)
        assert doubled.random_read == pytest.approx(2 * RANDOM_ACCESS_NS)
        assert doubled.seq_write == pytest.approx(2 * DEFAULT_COST_CONSTANTS.seq_write)


class TestAccessCounter:
    def test_counters_accumulate(self):
        counter = AccessCounter()
        counter.random_read(2)
        counter.seq_read(3)
        counter.random_write()
        counter.seq_write(4)
        counter.index_probe()
        assert counter.random_reads == 2
        assert counter.seq_reads == 3
        assert counter.random_writes == 1
        assert counter.seq_writes == 4
        assert counter.index_probes == 1
        assert counter.total_blocks == 10

    def test_cost_is_dot_product(self):
        counter = AccessCounter(random_reads=2, seq_reads=3, random_writes=1)
        constants = CostConstants(
            random_read=10, random_write=20, seq_read=1, seq_write=5
        )
        assert counter.cost(constants) == pytest.approx(2 * 10 + 3 * 1 + 1 * 20)

    def test_snapshot_and_diff(self):
        counter = AccessCounter()
        counter.random_read(5)
        before = counter.snapshot()
        counter.random_read(3)
        counter.seq_write(2)
        diff = counter.diff(before)
        assert diff.random_reads == 3
        assert diff.seq_writes == 2
        assert before.random_reads == 5

    def test_reset(self):
        counter = AccessCounter(random_reads=5, seq_reads=2)
        counter.reset()
        assert counter.total_blocks == 0

    def test_merge_and_add(self):
        first = AccessCounter(random_reads=1, seq_reads=2)
        second = AccessCounter(random_reads=3, random_writes=4)
        total = first + second
        assert total.random_reads == 4
        assert total.seq_reads == 2
        assert total.random_writes == 4
        assert first.random_reads == 1

    def test_index_probe_cost(self):
        counter = AccessCounter(index_probes=3)
        constants = CostConstants(index_probe=50.0)
        assert counter.cost(constants) == pytest.approx(150.0)


class TestBlocksSpanned:
    @pytest.mark.parametrize(
        ("start", "length", "block", "expected"),
        [
            (0, 0, 64, 0),
            (0, 1, 64, 1),
            (0, 64, 64, 1),
            (0, 65, 64, 2),
            (63, 2, 64, 2),
            (64, 64, 64, 1),
            (10, 200, 64, 4),
        ],
    )
    def test_examples(self, start, length, block, expected):
        assert blocks_spanned(start, length, block) == expected

    def test_default_block_values(self):
        assert DEFAULT_BLOCK_VALUES == DEFAULT_BLOCK_BYTES // 4
