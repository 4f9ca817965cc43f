"""Chunk-level copy-on-write: latches, generation-checked publish, torn reads.

The table's concurrency model (see :mod:`repro.storage.table`) promises
that a read observes every chunk it visits as a complete pre-swap or
post-swap snapshot -- never a torn mix -- and that a publish refuses a
replacement built from data a write has since changed.  These tests pin
both halves: unit tests for the :class:`RWLatch` semantics and the
snapshot/build/publish protocol, plus hypothesis property tests that
interleave ``apply_action``-style swaps with ``multi_point_query`` /
``multi_range_count`` at controlled yield points (the latch boundaries,
where a concurrent publish can legally land mid-span).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.errors import ValueNotFoundError
from repro.storage.latches import ChunkLatches, RWLatch
from repro.storage.layouts import LayoutKind, LayoutSpec
from repro.storage.table import Table, layout_chunk_builder

pytestmark = pytest.mark.concurrency

NUM_KEYS = 256
CHUNK_SIZE = 64
BLOCK_VALUES = 16

SORTED_BUILDER = layout_chunk_builder(
    LayoutSpec(kind=LayoutKind.SORTED, block_values=BLOCK_VALUES)
)
EQUI_BUILDER = layout_chunk_builder(
    LayoutSpec(kind=LayoutKind.EQUI, partitions=4, block_values=BLOCK_VALUES)
)


def make_table() -> Table:
    keys = np.arange(NUM_KEYS, dtype=np.int64) * 2
    payload = (keys * 3).reshape(-1, 1)
    return Table(
        keys,
        payload,
        chunk_size=CHUNK_SIZE,
        chunk_builder=SORTED_BUILDER,
        block_values=BLOCK_VALUES,
    )


class TestRWLatch:
    def test_readers_share(self):
        latch = RWLatch()
        latch.acquire_read()
        entered = threading.Event()

        def second_reader():
            latch.acquire_read()
            entered.set()
            latch.release_read()

        thread = threading.Thread(target=second_reader)
        thread.start()
        assert entered.wait(timeout=5.0), "two readers must share the latch"
        latch.release_read()
        thread.join(timeout=5.0)

    def test_writer_excludes_reader(self):
        latch = RWLatch()
        latch.acquire_write()
        entered = threading.Event()

        def reader():
            latch.acquire_read()
            entered.set()
            latch.release_read()

        thread = threading.Thread(target=reader)
        thread.start()
        assert not entered.wait(timeout=0.1), "reader must wait for the writer"
        latch.release_write()
        assert entered.wait(timeout=5.0), "reader must proceed after release"
        thread.join(timeout=5.0)

    def test_writer_excludes_writer(self):
        latch = RWLatch()
        latch.acquire_write()
        entered = threading.Event()

        def writer():
            with latch:
                entered.set()

        thread = threading.Thread(target=writer)
        thread.start()
        assert not entered.wait(timeout=0.1), "writers must serialize"
        latch.release_write()
        assert entered.wait(timeout=5.0)
        thread.join(timeout=5.0)

    def test_waiting_writer_blocks_new_readers(self):
        # Writer preference: once a writer queues, a fresh reader waits
        # behind it, so a steady read stream cannot starve a publish.
        latch = RWLatch()
        latch.acquire_read()
        writer_done = threading.Event()
        reader_entered = threading.Event()

        def writer():
            with latch:
                writer_done.set()

        def late_reader():
            latch.acquire_read()
            reader_entered.set()
            latch.release_read()

        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        # Give the writer time to queue behind the held read latch.
        assert not writer_done.wait(timeout=0.1)
        reader_thread = threading.Thread(target=late_reader)
        reader_thread.start()
        assert not reader_entered.wait(timeout=0.1), (
            "a reader arriving behind a waiting writer must queue"
        )
        latch.release_read()
        assert writer_done.wait(timeout=5.0)
        assert reader_entered.wait(timeout=5.0)
        writer_thread.join(timeout=5.0)
        reader_thread.join(timeout=5.0)

    def test_write_many_orders_and_deduplicates(self):
        latches = ChunkLatches(4)
        acquired = latches.acquire_write_many([3, 1, 3, 2, 1])
        assert list(acquired) == [1, 2, 3]
        latches.release_write_many(acquired)
        # Releasing restores exclusivity for a fresh acquisition.
        again = latches.acquire_write_many([1, 2, 3])
        latches.release_write_many(again)


class TestGenerationCheckedPublish:
    def test_publish_rejects_stale_snapshot(self):
        table = make_table()
        snapshot = table.snapshot_chunk(1)
        before = table.chunks[1]
        # A write lands after the snapshot: the replacement prices data
        # that no longer exists, so the publish must refuse it.
        table.insert(int(snapshot.values[0]) + 1)
        rebuilt = table.build_chunk_replacement(snapshot, EQUI_BUILDER)
        assert table.publish_chunk(snapshot, rebuilt) is False
        assert table.chunks[1] is not rebuilt
        assert table.chunks[1] is before  # the live chunk rippled in place
        table.check_invariants()

    def test_publish_swaps_in_one_generation_step(self):
        table = make_table()
        generation = table.chunk_generation(2)
        snapshot = table.snapshot_chunk(2)
        rebuilt = table.build_chunk_replacement(snapshot, EQUI_BUILDER)
        assert table.publish_chunk(snapshot, rebuilt) is True
        assert table.chunks[2] is rebuilt
        assert table.chunk_generation(2) == generation + 1
        table.check_invariants()

    def test_double_publish_of_same_snapshot_refused(self):
        # "No replan is double-applied": the first publish bumps the
        # generation, so re-publishing the same decision must fail.
        table = make_table()
        snapshot = table.snapshot_chunk(0)
        first = table.build_chunk_replacement(snapshot, EQUI_BUILDER)
        second = table.build_chunk_replacement(snapshot, EQUI_BUILDER)
        assert table.publish_chunk(snapshot, first) is True
        assert table.publish_chunk(snapshot, second) is False
        assert table.chunks[0] is first
        table.check_invariants()

    def test_publish_tightens_stale_high_fence(self):
        table = make_table()
        # Delete the maximum of chunk 0; its fence goes stale-high.
        top = int(table.chunk_bounds[0])
        table.delete(top)
        snapshot = table.snapshot_chunk(0)
        rebuilt = table.build_chunk_replacement(snapshot, SORTED_BUILDER)
        assert table.publish_chunk(snapshot, rebuilt) is True
        assert int(table.chunk_bounds[0]) == int(snapshot.values[-1])
        assert np.array_equal(table.router.fences, table.chunk_bounds)
        table.check_invariants()

    def test_publish_refuses_write_that_raced_the_build(self):
        table = make_table()

        def racing_builder(values, rowids, counter):
            # A write slips in between snapshot and publish.
            table.insert(1)  # odd key, routes to chunk 0
            return SORTED_BUILDER(values, rowids, counter)

        stale = table.snapshot_chunk(0)
        raced = table.build_chunk_replacement(stale, racing_builder)
        assert table.publish_chunk(stale, raced) is False
        assert table.chunks[0] is not raced
        # A fresh snapshot includes the new key and lands.
        fresh = table.snapshot_chunk(0)
        assert 1 in fresh.values.tolist()
        rebuilt = table.build_chunk_replacement(fresh, SORTED_BUILDER)
        assert table.publish_chunk(fresh, rebuilt) is True
        assert table.chunks[0] is rebuilt
        table.check_invariants()

    def test_snapshot_is_immune_to_later_writes(self):
        table = make_table()
        snapshot = table.snapshot_chunk(0)
        frozen = snapshot.values.copy()
        table.insert(3)
        table.delete(int(frozen[0]))
        assert np.array_equal(snapshot.values, frozen), (
            "a pinned snapshot must not observe writes that follow it"
        )


class TriggerLatch(RWLatch):
    """An instrumented latch that fires a hook at each read acquisition.

    Read acquisitions are the yield points of the table's concurrency
    model: between two chunk visits a reader holds no latch, so a publish
    may legally land there.  The hook runs *before* the acquisition (the
    caller holds nothing), which is exactly where a background apply can
    interleave with a span read.
    """

    __slots__ = ("hook",)

    def __init__(self, hook) -> None:
        super().__init__()
        self.hook = hook

    def acquire_read(self) -> None:
        self.hook()
        super().acquire_read()


def instrument(table: Table, schedule: dict[int, int]) -> None:
    """Swap chunk layouts at scheduled read-latch acquisitions.

    ``schedule`` maps the ordinal of a read acquisition (table-wide) to
    the chunk index to rebuild at that instant, alternating between the
    sorted and equi-partitioned builders -- a content-preserving replan,
    exactly what a background reorganizer publishes.
    """
    state = {"acquires": 0, "inside": 0, "flips": {}}

    def hook() -> None:
        if state["inside"]:
            # Re-entrant acquisition from the rebuild's own snapshot.
            return
        ordinal = state["acquires"]
        state["acquires"] += 1
        target = schedule.get(ordinal)
        if target is None:
            return
        state["inside"] += 1
        try:
            flips = state["flips"].get(target, 0)
            builder = EQUI_BUILDER if flips % 2 == 0 else SORTED_BUILDER
            state["flips"][target] = flips + 1
            # Nothing can write between these phases: the hook runs inside
            # the one thread's latch acquisition.
            snapshot = table.snapshot_chunk(target)
            rebuilt = table.build_chunk_replacement(snapshot, builder)
            assert table.publish_chunk(snapshot, rebuilt)
        finally:
            state["inside"] -= 1

    for chunk_index in range(table.num_chunks):
        table.latches.replace(chunk_index, TriggerLatch(hook))


class TestInterleavedSwapReads:
    """Hypothesis: reads interleaved with publishes are never torn.

    Replans preserve chunk contents, so the observable contract is that
    every read returns exactly what both the pre-swap and post-swap chunk
    hold -- any deviation means the read caught a half-published state.
    """

    @settings(max_examples=40, deadline=None)
    @given(
        keys=st.lists(
            st.integers(min_value=0, max_value=2 * NUM_KEYS),
            min_size=1,
            max_size=24,
        ),
        swaps=st.dictionaries(
            st.integers(min_value=0, max_value=16),
            st.integers(min_value=0, max_value=NUM_KEYS // CHUNK_SIZE - 1),
            max_size=4,
        ),
    )
    def test_point_reads_see_pre_or_post_swap_chunks(self, keys, swaps):
        table = make_table()
        expected = [
            [(row.key, row.payload["a1"]) for row in rows]
            for rows in table.multi_point_query(keys)
        ]
        instrument(table, swaps)
        observed = [
            [(row.key, row.payload["a1"]) for row in rows]
            for rows in table.multi_point_query(keys)
        ]
        assert observed == expected
        table.check_invariants()

    @settings(max_examples=40, deadline=None)
    @given(
        bounds=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2 * NUM_KEYS),
                st.integers(min_value=0, max_value=2 * NUM_KEYS),
            ).map(lambda p: (min(p), max(p))),
            min_size=1,
            max_size=16,
        ),
        swaps=st.dictionaries(
            st.integers(min_value=0, max_value=16),
            st.integers(min_value=0, max_value=NUM_KEYS // CHUNK_SIZE - 1),
            max_size=4,
        ),
    )
    def test_range_counts_see_pre_or_post_swap_chunks(self, bounds, swaps):
        table = make_table()
        expected = table.multi_range_count(bounds).tolist()
        instrument(table, swaps)
        observed = table.multi_range_count(bounds).tolist()
        assert observed == expected
        table.check_invariants()

    @settings(max_examples=25, deadline=None)
    @given(
        keys=st.lists(
            st.integers(min_value=0, max_value=2 * NUM_KEYS),
            min_size=1,
            max_size=12,
        ),
        swap_at=st.integers(min_value=0, max_value=8),
    )
    def test_serial_point_reads_across_swaps(self, keys, swap_at):
        # The per-op path (span loop) yields between candidate chunks too.
        table = make_table()
        expected = [
            [(row.key, row.payload["a1"]) for row in table.point_query(key)]
            for key in keys
        ]
        instrument(table, {swap_at: 1})
        observed = [
            [(row.key, row.payload["a1"]) for row in table.point_query(key)]
            for key in keys
        ]
        assert observed == expected
        table.check_invariants()


class TestInsertRouteRevalidation:
    """Writes that race a fence-tightening publish must re-route.

    Insert routing runs before the chunk latch is taken; a publish that
    tightens the routed chunk's fence in that window would otherwise leave
    the new key above the fence -- permanently invisible to the router.
    The write paths revalidate their routes under the latch and retry.
    """

    @staticmethod
    def _arm_publish_on_write(table, chunk_index, published=None):
        """Instrument chunk ``chunk_index``'s latch to publish chunk
        ``published`` (by default the same one), tightening its fence and
        rebuilding the router, right before the next exclusive
        acquisition."""
        state = {"armed": True}
        published = chunk_index if published is None else published

        class WriteHookLatch(RWLatch):
            def acquire_write(self):
                if state["armed"]:
                    state["armed"] = False
                    snap = table.snapshot_chunk(published)
                    rebuilt = table.build_chunk_replacement(snap)
                    assert table.publish_chunk(snap, rebuilt)
                super().acquire_write()

        table.latches.replace(chunk_index, WriteHookLatch())
        return state

    def test_insert_rerouted_when_publish_tightens_fence(self):
        table = make_table()
        top = int(table.chunk_bounds[0])
        table.delete(top)  # chunk 0's fence goes stale-high at `top`
        state = self._arm_publish_on_write(table, 0)
        # Routed to chunk 0 under the stale fence; the armed publish
        # tightens it before the latch lands, so the insert must re-route
        # (to chunk 1) instead of storing `top` above chunk 0's new fence.
        rowid = table.insert(top)
        assert not state["armed"], "the racing publish must have fired"
        rows = table.point_query(top)
        assert [row.rowid for row in rows] == [rowid]
        table.check_invariants()

    def test_bulk_insert_reroutes_raced_keys(self):
        table = make_table()
        top = int(table.chunk_bounds[0])
        table.delete(top)
        state = self._arm_publish_on_write(table, 0)
        rowids = table.bulk_insert([top, top - 1])
        assert not state["armed"]
        for key, rowid in zip((top, top - 1), rowids.tolist()):
            assert [row.rowid for row in table.point_query(key)] == [rowid]
        table.check_invariants()

    def test_update_target_rerouted_when_publish_tightens_fence(self):
        table = make_table()
        top = int(table.chunk_bounds[0])
        table.delete(top)
        state = self._arm_publish_on_write(table, 0)
        source = int(table.chunks[1].values()[0])
        # The move's insert half targets chunk 0 under the stale fence;
        # after the armed publish tightens it, the revalidation must land
        # `top` where the router can still find it.
        table.update_key(source, top)
        assert not state["armed"]
        assert len(table.point_query(top)) == 1
        assert len(table.point_query(source)) == 0
        table.check_invariants()

    def test_bulk_insert_revalidates_every_group_after_another_chunks_publish(self):
        table = make_table()
        top = int(table.chunk_bounds[1])
        table.delete(top)  # chunk 1's fence goes stale-high at `top`
        # Routing puts 10 in chunk 0 and `top` in chunk 1; latching chunk 0
        # publishes chunk 1, so the router is rebuilt after routing and
        # before either group is latched.  Chunk 0's group still belongs
        # there, but `top` is now above chunk 1's fence: its group must
        # re-route it too (to chunk 2), although the rebuild was noticed
        # at the earlier group.
        state = self._arm_publish_on_write(table, 0, published=1)
        rowids = table.bulk_insert([top, 10])
        assert not state["armed"], "the racing publish must have fired"
        assert int(table.chunk_bounds[1]) < top
        for key, rowid in zip((top, 10), rowids.tolist()):
            assert rowid in [row.rowid for row in table.point_query(key)]
        assert table.chunks[2].point_query(top).size == 1
        table.check_invariants()

    def test_bulk_insert_retries_when_a_key_moves_outside_the_latched_chunks(self):
        table = make_table()
        top = int(table.chunk_bounds[0])
        table.delete(top)  # chunk 0's fence goes stale-high at `top`
        other = int(table.chunks[2].values()[0]) + 1
        generations = [table.chunk_generation(i) for i in range(table.num_chunks)]
        # The batch latches chunks 0 and 2; taking chunk 0's latch publishes
        # chunk 0, which moves `top` to chunk 1, outside the latched set.
        # The batch must release both latches, route again and land `top`
        # in chunk 1 (and `other` in chunk 2 exactly once).
        state = self._arm_publish_on_write(table, 0)
        rowids = table.bulk_insert([other, top])
        assert not state["armed"], "the racing publish must have fired"
        assert int(table.chunk_bounds[0]) < top
        assert table.chunks[0].point_query(top).size == 0
        assert table.chunks[1].point_query(top).size == 1
        assert table.chunks[2].point_query(other).size == 1
        assert [row.rowid for row in table.point_query(top)] == [rowids[1]]
        assert [row.rowid for row in table.point_query(other)] == [rowids[0]]
        # Chunk 0 moved once (the publish), 1 and 2 once each (the insert).
        assert [
            table.chunk_generation(i) - generations[i] for i in range(4)
        ] == [1, 1, 1, 0]
        table.check_invariants()

    def test_bulk_delete_misses_retry_across_a_three_chunk_run(self):
        # 50 fills the tail of chunk 0, all of chunk 1 and the head of
        # chunk 2: fences 50, 50, ... so a miss carries on twice.
        keys = np.concatenate(
            (np.arange(10), np.full(150, 50), np.arange(60, 120))
        ).astype(np.int64)

        def build():
            return Table(
                keys,
                (keys * 3).reshape(-1, 1),
                chunk_size=CHUNK_SIZE,
                chunk_builder=SORTED_BUILDER,
                block_values=BLOCK_VALUES,
            )

        table, serial = build(), build()
        assert table.chunk_bounds[:2].tolist() == [50, 50]
        # Latching chunk 1 (with the carried keys) publishes chunk 0, whose
        # 50s are gone by then: its fence tightens to 9 and the router is
        # rebuilt while the batch is under way.
        state = self._arm_publish_on_write(table, 1, published=0)
        batch = [50] * 152 + [5, 100, 200]
        deleted = table.bulk_delete(batch)
        assert not state["armed"]
        assert int(table.chunk_bounds[0]) == 9
        expected = []
        for key in sorted(batch):
            try:
                expected.append(serial.delete(key))
            except ValueNotFoundError:
                expected.append(0)
        order = np.argsort(batch, kind="stable")
        assert deleted[order].tolist() == expected
        assert deleted.tolist() == [1] * 150 + [0, 0, 1, 1, 0]
        assert table.point_query(50) == []
        assert sorted(table.keys().tolist()) == sorted(serial.keys().tolist())
        table.check_invariants()

    def test_bulk_update_reroutes_pairs_after_a_mid_batch_rebuild(self):
        table = make_table()
        top = int(table.chunk_bounds[0])
        table.delete(top)
        source = int(table.chunks[2].values()[0])
        rowid = table.point_query(source)[0].rowid
        # Both pairs are routed up front; the second one's target is chunk
        # 0 under its stale fence.  Latching the first pair (chunk 1)
        # publishes chunk 0, so by the time the second pair holds its
        # latches the router is another array and the target is chunk 1.
        state = self._arm_publish_on_write(table, 1, published=0)
        updated = table.bulk_update([(200, 201), (source, top)])
        assert not state["armed"]
        assert updated.tolist() == [1, 1]
        assert [row.rowid for row in table.point_query(top)] == [rowid]
        assert table.chunks[1].point_query(top).size == 1
        assert len(table.point_query(source)) == 0
        assert len(table.point_query(201)) == 1
        table.check_invariants()

    def test_bulk_delete_follows_a_key_the_rebuild_moved_on(self):
        table = make_table()
        top = int(table.chunk_bounds[0])
        victim = top - 2
        table.delete(top)
        table.delete(victim)  # chunk 0's fence is stale-high above `victim`
        fired = []

        class PublishThenInsertLatch(RWLatch):
            def acquire_write(self):
                if not fired:
                    fired.append(True)
                    # Tighten chunk 0's fence below `victim`, then insert
                    # it: it now routes to chunk 1.
                    snap = table.snapshot_chunk(0)
                    assert table.publish_chunk(
                        snap, table.build_chunk_replacement(snap)
                    )
                    table.insert(victim)
                super().acquire_write()

        table.latches.replace(0, PublishThenInsertLatch())
        # Routed to chunk 0 under the stale fence, whose span ends there;
        # under the latch the router is another array, so the key re-routes
        # to chunk 1 and finds the row inserted there.
        assert table.bulk_delete([victim]).tolist() == [1]
        assert fired
        assert table.point_query(victim) == []
        table.check_invariants()
