"""Worker crashes mid-batch and mid-move: detection, WAL recovery, re-open.

These tests spawn their own throwaway clusters (workers die on purpose;
the shared session cluster must stay healthy).  The fault hooks live in
the worker loop: ``exit_before_apply`` kills the process before the
batch executes, ``exit_before_ack`` after the batch committed through
the shard's WAL (fsync'd) but before the dispatcher hears back -- the
classic lost-ack window that recovery must replay.  The move hooks
(:data:`repro.durability.faults.MOVE_POINTS`) kill a worker at each edge
of the two-phase cross-shard move window; the re-open resolution scan
must land every such kill on a fully-applied or fully-absent move.
"""

from __future__ import annotations

import numpy as np
import pytest
from shard_helpers import payload_for

from repro.durability.faults import MOVE_POINTS
from repro.sharding import ShardedDatabase, WorkerDiedError
from repro.sharding.shard_map import ShardMap
from repro.workload.operations import (
    MultiInsert,
    MultiUpdate,
    PointQuery,
    RangeQuery,
    Update,
)

BASE_KEYS = np.repeat(np.arange(0, 40, dtype=np.int64), 5)  # 200 rows


def durable_db(root, *, faults=None) -> ShardedDatabase:
    return ShardedDatabase.from_rows(
        BASE_KEYS,
        payload_for(BASE_KEYS),
        n_shards=2,
        payload_names=["a", "b"],
        partitions=8,
        block_values=256,
        durability=root,
        fsync="always",
        faults=faults,
    )


def count_all(database) -> int:
    with database.session() as session:
        return int(session.execute(RangeQuery(low=-(2**62), high=2**62)).results[0])


def both_shard_insert(database, start: int) -> MultiInsert:
    """Keys landing on both shards, so the batch fans out."""
    low_key = 0
    high_key = 39
    keys = (low_key, high_key, start, start + 1)
    assert database.shard_map.shard_of(low_key) != database.shard_map.shard_of(
        high_key
    )
    return MultiInsert(
        keys=keys, payloads=tuple(map(tuple, payload_for(keys).tolist()))
    )


class TestLostAck:
    def test_batch_committed_but_unacked_survives_reopen(self, tmp_path):
        root = tmp_path / "db"
        database = durable_db(root, faults={1: {"exit_before_ack": 2}})
        try:
            with database.session() as session:
                session.execute([both_shard_insert(database, 100)])
                with pytest.raises(WorkerDiedError) as info:
                    session.execute([both_shard_insert(database, 200)])
            assert info.value.shard == 1
        finally:
            database.close()
        # The dying shard fsync'd batch 2 before the injected crash, so
        # recovery replays it from the per-shard WAL: nothing is lost.
        recovered = ShardedDatabase.open(root)
        try:
            assert count_all(recovered) == BASE_KEYS.size + 8
        finally:
            recovered.close()

    def test_batch_killed_before_apply_is_absent_after_reopen(self, tmp_path):
        root = tmp_path / "db"
        database = durable_db(root, faults={1: {"exit_before_apply": 2}})
        try:
            with database.session() as session:
                session.execute([both_shard_insert(database, 100)])
                with pytest.raises(WorkerDiedError):
                    session.execute([both_shard_insert(database, 200)])
        finally:
            database.close()
        # Shard 1 died before executing batch 2; shard 0 committed its
        # half.  Per-shard WALs have no cross-shard transaction, so the
        # batch is torn: base rows + batch 1 (4) + shard 0's half of
        # batch 2 (2 of its 4 keys).
        recovered = ShardedDatabase.open(root)
        try:
            shards = recovered.shard_map.shard_of_batch(
                np.asarray([0, 39, 200, 201], dtype=np.int64)
            )
            survivors = int((shards == 0).sum())
            assert count_all(recovered) == BASE_KEYS.size + 4 + survivors
        finally:
            recovered.close()


def move_shards(old_key: int, new_key: int) -> tuple[int, int]:
    """Source/target shards of a BASE_KEYS move without spawning workers."""
    shard_map = ShardMap.from_sorted_keys(np.sort(BASE_KEYS), 2)
    return shard_map.shard_of(old_key), shard_map.shard_of(new_key)


def point_rows(database, key: int):
    with database.session() as session:
        return session.execute(PointQuery(key=int(key))).results[0]


#: Whether the move must be *applied* after recovery from a kill at each
#: window edge.  Only a kill before the source logs anything leaves the
#: move absent; once the ``[move_intent, delete]`` record is durable, the
#: resolution scan re-drives (or confirms) the insert half.
MOVE_OUTCOME = {
    "move.take.before_apply": False,
    "move.take.before_ack": True,
    "move.put.before_apply": True,
    "move.put.before_ack": True,
    "move.forget.before_apply": True,
}


class TestMidMoveKill:
    """Kill matrix over the cross-shard move window (the tentpole bug)."""

    OLD_KEY, NEW_KEY = 0, 39

    @pytest.mark.parametrize("point", MOVE_POINTS)
    def test_kill_at_every_window_edge_recovers_whole_or_absent(
        self, tmp_path, point
    ):
        root = tmp_path / "db"
        source, target = move_shards(self.OLD_KEY, self.NEW_KEY)
        assert source != target
        faulted = target if ".put." in point else source
        database = durable_db(root, faults={faulted: {point: 1}})
        try:
            with database.session() as session:
                with pytest.raises(WorkerDiedError) as info:
                    session.execute(
                        Update(old_key=self.OLD_KEY, new_key=self.NEW_KEY)
                    )
            assert info.value.shard == faulted
        finally:
            database.close()

        recovered = ShardedDatabase.open(root)
        try:
            # Never a lost (or duplicated) row, whatever the kill edge.
            assert count_all(recovered) == BASE_KEYS.size
            old_rows = point_rows(recovered, self.OLD_KEY)
            new_rows = point_rows(recovered, self.NEW_KEY)
            moved_payload = dict(
                zip(("a", "b"), payload_for([self.OLD_KEY])[0].tolist())
            )
            carried = [
                row for row in new_rows if dict(row.payload) == moved_payload
            ]
            if MOVE_OUTCOME[point]:
                # Oracle state after the update: one copy of OLD_KEY now
                # lives at NEW_KEY, payload carried along unchanged.
                assert len(old_rows) == 4
                assert len(new_rows) == 6
                assert len(carried) == 1
            else:
                assert len(old_rows) == 5
                assert len(new_rows) == 5
                assert not carried
        finally:
            recovered.close()

    #: A multi-move wave: distinct keys, both directions across the
    #: fence (keys 0..19 are shard 0, 20..39 shard 1), one miss.
    WAVE_PAIRS = ((0, 39), (1, 38), (30, 2), (31, 3), (1000, 5), (4, 37))

    @pytest.mark.parametrize("faulted", (0, 1))
    @pytest.mark.parametrize("point", MOVE_POINTS)
    def test_wave_killed_at_every_edge_recovers_each_move_whole_or_absent(
        self, tmp_path, point, faulted
    ):
        """The matrix again over a wave: each phase is one list frame
        and one WAL record per shard, and every move must still recover
        individually whole or absent."""
        root = tmp_path / "db"
        routes = [move_shards(old, new) for old, new in self.WAVE_PAIRS]
        assert {(0, 1), (1, 0)} <= set(routes)
        database = durable_db(root, faults={faulted: {point: 1}})
        try:
            with database.session() as session:
                with pytest.raises(WorkerDiedError) as info:
                    session.execute(MultiUpdate(pairs=self.WAVE_PAIRS))
            assert info.value.shard == faulted
        finally:
            database.close()

        recovered = ShardedDatabase.open(root)
        try:
            assert count_all(recovered) == BASE_KEYS.size
            for (old_key, new_key), (source, _) in zip(self.WAVE_PAIRS, routes):
                old_rows = point_rows(recovered, old_key)
                new_rows = point_rows(recovered, new_key)
                moved_payload = dict(
                    zip(("a", "b"), payload_for([old_key])[0].tolist())
                )
                carried = [
                    row
                    for row in new_rows
                    if dict(row.payload) == moved_payload
                ]
                # A phase is one frame per shard: only a kill before the
                # source shard logged its take list leaves its moves
                # absent; every logged intent is re-driven or confirmed.
                whole = old_key in BASE_KEYS and not (
                    point == "move.take.before_apply" and source == faulted
                )
                if whole:
                    assert (len(old_rows), len(new_rows)) == (4, 6), old_key
                    assert len(carried) == 1, old_key
                else:
                    assert len(new_rows) == 5 and not carried, old_key
                    assert len(old_rows) == (5 if old_key in BASE_KEYS else 0)
            resolved = recovered.sync()
        finally:
            recovered.close()
        # Nothing left to resolve: a second re-open appends no record.
        reopened = ShardedDatabase.open(root)
        try:
            assert reopened.sync() == resolved
            assert count_all(reopened) == BASE_KEYS.size
        finally:
            reopened.close()

    def test_lost_row_regression_take_applied_put_never_ran(self, tmp_path):
        """The documented crash-loss bug, pinned: killed between the
        take-apply and the insert-apply, the row used to vanish.  The
        durable intent now carries it through recovery."""
        root = tmp_path / "db"
        source, _ = move_shards(self.OLD_KEY, self.NEW_KEY)
        database = durable_db(
            root, faults={source: {"move.take.before_ack": 1}}
        )
        try:
            with database.session() as session:
                with pytest.raises(WorkerDiedError):
                    session.execute(
                        Update(old_key=self.OLD_KEY, new_key=self.NEW_KEY)
                    )
        finally:
            database.close()

        recovered = ShardedDatabase.open(root)
        try:
            assert count_all(recovered) == BASE_KEYS.size
            # The taken row reappears on the target shard under NEW_KEY
            # with its original payload -- the move completed.
            rows = point_rows(recovered, self.NEW_KEY)
            moved_payload = dict(
                zip(("a", "b"), payload_for([self.OLD_KEY])[0].tolist())
            )
            assert [
                row for row in rows if dict(row.payload) == moved_payload
            ], "taken row was lost across the crash"
            # Recovery is idempotent: a second clean re-open (no intents
            # left unresolved) observes the same state.
        finally:
            recovered.close()
        reopened = ShardedDatabase.open(root)
        try:
            assert count_all(reopened) == BASE_KEYS.size
            assert len(point_rows(reopened, self.NEW_KEY)) == 6
        finally:
            reopened.close()

    def test_moves_resume_after_recovery(self, tmp_path):
        """Post-recovery moves must allocate fresh move ids (seeded past
        the WAL's maximum) and run the full protocol cleanly."""
        root = tmp_path / "db"
        database = durable_db(root)
        try:
            with database.session() as session:
                result = session.execute(
                    Update(old_key=self.OLD_KEY, new_key=self.NEW_KEY)
                )
            assert result.errors == 0
        finally:
            database.close()
        recovered = ShardedDatabase.open(root)
        try:
            with recovered.session() as session:
                result = session.execute(
                    Update(old_key=self.OLD_KEY, new_key=self.NEW_KEY)
                )
            assert result.errors == 0
            assert count_all(recovered) == BASE_KEYS.size
            assert len(point_rows(recovered, self.OLD_KEY)) == 3
            assert len(point_rows(recovered, self.NEW_KEY)) == 7
        finally:
            recovered.close()


class TestShardLsns:
    def test_execute_reports_per_shard_watermarks(self, tmp_path):
        database = durable_db(tmp_path / "db")
        try:
            with database.session() as session:
                result = session.execute([both_shard_insert(database, 100)])
                assert result.commit_lsn is None
                assert result.durable
                # Both shards committed one batch: watermark vector has
                # both entries at LSN 1 (load takes a snapshot, not WAL).
                assert result.shard_lsns == {0: 1, 1: 1}
                # A cross-shard move bumps both sides' watermarks.
                result = session.execute(Update(old_key=0, new_key=39))
                assert result.shard_lsns == {0: 3, 1: 2}
            # A pure read commits nothing, so, as on a serial session, no
            # shard reports a watermark for it.
            with database.session() as session:
                result = session.execute(RangeQuery(low=0, high=10))
                assert result.shard_lsns is None
                assert result.durable
        finally:
            database.close()


class TestKill:
    def test_killed_worker_raises_and_peers_stay_alive(self, tmp_path):
        database = durable_db(tmp_path / "db")
        try:
            database.kill(0)
            assert not database.cluster.alive(0)
            assert database.cluster.alive(1)
            with database.session() as session:
                with pytest.raises(WorkerDiedError) as info:
                    session.execute([both_shard_insert(database, 100)])
            assert info.value.shard == 0
        finally:
            database.close()

    def test_partial_round_failure_leaves_no_stale_reply(self, tmp_path):
        """A round that fails on one shard must still drain the others:
        an unread reply would answer that channel's next request."""
        database = durable_db(tmp_path / "db")
        try:
            database.kill(0)
            with database.session() as session:
                with pytest.raises(WorkerDiedError) as info:
                    session.execute(RangeQuery(low=0, high=39))  # both shards
                assert info.value.shard == 0
                # Shard 1 answered that round with its 100 rows; this
                # count touches shard 1 only and must get its own reply.
                result = session.execute(RangeQuery(low=39, high=39))
            assert result.results == [5]
        finally:
            database.close()

    def test_reopen_after_kill_recovers_the_load(self, tmp_path):
        root = tmp_path / "db"
        database = durable_db(root)
        try:
            with database.session() as session:
                session.execute([both_shard_insert(database, 100)])
            database.sync()
            database.kill(1)
        finally:
            database.close()
        recovered = ShardedDatabase.open(root)
        try:
            assert count_all(recovered) == BASE_KEYS.size + 4
            # Recovery renumbers rows per shard; the logical multiset is
            # what must survive, and new writes keep working.
            with recovered.session() as session:
                result = session.execute([both_shard_insert(recovered, 300)])
            assert result.errors == 0
            assert count_all(recovered) == BASE_KEYS.size + 8
        finally:
            recovered.close()
