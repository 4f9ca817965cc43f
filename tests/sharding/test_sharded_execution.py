"""End-to-end sharded execution against live worker processes.

Deterministic scenarios covering every operation kind, the cross-shard
move paths, and the façade surface (``Database.sharded``, stats,
checkpoint/sync, session bookkeeping).  The shared 3-shard cluster is
re-attached per test; randomized oracle equality lives in
``test_sharded_oracle.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from shard_helpers import (
    N_SHARDS,
    encoded_operations,
    normalize,
    payload_for,
    serial_db,
    sharded_db,
)

from repro.api.database import Database
from repro.sharding import ShardedDatabase, ShardError
from repro.storage.engine import plan_batch
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


@pytest.fixture
def keys():
    rng = np.random.default_rng(42)
    return rng.integers(0, 300, size=900).astype(np.int64)


class TestOracleEquality:
    def test_every_read_kind_matches_serial(self, cluster3, keys):
        oplist = [
            PointQuery(key=150),
            PointQuery(key=10_000),  # miss
            PointQuery(key=5, columns=("b",)),
            RangeQuery(low=0, high=299),  # all shards
            RangeQuery(low=90, high=110, aggregate=Aggregate.SUM),
            RangeQuery(low=400, high=500),  # empty
            MultiPointQuery(keys=tuple(range(0, 300, 7))),
            MultiRangeCount(
                bounds=((0, 99), (100, 199), (250, 600), (42, 42))
            ),
        ]
        serial = serial_db(keys)
        with serial.session() as session:
            want = session.execute(list(oplist))
        with sharded_db(cluster3, keys) as database:
            with database.session() as session:
                got = session.execute(list(oplist))
        assert got.errors == want.errors == 0
        for index, (theirs, ours) in enumerate(
            zip(want.results, got.results, strict=True)
        ):
            assert normalize(theirs) == normalize(ours), oplist[index]

    def test_load_order_rowids_match_serial(self, cluster3, keys):
        """Load-time global row ids reproduce the serial table's."""
        op = PointQuery(key=int(keys[0]))
        serial = serial_db(keys)
        with serial.session() as session:
            want = session.execute([op]).results[0]
        with sharded_db(cluster3, keys) as database:
            with database.session() as session:
                got = session.execute([op]).results[0]
        assert sorted(r.rowid for r in got) == sorted(r.rowid for r in want)

    def test_writes_then_reads_match_serial(self, cluster3, keys):
        fresh = [1000, 1001, 1002]
        oplist = [
            MultiInsert(
                keys=tuple(fresh),
                payloads=tuple(map(tuple, payload_for(fresh).tolist())),
            ),
            Insert(key=77, payload=tuple(payload_for([77])[0].tolist())),
            Delete(key=50),
            MultiDelete(keys=(60, 61, 20_000)),
            RangeQuery(low=0, high=2000),
            MultiRangeCount(bounds=((999, 1003), (40, 80))),
        ]
        serial = serial_db(keys)
        with serial.session() as session:
            want = session.execute(list(oplist))
        with sharded_db(cluster3, keys) as database:
            with database.session() as session:
                got = session.execute(list(oplist))
            assert got.errors == want.errors
            # Reads after writes agree; insert rowids are a documented
            # divergence, so compare only shapes there.
            assert normalize(got.results[4]) == normalize(want.results[4])
            assert normalize(got.results[5]) == normalize(want.results[5])
            assert np.asarray(got.results[0]).shape == (3,)
            assert database.num_rows == serial.num_rows


class TestCrossShardMoves:
    def test_scalar_update_across_shards(self, cluster3):
        keys = np.arange(0, 300, dtype=np.int64)  # ~100 keys per shard
        with sharded_db(cluster3, keys) as database:
            source = database.shard_map.shard_of(10)
            target = database.shard_map.shard_of(290)
            assert source != target
            with database.session() as session:
                result = session.execute(
                    [
                        Update(old_key=10, new_key=290),
                        PointQuery(key=10),
                        PointQuery(key=290),
                    ]
                )
            assert result.errors == 0
            old, new = result.results[1], result.results[2]
            assert old == []
            assert len(new) == 2  # original 290 plus the moved row
            # The moved row keeps its payload through the take+insert.
            payloads = sorted(tuple(r.payload.values()) for r in new)
            assert tuple(payload_for([10])[0].tolist()) in payloads

    def test_scalar_update_miss_counts_one_error(self, cluster3):
        keys = np.arange(0, 300, dtype=np.int64)
        with sharded_db(cluster3, keys) as database:
            with database.session() as session:
                result = session.execute([Update(old_key=5555, new_key=1)])
            assert result.errors == 1
            assert result.results == [None]

    def test_multi_update_mixes_local_and_cross_shard(self, cluster3):
        keys = np.arange(0, 300, dtype=np.int64)
        pairs = (
            (10, 11),  # local to shard 0
            (20, 290),  # cross shard, forces a barrier
            (290, 30),  # cross back: must observe the previous move
            (7777, 1),  # miss: flag 0, not an error
            (150, 151),  # local to the middle shard
        )
        serial = serial_db(keys)
        with serial.session() as session:
            want = session.execute([MultiUpdate(pairs=pairs)])
        with sharded_db(cluster3, keys) as database:
            with database.session() as session:
                got = session.execute([MultiUpdate(pairs=pairs)])
        assert got.errors == want.errors == 0
        assert normalize(got.results[0]) == normalize(want.results[0])

    def test_moves_on_a_table_without_payload_columns(self, cluster3):
        """Zero-width payload rows survive the arena round trip."""
        keys = np.arange(0, 300, dtype=np.int64)
        oplist = [
            MultiUpdate(pairs=((10, 290), (280, 20), (7777, 1))),
            Update(old_key=150, new_key=5),
            MultiRangeCount(bounds=((0, 99), (100, 199), (200, 299))),
        ]
        serial = Database.from_rows(keys)
        with serial.session() as session:
            want = session.execute(list(oplist))
        with ShardedDatabase.from_rows(
            keys, n_shards=N_SHARDS, cluster=cluster3
        ) as database:
            with database.session() as session:
                got = session.execute(list(oplist))
        assert got.errors == want.errors == 0
        for theirs, ours in zip(want.results, got.results, strict=True):
            assert normalize(theirs) == normalize(ours)

    def test_post_move_state_matches_serial(self, cluster3):
        keys = np.arange(0, 300, dtype=np.int64)
        workload = Workload(
            operations=[
                MultiUpdate(pairs=((0, 299), (299, 0), (100, 200))),
                MultiRangeCount(bounds=tuple((k, k) for k in range(0, 300, 3))),
                RangeQuery(low=0, high=400),
            ],
            name="moves",
        )
        serial = serial_db(keys)
        with serial.session() as session:
            want = session.execute(workload)
        with sharded_db(cluster3, keys) as database:
            with database.session() as session:
                got = session.execute(workload)
        for theirs, ours in zip(want.results, got.results, strict=True):
            assert normalize(theirs) == normalize(ours)


class TestPlannedRouting:
    """A call is routed as the engine's batch plan: one sub-operation per
    (plan group, shard), not one per submitted operation."""

    def test_shuffled_per_op_call_ships_one_sub_operation_per_group_and_shard(
        self, cluster3
    ):
        keys = np.arange(0, 300, dtype=np.int64)  # ~100 keys per shard
        rng = np.random.default_rng(7)

        def reads():
            stretch = [PointQuery(key=int(k)) for k in rng.integers(0, 300, 60)]
            stretch.append(PointQuery(key=10_000))  # miss: an empty row list
            stretch += [
                RangeQuery(low=int(low), high=int(low) + 40)
                for low in rng.integers(0, 300, 30)
            ]
            return [stretch[i] for i in rng.permutation(len(stretch))]

        # Writes on pairwise distinct keys: inserts of fresh keys, deletes
        # in the middle shard (five miss), cross-shard updates from the
        # first shard to the last (two miss).
        writes = [Insert(key=1000 + i) for i in range(40)]
        writes += [Delete(key=100 + i) for i in range(40)]
        writes += [Delete(key=5000 + i) for i in range(5)]
        writes += [Update(old_key=i, new_key=250 + i) for i in range(30)]
        writes += [Update(old_key=-1, new_key=295), Update(old_key=-2, new_key=296)]
        writes = [writes[i] for i in rng.permutation(len(writes))]
        oplist = reads() + writes + reads()
        groups = len(plan_batch(oplist))
        assert groups == 7  # point, count | insert, delete, update | point, count

        serial = serial_db(keys)
        with serial.session() as session:
            want = session.execute(list(oplist))
        with sharded_db(cluster3, keys) as database, encoded_operations() as sent:
            assert database.shard_map.shard_of(0) != database.shard_map.shard_of(250)
            with database.session() as session:
                got = session.execute(list(oplist))
            assert database.num_rows == serial.num_rows
        assert sum(len(sub_batch) for sub_batch in sent) <= groups * N_SHARDS
        assert got.errors == want.errors == 5 + 2
        for op, theirs, ours in zip(oplist, want.results, got.results, strict=True):
            if isinstance(op, Insert):
                # Post-load row ids: documented divergence.
                assert (ours is None) == (theirs is None)
            else:
                assert normalize(ours) == normalize(theirs), op


class TestPlannedShards:
    """``plan=`` and ``reorg=True``: every worker plans its own shard from
    the sample and replans it alone; results stay the serial oracle's."""

    def test_bulk_form_plan_with_reorg_matches_serial(self, cluster3, keys):
        # An insert-heavy sample in bulk form (the form sharded callers
        # submit), then point- and range-heavy traffic to drift from it.
        sample = Workload(
            operations=[
                MultiInsert(keys=tuple(range(0, 300, 2))),
                MultiPointQuery(keys=tuple(range(0, 300, 5))),
                MultiUpdate(pairs=((10, 11), (150, 160), (290, 20))),
                MultiDelete(keys=(5, 105, 205)),
                MultiRangeCount(bounds=((0, 50), (100, 180))),
            ],
            name="bulk-sample",
        )
        fresh = [1000, 1001, 40, 140]
        calls = [
            [
                MultiPointQuery(keys=tuple(range(0, 300, 3))),
                MultiRangeCount(bounds=((0, 99), (90, 210), (250, 600))),
                PointQuery(key=150),
                RangeQuery(low=20, high=280, aggregate=Aggregate.SUM),
            ],
            [
                MultiInsert(
                    keys=tuple(fresh),
                    payloads=tuple(map(tuple, payload_for(fresh).tolist())),
                ),
                MultiDelete(keys=(60, 61, 20_000)),
                Delete(key=9_999),  # miss: one error
                MultiUpdate(pairs=((10, 290), (280, 20), (7777, 1))),
                Update(old_key=150, new_key=5),
            ],
            [MultiPointQuery(keys=tuple(range(300)))] * 3,
            [
                MultiRangeCount(bounds=tuple((k, k + 9) for k in range(0, 300, 10))),
                RangeQuery(low=0, high=2000),
            ],
        ]
        serial = serial_db(keys)
        with sharded_db(
            cluster3, keys, plan=sample, reorg=True
        ) as database:
            with serial.session() as oracle, database.session() as session:
                for oplist in calls:
                    want = oracle.execute(list(oplist))
                    got = session.execute(list(oplist))
                    assert got.errors == want.errors
                    for op, theirs, ours in zip(
                        oplist, want.results, got.results, strict=True
                    ):
                        if isinstance(op, MultiInsert):
                            # Insert row ids: documented divergence.
                            assert len(ours) == len(theirs)
                        else:
                            assert normalize(theirs) == normalize(ours), op
            assert database.num_rows == serial.num_rows
            stats = database.stats()
        assert all(s["violations"] == 0 for s in stats.values())
        # The drift away from the sample is large: reorg did act.
        assert any(s["replans"] for s in stats.values())


def frames_served(database) -> dict[int, dict[str, int]]:
    """Per-shard frame counters of the worker ``stats`` verb."""
    names = ("batches", "takes", "puts", "forgets", "frames")
    return {
        shard: {name: stat[name] for name in names}
        for shard, stat in database.stats().items()
    }


class TestMoveWaveFrames:
    """The wave's cost, as counted by the workers themselves."""

    def test_distinct_key_multi_update_is_four_frames_per_shard(
        self, cluster3
    ):
        keys = np.arange(0, 300, dtype=np.int64)
        # Cross-shard pairs in every direction plus local ones, one miss
        # among them, no key used twice: one wave.
        pairs = (
            (0, 900), (10, 910), (20, 920),  # shard 0 -> 2
            (250, 5), (260, 15), (270, 25),  # shard 2 -> 0
            (150, 35), (40, 145), (170, 275),  # 1 -> 0, 0 -> 1, 1 -> 2
            (12, 13), (152, 153), (280, 281),  # local to each shard
            (7777, 3),  # miss
        )
        assert len({key for pair in pairs for key in pair}) == 2 * len(pairs)
        serial = serial_db(keys)
        with serial.session() as session:
            want = session.execute([MultiUpdate(pairs=pairs)])
        with sharded_db(cluster3, keys) as database:
            before = frames_served(database)
            with database.session() as session:
                got = session.execute([MultiUpdate(pairs=pairs)])
            after = frames_served(database)
            assert database.num_rows == serial.num_rows
        assert got.errors == want.errors == 0
        assert normalize(got.results[0]) == normalize(want.results[0])
        for shard in range(N_SHARDS):
            spent = {
                name: after[shard][name] - before[shard][name]
                for name in after[shard]
            }
            # One sub-batch, one take list, one put list, one forget list.
            assert spent["batches"] <= 1 and spent["takes"] <= 1, spent
            assert spent["puts"] <= 1 and spent["forgets"] <= 1, spent
            assert spent["frames"] <= 4, spent
            assert spent["frames"] == sum(
                spent[name] for name in ("batches", "takes", "puts", "forgets")
            )

    def test_key_reuse_splits_the_wave(self, cluster3):
        keys = np.arange(0, 300, dtype=np.int64)
        with sharded_db(cluster3, keys) as database:
            source = database.shard_map.shard_of(20)
            before = frames_served(database)
            with database.session() as session:
                result = session.execute(
                    [MultiUpdate(pairs=((20, 290), (290, 30), (21, 291)))]
                )
            after = frames_served(database)
        assert result.results[0].tolist() == [1, 1, 1]
        # (290, 30) reuses 290, so it opens a second wave; (21, 291)
        # rides along with it.  Shard 0 is a source in both.
        assert after[source]["takes"] - before[source]["takes"] == 2

    def test_a_wave_of_misses_stops_after_the_take_round(self, cluster3):
        keys = np.arange(0, 300, dtype=np.int64)
        with sharded_db(cluster3, keys) as database:
            before = frames_served(database)
            with database.session() as session:
                result = session.execute(
                    [
                        Update(old_key=1000, new_key=5),
                        Update(old_key=-7, new_key=299),
                    ]
                )
            after = frames_served(database)
        assert result.errors == 2
        spent = {
            name: sum(after[s][name] - before[s][name] for s in after)
            for name in ("takes", "puts", "forgets")
        }
        assert spent == {"takes": 2, "puts": 0, "forgets": 0}


class TestFacade:
    def test_database_sharded_entry_point(self, cluster3, keys):
        database = Database.sharded(
            keys,
            payload_for(keys),
            n_shards=N_SHARDS,
            cluster=cluster3,
            payload_names=["a", "b"],
        )
        with database:
            assert isinstance(database, ShardedDatabase)
            assert database.n_shards == N_SHARDS
            with database.session() as session:
                result = session.execute(RangeQuery(low=0, high=1000))
            assert result.results[0] == keys.size

    def test_session_result_contract(self, cluster3, keys):
        with sharded_db(cluster3, keys) as database:
            with database.session() as session:
                result = session.execute(
                    [RangeQuery(low=0, high=299), Insert(key=5)]
                )
                assert result.commit_lsn is None  # documented divergence
                assert result.durable
                assert result.operations == 2
                assert result.accesses.total_blocks > 0
                assert session.last_shard_accesses  # per-shard breakdown
                assert set(session.last_shard_accesses) <= set(
                    range(N_SHARDS)
                )
                session.close()
                assert session.closed
                with pytest.raises(ShardError):
                    session.execute([PointQuery(key=1)])
                # A closed session no longer fans out to the shards either.
                with pytest.raises(ShardError, match="session is closed"):
                    session.sync()

    def test_execute_accepts_any_iterable(self, cluster3, keys):
        oplist = [PointQuery(key=int(k)) for k in keys[:20]]
        oplist.append(RangeQuery(low=0, high=150))
        serial = serial_db(keys)
        with serial.session() as session:
            want = session.execute(op for op in oplist)
        with sharded_db(cluster3, keys) as database:
            with database.session() as session:
                got = session.execute(op for op in oplist)
                workload = session.execute(Workload(list(oplist)))
        assert got.operations == workload.operations == len(oplist)
        for result in (got, workload):
            assert [normalize(r) for r in result.results] == [
                normalize(r) for r in want.results
            ]

    def test_stats_cover_every_shard(self, cluster3, keys):
        with sharded_db(cluster3, keys) as database:
            stats = database.stats()
            assert sorted(stats) == list(range(N_SHARDS))
            assert sum(s["rows"] for s in stats.values()) == keys.size
            assert all(s["violations"] == 0 for s in stats.values())

    def test_closed_database_rejects_sessions(self, cluster3, keys):
        database = sharded_db(cluster3, keys)
        database.close()
        database.close()  # idempotent
        with pytest.raises(ShardError):
            database.session()
        # The shared cluster stays usable for the next attach.
        assert all(cluster3.alive(s) for s in range(N_SHARDS))

    def test_closed_database_rejects_its_open_sessions(self, cluster3, keys):
        """A session outliving its database must not reach the database
        attached to the shared cluster after it."""
        database = sharded_db(cluster3, keys)
        session = database.session()
        database.close()
        with sharded_db(cluster3, keys[:100]):
            with pytest.raises(ShardError, match="sharded database is closed"):
                session.execute(RangeQuery(low=0, high=10**6))

    def test_open_ignores_the_removed_execution_key(
        self, cluster3, keys, tmp_path
    ):
        """Manifests written before the ``execution`` option was removed
        carry its one value; they must keep opening."""
        import json

        with sharded_db(cluster3, keys, durability=tmp_path) as database:
            with database.session() as session:
                session.execute([Insert(key=77)])
        manifest = tmp_path / "manifest.json"
        meta = json.loads(manifest.read_text())
        assert "execution" not in meta["config"]
        meta["config"]["execution"] = "serial"
        manifest.write_text(json.dumps(meta))
        with ShardedDatabase.open(tmp_path, cluster=cluster3) as database:
            assert database.num_rows == keys.size + 1

    def test_mismatched_cluster_size_rejected(self, cluster3, keys):
        with pytest.raises(ShardError):
            ShardedDatabase.from_rows(
                keys, payload_for(keys), n_shards=2, cluster=cluster3
            )

    def test_unknown_verb_is_an_error_reply_not_a_hang(self, cluster3, keys):
        with sharded_db(cluster3, keys):
            channel = cluster3.channel(0)
            with pytest.raises(ShardError, match="unknown verb"):
                channel.request({"verb": "no-such-verb"})
            # The stream stays framed: the next request works.
            assert channel.request({"verb": "stats"})["ok"]

    def test_unbuildable_frame_mid_round_leaves_no_stale_reply(
        self, cluster3, keys
    ):
        """Whatever stops a round -- here shard 1's sub-batch fails to
        encode with a plain ``ValueError`` -- the shards already sent to
        are drained, so their next request gets its own reply."""
        with sharded_db(cluster3, keys):
            everything = RangeQuery(low=-(2**62), high=2**62)
            with pytest.raises(ValueError):
                cluster3.execute_round(
                    {
                        0: [everything],
                        1: [MultiPointQuery(keys=("not-a-key",))],
                        2: [everything],
                    }
                )
            # Shard 0 answered that round with its (non-zero) row count;
            # an empty range must get its own reply, not that one.
            nothing = RangeQuery(low=2**61, high=2**62)
            assert cluster3.execute_round({0: [nothing]})[0].results == [0]
