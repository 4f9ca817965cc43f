"""Checkpoint GC vs. live cursors: the delete-under-cursor race.

Before the retention floor existed, ``DurabilityManager.checkpoint``
deleted every WAL segment covered by the oldest kept snapshot -- which is
exactly the history a follower that bootstrapped from an *older* snapshot
still needs.  These tests pin the fix from both sides: a registered pin
(or the ``keep_segments`` fallback) keeps the cursor's segments alive
through repeated checkpoints, and an unprotected laggard fails loudly
with :class:`RetentionGapError` instead of silently serving a hole.
"""

import numpy as np
import pytest
from wal_model import canonical_table, payload_for

from repro.api import Database
from repro.durability.manager import DurabilityConfig
from repro.durability.wal import segment_first_lsn
from repro.replication import Follower, Primary, RetentionGapError
from repro.workload.operations import MultiInsert


def make_db(root, **config_kwargs):
    initial = np.arange(0, 100, 2, dtype=np.int64)
    return Database.from_rows(
        initial,
        payload_for(initial),
        chunk_size=32,
        payload_names=("a", "b"),
        durability=DurabilityConfig(root=root, **config_kwargs),
    )


def churn(db, start_key, rounds=3, batches=2):
    """``rounds`` x (ingest + checkpoint): each round rotates a segment
    and, with ``keep_snapshots=1``, makes every older one GC-eligible."""
    key = start_key
    for _ in range(rounds):
        for _ in range(batches):
            keys = tuple(key + 2 * i for i in range(10))
            key += 20
            db.engine.execute_batch(
                [MultiInsert(keys, tuple(map(tuple, payload_for(keys).tolist())))]
            )
        db.checkpoint()
    return key


class TestDeleteUnderCursorRegression:
    def test_pinned_cursor_survives_aggressive_checkpointing(self, tmp_path):
        db = make_db(tmp_path, keep_snapshots=1)
        primary = Primary(db.durability)
        # The follower bootstraps from the baseline snapshot (lsn 0) and
        # registers, but does not poll while the primary churns through
        # rotations -- the historical race window.
        follower = Follower(tmp_path, primary=primary, follower_id="lagger")
        churn(db, 1_000_001)
        # Every segment above the pin survived: the oldest surviving
        # segment still starts at the cursor's next record.
        segments = db.durability.segments()
        assert segment_first_lsn(segments[0]) == 1
        follower.catch_up()
        assert canonical_table(follower.table) == canonical_table(db.table)
        assert follower.applied_lsn == db.durability.durable_lsn
        follower.close()
        db.close()

    def test_released_pin_lets_gc_reclaim_the_history(self, tmp_path):
        db = make_db(tmp_path, keep_snapshots=1)
        primary = Primary(db.durability)
        follower = Follower(tmp_path, primary=primary, follower_id="lagger")
        key = churn(db, 1_000_001)
        follower.close()  # releases the pin
        churn(db, key, rounds=1)
        segments = db.durability.segments()
        assert segment_first_lsn(segments[0]) > 1  # history reclaimed
        db.close()

    def test_unpinned_laggard_fails_loudly_not_silently(self, tmp_path):
        db = make_db(tmp_path, keep_snapshots=1)
        # No primary endpoint: nothing pins retention for this follower.
        follower = Follower(tmp_path)
        churn(db, 1_000_001)
        with pytest.raises(RetentionGapError, match="re-bootstrap"):
            follower.catch_up()
        # Re-bootstrapping from the latest snapshot is the advertised
        # recovery: the fresh follower needs only surviving segments.
        rebooted = Follower(tmp_path)
        rebooted.catch_up()
        assert canonical_table(rebooted.table) == canonical_table(db.table)
        db.close()

    def test_keep_segments_fallback_covers_unregistered_followers(self, tmp_path):
        db = make_db(tmp_path, keep_snapshots=1, keep_segments=8)
        follower = Follower(tmp_path)  # never pins
        churn(db, 1_000_001)
        follower.catch_up()
        assert canonical_table(follower.table) == canonical_table(db.table)
        db.close()

    def test_pin_advances_with_the_cursor(self, tmp_path):
        db = make_db(tmp_path, keep_snapshots=1)
        primary = Primary(db.durability)
        follower = Follower(tmp_path, primary=primary, follower_id="f")
        key = churn(db, 1_000_001, rounds=2)
        follower.catch_up()
        assert db.durability.pins() == {"f": follower.applied_lsn}
        # With the pin advanced, the next checkpoint may reclaim the
        # now-covered history.
        churn(db, key, rounds=1)
        assert segment_first_lsn(db.durability.segments()[0]) > 1
        follower.close()
        db.close()

    def test_reconnect_repins_on_a_restarted_primary(self, tmp_path):
        db = make_db(tmp_path, keep_snapshots=1)
        follower = Follower(tmp_path, primary=Primary(db.durability), follower_id="f")
        key = churn(db, 1_000_001, rounds=1)
        follower.catch_up()
        db.close()
        # Primary restarts: its manager has no pins until the follower
        # re-announces itself.
        db2 = Database.open(DurabilityConfig(root=tmp_path, keep_snapshots=1))
        assert db2.durability.pins() == {}
        follower.reconnect(Primary(db2.durability))
        assert db2.durability.pins() == {"f": follower.applied_lsn}
        churn(db2, key, rounds=2)
        follower.catch_up()
        assert canonical_table(follower.table) == canonical_table(db2.table)
        follower.close()
        db2.close()
