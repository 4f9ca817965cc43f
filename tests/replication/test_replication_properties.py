"""Property tests: the follower is oracle-equal at every watermark.

The harness drives a random mixed workload on a durable primary while a
follower tails it, checking after **every** watermark exchange that the
replica equals the oracle prefix at the follower's applied LSN.  Crashes
of the primary are injected at the durability layer's named fault points
(reuse of :class:`FaultInjector`, both kill and power-loss flavors); the
follower must stay consistent *through* the crash -- polling a dead
primary's directory, then reconnecting to the reopened incarnation whose
recovery may have truncated and re-written the un-synced tail under the
same LSNs.  Follower "crashes" are modeled exactly as the real thing: the
process state vanishes and a fresh follower re-bootstraps from the latest
snapshot, which must be idempotent over the records the dead one had
already applied.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from wal_model import (
    OP_KINDS,
    build_batch,
    canonical_model,
    canonical_table,
    payload_for,
)

from repro.api.database import Database
from repro.durability.faults import CRASH_POINTS, FaultInjector, InjectedCrash
from repro.durability.manager import DurabilityConfig
from repro.replication import Follower, Primary

#: Batches of (op kind, choice index); the index picks delete/update
#: victims from the live key set, so specs stay valid whatever state
#: earlier batches left behind.
BATCH_SPECS = st.lists(
    st.lists(
        st.tuples(st.sampled_from(OP_KINDS), st.integers(0, 99)),
        min_size=1,
        max_size=3,
    ),
    min_size=2,
    max_size=6,
)


def make_primary(root, faults=None):
    config = DurabilityConfig(root=root, faults=faults, retry_backoff_s=0.0)
    initial = np.arange(0, 100, 2, dtype=np.int64)
    db = Database.from_rows(
        initial,
        payload_for(initial),
        chunk_size=32,
        payload_names=("a", "b"),
        durability=config,
    )
    model = {
        int(key): tuple(row)
        for key, row in zip(
            initial.tolist(), payload_for(initial).tolist(), strict=True
        )
    }
    return db, model


def assert_at_watermark(follower, models):
    """The one property everything else exists for: after an exchange,
    the replica equals the primary's committed prefix at the applied
    watermark -- never a partial batch, never an un-durable record."""
    applied = follower.applied_lsn
    assert applied in models, f"applied lsn {applied} has no oracle state"
    assert canonical_table(follower.table) == canonical_model(models[applied])


class TestOracleEquality:
    @settings(max_examples=12, deadline=None)
    @given(spec=BATCH_SPECS, checkpoint_at=st.integers(0, 4))
    def test_every_exchanged_watermark_matches_the_oracle(
        self, spec, checkpoint_at
    ):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            db, model = make_primary(root)
            models = {0: model}
            next_key = [1_000_001]
            follower = Follower(
                root, primary=Primary(db.durability), follower_id="f"
            )
            assert_at_watermark(follower, models)
            for i, spec_batch in enumerate(spec):
                if i == checkpoint_at:
                    db.checkpoint()  # rotation handoff mid-stream
                ops, model = build_batch(spec_batch, model, next_key)
                db.engine.execute_batch(ops)
                models[db.durability.last_lsn] = model
                follower.catch_up()
                # fsync="always": every acked batch is durable, so the
                # follower must reach the head at every exchange.
                assert follower.applied_lsn == db.durability.durable_lsn
                assert follower.caught_up
                assert_at_watermark(follower, models)
            follower.table.check_invariants()
            follower.close()
            db.close()

    @settings(max_examples=10, deadline=None)
    @given(
        spec=BATCH_SPECS,
        crash_point=st.sampled_from(CRASH_POINTS),
        power_loss=st.booleans(),
        offset=st.integers(1, 3),
    )
    def test_consistent_through_primary_crash_and_restart(
        self, spec, crash_point, power_loss, offset
    ):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            faults = FaultInjector(power_loss=power_loss)
            db, model = make_primary(root, faults=faults)
            models = {0: model}
            next_key = [1_000_001]
            follower = Follower(
                root, primary=Primary(db.durability), follower_id="f"
            )
            # Arm only after the baseline snapshot has landed.
            faults.crash_at = crash_point
            faults.crash_hit = faults.hits[crash_point] + offset

            acked_lsn = 0
            crashed = False
            for i, spec_batch in enumerate(spec):
                if i == 1:
                    try:
                        db.checkpoint()
                    except InjectedCrash:
                        crashed = True
                        break
                ops, new_model = build_batch(spec_batch, model, next_key)
                try:
                    db.engine.execute_batch(ops)
                except InjectedCrash:
                    # The in-flight record (at acked_lsn + 1, if it landed
                    # at all) may or may not survive; recovery's last_lsn
                    # will tell.  Read-only batches never reach the WAL,
                    # so a crash here implies the batch wrote.
                    models[acked_lsn + 1] = new_model
                    crashed = True
                    break
                model = new_model
                acked_lsn = db.durability.last_lsn
                models[acked_lsn] = model
                follower.catch_up()
                assert_at_watermark(follower, models)

            # The follower outlives the crash: it may keep polling the
            # dead primary's directory (the endpoint's watermarks are the
            # last synced state) and must stay on a committed prefix.
            follower.catch_up()
            assert follower.applied_lsn <= db.durability.durable_lsn
            assert_at_watermark(follower, models)

            # Primary restarts.  Recovery may truncate the un-synced tail
            # (power loss) -- the next incarnation then re-appends
            # different records under the same LSNs, which is exactly what
            # the durable gate protects the follower against.
            if crashed:
                db2 = Database.open(root)
                model = dict(models[db2.recovery.last_lsn])
                follower.reconnect(Primary(db2.durability))
                for spec_batch in spec[:2]:
                    ops, model = build_batch(spec_batch, model, next_key)
                    db2.engine.execute_batch(ops)
                    models[db2.durability.last_lsn] = model
                    follower.catch_up()
                    assert follower.applied_lsn == db2.durability.durable_lsn
                    assert_at_watermark(follower, models)
                db2.close()
            follower.table.check_invariants()
            follower.close()


class TestFollowerRestart:
    @settings(max_examples=10, deadline=None)
    @given(
        spec=BATCH_SPECS,
        restart_after=st.integers(0, 4),
        checkpoint_at=st.integers(0, 4),
    )
    def test_retailing_after_follower_restart_is_idempotent(
        self, spec, restart_after, checkpoint_at
    ):
        """Killing a follower loses nothing but its process state: a
        fresh bootstrap lands on the same oracle prefix the dead one
        served, wherever in the stream (and relative to snapshots) the
        restart happens."""
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            db, model = make_primary(root)
            models = {0: model}
            next_key = [1_000_001]
            primary = Primary(db.durability)
            follower = Follower(root, primary=primary, follower_id="f")
            for i, spec_batch in enumerate(spec):
                if i == checkpoint_at:
                    db.checkpoint()
                ops, model = build_batch(spec_batch, model, next_key)
                db.engine.execute_batch(ops)
                models[db.durability.last_lsn] = model
                if i == restart_after:
                    # Abrupt death: no close(), no pin release -- the
                    # replacement re-registers under the same id, and its
                    # re-pin (possibly *backward*, to its bootstrap
                    # snapshot) supersedes the stale one.
                    follower = Follower(root, primary=primary, follower_id="f")
                    assert_at_watermark(follower, models)
                follower.catch_up()
                assert follower.applied_lsn == db.durability.durable_lsn
                assert_at_watermark(follower, models)
            follower.table.check_invariants()
            assert db.durability.pins() == {"f": follower.applied_lsn}
            follower.close()
            db.close()
