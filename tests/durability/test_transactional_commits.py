"""WAL-logged MVCC transaction commits: atomicity, aborts, crash matrix.

A durable commit publishes the transaction's write set as **one atomic
WAL record** (the ``CallLog(atomic=True)`` flag in the count's high
bit), so crash recovery replays every committed transaction whole or not
at all -- never a fragment.  Aborts (explicit or conflict) log nothing.

The harness mirrors ``test_crash_properties``: an oracle model advances
in lockstep with the engine, one transaction per step, a fault injector
crashes at a named I/O point, and the recovered table must equal the
oracle after ``j`` transactions for some ``j`` in ``{acked, applied}``.
Workload keys are unique by construction (initial keys even, generated
keys odd), the regime the oracle-equality contract is stated under.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from wal_model import canonical_model, canonical_table, payload_for

from repro.api.database import Database
from repro.durability.errors import ReadOnlyError, WalUnavailableError
from repro.durability.faults import CRASH_POINTS, FaultInjector, InjectedCrash
from repro.durability.manager import DurabilityConfig
from repro.durability.wal import decode_delta_log, scan_segment, segment_first_lsn
from repro.storage.errors import TransactionConflictError

TXN_KINDS = ("insert", "delete", "update")

#: A workload spec: transactions of (op kind, choice index).  The index
#: picks delete/update victims from the live keys the transaction has not
#: already written, so intent applies can never raise mid-commit.
TXN_SPECS = st.lists(
    st.lists(
        st.tuples(st.sampled_from(TXN_KINDS), st.integers(0, 99)),
        min_size=1,
        max_size=4,
    ),
    min_size=2,
    max_size=5,
)


def wal_records(root):
    """All decoded ``(lsn, CallLog)`` records under ``root``."""
    segments = sorted(
        (Path(root) / "wal").glob("wal-*.log"), key=segment_first_lsn
    )
    out = []
    for segment in segments:
        for lsn, body in scan_segment(segment).records:
            out.append((lsn, decode_delta_log(body)))
    return out


def transactional_db(root, *, faults=None, max_retries=4, **kwargs):
    config = DurabilityConfig(
        root=root, faults=faults, max_retries=max_retries, retry_backoff_s=0.0
    )
    initial = np.arange(0, 100, 2, dtype=np.int64)
    db = Database.from_rows(
        initial,
        payload_for(initial),
        chunk_size=32,
        payload_names=("a", "b"),
        durability=config,
        **kwargs,
    )
    model = {
        int(key): tuple(row)
        for key, row in zip(
            initial.tolist(), payload_for(initial).tolist(), strict=True
        )
    }
    return db, model


def build_txn(engine, spec_txn, model, next_key):
    """Buffer one transaction; returns ``(txn, post-commit model)``.

    Keys already written by this transaction are never picked again, so
    every intent apply succeeds -- a commit can only die at an injected
    I/O fault, keeping the atomicity question isolated.
    """
    txn = engine.begin_transaction()
    scratch = dict(model)
    used: set[int] = set()
    for kind, idx in spec_txn:
        if kind == "insert":
            key = next_key[0]
            next_key[0] += 2
            row = payload_for([key]).tolist()[0]
            engine.transactional_insert(txn, key, row)
            scratch[key] = tuple(row)
            used.add(key)
        else:
            live = sorted(k for k in scratch if k not in used)
            if not live:
                continue
            victim = live[idx % len(live)]
            if kind == "delete":
                engine.transactional_delete(txn, victim)
                scratch.pop(victim)
                used.add(victim)
            else:
                new = next_key[0]
                next_key[0] += 2
                engine.transactional_update(txn, victim, new)
                scratch[new] = scratch.pop(victim)
                used.update((victim, new))
    return txn, scratch


def run_txn_crash_scenario(root, spec, crash_point, power_loss, offset):
    """Commit ``spec``'s transactions, crashing at ``crash_point``.

    Returns ``(crashed, recovered, allowed)`` exactly as the batch-based
    harness does: the recovered canonical state must be an oracle prefix
    -- whole transactions only.
    """
    faults = FaultInjector(power_loss=power_loss)
    db, model = transactional_db(root, faults=faults)
    prefixes = [canonical_model(model)]
    next_key = [1_000_001]

    # Arm the injector only now: the baseline snapshot above must land.
    faults.crash_at = crash_point
    faults.crash_hit = faults.hits[crash_point] + offset

    acked = 0
    applied = 0
    crashed = False
    for i, spec_txn in enumerate(spec):
        if i == 1:
            # A mid-run checkpoint makes the snapshot crash points
            # reachable; an injected crash aborts it without rotating.
            try:
                db.checkpoint()
            except InjectedCrash:
                crashed = True
                break
        txn, new_model = build_txn(db.engine, spec_txn, model, next_key)
        try:
            db.engine.commit(txn)
        except InjectedCrash:
            # Intents applied in memory before the WAL append/fsync
            # crashed: the commit's one record landed whole or not at
            # all -- never a fragment.
            crashed = True
            model = new_model
            prefixes.append(canonical_model(model))
            applied = acked + 1
            break
        model = new_model
        prefixes.append(canonical_model(model))
        acked += 1
        applied = acked
    if not crashed:
        db.close()

    recovered_db = Database.open(root)
    try:
        recovered = canonical_table(recovered_db.table)
        recovered_db.table.check_invariants()
    finally:
        recovered_db.close()
    allowed = [prefixes[acked], prefixes[applied]]
    return crashed, recovered, allowed


class TestAtomicCommitRecord:
    def test_commit_publishes_one_atomic_record(self, tmp_path):
        db, model = transactional_db(tmp_path)
        engine = db.engine
        txn = engine.begin_transaction()
        engine.transactional_insert(txn, 1_000_001, (3, 4))
        engine.transactional_delete(txn, 0)
        engine.transactional_update(txn, 2, 1_000_003)
        engine.commit(txn)
        db.close()

        records = wal_records(tmp_path)
        assert len(records) == 1
        _, log = records[0]
        assert log.atomic
        assert [record.kind for record in log.records] == [
            "insert",
            "delete",
            "update",
        ]
        # Recovery replays the whole write set.
        model.pop(0)
        model[1_000_001] = (3, 4)
        model[1_000_003] = model.pop(2)
        recovered = Database.open(tmp_path)
        try:
            assert canonical_table(recovered.table) == canonical_model(model)
        finally:
            recovered.close()

    def test_committed_writes_are_observed_and_counted(self, tmp_path):
        # Intents apply through the engine's own write methods inside the
        # commit's one scope: one atomic record, and the monitor and the
        # statistics see the writes like any others.
        db, _ = transactional_db(tmp_path, monitor=True)
        engine = db.engine
        txn = engine.begin_transaction()
        engine.transactional_insert(txn, 1_000_001, (3, 4))
        engine.transactional_insert(txn, 1, (5, 6))
        engine.transactional_delete(txn, 0)
        engine.transactional_update(txn, 2, 1_000_003)
        engine.commit(txn)
        db.close()

        (_, log), = wal_records(tmp_path)
        assert log.atomic
        assert [record.kind for record in log.records] == [
            "insert",
            "insert",
            "delete",
            "update",
        ]
        assert engine.statistics.operations == {
            "insert": 2,
            "delete": 1,
            "update": 1,
        }
        observed = {}
        for chunk in db.monitor.observed_chunks():
            for kind, count in db.monitor.operation_counts(chunk).items():
                observed[kind] = observed.get(kind, 0) + count
        assert observed == {
            "insert": 2,
            "delete": 1,
            "update_source": 1,
            "update_target": 1,
        }

    def test_abort_logs_nothing(self, tmp_path):
        db, model = transactional_db(tmp_path)
        engine = db.engine
        txn = engine.begin_transaction()
        engine.transactional_insert(txn, 1_000_001, (1, 2))
        engine.transactional_delete(txn, 0)
        engine.abort(txn)
        db.close()
        assert wal_records(tmp_path) == []
        recovered = Database.open(tmp_path)
        try:
            assert canonical_table(recovered.table) == canonical_model(model)
        finally:
            recovered.close()

    def test_conflict_abort_logs_nothing(self, tmp_path):
        db, model = transactional_db(tmp_path)
        engine = db.engine
        first = engine.begin_transaction()
        second = engine.begin_transaction()
        engine.transactional_delete(first, 0)
        engine.transactional_delete(second, 0)
        engine.commit(first)
        with pytest.raises(TransactionConflictError):
            engine.commit(second)
        db.close()
        # Only the winner reached the log; the loser left no trace.
        assert len(wal_records(tmp_path)) == 1
        model.pop(0)
        recovered = Database.open(tmp_path)
        try:
            assert canonical_table(recovered.table) == canonical_model(model)
        finally:
            recovered.close()

    def test_empty_transaction_commits_without_logging(self, tmp_path):
        db, _ = transactional_db(tmp_path)
        txn = db.engine.begin_transaction()
        db.engine.commit(txn)
        db.close()
        assert wal_records(tmp_path) == []


    def test_read_only_transaction_commits_on_a_degraded_database(
        self, tmp_path
    ):
        faults = FaultInjector()
        db, _ = transactional_db(tmp_path, faults=faults, max_retries=1)
        engine = db.engine
        faults.io_error_at = "wal.write"
        faults.io_errors = 10**9
        txn = engine.begin_transaction()
        engine.transactional_insert(txn, 1_000_001, (1, 2))
        with pytest.raises(WalUnavailableError):
            engine.commit(txn)
        assert db.read_only
        # No write intents: no commit lock, no writability check.
        reader = engine.begin_transaction()
        reader.record_read(0)
        assert engine.commit(reader) > 0
        writer = engine.begin_transaction()
        engine.transactional_delete(writer, 0)
        with pytest.raises(ReadOnlyError):
            engine.commit(writer)
        faults.io_errors = 0
        db.close()


class TestTransactionalCrashRecoveryProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        spec=TXN_SPECS,
        crash_point=st.sampled_from(CRASH_POINTS),
        power_loss=st.booleans(),
        offset=st.integers(1, 4),
    )
    def test_recovery_lands_on_a_whole_transaction_prefix(
        self, spec, crash_point, power_loss, offset
    ):
        with tempfile.TemporaryDirectory() as root:
            crashed, recovered, allowed = run_txn_crash_scenario(
                Path(root), spec, crash_point, power_loss, offset
            )
            assert recovered in allowed
            if not crashed:
                # No crash fired: a clean shutdown must lose nothing.
                assert recovered == allowed[-1]


class TestTransactionalCrashMatrix:
    """Deterministic anchor for the CI crash-point matrix."""

    #: Fixed workload: four multi-write transactions mixing all kinds, so
    #: every crash offset lands somewhere interesting.
    SPEC = [
        [("insert", 0), ("delete", 3), ("update", 7)],
        [("update", 1), ("insert", 2)],
        [("delete", 11), ("insert", 5), ("delete", 4)],
        [("update", 9), ("delete", 19)],
    ]

    @pytest.mark.parametrize("power_loss", [False, True], ids=["kill", "power"])
    @pytest.mark.parametrize("crash_point", CRASH_POINTS)
    def test_every_crash_point_recovers(self, tmp_path, crash_point, power_loss):
        # The payload segment and the manifest are written once per
        # checkpoint and only one checkpoint runs after the injector is
        # armed; every other point fires repeatedly, so the second hit
        # exercises a mid-run crash.
        offset = 1 if crash_point in ("snapshot.segment", "snapshot.manifest") else 2
        crashed, recovered, allowed = run_txn_crash_scenario(
            tmp_path, self.SPEC, crash_point, power_loss, offset
        )
        assert crashed, f"crash point {crash_point} never fired"
        assert recovered in allowed
