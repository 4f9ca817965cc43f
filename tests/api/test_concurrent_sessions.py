"""Threaded stress tests: N sessions over one engine, reorg in background.

One :class:`Database` hands out several live :class:`Session`s (one per
thread); the table's chunk-granular latches isolate their executions, and
a shared background :class:`Reorganizer` publishes copy-on-write replans
while the sessions run.  The tests pin three contracts:

* **serial-oracle equality** -- when the sessions' workloads commute (reads
  against a stable key region, writes in per-session disjoint regions),
  every session's results and the final table state equal a serial run of
  the same operation lists on a fresh identical database, under *any*
  interleaving;
* **structural integrity** -- ``Table.check_invariants()`` holds after the
  threads join, whatever the interleaving did;
* **replan accounting** -- no replan is lost (the queue drains to empty by
  the last close) or double-applied (the generation-checked publish
  refuses a repeated or raced action, counting a requeue instead), and the
  shielded background worker swallows no exceptions (``errors == 0``).

CI runs this module 5x with randomized ``PYTHONHASHSEED`` and a tight
thread-switch interval (``REPRO_SWITCH_INTERVAL``) to widen race windows;
see the ``concurrency`` marker in ``tests/conftest.py``.
"""

from __future__ import annotations

import itertools
import threading

import numpy as np
import pytest

from repro.api import (
    Database,
    Reorganizer,
    ReorgAction,
    ReorgPolicy,
    SerialPolicy,
    VectorizedPolicy,
)
from repro.workload.distributions import EarlySkewSampler
from repro.workload.generator import WorkloadGenerator, WorkloadMix
from repro.workload.operations import (
    Delete,
    Insert,
    MultiInsert,
    MultiPointQuery,
    PointQuery,
    RangeQuery,
    Update,
)

pytestmark = pytest.mark.concurrency

NUM_ROWS = 8_192
CHUNK_SIZE = 1_024
BLOCK_VALUES = 128
NUM_SESSIONS = 4

#: Reads stay below this key; writes stay at or above it.  Inserts and
#: deletes in the upper region can never change a read's result, so any
#: interleaving of the sessions serves the same answers as a serial run.
STABLE_LIMIT = NUM_ROWS  # keys 0..NUM_ROWS-2 (even) live in the lower chunks


def make_keys() -> np.ndarray:
    return np.arange(NUM_ROWS, dtype=np.int64) * 2


def make_db() -> Database:
    keys = make_keys()
    payload = (keys * 3).reshape(-1, 1)
    return Database.from_rows(
        keys,
        payload,
        chunk_size=CHUNK_SIZE,
        block_values=BLOCK_VALUES,
    )


def read_ops(seed: int, count: int) -> list:
    """Point/range reads confined to the stable lower key region."""
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(count // 2):
        ops.append(PointQuery(key=int(rng.integers(0, STABLE_LIMIT))))
        low = int(rng.integers(0, STABLE_LIMIT - 64))
        ops.append(RangeQuery(low=low, high=low + 63))
    return ops


def write_region(session_index: int) -> tuple[int, int]:
    """Each session's exclusive write region (upper half of the domain)."""
    width = NUM_ROWS // NUM_SESSIONS
    base = NUM_ROWS + session_index * width
    return base, base + width


def mixed_ops(
    session_index: int, seed: int, count: int, *, with_payload: bool = True
) -> list:
    """Reads in the stable region, writes in the session's own region."""
    rng = np.random.default_rng(seed)
    low, high = write_region(session_index)
    inserted: list[int] = []
    ops = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.5:
            ops.append(PointQuery(key=int(rng.integers(0, STABLE_LIMIT))))
        elif roll < 0.7:
            span_low = int(rng.integers(0, STABLE_LIMIT - 64))
            ops.append(RangeQuery(low=span_low, high=span_low + 63))
        elif roll < 0.9 or not inserted:
            key = int(rng.integers(low, high)) * 2 + 1  # odd: never collides
            inserted.append(key)
            payload = (key * 3,) if with_payload else None
            ops.append(Insert(key=key, payload=payload))
        else:
            ops.append(Delete(key=inserted.pop()))
    return ops


def normalize(operations: list, results: list) -> list:
    """Results made interleaving-independent.

    Row ids are allocation-order artifacts of the whole database, so
    insert results (and the ``rowid`` attribute of returned rows) compare
    by success only; rows compare by (key, payload).
    """
    normalized = []
    for operation, result in zip(operations, results):
        if isinstance(result, list) and (
            not result or hasattr(result[0], "payload")
        ):
            normalized.append(
                sorted(
                    (row.key, tuple(sorted(row.payload.items())))
                    for row in result
                )
            )
        elif isinstance(operation, (Insert, MultiInsert)):
            normalized.append(result is not None)
        elif isinstance(result, (int, np.integer)):
            normalized.append(int(result))
        else:
            normalized.append(result is not None)
    return normalized


def run_threads(db, oplists, *, policy_factory, reorg=None, rounds=8):
    """Execute one op list per thread, each in its own session, in rounds."""
    outcomes: list[list | None] = [None] * len(oplists)
    failures: list[BaseException] = []
    barrier = threading.Barrier(len(oplists))

    def work(index: int) -> None:
        try:
            ops = oplists[index]
            per_round = -(-len(ops) // rounds)
            with db.session(execution=policy_factory(), reorg=reorg) as session:
                barrier.wait(timeout=30.0)
                collected = []
                for start in range(0, len(ops), per_round):
                    outcome = session.execute(ops[start : start + per_round])
                    collected.extend(outcome.results)
                outcomes[index] = collected
        except BaseException as exc:  # noqa: BLE001 - surfaced to the test
            failures.append(exc)
            raise

    threads = [
        threading.Thread(target=work, args=(i,), name=f"session-{i}")
        for i in range(len(oplists))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0)
    assert not failures, f"session thread raised: {failures[0]!r}"
    assert all(outcome is not None for outcome in outcomes)
    return outcomes


def run_serial_oracle(oplists, *, db_factory=make_db):
    """The same op lists, one session after another, on a fresh database."""
    db = db_factory()
    outcomes = []
    for ops in oplists:
        with db.session() as session:
            outcomes.append(session.execute(list(ops)).results)
    return db, outcomes


class TestConcurrentReaders:
    def test_readers_match_serial_oracle(self, tight_switch_interval):
        db = make_db()
        oplists = [read_ops(seed=10 + i, count=400) for i in range(NUM_SESSIONS)]
        outcomes = run_threads(
            db, oplists, policy_factory=lambda: VectorizedPolicy(batch_size=64)
        )
        _, expected = run_serial_oracle(oplists)
        for ops, got, want in zip(oplists, outcomes, expected):
            assert normalize(ops, got) == normalize(ops, want)
        db.check_invariants()

    def test_serial_and_vectorized_sessions_interleave(self, tight_switch_interval):
        # Mixed policies over one engine: per-op dispatch and the batched
        # fast path share the chunk latches.
        db = make_db()
        oplists = [read_ops(seed=31 + i, count=300) for i in range(2)]
        policies = iter([SerialPolicy, lambda: VectorizedPolicy(batch_size=32)])
        outcomes = run_threads(
            db, oplists, policy_factory=lambda: next(policies)()
        )
        _, expected = run_serial_oracle(oplists)
        for ops, got, want in zip(oplists, outcomes, expected):
            assert normalize(ops, got) == normalize(ops, want)

    def test_batched_multi_ops_match_oracle(self, tight_switch_interval):
        db = make_db()
        rng = np.random.default_rng(5)
        oplists = [
            [
                MultiPointQuery(
                    keys=tuple(
                        int(k) for k in rng.integers(0, STABLE_LIMIT, 32)
                    )
                )
                for _ in range(24)
            ]
            for _ in range(NUM_SESSIONS)
        ]
        def rows_of(batch):
            return [
                sorted(
                    (row.key, tuple(sorted(row.payload.items())))
                    for row in per_key
                )
                for per_key in batch
            ]

        outcomes = run_threads(db, oplists, policy_factory=SerialPolicy)
        _, expected = run_serial_oracle(oplists)
        for got, want in zip(outcomes, expected):
            assert [rows_of(b) for b in got] == [rows_of(b) for b in want]


class TestConcurrentMixedWorkloads:
    def test_disjoint_writers_match_serial_oracle(self, tight_switch_interval):
        db = make_db()
        oplists = [
            mixed_ops(i, seed=40 + i, count=400) for i in range(NUM_SESSIONS)
        ]
        outcomes = run_threads(
            db, oplists, policy_factory=lambda: VectorizedPolicy(batch_size=64)
        )
        oracle_db, expected = run_serial_oracle(oplists)
        for ops, got, want in zip(oplists, outcomes, expected):
            assert normalize(ops, got) == normalize(ops, want)
        assert np.array_equal(
            np.sort(db.table.keys()), np.sort(oracle_db.table.keys())
        )
        db.check_invariants()

    def test_same_chunk_writers_serialize_safely(self, tight_switch_interval):
        # All sessions hammer the same upper chunk with distinct keys: the
        # exclusive chunk latch serializes them, so every insert survives.
        db = make_db()
        per_session = 200
        oplists = [
            [
                Insert(key=2 * NUM_ROWS + 1 + 2 * (i * per_session + j))
                for j in range(per_session)
            ]
            for i in range(NUM_SESSIONS)
        ]
        run_threads(db, oplists, policy_factory=SerialPolicy)
        assert db.num_rows == NUM_ROWS + NUM_SESSIONS * per_session
        inserted = set()
        for ops in oplists:
            inserted.update(op.key for op in ops)
        live = set(db.table.keys().tolist())
        assert inserted <= live
        db.check_invariants()

    def test_concurrent_bulk_writers_disjoint_chunks(self, tight_switch_interval):
        db = make_db()
        oplists = []
        for i in range(NUM_SESSIONS):
            low, high = write_region(i)
            keys = tuple(int(k) * 2 + 1 for k in range(low, low + 128))
            oplists.append(
                [MultiInsert(keys=keys[j : j + 32]) for j in range(0, 128, 32)]
            )
        run_threads(db, oplists, policy_factory=SerialPolicy)
        assert db.num_rows == NUM_ROWS + NUM_SESSIONS * 128
        db.check_invariants()

    def test_concurrent_updates_in_own_regions(self, tight_switch_interval):
        # Each session corrects keys it first inserted in its own region;
        # cross-chunk moves latch source and target together.
        db = make_db()
        oplists = []
        for i in range(NUM_SESSIONS):
            low, _ = write_region(i)
            keys = [low * 2 + 1 + 4 * j for j in range(64)]
            ops: list = [Insert(key=key) for key in keys]
            ops.extend(Update(old_key=key, new_key=key + 2) for key in keys)
            oplists.append(ops)
        outcomes = run_threads(db, oplists, policy_factory=SerialPolicy)
        oracle_db, expected = run_serial_oracle(oplists)
        for ops, got, want in zip(oplists, outcomes, expected):
            assert normalize(ops, got) == normalize(ops, want)
        assert np.array_equal(
            np.sort(db.table.keys()), np.sort(oracle_db.table.keys())
        )
        db.check_invariants()

    def test_session_reports_account_every_operation(self, tight_switch_interval):
        db = make_db()
        oplists = [read_ops(seed=70 + i, count=200) for i in range(NUM_SESSIONS)]
        sessions: list = []
        barrier = threading.Barrier(NUM_SESSIONS)

        def work(index: int) -> None:
            session = db.session(execution=VectorizedPolicy(batch_size=64))
            sessions.append(session)
            barrier.wait(timeout=30.0)
            session.execute(oplists[index])
            session.close()

        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(NUM_SESSIONS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert sum(s.report().operations for s in sessions) == sum(
            len(ops) for ops in oplists
        )


# --------------------------------------------------------------------- #
# Background reorganization under concurrent sessions
# --------------------------------------------------------------------- #

INSERT_HEAVY = WorkloadMix(name="insert-heavy", q4_insert=0.9, q1_point=0.1)
POINT_HEAVY = WorkloadMix(
    name="point-heavy",
    q1_point=0.97,
    q2_range_count=0.03,
    read_sampler=EarlySkewSampler(),
)


def planned_db() -> Database:
    training = WorkloadGenerator(
        make_keys(), domain_low=0, domain_high=2 * NUM_ROWS - 2, seed=3
    ).generate(INSERT_HEAVY, 1_200)
    return Database.plan_for(
        training, make_keys(), chunk_size=CHUNK_SIZE, block_values=BLOCK_VALUES
    )


def reorg_policy() -> ReorgPolicy:
    return ReorgPolicy(drift_threshold=0.25, min_chunk_operations=200)


def drifted_shards(total_ops: int, shards: int) -> list[list]:
    drifted = WorkloadGenerator(
        make_keys(), domain_low=0, domain_high=2 * NUM_ROWS - 2, seed=9
    ).generate(POINT_HEAVY, total_ops)
    operations = list(drifted)
    per_shard = -(-len(operations) // shards)
    return [
        operations[start : start + per_shard]
        for start in range(0, len(operations), per_shard)
    ]


class TestBackgroundReorgStress:
    def test_readers_with_background_reorg_match_oracle(
        self, tight_switch_interval
    ):
        db = planned_db()
        reorganizer = Reorganizer(reorg_policy(), chunk_budget=1, background=True)
        shards = drifted_shards(6_000, NUM_SESSIONS)
        outcomes = run_threads(
            db,
            shards,
            policy_factory=lambda: VectorizedPolicy(batch_size=256),
            reorg=reorganizer,
        )
        _, expected = run_serial_oracle(shards, db_factory=planned_db)
        for ops, got, want in zip(shards, outcomes, expected):
            assert normalize(ops, got) == normalize(ops, want)
        # The close of the last session drains the queue to empty; the
        # drifted phase must have produced at least one landed replan.
        assert reorganizer.pending_chunks() == []
        assert reorganizer.replans >= 1
        assert reorganizer.errors == 0
        db.check_invariants()

    def test_mixed_sessions_with_background_reorg(self, tight_switch_interval):
        db = planned_db()
        reorganizer = Reorganizer(reorg_policy(), chunk_budget=1, background=True)
        oplists = [
            mixed_ops(i, seed=80 + i, count=600, with_payload=False)
            for i in range(NUM_SESSIONS)
        ]
        run_threads(
            db,
            oplists,
            policy_factory=lambda: VectorizedPolicy(batch_size=128),
            reorg=reorganizer,
        )
        oracle_db, _ = run_serial_oracle(oplists, db_factory=planned_db)
        assert np.array_equal(
            np.sort(db.table.keys()), np.sort(oracle_db.table.keys())
        )
        assert reorganizer.pending_chunks() == []
        assert reorganizer.errors == 0
        db.check_invariants()

    def test_worker_runs_until_last_session_closes(self):
        db = planned_db()
        reorganizer = Reorganizer(reorg_policy(), background=True)

        def worker_thread():
            # ``_thread`` is rw-guarded by ``_state`` (GUARDED_BY): read it
            # under the declared lock so the Eraser-lite debug pass stays
            # clean even for this white-box peek.
            with reorganizer._state:
                return reorganizer._thread

        first = db.session(reorg=reorganizer)
        second = db.session(reorg=reorganizer)
        assert worker_thread() is not None
        first.close()
        # One session remains: the worker (and queue) must survive.
        assert worker_thread() is not None
        second.close()
        assert worker_thread() is None

    def test_decisions_reported_exactly_once_across_sessions(
        self, tight_switch_interval
    ):
        db = planned_db()
        reorganizer = Reorganizer(reorg_policy(), chunk_budget=1)
        shards = drifted_shards(6_000, NUM_SESSIONS)
        reported = [0] * NUM_SESSIONS
        barrier = threading.Barrier(NUM_SESSIONS)

        def work(index: int) -> None:
            ops = shards[index]
            per_round = -(-len(ops) // 6)
            with db.session(
                execution=VectorizedPolicy(batch_size=256), reorg=reorganizer
            ) as session:
                barrier.wait(timeout=30.0)
                for start in range(0, len(ops), per_round):
                    session.execute(ops[start : start + per_round])
            reported[index] = len(session.reorg_decisions)

        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(NUM_SESSIONS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        # Every decision lands in exactly one session's log: none dropped,
        # none double-reported by racing watermark reads.
        assert sum(reported) == len(reorganizer.policy.decisions)
        assert reorganizer.replans >= 1


class TestStaleReplanRace:
    """PR 4's unlocked-decide model: a write between decide and apply."""

    def test_write_between_decide_and_apply_requeues_not_applies(self):
        # Deterministic race regression: the decision solves its plan, a
        # writer bumps the chunk's generation before the apply, and the
        # publish must refuse the stale replan -- requeuing it for a fresh
        # decision rather than applying a layout priced on dead data.
        db = planned_db()
        with db.session(execution=VectorizedPolicy(batch_size=256)) as session:
            session.execute(drifted_shards(3_000, 1)[0])
        reorganizer = Reorganizer(reorg_policy(), chunk_budget=None)
        policy = reorganizer.policy
        real_decide = policy.decide_chunk
        sabotaged: set[int] = set()

        def key_routed_to(chunk_index: int) -> int:
            if chunk_index == 0:
                return 1
            return int(db.table.chunk_bounds[chunk_index - 1]) + 1

        def racing_decide(database, chunk_index):
            outcome = real_decide(database, chunk_index)
            if isinstance(outcome, ReorgAction) and chunk_index not in sabotaged:
                sabotaged.add(chunk_index)
                database.table.insert(key_routed_to(chunk_index))
            return outcome

        policy.decide_chunk = racing_decide
        try:
            candidates = policy.scan(db)
            assert candidates, "the drifted phase must produce candidates"
            reorganizer._enqueue(candidates)
            reorganizer._drain_slice(db, unbounded=True)
        finally:
            policy.decide_chunk = real_decide
        assert sabotaged, "at least one decision must have been raced"
        assert reorganizer.requeues >= len(sabotaged)
        # Requeued chunks were re-decided on fresh state and applied:
        # nothing is lost, and no stale plan landed.
        assert reorganizer.pending_chunks() == []
        replanned = [d.chunk_index for d in policy.decisions if d.replanned]
        assert set(sabotaged) <= set(replanned)
        assert len(replanned) == len(set(replanned)), "a chunk replanned twice"
        db.check_invariants()

    def test_apply_refuses_resubmitted_action(self):
        # Double-apply protection end-to-end: replaying an already-applied
        # action is refused by the generation check.
        db = planned_db()
        with db.session(execution=VectorizedPolicy(batch_size=256)) as session:
            session.execute(drifted_shards(3_000, 1)[0])
        policy = reorg_policy()
        candidates = policy.scan(db)
        assert candidates
        action = policy.decide_chunk(db, candidates[0])
        assert isinstance(action, ReorgAction)
        first = policy.apply_action(db, action)
        assert first is not None and first.replanned
        assert policy.apply_action(db, action) is None
        assert policy.replans == 1


class TestMonitorUnderConcurrentSessions:
    def test_counts_complete_under_concurrent_flushes(
        self, tight_switch_interval
    ):
        # The monitor's ingest lock must not lose a racing count update:
        # with N sessions flushing batches concurrently, the per-chunk
        # totals equal the number of operations dispatched.
        keys = make_keys()
        db = Database.from_rows(
            keys, chunk_size=CHUNK_SIZE, block_values=BLOCK_VALUES, monitor=True
        )
        per_session = 512
        oplists = [
            [
                PointQuery(key=int(k))
                for k in np.random.default_rng(90 + i).integers(
                    0, STABLE_LIMIT, per_session
                )
            ]
            for i in range(NUM_SESSIONS)
        ]
        run_threads(
            db, oplists, policy_factory=lambda: VectorizedPolicy(batch_size=64)
        )
        monitor = db.monitor
        total = sum(
            sum(monitor.operation_counts(chunk).values())
            for chunk in monitor.observed_chunks()
        )
        assert total == NUM_SESSIONS * per_session

    def test_durable_monitored_writers_agree_with_memory(
        self, tmp_path, tight_switch_interval
    ):
        # Both readers of the per-call log under threads: every durable
        # write call appends its records to the WAL under the commit lock
        # and hands the same log to the monitor after releasing it.
        def durable_planned_db() -> Database:
            training = WorkloadGenerator(
                make_keys(), domain_low=0, domain_high=2 * NUM_ROWS - 2, seed=3
            ).generate(INSERT_HEAVY, 1_200)
            return Database.plan_for(
                training,
                make_keys(),
                chunk_size=CHUNK_SIZE,
                block_values=BLOCK_VALUES,
                durability=tmp_path,
            )

        db = durable_planned_db()
        oplists = [
            mixed_ops(i, seed=120 + i, count=160, with_payload=False)
            for i in range(NUM_SESSIONS)
        ]
        # Half the sessions dispatch serially (one scope per operation),
        # half in batches (one scope per slice).
        policies = itertools.cycle(
            [SerialPolicy, lambda: VectorizedPolicy(batch_size=16)]
        )
        run_threads(db, oplists, policy_factory=lambda: next(policies)())
        oracle_db, _ = run_serial_oracle(oplists, db_factory=planned_db)

        def counts(database):
            monitor = database.monitor
            return {
                chunk: monitor.operation_counts(chunk)
                for chunk in monitor.observed_chunks()
            }

        # Attribution routes by the chunk fences, which writes never move,
        # so every interleaving counts exactly what the serial run counts.
        assert counts(db) == counts(oracle_db)
        db.check_invariants()
        expected = np.sort(db.table.keys())
        assert np.array_equal(expected, np.sort(oracle_db.table.keys()))
        db.close()
        reopened = Database.open(tmp_path)
        assert np.array_equal(np.sort(reopened.table.keys()), expected)
        reopened.check_invariants()
        reopened.close()
