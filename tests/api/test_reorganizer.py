"""Incremental reorganization: budgeted drains, staleness, background mode.

An unbudgeted reorganizer (what a bare policy becomes,
``tests/api/test_session_reorg.py``) replans every drifted chunk inside the
execute call that trips the check.  These tests cover the budgets: the same
replans happen -- and pay off the same way -- but in budgeted slices
between execute calls (or on a background worker), with generation-checked
staleness detection requeuing replans that raced a write.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import (
    Database,
    ReorgAction,
    Reorganizer,
    ReorgPolicy,
    VectorizedPolicy,
)
from repro.workload.distributions import EarlySkewSampler
from repro.workload.generator import WorkloadGenerator, WorkloadMix

NUM_ROWS = 8_192
CHUNK_SIZE = 2_048
BLOCK_VALUES = 128

INSERT_HEAVY = WorkloadMix(name="insert-heavy", q4_insert=0.9, q1_point=0.1)
POINT_HEAVY = WorkloadMix(
    name="point-heavy",
    q1_point=0.97,
    q2_range_count=0.03,
    read_sampler=EarlySkewSampler(),
)


def keys() -> np.ndarray:
    return np.arange(NUM_ROWS, dtype=np.int64) * 2


def generator(seed: int) -> WorkloadGenerator:
    return WorkloadGenerator(
        keys(), domain_low=0, domain_high=2 * NUM_ROWS - 2, seed=seed
    )


def planned_db() -> Database:
    training = generator(seed=3).generate(INSERT_HEAVY, 1_200)
    return Database.plan_for(
        training, keys(), chunk_size=CHUNK_SIZE, block_values=BLOCK_VALUES
    )


def policy() -> ReorgPolicy:
    return ReorgPolicy(drift_threshold=0.25, min_chunk_operations=200)


def run_drifted_phase(reorg, *, rounds: int = 6):
    db = planned_db()
    drifted = generator(seed=9).generate(POINT_HEAVY, 3_000)
    operations = list(drifted)
    per_round = -(-len(operations) // rounds)
    per_call = []
    with db.session(
        execution=VectorizedPolicy(batch_size=256), reorg=reorg
    ) as session:
        for start in range(0, len(operations), per_round):
            outcome = session.execute(operations[start : start + per_round])
            per_call.append(outcome)
    return db, session, per_call


class TestIncrementalDrain:
    def test_incremental_replans_match_inline_payoff(self):
        _, control, _ = run_drifted_phase(None)
        _, inline, _ = run_drifted_phase(policy())
        db, incremental, _ = run_drifted_phase(
            Reorganizer(policy(), chunk_budget=1)
        )
        control_s = control.report().simulated_seconds
        inline_s = inline.report().simulated_seconds
        incremental_s = incremental.report().simulated_seconds
        assert incremental.report().replans >= 1
        # The incremental lifecycle still pays for itself within the phase.
        assert incremental_s < control_s
        # And keeps most of the inline cut (it defers replans, so rounds
        # served before a chunk's turn still pay the old layout's cost).
        assert control_s - incremental_s >= 0.5 * (control_s - inline_s)
        db.check_invariants()

    def test_chunk_budget_bounds_replans_per_execute(self):
        _, session, per_call = run_drifted_phase(
            Reorganizer(policy(), chunk_budget=1), rounds=12
        )
        assert session.report().replans >= 1
        for outcome in per_call:
            replanned = [d for d in outcome.reorg_decisions if d.replanned]
            assert len(replanned) <= 1

    def test_close_drains_pending_queue(self):
        # One big execute enqueues several drifted chunks; budget 1 applies
        # only one inline, close() drains the rest.
        reorganizer = Reorganizer(policy(), chunk_budget=1)
        db, session, _ = run_drifted_phase(reorganizer, rounds=1)
        assert reorganizer.pending_chunks() == []
        assert session.report().replans >= 1
        db.check_invariants()

    def test_wait_idle_wakes_when_a_foreground_drain_empties_the_queue(self):
        import threading
        import time

        reorganizer = Reorganizer(policy(), chunk_budget=None)
        reorganizer._enqueue((0,))
        waited: list[float] = []

        def waiter():
            start = time.monotonic()
            assert reorganizer.wait_idle(timeout=30.0)
            waited.append(time.monotonic() - start)

        thread = threading.Thread(target=waiter)
        thread.start()
        while not reorganizer._wake._waiters:  # parked in wait_for
            time.sleep(0.001)
        # No monitor on this database: the decision is a no-op, the pop is
        # what empties the queue.
        db = Database.from_rows(keys(), chunk_size=CHUNK_SIZE, monitor=False)
        reorganizer._drain_slice(db)
        thread.join(timeout=30.0)
        assert waited and waited[0] < 5.0, "woken by the pop, not the timeout"

    def test_results_stay_correct_under_incremental_reorg(self):
        db, session, _ = run_drifted_phase(Reorganizer(policy()))
        assert session.report().replans >= 1
        verification = generator(seed=21).generate(POINT_HEAVY, 400)
        control_db = planned_db()
        expected = control_db.session().execute(list(verification))
        got = db.session().execute(list(verification))
        assert [r if not isinstance(r, list) else len(r) for r in got.results] \
            == [r if not isinstance(r, list) else len(r) for r in expected.results]

    def test_decisions_are_recorded_once(self):
        _, session, per_call = run_drifted_phase(
            Reorganizer(policy(), chunk_budget=1)
        )
        from_results = [d for o in per_call for d in o.reorg_decisions]
        from_results += [
            d
            for d in session.reorg_decisions
            if d not in from_results
        ]
        assert len(session.reorg_decisions) == len(from_results)


class TestStaleness:
    def test_raced_write_is_requeued_not_applied(self):
        db = planned_db()
        drifted = generator(seed=9).generate(POINT_HEAVY, 3_000)
        reorg = policy()
        with db.session(execution=VectorizedPolicy(batch_size=256)) as session:
            session.execute(list(drifted))
        candidates = reorg.scan(db)
        assert candidates, "drifted phase should produce candidates"
        chunk_index = candidates[0]
        action = reorg.decide_chunk(db, chunk_index)
        assert isinstance(action, ReorgAction)
        # A write lands on the chunk after the plan was solved: the chunk's
        # generation moves, so the apply phase must refuse the stale plan.
        generation_before = db.table.chunk_generation(chunk_index)
        db.table.insert(int(db.table.chunk_bounds[chunk_index - 1]) if chunk_index else 0)
        assert db.table.chunk_generation(chunk_index) != generation_before
        assert reorg.apply_action(db, action) is None
        assert reorg.replans == 0
        # A fresh decision on the new state applies cleanly.
        retry = reorg.decide_chunk(db, chunk_index)
        assert isinstance(retry, ReorgAction)
        decision = reorg.apply_action(db, retry)
        assert decision is not None and decision.replanned
        db.check_invariants()

    def test_drain_requeues_stale_action(self, monkeypatch):
        # Simulate the background race deterministically: the decision the
        # drain receives was solved before a write landed on the chunk, so
        # the apply refuses it and the drain requeues the chunk.
        db = planned_db()
        drifted = generator(seed=9).generate(POINT_HEAVY, 3_000)
        reorganizer = Reorganizer(policy(), chunk_budget=1)
        with db.session(execution=VectorizedPolicy(batch_size=256)) as session:
            session.execute(list(drifted))
        candidates = reorganizer.policy.scan(db)
        assert candidates
        chunk_index = candidates[0]
        stale = reorganizer.policy.decide_chunk(db, chunk_index)
        assert isinstance(stale, ReorgAction)
        db.table.insert(int(2 * CHUNK_SIZE * chunk_index))
        monkeypatch.setattr(
            reorganizer.policy, "decide_chunk", lambda *_: stale
        )
        reorganizer._process(db, chunk_index)
        assert reorganizer.requeues == 1
        assert reorganizer.pending_chunks() == [chunk_index]
        assert reorganizer.policy.replans == 0


class TestBackgroundMode:
    def test_background_worker_replans_and_stops(self):
        reorganizer = Reorganizer(policy(), chunk_budget=1, background=True)
        db = planned_db()
        drifted = generator(seed=9).generate(POINT_HEAVY, 3_000)
        operations = list(drifted)
        per_round = -(-len(operations) // 6)
        with db.session(
            execution=VectorizedPolicy(batch_size=256), reorg=reorganizer
        ) as session:
            for start in range(0, len(operations), per_round):
                session.execute(operations[start : start + per_round])
                assert reorganizer.wait_idle(timeout=30.0)
        assert session.report().replans >= 1
        # The worker is stopped by close() (white-box read under the lock).
        with reorganizer._state:
            assert reorganizer._thread is None
        db.check_invariants()
        # Served results stay correct after background replans.
        verification = generator(seed=21).generate(POINT_HEAVY, 200)
        control_db = planned_db()
        expected = control_db.session().execute(list(verification))
        got = db.session().execute(list(verification))
        assert [r if not isinstance(r, list) else len(r) for r in got.results] \
            == [r if not isinstance(r, list) else len(r) for r in expected.results]

    def test_exceptional_exit_stops_worker_without_reorganizing(self):
        reorganizer = Reorganizer(policy(), background=True)
        db = planned_db()
        drifted = generator(seed=9).generate(POINT_HEAVY, 600)
        with pytest.raises(RuntimeError, match="boom"):
            with db.session(reorg=reorganizer) as session:
                session.execute(list(drifted))
                raise RuntimeError("boom")
        assert session.closed
        with reorganizer._state:
            assert reorganizer._thread is None
        assert reorganizer.pending_chunks() == []


class TestValidation:
    def test_budget_validation(self):
        with pytest.raises(ValueError):
            Reorganizer(chunk_budget=0)

    def test_reorganizer_shares_policy_binding(self):
        reorganizer = Reorganizer(policy())
        first, second = planned_db(), planned_db()
        reorganizer.register_session(first)
        with pytest.raises(ValueError, match="fresh policy"):
            reorganizer.register_session(second)
