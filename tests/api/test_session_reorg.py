"""The automatic reorganization lifecycle: drift detection + cost gate.

These tests drive the Fig. 10 A->C loop end-to-end through the session API:
a database planned for one workload phase sees a drifted phase, the
session's :class:`ReorgPolicy` detects the per-chunk mix shift, solves a
candidate layout for the observed sample, charges the modeled savings
against the rebuild cost, and replans in place -- measurably cutting the
simulated cost of serving the drifted phase versus a no-reorg session.
"""

from __future__ import annotations

import os
import subprocess
import sys
from bisect import bisect_left, bisect_right
from pathlib import Path

import numpy as np
import pytest

from repro.api import Database, Reorganizer, ReorgPolicy, VectorizedPolicy
from repro.core.frequency_model import HISTOGRAM_NAMES, FrequencyModel
from repro.core.monitor import mix_distance
from repro.core.optimizer import optimize_layout
from repro.core.planner import CasperPlanner
from repro.storage.access_log import ATTRIBUTION_KINDS, RANGE_KINDS
from repro.workload.distributions import EarlySkewSampler
from repro.workload.generator import WorkloadGenerator, WorkloadMix

SRC = str(Path(__file__).parents[2] / "src")
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


def run_drifted_phase(reorg: ReorgPolicy | None, *, rounds: int = 6, db=None):
    """Serve the drifted (point-heavy) phase in rounds; return the session."""
    db = db if db is not None else planned_db()
    drifted = generator(seed=9).generate(POINT_HEAVY, 3_000)
    operations = list(drifted)
    per_round = -(-len(operations) // rounds)
    with db.session(
        execution=VectorizedPolicy(batch_size=256), reorg=reorg
    ) as session:
        for start in range(0, len(operations), per_round):
            session.execute(operations[start : start + per_round])
    return db, session


class TestMixDistance:
    def test_bounds_and_symmetry(self):
        a = {"point_query": 0.9, "insert": 0.1}
        b = {"insert": 0.1, "point_query": 0.9}
        c = {"range_count": 1.0}
        assert mix_distance(a, b) == 0.0
        assert mix_distance(a, c) == 1.0
        # Against an empty (all-zero) mix only half the mass differs.
        assert mix_distance(a, {}) == pytest.approx(0.5)
        d = {"point_query": 0.5, "insert": 0.5}
        assert mix_distance(a, d) == pytest.approx(0.4)
        assert mix_distance(d, a) == pytest.approx(0.4)

    def test_result_does_not_depend_on_the_string_hash_seed(self):
        # Float addition is not associative: summing the per-kind terms in
        # set-iteration order made this 7-kind drift value come out as 0.5
        # under PYTHONHASHSEED=1 and 0.49999999999999994 under 5.
        script = (
            "from repro.core.monitor import mix_distance\n"
            "from repro.storage.access_log import ATTRIBUTION_KINDS as K\n"
            "a = dict(zip(K, (0.1, 0.2, 0.3, 0.15, 0.05, 0.12, 0.08)))\n"
            "print(repr(mix_distance(a, {})), repr(mix_distance({}, a)))\n"
        )
        outputs = [
            subprocess.run(
                [sys.executable, "-c", script],
                env=dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=seed),
                capture_output=True,
                text=True,
                timeout=60,
                check=True,
            ).stdout
            for seed in ("1", "5")
        ]
        assert outputs[0] == outputs[1]
        # ATTRIBUTION_KINDS order, then any other key sorted after it.
        mix = {"zz": 0.08, "insert": 0.3, "aa": 0.12, "point_query": 0.1}
        assert mix_distance(mix, {}) == 0.5 * (((0.1 + 0.3) + 0.12) + 0.08)


class TestReorgLifecycle:
    def test_auto_replan_cuts_simulated_cost_after_drift(self):
        _, control = run_drifted_phase(None)
        reorg = ReorgPolicy(drift_threshold=0.25, min_chunk_operations=200)
        db, session = run_drifted_phase(reorg)
        control_report = control.report()
        reorg_report = session.report()
        assert reorg_report.replans >= 1
        # The replans pay for themselves within the drifted phase: total
        # simulated cost (including the rebuild charges) drops.
        assert (
            reorg_report.simulated_seconds < control_report.simulated_seconds
        )
        # Decisions carry the gate's arithmetic.
        replanned = [d for d in session.reorg_decisions if d.replanned]
        for decision in replanned:
            assert decision.drift >= 0.25
            assert decision.modeled_savings_ns is not None
            assert decision.modeled_savings_ns >= decision.rebuild_cost_ns
        db.check_invariants()

    def test_replanned_results_stay_correct(self):
        # A replan must be invisible to query semantics: the same drifted
        # phase returns identical results with and without reorganization.
        _, control = run_drifted_phase(None)
        db, session = run_drifted_phase(
            ReorgPolicy(drift_threshold=0.25, min_chunk_operations=200)
        )
        assert session.report().replans >= 1
        verification = generator(seed=21).generate(POINT_HEAVY, 400)
        control_db = planned_db()
        expected = control_db.session().execute(list(verification))
        got = db.session().execute(list(verification))
        # The drifted phases mutated both databases identically (insert-free
        # point-heavy mix leaves only q2/q1 reads), so results must agree.
        assert [r if not isinstance(r, list) else len(r) for r in got.results] \
            == [r if not isinstance(r, list) else len(r) for r in expected.results]

    def test_cost_gate_blocks_unprofitable_replans(self, monkeypatch):
        # Serve the training sample again (plus a few point reads per
        # chunk, so its mix is not the baseline to the last bit): at
        # threshold 0 every active chunk is priced, and no replan of a
        # layout solved for this very sample beats its rebuild charge.
        from repro.workload.operations import PointQuery

        db = planned_db()
        served = list(generator(seed=3).generate(INSERT_HEAVY, 1_200))
        served += [PointQuery(key=int(k)) for k in keys()[:: NUM_ROWS // 24]]
        solves: list[int] = []
        real_plan_chunk = CasperPlanner.plan_chunk

        def counting_plan_chunk(planner, values):
            solves.append(len(values))
            return real_plan_chunk(planner, values)

        monkeypatch.setattr(CasperPlanner, "plan_chunk", counting_plan_chunk)
        reorg = ReorgPolicy(drift_threshold=0.0, min_chunk_operations=200)
        with db.session(
            execution=VectorizedPolicy(batch_size=256), reorg=reorg
        ) as session:
            session.execute(served)
            gated = list(session.reorg_decisions)
            assert [d.chunk_index for d in gated] == list(range(db.num_chunks))
            for decision in gated:
                assert not decision.replanned
                assert "cost gate" in decision.reason
                assert decision.current_cost_ns is not None
                assert decision.planned_cost_ns is not None
                assert decision.rebuild_cost_ns is not None
                assert decision.modeled_savings_ns < decision.rebuild_cost_ns
                assert decision.drift > 0.0
            assert len(solves) == len(gated)
            # Each rejection reset the chunk's window and adopted the
            # evaluated mix as its baseline, so the same operations again
            # sit at drift 0 (against the training baseline they would
            # repeat the first round's drift).  No drift is below a
            # threshold of 0, so the second round runs at half the
            # smallest drift of the first.
            assert db.monitor.observed_chunks() == []
            reorg.drift_threshold = min(d.drift for d in gated) / 2
            session.execute(served)
            assert len(db.monitor.observed_chunks()) == db.num_chunks
        assert len(solves) == len(gated), "the solver ran a second time"
        assert session.report().reorg_decisions == gated
        assert session.report().replans == 0

    def test_min_chunk_operations_defers_evaluation(self):
        reorg = ReorgPolicy(drift_threshold=0.0, min_chunk_operations=10**9)
        _, session = run_drifted_phase(reorg)
        assert session.report().reorg_decisions == []

    def test_exceptional_exit_skips_final_reorg_check(self):
        # Drift reaches the monitor through the engine, behind the
        # session's back, so only a close-time scan could act on it.
        drifted = list(generator(seed=9).generate(POINT_HEAVY, 1_200))

        def serve_behind_the_session(reorg: ReorgPolicy, fail: bool):
            with planned_db().session(reorg=reorg) as session:
                session.database.engine.execute_batch(drifted)
                if fail:
                    raise RuntimeError("boom")

        def policy() -> ReorgPolicy:
            return ReorgPolicy(drift_threshold=0.25, min_chunk_operations=100)

        closed_cleanly, failed = policy(), policy()
        serve_behind_the_session(closed_cleanly, fail=False)
        assert closed_cleanly.decisions != []
        with pytest.raises(RuntimeError, match="boom"):
            serve_behind_the_session(failed, fail=True)
        assert failed.decisions == []

    def test_exceptional_exit_clears_the_queue_without_draining_it(self):
        db = planned_db()
        drifted = generator(seed=9).generate(POINT_HEAVY, 1_200)
        reorganizer = Reorganizer(
            ReorgPolicy(drift_threshold=0.25, min_chunk_operations=100),
            chunk_budget=1,
        )
        with pytest.raises(RuntimeError, match="boom"):
            with db.session(
                execution=VectorizedPolicy(batch_size=256), reorg=reorganizer
            ) as session:
                session.execute(list(drifted))
                queued = reorganizer.pending_chunks()
                decided = list(session.reorg_decisions)
                raise RuntimeError("boom")
        assert queued, "budget 1 leaves drifted chunks queued"
        assert len(decided) == 1
        # The close-time scan and drain were skipped, not run against the
        # failed call; what was queued is dropped.
        assert session.closed
        assert reorganizer.pending_chunks() == []
        assert session.report().reorg_decisions == decided
        assert reorganizer.decisions == decided

    def test_reorg_policy_bound_to_one_database(self):
        reorg = ReorgPolicy(min_chunk_operations=1)
        first, second = planned_db(), planned_db()
        first.session(reorg=reorg).close()
        with pytest.raises(ValueError, match="fresh policy"):
            second.session(reorg=reorg)
        # Re-use with the same database (e.g. a later session) is fine.
        first.session(reorg=reorg).close()

    def test_bare_policy_is_an_unbudgeted_reorganizer(self):
        # One driver: reorg=policy and reorg=Reorganizer(policy,
        # chunk_budget=None) are the same lifecycle, call for call.
        def serve(reorg):
            db = planned_db()
            operations = list(generator(seed=9).generate(POINT_HEAVY, 3_000))
            calls = []
            with db.session(
                execution=VectorizedPolicy(batch_size=256), reorg=reorg
            ) as session:
                for start in range(0, len(operations), 500):
                    calls.append(session.execute(operations[start : start + 500]))
            return session.report(), calls

        policy = ReorgPolicy(drift_threshold=0.25, min_chunk_operations=200)
        twin = ReorgPolicy(drift_threshold=0.25, min_chunk_operations=200)
        bare_report, bare_calls = serve(policy)
        wrapped_report, wrapped_calls = serve(Reorganizer(twin, chunk_budget=None))
        assert bare_report.replans >= 1
        assert [c.reorg_decisions for c in bare_calls] == [
            c.reorg_decisions for c in wrapped_calls
        ]
        assert [c.reorg_ns for c in bare_calls] == [
            c.reorg_ns for c in wrapped_calls
        ]
        assert bare_report.reorg_decisions == wrapped_report.reorg_decisions
        assert bare_report.accesses == wrapped_report.accesses

    def test_later_session_does_not_re_report_a_shared_policys_decisions(self):
        reorg = ReorgPolicy(drift_threshold=0.25, min_chunk_operations=200)
        db, first = run_drifted_phase(reorg)
        reported = first.report().reorg_decisions
        assert reported and reported == reorg.decisions
        # The report watermark lives in the policy, past them already.
        _, second = run_drifted_phase(reorg, db=db)
        fresh = second.report().reorg_decisions
        assert all(
            not any(decision is earlier for earlier in reported)
            for decision in fresh
        )
        assert reorg.decisions == reported + fresh
        assert reorg.unreported() == []

    def test_concurrent_sessions_on_a_bare_policy_report_each_decision_once(self):
        # Each session wraps the bare policy in a reorganizer of its own;
        # the one watermark in the policy keeps B from re-reporting what
        # A's calls already reported.
        reorg = ReorgPolicy(drift_threshold=0.25, min_chunk_operations=200)
        db = planned_db()
        operations = list(generator(seed=9).generate(POINT_HEAVY, 3_000))
        with db.session(
            execution=VectorizedPolicy(batch_size=256), reorg=reorg
        ) as a, db.session(reorg=reorg) as b:
            in_a = []
            for start in range(0, len(operations), 500):
                in_a += a.execute(operations[start : start + 500]).reorg_decisions
            in_b = b.execute(operations[:1])
            assert in_a and in_a == reorg.decisions
            assert in_b.reorg_decisions == [] and in_b.reorg_ns == 0.0
        reports = a.report().reorg_decisions + b.report().reorg_decisions
        assert sorted(map(id, reports)) == sorted(map(id, reorg.decisions))
        assert a.report().replans + b.report().replans == reorg.replans

    def test_no_planner_means_no_reorg(self):
        db = Database.from_rows(
            keys(), chunk_size=CHUNK_SIZE, block_values=BLOCK_VALUES
        )
        drifted = generator(seed=9).generate(POINT_HEAVY, 600)
        with db.session(reorg=ReorgPolicy(min_chunk_operations=1)) as session:
            session.execute(list(drifted))
        assert session.report().reorg_decisions == []

    def test_untrained_chunk_adopts_baseline_before_replanning(self):
        # Train on operations confined to chunk 0 only; chunk 3 has no
        # baseline, so its first evaluated mix is adopted instead of
        # replanned against nothing.
        from repro.workload.operations import Insert, PointQuery, Workload

        chunk0_keys = keys()[: CHUNK_SIZE // 2]
        training = Workload(
            operations=[Insert(key=int(k) + 1) for k in chunk0_keys[:450]]
            + [PointQuery(key=int(k)) for k in chunk0_keys[:50]],
            name="chunk-0 only",
        )
        db = Database.plan_for(
            training, keys(), chunk_size=CHUNK_SIZE, block_values=BLOCK_VALUES
        )
        reorg = ReorgPolicy(drift_threshold=0.05, min_chunk_operations=50)
        top_keys = keys()[keys() >= 3 * CHUNK_SIZE * 2]
        probes = [int(k) for k in top_keys[:400]]
        with db.session(reorg=reorg) as session:
            session.execute([PointQuery(key=k) for k in probes])
            first_round = list(session.reorg_decisions)
            # Same mix again: no drift against the adopted baseline.
            session.execute([PointQuery(key=k) for k in probes])
        assert first_round == []
        assert all(not d.replanned for d in session.reorg_decisions)


def replay_rows(rows, values, block_values):
    """The Frequency Model of ``(kind, low, high)`` sample rows, one
    ``record_*`` call per row that touches the chunk holding ``values``.

    A range touches the chunk when it overlaps it, any other row when one
    of its keys lies inside.  ``update_source`` / ``update_target`` rows
    (the monitor's two sides of an update) train as an in-place update at
    their key's block; a paired ``update`` row trains by block order.
    """
    chunk = values.tolist()
    first, last = chunk[0], chunk[-1]
    blocks = -(-len(chunk) // block_values)
    model = FrequencyModel(blocks)

    def block_of(key):
        return min(bisect_left(chunk, key) // block_values, blocks - 1)

    for kind, low, high in rows:
        if kind in RANGE_KINDS:
            if low <= last and high >= first:
                start = block_of(low)
                covered = (bisect_right(chunk, high) - 1) // block_values
                model.record_range_query(start, max(start, covered))
        elif first <= low <= last or first <= high <= last:
            if kind == "point_query":
                model.record_point_query(block_of(low))
            elif kind == "insert":
                model.record_insert(block_of(low))
            elif kind == "delete":
                model.record_delete(block_of(low))
            else:
                assert kind in ("update_source", "update_target", "update")
                assert kind == "update" or low == high
                model.record_update(block_of(low), block_of(high))
    return model


def assert_same_model(learned, expected):
    assert learned.num_blocks == expected.num_blocks
    for name in HISTOGRAM_NAMES:
        assert np.array_equal(learned[name], expected[name]), name


class TestDecisionsFollowFromTheRecordedWindow:
    """The sample contract end to end: a chunk's monitor window reaches the
    Frequency Model as columns, and the gate prices exactly that model."""

    KEYS = np.arange(4_096, dtype=np.int64) * 2
    CHUNK, BLOCK = 1_024, 64

    def training(self):
        from repro.workload.operations import Insert, MultiUpdate, Update, Workload

        keys = self.KEYS
        return Workload(
            operations=[Insert(key=int(k) + 1) for k in keys[::8]]
            # Paired updates below chunk 3: forward, backward, inside one
            # block, and across the last chunk fence.
            + [Update(int(k), int(k) + 301) for k in keys[40:3_000:256]]
            + [Update(int(k), int(k) - 301) for k in keys[200:3_000:256]]
            + [MultiUpdate(pairs=((10, 12), (3_000, 5_000)))],
            name="inserts and moves",
        )

    def drift_script(self):
        """One call that drifts every chunk its own way: chunks 0-2 far
        enough to pay for a rebuild, chunk 3 (its training inserts again,
        plus four point reads) past the threshold but not the gate."""
        from repro.workload.operations import (
            Aggregate,
            Delete,
            Insert,
            PointQuery,
            RangeQuery,
            Update,
        )

        keys = self.KEYS
        return (
            [PointQuery(key=int(k)) for k in keys[:1_024:4]]
            + [Insert(key=int(k) + 1) for k in keys[1_024:2_048:8]]
            + [Update(int(k), int(k) + 3) for k in keys[1_030:2_048:16]]
            + [Delete(key=int(k)) for k in keys[1_100:2_048:64]]
            + [RangeQuery(int(k), int(k) + 400) for k in keys[2_048:2_800:5]]
            + [
                RangeQuery(int(k), int(k) + 40, aggregate=Aggregate.SUM)
                for k in keys[2_048:2_800:10]
            ]
            + [Insert(key=int(k) + 1) for k in keys[3_072::8]]
            + [PointQuery(key=int(k)) for k in keys[3_072::256]]
        )

    def test_initial_plans_learn_the_training_sample(self):
        training = self.training()
        db = Database.plan_for(
            training, self.KEYS, chunk_size=self.CHUNK, block_values=self.BLOCK
        )
        rows = []
        for operation in training:
            kind, lows, highs = operation.attribution()
            rows += zip([kind] * len(lows), lows, lows if highs is None else highs)
        assert {kind for kind, _, _ in rows} == {"insert", "update"}
        for chunk_index, plan in enumerate(db.planner.plans):
            values = db.table.snapshot_chunk(chunk_index).values
            expected = replay_rows(rows, values, self.BLOCK)
            assert_same_model(plan.frequency_model, expected)
        # Paired updates went both ways, and one landed in the chunk after
        # its source's.
        assert db.planner.plans[0].frequency_model.udf.sum() > 0
        assert db.planner.plans[0].frequency_model.udb.sum() > 0
        assert db.planner.plans[2].frequency_model.utf.sum() > 0

    def test_every_decision_prices_the_replay_of_its_window(self, monkeypatch):
        db = Database.plan_for(
            self.training(), self.KEYS, chunk_size=self.CHUNK, block_values=self.BLOCK
        )
        planner = db.planner
        plans, seen = [], []
        real_plan_chunk = CasperPlanner.plan_chunk
        real_decide_chunk = ReorgPolicy.decide_chunk

        def recording_plan_chunk(replanner, values):
            plans.append(real_plan_chunk(replanner, values))
            return plans[-1]

        def recording_decide_chunk(policy, database, chunk_index):
            columns = database.monitor.recorded_sample(chunk_index)
            window = [
                (ATTRIBUTION_KINDS[code], low, high)
                for code, low, high in zip(
                    *(column.tolist() for column in columns), strict=True
                )
            ]
            snapshot = database.table.snapshot_chunk(chunk_index)
            outcome = real_decide_chunk(policy, database, chunk_index)
            seen.append((window, snapshot, getattr(outcome, "decision", outcome)))
            return outcome

        monkeypatch.setattr(CasperPlanner, "plan_chunk", recording_plan_chunk)
        monkeypatch.setattr(ReorgPolicy, "decide_chunk", recording_decide_chunk)
        reorg = ReorgPolicy(drift_threshold=0.02, min_chunk_operations=100)
        with db.session(
            execution=VectorizedPolicy(batch_size=128), reorg=reorg
        ) as session:
            session.execute(self.drift_script())
        decisions = session.report().reorg_decisions
        assert [d.chunk_index for d in decisions] == [0, 1, 2, 3]
        assert [d.replanned for d in decisions] == [True, True, True, False]
        assert "cost gate" in decisions[3].reason
        assert [decision for _, _, decision in seen] == decisions
        assert len(plans) == len(decisions)
        assert {kind for window, _, _ in seen for kind, _, _ in window} == set(
            ATTRIBUTION_KINDS
        )
        constants = planner.constants
        for (window, snapshot, decision), plan in zip(seen, plans, strict=True):
            values = snapshot.values
            model = replay_rows(window, values, self.BLOCK)
            assert_same_model(plan.frequency_model, model)
            solved = optimize_layout(
                model,
                chunk_size=int(values.size),
                block_values=self.BLOCK,
                constants=constants,
                sla=planner.sla,
            )
            assert decision.planned_cost_ns == solved.cost
            assert decision.current_cost_ns == planner.evaluate_layout(
                model, snapshot.partition_offsets
            )
            blocks = -(-int(values.size) // self.BLOCK)
            assert decision.rebuild_cost_ns == blocks * (
                constants.seq_read + constants.seq_write
            )
            assert decision.replanned == (
                decision.current_cost_ns - decision.planned_cost_ns
                >= decision.rebuild_cost_ns
            )
