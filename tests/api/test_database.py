"""The Database/Session façade: construction, execution, compatibility."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Database, SerialPolicy, VectorizedPolicy
from repro.bench.harness import build_hap_database, run_workload
from repro.storage.engine import StorageEngine
from repro.storage.layouts import LayoutKind
from repro.workload.hap import HAPConfig, make_workload
from repro.workload.operations import (
    Delete,
    Insert,
    MultiUpdate,
    PointQuery,
    RangeQuery,
    Update,
    Workload,
)


def small_db(**overrides) -> Database:
    keys = np.arange(2_048, dtype=np.int64) * 2
    payload = np.arange(2_048 * 2, dtype=np.int64).reshape(-1, 2)
    defaults = dict(
        layout=LayoutKind.EQUI,
        chunk_size=512,
        block_values=64,
        partitions=8,
    )
    defaults.update(overrides)
    return Database.from_rows(keys, payload, **defaults)


class TestDatabaseConstruction:
    def test_from_rows_builds_multi_chunk_table(self):
        db = small_db()
        assert db.num_rows == 2_048
        assert db.num_chunks == 4
        db.check_invariants()

    def test_from_rows_rejects_casper_layout(self):
        with pytest.raises(ValueError, match="plan_for"):
            small_db(layout=LayoutKind.CASPER)

    def test_from_rows_layout_spec_governs_block_size(self):
        # A full LayoutSpec carries its own block size; the table and cost
        # constants must price that size, not the separate default.
        from repro.storage.cost_accounting import constants_for_block_values
        from repro.storage.layouts import LayoutSpec

        keys = np.arange(1_024, dtype=np.int64) * 2
        spec = LayoutSpec(kind=LayoutKind.EQUI, partitions=4, block_values=256)
        db = Database.from_rows(keys, layout=spec, chunk_size=1_024)
        assert db.table.block_values == 256
        assert db.constants == constants_for_block_values(256)

    def test_plan_for_attaches_planner_and_monitor(self):
        keys = np.arange(2_048, dtype=np.int64) * 2
        training = Workload(
            operations=[PointQuery(key=int(k)) for k in keys[:256]],
            name="training",
        )
        db = Database.plan_for(
            training, keys, chunk_size=1_024, block_values=64
        )
        assert db.planner is not None
        assert db.monitor is not None
        assert db.engine.monitor is db.monitor
        assert len(db.planner.plans) == db.num_chunks
        db.check_invariants()

    def test_engine_compatibility_layer(self):
        # Pre-façade entry points stay reachable and observable.
        db = small_db(monitor=True)
        assert isinstance(db.engine, StorageEngine)
        rows = db.engine.execute(PointQuery(key=20))
        assert [row.key for row in rows] == [20]
        assert db.statistics.operations == {"point_query": 1}
        # The engine feeds the same monitor the sessions use.
        assert db.monitor.observed_chunks() == [0]

    def test_monitor_attached_only_where_it_can_pay_off(self):
        # No planner -> nothing to replan -> no per-operation attribution
        # overhead on the hot path; opt in (or out) explicitly.
        assert small_db().monitor is None
        assert small_db(monitor=True).monitor is not None
        keys = np.arange(1_024, dtype=np.int64) * 2
        training = Workload(operations=[PointQuery(key=0)], name="t")
        planned = Database.plan_for(training, keys, chunk_size=1_024, block_values=64)
        assert planned.monitor is not None
        unmonitored = Database(planned.table, planner=planned.planner, monitor=False)
        assert unmonitored.monitor is None


class TestSessionExecution:
    def test_context_manager_and_close_semantics(self):
        db = small_db()
        with db.session() as session:
            assert not session.closed
            session.execute(PointQuery(key=0))
        assert session.closed
        with pytest.raises(RuntimeError, match="closed"):
            session.execute(PointQuery(key=0))
        session.close()  # idempotent
        report = session.report()  # reporting survives close
        assert report.operations == 1

    def test_single_operation_and_workload_inputs(self):
        db = small_db()
        session = db.session()
        single = session.execute(PointQuery(key=40))
        assert len(single.results) == 1
        workload = Workload(
            operations=[PointQuery(key=0), RangeQuery(low=0, high=100)]
        )
        multi = session.execute(workload)
        assert multi.operations == 2
        assert multi.results[1] == 51

    def test_results_match_engine_and_errors_counted(self):
        db = small_db()
        ops = [
            PointQuery(key=10),
            Insert(key=11),
            Delete(key=99_999),  # miss
            Update(old_key=12, new_key=13),
            RangeQuery(low=0, high=10),
        ]
        with db.session(execution=VectorizedPolicy(batch_size=2)) as session:
            outcome = session.execute(ops)
        assert outcome.errors == 1
        assert outcome.results[2] is None
        assert outcome.operations == 5
        report = session.report()
        assert report.operations == 5
        assert report.errors == 1
        assert report.simulated_seconds > 0.0
        assert report.wall_seconds > 0.0
        assert report.replans == 0

    def test_batch_sizes_recorded_per_call_and_in_report(self):
        db = small_db()
        ops = [PointQuery(key=int(k)) for k in range(0, 140, 2)]
        with db.session(execution=VectorizedPolicy(batch_size=32)) as session:
            outcome = session.execute(ops)
        assert outcome.batch_sizes == [32, 32, 6]
        assert session.report().batch_sizes == [32, 32, 6]

    def test_sessions_sharing_a_policy_report_their_own_slices(
        self, monkeypatch
    ):
        # One policy value serves two sessions.  B's whole call runs inside
        # A's first slice; neither call reports the other's slices.
        db = small_db()
        policy = VectorizedPolicy(batch_size=8)
        session_a = db.session(execution=policy)
        session_b = db.session(execution=policy)
        execute_batch = db.engine.execute_batch
        inner = []

        def interleaved(operations):
            if not inner:
                inner.append(None)
                ops = [PointQuery(key=2 * k) for k in range(10)]
                inner[0] = session_b.execute(ops)
            return execute_batch(operations)

        monkeypatch.setattr(db.engine, "execute_batch", interleaved)
        outcome = session_a.execute([PointQuery(key=2 * k) for k in range(20)])
        assert outcome.batch_sizes == [8, 8, 4]
        assert inner[0].batch_sizes == [8, 2]
        assert session_a.report().batch_sizes == [8, 8, 4]
        assert session_b.report().batch_sizes == [8, 2]

    def test_vectorized_session_equals_serial_session(self):
        ops = [PointQuery(key=int(k)) for k in range(0, 512, 2)]
        db_a, db_b = small_db(), small_db()
        outcome_a = db_a.session(execution=SerialPolicy()).execute(ops)
        outcome_b = db_b.session(
            execution=VectorizedPolicy(batch_size=16)
        ).execute(ops)
        assert outcome_a.results == outcome_b.results
        assert outcome_b.batch_sizes == [16] * 16
        assert (
            db_a.engine.counter.snapshot() == db_b.engine.counter.snapshot()
        )

    def test_session_dispatches_multi_update(self):
        db = small_db()
        with db.session() as session:
            outcome = session.execute(
                MultiUpdate(pairs=((10, 11), (99_999, 5)))
            )
        assert list(outcome.results[0]) == [1, 0]


class TestHarnessFacade:
    def config(self):
        return HAPConfig(
            num_rows=4_096, chunk_size=1_024, block_values=256, payload_columns=3
        )

    def test_build_hap_database_casper(self):
        config = self.config()
        training = make_workload(
            "hybrid_skewed", config, num_operations=400, seed=7
        )
        db = build_hap_database(
            LayoutKind.CASPER, config, training_workload=training
        )
        assert db.planner is not None
        assert db.num_chunks == 4

    def test_run_workload_accepts_database_and_fixed_batching(self):
        config = self.config()
        db = build_hap_database(LayoutKind.EQUI, config)
        workload = make_workload(
            "read_only_uniform", config, num_operations=600, seed=3
        )
        fixed = run_workload(db, workload, batch_size=256)
        assert fixed.operations == 600
        assert fixed.batch_sizes == [256, 256, 88]
        sequential = run_workload(db, workload)
        assert sequential.batch_sizes == []
        with pytest.raises(ValueError):
            run_workload(db, workload, batch_size=-1)
