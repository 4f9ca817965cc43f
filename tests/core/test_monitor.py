"""Tests for the online workload monitor and the replan sample it keeps."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Database, ReorgPolicy
from repro.core.monitor import WorkloadMonitor
from repro.core.planner import CasperPlanner
from repro.storage.access_log import KIND_CODES
from repro.storage.engine import StorageEngine
from repro.storage.layouts import LayoutKind, LayoutSpec
from repro.storage.table import Table, layout_chunk_builder
from repro.workload.operations import (
    Delete,
    Insert,
    PointQuery,
    RangeQuery,
    Update,
    Workload,
)


POINT = KIND_CODES["point_query"]


def window(monitor, chunk):
    """One chunk's retained window as ``(code, low, high)`` rows, oldest first."""
    return list(zip(*(c.tolist() for c in monitor.recorded_sample(chunk)), strict=True))


def make_table(num_rows=2_048, chunk_size=512):
    keys = np.arange(num_rows, dtype=np.int64) * 2
    spec = LayoutSpec(kind=LayoutKind.EQUI, partitions=8, block_values=64)
    return Table(
        keys,
        chunk_size=chunk_size,
        chunk_builder=layout_chunk_builder(spec),
        block_values=64,
    )


class TestRecording:
    def test_point_operations_attributed_to_owning_chunk(self):
        monitor = WorkloadMonitor()
        engine = StorageEngine(make_table(), monitor=monitor)
        engine.execute(PointQuery(20))  # chunk 0 (keys 0..1022)
        engine.execute(PointQuery(1_030))  # chunk 1
        engine.execute(Insert(21))  # chunk 0
        assert monitor.operation_counts(0) == {"point_query": 1, "insert": 1}
        assert monitor.operation_counts(1) == {"point_query": 1}

    def test_fence_value_writes_attributed_to_owning_chunk_only(self):
        monitor = WorkloadMonitor()
        table = make_table()
        engine = StorageEngine(table, monitor=monitor)
        bound = int(table.chunk_bounds[0])
        # Inserting (or update-targeting) the fence value lands in chunk 0
        # only; the read side of the update probes the full candidate span.
        engine.execute(Insert(bound))
        engine.execute(Update(bound, bound))
        assert monitor.operation_counts(1).get("insert") is None
        assert monitor.operation_counts(0)["insert"] == 1
        # The update's two sides are attributed as distinct kinds: the
        # source probes the full candidate span (chunks 0 and 1), the
        # target lands in the insert route (chunk 0) only.
        assert monitor.operation_counts(0)["update_source"] == 1
        assert monitor.operation_counts(0)["update_target"] == 1
        assert monitor.operation_counts(1) == {"update_source": 1}

    def test_range_operations_attributed_to_span(self):
        monitor = WorkloadMonitor()
        engine = StorageEngine(make_table(), monitor=monitor)
        engine.execute(RangeQuery(1_000, 1_100))  # spans chunks 0 and 1
        assert monitor.operation_counts(0).get("range_count") == 1
        assert monitor.operation_counts(1).get("range_count") == 1

    def test_monitoring_charges_no_accesses_beyond_the_operation(self):
        monitored = StorageEngine(make_table(), monitor=WorkloadMonitor())
        plain = StorageEngine(make_table())
        monitored.execute(PointQuery(20))
        plain.execute(PointQuery(20))
        monitored.execute(RangeQuery(100, 900))
        plain.execute(RangeQuery(100, 900))
        assert monitored.counter.snapshot() == plain.counter.snapshot()

    def test_mix_and_hot_chunks(self):
        monitor = WorkloadMonitor()
        engine = StorageEngine(make_table(), monitor=monitor)
        for _ in range(3):
            engine.execute(PointQuery(20))
        engine.execute(Delete(40))
        engine.execute(PointQuery(1_030))
        mix = monitor.chunk_mix(0)
        assert mix["point_query"] == pytest.approx(0.75)
        assert mix["delete"] == pytest.approx(0.25)
        assert monitor.hot_chunks() == [0, 1]
        assert monitor.hot_chunks(top=1) == [0]

    def test_batch_execution_is_observed(self):
        monitor = WorkloadMonitor()
        engine = StorageEngine(make_table(), monitor=monitor)
        engine.execute_batch(
            [PointQuery(key=20), PointQuery(key=24), RangeQuery(low=0, high=50)]
        )
        assert monitor.operation_counts(0) == {"point_query": 2, "range_count": 1}

    def test_sample_limit_bounds_retained_operations(self):
        monitor = WorkloadMonitor(sample_limit=2)
        engine = StorageEngine(make_table(), monitor=monitor)
        for _ in range(5):
            engine.execute(PointQuery(20))
        assert window(monitor, 0) == [(POINT, 20, 20)] * 2
        assert monitor.operation_counts(0) == {"point_query": 5}

    def test_chunk_sample_honours_configured_sample_limit(self):
        # The monitor's per-chunk windows must be bounded by the configured
        # limit, not the module default.
        monitor = WorkloadMonitor(sample_limit=3)
        engine = StorageEngine(make_table(), monitor=monitor)
        for key in range(0, 20, 2):
            engine.execute(PointQuery(key))
        assert monitor._samples[0].limit == 3
        # The retained window is the *most recent* three operations.
        assert window(monitor, 0) == [(POINT, key, key) for key in (14, 16, 18)]

    def test_sample_limit_zero_disables_sampling(self):
        monitor = WorkloadMonitor(sample_limit=0)
        engine = StorageEngine(make_table(), monitor=monitor)
        engine.execute(PointQuery(20))
        assert monitor.operation_counts(0) == {"point_query": 1}
        assert window(monitor, 0) == []

    def test_observe_rejects_unknown_kinds(self):
        # An update is observed as its two sides; the paired ``"update"``
        # is a record kind of ``observe_batch``, not one of ``observe``.
        monitor = WorkloadMonitor()
        for kind in ("update", "scan"):
            with pytest.raises(ValueError, match="unknown attribution kind"):
                monitor.observe(make_table(), kind, 20)
        assert monitor.observed_chunks() == []

    def test_reset(self):
        monitor = WorkloadMonitor()
        engine = StorageEngine(make_table(), monitor=monitor)
        engine.execute(PointQuery(20))
        monitor.reset()
        assert monitor.observed_chunks() == []


class TestReplanChunk:
    """One chunk's turn of the online loop, through the policy that runs it."""

    def make_planner(self):
        training = Workload(
            operations=[PointQuery(key=int(key)) for key in range(0, 1_000, 10)],
            name="training",
        )
        return CasperPlanner(sample_workload=training, block_values=64)

    def drifted_database(self):
        """A database planned for inserts whose chunk 0 then served reads."""
        keys = np.arange(2_048, dtype=np.int64) * 2
        training = Workload(
            operations=[Insert(key=int(key) + 1) for key in keys[::4]],
            name="inserts",
        )
        database = Database.plan_for(
            training, keys, chunk_size=512, block_values=64
        )
        for key in range(0, 1_000, 2):
            database.engine.execute(PointQuery(key))
        return database

    def test_replan_preserves_data_and_invariants(self):
        database = self.drifted_database()
        table = database.table
        policy = ReorgPolicy(min_chunk_operations=100)
        keys_before = np.sort(table.keys())
        before = table.chunks[0]
        assert policy.scan(database) == [0]
        decision = policy.apply_action(database, policy.decide_chunk(database, 0))
        assert decision.replanned
        assert table.chunks[0] is not before
        assert np.array_equal(np.sort(table.keys()), keys_before)
        table.check_invariants()
        # Queries still resolve after the re-layout.
        assert len(table.point_query(20)) == 1

    def test_replan_uses_recorded_sample(self):
        database = self.drifted_database()
        policy = ReorgPolicy(min_chunk_operations=100)
        plans_before = list(database.planner.plans)
        assert policy.scan(database) == [0]
        action = policy.decide_chunk(database, 0)
        # The original planner keeps its own history; the replan is solved
        # by a derived planner seeded with the monitor's recorded columns.
        recorded = database.monitor.recorded_sample(0)
        assert window(database.monitor, 0) == [
            (POINT, key, key) for key in range(0, 1_000, 2)
        ]
        for given, kept in zip(action.replanner.sample_workload, recorded, strict=True):
            assert np.array_equal(given, kept)
        policy.apply_action(database, action)
        assert database.planner.plans == plans_before
        assert database.monitor.observed_chunks() == []  # chunk 0 reset

    def test_unobserved_chunk_is_not_replanned(self):
        database = self.drifted_database()
        policy = ReorgPolicy(min_chunk_operations=100)
        untouched = database.table.chunks[1]
        assert policy.scan(database) == [0]
        assert policy.decide_chunk(database, 1) is None
        assert database.table.chunks[1] is untouched
        assert policy.decisions == []

    def test_snapshot_chunk_rejects_bad_index(self):
        table = make_table()
        from repro.storage.errors import LayoutError

        with pytest.raises(LayoutError):
            table.snapshot_chunk(99)

    def test_with_sample_copies_tuning(self):
        planner = self.make_planner()
        derived = planner.with_sample(Workload(name="drift"))
        assert derived.block_values == planner.block_values
        assert derived.sample_workload.name == "drift"
        assert derived.plans == []


class TestObserveWorkload:
    def test_matches_engine_attribution(self):
        # Feeding a workload through observe_workload must attribute the
        # same per-chunk counts the engine's dispatch would.
        from repro.workload.operations import (
            Delete,
            Insert,
            MultiPointQuery,
            MultiUpdate,
            Update,
        )

        operations = [
            PointQuery(key=20),
            RangeQuery(low=0, high=1_500),
            Insert(key=21),
            Delete(key=40),
            Update(old_key=60, new_key=2_001),
            MultiPointQuery(keys=(1_030, 50)),
            MultiUpdate(pairs=((80, 81),)),
        ]
        table = make_table()
        executed = WorkloadMonitor()
        engine = StorageEngine(table, monitor=executed)
        for operation in operations:
            engine.execute(operation)
        observed = WorkloadMonitor()
        observed.observe_workload(make_table(), Workload(operations=operations))
        assert observed.observed_chunks() == executed.observed_chunks()
        for chunk in observed.observed_chunks():
            assert observed.operation_counts(chunk) == executed.operation_counts(
                chunk
            )
