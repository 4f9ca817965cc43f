"""Runtime debug layer: latch tracking, tracked locks, entry-point
assertions, Eraser-lite guarded state, and the zero-overhead contract."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro import discipline
from repro.discipline import (
    LatchDisciplineError,
    TrackedLock,
    wrap_requires_latch,
    wrap_requires_lock,
)
from repro.storage.latches import ChunkLatches, DebugChunkLatches, RWLatch

pytestmark = pytest.mark.concurrency

REPO = Path(__file__).parents[2]


@pytest.fixture(autouse=True)
def clean_slate():
    discipline.clear_violations()
    yield
    discipline.clear_violations()


def recorded_checks():
    return [v.check for v in discipline.violations()]


# --------------------------------------------------------------------------
# Construction-time dispatch
# --------------------------------------------------------------------------

class TestDispatch:
    def test_debug_flag_selects_debug_class(self):
        assert type(ChunkLatches(3, debug=True)) is DebugChunkLatches
        assert type(ChunkLatches(3, debug=False)) is ChunkLatches

    def test_env_default_matches_debug_enabled(self):
        assert isinstance(
            ChunkLatches(3), DebugChunkLatches
        ) == discipline.debug_enabled()

    def test_lock_factories_follow_debug_flag(self):
        previous = discipline.debug_enabled()
        try:
            discipline.set_debug(False)
            assert not isinstance(
                discipline.make_lock("engine_stats"), TrackedLock
            )
            discipline.set_debug(True)
            assert isinstance(
                discipline.make_lock("engine_stats"), TrackedLock
            )
            assert isinstance(
                discipline.make_rlock("monitor"), TrackedLock
            )
            condition = discipline.make_condition("reorg_wake")
            assert isinstance(condition._lock, TrackedLock)
        finally:
            discipline.set_debug(previous)


# --------------------------------------------------------------------------
# assert_latched
# --------------------------------------------------------------------------

class TestAssertLatched:
    def test_passes_under_sufficient_hold(self):
        latches = ChunkLatches(4, debug=True)
        with latches.shared(1):
            latches.assert_latched(1, "shared")
        with latches.exclusive(2):
            latches.assert_latched(2, "shared")
            latches.assert_latched(2, "exclusive")

    def test_raises_without_hold(self):
        latches = ChunkLatches(4, debug=True)
        with pytest.raises(LatchDisciplineError):
            latches.assert_latched(1, "shared")

    def test_raises_on_too_weak_hold(self):
        latches = ChunkLatches(4, debug=True)
        with latches.shared(1), pytest.raises(LatchDisciplineError):
            latches.assert_latched(1, "exclusive")

    def test_module_helper_is_noop_on_plain_latches(self):
        # Tests swap in plain latch sets; the module-level helper must
        # tolerate them (checks compile out with the debug class).
        discipline.assert_latched(ChunkLatches(4, debug=False), 1, "shared")

    def test_tracking_survives_latch_replacement(self):
        # Held-set bookkeeping lives at the ChunkLatches level, so a
        # test-injected RWLatch instance stays tracked.
        latches = ChunkLatches(4, debug=True)
        latches._latches[1] = RWLatch()
        with latches.exclusive(1):
            latches.assert_latched(1, "exclusive")


# --------------------------------------------------------------------------
# TrackedLock ordering
# --------------------------------------------------------------------------

class TestTrackedLockOrder:
    def test_ascending_ranks_are_clean(self):
        state = TrackedLock("reorg_state")
        wake = TrackedLock("reorg_wake")
        with state, wake:
            pass
        assert recorded_checks() == []

    def test_descending_ranks_record_lo01_and_cycle(self):
        # Run the inversion on a private graph so the process-wide one
        # stays clean for other tests.
        state = TrackedLock("reorg_state")
        wake = TrackedLock("reorg_wake")
        with state, wake:
            pass
        with wake, state:
            pass
        checks = recorded_checks()
        assert "LO01" in checks
        assert "LO03" in checks
        deadlock = next(
            v for v in discipline.violations() if v.check == "LO03"
        )
        # Both acquisition stacks are attached to the report.
        assert deadlock.stack
        assert deadlock.extra_stack

    def test_reentrant_lock_notes_only_outermost(self):
        lock = TrackedLock("policy_state", reentrant=True)
        with lock, lock:
            assert discipline.holds_lock("policy_state")
        assert not discipline.holds_lock("policy_state")
        assert recorded_checks() == []

    def test_chunk_latch_under_lock_records_lo01(self):
        latches = ChunkLatches(4, debug=True)
        with TrackedLock("engine_stats"):
            with latches.shared(0):
                pass
        assert "LO01" in recorded_checks()


# --------------------------------------------------------------------------
# Entry-point wrappers
# --------------------------------------------------------------------------

class TestEntryWrappers:
    def test_requires_latch_wrapper_enforces(self):
        latches = ChunkLatches(4, debug=True)
        probe = wrap_requires_latch(lambda: "ok", "shared")
        with pytest.raises(LatchDisciplineError):
            probe()
        with latches.shared(2):
            assert probe() == "ok"

    def test_requires_latch_wrapper_mode_strength(self):
        latches = ChunkLatches(4, debug=True)
        probe = wrap_requires_latch(lambda: "ok", "exclusive")
        with latches.shared(2), pytest.raises(LatchDisciplineError):
            probe()
        with latches.exclusive(2):
            assert probe() == "ok"

    def test_requires_lock_wrapper_enforces(self):
        lock = TrackedLock("monitor")
        probe = wrap_requires_lock(lambda: "ok", "monitor")
        with pytest.raises(LatchDisciplineError):
            probe()
        with lock:
            assert probe() == "ok"


# --------------------------------------------------------------------------
# Eraser-lite guarded state
# --------------------------------------------------------------------------

class TestEraserLite:
    def make_instrumented(self):
        class Toy:
            def __init__(self):
                self._lock = discipline.make_lock("engine_stats")
                self.counter = 0
                self.label = "x"

        return discipline.instrument_guarded(
            Toy, {"counter": ("engine_stats", "rw")}
        )

    def test_single_thread_access_is_free(self):
        previous = discipline.debug_enabled()
        discipline.set_debug(True)
        try:
            toy = self.make_instrumented()()
            toy.counter += 1  # owner thread, unshared: no violation
            toy.label = "y"  # unguarded attribute: never checked
        finally:
            discipline.set_debug(previous)
        assert recorded_checks() == []

    def test_cross_thread_unlocked_write_records_gsr(self):
        previous = discipline.debug_enabled()
        discipline.set_debug(True)
        try:
            toy = self.make_instrumented()()

            def racer():
                toy.counter += 1  # unlocked read+write from second thread

            thread = threading.Thread(target=racer)
            thread.start()
            thread.join()
        finally:
            discipline.set_debug(previous)
        assert "GS-R" in recorded_checks()

    def test_cross_thread_locked_access_is_clean(self):
        previous = discipline.debug_enabled()
        discipline.set_debug(True)
        try:
            toy = self.make_instrumented()()

            def polite():
                with toy._lock:
                    toy.counter += 1

            thread = threading.Thread(target=polite)
            thread.start()
            thread.join()
            with toy._lock:
                assert toy.counter == 1
        finally:
            discipline.set_debug(previous)
        assert recorded_checks() == []


# --------------------------------------------------------------------------
# End-to-end under REPRO_DEBUG_LATCHES=1 and the zero-overhead contract
# --------------------------------------------------------------------------

SUBPROCESS_PROBE = """
import numpy as np
from repro import discipline
from repro.storage.latches import DebugChunkLatches
from repro.storage.table import Table

assert discipline.DEBUG_AT_IMPORT
table = Table(np.arange(4000, dtype=np.int64), chunk_size=512)
assert isinstance(table._latches, DebugChunkLatches)
table.insert(17)
table.delete(17)
assert len(table.point_query(1234)) >= 1
assert table.range_count(100, 900) > 0
snapshot = table.snapshot_chunk(0)
assert table.publish_chunk(snapshot, table.build_chunk_replacement(snapshot))
bad = [v for v in discipline.violations()]
assert not bad, bad
assert not discipline.order_graph().has_cycles()
print("DEBUG_OK")
"""


class TestEndToEnd:
    def test_table_ops_clean_under_debug_env(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        env[discipline.DEBUG_ENV] = "1"
        result = subprocess.run(
            [sys.executable, "-c", SUBPROCESS_PROBE],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "DEBUG_OK" in result.stdout

    def test_decorators_compile_out_when_disabled(self):
        if discipline.DEBUG_AT_IMPORT:
            pytest.skip("suite running with REPRO_DEBUG_LATCHES=1")
        from repro.storage.column import PartitionedColumn

        # Undecorated-at-import: the methods are the plain functions, so
        # the disabled mode has literally zero per-call overhead.
        assert "wrapper" not in PartitionedColumn.point_query.__qualname__
        assert (
            PartitionedColumn.point_query.__name__ == "point_query"
        )
