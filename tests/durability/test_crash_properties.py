"""Fault-injected crash recovery: random workloads, every crash point.

The harness drives an oracle model (a plain ``dict`` of ``key -> payload``)
in lockstep with the engine, injects a crash at a named I/O point, then
reopens the log directory and checks the recovered table against the
oracle.  The commit contract under ``fsync="always"`` is:

* every *acknowledged* batch survives recovery, and
* at most the one in-flight batch may additionally survive (its WAL
  record landed before the crash) -- never a partial batch, because a
  batch is one atomic WAL record.

So the recovered state must equal the oracle after ``j`` batches for some
``j`` in ``{acked, applied}``.  Workload keys are unique by construction
(initial keys even, generated keys odd and monotonic), which removes the
duplicate-key delete/update victim ambiguity from the equality check.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
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
from repro.durability.recovery import recover, replay
from repro.durability.wal import scan_segment, segment_first_lsn

#: A workload spec: batches of (op kind, choice index).  The index picks
#: the delete/update victim from the live key set, so specs stay valid
#: whatever state earlier batches left behind.
BATCH_SPECS = st.lists(
    st.lists(
        st.tuples(st.sampled_from(OP_KINDS), st.integers(0, 99)),
        min_size=1,
        max_size=3,
    ),
    min_size=2,
    max_size=5,
)


def run_crash_scenario(root, spec, crash_point, power_loss, offset):
    """Run ``spec`` against a durable database, crashing at ``crash_point``.

    Returns ``(crashed, recovered, allowed)``: whether the injected crash
    fired, the recovered canonical state, and the set of oracle states
    recovery is allowed to land on.
    """
    faults = FaultInjector(power_loss=power_loss)
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
    prefixes = [canonical_model(model)]
    next_key = [1_000_001]

    # Arm the injector only now: the baseline snapshot above must land.
    faults.crash_at = crash_point
    faults.crash_hit = faults.hits[crash_point] + offset

    acked = 0
    applied = 0
    crashed = False
    for i, spec_batch in enumerate(spec):
        if i == 1:
            # A mid-run checkpoint makes the snapshot crash points
            # reachable; an injected crash aborts it without rotating.
            try:
                db.checkpoint()
            except InjectedCrash:
                crashed = True
                break
        ops, new_model = build_batch(spec_batch, model, next_key)
        try:
            db.engine.execute_batch(ops)
        except InjectedCrash:
            # The batch applied in memory before its WAL append/fsync
            # crashed: its record either landed whole or not at all.
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


class TestCrashRecoveryProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        spec=BATCH_SPECS,
        crash_point=st.sampled_from(CRASH_POINTS),
        power_loss=st.booleans(),
        offset=st.integers(1, 4),
    )
    def test_recovery_lands_on_an_oracle_prefix(
        self, spec, crash_point, power_loss, offset
    ):
        with tempfile.TemporaryDirectory() as root:
            crashed, recovered, allowed = run_crash_scenario(
                Path(root), spec, crash_point, power_loss, offset
            )
            assert recovered in allowed
            if not crashed:
                # No crash fired: a clean shutdown must lose nothing.
                assert recovered == allowed[-1]

    @settings(max_examples=10, deadline=None)
    @given(spec=BATCH_SPECS)
    def test_replay_prefix_twice_is_a_noop(self, spec):
        with tempfile.TemporaryDirectory() as root:
            root = Path(root)
            initial = np.arange(0, 60, 2, dtype=np.int64)
            db = Database.from_rows(
                initial,
                payload_for(initial),
                chunk_size=32,
                payload_names=("a", "b"),
                durability=root,
            )
            model = {
                int(key): tuple(row)
                for key, row in zip(
                    initial.tolist(), payload_for(initial).tolist(), strict=True
                )
            }
            next_key = [1_000_001]
            for spec_batch in spec:
                ops, model = build_batch(spec_batch, model, next_key)
                db.engine.execute_batch(ops)
            db.close()

            table, report = recover(root)
            before = canonical_table(table)
            assert before == canonical_model(model)
            segments = sorted(
                (root / "wal").glob("wal-*.log"),
                key=lambda p: segment_first_lsn(p.name),
            )
            records = []
            for segment in segments:
                records.extend(scan_segment(segment).records)
            batches, operations, last = replay(
                table, records, after_lsn=report.last_lsn
            )
            assert (batches, operations) == (0, 0)
            assert last == report.last_lsn
            assert canonical_table(table) == before


class TestCrashMatrix:
    """Deterministic anchor for the CI crash-point matrix."""

    #: Fixed workload: inserts, deletes, updates and reads across four
    #: batches, so every crash offset lands somewhere interesting.
    SPEC = [
        [("insert", 0), ("delete", 3)],
        [("update", 7), ("insert", 1)],
        [("delete", 11), ("read", 0), ("insert", 2)],
        [("update", 5), ("delete", 19)],
    ]

    @pytest.mark.parametrize("power_loss", [False, True], ids=["kill", "power"])
    @pytest.mark.parametrize("crash_point", CRASH_POINTS)
    def test_every_crash_point_recovers(self, tmp_path, crash_point, power_loss):
        # The manifest is written once per checkpoint and only one
        # checkpoint runs after the injector is armed; every other point
        # fires repeatedly, so the second hit exercises a mid-run crash.
        offset = 1 if crash_point == "snapshot.manifest" else 2
        crashed, recovered, allowed = run_crash_scenario(
            tmp_path, self.SPEC, crash_point, power_loss, offset
        )
        assert crashed, f"crash point {crash_point} never fired"
        assert recovered in allowed
