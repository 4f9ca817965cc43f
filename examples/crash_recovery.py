"""Example: crash a durable database mid-batch and recover it.

The durability layer write-ahead logs every batch of deltas before its
results return, checkpoints chunk snapshots, and recovers the stored
state as *latest snapshot + WAL replay*.  This demo makes that concrete:

1. build a durable database (the load takes a baseline snapshot),
2. run write batches in lockstep with an in-process oracle, arming a
   fault injector to "kill the process" at a named I/O crash point --
   optionally as a power loss, which also drops the un-fsynced tail,
3. reopen the log directory with ``Database.open`` and verify the
   recovered table equals an oracle prefix no shorter than the
   acknowledged batches.

Run with::

    python examples/crash_recovery.py --crash-at wal.append.partial
    python examples/crash_recovery.py --crash-at wal.fsync --power-loss
    python examples/crash_recovery.py --list-crash-points

Exits non-zero when recovery lands on a state the commit contract does
not allow, so the CI crash matrix can gate on it.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.api.database import Database
from repro.durability.faults import CRASH_POINTS, FaultInjector, InjectedCrash
from repro.durability.manager import DurabilityConfig
from repro.workload.operations import MultiDelete, MultiInsert, MultiUpdate


def payload_for(keys: np.ndarray) -> np.ndarray:
    """Deterministic payload = f(key): recovery checks become order-free."""
    keys = np.asarray(keys, dtype=np.int64)
    return np.stack([keys % 7, (keys * 3) % 11], axis=1)


def canonical_model(model: dict) -> list:
    return sorted((key, a, b) for key, (a, b) in model.items())


def canonical_table(table) -> list:
    out = []
    for key in np.sort(table.scan()).tolist():
        for row in table.point_query(key):
            out.append((key, row.payload["a"], row.payload["b"]))
    return sorted(out)


def build_batches(model: dict, rounds: int) -> list:
    """Mixed write batches plus the oracle state after each one."""
    batches = []
    state = dict(model)
    next_key = 1_000_001  # odd: never collides with the even initial keys
    for round_no in range(rounds):
        fresh = [next_key + 2 * i for i in range(8)]
        next_key += 16
        rows = payload_for(np.array(fresh)).tolist()
        live = sorted(state)
        victim = live[(round_no * 13) % len(live)]
        moved = live[(round_no * 7 + 3) % len(live)]
        target = next_key
        next_key += 2
        ops = [
            MultiInsert(tuple(fresh), tuple(map(tuple, rows))),
            MultiDelete((victim,)),
            MultiUpdate(((moved, target),)),
        ]
        for key, row in zip(fresh, rows, strict=True):
            state[key] = tuple(row)
        state.pop(victim, None)
        if moved in state and moved != victim:
            state[target] = state.pop(moved)
        batches.append((ops, dict(state)))
    return batches


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--crash-at",
        default="wal.append.partial",
        choices=CRASH_POINTS,
        help="named I/O point at which the injected crash fires",
    )
    parser.add_argument(
        "--power-loss",
        action="store_true",
        help="also drop the un-fsynced WAL tail (power cut, not just a kill)",
    )
    parser.add_argument(
        "--rows", type=int, default=400, help="initial table size"
    )
    parser.add_argument(
        "--list-crash-points", action="store_true", help="print points and exit"
    )
    args = parser.parse_args(argv)
    if args.list_crash_points:
        print("\n".join(CRASH_POINTS))
        return 0

    with tempfile.TemporaryDirectory(prefix="repro-crash-") as tmp:
        root = Path(tmp)
        faults = FaultInjector(power_loss=args.power_loss)
        config = DurabilityConfig(root=root, faults=faults, retry_backoff_s=0.0)
        initial = np.arange(0, 2 * args.rows, 2, dtype=np.int64)
        db = Database.from_rows(
            initial,
            payload_for(initial),
            chunk_size=128,
            payload_names=("a", "b"),
            durability=config,
        )
        model = {
            int(key): tuple(row)
            for key, row in zip(
                initial.tolist(), payload_for(initial).tolist(), strict=True
            )
        }
        print(f"loaded {db.table.num_rows} rows; baseline snapshot taken")

        # Arm the injector only now, so the baseline snapshot lands; the
        # second hit of the point crashes mid-run (the payload segment and
        # the manifest are hit once per checkpoint, so their first hit is
        # the mid-run one).
        faults.crash_at = args.crash_at
        faults.crash_hit = faults.hits[args.crash_at] + (
            1 if args.crash_at in ("snapshot.segment", "snapshot.manifest") else 2
        )
        print(f"armed crash point {args.crash_at!r} (power_loss={args.power_loss})")

        prefixes = [canonical_model(model)]
        acked = 0
        applied = 0
        crashed = False
        for i, (ops, state) in enumerate(build_batches(model, rounds=6)):
            if i == 2:
                try:
                    info = db.checkpoint()
                    print(f"checkpoint at lsn {info.lsn} ({info.rows} rows)")
                except InjectedCrash as crash:
                    print(f"CRASH during checkpoint at {crash.point!r}")
                    crashed = True
                    break
            try:
                db.engine.execute_batch(ops)
            except InjectedCrash as crash:
                print(f"CRASH during batch {i} at {crash.point!r}")
                crashed = True
                prefixes.append(canonical_model(state))
                applied = acked + 1
                break
            prefixes.append(canonical_model(state))
            acked += 1
            applied = acked
            print(f"batch {i} acknowledged at lsn {db.durability.last_lsn}")
        if not crashed:
            print("crash point never fired; closing cleanly")
            db.close()

        reopened = Database.open(root)
        report = reopened.recovery
        print(
            f"recovered: snapshot lsn {report.base_lsn}, replayed "
            f"{report.batches_replayed} batches to lsn {report.last_lsn}, "
            f"truncated {report.truncated_bytes} torn bytes"
        )
        recovered = canonical_table(reopened.table)
        reopened.table.check_invariants()
        reopened.close()

        allowed = {acked: prefixes[acked], applied: prefixes[applied]}
        matches = [j for j, state in allowed.items() if state == recovered]
        if not matches:
            print(
                f"FAIL: recovered {len(recovered)} rows, equal to no oracle "
                f"prefix in {sorted(allowed)} (acked={acked})"
            )
            return 1
        print(
            f"OK: recovered state equals the oracle after {matches[0]} "
            f"batches (acknowledged: {acked})"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
