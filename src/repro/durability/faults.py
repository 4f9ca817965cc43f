"""Fault injection for the durability subsystem.

The WAL writer and the snapshot writer call :meth:`FaultInjector.hit` at
named *crash points* along their I/O paths.  A test (or the
``examples/crash_recovery.py`` demo) configures an injector to raise at one
of them, which simulates a process kill at exactly that instant:

===========================  ====================================================
crash point                  the process dies ...
===========================  ====================================================
``wal.append.begin``         before any byte of the record reaches the file
``wal.append.header``        after the 16-byte record header, body missing
``wal.append.partial``       mid-body -- a torn record with a valid header
``wal.append.full``          after the full record, before the commit returns
``wal.fsync``                during the fsync that would make the tail durable
``snapshot.segment``         after a new payload segment, before any chunk file
``snapshot.chunk``           while writing a snapshot chunk file
``snapshot.manifest``        after chunk files, before the manifest commits
===========================  ====================================================

Crashes are raised as :class:`InjectedCrash`, a ``BaseException`` subclass
so no library-level ``except Exception`` handler can accidentally swallow
the "process death" and keep running.  The I/O layer catches it only to
close file descriptors (what the OS would do) and re-raises.

The same injector also models *transient* I/O failures: ``io_error_at``
makes the first ``io_errors`` hits of a point raise :class:`OSError`, which
exercises the WAL writer's bounded retry-with-backoff; setting ``io_errors``
higher than the retry budget models a log directory that became unwritable
and drives the graceful degradation to read-only mode.

With ``power_loss=True`` a crash additionally drops every WAL byte that was
written but not yet fsynced (the file is truncated back to the last synced
offset), modelling power failure rather than a mere process kill.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field

#: Every named crash point, in pipeline order (the CI fault-injection job
#: runs a matrix over this tuple; keep it in sync with the table above).
CRASH_POINTS = (
    "wal.append.begin",
    "wal.append.header",
    "wal.append.partial",
    "wal.append.full",
    "wal.fsync",
    "snapshot.segment",
    "snapshot.chunk",
    "snapshot.manifest",
)

#: Points that may also raise transient ``OSError`` via ``io_error_at``.
IO_POINTS = ("wal.write", "wal.fsync", "snapshot.write")

#: Kill points along the two-phase cross-shard move window.  These are
#: *worker* kill hooks, not injector crash points: the shard worker
#: counts its move verbs and ``os._exit(1)``-s when the attach request's
#: fault dict maps one of these names to the current count (mirroring the
#: ``exit_before_apply`` / ``exit_before_ack`` batch hooks).  They are
#: deliberately not part of :data:`CRASH_POINTS` -- the single-process
#: crash-recovery example matrix stays valid -- and are consumed by the
#: mid-move kill matrix in ``tests/sharding/test_recovery.py``.
MOVE_POINTS = (
    "move.take.before_apply",
    "move.take.before_ack",
    "move.put.before_apply",
    "move.put.before_ack",
    "move.forget.before_apply",
)


class InjectedCrash(BaseException):
    """A simulated process kill at a named crash point.

    Deliberately *not* an :class:`Exception` subclass: nothing below the
    test harness may catch-and-continue past a simulated death.
    """

    def __init__(self, point: str) -> None:
        super().__init__(f"injected crash at {point}")
        self.point = point


@dataclass
class FaultInjector:
    """Configurable fault source shared by the WAL and snapshot writers.

    Parameters
    ----------
    crash_at:
        Crash-point name (one of :data:`CRASH_POINTS`) to die at, or
        ``None`` for no crash.
    crash_hit:
        Die on the N-th hit of ``crash_at`` (1-based), so a test can let a
        few commits succeed before the kill.
    power_loss:
        When true, a WAL crash also discards the un-fsynced tail (the
        writer truncates the file back to its last synced offset before
        dying), modelling power failure instead of a process kill.
    io_error_at:
        Point name whose next ``io_errors`` hits raise a transient
        :class:`OSError` before any crash check.
    io_errors:
        Number of transient failures to inject at ``io_error_at``.
    """

    crash_at: str | None = None
    crash_hit: int = 1
    power_loss: bool = False
    io_error_at: str | None = None
    io_errors: int = 0
    hits: Counter = field(default_factory=Counter)
    crashed: bool = False

    def hit(self, point: str) -> None:
        """Record one pass through ``point``; raise any configured fault."""
        self.hits[point] += 1
        if self.io_error_at == point and self.io_errors > 0:
            self.io_errors -= 1
            raise OSError(f"injected transient I/O failure at {point}")
        if (
            not self.crashed
            and self.crash_at == point
            and self.hits[point] >= self.crash_hit
        ):
            self.crashed = True
            raise InjectedCrash(point)


def retry_io(
    fn,
    *,
    point: str,
    faults: FaultInjector | None = None,
    max_retries: int = 4,
    backoff_s: float = 0.002,
    sleep=time.sleep,
    on_crash=None,
):
    """Run ``fn`` with bounded retry-with-backoff against transient I/O.

    Each attempt first consults ``faults`` (when attached), so injected
    transient errors and injected crashes flow through the *same* path real
    ``OSError`` / real death would.  Transient failures back off
    exponentially (``backoff_s``, doubled per retry, capped at 100ms) for at
    most ``max_retries`` retries; exhaustion re-raises the last ``OSError``
    for the caller to convert into its degradation mode.  An
    :class:`InjectedCrash` runs ``on_crash`` (fd cleanup -- what the OS
    would do to a dead process) and propagates immediately: death is not
    retriable.
    """
    delay = backoff_s
    last: OSError | None = None
    for attempt in range(max_retries + 1):
        try:
            if faults is not None:
                faults.hit(point)
            return fn()
        except InjectedCrash:
            if on_crash is not None:
                on_crash()
            raise
        except OSError as exc:
            last = exc
            if attempt == max_retries:
                break
            sleep(delay)
            delay = min(delay * 2, 0.1)
    raise last
