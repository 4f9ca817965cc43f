"""The reorganization loop's one driver: scan, queue, drain.

After every ``Session.execute`` the :class:`Reorganizer` has the policy
*scan* for drifted candidates (cheap -- no solver), queues them, and drains
the queue through the policy's decide and apply steps.  How much it drains
per execute call is the only thing that varies: everything queued
(``chunk_budget=None`` -- what a session builds around a bare
:class:`~repro.api.reorg.ReorgPolicy`, so the execute call that trips the
drift check absorbs the whole stall), at most ``chunk_budget`` chunks (a
bounded between-batch stall), or nothing, because a background worker
thread drains continuously (``background=True``).

Staleness is handled with the table's per-chunk data generation counter:
the decision phase snapshots the generation when it solves a layout, and
the apply phase builds the replacement chunk copy-on-write and swaps it in
through the table's generation-checked
:meth:`~repro.storage.table.Table.publish_chunk`.  A replan that raced a
concurrent write fails the publish and the chunk is *requeued* (a fresh
decision will price the new data) rather than applied stale.

Concurrency model: there is deliberately **no** global lock between
session execution and background reorganization.  The rules below are
machine-checked -- statically by ``python -m repro.analysis`` and at
runtime under ``REPRO_DEBUG_LATCHES=1`` (check IDs refer to
:mod:`repro.analysis`; the declaration tables live in
:mod:`repro.discipline`):

* Reads and writes are isolated by the table's chunk-granular latches;
  every chunk access is latch-bracketed (checks LB01/LB02/LB03) and
  multi-chunk latching is ascending-index only (LO02).
* The replan's expensive phases -- solving the layout, building the
  replacement chunk -- run entirely *off* the latches against a pinned
  snapshot (SL01: a solver call under any latch or declared lock is an
  error), so concurrent readers only ever pause for the O(1) publish swap
  of one chunk, and only writers targeting the chunk being swapped
  serialize with it.  Every publish is generation-checked (GC01: a
  ``publish_chunk`` call site must test the result or be dominated by a
  generation comparison).
* Cross-object lock nesting follows the declared partial order
  ``repro.discipline.LOCK_ORDER`` -- chunk latch before structure locks
  before monitor before reorganizer state (LO01, runtime cycle detection
  LO03).  The decision phase's monitor reads go through the monitor's own
  ingest lock; the cost gate's baseline bookkeeping is guarded inside
  :class:`ReorgPolicy`.
* The reorganizer's own shared scalars are declared in
  ``repro.discipline.GUARDED_BY`` (GS01/GS02): the queue and worker wake
  state under ``_wake``, counters and lifecycle under ``_state``.

A decision that still catches transient state (e.g. a chunk emptied
between scan and decide) can raise; the worker shields each chunk's
processing so an exception is counted (:attr:`Reorganizer.errors`),
retried a bounded number of times, and never kills the thread.

One reorganizer may serve many concurrent sessions of its database: the
work queue and failure counters are mutex-guarded (the report watermark
lives in the policy, beside the decision log it indexes), and the
background worker keeps running until the *last* registered
session closes (sessions register on open and deregister on close).
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

from repro import discipline
from repro.discipline import guarded_class

from .reorg import ReorgAction, ReorgDecision, ReorgPolicy

if TYPE_CHECKING:
    from .database import Database

#: Retries granted to a chunk whose background decision raised before the
#: worker stops re-trying it (transient races resolve; persistent faults
#: must not spin).
_MAX_CHUNK_FAILURES = 3


@guarded_class
class Reorganizer:
    """Budgeted, optionally background, application of reorg decisions.

    Parameters
    ----------
    policy:
        The :class:`ReorgPolicy` that scans, prices and applies replans; a
        default-configured one is created when omitted.  The policy's
        ``decisions`` list remains the single record of everything the
        lifecycle did.
    chunk_budget:
        Maximum chunks *priced* per drain slice (approved ones are also
        applied).  ``None`` drains the whole queue every slice.
    background:
        When true, a daemon worker thread drains the queue continuously
        between execute calls instead of the session draining one slice
        after each execute.  The budget then bounds each wake-up of the
        worker.

    One reorganizer serves one database (like the policy it wraps); reuse
    across that database's sessions is fine.
    """

    def __init__(
        self,
        policy: ReorgPolicy | None = None,
        *,
        chunk_budget: int | None = 1,
        background: bool = False,
    ) -> None:
        if chunk_budget is not None and chunk_budget <= 0:
            raise ValueError("chunk_budget must be positive (or None)")
        self.policy = policy if policy is not None else ReorgPolicy()
        self.chunk_budget = chunk_budget
        self.background = bool(background)
        #: Chunks requeued because a write raced their solved plan.
        self.requeues = 0
        #: Exceptions swallowed by the background worker (the shielded
        #: chunk is retried up to ``_MAX_CHUNK_FAILURES`` times).
        self.errors = 0
        # Queued chunk indices, in queue order (an insertion-ordered set).
        self._pending: dict[int, None] = {}
        self._failures: dict[int, int] = {}
        # ``_wake`` guards the queue and wakes the worker; ``_state`` guards
        # the small shared scalars (session count, requeue/error tallies,
        # worker lifecycle).  Database mutation needs no
        # reorganizer-level lock: the table's chunk latches isolate the
        # copy-on-write publish from session execution.
        self._wake = discipline.make_condition("reorg_wake")
        self._state = discipline.make_lock("reorg_state")
        self._thread: threading.Thread | None = None
        self._stop = False
        self._busy = False
        self._database: "Database | None" = None
        self._sessions = 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def decisions(self) -> list[ReorgDecision]:
        """All decisions recorded by the wrapped policy."""
        return list(self.policy.decisions)

    @property
    def replans(self) -> int:
        """Number of replans performed so far."""
        return self.policy.replans

    def pending_chunks(self) -> list[int]:
        """Chunks currently queued for pricing, in queue order."""
        with self._wake:
            return list(self._pending)

    # ------------------------------------------------------------------ #
    # Lifecycle plumbing
    # ------------------------------------------------------------------ #

    def register_session(self, database: "Database") -> None:
        """Bind to ``database`` and count a session against the worker.

        The one place a database is bound (the policy refuses a second
        one) and, in background mode, the worker started.  The worker (and
        the pending queue) survive until the last registered session
        closes, so several concurrent sessions of one database can share a
        single reorganizer without the first closer tearing reorganization
        down under the others.

        ``_database`` and the worker lifecycle are written under their
        declared guards (GS01: ``_database``/``_thread`` under ``_state``,
        ``_stop`` under ``_wake``) -- an unlocked ``_database`` publish
        could race a concurrent ``_stop_worker``/re-registration, and a
        ``_stop`` write outside ``_wake`` could be reordered against the
        worker's condition-variable check.
        """
        self.policy.bind(database)
        with self._state:
            self._database = database
            self._sessions += 1
            if self.background and self._thread is None:
                with self._wake:
                    self._stop = False
                self._thread = threading.Thread(
                    target=self._worker,
                    name="repro-reorganizer",
                    daemon=True,
                )
                self._thread.start()

    def _enqueue(self, chunks) -> None:
        with self._wake:
            queued = len(self._pending)
            for chunk_index in chunks:
                self._pending.setdefault(chunk_index)
            if len(self._pending) > queued:
                self._wake.notify_all()

    def _pop(self) -> int | None:
        with self._wake:
            if not self._pending:
                return None
            chunk_index = next(iter(self._pending))
            del self._pending[chunk_index]
            if not self._pending:
                # A foreground drain can be what ``wait_idle`` waits for.
                self._wake.notify_all()
            return chunk_index

    # ------------------------------------------------------------------ #
    # Session entry points
    # ------------------------------------------------------------------ #

    def after_execute(self, database: "Database") -> list[ReorgDecision]:
        """Scan for drifted chunks and make incremental progress.

        Called by the session after every ``execute``.  Foreground mode
        drains one budgeted slice right here (the bounded between-batch
        stall); background mode only wakes the worker.  Returns the
        decisions recorded since the previous report, so replans the
        worker performed while the caller was idle still reach the
        session's decision log -- note their simulated charges landed
        outside any execute call, so they appear in
        ``Session.report()``'s counter totals but not in any single
        ``SessionResult``'s ``accesses``/``reorg_ns`` window.
        """
        self._enqueue(self.policy.scan(database))
        if not self.background:
            self._drain_slice(database)
        return self.policy.unreported()

    def finish(
        self, database: "Database", *, reorganize: bool = True
    ) -> list[ReorgDecision]:
        """Close-time drain: stop the worker and flush the queue.

        Called by each closing session.  While *other* sessions remain
        registered, the worker and queue are left running (a final scan
        still enqueues any drift the closing session accumulated); the
        *last* session's close performs the full teardown.  With
        ``reorganize`` (the default) that teardown runs a final scan and
        drains the queue to empty, budget-free, so drift accumulated by a
        session's last execute calls still gets decided.
        ``reorganize=False`` (the session's exceptional-exit path) only
        stops the worker and clears the queue.
        """
        with self._state:
            self._sessions = max(0, self._sessions - 1)
            last = self._sessions == 0
        if last:
            self._stop_worker()
        if reorganize:
            self._enqueue(self.policy.scan(database))
            if last:
                self._drain_slice(database, unbounded=True)
        elif last:
            with self._wake:
                self._pending.clear()
                self._wake.notify_all()
        return self.policy.unreported()

    def wait_idle(self, timeout: float = 10.0) -> bool:
        """Block until the queue is empty and the worker rests (tests)."""
        with self._wake:
            return self._wake.wait_for(
                lambda: not self._pending and not self._busy, timeout
            )

    # ------------------------------------------------------------------ #
    # Draining
    # ------------------------------------------------------------------ #

    def _drain_slice(
        self,
        database: "Database",
        *,
        unbounded: bool = False,
        shielded: bool = False,
    ) -> None:
        """Price (and apply) queued chunks up to the slice's chunk budget.

        ``shielded`` (the background worker's mode) keeps an exception in
        one chunk's decision from killing the drain: the error is counted,
        the chunk retried on a later slice (up to a small cap), and the
        remaining queue still progresses.  Foreground drains propagate, so
        a session sees the failure in the execute call that hit it.
        """
        budget = None if unbounded else self.chunk_budget
        chunks_done = 0
        while budget is None or chunks_done < budget:
            chunk_index = self._pop()
            if chunk_index is None:
                break
            if shielded:
                try:
                    self._process(database, chunk_index)
                except Exception:
                    with self._state:
                        self.errors += 1
                        failures = self._failures.get(chunk_index, 0) + 1
                        self._failures[chunk_index] = failures
                    if failures < _MAX_CHUNK_FAILURES:
                        self._enqueue((chunk_index,))
                else:
                    # A success clears the strike count: the cap exists to
                    # stop *persistent* faults from spinning, not to ban a
                    # chunk for transient races spread over a long session.
                    with self._state:
                        self._failures.pop(chunk_index, None)
            else:
                self._process(database, chunk_index)
            chunks_done += 1

    def _process(self, database: "Database", chunk_index: int) -> None:
        """Decide one chunk and apply the outcome.

        Both phases run without any reorganizer-level lock: the decision
        solves against a latched snapshot, and the apply builds the
        replacement copy-on-write and lands it through the table's
        generation-checked publish.  A stale action (the publish refused
        it) requeues the chunk for a fresh decision.
        """
        outcome = self.policy.decide_chunk(database, chunk_index)
        if not isinstance(outcome, ReorgAction):
            return
        if self.policy.apply_action(database, outcome) is None:
            with self._state:
                self.requeues += 1
            self._enqueue((chunk_index,))

    # ------------------------------------------------------------------ #
    # Background worker
    # ------------------------------------------------------------------ #

    def _worker(self) -> None:
        while True:
            with self._wake:
                while not self._pending and not self._stop:
                    self._wake.wait()
                if self._stop:
                    return
                self._busy = True
            try:
                # One budgeted slice per wake-up, shielded so a failing
                # chunk cannot kill the worker thread and silently stop
                # background reorganization for the rest of the session.
                # (``_database`` was bound before this thread was started.)
                self._drain_slice(self._database, shielded=True)
            finally:
                with self._wake:
                    self._busy = False
                    self._wake.notify_all()

    def _stop_worker(self) -> None:
        with self._state:
            thread = self._thread
            self._thread = None
        if thread is None:
            return
        with self._wake:
            self._stop = True
            self._wake.notify_all()
        # The join runs outside ``_state``: the worker's shielded drain
        # takes that lock for its failure bookkeeping, so holding it here
        # could deadlock the shutdown.
        thread.join(timeout=30.0)
