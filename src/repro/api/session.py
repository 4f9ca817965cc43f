"""Context-managed sessions: declarative execution with a reorg lifecycle.

A :class:`Session` is the unit of interaction with a :class:`Database`: it
holds an :class:`~repro.api.policies.ExecutionPolicy` (how operations are
dispatched) and optionally a reorganization lifecycle, and its
:meth:`execute` replaces direct ``StorageEngine.execute`` /
``execute_batch`` calls.  It is the one place a single-process call is
measured: one clock and one access-counter window span the dispatch and
the reorganization it triggers.  After every execute call the
reorganization lifecycle gets a chance to act, which makes the paper's
Fig. 10 A->C online loop automatic: drifted chunks are detected,
cost-gated and rebuilt between (or inside) rounds without the caller
wiring monitor, planner and table together by hand.

The lifecycle has one driver, the
:class:`~repro.api.reorganizer.Reorganizer`: it scans for drifted chunks
after every execute call and drains the replans they need -- all of them
at once (``chunk_budget=None``), in budgeted slices between execute calls,
or on a background worker thread, so no single batch need absorb the whole
reorganization stall.  A bare :class:`~repro.api.reorg.ReorgPolicy` passed
as ``reorg=`` is shorthand for ``Reorganizer(policy, chunk_budget=None)``.

A database may hand out several live sessions at once (one per thread);
their executions interleave freely.  Isolation is chunk-granular -- the
table's latches share chunks between readers, serialize writers per chunk
and let background replans land copy-on-write with an O(1) publish -- so
concurrent reads proceed *during* background reorganization rather than
stalling behind a session-wide lock.  Note that the engine's access
counter is shared *and* lock-free: a session's ``accesses``/simulated
totals attribute everything charged on the engine while its calls ran --
including work concurrent sessions interleaved -- and racing increments
can drop a small fraction of charges, so per-session simulated costs are
exact only when the session has the database to itself (wall-clock
numbers and result correctness are always exact; see
:class:`~repro.storage.cost_accounting.AccessCounter`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from ..durability.errors import ReadOnlyError
from ..storage.cost_accounting import AccessCounter, SimulatedCost
from ..workload.operations import Operation, Workload, is_write
from .policies import ExecutionPolicy, SerialPolicy
from .reorg import ReorgDecision, ReorgPolicy
from .reorganizer import Reorganizer

if TYPE_CHECKING:
    from .database import Database


@dataclass
class SessionResult(SimulatedCost):
    """Outcome of one :meth:`Session.execute` call.

    ``accesses`` aggregates the whole call, *including* any reorganization
    work it triggered; ``reorg_ns`` isolates the simulated cost of that
    reorganization, the tail of the same counter window (0.0 when nothing
    was rebuilt).  ``batch_sizes`` are the slices this call's policy
    dispatched (empty for serial dispatch).

    With durability attached, ``commit_lsn`` is the LSN of the one WAL
    record this call committed -- every write it made, whatever its policy
    dispatched -- (``None`` on memory-only databases and pure-read calls
    that left the log untouched) and ``durable`` reports whether that
    record was fsync-covered when the call returned -- always true under
    the ``"always"`` fsync policy; under ``"interval"`` / ``"os"`` a false
    means the commit is logged but would not survive a power failure yet
    (:meth:`Session.sync` forces it).

    On a sharded database the single ``commit_lsn`` stays ``None``
    (per-shard WAL watermarks are incomparable) and ``shard_lsns``
    carries the per-shard vector instead: shard -> last commit LSN that
    shard acknowledged for this call (``None`` on single-process
    databases and calls that committed no write on a durable shard).
    """

    results: list
    accesses: AccessCounter
    wall_ns: float
    operations: int
    errors: int
    batch_sizes: list[int] = field(default_factory=list)
    reorg_decisions: list[ReorgDecision] = field(default_factory=list)
    reorg_ns: float = 0.0
    commit_lsn: int | None = None
    durable: bool = True
    shard_lsns: dict[int, int] | None = None


@dataclass
class SessionReport(SimulatedCost):
    """Cumulative account of a session's lifetime."""

    operations: int
    errors: int
    accesses: AccessCounter
    wall_ns: float
    simulated_ns_total: float
    replans: int
    reorg_decisions: list[ReorgDecision] = field(default_factory=list)
    batch_sizes: list[int] = field(default_factory=list)

    @property
    def simulated_seconds(self) -> float:
        """Total simulated time in seconds (including reorganization)."""
        return self.simulated_ns_total * 1e-9

    @property
    def wall_seconds(self) -> float:
        """Total wall-clock time spent inside ``execute`` calls."""
        return self.wall_ns * 1e-9

    @property
    def throughput_ops(self) -> float:
        """Operations per second of simulated time."""
        if self.simulated_seconds <= 0:
            return float("inf")
        return self.operations / self.simulated_seconds


class Session:
    """A context-managed execution scope over a :class:`Database`.

    Parameters
    ----------
    database:
        The database façade the session executes against.
    execution:
        The dispatch policy; defaults to :class:`SerialPolicy`.  Policies
        are stateless values: one instance may serve many sessions.
    reorg:
        Optional reorganization lifecycle: a :class:`Reorganizer` drains
        the replans of drifted chunks in budgeted increments between
        execute calls or on a background worker; a bare
        :class:`ReorgPolicy` is wrapped as ``Reorganizer(policy,
        chunk_budget=None)``, which replans every drifted chunk inside the
        execute call that trips the check.  ``None`` disables online
        replans.

    Use as a context manager::

        with db.session(execution=VectorizedPolicy(), reorg=ReorgPolicy()) as s:
            outcome = s.execute(workload)
        report = s.report()
    """

    def __init__(
        self,
        database: "Database",
        *,
        execution: ExecutionPolicy | None = None,
        reorg: ReorgPolicy | Reorganizer | None = None,
    ) -> None:
        self.database = database
        self.execution: ExecutionPolicy = execution or SerialPolicy()
        if isinstance(reorg, ReorgPolicy):
            reorg = Reorganizer(reorg, chunk_budget=None)
        self.reorg: Reorganizer | None = reorg
        if reorg is not None:
            # Register against the reorganizer's lifetime: its background
            # worker and work queue survive until the last session of the
            # shared database closes.
            reorg.register_session(database)
        self._closed = False
        self._counter_start = database.engine.counter.snapshot()
        self._operations = 0
        self._errors = 0
        self._wall_ns = 0.0
        self._batch_sizes: list[int] = []
        self._reorg_decisions: list[ReorgDecision] = []

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # On an exceptional exit, skip the close-time reorganization check:
        # it would solve layouts and rebuild chunks against state from a
        # partially-failed call, and a failure inside it would mask the
        # original exception.
        self.close(reorganize=exc_type is None)

    @property
    def closed(self) -> bool:
        """Whether the session has been closed."""
        return self._closed

    def _require_open(self) -> None:
        if self._closed:
            raise RuntimeError("session is closed")

    def close(self, *, reorganize: bool = True) -> None:
        """Close the session (idempotent).

        A final reorganization scan runs before closing, so drift
        accumulated by the last ``execute`` calls of a short session still
        gets a chance to trigger a replan for the *next* session.  The
        close of the reorganizer's *last* registered session also drains
        the pending work queue to empty and stops the background worker
        (earlier closers leave both running for the sessions that remain).
        Pass ``reorganize=False`` to skip the final scan (the context
        manager does so on exceptional exits); the last session's close
        then stops the worker and clears the queue instead.
        """
        if self._closed:
            return
        if self.reorg is not None:
            self._reorg_decisions.extend(
                self.reorg.finish(self.database, reorganize=reorganize)
            )
        self._closed = True

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def execute(
        self, operations: Workload | Sequence[Operation] | Operation
    ) -> SessionResult:
        """Execute operations through the session's policies.

        Accepts a :class:`Workload`, any operation sequence, or a single
        operation.  Results come back in submission order with ``None``
        marking not-found operations, exactly as serial dispatch reports
        them.  The call is one commit: the policy dispatches inside one
        engine commit scope
        (:meth:`~repro.storage.engine.StorageEngine.commit_scope`), so a
        durable call holds the commit lock across its whole dispatch,
        appends one WAL record (``commit_lsn``), runs the fsync policy once
        and flushes one log to the monitor -- and a crash recovers all of
        its writes or none.  After the scope closes the reorganizer (when
        configured) scans for drift and may replace chunks copy-on-write.
        A closed session raises :class:`RuntimeError` and a non-operation
        :class:`TypeError`, both before anything dispatches, under every
        policy.
        """
        oplist = self._admit(operations)
        engine = self.database.engine
        writes = any(op.writes for op in oplist)
        before = engine.counter.snapshot()
        start = time.perf_counter_ns()
        # One commit per call: every operation or slice the policy
        # dispatches joins this scope's log, so a durable call appends one
        # WAL record and runs the fsync policy once.  No session-wide lock
        # beyond it: the table's chunk latches isolate this call's reads
        # and writes from concurrent sessions and from background replans,
        # whose copy-on-write publishes may land between (or during) the
        # batch slices a policy carves out of the oplist -- pausing only
        # readers of the one chunk being swapped, and only for the O(1)
        # publish.
        with engine.commit_scope(writes=writes) as log:
            results, errors, batch_sizes = self.execution.execute(engine, oplist)
        accesses = dispatched = engine.counter.diff(before)
        decisions: list[ReorgDecision] = []
        if self.reorg is not None:
            decisions = self.reorg.after_execute(self.database)
            accesses = engine.counter.diff(before)
        wall_ns = float(time.perf_counter_ns() - start)
        self._operations += len(oplist)
        self._errors += errors
        self._wall_ns += wall_ns
        self._batch_sizes.extend(batch_sizes)
        self._reorg_decisions.extend(decisions)
        # The call's own WAL record; a call that appended none (no write,
        # or no durability manager) reports none.
        commit_lsn = None if log is None else log.lsn
        durable = True
        if commit_lsn is not None:
            durable = self.database.durability.durable_lsn >= commit_lsn
        return SessionResult(
            results=results,
            accesses=accesses,
            wall_ns=wall_ns,
            operations=len(oplist),
            errors=errors,
            batch_sizes=batch_sizes,
            reorg_decisions=decisions,
            # The tail of the call's window: what the reorganizer charged.
            reorg_ns=accesses.diff(dispatched).cost(self.database.constants),
            commit_lsn=commit_lsn,
            durable=durable,
        )

    def _admit(
        self, operations: Workload | Sequence[Operation] | Operation
    ) -> list[Operation]:
        """The call's operations as a list, once the session is known to be
        open and every entry to be an operation."""
        self._require_open()
        if isinstance(operations, Operation):
            return [operations]
        oplist = list(operations)
        for operation in oplist:
            if not isinstance(operation, Operation):
                raise TypeError(f"unsupported operation type: {type(operation)!r}")
        return oplist

    def sync(self) -> int:
        """Force the database's WAL to disk; returns the durable LSN.

        The commit-acknowledgement escape hatch for the relaxed fsync
        policies: after ``sync()`` every ``commit_lsn`` this session was
        handed is power-failure durable.
        """
        self._require_open()
        manager = self.database.durability
        if manager is None:
            raise RuntimeError("no durability manager attached")
        return manager.sync()

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #

    @property
    def reorg_decisions(self) -> list[ReorgDecision]:
        """All reorganization decisions made during this session."""
        return list(self._reorg_decisions)

    def report(self) -> SessionReport:
        """Cumulative session account (valid during and after the session).

        ``accesses`` and the simulated total are measured as the engine
        counter movement since the session opened, so they include
        reorganization charges and any compatibility-layer calls made on the
        same engine while the session was active.
        """
        accesses = self.database.engine.counter.diff(self._counter_start)
        replans = sum(
            1 for decision in self._reorg_decisions if decision.replanned
        )
        return SessionReport(
            operations=self._operations,
            errors=self._errors,
            accesses=accesses,
            wall_ns=self._wall_ns,
            simulated_ns_total=accesses.cost(self.database.constants),
            replans=replans,
            reorg_decisions=list(self._reorg_decisions),
            batch_sizes=list(self._batch_sizes),
        )


class FollowerSession(Session):
    """A read-only session pinned to a follower's replica table.

    Handed out by :meth:`Database.session` on a database built with
    :meth:`Database.follow`.  Executes exactly like a :class:`Session`
    except that write operations are refused up front
    (:class:`~repro.durability.errors.ReadOnlyError` -- the replica's only
    writer is the replication applier) and reorganization is disabled (a
    replan would race the applier's bulk writes for no benefit: the
    replica exists to serve reads, and its layout follows its snapshot).

    Bounded-lag introspection rides along: :attr:`lag_lsn` /
    :attr:`caught_up` report the replica's distance from the last
    exchanged durable watermark, and :meth:`refresh` synchronously
    applies whatever became durable since the last poll -- read-your-
    writes for callers that just committed on the primary and can ask
    the follower to catch up before querying.
    """

    def __init__(self, database: "Database", *, execution=None) -> None:
        super().__init__(database, execution=execution, reorg=None)

    def _admit(
        self, operations: Workload | Sequence[Operation] | Operation
    ) -> list[Operation]:
        oplist = super()._admit(operations)
        for operation in oplist:
            if is_write(operation):
                raise ReadOnlyError(
                    f"follower sessions are read-only: refusing "
                    f"{operation.kind.name} on the replica (writes go to "
                    "the primary; the replication applier is the replica's "
                    "only writer)"
                )
        return oplist

    @property
    def follower(self):
        """The :class:`~repro.replication.follower.Follower` backing
        this session's database."""
        return self.database.follower

    @property
    def applied_lsn(self) -> int:
        """LSN of the last commit visible to this session's reads."""
        return self.database.follower.applied_lsn

    @property
    def lag_lsn(self) -> int:
        """Commits the replica trails its known durable target by."""
        return self.database.follower.lag_lsn

    @property
    def caught_up(self) -> bool:
        """Whether the replica has applied everything it may apply."""
        return self.database.follower.caught_up

    def refresh(self) -> int:
        """Synchronously apply newly durable records; returns the number
        of batches applied.  Serializes with the background tailer on
        the ``replica_apply`` lock."""
        self._require_open()
        return self.database.follower.poll()
