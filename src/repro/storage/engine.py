"""Casper storage engine facade (Section 6).

The engine wraps a :class:`~repro.storage.table.Table`, whose methods are
the standard storage-engine API of Section 6.4 -- full scan, point lookup,
range search (count / sum), insert, delete, update.  Every operation enters
one way, :meth:`StorageEngine.execute` (or :meth:`StorageEngine.execute_batch`
for many): a :mod:`repro.workload.operations` object states its table call
(``run``) and its log record (``attribution``), and the engine adds

* per-operation cost measurement (block-access accounting plus wall-clock)
  and per-kind dispatch counts (:class:`EngineStatistics`),
* snapshot-isolation transactions backed by
  :class:`~repro.storage.mvcc.TransactionManager`,
* an optional durability hook: with a
  :class:`~repro.durability.manager.DurabilityManager` attached, every
  write dispatch runs inside a *commit scope* -- the manager's
  ``wal_commit`` lock held across [table apply + WAL append] -- so the
  write-ahead log records exactly the deltas the in-memory state absorbed,
  in the order it absorbed them, before results are returned.  Read-only
  dispatches never touch the commit lock.

There is one scope (:meth:`StorageEngine._commit_scope`), re-entrant per
thread, and one per-call log (:class:`~repro.storage.access_log.CallLog`).
A batch, an MVCC transaction commit or a dispatch on its own opens the
scope; the dispatches run inside join it, and each records its
submitted keys once, as one record, when it returns.  When the outermost
scope closes, the write and marker records go to the WAL as one record --
for a transaction **one atomic record** (the body's atomic flag set), which
recovery and followers replay whole or not at all; aborted transactions log
nothing -- and the whole log goes to the workload monitor.  Every write
therefore reaches both consumers one way, whether it was called directly,
from a batch or from a transaction's buffered intents.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from itertools import groupby
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Iterator, Sequence

if TYPE_CHECKING:
    from ..core.monitor import WorkloadMonitor
    from ..durability.manager import DurabilityManager

import numpy as np

from repro import discipline
from repro.discipline import guarded_class

from .access_log import DELTA_KIND_CODES, CallLog
from .cost_accounting import (
    DEFAULT_COST_CONSTANTS,
    AccessCounter,
    CostConstants,
    SimulatedCost,
)
from .errors import ValueNotFoundError
from .mvcc import Transaction, TransactionManager
from .table import Table


@dataclass
class OperationResult(SimulatedCost):
    """Outcome of a single engine operation."""

    kind: str
    accesses: AccessCounter
    wall_ns: float
    result: Any = None


@dataclass
class BatchResult(SimulatedCost):
    """Outcome of a batched sequence of operations.

    ``results`` holds the per-operation result payloads in submission order
    (``None`` for operations that raised ``ValueNotFoundError``); ``accesses``
    is the aggregate simulated block-access tally of the whole batch.
    ``lsn`` is the WAL record the batch's writes committed under (``None``
    for read-only batches and engines without durability attached).
    """

    results: list[Any]
    accesses: AccessCounter
    wall_ns: float
    operations: int
    errors: int = 0
    lsn: int | None = None


@guarded_class
@dataclass
class EngineStatistics:
    """Per-kind dispatch counts (a call's cost is its caller's counter
    window, e.g. :meth:`repro.api.session.Session.execute`).  Each bump runs
    under a small mutex (order ``engine_stats``, GUARDED_BY mode ``write``),
    so concurrent sessions never lose an update."""

    operations: dict[str, int] = field(default_factory=dict)
    _lock: threading.Lock = field(
        default_factory=lambda: discipline.make_lock("engine_stats"),
        init=False,
        repr=False,
        compare=False,
    )

    def record(self, kind: str) -> None:
        """Count one dispatched operation of ``kind`` (thread-safe)."""
        with self._lock:
            self.operations[kind] = self.operations.get(kind, 0) + 1


def plan_batch(operations) -> list[tuple[tuple | None, list[int]]]:
    """The dispatch plan of :meth:`StorageEngine.execute_batch`: one
    ``(group_key, positions)`` entry per dispatched operation, in dispatch
    order; ``positions`` index into ``operations``, ascending.

    This is the one grouping definition: the batch executor and the shard
    router both dispatch it (through :func:`planned_operations`).

    Operations that commute group however they interleave.  A batch splits
    into maximal stretches of reads and of writes -- no write moves across
    a read -- and within a stretch every operation sharing a group key
    joins one group; groups dispatch in order of first appearance and keep
    submission order inside.  Reads always commute.  Writes commute when
    they name no common key, so a scalar write states its
    ``written_keys``: joining its kind's open group dispatches it ahead of
    exactly the groups opened after that one, and if one of those already
    named one of its keys the stretch ends there -- every group closes and
    the write opens a new one at its own place.  Same-kind writes never
    reorder, so each insert is handed the row id serial dispatch gives it,
    and a batch already sorted by kind never trips the check: it plans as
    its adjacent runs.  An operation whose key is ``None`` is a group of
    its own, at its own place; a ``Multi*`` write also ends the stretch.
    """
    plan: list[tuple[tuple | None, list[int]]] = []
    position = 0
    for writes, stretch in groupby(operations, key=attrgetter("writes")):
        # The open groups and their plan indexes, by group key; for a
        # write stretch, the latest-opened group that names each key.
        open_groups: dict[tuple, list[int]] = {}
        opened: dict[tuple, int] = {}
        named: dict[int, int] = {}
        for operation in stretch:
            key = operation.group_key
            group = open_groups.get(key)
            if writes and key is None:
                open_groups, named = {}, {}
            elif writes:
                index = len(plan) if group is None else opened[key]
                keys = operation.written_keys
                for written in keys:
                    if named.get(written, -1) > index:
                        # Joining would carry the write ahead of a group
                        # that names its key: the stretch ends here.
                        open_groups, named, group, index = {}, {}, None, len(plan)
                        break
                for written in keys:
                    named[written] = index
            if group is None:
                group = []
                if key is not None:
                    open_groups[key], opened[key] = group, len(plan)
                plan.append((key, group))
            group.append(position)
            position += 1
    return plan


def planned_operations(oplist) -> list[tuple[list[int], Any, bool]]:
    """:func:`plan_batch` of ``oplist`` as the operations that carry it out:
    one ``(positions, operation, grouped)`` entry per plan entry, in
    dispatch order.  A group of scalars is their one batched operation
    (``grouped``); any other entry is the submitted operation itself."""
    planned = []
    for group_key, positions in plan_batch(oplist):
        if group_key is None:
            (position,) = positions
            planned.append((positions, oplist[position], False))
        else:
            group = [oplist[position] for position in positions]
            planned.append((positions, type(group[0]).batched(group), True))
    return planned


def place_results(results, positions, operation, grouped, result) -> int:
    """Write one planned operation's ``result`` into its submission slots of
    ``results``; returns the errors serial dispatch would have counted.

    A grouped result splits back into its scalars' results
    (``scalar_results``); any other result is its operation's own."""
    if not grouped:
        (position,) = positions
        results[position] = result
        return 0
    split, errors = operation.scalar_results(result)
    for position, value in zip(positions, split, strict=True):
        results[position] = value
    return errors


class StorageEngine:
    """Drop-in scan/update storage engine over a partitioned table."""

    def __init__(
        self,
        table: Table,
        *,
        constants: CostConstants = DEFAULT_COST_CONSTANTS,
        monitor: "WorkloadMonitor | None" = None,
    ) -> None:
        self.table = table
        self.constants = constants
        self.statistics = EngineStatistics()
        self.transactions = TransactionManager()
        #: Optional :class:`repro.core.monitor.WorkloadMonitor` observing the
        #: per-chunk operation mix for online reorganization (Fig. 10 A->C).
        self.monitor = monitor
        # The open commit scope's call log, *per thread*: dispatches
        # append their records to the calling thread's log, so concurrent
        # sessions never interleave records in one shared log -- the
        # monitor merges their logs at flush time (``observe_batch``
        # serializes ingestion internally) and the commit lock orders
        # their WAL records.
        self._local = threading.local()
        #: Optional :class:`repro.durability.manager.DurabilityManager`;
        #: attach through :meth:`attach_durability`, not by assignment.
        self.durability: "DurabilityManager | None" = None

    def attach_durability(self, manager: "DurabilityManager") -> None:
        """Route every subsequent write dispatch through ``manager``.

        Attach before the engine is shared between threads: the reference
        itself is read unlocked on the dispatch path.
        """
        self.durability = manager

    @contextmanager
    def _commit_scope(
        self, *, atomic: bool = False, writes: bool = True
    ) -> Iterator[CallLog | None]:
        """The one per-call scope: the only code that opens a
        :class:`CallLog`, takes the commit lock, appends to the WAL, runs
        the fsync policy and hands records to the monitor.

        Re-entrant per thread: the outermost scope (a batch, a transaction
        commit -- ``atomic`` -- or a dispatch on its own) owns the call's
        log, and a dispatch inside an open scope joins it through the
        thread-local and records into the same log.  The outermost scope
        yields ``None`` when nobody will read the log: no monitor, and no
        durability manager or no ``writes`` (a read-only batch).

        With durability attached and ``writes`` set, the scope checks
        ``require_writable()`` and holds the commit lock across [applies +
        append], landing the log's write and marker records as **one WAL
        record**, if there are any, with its LSN left on ``log.lsn``.  The
        append sits in ``finally``: when the body dies part-way, the
        already-applied prefix must still reach the log, or every later
        record would replay onto diverged state.  (An append failure there
        masks the body's exception -- both are fatal to the scope, and the
        WAL error is the one recovery semantics depend on.)  After the lock
        is released the whole log goes to the monitor, on every exit; the
        fsync policy runs last, outside the lock so group commit can
        coalesce concurrent committers' fsyncs, and only when the body
        completed and a record was appended.
        """
        local = self._local
        log = getattr(local, "log", None)
        if log is not None or not self._log_is_read(writes):
            yield log
            return
        durability = self.durability if writes else None
        monitor = self.monitor
        if durability is not None:
            durability.require_writable()
        log = local.log = CallLog(atomic=atomic)
        completed = False
        try:
            with nullcontext() if durability is None else durability.commit_lock:
                try:
                    yield log
                finally:
                    if durability is not None and any(
                        record.kind in DELTA_KIND_CODES for record in log.records
                    ):
                        log.lsn = durability.append(log)
            completed = True
        finally:
            local.log = None
            if monitor is not None and log.records:
                monitor.observe_batch(self.table, log)
        if completed and log.lsn is not None:
            durability.sync_for_policy()

    def _log_is_read(self, writes: bool) -> bool:
        """Whether a scope's log has a reader: the monitor reads every log,
        the WAL the log of a scope that ``writes``."""
        return self.monitor is not None or (writes and self.durability is not None)

    @property
    def counter(self) -> AccessCounter:
        """The shared access counter of the underlying table."""
        return self.table.counter

    # ------------------------------------------------------------------ #
    # Measured operations
    # ------------------------------------------------------------------ #

    def _measure(self, kind: str, func, *args, **kwargs) -> OperationResult:
        before = self.counter.snapshot()
        start = time.perf_counter_ns()
        result = func(*args, **kwargs)
        wall = float(time.perf_counter_ns() - start)
        self.statistics.record(kind)
        return OperationResult(
            kind=kind, accesses=self.counter.diff(before), wall_ns=wall, result=result
        )

    def _delta_payload_rows(
        self, payloads: Sequence[Sequence[int]] | None, count: int
    ) -> np.ndarray:
        """Normalize insert payloads to the ``(count, width)`` row array the
        table stores (``None`` rows become the zero rows the table pads)."""
        width = len(self.table.payload_names)
        if payloads is None:
            return np.zeros((count, width), dtype=np.int64)
        return np.asarray(payloads, dtype=np.int64).reshape(count, width)

    def full_scan(self) -> OperationResult:
        """Scan the entire key column."""
        return self._measure("scan", self.table.scan)

    # ------------------------------------------------------------------ #
    # Transactions
    # ------------------------------------------------------------------ #

    def begin_transaction(self) -> Transaction:
        """Start a snapshot-isolated transaction."""
        return self.transactions.begin()

    def transactional_insert(
        self, txn: Transaction, key: int, payload: Sequence[int] | None = None
    ) -> None:
        """Buffer an insert inside ``txn``; applied at commit."""
        from ..workload.operations import Insert

        txn.record_write(
            key, lambda: self.execute(Insert(key, payload)), f"insert {key}"
        )

    def transactional_delete(self, txn: Transaction, key: int) -> None:
        """Buffer a delete inside ``txn``; applied at commit."""
        from ..workload.operations import Delete

        txn.record_write(key, lambda: self.execute(Delete(key)), f"delete {key}")

    def transactional_update(
        self, txn: Transaction, old_key: int, new_key: int
    ) -> None:
        """Buffer a key update inside ``txn``; applied at commit."""
        from ..workload.operations import Update

        txn.record_write(
            old_key,
            lambda: self.execute(Update(old_key, new_key)),
            f"update {old_key}->{new_key}",
        )
        txn.record_write(new_key, lambda: None, "update target reservation")

    def commit(self, txn: Transaction) -> int:
        """Commit ``txn`` (first committer wins).

        The buffered intents apply through :meth:`execute` (so the monitor
        and the statistics see them like any other write) inside one
        atomic commit scope: with durability attached, the
        commit lock is held across [conflict check + intent applies + WAL
        append] and the write set lands as **one atomic WAL record**
        (``CallLog(atomic=True)``) before the commit timestamp is
        returned -- so recovery and followers replay the transaction whole
        or not at all.  A conflict abort raises before any intent applies
        and logs nothing; an intent that dies part-way leaves the applied
        prefix in the log (:meth:`_commit_scope`).
        """
        if not txn.write_intents:
            # Read-only: no commit lock, and no ``require_writable()`` --
            # it commits on a database in read-only degradation too.
            return self.transactions.commit(txn)
        with self._commit_scope(atomic=True):
            return self.transactions.commit(txn)

    def abort(self, txn: Transaction) -> None:
        """Roll back ``txn``."""
        self.transactions.abort(txn)

    # ------------------------------------------------------------------ #
    # Cross-shard move protocol (two-phase: intent / commit / forget)
    # ------------------------------------------------------------------ #
    #
    # Each phase takes the moves one dispatcher wave routed to this shard
    # (a single move is a list of one) and logs them as ONE WAL record of
    # per-move markers, so a crash leaves every move of the phase logged
    # or none of them.

    def take_for_moves(self, moves: np.ndarray) -> OperationResult:
        """The take phase: delete one row per ``(move_id, old_key,
        new_key)`` row of ``moves`` and log ``[move_intent..., delete]``
        as one WAL record.

        Each intent carries its victim's payload and the target key, so a
        dispatcher that finds it unresolved after a crash can re-drive
        the insert half without the source row.  The operation result is
        ``(found, payload_rows)``: a boolean hit mask aligned with
        ``moves`` and the payload rows of the hits, in order.  Absent
        keys are misses: no marker, but the delete run holds every
        submitted key, hits and misses, as a ``MultiDelete`` records
        it (a miss replays as a no-op), so a phase of misses appends a
        record too.  Victims are taken in list order, each the oldest
        copy of its key (exactly a plain delete's victim).
        """
        moves = np.asarray(moves, dtype=np.int64).reshape(-1, 3)
        keys = moves[:, 1]

        def take_rows() -> tuple[np.ndarray, np.ndarray]:
            found = np.zeros(keys.size, dtype=bool)
            rows = []
            for position, key in enumerate(keys.tolist()):
                try:
                    rows.append(self.table.take_row(key)[1])
                except ValueNotFoundError:
                    continue
                found[position] = True
            width = len(self.table.payload_names)
            taken = np.asarray(rows, dtype=np.int64).reshape(len(rows), width)
            return found, taken

        with self._commit_scope() as log:
            outcome = self._measure("multi_take", take_rows)
            if log is not None:
                found, rows = outcome.result
                for (move_id, old_key, new_key), row in zip(
                    moves[found].tolist(), rows, strict=True
                ):
                    log.record_move_intent(move_id, old_key, new_key, row)
                log.record("delete", keys)
        return outcome

    def apply_move_puts(
        self, moves: np.ndarray, payloads: np.ndarray | None
    ) -> OperationResult:
        """The put phase: insert the carried row of every ``(move_id,
        new_key)`` row of ``moves`` and log ``[move_commit..., insert]``
        as one WAL record.

        The commit markers are what the dispatcher's move-resolution scan
        consults to decide whether an unresolved source intent needs its
        insert re-driven or only a forget.
        """
        moves = np.asarray(moves, dtype=np.int64).reshape(-1, 2)
        keys = moves[:, 1]
        rows = self._delta_payload_rows(payloads, keys.size)
        with self._commit_scope() as log:
            outcome = self._measure(
                "multi_insert", self.table.bulk_insert, keys, rows
            )
            if log is not None:
                for move_id in moves[:, 0].tolist():
                    log.record("move_commit", (move_id,))
                log.record("insert", keys, payloads=rows)
        return outcome

    def log_move_forgets(self, move_ids: Sequence[int]) -> None:
        """The forget phase: log ``[move_forget...]`` for the resolved
        moves as one WAL record.

        Pure WAL bookkeeping -- no table mutation, no-op without
        durability attached.
        """
        with self._commit_scope() as log:
            if log is not None:
                for move_id in move_ids:
                    log.record("move_forget", (int(move_id),))

    # ------------------------------------------------------------------ #
    # Workload dispatch
    # ------------------------------------------------------------------ #

    def execute(self, operation) -> OperationResult:
        """Execute a :mod:`repro.workload.operations` object: measure
        ``operation.run(table)`` and record ``operation.attribution()`` into
        the call's log once it returns, with the inserted payload rows when
        a durability manager will encode them.

        The result kind is the operation's own (``multi_point_query``, ...)
        for a batched kind and its record kind (``point_query``,
        ``range_count``, ``range_sum``, ...) for a scalar one.  A dispatch
        outside any scope opens one when its log has a reader.  A miss
        (:class:`ValueNotFoundError`) mutates nothing and replays as a
        no-op: it is recorded like a hit and re-raised after the scope
        closes, so the scope still appends and syncs.  Any other error
        records nothing.
        """
        if not hasattr(operation, "run"):
            raise TypeError(f"unsupported operation type: {type(operation)!r}")
        log = getattr(self._local, "log", None)
        if log is None and self._log_is_read(operation.writes):
            with self._commit_scope(writes=operation.writes):
                try:
                    return self.execute(operation)
                except ValueNotFoundError as error:
                    missed = error
            raise missed
        record, keys, highs = operation.attribution()
        name = operation.kind.value
        kind = name if name.startswith("multi_") else record
        if log is None:
            return self._measure(kind, operation.run, self.table)
        payloads = None
        if record == "insert" and self.durability is not None:
            operation, payloads = operation.with_payload_rows(self._delta_payload_rows)
            keys = operation.attribution()[1]
        try:
            outcome = self._measure(kind, operation.run, self.table)
        except ValueNotFoundError:
            log.record(record, keys, highs, payloads)
            raise
        log.record(record, keys, highs, payloads)
        return outcome

    def execute_batch(self, operations) -> BatchResult:
        """Execute a sequence of operations on the vectorized batch fast path.

        Operations group by commutation, not adjacency (:func:`plan_batch`
        is the rule).  Reads between two writes commute with one another,
        so within every maximal write-free stretch all point queries with
        identical column lists resolve through one ``MultiPointQuery`` and
        all counting range queries through one ``MultiRangeCount``, however
        they were interleaved.  Writes on distinct keys commute too: within
        every maximal read-free stretch all inserts resolve through one
        ``MultiInsert``, all deletes through one ``MultiDelete`` and all
        key updates through one ``MultiUpdate``, however they were
        interleaved.  No write moves across a read, same-kind writes
        keep their submission order -- so every insert returns the row id
        serial dispatch hands out and grouped updates apply their pairs in
        order -- and a cross-kind reuse of a written key ends the stretch:
        a write one of whose keys was already named by a group opened
        after its own kind's closes every group and opens a new one at its
        own place.  A batch already sorted by kind plans as its adjacent
        runs.
        Every other operation (SUM ranges, the ``Multi*`` kinds) is
        dispatched individually, at its own place.  Hits, misses and the
        victim of a delete or update depend only on the history of their
        own key, which no regrouping reorders, so results equal
        per-operation dispatch; what differs is the physical slot order
        inside a partition.  Grouped reads and grouped updates charge
        simulated accesses identical to per-operation dispatch of the
        group; grouped inserts and deletes are applied in
        ascending key order within their group and charge at most that
        ordering's per-operation accesses (coalesced ripple sweeps charge
        each touched block once per group).  The charge reference is
        therefore the ascending replay of each group, groups in
        first-appearance order -- not submission order.
        Victim *identity* is reorder-proof -- every delete removes the
        oldest surviving copy of its key (the rule
        :meth:`PartitionedColumn._oldest_first` pins), a choice
        neighbouring deletes of other keys cannot perturb, and same-key
        deletes keep their relative order under the stable sort -- but a
        group that mixes hits and *misses* in one partition can charge
        differently (a reordered miss is scanned at the partition size
        the replay sees, which can cross a block boundary submission
        order would not).  Delta-store chunks add one
        more caveat: a batch that crosses the merge threshold mid-group pays
        one larger deferred merge instead of sequential's earlier smaller
        one, which can exceed the sequential charge (see
        :meth:`DeltaStoreColumn.bulk_insert`).
        Results are returned in submission order (``None`` for operations
        that raised ``ValueNotFoundError`` and for deletes of missing keys).
        Statistics count every dispatched operation -- groups under the
        ``multi_*`` kinds, the rest under their own kind.

        The batch runs inside one commit scope (:meth:`_commit_scope`) and
        each dispatched group appends one record, its submitted keys, to
        the scope's :class:`CallLog` once it returns -- misses included,
        a group that raises anything else records nothing.  With a monitor
        attached the whole log is ingested once per batch
        (:meth:`WorkloadMonitor.observe_batch`) instead of one monitor call
        per operation, after the commit lock is released.  Attribution
        routes by the chunk fences, which no batched write moves, so the
        deferred flush attributes exactly what per-operation observation
        would; each record carries its operations' submission positions,
        so the monitor's bounded samples keep submission order although
        groups dispatch out of it.

        With durability attached, a batch containing any write holds the
        manager's commit lock across the whole dispatch and appends the
        log's write records as **one WAL record** before results are
        returned (group-commit fsync per the configured policy, outside
        the lock); ``wall_ns`` includes the append and the fsync.  The
        append happens even when a dispatch raises mid-batch -- records
        are appended per *applied* group, in dispatch order, so the log
        matches whatever groups the in-memory state absorbed and replays
        them in the order it absorbed them.  Read-only batches skip the
        lock entirely; durable write batches from concurrent sessions
        serialize against each other (and against checkpoints), which is
        the price of a single gap-free log (per-shard logs are the
        scale-out path, see ROADMAP).
        """
        oplist = list(operations)
        before = self.counter.snapshot()
        start = time.perf_counter_ns()
        with self._commit_scope(writes=any(op.writes for op in oplist)) as log:
            results, errors = self._dispatch_batch(oplist)
        return BatchResult(
            results=results,
            accesses=self.counter.diff(before),
            wall_ns=float(time.perf_counter_ns() - start),
            operations=len(oplist),
            errors=errors,
            lsn=None if log is None else log.lsn,
        )

    def _dispatch_batch(self, oplist) -> tuple[list[Any], int]:
        """Dispatch :func:`planned_operations` of ``oplist``; every result
        lands in its operation's submission slot (:func:`place_results`).
        Returns the results and the error count."""
        results: list[Any] = [None] * len(oplist)
        errors = 0
        log = getattr(self._local, "log", None)
        for positions, operation, grouped in planned_operations(oplist):
            if log is not None:
                # Groups dispatch out of submission order; the monitor
                # puts its samples back in it.
                log.positions = positions
            try:
                result = self.execute(operation).result
            except ValueNotFoundError:
                errors += 1
                continue
            errors += place_results(results, positions, operation, grouped, result)
        return results, errors

    def values(self) -> np.ndarray:
        """All live key values (for validation)."""
        return self.table.keys()
