"""Casper storage engine facade (Section 6).

The engine wraps a :class:`~repro.storage.table.Table`, whose methods are
the standard storage-engine API of Section 6.4 -- full scan, point lookup,
range search (count / sum), insert, delete, update.  Every operation enters
one way, :meth:`StorageEngine.execute` (or :meth:`StorageEngine.execute_batch`
for many): a :mod:`repro.workload.operations` object states its table call
(``run``) and its log record (``attribution``), and the engine adds

* per-kind dispatch counts (:class:`EngineStatistics`),
* snapshot-isolation transactions backed by
  :class:`~repro.storage.mvcc.TransactionManager`,
* an optional durability hook: with a
  :class:`~repro.durability.manager.DurabilityManager` attached, every
  write dispatch runs inside a *commit scope* -- the manager's
  ``wal_commit`` lock held across [table apply + WAL append] -- so the
  write-ahead log records exactly the deltas the in-memory state absorbed,
  in the order it absorbed them, before results are returned.  Read-only
  dispatches never touch the commit lock.

There is one scope (:meth:`StorageEngine.commit_scope`), re-entrant per
thread, and one per-call log (:class:`~repro.storage.access_log.CallLog`).
A session call (:meth:`repro.api.session.Session.execute`, around every
operation and slice its policy dispatches), an MVCC transaction commit, or
a batch or dispatch called outside any scope opens it; the dispatches run
inside join it, and each records its submitted keys once, as one record,
when it returns.  When the outermost scope closes, the write and marker
records go to the WAL as one record -- for a transaction **one atomic
record** (the body's atomic flag set), which recovery and followers replay
whole or not at all; aborted transactions log nothing -- and the whole log
goes to the workload monitor.  Every write therefore reaches both consumers
one way, whether it was called directly, from a session call or from a
transaction's buffered intents.

The engine measures nothing: :meth:`StorageEngine.execute` returns the
operation's own result and :meth:`StorageEngine.execute_batch` the results
and the miss count.  A call's cost is the access-counter window its caller
takes around it -- :meth:`repro.api.session.Session.execute` for every
single-process call, the shard worker for the move phases.
"""

from __future__ import annotations

import threading
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
from .cost_accounting import AccessCounter
from .errors import ValueNotFoundError
from .mvcc import Transaction, TransactionManager
from .table import Table


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
        monitor: "WorkloadMonitor | None" = None,
    ) -> None:
        self.table = table
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
    def commit_scope(
        self, *, atomic: bool = False, writes: bool = True
    ) -> Iterator[CallLog | None]:
        """The one per-call scope: the only code that opens a
        :class:`CallLog`, takes the commit lock, appends to the WAL, runs
        the fsync policy and hands records to the monitor.

        Re-entrant per thread: the outermost scope (a session call, a
        transaction commit -- ``atomic`` -- or a batch or dispatch called
        on its own) owns the call's log, and a dispatch inside an open
        scope joins it through the thread-local and records into the same
        log.  The outermost scope yields ``None`` when nobody will read the
        log: no monitor, and no durability manager or no ``writes`` (a
        read-only call).

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

    def _delta_payload_rows(
        self, payloads: Sequence[Sequence[int]] | None, count: int
    ) -> np.ndarray:
        """Normalize insert payloads to the ``(count, width)`` row array the
        table stores (``None`` rows become the zero rows the table pads)."""
        width = len(self.table.payload_names)
        if payloads is None:
            return np.zeros((count, width), dtype=np.int64)
        return np.asarray(payloads, dtype=np.int64).reshape(count, width)

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
        prefix in the log (:meth:`commit_scope`).
        """
        if not txn.write_intents:
            # Read-only: no commit lock, and no ``require_writable()`` --
            # it commits on a database in read-only degradation too.
            return self.transactions.commit(txn)
        with self.commit_scope(atomic=True):
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

    def take_for_moves(self, moves: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The take phase: delete one row per ``(move_id, old_key,
        new_key)`` row of ``moves`` and log ``[move_intent..., delete]``
        as one WAL record.

        Each intent carries its victim's payload and the target key, so a
        dispatcher that finds it unresolved after a crash can re-drive
        the insert half without the source row.  Returns ``(found,
        rows)``: a boolean hit mask aligned with ``moves`` and the payload
        rows of the hits, in order.  Absent keys are misses: no marker,
        but the delete run holds every submitted key, hits and misses, as
        a ``MultiDelete`` records it (a miss replays as a no-op), so a
        phase of misses appends a record too.  Victims are taken in list
        order, each the oldest copy of its key (exactly a plain delete's
        victim).
        """
        moves = np.asarray(moves, dtype=np.int64).reshape(-1, 3)
        keys = moves[:, 1]
        width = len(self.table.payload_names)
        with self.commit_scope() as log:
            found = np.zeros(keys.size, dtype=bool)
            taken = []
            for position, key in enumerate(keys.tolist()):
                try:
                    taken.append(self.table.take_row(key)[1])
                except ValueNotFoundError:
                    continue
                found[position] = True
            rows = np.asarray(taken, dtype=np.int64).reshape(len(taken), width)
            self.statistics.record("multi_take")
            if log is not None:
                for (move_id, old_key, new_key), row in zip(
                    moves[found].tolist(), rows, strict=True
                ):
                    log.record_move_intent(move_id, old_key, new_key, row)
                log.record("delete", keys)
        return found, rows

    def apply_move_puts(
        self, moves: np.ndarray, payloads: np.ndarray | None
    ) -> np.ndarray:
        """The put phase: insert the carried row of every ``(move_id,
        new_key)`` row of ``moves`` and log ``[move_commit..., insert]``
        as one WAL record; returns the inserted row ids.

        The commit markers are what the dispatcher's move-resolution scan
        consults to decide whether an unresolved source intent needs its
        insert re-driven or only a forget.
        """
        moves = np.asarray(moves, dtype=np.int64).reshape(-1, 2)
        keys = moves[:, 1]
        rows = self._delta_payload_rows(payloads, keys.size)
        with self.commit_scope() as log:
            rowids = self.table.bulk_insert(keys, rows)
            self.statistics.record("multi_insert")
            if log is not None:
                for move_id in moves[:, 0].tolist():
                    log.record("move_commit", (move_id,))
                log.record("insert", keys, payloads=rows)
        return rowids

    def log_move_forgets(self, move_ids: Sequence[int]) -> None:
        """The forget phase: log ``[move_forget...]`` for the resolved
        moves as one WAL record.

        Pure WAL bookkeeping -- no table mutation, no-op without
        durability attached.
        """
        with self.commit_scope() as log:
            if log is not None:
                for move_id in move_ids:
                    log.record("move_forget", (int(move_id),))

    # ------------------------------------------------------------------ #
    # Workload dispatch
    # ------------------------------------------------------------------ #

    def execute(self, operation) -> Any:
        """Execute a :mod:`repro.workload.operations` object: run
        ``operation.run(table)``, return its result and record
        ``operation.attribution()`` into the call's log once it returns,
        with the inserted payload rows when a durability manager will
        encode them.

        :attr:`statistics` counts the dispatch under the operation's own
        kind (``multi_point_query``, ...) for a batched kind and under its
        record kind (``point_query``, ``range_count``, ``range_sum``, ...)
        for a scalar one.  A dispatch outside any scope opens one when its
        log has a reader.  A miss (:class:`ValueNotFoundError`) mutates
        nothing and replays as a no-op: it is recorded like a hit, not
        counted, and re-raised after the scope closes, so the scope still
        appends and syncs.  Any other error records nothing.
        """
        if not hasattr(operation, "run"):
            raise TypeError(f"unsupported operation type: {type(operation)!r}")
        log = getattr(self._local, "log", None)
        if log is None and self._log_is_read(operation.writes):
            with self.commit_scope(writes=operation.writes):
                try:
                    return self.execute(operation)
                except ValueNotFoundError as error:
                    missed = error
            raise missed
        record, keys, highs = operation.attribution()
        name = operation.kind.value
        kind = name if name.startswith("multi_") else record
        if log is None:
            result = operation.run(self.table)
            self.statistics.record(kind)
            return result
        payloads = None
        if record == "insert" and self.durability is not None:
            operation, payloads = operation.with_payload_rows(self._delta_payload_rows)
            keys = operation.attribution()[1]
        try:
            result = operation.run(self.table)
        except ValueNotFoundError:
            log.record(record, keys, highs, payloads)
            raise
        self.statistics.record(kind)
        log.record(record, keys, highs, payloads)
        return result

    def execute_batch(self, operations) -> tuple[list[Any], int]:
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
        Returns ``(results, errors)``: the results in submission order
        (``None`` for operations that raised ``ValueNotFoundError`` and for
        deletes of missing keys) and the misses serial dispatch would have
        counted.  Statistics count every dispatched operation -- groups under the
        ``multi_*`` kinds, the rest under their own kind.

        The batch joins the open commit scope (:meth:`commit_scope`) --
        a session call's -- or opens its own when called outside one, and
        each dispatched group appends one record, its submitted keys, to
        the scope's :class:`CallLog` once it returns -- misses included,
        a group that raises anything else records nothing.  With a monitor
        attached the whole log is ingested once per scope
        (:meth:`WorkloadMonitor.observe_batch`) instead of one monitor call
        per operation, after the commit lock is released.  Attribution
        routes by the chunk fences, which no batched write moves, so the
        deferred flush attributes exactly what per-operation observation
        would; each record carries its operations' submission positions,
        offset by the operations earlier batches of the same log
        submitted, so the monitor's bounded samples keep submission order
        although groups dispatch out of it.

        With durability attached, a scope containing any write holds the
        manager's commit lock across the whole dispatch and appends the
        log's write records as **one WAL record** when it closes
        (group-commit fsync per the configured policy, outside the lock).
        The append happens even when a dispatch raises mid-batch -- records
        are appended per *applied* group, in dispatch order, so the log
        matches whatever groups the in-memory state absorbed and replays
        them in the order it absorbed them.  Read-only batches skip the
        lock entirely; durable write batches from concurrent sessions
        serialize against each other (and against checkpoints), which is
        the price of a single gap-free log (per-shard logs are the
        scale-out path, see ROADMAP).
        """
        oplist = list(operations)
        log = getattr(self._local, "log", None)
        if log is None:
            writes = any(op.writes for op in oplist)
            if self._log_is_read(writes):
                with self.commit_scope(writes=writes):
                    return self.execute_batch(oplist)
        results: list[Any] = [None] * len(oplist)
        errors = 0
        offset = 0
        if log is not None:
            # Earlier batches of the same call took the positions before
            # this one's.
            offset = log.submitted
            log.submitted = offset + len(oplist)
        for positions, operation, grouped in planned_operations(oplist):
            if log is not None:
                # Groups dispatch out of submission order; the monitor
                # puts its samples back in it.
                log.positions = np.add(positions, offset) if offset else positions
            try:
                result = self.execute(operation)
            except ValueNotFoundError:
                errors += 1
                continue
            errors += place_results(results, positions, operation, grouped, result)
        return results, errors
