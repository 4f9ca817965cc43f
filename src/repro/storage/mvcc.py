"""Snapshot isolation via multi-version concurrency control (Section 6.1).

Casper supports general transactions through snapshot isolation: every
transaction works on the snapshot observed at its begin timestamp, buffers
its writes locally, and at commit time the first committer wins -- any
concurrent transaction that wrote an overlapping key aborts and rolls back.

This module implements that protocol at the granularity of logical keys
(row identifiers or column values), decoupled from the physical column so it
can wrap any layout.  Ghost-value rippling is deliberately *not* part of a
transaction's write set (Section 6.1, "Reducing the Ripple Contention"):
fetched ghost blocks persist even if the transaction rolls back, which the
engine models by applying ripple side effects eagerly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from .errors import TransactionConflictError, TransactionStateError


class TransactionStatus(Enum):
    """Lifecycle states of a transaction."""

    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass
class WriteIntent:
    """A buffered write: the operation closure plus the key it touches.

    The manager is storage-agnostic: it only ever calls ``apply``.  What
    applying entails -- logging, observation, statistics -- is the
    closure's business (the storage engine buffers calls to its own write
    methods).
    """

    key: int
    apply: Callable[[], None]
    description: str = ""


@dataclass
class Transaction:
    """A snapshot-isolated transaction."""

    txn_id: int
    begin_ts: int
    status: TransactionStatus = TransactionStatus.ACTIVE
    commit_ts: int | None = None
    read_set: set[int] = field(default_factory=set)
    write_intents: list[WriteIntent] = field(default_factory=list)

    @property
    def write_set(self) -> set[int]:
        """Keys written by this transaction."""
        return {intent.key for intent in self.write_intents}

    def record_read(self, key: int) -> None:
        """Record that ``key`` was read under this snapshot."""
        self._ensure_active()
        self.read_set.add(int(key))

    def record_write(
        self, key: int, apply: Callable[[], None], description: str = ""
    ) -> None:
        """Buffer a write to ``key``; ``apply`` executes it at commit time."""
        self._ensure_active()
        self.write_intents.append(WriteIntent(int(key), apply, description))

    def _ensure_active(self) -> None:
        if self.status is not TransactionStatus.ACTIVE:
            raise TransactionStateError(
                f"transaction {self.txn_id} is {self.status.value}"
            )


class TransactionManager:
    """First-committer-wins snapshot isolation over logical keys.

    The manager tracks, for every key, the commit timestamp of the last
    transaction that wrote it.  A committing transaction aborts if any key in
    its write set was committed by another transaction after its begin
    timestamp (write-write conflict), which is the classic snapshot-isolation
    rule the paper adopts.
    """

    def __init__(self) -> None:
        self._clock = 0
        self._next_txn_id = 1
        self._last_commit_ts: dict[int, int] = {}
        self._active: dict[int, Transaction] = {}
        self.committed = 0
        self.aborted = 0

    def _tick(self) -> int:
        self._clock += 1
        return self._clock

    def begin(self) -> Transaction:
        """Start a new transaction at the current snapshot."""
        txn = Transaction(txn_id=self._next_txn_id, begin_ts=self._clock)
        self._next_txn_id += 1
        self._active[txn.txn_id] = txn
        return txn

    def commit(self, txn: Transaction) -> int:
        """Attempt to commit ``txn``; returns the commit timestamp.

        Raises :class:`TransactionConflictError` (after rolling the
        transaction back) when another transaction committed a conflicting
        write after ``txn`` began.  The conflict check runs before any
        intent applies, so an aborted commit leaves no trace; intents then
        apply in the order they were buffered.
        """
        if txn.status is not TransactionStatus.ACTIVE:
            raise TransactionStateError(
                f"transaction {txn.txn_id} is {txn.status.value}"
            )
        for key in txn.write_set:
            last = self._last_commit_ts.get(key)
            if last is not None and last > txn.begin_ts:
                self.abort(txn)
                raise TransactionConflictError(
                    f"transaction {txn.txn_id} conflicts on key {key}"
                )
        commit_ts = self._tick()
        for intent in txn.write_intents:
            intent.apply()
        for key in txn.write_set:
            self._last_commit_ts[key] = commit_ts
        txn.status = TransactionStatus.COMMITTED
        txn.commit_ts = commit_ts
        self._active.pop(txn.txn_id, None)
        self.committed += 1
        return commit_ts

    def abort(self, txn: Transaction) -> None:
        """Roll back ``txn`` (its buffered writes are discarded)."""
        if txn.status is TransactionStatus.COMMITTED:
            raise TransactionStateError("cannot abort a committed transaction")
        if txn.status is TransactionStatus.ABORTED:
            return
        txn.status = TransactionStatus.ABORTED
        txn.write_intents.clear()
        self._active.pop(txn.txn_id, None)
        self.aborted += 1

    @property
    def active_transactions(self) -> int:
        """Number of transactions currently in flight."""
        return len(self._active)
