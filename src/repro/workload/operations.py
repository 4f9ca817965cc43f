"""Workload operation types: the one operation vocabulary.

Casper supports the five fundamental access patterns of Section 3: point
queries, range queries, inserts, deletes and updates.  The HAP benchmark's
six queries (Q1-Q6, Section 7.1) map onto these types; range queries carry an
aggregate kind to distinguish the count query (Q2) from the arithmetic sum
query (Q3).

This is the only module that knows what each of the ten operation kinds (five
scalar, five batched) *is*.  Every class states, once:

``writes``
    whether it mutates table state (:data:`WRITE_KINDS` and :func:`is_write`
    derive from it);
``group_key``
    the key under which ``StorageEngine.execute_batch`` groups operations
    into one batched dispatch (``None``: always dispatched individually).
    Reads commute, so every read sharing a key within a write-free stretch
    of a batch groups, adjacent or not.  Writes on distinct keys commute
    too: within a write stretch every write sharing a key groups, adjacent
    or not, keeping same-kind submission order and so the row ids serial
    dispatch hands out; a cross-kind reuse of a written key ends the
    stretch, and a batch already sorted by kind plans as adjacent runs
    (``repro.storage.engine.plan_batch`` is that rule);
``written_keys``
    scalar write kinds only: the key values the operation writes, which
    is what ``plan_batch`` checks before it lets a write join an earlier
    group of its kind;
``attribution()``
    the record ``(kind, lows, highs)`` the engine logs for the monitor and
    the WAL -- ``kind`` is one of
    ``repro.storage.access_log.ATTRIBUTION_KINDS`` or the paired-update kind
    ``"update"``.  For the range kinds ``lows``/``highs`` are the inclusive
    bounds; for every other kind each entry of ``lows`` and ``highs`` is one
    key the operation touches (``highs`` carries the update targets);
``run(table)``
    its one :class:`~repro.storage.table.Table` call, which is what
    ``StorageEngine.execute`` measures (the two insert kinds add
    ``with_payload_rows``: the payload rows a durable insert logs);
``scalars()``
    its scalar expansion.  Scalar kinds add the inverse ``batched(run)``
    (one batched operation for a group sharing a group key); batched kinds
    add ``scalar_results(result)``, which splits the batched engine result
    (row lists, or an ``int64`` array of counts / row ids) into the
    per-scalar results and the error count serial dispatch reports.

:data:`REPLAYED_AS` states the way back from a logged or shard-request record.

Engine dispatch (``StorageEngine.execute`` runs ``run`` and logs
``attribution()``), the engine's batch plan and the question whether a
batch needs a commit scope (``writes``), the monitor's offline seeding (one
log of these access records through ``observe_batch``, the way engine
dispatch gets there too), the Frequency Model's sample reader
(``sample_columns``, which the planner's chunk filter works behind), the
shard request codec and the shard router's scatter are loops over these
facts.  The shard router routes the engine's batch plan, so it sees a
scalar kind only inside its batched form; its ``route`` (how a kind splits
across shards) names the batched kinds again, plus the SUM range, which
has none.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from enum import Enum
from typing import Any, Sequence, get_args

import numpy as np


class OperationKind(Enum):
    """The five fundamental access patterns, plus vectorized batch forms.

    The batch kinds are not new access patterns: they group many point or
    range lookups into one operation so the engine can resolve them on the
    vectorized fast path (single ``searchsorted`` calls per chunk) instead of
    per-operation Python dispatch.
    """

    POINT_QUERY = "point_query"
    RANGE_QUERY = "range_query"
    INSERT = "insert"
    DELETE = "delete"
    UPDATE = "update"
    MULTI_POINT_QUERY = "multi_point_query"
    MULTI_RANGE_COUNT = "multi_range_count"
    MULTI_INSERT = "multi_insert"
    MULTI_DELETE = "multi_delete"
    MULTI_UPDATE = "multi_update"


class Aggregate(Enum):
    """Aggregate evaluated by a range query."""

    COUNT = "count"
    SUM = "sum"


@dataclass(frozen=True)
class PointQuery:
    """Q1: fetch the row(s) whose key equals ``key``."""

    key: int
    columns: tuple[str, ...] | None = None

    kind = OperationKind.POINT_QUERY
    writes = False

    @property
    def group_key(self) -> tuple:
        return ("point_query", self.columns)

    def attribution(self) -> tuple:
        return "point_query", (self.key,), None

    def run(self, table) -> list:
        return table.point_query(self.key, self.columns)

    def scalars(self) -> tuple[PointQuery, ...]:
        return (self,)

    @classmethod
    def batched(cls, run: Sequence[PointQuery]) -> MultiPointQuery:
        return MultiPointQuery(
            keys=tuple(op.key for op in run), columns=run[0].columns
        )


@dataclass(frozen=True)
class RangeQuery:
    """Q2/Q3: aggregate over rows whose key lies in ``[low, high]``."""

    low: int
    high: int
    aggregate: Aggregate = Aggregate.COUNT
    columns: tuple[str, ...] | None = None

    kind = OperationKind.RANGE_QUERY
    writes = False

    def __post_init__(self) -> None:
        if self.low > self.high:
            raise ValueError("range query low must be <= high")
        # The aggregate may be given by value ("count" or "sum").
        object.__setattr__(self, "aggregate", Aggregate(self.aggregate))

    @property
    def group_key(self) -> tuple | None:
        # Only counting ranges have a batched form.
        return ("range_count",) if self.aggregate is Aggregate.COUNT else None

    def attribution(self) -> tuple:
        count = self.aggregate is Aggregate.COUNT
        return "range_count" if count else "range_sum", (self.low,), (self.high,)

    def run(self, table) -> int:
        if self.aggregate is Aggregate.COUNT:
            return table.range_count(self.low, self.high)
        return table.range_sum(self.low, self.high, self.columns)

    def scalars(self) -> tuple[RangeQuery, ...]:
        return (self,)

    @classmethod
    def batched(cls, run: Sequence[RangeQuery]) -> MultiRangeCount:
        return MultiRangeCount(bounds=tuple((op.low, op.high) for op in run))


@dataclass(frozen=True)
class Insert:
    """Q4: insert a row with the given key (payload optional)."""

    key: int
    payload: tuple[int, ...] | None = None

    kind = OperationKind.INSERT
    writes = True
    group_key = ("insert",)

    @property
    def written_keys(self) -> tuple[int, ...]:
        return (self.key,)

    def attribution(self) -> tuple:
        return "insert", (self.key,), None

    def run(self, table) -> int:
        return table.insert(self.key, self.payload)

    def with_payload_rows(self, rows) -> tuple[Insert, Any]:
        """This insert and the payload row its WAL record carries --
        ``rows(None, 1)``, the zero row the table pads, when none is given."""
        return self, rows(None, 1) if self.payload is None else (self.payload,)

    def scalars(self) -> tuple[Insert, ...]:
        return (self,)

    @classmethod
    def batched(cls, run: Sequence[Insert]) -> MultiInsert:
        payloads = [op.payload for op in run]
        given = [payload for payload in payloads if payload is not None]
        if given and len(given) < len(payloads):
            # Missing payloads are the zero rows the table would pad.
            zero = (0,) * len(given[0])
            payloads = [zero if row is None else row for row in payloads]
        return MultiInsert(
            keys=tuple(op.key for op in run),
            payloads=tuple(payloads) if given else None,
        )


@dataclass(frozen=True)
class Delete:
    """Q5: delete the row with the given key."""

    key: int

    kind = OperationKind.DELETE
    writes = True
    group_key = ("delete",)

    @property
    def written_keys(self) -> tuple[int, ...]:
        return (self.key,)

    def attribution(self) -> tuple:
        return "delete", (self.key,), None

    def run(self, table) -> int:
        return table.delete(self.key)

    def scalars(self) -> tuple[Delete, ...]:
        return (self,)

    @classmethod
    def batched(cls, run: Sequence[Delete]) -> MultiDelete:
        return MultiDelete(keys=tuple(op.key for op in run))


@dataclass(frozen=True)
class Update:
    """Q6: change a row's key from ``old_key`` to ``new_key``."""

    old_key: int
    new_key: int

    kind = OperationKind.UPDATE
    writes = True
    group_key = ("update",)

    @property
    def written_keys(self) -> tuple[int, ...]:
        return (self.old_key, self.new_key)

    def attribution(self) -> tuple:
        return "update", (self.old_key,), (self.new_key,)

    def run(self, table) -> None:
        return table.update_key(self.old_key, self.new_key)

    def scalars(self) -> tuple[Update, ...]:
        return (self,)

    @classmethod
    def batched(cls, run: Sequence[Update]) -> MultiUpdate:
        return MultiUpdate(pairs=tuple((op.old_key, op.new_key) for op in run))


@dataclass(frozen=True)
class MultiPointQuery:
    """Batched Q1: fetch the rows for every key in ``keys`` in one operation."""

    keys: tuple[int, ...]
    columns: tuple[str, ...] | None = None

    kind = OperationKind.MULTI_POINT_QUERY
    writes = False
    group_key = None

    def attribution(self) -> tuple:
        return "point_query", self.keys, None

    def run(self, table) -> list[list]:
        return table.multi_point_query(self.keys, self.columns)

    def scalars(self) -> tuple[PointQuery, ...]:
        return tuple(PointQuery(key, self.columns) for key in self.keys)

    def scalar_results(self, result) -> tuple[list[Any], int]:
        return result, 0


@dataclass(frozen=True)
class MultiRangeCount:
    """Batched Q2: count rows for every ``(low, high)`` pair in ``bounds``."""

    bounds: tuple[tuple[int, int], ...]

    kind = OperationKind.MULTI_RANGE_COUNT
    writes = False
    group_key = None

    def __post_init__(self) -> None:
        # A decoded range-count record is an (n, 2) array: check its shape
        # and its bounds once instead of one Python call per pair.
        if isinstance(self.bounds, np.ndarray):
            if self.bounds.ndim != 2 or self.bounds.shape[1] != 2:
                raise ValueError("bounds must be an (n, 2) array of ranges")
            if not (self.bounds[:, 0] <= self.bounds[:, 1]).all():
                raise ValueError("range low must be <= high")
            return
        for low, high in self.bounds:
            if low > high:
                raise ValueError("range low must be <= high")

    def attribution(self) -> tuple:
        bounds = self._array()
        return "range_count", bounds[:, 0], bounds[:, 1]

    def run(self, table) -> np.ndarray:
        return table.multi_range_count(self._array())

    def _array(self) -> np.ndarray:
        return np.asarray(self.bounds, dtype=np.int64).reshape(-1, 2)

    def scalars(self) -> tuple[RangeQuery, ...]:
        return tuple(RangeQuery(low, high) for low, high in self.bounds)

    def scalar_results(self, result) -> tuple[list[Any], int]:
        return result.tolist(), 0


@dataclass(frozen=True)
class MultiInsert:
    """Batched Q4: insert one row per key on the bulk-write fast path.

    ``payloads`` optionally carries one payload tuple per key; ``None``
    inserts zero payloads, as the per-row :class:`Insert` default does.
    """

    keys: tuple[int, ...]
    payloads: tuple[tuple[int, ...], ...] | None = None

    kind = OperationKind.MULTI_INSERT
    writes = True
    group_key = None

    def __post_init__(self) -> None:
        if self.payloads is not None and len(self.payloads) != len(self.keys):
            raise ValueError("payloads must align with keys")

    def attribution(self) -> tuple:
        return "insert", self.keys, None

    def run(self, table) -> np.ndarray:
        return table.bulk_insert(self.keys, self.payloads)

    def with_payload_rows(self, rows) -> tuple[MultiInsert, np.ndarray]:
        """This insert with its keys and payloads as the arrays its WAL
        record carries (``rows(payloads, count)``).  Converted once and
        shared: the table and the record would otherwise each pay the
        tuple->array conversion."""
        keys = np.asarray(self.keys, dtype=np.int64)
        payloads = rows(self.payloads, len(keys))
        return replace(self, keys=keys, payloads=payloads), payloads

    def scalars(self) -> tuple[Insert, ...]:
        payloads = self.payloads or (None,) * len(self.keys)
        return tuple(map(Insert, self.keys, payloads))

    def scalar_results(self, result) -> tuple[list[Any], int]:
        return result.tolist(), 0


@dataclass(frozen=True)
class MultiDelete:
    """Batched Q5: delete one row per key on the bulk-write fast path."""

    keys: tuple[int, ...]

    kind = OperationKind.MULTI_DELETE
    writes = True
    group_key = None

    def attribution(self) -> tuple:
        return "delete", self.keys, None

    def run(self, table) -> np.ndarray:
        return table.bulk_delete(self.keys)

    def scalars(self) -> tuple[Delete, ...]:
        return tuple(map(Delete, self.keys))

    def scalar_results(self, result) -> tuple[list[Any], int]:
        # The bulk path reports a miss as 0; serial dispatch raises.
        results = [count or None for count in result.tolist()]
        return results, results.count(None)


@dataclass(frozen=True)
class MultiUpdate:
    """Batched Q6: apply one ``old_key -> new_key`` correction per pair.

    Pairs are applied in submission order on a batch-routed path
    (:meth:`repro.storage.table.Table.bulk_update`), so the outcome --
    results and simulated access counts -- is exactly that of issuing the
    equivalent :class:`Update` operations one by one.
    """

    pairs: tuple[tuple[int, int], ...]

    kind = OperationKind.MULTI_UPDATE
    writes = True
    group_key = None

    def __post_init__(self) -> None:
        # A replayed update record is an (n, 2) array: check its shape
        # once instead of one Python call per pair.
        if isinstance(self.pairs, np.ndarray):
            if self.pairs.ndim != 2 or self.pairs.shape[1] != 2:
                raise ValueError("pairs must be an (n, 2) array of key pairs")
            return
        for pair in self.pairs:
            if len(pair) != 2:
                raise ValueError("pairs must be (old_key, new_key) tuples")

    def attribution(self) -> tuple:
        pairs = self._array()
        return "update", pairs[:, 0], pairs[:, 1]

    def run(self, table) -> np.ndarray:
        return table.bulk_update(self._array())

    def _array(self) -> np.ndarray:
        return np.asarray(self.pairs, dtype=np.int64).reshape(-1, 2)

    def scalars(self) -> tuple[Update, ...]:
        return tuple(Update(old_key, new_key) for old_key, new_key in self.pairs)

    def scalar_results(self, result) -> tuple[list[Any], int]:
        # Serial dispatch returns None for a successful update too; a miss
        # additionally counts as one error (its ValueNotFoundError).
        counts = result.tolist()
        return [None] * len(counts), counts.count(0)


Operation = (
    PointQuery
    | RangeQuery
    | Insert
    | Delete
    | Update
    | MultiPointQuery
    | MultiRangeCount
    | MultiInsert
    | MultiDelete
    | MultiUpdate
)

#: Kinds that mutate table state; the durability layer opens a commit
#: scope (WAL append + fsync policy) exactly when a dispatch contains one.
WRITE_KINDS = frozenset(cls.kind for cls in get_args(Operation) if cls.writes)


def _pairs(record) -> np.ndarray:
    return np.stack([record.keys, record.highs], axis=1)


def _columns(record, payload_names) -> tuple[str, ...]:
    return tuple(payload_names[index] for index in record.payloads[0].tolist())


class PointRowsQuery(MultiPointQuery):
    """A shard request's point read: a :class:`MultiPointQuery` answered by
    ``Table.point_rows``, a row block the worker ships as it is (the
    dispatcher builds the ``Row`` objects)."""

    def run(self, table):
        return table.point_rows(self.keys, self.columns)


#: The operation a decoded record ``(kind, keys, highs, payloads)`` runs as,
#: ``REPLAYED_AS[kind](record, payload_names)``, whose ``run(table)`` is
#: the call live dispatch measures: a logged write replays as the batched
#: write whose ``attribution()`` it is, a read of a shard request (its one
#: payload row: column indices into ``payload_names``) runs as its batched
#: read or SUM range, a point read as :class:`PointRowsQuery`.  The
#: move-protocol markers mutate nothing: no entry.
REPLAYED_AS = {
    "insert": lambda record, _names: MultiInsert(record.keys, record.payloads),
    "delete": lambda record, _names: MultiDelete(record.keys),
    "update": lambda record, _names: MultiUpdate(_pairs(record)),
    "point_query": lambda record, names: PointRowsQuery(
        record.keys, _columns(record, names)
    ),
    "range_count": lambda record, _names: MultiRangeCount(_pairs(record)),
    "range_sum": lambda record, names: RangeQuery(
        *_pairs(record)[0].tolist(), Aggregate.SUM, _columns(record, names)
    ),
}


def is_write(operation: Operation) -> bool:
    """Whether ``operation`` mutates table state (needs a commit scope)."""
    return operation.writes


def split(
    operation: Operation, labels: np.ndarray
) -> list[tuple[int, np.ndarray, Operation]]:
    """A batched operation cut by a label per row (a shard id, say).

    Returns one ``(label, positions, sub-operation)`` per distinct label,
    in ascending label order.  Every field of a batched kind but
    ``columns`` is row-aligned; each is converted to an ``int64`` array
    once and every sub-operation holds its rows as a slice of it, so the
    shard router splits any batched kind with this one function and the
    request codec reads the arrays as they are.
    """
    rows = {
        item.name: np.asarray(values, dtype=np.int64)
        for item in fields(operation)
        if item.name != "columns"
        and (values := getattr(operation, item.name)) is not None
    }
    pieces = []
    for label in np.unique(labels).tolist():
        positions = np.flatnonzero(labels == label)
        sub = replace(
            operation, **{name: array[positions] for name, array in rows.items()}
        )
        pieces.append((label, positions, sub))
    return pieces


@dataclass
class Workload:
    """An ordered sequence of operations plus a human-readable label."""

    operations: list[Operation] = field(default_factory=list)
    name: str = "workload"

    def __len__(self) -> int:
        return len(self.operations)

    def __iter__(self):
        return iter(self.operations)

    def append(self, operation: Operation) -> None:
        """Add an operation to the end of the workload."""
        self.operations.append(operation)

    def extend(self, operations: Sequence[Operation]) -> None:
        """Add several operations to the end of the workload."""
        self.operations.extend(operations)

    def counts_by_kind(self) -> dict[OperationKind, int]:
        """Number of operations of each kind."""
        counts: dict[OperationKind, int] = {}
        for operation in self.operations:
            counts[operation.kind] = counts.get(operation.kind, 0) + 1
        return counts

    def mix(self) -> dict[OperationKind, float]:
        """Fraction of operations of each kind."""
        total = len(self.operations)
        if total == 0:
            return {}
        return {
            kind: count / total for kind, count in self.counts_by_kind().items()
        }

    def subset(self, kinds: Sequence[OperationKind]) -> "Workload":
        """A new workload containing only operations of the given kinds."""
        wanted = set(kinds)
        return Workload(
            operations=[op for op in self.operations if op.kind in wanted],
            name=f"{self.name}[filtered]",
        )
