"""Independent model of the table: a sorted multiset of keys with payloads.

The model shares no code with the program under test (it imports only the
operation *types*, to recognise what a call asked for).  Keys live in a
bounded integer domain, so the sorted multiset is held in counting form:

* ``count[key]``  -- live copies of ``key`` (range COUNT is a slice sum);
* ``rowsum[key]`` -- sum of every payload value of those copies (range SUM
  with ``columns=None`` is a slice sum);
* the payload rows themselves: loaded rows stay in their sorted load arrays
  behind an ``alive`` mask, rows written later queue per key in ``extra``.
  A delete or update takes the *oldest* copy of its key (loaded copies
  first, then insertion order), the rule the program documents.

:meth:`Oracle.predict` replays one call in submission order and says what
every operation must answer, not-found outcomes included; :func:`compare`
counts the operations on which the program disagreed.
Row ids are allocation artefacts (they differ between a single process, a
sharded cluster and a recovered table), so rows compare by payload only.
"""

from __future__ import annotations

import numpy as np

from repro.workload.operations import (
    Aggregate,
    Delete,
    Insert,
    MultiDelete,
    MultiInsert,
    MultiPointQuery,
    MultiRangeCount,
    MultiUpdate,
    PointQuery,
    RangeQuery,
    Update,
)


def logical_ops(op) -> int:
    """Logical operations one operation object stands for."""
    if isinstance(op, (MultiPointQuery, MultiInsert, MultiDelete)):
        return len(op.keys)
    if isinstance(op, MultiRangeCount):
        return len(op.bounds)
    if isinstance(op, MultiUpdate):
        return len(op.pairs)
    return 1


def _payloads(rows) -> list[tuple]:
    """Payload tuples of a ``list[Row]`` result, order-insensitive."""
    return sorted(tuple(row.payload.values()) for row in rows)


class Oracle:
    """Sorted multiset + payload model over keys in ``[0, domain)``."""

    def __init__(self, keys: np.ndarray, payload: np.ndarray, domain: int):
        keys = np.asarray(keys, dtype=np.int64)
        if keys.size and (keys.min() < 0 or keys.max() >= domain):
            raise ValueError("loaded keys fall outside the model's key domain")
        order = np.argsort(keys, kind="stable")
        self.domain = int(domain)
        self.base_keys = keys[order]
        self.base_rows = np.asarray(payload, dtype=np.int64)[order]
        self.alive = np.ones(keys.size, dtype=bool)
        self.count = np.bincount(keys, minlength=domain).astype(np.int64)
        self.rowsum = np.zeros(domain, dtype=np.int64)
        np.add.at(self.rowsum, self.base_keys, self.base_rows.sum(axis=1))
        self.extra: dict[int, list[tuple]] = {}
        self._spans: dict[int, tuple[int, int]] = {}

    # -- state transitions ---------------------------------------------- #

    def _prefetch(self, ops: list) -> None:
        """Locate every key of a call in the load arrays with one search
        (the arrays never change, so positions stay valid all call long)."""
        keys: list[int] = []
        for op in ops:
            if isinstance(op, (PointQuery, Delete)):
                keys.append(op.key)
            elif isinstance(op, Update):
                keys.append(op.old_key)
            elif isinstance(op, (MultiPointQuery, MultiDelete)):
                keys.extend(op.keys)
            elif isinstance(op, MultiUpdate):
                keys.extend(old for old, _ in op.pairs)
        arr = np.asarray(keys, dtype=np.int64)
        left = np.searchsorted(self.base_keys, arr, "left").tolist()
        right = np.searchsorted(self.base_keys, arr, "right").tolist()
        self._spans = dict(zip(keys, zip(left, right)))

    def _span(self, key: int) -> tuple[int, int]:
        return self._spans[key]

    def _rows(self, key: int) -> list[tuple]:
        left, right = self._span(key)
        rows = [
            tuple(self.base_rows[i].tolist())
            for i in range(left, right)
            if self.alive[i]
        ]
        return rows + self.extra.get(key, [])

    def _put(self, key: int, row: tuple) -> None:
        if not 0 <= key < self.domain:
            raise ValueError(f"key {key} outside the model's key domain")
        self.extra.setdefault(key, []).append(row)
        self.count[key] += 1
        self.rowsum[key] += sum(row)

    def _take_oldest(self, key: int) -> tuple | None:
        """Remove and return the oldest copy of ``key`` (None: not found)."""
        if not 0 <= key < self.domain or not self.count[key]:
            return None
        left, right = self._span(key)
        row = None
        for i in range(left, right):
            if self.alive[i]:
                self.alive[i] = False
                row = tuple(self.base_rows[i].tolist())
                break
        if row is None:
            queue = self.extra[key]
            row = queue.pop(0)
            if not queue:
                del self.extra[key]
        self.count[key] -= 1
        self.rowsum[key] -= sum(row)
        return row

    def _move(self, old: int, new: int) -> bool:
        row = self._take_oldest(old)
        if row is None:
            return False
        self._put(new, row)
        return True

    # -- per-call checking ---------------------------------------------- #

    def predict(self, ops: list) -> tuple[list, int]:
        """Replay one call on the model, in submission order.

        Returns what each operation must answer and how many not-found
        outcomes the call holds.  The state advances by what the call *asked
        for*, whatever the program answers, so one wrong answer does not
        cascade.  Nothing the program produced is touched here, which makes
        the duration of this method the benchmark's machine-speed reference
        (see ``run.Timeline``).
        """
        self._prefetch(ops)
        expected: list = []
        misses = 0
        for op in ops:
            if isinstance(op, PointQuery):
                expected.append(sorted(self._rows(op.key)))
            elif isinstance(op, RangeQuery):
                table = self.rowsum if op.aggregate is Aggregate.SUM else self.count
                expected.append(int(table[op.low : op.high + 1].sum()))
            elif isinstance(op, Insert):
                self._put(op.key, tuple(op.payload))
                expected.append(None)  # a row id: any int
            elif isinstance(op, Delete):
                found = self._take_oldest(op.key) is not None
                misses += not found
                expected.append(1 if found else None)
            elif isinstance(op, Update):
                # Hit or miss, the program reports None; a miss shows only
                # in the call's error count.
                misses += not self._move(op.old_key, op.new_key)
                expected.append(None)
            elif isinstance(op, MultiPointQuery):
                expected.append([sorted(self._rows(key)) for key in op.keys])
            elif isinstance(op, MultiRangeCount):
                expected.append(
                    [int(self.count[lo : hi + 1].sum()) for lo, hi in op.bounds]
                )
            elif isinstance(op, MultiInsert):
                for key, row in zip(op.keys, op.payloads, strict=True):
                    self._put(key, tuple(row))
                expected.append(len(op.keys))
            elif isinstance(op, MultiDelete):
                expected.append(
                    [int(self._take_oldest(key) is not None) for key in op.keys]
                )
            elif isinstance(op, MultiUpdate):
                expected.append([int(self._move(old, new)) for old, new in op.pairs])
            else:
                raise TypeError(f"oracle cannot model {type(op)!r}")
        return expected, misses

    def check(self, ops: list, results: list, errors: int) -> tuple[int, int]:
        """:meth:`predict` one call and :func:`compare` the program's answer
        (the ``SessionResult`` fields) with it."""
        expected, misses = self.predict(ops)
        return compare(ops, expected, misses, results, errors)

    # -- whole-table digests -------------------------------------------- #

    def live_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Every live ``(key, payload row)``, sorted by key then payload."""
        keys = [self.base_keys[self.alive]]
        rows = [self.base_rows[self.alive]]
        if self.extra:
            extra_keys = [k for k, queue in self.extra.items() for _ in queue]
            keys.append(np.asarray(extra_keys, dtype=np.int64))
            rows.append(
                np.asarray(
                    [row for queue in self.extra.values() for row in queue],
                    dtype=np.int64,
                ).reshape(len(extra_keys), self.base_rows.shape[1])
            )
        return sort_rows(np.concatenate(keys), np.concatenate(rows))

    def slice_digest(self, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-slice ``(count, payload sum)`` over ``[edges[i], edges[i+1])``."""
        counts = np.add.reduceat(self.count, edges[:-1])
        sums = np.add.reduceat(self.rowsum, edges[:-1])
        return counts, sums


def compare(
    ops: list, expected: list, misses: int, results: list, errors: int
) -> tuple[int, int]:
    """``(attempted, failed)`` logical operations of one call."""
    attempted = sum(logical_ops(op) for op in ops)
    if len(results) != len(ops):
        return attempted, attempted
    failed = 0
    for op, want, got in zip(ops, expected, results):
        if isinstance(op, PointQuery):
            failed += _payloads(got) != want
        elif isinstance(op, Insert):
            failed += not isinstance(got, int)
        elif isinstance(op, (RangeQuery, Delete, Update)):
            failed += got != want
        elif isinstance(op, MultiPointQuery):
            if len(got) != len(want):
                failed += len(want)
                continue
            failed += sum(_payloads(rows) != rows_want
                          for rows, rows_want in zip(got, want))
        elif isinstance(op, MultiInsert):
            failed += want if len(got) != want else 0
        else:  # MultiRangeCount, MultiDelete, MultiUpdate: aligned counts
            got = np.asarray(got)
            if got.shape != (len(want),):
                failed += len(want)
            else:
                failed += int(np.sum(got != np.asarray(want)))
    # Per-op dispatch reports a miss as an error; the bulk operations report
    # misses in their count arrays (compared above) and no error.
    if errors != misses:
        failed += max(1, abs(errors - misses))
    return attempted, min(failed, attempted)


def sort_rows(keys: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonical order for multiset comparison of ``(key, row)`` pairs."""
    order = np.argsort(keys, kind="stable")
    keys, rows = keys[order], rows[order]
    if keys.size > 1 and np.any(keys[1:] == keys[:-1]):
        columns = [rows[:, c] for c in range(rows.shape[1] - 1, -1, -1)]
        order = np.lexsort(columns + [keys])
        keys, rows = keys[order], rows[order]
    return keys, rows


def missing_rows(want, got) -> int:
    """Rows of ``want`` (sorted ``(keys, rows)``) absent from ``got``."""
    want_keys, want_rows = want
    got_keys, got_rows = got
    if (
        want_keys.shape == got_keys.shape
        and np.array_equal(want_keys, got_keys)
        and np.array_equal(want_rows, got_rows)
    ):
        return 0

    def pack(keys, rows):
        return {tuple(row) for row in np.column_stack([keys, rows]).tolist()}

    return max(1, len(pack(want_keys, want_rows) - pack(got_keys, got_rows)))
