"""Pluggable execution policies: how a session dispatches operations.

A :class:`Session` hands every ``execute(ops)`` call to an
:class:`ExecutionPolicy`, which decides *how* the operations reach the
storage engine -- one at a time, or in fixed-size vectorized slices.  The
policy contract is that dispatch strategy never changes semantics:

* **results** are identical to per-operation serial dispatch (submission
  order, insert row ids included, ``None`` marking not-found operations),
  and
* **simulated access counts** are identical for reads and key updates and
  never larger for insert/delete groups (whose coalesced ripple sweeps
  charge each touched block once per group), per the
  :meth:`repro.storage.engine.StorageEngine.execute_batch` contract and its
  documented duplicate-delete caveat.

The batched policy groups by commutation
(:func:`repro.storage.engine.plan_batch`): reads between two writes commute,
and so do writes on distinct keys between two reads.  Same-kind writes keep
their submission order and their row ids, a cross-kind reuse of a written
key ends the stretch, a batch already sorted by kind plans as its adjacent
runs, and the charge reference is the ascending replay of each group.

Policies record the batch sizes they dispatched, so use a fresh instance
per session / workload run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Protocol, Sequence, runtime_checkable

from ..storage.engine import BatchResult, StorageEngine
from ..storage.errors import ValueNotFoundError
from ..workload.operations import Operation


@runtime_checkable
class ExecutionPolicy(Protocol):
    """Protocol every execution policy implements."""

    #: Batch sizes chosen so far, in dispatch order (empty for serial).
    chosen_batch_sizes: list[int]

    def execute(
        self, engine: StorageEngine, operations: Sequence[Operation]
    ) -> BatchResult:
        """Dispatch ``operations`` against ``engine`` and merge the outcome."""
        ...


def _merged_result(
    engine: StorageEngine,
    results: list,
    errors: int,
    operations: int,
    before,
    start_ns: int,
) -> BatchResult:
    return BatchResult(
        results=results,
        accesses=engine.counter.diff(before),
        wall_ns=float(time.perf_counter_ns() - start_ns),
        operations=operations,
        errors=errors,
    )


@dataclass
class SerialPolicy:
    """Dispatch every operation individually through ``engine.execute``.

    This is the reference policy: the vectorized policy is contractually
    equivalent to it.  Not-found operations yield ``None`` results and count
    as errors, exactly as on the batched path.
    """

    chosen_batch_sizes: list[int] = field(default_factory=list, init=False)

    def execute(
        self, engine: StorageEngine, operations: Sequence[Operation]
    ) -> BatchResult:
        oplist = list(operations)
        before = engine.counter.snapshot()
        start = time.perf_counter_ns()
        results = []
        errors = 0
        for operation in oplist:
            try:
                results.append(engine.execute(operation).result)
            except ValueNotFoundError:
                results.append(None)
                errors += 1
        return _merged_result(
            engine, results, errors, len(oplist), before, start
        )


@dataclass
class VectorizedPolicy:
    """Dispatch in fixed-size slices through ``engine.execute_batch``.

    ``batch_size`` bounds each slice; within a slice, operations group by
    commutation, however the client interleaved them -- every read sharing
    a group key between two writes rides one vectorized probe, and every
    insert, delete or key update between two reads rides one coalesced
    bulk write, in submission order within its kind, until a cross-kind
    reuse of a written key ends the stretch.  The rule is
    :func:`repro.storage.engine.plan_batch`.  Each slice is its own
    ``execute_batch`` call, so a durable slice containing a write commits
    as its own WAL record.
    """

    batch_size: int = 256
    chosen_batch_sizes: list[int] = field(default_factory=list, init=False)

    def __post_init__(self) -> None:
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")

    def execute(
        self, engine: StorageEngine, operations: Sequence[Operation]
    ) -> BatchResult:
        oplist = list(operations)
        before = engine.counter.snapshot()
        start = time.perf_counter_ns()
        results = []
        errors = 0
        for first in range(0, len(oplist), self.batch_size):
            chunk = oplist[first : first + self.batch_size]
            outcome = engine.execute_batch(chunk)
            self.chosen_batch_sizes.append(len(chunk))
            results.extend(outcome.results)
            errors += outcome.errors
        return _merged_result(
            engine, results, errors, len(oplist), before, start
        )
