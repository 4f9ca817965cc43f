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

Policies only dispatch: the session clocks and charges the call (one
counter window, one clock).  They are frozen, stateless values, so one
instance may serve any number of sessions at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Protocol, runtime_checkable

from ..storage.engine import StorageEngine
from ..storage.errors import ValueNotFoundError
from ..workload.operations import Operation


@runtime_checkable
class ExecutionPolicy(Protocol):
    """Protocol every execution policy implements."""

    def execute(
        self, engine: StorageEngine, operations: Iterable[Operation]
    ) -> tuple[list, int, list[int]]:
        """Dispatch ``operations`` against ``engine``; returns the results
        in submission order, the not-found count and the size of every
        dispatched slice (none for serial dispatch)."""
        ...


@dataclass(frozen=True)
class SerialPolicy:
    """Dispatch every operation individually through ``engine.execute``.

    This is the reference policy: the vectorized policy is contractually
    equivalent to it.  Not-found operations yield ``None`` results and count
    as errors, exactly as on the batched path.
    """

    def execute(
        self, engine: StorageEngine, operations: Iterable[Operation]
    ) -> tuple[list, int, list[int]]:
        results = []
        errors = 0
        for operation in operations:
            try:
                results.append(engine.execute(operation).result)
            except ValueNotFoundError:
                results.append(None)
                errors += 1
        return results, errors, []


@dataclass(frozen=True)
class VectorizedPolicy:
    """Dispatch in fixed-size slices through ``engine.execute_batch``.

    ``batch_size`` bounds each slice; within a slice, operations group by
    commutation, however the client interleaved them -- every read sharing
    a group key between two writes rides one vectorized probe, and every
    insert, delete or key update between two reads rides one coalesced
    bulk write, in submission order within its kind, until a cross-kind
    reuse of a written key ends the stretch; a batch already sorted by
    kind plans as its adjacent runs, and the charge reference is the
    ascending replay of each group.  The rule is
    :func:`repro.storage.engine.plan_batch`.  Each slice is its own
    ``execute_batch`` call, so a durable slice containing a write commits
    as its own WAL record.
    """

    batch_size: int = 256

    def __post_init__(self) -> None:
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")

    def execute(
        self, engine: StorageEngine, operations: Iterable[Operation]
    ) -> tuple[list, int, list[int]]:
        oplist = list(operations)
        results = []
        errors = 0
        sizes = []
        for first in range(0, len(oplist), self.batch_size):
            chunk = oplist[first : first + self.batch_size]
            outcome = engine.execute_batch(chunk)
            sizes.append(len(chunk))
            results.extend(outcome.results)
            errors += outcome.errors
        return results, errors, sizes
