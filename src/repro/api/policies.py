"""Pluggable execution policies: how a session dispatches operations.

A :class:`Session` hands every ``execute(ops)`` call to an
:class:`ExecutionPolicy`, which decides *how* the operations reach the
storage engine -- one at a time, in fixed-size vectorized batches, or in
batches whose size is tuned online.  The policy contract is that dispatch
strategy never changes semantics:

* **results** are identical to per-operation serial dispatch (submission
  order, insert row ids included, ``None`` marking not-found operations),
  and
* **simulated access counts** are identical for reads and key updates and
  never larger for insert/delete groups (whose coalesced ripple sweeps
  charge each touched block once per group), per the
  :meth:`repro.storage.engine.StorageEngine.execute_batch` contract and its
  documented duplicate-delete caveat.

The batched policies group by commutation
(:func:`repro.storage.engine.plan_batch`): reads between two writes commute,
and so do writes on distinct keys between two reads.  Same-kind writes keep
their submission order and their row ids, a cross-kind reuse of a written
key ends the stretch, a batch already sorted by kind plans as its adjacent
runs, and the charge reference is the ascending replay of each group.

Policies are stateful (adaptive estimates, the record of chosen batch
sizes), so use a fresh instance per session / workload run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterator, Protocol, Sequence, runtime_checkable

from ..storage.engine import BatchResult, StorageEngine, plan_batch
from ..storage.errors import ValueNotFoundError
from ..workload.operations import Operation


@runtime_checkable
class ExecutionPolicy(Protocol):
    """Protocol every execution policy implements."""

    #: Human-readable policy name (used in reports and benchmark output).
    name: str

    #: Batch sizes chosen so far, in dispatch order (empty for serial).
    chosen_batch_sizes: list[int]

    def execute(
        self, engine: StorageEngine, operations: Sequence[Operation]
    ) -> BatchResult:
        """Dispatch ``operations`` against ``engine`` and merge the outcome."""
        ...


def longest_groupable_run(operations: Sequence[Operation]) -> int:
    """Size of the largest group ``execute_batch`` would dispatch as one
    batched operation: the most reads sharing a group key within one
    write-free stretch, or the most same-kind writes within one read-free
    stretch that no cross-kind reuse of a written key cuts short.

    Read off :func:`repro.storage.engine.plan_batch`, the plan the batch
    executor dispatches; a dispatched batch reports the same number as
    :attr:`BatchResult.largest_group`, which is what the adaptive policy's
    run-length heuristic reads.
    """
    return max(
        (
            len(positions)
            for group_key, positions in plan_batch(operations)
            if group_key is not None
        ),
        default=0,
    )


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

    This is the reference policy: the vectorized policies are contractually
    equivalent to it.  Not-found operations yield ``None`` results and count
    as errors, exactly as on the batched paths.
    """

    name: str = "serial"
    chosen_batch_sizes: list[int] = field(default_factory=list)

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


class _BatchedDispatch:
    """Shared ``execute`` for policies that dispatch via ``batches()``.

    Subclasses provide ``batches(engine, operations)`` yielding
    ``(batch_size, BatchResult)`` per slice; ``execute`` merges the slices
    into one :class:`BatchResult` with the same error/result semantics as
    serial dispatch.
    """

    def execute(
        self, engine: StorageEngine, operations: Sequence[Operation]
    ) -> BatchResult:
        oplist = list(operations)
        before = engine.counter.snapshot()
        start = time.perf_counter_ns()
        results = []
        errors = 0
        for _, outcome in self.batches(engine, oplist):
            results.extend(outcome.results)
            errors += outcome.errors
        return _merged_result(
            engine, results, errors, len(oplist), before, start
        )


@dataclass
class VectorizedPolicy(_BatchedDispatch):
    """Dispatch in fixed-size slices through ``engine.execute_batch``.

    ``batch_size`` bounds each slice; within a slice, operations group by
    commutation, however the client interleaved them -- every read sharing
    a group key between two writes rides one vectorized probe, and every
    insert, delete or key update between two reads rides one coalesced
    bulk write, in submission order within its kind, until a cross-kind
    reuse of a written key ends the stretch.  The rule is
    :func:`repro.storage.engine.plan_batch`.
    """

    batch_size: int = 256
    name: str = "vectorized"
    chosen_batch_sizes: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")

    def batches(
        self, engine: StorageEngine, operations: Sequence[Operation]
    ) -> Iterator[tuple[int, BatchResult]]:
        """Yield ``(batch_size, outcome)`` per dispatched slice."""
        oplist = list(operations)
        for start in range(0, len(oplist), self.batch_size):
            chunk = oplist[start : start + self.batch_size]
            outcome = engine.execute_batch(chunk)
            self.chosen_batch_sizes.append(len(chunk))
            yield len(chunk), outcome


@dataclass
class AdaptivePolicy(_BatchedDispatch):
    """Tune the batch size online from observed latency and run lengths.

    The policy walks a doubling/halving ladder of batch sizes between
    ``min_batch_size`` and ``max_batch_size``.  After every dispatched slice
    it records an exponential moving average of the per-operation wall-clock
    latency for the slice's size (simulated latency is recorded alongside,
    in :attr:`observations`), then picks the next size:

    * unexplored neighbour sizes are probed first, largest first -- and when
      the whole slice dispatched as a single group
      (:attr:`BatchResult.largest_group`, the slice's
      :func:`longest_groupable_run`), cut short only by the batch
      boundary, growing is forced before shrinking, since a longer batch
      directly extends the vectorized group;
    * once the neighbourhood is explored, the policy moves to the neighbour
      whose latency estimate beats the current size by more than
      ``tolerance``, so wall-clock noise cannot make it flap.

    Dispatch still goes through ``engine.execute_batch`` slice by slice, so
    results and simulated access counts obey the same equivalence contract
    as :class:`VectorizedPolicy` regardless of the sizes chosen.
    """

    initial_batch_size: int = 128
    min_batch_size: int = 16
    max_batch_size: int = 4_096
    smoothing: float = 0.5
    tolerance: float = 0.05
    name: str = "adaptive"
    chosen_batch_sizes: list[int] = field(default_factory=list)
    #: ``(batch_size, operations, wall_ns, simulated_ns, longest_run)`` per
    #: dispatched slice, in dispatch order.
    observations: list[tuple[int, int, float, float, int]] = field(
        default_factory=list
    )

    def __post_init__(self) -> None:
        if not 0 < self.min_batch_size <= self.max_batch_size:
            raise ValueError("need 0 < min_batch_size <= max_batch_size")
        if not 0.0 < self.smoothing <= 1.0:
            raise ValueError("smoothing must be in (0, 1]")
        self._current = min(
            max(self.initial_batch_size, self.min_batch_size),
            self.max_batch_size,
        )
        self._estimates: dict[int, float] = {}

    @property
    def current_batch_size(self) -> int:
        """The size the next dispatched slice will use."""
        return self._current

    def _neighbours(self, size: int) -> list[int]:
        candidates = {size}
        if size // 2 >= self.min_batch_size:
            candidates.add(size // 2)
        if size * 2 <= self.max_batch_size:
            candidates.add(size * 2)
        return sorted(candidates)

    def observe(
        self,
        batch_size: int,
        operations: int,
        wall_ns: float,
        simulated_ns: float,
        longest_run: int,
    ) -> None:
        """Feed one slice's measurements back and pick the next batch size."""
        self.observations.append(
            (batch_size, operations, wall_ns, simulated_ns, longest_run)
        )
        if operations <= 0:
            return
        if operations < batch_size:
            # A truncated tail slice measures fewer operations than the
            # chosen size; skip adaptation rather than learn from it.
            return
        ns_per_op = max(wall_ns, 1.0) / operations
        previous = self._estimates.get(batch_size)
        self._estimates[batch_size] = (
            ns_per_op
            if previous is None
            else previous + self.smoothing * (ns_per_op - previous)
        )
        neighbours = self._neighbours(batch_size)
        unexplored = [n for n in neighbours if n not in self._estimates]
        truncated_run = longest_run >= operations
        if unexplored:
            if truncated_run:
                grow = [n for n in unexplored if n > batch_size]
                self._current = max(grow) if grow else max(unexplored)
            else:
                self._current = max(unexplored)
            return
        best = min(neighbours, key=lambda n: self._estimates[n])
        if best != batch_size and self._estimates[best] < self._estimates[
            batch_size
        ] * (1.0 - self.tolerance):
            self._current = best
        else:
            self._current = batch_size

    def batches(
        self, engine: StorageEngine, operations: Sequence[Operation]
    ) -> Iterator[tuple[int, BatchResult]]:
        """Yield ``(batch_size, outcome)`` per dispatched slice, adapting."""
        oplist = list(operations)
        cursor = 0
        while cursor < len(oplist):
            size = self._current
            chunk = oplist[cursor : cursor + size]
            cursor += len(chunk)
            outcome = engine.execute_batch(chunk)
            self.chosen_batch_sizes.append(len(chunk))
            self.observe(
                size,
                len(chunk),
                outcome.wall_ns,
                outcome.simulated_ns(engine.constants),
                outcome.largest_group,
            )
            yield len(chunk), outcome
