"""Benchmark harness: run workloads against databases and collect metrics.

The harness runs a :class:`~repro.workload.operations.Workload` through a
session of a :class:`~repro.api.database.Database` -- one serial call per
operation, or one :class:`~repro.api.policies.VectorizedPolicy` call per
slice -- and aggregates, per operation kind, the mean simulated latency
(the block-access cost each call's counter window charged, under the
configured constants), plus the workload's overall throughput (operations
per second of simulated time), which is the paper's headline metric
(Figures 1, 12, 13, 15).

``build_hap_database`` constructs the HAP table under any of the six layout
modes of Section 7 behind the :class:`Database` façade, feeding the Casper
mode through the planner with a training workload sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..api.database import Database
from ..api.policies import SerialPolicy, VectorizedPolicy
from ..core.constraints import SLAConstraints
from ..core.monitor import WorkloadMonitor
from ..storage.cost_accounting import CostConstants, constants_for_block_values
from ..storage.layouts import LayoutKind, LayoutSpec
from ..workload.hap import HAPConfig, generate_keys, generate_payload, make_workload
from ..workload.operations import Workload


@dataclass
class WorkloadRunResult:
    """Aggregated result of running one workload on one database."""

    layout: str
    workload: str
    operations: int
    simulated_seconds: float
    mean_latency_ns: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    p999_latency_ns: dict[str, float] = field(default_factory=dict)
    errors: int = 0
    #: Batch sizes dispatched, in order (empty on the sequential path).
    batch_sizes: list[int] = field(default_factory=list)

    @property
    def throughput_ops(self) -> float:
        """Operations per second of simulated time."""
        if self.simulated_seconds <= 0:
            return float("inf")
        return self.operations / self.simulated_seconds


def run_workload(
    database: Database,
    workload: Workload,
    *,
    layout_name: str = "",
    constants: CostConstants | None = None,
    batch_size: int | None = None,
) -> WorkloadRunResult:
    """Execute ``workload`` in one session of ``database`` and aggregate
    per-kind latencies, each call priced by its own counter window.

    Without ``batch_size`` every operation is one :class:`SerialPolicy`
    call, counted under its record kind (``op.attribution()[0]``); a miss
    counts as an error and its partial charge is left out.  With a
    positive ``batch_size`` every slice is one ``VectorizedPolicy`` call,
    counted under ``"batch"`` (a vectorized probe has no per-operation
    charge); a slice keeps its misses' partial charges, so the two modes'
    throughput diverges slightly on workloads that generate misses.
    """
    constants = constants if constants is not None else database.constants
    oplist = list(workload)
    if batch_size is None:
        policy = SerialPolicy()
        calls = [[operation] for operation in oplist]
    else:
        policy = VectorizedPolicy(batch_size)
        calls = [
            oplist[first : first + batch_size]
            for first in range(0, len(oplist), batch_size)
        ]
    simulated: dict[str, list[float]] = {}
    with database.session(execution=policy) as session:
        for call in calls:
            outcome = session.execute(call)
            if batch_size is not None:
                kind = "batch"
            elif outcome.errors:
                continue
            else:
                kind = call[0].attribution()[0]
            simulated.setdefault(kind, []).append(outcome.simulated_ns(constants))
    report = session.report()
    total_simulated_ns = sum(sum(values) for values in simulated.values())
    result = WorkloadRunResult(
        layout=layout_name,
        workload=workload.name,
        operations=report.operations - report.errors,
        simulated_seconds=total_simulated_ns * 1e-9,
        errors=report.errors,
        batch_sizes=report.batch_sizes,
    )
    for kind, values in simulated.items():
        array = np.asarray(values)
        result.mean_latency_ns[kind] = float(array.mean())
        result.p999_latency_ns[kind] = float(np.percentile(array, 99.9))
        result.counts[kind] = int(array.shape[0])
    return result


#: The layout comparison order used in the paper's Figures 12 and 13.
LAYOUT_ORDER: tuple[LayoutKind, ...] = (
    LayoutKind.CASPER,
    LayoutKind.EQUI_GV,
    LayoutKind.EQUI,
    LayoutKind.STATE_OF_ART,
    LayoutKind.SORTED,
    LayoutKind.NO_ORDER,
)


def build_hap_database(
    layout: LayoutKind,
    config: HAPConfig,
    *,
    training_workload: Workload | None = None,
    partitions: int = 64,
    ghost_fraction: float = 0.01,
    merge_threshold: float = 0.01,
    merge_entries: int | None = 16,
    sla: SLAConstraints | None = None,
    constants: CostConstants | None = None,
    monitor: WorkloadMonitor | bool | None = None,
) -> Database:
    """Build a HAP-table :class:`Database` under the requested layout mode.

    The Casper mode requires ``training_workload`` (the offline sample the
    planner learns the Frequency Model from) and keeps the planner attached
    so sessions can replan online; the other modes ignore it.  ``monitor``
    follows :class:`Database` semantics (default: attached exactly when a
    planner is; pass ``False`` for measurement runs that never replan).
    ``partitions`` controls the equi-width modes, matching the paper's setup
    where Casper is allowed at most as many partitions as the equi-width
    baselines.  ``merge_entries`` bounds the state-of-the-art delta store to a
    handful of buffered entries (continuous integration), which is what the
    paper's measurements of that design imply (its insert latency equals a
    full chunk reorganization, Fig. 13a); pass ``None`` to fall back to the
    fractional ``merge_threshold``.
    """
    constants = (
        constants
        if constants is not None
        else constants_for_block_values(config.block_values)
    )
    keys = generate_keys(config)
    payload = generate_payload(config)
    if layout is LayoutKind.CASPER:
        if training_workload is None:
            raise ValueError("the Casper layout requires a training workload")
        return Database.plan_for(
            training_workload,
            keys,
            payload,
            chunk_size=config.chunk_size,
            block_values=config.block_values,
            ghost_fraction=ghost_fraction,
            sla=sla,
            constants=constants,
            monitor=monitor,
        )
    spec = LayoutSpec(
        kind=layout,
        partitions=partitions,
        ghost_fraction=ghost_fraction,
        merge_threshold=merge_threshold,
        merge_entries=merge_entries,
        block_values=config.block_values,
    )
    return Database.from_rows(
        keys,
        payload,
        layout=spec,
        chunk_size=config.chunk_size,
        block_values=config.block_values,
        constants=constants,
        monitor=monitor,
    )


def compare_layouts(
    config: HAPConfig,
    profile: str,
    *,
    layouts: tuple[LayoutKind, ...] = LAYOUT_ORDER,
    num_operations: int = 2_000,
    training_operations: int | None = None,
    partitions: int = 64,
    ghost_fraction: float = 0.01,
    merge_entries: int | None = 16,
    training_seed: int = 7,
    run_seed: int = 42,
) -> dict[LayoutKind, WorkloadRunResult]:
    """Run one HAP workload profile across several layout modes.

    A *training* workload (a different random sample of the same profile) is
    used to tune the Casper layout; the *evaluation* workload is generated
    with a different seed, so Casper never sees the exact operations it is
    evaluated on.
    """
    training_operations = (
        training_operations if training_operations is not None else num_operations
    )
    training = make_workload(
        profile, config, num_operations=training_operations, seed=training_seed
    )
    results: dict[LayoutKind, WorkloadRunResult] = {}
    for layout in layouts:
        database = build_hap_database(
            layout,
            config,
            training_workload=training,
            partitions=partitions,
            ghost_fraction=ghost_fraction,
            merge_entries=merge_entries,
            # Layout comparison never replans mid-run; skip the per-op
            # attribution overhead.
            monitor=False,
        )
        evaluation = make_workload(
            profile, config, num_operations=num_operations, seed=run_seed
        )
        results[layout] = run_workload(
            database,
            evaluation,
            layout_name=layout.value,
            constants=database.constants,
        )
    return results


def normalized_throughput(
    results: dict[LayoutKind, WorkloadRunResult],
    baseline: LayoutKind = LayoutKind.STATE_OF_ART,
) -> dict[LayoutKind, float]:
    """Throughput of every layout normalized to the baseline (Fig. 12)."""
    base = results[baseline].throughput_ops
    return {
        layout: (result.throughput_ops / base if base > 0 else float("inf"))
        for layout, result in results.items()
    }
