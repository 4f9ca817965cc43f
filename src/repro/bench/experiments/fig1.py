"""Figure 1: motivating experiment.

A hybrid workload with transactional access patterns (point queries, TPC-H
style inserts) and the analytical TPC-H Q6 range query is executed on three
storage designs: a vanilla column-store (no write optimization), the
state-of-the-art sorted column with a delta store, and Casper's
workload-tailored layout.  The paper reports ~2x for the delta store over the
vanilla column-store and a further ~4x for Casper.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...api.database import Database
from ...core.planner import CasperPlanner
from ...storage.cost_accounting import constants_for_block_values
from ...storage.layouts import LayoutKind, LayoutSpec
from ...storage.table import layout_chunk_builder
from ...workload.tpch import TPCHConfig, build_lineitem_table, figure1_workload
from ..harness import WorkloadRunResult, run_workload
from ..reporting import banner, format_table


@dataclass(frozen=True)
class Figure1Config:
    """Scale knobs for the Figure 1 experiment."""

    num_rows: int = 131_072
    block_values: int = 1_024
    num_operations: int = 2_000
    ghost_fraction: float = 0.01
    #: Absolute delta merge trigger, reflecting the continuous integration of
    #: the delta store in state-of-the-art systems (see DESIGN.md).
    merge_entries: int = 16


LAYOUTS = (
    ("vanilla column-store", LayoutKind.NO_ORDER),
    ("col-store with delta (state-of-art)", LayoutKind.STATE_OF_ART),
    ("optimal column layout (Casper)", LayoutKind.CASPER),
)


def run(config: Figure1Config | None = None) -> dict[str, WorkloadRunResult]:
    """Run the Figure 1 comparison and return per-layout results."""
    if config is None:
        config = Figure1Config()
    tpch = TPCHConfig(
        num_rows=config.num_rows,
        chunk_size=config.num_rows,
        block_values=config.block_values,
    )
    constants = constants_for_block_values(config.block_values)
    training = figure1_workload(
        tpch, num_operations=config.num_operations, seed=3
    )
    evaluation = figure1_workload(
        tpch, num_operations=config.num_operations, seed=17
    )
    results: dict[str, WorkloadRunResult] = {}
    for name, kind in LAYOUTS:
        if kind is LayoutKind.CASPER:
            planner = CasperPlanner(
                sample_workload=training,
                block_values=config.block_values,
                ghost_fraction=config.ghost_fraction,
                constants=constants,
            )
            table = build_lineitem_table(tpch, planner.build_chunk)
        else:
            spec = LayoutSpec(
                kind=kind,
                block_values=config.block_values,
                ghost_fraction=config.ghost_fraction,
                merge_entries=config.merge_entries,
            )
            table = build_lineitem_table(tpch, layout_chunk_builder(spec))
        database = Database(table, constants=constants, monitor=False)
        results[name] = run_workload(
            database, evaluation, layout_name=name, constants=constants
        )
    return results


def report(results: dict[str, WorkloadRunResult]) -> str:
    """Format the Fig. 1 bars: per-operation latency and throughput."""
    rows = []
    for name, result in results.items():
        rows.append(
            (
                name,
                result.mean_latency_ns.get("point_query", 0.0) / 1000.0,
                result.mean_latency_ns.get("range_sum", 0.0) / 1000.0,
                result.mean_latency_ns.get("insert", 0.0) / 1000.0,
                result.throughput_ops,
            )
        )
    table = format_table(
        (
            "layout",
            "point query (us)",
            "range query / TPC-H Q6 (us)",
            "insert (us)",
            "throughput (op/s)",
        ),
        rows,
    )
    baseline = results[LAYOUTS[0][0]].throughput_ops
    delta = results[LAYOUTS[1][0]].throughput_ops
    casper = results[LAYOUTS[2][0]].throughput_ops
    summary = (
        f"\ndelta-store vs vanilla: {delta / baseline:.2f}x, "
        f"Casper vs delta-store: {casper / delta:.2f}x, "
        f"Casper vs vanilla: {casper / baseline:.2f}x"
    )
    return banner("Figure 1: hybrid workload motivation") + "\n" + table + summary


def main() -> None:
    """Run and print the experiment."""
    print(report(run()))


if __name__ == "__main__":
    main()
