"""Figure 13: per-operation latency drill-down.

For three representative workloads -- (a) hybrid with skewed point queries
and inserts (Q1/Q4/Q6), (b) read-only with point and range queries plus a few
updates (Q1/Q2/Q6), (c) update-only uniform (Q4/Q5/Q6) -- this experiment
reports the mean latency of each query type plus overall throughput for every
layout mode, which is where the paper shows Casper's three-orders-of-magnitude
cheaper inserts in (a) and its 2x+ advantage in (c).
"""

from __future__ import annotations

from dataclasses import dataclass

from ...workload.generator import WorkloadMix
from ...workload.hap import HAPConfig
from ...workload.generator import (
    HYBRID_SKEWED,
    READ_ONLY_SKEWED,
    UPDATE_ONLY_UNIFORM,
)
from ..harness import LAYOUT_ORDER, compare_layouts
from ..reporting import banner, format_table

PANELS: tuple[tuple[str, WorkloadMix], ...] = (
    ("(a) hybrid (Q1, Q4, Q6), skewed", HYBRID_SKEWED),
    ("(b) read-only (Q1, Q2, Q6), skewed", READ_ONLY_SKEWED),
    ("(c) update-only (Q4, Q5, Q6), uniform", UPDATE_ONLY_UNIFORM),
)

#: Operation kinds reported per panel (record kinds of the harness).
PANEL_KINDS = {
    "(a) hybrid (Q1, Q4, Q6), skewed": ("point_query", "insert", "update"),
    "(b) read-only (Q1, Q2, Q6), skewed": ("point_query", "range_count", "update"),
    "(c) update-only (Q4, Q5, Q6), uniform": ("insert", "delete", "update"),
}


@dataclass(frozen=True)
class Figure13Config:
    """Scale knobs for the drill-down experiment."""

    num_rows: int = 131_072
    block_values: int = 1_024
    num_operations: int = 2_000
    partitions: int = 64
    ghost_fraction: float = 0.01


def run(config: Figure13Config | None = None) -> dict[str, dict]:
    """Run the three panels and return per-layout results."""
    if config is None:
        config = Figure13Config()
    hap = HAPConfig(
        num_rows=config.num_rows,
        chunk_size=config.num_rows,
        block_values=config.block_values,
    )
    output: dict[str, dict] = {}
    for title, mix in PANELS:
        output[title] = compare_layouts(
            hap,
            mix,
            num_operations=config.num_operations,
            partitions=config.partitions,
            ghost_fraction=config.ghost_fraction,
        )
    return output


def report(results: dict[str, dict]) -> str:
    """Format the three panels of Figure 13."""
    sections = []
    for title, per_layout in results.items():
        kinds = PANEL_KINDS[title]
        headers = ["layout"] + [f"{kind} (us)" for kind in kinds] + [
            "throughput (Kops)"
        ]
        rows = []
        for layout in LAYOUT_ORDER:
            result = per_layout[layout]
            rows.append(
                [layout.value]
                + [result.mean_latency_ns.get(kind, 0.0) / 1000.0 for kind in kinds]
                + [result.throughput_ops / 1000.0]
            )
        sections.append(banner(f"Figure 13{title}") + "\n" + format_table(headers, rows))
    return "\n\n".join(sections)


def main() -> None:
    """Run and print the experiment."""
    print(report(run()))


if __name__ == "__main__":
    main()
