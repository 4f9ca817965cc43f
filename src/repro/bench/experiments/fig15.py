"""Figure 15: meeting performance constraints (insert SLAs).

A hybrid workload (Q1 89%, Q4 10%, Q6 1%) is executed under layouts optimized
with progressively tighter insert SLAs.  The insert latency should track the
SLA (fewer partitions -> cheaper worst-case ripple) while the overall
throughput degrades only marginally (< 3% in the paper) and the update cost
rises slightly (locating the value to update becomes more expensive with
coarser partitions).
"""

from __future__ import annotations

from dataclasses import dataclass

from ...core.constraints import SLAConstraints
from ...storage.layouts import LayoutKind
from ...workload.hap import HAPConfig, make_workload
from ..harness import build_hap_database, run_workload
from ..reporting import banner, format_table


@dataclass(frozen=True)
class Figure15Config:
    """Scale knobs for the SLA experiment."""

    num_rows: int = 131_072
    block_values: int = 1_024
    num_operations: int = 2_000
    ghost_fraction: float = 0.001
    insert_slas_us: tuple[float | None, ...] = (
        None,
        12.5,
        10.0,
        7.5,
        6.25,
        3.75,
        2.5,
        2.0,
        1.5,
    )


def run(config: Figure15Config | None = None) -> list[tuple]:
    """Rows of (SLA, Q1 latency, Q4 latency, Q4 p99.9, Q6 latency, throughput)."""
    if config is None:
        config = Figure15Config()
    hap = HAPConfig(
        num_rows=config.num_rows,
        chunk_size=config.num_rows,
        block_values=config.block_values,
    )
    training = make_workload(
        "sla_hybrid", hap, num_operations=config.num_operations, seed=7
    )
    rows = []
    for sla_us in config.insert_slas_us:
        sla = (
            SLAConstraints(update_sla_ns=sla_us * 1000.0)
            if sla_us is not None
            else None
        )
        database = build_hap_database(
            LayoutKind.CASPER,
            hap,
            training_workload=training,
            ghost_fraction=config.ghost_fraction,
            sla=sla,
            monitor=False,
        )
        evaluation = make_workload(
            "sla_hybrid", hap, num_operations=config.num_operations, seed=42
        )
        result = run_workload(database, evaluation, layout_name="casper")
        rows.append(
            (
                "none" if sla_us is None else sla_us,
                result.mean_latency_ns.get("point_query", 0.0) / 1000.0,
                result.mean_latency_ns.get("insert", 0.0) / 1000.0,
                result.p999_latency_ns.get("insert", 0.0) / 1000.0,
                result.mean_latency_ns.get("update", 0.0) / 1000.0,
                result.throughput_ops / 1000.0,
            )
        )
    return rows


def report(rows: list[tuple]) -> str:
    """Format the Fig. 15 SLA sweep."""
    headers = (
        "insert SLA (us)",
        "Q1 latency (us)",
        "Q4 latency (us)",
        "Q4 p99.9 (us)",
        "Q6 latency (us)",
        "throughput (Kops)",
    )
    return (
        banner("Figure 15: meeting insert SLAs (Q1 89%, Q4 10%, Q6 1%)")
        + "\n"
        + format_table(headers, rows)
    )


def main() -> None:
    """Run and print the experiment."""
    print(report(run()))


if __name__ == "__main__":
    main()
