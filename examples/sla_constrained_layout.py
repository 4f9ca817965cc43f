"""Example: meeting an insert SLA with a constrained layout (Section 5).

A dashboard application needs every insert to complete within a latency
budget, but still wants the best possible read performance.  This example
optimizes the same workload under progressively tighter insert SLAs and shows
how the layout (number of partitions) and the resulting latencies change --
the behaviour of the paper's Figure 15.

Run with::

    python examples/sla_constrained_layout.py
"""

from __future__ import annotations

from repro.bench.harness import build_hap_database, run_workload
from repro.bench.reporting import format_table
from repro.core.constraints import SLAConstraints
from repro.storage.layouts import LayoutKind
from repro.workload.hap import HAPConfig, make_workload


def main() -> None:
    config = HAPConfig(num_rows=65_536, chunk_size=65_536, block_values=1_024)
    training = make_workload("sla_hybrid", config, num_operations=2_000, seed=7)
    evaluation = make_workload("sla_hybrid", config, num_operations=2_000, seed=42)

    rows = []
    for sla_us in (None, 10.0, 5.0, 2.0):
        sla = SLAConstraints(update_sla_ns=sla_us * 1_000) if sla_us else None
        database = build_hap_database(
            LayoutKind.CASPER,
            config,
            training_workload=training,
            ghost_fraction=0.001,
            sla=sla,
            monitor=False,
        )
        partitions = database.table.chunks[0].num_partitions
        result = run_workload(database, evaluation, layout_name="casper")
        rows.append(
            (
                "none" if sla_us is None else f"{sla_us:.1f}",
                partitions,
                result.mean_latency_ns.get("point_query", 0.0) / 1000.0,
                result.mean_latency_ns.get("insert", 0.0) / 1000.0,
                result.p999_latency_ns.get("insert", 0.0) / 1000.0,
                result.throughput_ops / 1000.0,
            )
        )

    print("Hybrid workload (Q1 89%, Q4 10%, Q6 1%) under insert SLAs\n")
    print(
        format_table(
            (
                "insert SLA (us)",
                "partitions",
                "Q1 latency (us)",
                "Q4 latency (us)",
                "Q4 p99.9 (us)",
                "throughput (Kops)",
            ),
            rows,
        )
    )
    print(
        "\nTighter SLAs force fewer partitions: the worst-case ripple shortens "
        "(p99.9 insert latency tracks the SLA) while throughput barely moves."
    )


if __name__ == "__main__":
    main()
