"""Figure 14: leveraging ghost values.

Insert latency as a function of the ghost-value budget (0.01% to 10% of the
data size) for two update-intensive workloads (skewed and uniform; UDI1 and
UDI2 in the paper) and one hybrid skewed workload (YCSB-A2-like).  The paper
shows insert latency dropping as the budget grows, with ~2x lower insert
latency already at 1% ghost values.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...storage.layouts import LayoutKind
from ...workload.hap import HAPConfig, make_workload
from ..harness import build_hap_database, run_workload
from ..reporting import banner, format_table

WORKLOADS = (
    ("UDI1 (update-only, skewed)", "update_only_skewed"),
    ("UDI2 (update-only, uniform)", "update_only_uniform"),
    ("YCSB-A2 (hybrid, skewed)", "hybrid_skewed"),
)


@dataclass(frozen=True)
class Figure14Config:
    """Scale knobs for the ghost-value sweep."""

    num_rows: int = 131_072
    block_values: int = 1_024
    num_operations: int = 2_000
    ghost_fractions: tuple[float, ...] = (0.0001, 0.001, 0.01, 0.1)


def run(config: Figure14Config | None = None) -> dict[str, list[tuple]]:
    """Insert latency per workload and ghost fraction."""
    if config is None:
        config = Figure14Config()
    hap = HAPConfig(
        num_rows=config.num_rows,
        chunk_size=config.num_rows,
        block_values=config.block_values,
    )
    output: dict[str, list[tuple]] = {}
    for label, profile in WORKLOADS:
        rows = []
        training = make_workload(profile, hap, num_operations=config.num_operations, seed=7)
        for fraction in config.ghost_fractions:
            database = build_hap_database(
                LayoutKind.CASPER,
                hap,
                training_workload=training,
                ghost_fraction=fraction,
                monitor=False,
            )
            evaluation = make_workload(
                profile, hap, num_operations=config.num_operations, seed=42
            )
            result = run_workload(database, evaluation, layout_name="casper")
            rows.append(
                (
                    fraction,
                    result.mean_latency_ns.get("insert", 0.0) / 1000.0,
                    result.mean_latency_ns.get("update", 0.0) / 1000.0,
                    result.throughput_ops / 1000.0,
                )
            )
        output[label] = rows
    return output


def report(results: dict[str, list[tuple]]) -> str:
    """Format the Fig. 14 ghost-value sweep."""
    sections = [banner("Figure 14: insert latency vs ghost-value budget")]
    headers = ("ghost fraction", "insert latency (us)", "update latency (us)", "throughput (Kops)")
    for label, rows in results.items():
        sections.append(f"\n# {label}\n" + format_table(headers, rows))
    return "\n".join(sections)


def main() -> None:
    """Run and print the experiment."""
    print(report(run()))


if __name__ == "__main__":
    main()
