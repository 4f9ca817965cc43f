"""Benchmark harness: workload execution, reporting, experiments."""

from .harness import (
    LAYOUT_ORDER,
    WorkloadRunResult,
    build_hap_database,
    compare_layouts,
    normalized_throughput,
    run_workload,
)
from .reporting import banner, format_series, format_table

__all__ = [
    "LAYOUT_ORDER",
    "WorkloadRunResult",
    "banner",
    "build_hap_database",
    "compare_layouts",
    "format_series",
    "format_table",
    "normalized_throughput",
    "run_workload",
]
