"""Ablation: sensitivity of the optimal layout to the cost constants.

The RR/SR ratio is fitted per machine (Section 4.5).  This ablation sweeps
the sequential-to-random cost ratio across a realistic range and checks that
the optimizer's layout (and its qualitative shape: fine partitions for read
regions, coarse for write regions) is stable, i.e. the results do not hinge
on one particular calibration.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cost_model import CostModel
from repro.core.dp_solver import solve_dp
from repro.core.frequency_model import FrequencyModel
from repro.storage.cost_accounting import CostConstants


def skewed_model(num_blocks: int = 128) -> FrequencyModel:
    model = FrequencyModel(num_blocks)
    # Reads hammer the last quarter of the domain, inserts the first quarter.
    model.pq[3 * num_blocks // 4 :] = 50
    model.ins[: num_blocks // 4] = 50
    return model


def optimal_partitions(seq_to_random_ratio: float) -> int:
    constants = CostConstants(
        random_read=100.0,
        random_write=100.0,
        seq_read=100.0 * seq_to_random_ratio,
        seq_write=100.0 * seq_to_random_ratio,
    )
    result = solve_dp(CostModel(skewed_model(), constants))
    return result.num_partitions


@pytest.mark.xfail(
    strict=True,
    reason=(
        "paper fidelity gap: partition counts across SR/RR ratios "
        "(0.5, 2, 8, 32) are [4, 7, 12, 17] against a bound of >= 8 each"
    ),
)
def test_layout_stability_across_constants(benchmark):
    """The read-hot region stays finely partitioned across a 100x ratio sweep."""
    ratios = (0.5, 2.0, 8.0, 32.0)
    counts = benchmark.pedantic(
        lambda: [optimal_partitions(ratio) for ratio in ratios],
        iterations=1,
        rounds=1,
    )
    print(f"\npartition counts across SR/RR ratios {ratios}: {counts}")
    # Every calibration keeps substantial structure (read region needs it)...
    assert all(count >= 8 for count in counts)
    # ...and never explodes into one-partition-per-block everywhere.
    model = skewed_model()
    assert all(count <= model.num_blocks for count in counts)


def test_structure_follows_skew(benchmark):
    """Partitions are finer in the read-hot region than in the insert region."""

    def widths():
        constants = CostConstants(
            random_read=100.0, random_write=100.0, seq_read=800.0, seq_write=800.0
        )
        result = solve_dp(CostModel(skewed_model(), constants))
        ends = result.boundary_blocks
        starts = np.concatenate(([0], ends[:-1]))
        sizes = ends - starts
        mids = (starts + ends) / 2
        read_region = sizes[mids >= 96].mean() if np.any(mids >= 96) else np.inf
        write_region = sizes[mids < 32].mean() if np.any(mids < 32) else np.inf
        return read_region, write_region

    read_width, write_width = benchmark.pedantic(widths, iterations=1, rounds=1)
    print(f"\nmean partition width: read-hot {read_width:.1f} blocks, "
          f"insert-hot {write_width:.1f} blocks")
    assert read_width <= write_width
