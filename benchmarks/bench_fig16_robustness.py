"""Figure 16 benchmark: robustness to workload uncertainty."""

from __future__ import annotations

import pytest

from repro.bench.experiments import fig16


@pytest.mark.xfail(
    strict=True,
    reason=(
        "paper fidelity gap: a 10% rotational shift costs 1.986x the "
        "unshifted layout against a bound of 1.25x"
    ),
)
def test_fig16_robustness(benchmark):
    """Small shifts are absorbed; large rotational shifts hit a cliff."""
    config = fig16.Figure16Config(num_blocks=256, operations=10_000)
    results = benchmark.pedantic(fig16.run, args=(config,), iterations=1, rounds=1)
    print()
    print(fig16.report(results))
    matrix = results["matrix"]
    rotations = list(results["rotational_shifts"])
    zero_mass = matrix[0.0]
    baseline = zero_mass[rotations.index(0.0)]
    small_shift = zero_mass[rotations.index(0.10)]
    large_shift = max(zero_mass)
    assert baseline == 1.0
    # Up to ~10% rotation the penalty is small...
    assert small_shift <= 1.25
    # ...but larger shifts expose a visible penalty (the paper's cliff).
    assert large_shift > small_shift
