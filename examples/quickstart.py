"""Quickstart: tailor a column layout to a hybrid workload with Casper.

This example walks the full pipeline of the paper through the session API:

1. declare the data and the workload to tune for -- ``Database.plan_for``
   learns the Frequency Model, solves the layout problem and allocates
   ghost values while the table loads (Fig. 10, steps A-C),
2. open a ``Session`` with a vectorized execution policy and run the
   evaluation workload against the tailored layout and two baselines,
3. let a ``ReorgPolicy``-equipped session absorb a *drifted* workload
   phase: drift is detected per chunk, a candidate layout is solved for
   the observed operation mix, and the chunk is rebuilt in place only when
   the modeled savings beat the rebuild charge.

Run with::

    python examples/quickstart.py

Migrating from the engine-level API: ``StorageEngine(table).execute`` becomes
``Database.plan_for(...)`` / ``Database.from_rows(...)`` +
``db.session(...).execute``, which also prices each call; the engine stays
reachable as ``db.engine`` (returning plain results) for code that still
wants the low-level entry points.
"""

from __future__ import annotations

import numpy as np

from repro.api import Database, ReorgPolicy, VectorizedPolicy
from repro.bench.reporting import format_table
from repro.storage.layouts import LayoutKind
from repro.workload.distributions import EarlySkewSampler
from repro.workload.generator import WorkloadGenerator, WorkloadMix
from repro.workload.hap import HAPConfig, generate_keys, generate_payload, make_workload


def compare_layouts() -> None:
    """Casper vs. baselines on the paper's hybrid skewed profile."""
    # A 64K-row HAP table with 16KB blocks scaled down to 4KB (1024 values).
    config = HAPConfig(num_rows=65_536, chunk_size=65_536, block_values=1_024)
    keys, payload = generate_keys(config), generate_payload(config)

    # The offline sample the planner learns from (Fig. 10, step A) and a
    # *different* sample used for evaluation.
    training = make_workload("hybrid_skewed", config, num_operations=2_000, seed=7)
    evaluation = make_workload("hybrid_skewed", config, num_operations=2_000, seed=42)

    rows = []
    throughputs = []
    for label, build in (
        (
            "casper",
            lambda: Database.plan_for(
                training,
                keys,
                payload,
                chunk_size=config.chunk_size,
                block_values=config.block_values,
                ghost_fraction=0.001,
            ),
        ),
        (
            "state-of-the-art",
            lambda: Database.from_rows(
                keys,
                payload,
                layout=LayoutKind.STATE_OF_ART,
                chunk_size=config.chunk_size,
                block_values=config.block_values,
            ),
        ),
        (
            "sorted",
            lambda: Database.from_rows(
                keys,
                payload,
                layout=LayoutKind.SORTED,
                chunk_size=config.chunk_size,
                block_values=config.block_values,
            ),
        ),
    ):
        db = build()
        with db.session(execution=VectorizedPolicy()) as session:
            session.execute(list(evaluation))
        report = session.report()
        throughputs.append(report.throughput_ops)
        # Per-operation simulated latency is deterministic and comparable
        # across layouts.
        rows.append(
            (
                label,
                report.simulated_ns_total / report.operations / 1_000.0,
                report.throughput_ops / 1_000.0,
            )
        )

    print("Hybrid workload (Q1 49%, Q4 50%, Q6 1%), skewed accesses\n")
    print(
        format_table(
            ("layout", "mean op (us, simulated)", "throughput (Kops)"),
            rows,
        )
    )
    print(
        "\nCasper vs state-of-the-art delta store: "
        f"{throughputs[0] / throughputs[1]:.2f}x"
    )


def drifting_session() -> None:
    """The automatic reorganization lifecycle on a drifting workload."""
    num_rows = 65_536
    keys = np.arange(num_rows, dtype=np.int64) * 2
    generator = WorkloadGenerator(
        keys, domain_low=0, domain_high=2 * num_rows - 2, seed=3
    )
    insert_heavy = WorkloadMix(name="insert-heavy", q4_insert=0.9, q1_point=0.1)
    point_heavy = WorkloadMix(
        name="point-heavy",
        q1_point=0.97,
        q2_range_count=0.03,
        read_sampler=EarlySkewSampler(),
    )

    # Train for the insert-heavy phase, then serve the drifted point-heavy
    # phase in rounds; the session replans drifted chunks between rounds.
    training = generator.generate(insert_heavy, 1_500)
    drifted = list(
        WorkloadGenerator(
            keys, domain_low=0, domain_high=2 * num_rows - 2, seed=9
        ).generate(point_heavy, 6_000)
    )

    def serve(reorg: ReorgPolicy | None) -> float:
        db = Database.plan_for(
            training, keys, chunk_size=16_384, block_values=1_024
        )
        with db.session(execution=VectorizedPolicy(), reorg=reorg) as session:
            for start in range(0, len(drifted), 1_000):
                session.execute(drifted[start : start + 1_000])
        report = session.report()
        for decision in report.reorg_decisions:
            if decision.replanned:
                print(
                    f"  replanned chunk {decision.chunk_index}: "
                    f"drift {decision.drift:.2f}, modeled savings "
                    f"{decision.modeled_savings_ns / 1e3:.0f}us vs rebuild "
                    f"{decision.rebuild_cost_ns / 1e3:.0f}us"
                )
        return report.simulated_seconds

    print("\nDrifting workload (insert-heavy training -> point-heavy phase)")
    frozen = serve(None)
    replanned = serve(
        ReorgPolicy(drift_threshold=0.25, min_chunk_operations=256)
    )
    print(
        f"simulated time without reorg {frozen * 1e3:.2f}ms, "
        f"with cost-gated auto-replan {replanned * 1e3:.2f}ms "
        f"({frozen / replanned:.2f}x)"
    )


def main() -> None:
    compare_layouts()
    drifting_session()


if __name__ == "__main__":
    main()
