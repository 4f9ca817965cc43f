"""The :class:`Database` façade: declarative stack construction.

Where the lower layers expose planner, table, engine and monitor as
separate components the caller wires by hand, :class:`Database` builds the
whole stack from a declaration of *what* to store and *which* workload to
tune for:

* :meth:`Database.from_rows` loads rows under one of the fixed layout
  modes (sorted, equi-width, delta store, ...);
* :meth:`Database.plan_for` runs the paper's offline pipeline -- learn the
  Frequency Model from a workload sample, optimize per-chunk layouts,
  allocate ghost values -- and keeps the planner attached so sessions can
  replan drifted chunks online;
* :meth:`Database.session` opens the execution surface: a context-managed
  :class:`~repro.api.session.Session` with pluggable execution and
  reorganization policies;
* the durability surface: pass ``durability=`` (a log-directory path or a
  :class:`~repro.durability.manager.DurabilityConfig`) to
  :meth:`from_rows` / :meth:`plan_for` to write-ahead-log every write and
  take a baseline snapshot, then :meth:`Database.open` recovers the stored
  state (latest snapshot + WAL replay), :meth:`checkpoint` takes a new
  snapshot and rotates the log, and :meth:`close` fsyncs the tail and
  releases the log.

The engine (with its workload monitor) stays reachable through
``db.engine`` as the compatibility layer for pre-façade code.
"""

from __future__ import annotations

import os
from typing import Sequence

import numpy as np

from ..core.constraints import SLAConstraints
from ..core.monitor import WorkloadMonitor
from ..core.planner import CasperPlanner
from ..durability.manager import DurabilityConfig, DurabilityManager
from ..durability.recovery import recover, spec_to_meta
from ..storage.cost_accounting import (
    DEFAULT_BLOCK_VALUES,
    CostConstants,
    constants_for_block_values,
)
from ..storage.engine import EngineStatistics, StorageEngine
from ..storage.layouts import LayoutKind, LayoutSpec
from ..storage.table import Table, layout_chunk_builder
from ..workload.operations import Workload
from .policies import ExecutionPolicy
from .reorg import ReorgPolicy
from .reorganizer import Reorganizer
from .session import FollowerSession, Session


def _durability_config(
    durability: "str | os.PathLike | DurabilityConfig | None",
) -> DurabilityConfig | None:
    if durability is None or isinstance(durability, DurabilityConfig):
        return durability
    return DurabilityConfig(root=durability)


class Database:
    """Declarative façade over the planner/table/engine/monitor stack.

    Most callers construct one through :meth:`from_rows` or
    :meth:`plan_for`; the constructor itself wraps an existing
    :class:`Table` (attaching a fresh engine and workload monitor), which is
    the migration path for code that already builds tables directly.
    """

    def __init__(
        self,
        table: Table,
        *,
        constants: CostConstants | None = None,
        planner: CasperPlanner | None = None,
        monitor: WorkloadMonitor | bool | None = None,
    ) -> None:
        self.table = table
        self.constants = (
            constants
            if constants is not None
            else constants_for_block_values(table.block_values)
        )
        self.planner = planner
        # Monitoring costs a per-operation attribution on the hot path and
        # only pays off where a planner can act on it, so by default it is
        # attached exactly when a planner is (pass ``True``/an instance to
        # force it on, ``False`` to force it off).
        if monitor is None:
            monitor = planner is not None
        if monitor is True:
            monitor = WorkloadMonitor()
        elif monitor is False:
            monitor = None
        self.monitor = monitor
        self.engine = StorageEngine(
            table, constants=self.constants, monitor=self.monitor
        )
        #: Attached :class:`DurabilityManager`, or ``None`` (memory-only).
        self.durability: DurabilityManager | None = None
        #: :class:`~repro.durability.recovery.RecoveryReport` when this
        #: database was built by :meth:`open`, else ``None``.
        self.recovery = None
        #: Attached :class:`~repro.replication.follower.Follower` when this
        #: database was built by :meth:`follow`, else ``None``.
        self.follower = None

    def _attach_durability(
        self,
        config: DurabilityConfig,
        *,
        layout_spec: LayoutSpec | None,
    ) -> None:
        meta = {
            "chunk_size": self.table.chunk_size,
            "block_values": self.table.block_values,
            "payload_names": list(self.table.payload_names),
            "layout_spec": spec_to_meta(layout_spec),
        }
        manager = DurabilityManager(config, meta=meta)
        self.durability = manager
        self.engine.attach_durability(manager)
        # Baseline snapshot: makes a freshly-created database recoverable
        # before its first checkpoint call.
        manager.checkpoint(self.table)

    # ------------------------------------------------------------------ #
    # Declarative constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_rows(
        cls,
        keys: np.ndarray | Sequence[int],
        payload: np.ndarray | None = None,
        *,
        layout: LayoutKind | LayoutSpec = LayoutKind.SORTED,
        chunk_size: int = 1_000_000,
        block_values: int = DEFAULT_BLOCK_VALUES,
        partitions: int = 64,
        ghost_fraction: float = 0.01,
        merge_threshold: float = 0.01,
        merge_entries: int | None = 16,
        payload_names: Sequence[str] | None = None,
        constants: CostConstants | None = None,
        monitor: WorkloadMonitor | bool | None = None,
        durability: "str | os.PathLike | DurabilityConfig | None" = None,
    ) -> "Database":
        """Load rows under a fixed layout mode.

        ``layout`` is either a :class:`LayoutKind` (with the partitioning
        knobs passed alongside) or a fully-specified :class:`LayoutSpec`.
        The Casper mode needs a workload sample to tune for -- use
        :meth:`plan_for` instead.  No workload monitor is attached unless
        requested (``monitor=True``): without a planner there is nothing to
        replan, so per-operation attribution would be pure overhead.

        Pass ``durability`` (a log-directory path or a
        :class:`DurabilityConfig`) to make writes durable: every write
        batch is write-ahead logged before its results return, a baseline
        snapshot is taken at load, and :meth:`Database.open` on the same
        directory recovers the stored state after a crash or restart.
        """
        if isinstance(layout, LayoutSpec):
            spec = layout
            # The spec's block size governs the physical layout; the table
            # and the cost constants must price the same block size.
            block_values = spec.block_values
        else:
            if layout is LayoutKind.CASPER:
                raise ValueError(
                    "the Casper layout is workload-driven; "
                    "use Database.plan_for(workload, keys, ...)"
                )
            spec = LayoutSpec(
                kind=layout,
                partitions=partitions,
                ghost_fraction=ghost_fraction,
                merge_threshold=merge_threshold,
                merge_entries=merge_entries,
                block_values=block_values,
            )
        table = Table(
            keys,
            payload,
            chunk_size=chunk_size,
            chunk_builder=layout_chunk_builder(spec),
            payload_names=payload_names,
            block_values=block_values,
        )
        database = cls(table, constants=constants, monitor=monitor)
        config = _durability_config(durability)
        if config is not None:
            database._attach_durability(config, layout_spec=spec)
        return database

    @classmethod
    def plan_for(
        cls,
        workload: Workload,
        keys: np.ndarray | Sequence[int],
        payload: np.ndarray | None = None,
        *,
        chunk_size: int = 1_000_000,
        block_values: int = DEFAULT_BLOCK_VALUES,
        ghost_fraction: float = 0.001,
        sla: SLAConstraints | None = None,
        payload_names: Sequence[str] | None = None,
        constants: CostConstants | None = None,
        monitor: WorkloadMonitor | bool | None = None,
        durability: "str | os.PathLike | DurabilityConfig | None" = None,
    ) -> "Database":
        """Build a Casper-planned database tuned for ``workload``.

        Runs the offline pipeline of Fig. 10 (A-C): the planner learns the
        Frequency Model from the sample, solves every chunk's layout and
        allocates ghost values while the table loads.  The planner stays
        attached, so sessions opened with a
        :class:`~repro.api.reorg.ReorgPolicy` can replan drifted chunks
        online against their observed mixes.  A workload monitor is
        attached by default (the reorg lifecycle needs it); pass
        ``monitor=False`` when no session will ever replan and the per-op
        attribution overhead is unwanted.
        """
        constants = (
            constants
            if constants is not None
            else constants_for_block_values(block_values)
        )
        planner = CasperPlanner(
            sample_workload=workload,
            block_values=block_values,
            ghost_fraction=ghost_fraction,
            constants=constants,
            sla=sla,
        )
        table = Table(
            keys,
            payload,
            chunk_size=chunk_size,
            chunk_builder=planner.build_chunk,
            payload_names=payload_names,
            block_values=block_values,
        )
        database = cls(
            table, constants=constants, planner=planner, monitor=monitor
        )
        config = _durability_config(durability)
        if config is not None:
            # Planner-built chunks have no serializable LayoutSpec: the
            # manifest records ``layout_spec: null`` and the chunks recover
            # under the sorted builder, a documented divergence that
            # layout-preserving snapshots would retire (ROADMAP, the
            # durable path's item (b)).
            database._attach_durability(config, layout_spec=None)
        return database

    @classmethod
    def open(
        cls,
        durability: "str | os.PathLike | DurabilityConfig",
        *,
        constants: CostConstants | None = None,
        monitor: WorkloadMonitor | bool | None = None,
    ) -> "Database":
        """Recover the database stored under a durability log directory.

        Rebuilds the table as *latest intact snapshot + WAL replay* (see
        :mod:`repro.durability.recovery`), truncates any CRC-rejected torn
        tail off the log, and re-attaches a durability manager so writes
        resume appending where the recovered history ends.  The recovery
        account is kept on :attr:`recovery`.  Global row ids are
        renumbered by recovery; the logical row multiset is preserved.
        """
        config = _durability_config(durability)
        table, report = recover(config.root)
        database = cls(table, constants=constants, monitor=monitor)
        # The stored manifest metadata (layout spec included) carries over
        # to the snapshots this incarnation will take.
        manager = DurabilityManager(
            config, meta=report.meta, next_lsn=report.last_lsn + 1
        )
        database.durability = manager
        database.engine.attach_durability(manager)
        database.recovery = report
        return database

    @classmethod
    def follow(
        cls,
        root: "str | os.PathLike",
        *,
        primary=None,
        follower_id: str | None = None,
        constants: CostConstants | None = None,
        poll_interval: float = 0.02,
        start: bool = True,
        catch_up: bool = True,
    ) -> "Database":
        """Open a read-only replica of the database logged under ``root``.

        Bootstraps a :class:`~repro.replication.follower.Follower` from
        the latest snapshot, optionally catches it up synchronously and
        starts its background tailing thread, and wraps the replica table
        in a database whose :meth:`session` hands out read-only
        :class:`~repro.api.session.FollowerSession` objects with
        ``lag_lsn`` / ``caught_up`` introspection.

        ``primary`` is the watermark endpoint -- a
        :class:`~repro.replication.primary.Primary` over the live
        database's durability manager (same process), a
        :class:`~repro.replication.transport.RemotePrimary` (socket, other
        process), or ``None`` for offline tailing of a dead primary's
        directory.  With an endpoint attached the follower applies only
        fsync-covered records and pins WAL retention at its cursor;
        :meth:`close` releases the pin.
        """
        from ..replication.follower import Follower

        follower = Follower(
            root,
            primary=primary,
            follower_id=follower_id,
            poll_interval=poll_interval,
        )
        if catch_up:
            follower.catch_up()
        if start:
            follower.start()
        database = cls(follower.table, constants=constants, monitor=False)
        database.follower = follower
        return database

    @classmethod
    def sharded(
        cls,
        keys: np.ndarray | Sequence[int],
        payload: np.ndarray | None = None,
        *,
        n_shards: int = 2,
        **options,
    ):
        """Load rows into a multi-process sharded database.

        Splits the key space across ``n_shards`` worker processes (each
        running its own engine, durability manager and reorganizer) and
        returns a :class:`~repro.sharding.database.ShardedDatabase` whose
        :meth:`~repro.sharding.database.ShardedDatabase.session` speaks
        the :class:`Session` execution surface with serial-oracle
        results.  See :meth:`ShardedDatabase.from_rows` for the options
        (``durability=``, ``plan=``, ``cluster=``, ...).
        """
        from ..sharding.database import ShardedDatabase

        return ShardedDatabase.from_rows(
            keys, payload, n_shards=n_shards, **options
        )

    # ------------------------------------------------------------------ #
    # Durability lifecycle
    # ------------------------------------------------------------------ #

    @property
    def read_only(self) -> bool:
        """Whether the durability layer degraded to read-only mode."""
        return self.durability is not None and self.durability.read_only

    def checkpoint(self):
        """Snapshot the current state and rotate the WAL.

        Returns the :class:`~repro.durability.snapshot.SnapshotInfo`.
        Bounds recovery replay at the cost of one chunk-by-chunk snapshot;
        durable writes are excluded while it runs, reads are not.
        """
        if self.durability is None:
            raise RuntimeError("no durability manager attached")
        return self.durability.checkpoint(self.table)

    def sync(self) -> int:
        """Force a group-commit fsync; returns the durable LSN."""
        if self.durability is None:
            raise RuntimeError("no durability manager attached")
        return self.durability.sync()

    def close(self) -> None:
        """Release the durability layer (idempotent): fsync the WAL tail
        and close its descriptors.  On a follower database, stops the
        tailing thread and releases the primary-side retention pin.
        Memory-only databases are a no-op."""
        if self.follower is not None:
            self.follower.close()
        if self.durability is not None:
            self.durability.close()

    # ------------------------------------------------------------------ #
    # Sessions
    # ------------------------------------------------------------------ #

    def session(
        self,
        *,
        execution: ExecutionPolicy | None = None,
        reorg: ReorgPolicy | Reorganizer | None = None,
    ) -> Session:
        """Open a :class:`Session` with the given policies.

        ``execution`` defaults to serial dispatch; pass
        :class:`~repro.api.policies.VectorizedPolicy` for the batched fast
        paths.  ``reorg`` enables the automatic reorganization lifecycle:
        a :class:`~repro.api.reorganizer.Reorganizer` drains replans in
        budgeted slices between execute calls or on a background worker
        thread; a bare :class:`~repro.api.reorg.ReorgPolicy` is shorthand
        for ``Reorganizer(policy, chunk_budget=None)``, which replans
        inside the execute call that trips the drift check.

        Multiple live sessions may be open at once -- one per thread --
        over this one database; their executions interleave under the
        table's chunk-granular latches (see :mod:`repro.storage.table`).
        Execution policies are stateless values, safe to share between
        sessions; so is a single :class:`Reorganizer` (and the
        :class:`ReorgPolicy` inside it), whose background worker keeps
        running until the last sharing session closes.

        On a follower database (built with :meth:`follow`) the session is
        a read-only :class:`FollowerSession`; ``reorg`` must be ``None``
        (a replan would fight the replication applier for the chunks).
        """
        if self.follower is not None:
            if reorg is not None:
                raise ValueError(
                    "follower databases do not reorganize: their layout "
                    "follows the primary's snapshots; pass reorg=None"
                )
            return FollowerSession(self, execution=execution)
        return Session(self, execution=execution, reorg=reorg)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def num_rows(self) -> int:
        """Number of live rows."""
        return self.table.num_rows

    @property
    def num_chunks(self) -> int:
        """Number of column chunks backing the key column."""
        return self.table.num_chunks

    @property
    def statistics(self) -> EngineStatistics:
        """The engine's per-operation-kind dispatch counts."""
        return self.engine.statistics

    def check_invariants(self) -> None:
        """Validate the underlying table's structural invariants."""
        self.table.check_invariants()
