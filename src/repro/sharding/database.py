"""The sharded façade: route, fan out, merge back, stay serial-equal.

:class:`ShardedDatabase` splits one logical table across worker
processes by key range (:class:`~repro.sharding.shard_map.ShardMap`, the
:class:`~repro.storage.partition_index.PartitionIndex` fence idea lifted
one level up) and :class:`ShardedSession` re-implements the
:class:`~repro.api.session.Session` execution surface on top of
:meth:`~repro.sharding.cluster.ShardCluster.execute_round`.

The contract is **serial-oracle equality**: for any operation sequence,
``results`` and ``errors`` match what a single-process database loaded
from the same rows would return, because

* the shard map is a pure function of the key with every copy of a key
  in one shard, so operations routed to different shards touch disjoint
  key multisets and commute;
* within a shard, operations run FIFO through one single-threaded
  worker, preserving submission order where it matters;
* cross-shard range aggregates decompose exactly -- the shards partition
  the key space, so per-shard counts/sums add up to the serial answer;
* a call is routed as the engine's batch plan
  (:func:`~repro.storage.engine.planned_operations`): every group of
  scalars travels as its one batched operation, results split back to
  the submitted operations after the flush, so the router and the wire
  see only the batched kinds and SUM ranges;
* cross-shard key updates are the one ordering hazard, so they run in
  **move waves**.  A wave is a maximal run of consecutive update pairs
  (the pairs of the planned ``MultiUpdate``s, in plan order) whose old
  and new keys are pairwise distinct; it ends at the first pair that
  reuses one of its keys and at the first operation of another kind.
  Distinct keys mean disjoint key multisets, so the pairs of one wave
  commute with each other, same-shard and cross-shard alike; a pair
  that shares a key with an earlier one may not (a chain ``a->b,
  b->c``, a swap, one old key twice), so it opens the next wave.
  There is no size threshold: a lone move is a wave of one.  The wave's
  same-shard pairs ride the per-shard ``MultiUpdate`` sub-batches; when
  the wave ends, everything queued goes out as one flush (the barrier:
  the moves observe every earlier effect and are observed by everything
  after) and its cross-shard pairs run as at most three fan-out rounds,
  each shard receiving the *list* of its moves: ``take`` to every
  source, ``put`` to every target, ``forget`` back to the sources --
  four exchanges per involved shard however many rows move.
* each phase is logged **per shard as one atomic WAL record of per-move
  markers** -- the source's take as ``[move_intent..., delete]`` before
  it replies with the payloads (through the arena), the target's put as
  ``[move_commit..., insert]``, the source's forget as
  ``[move_forget...]``, sent only once every put of the wave is acked.
  One record is all-or-nothing under its CRC, and the markers inside it
  are the ones a lone move would log, so the crash argument is the
  per-move one, unchanged: a crash anywhere in the window leaves, for
  each move separately, either no intent (the move never happened) or an
  unresolved intent that :meth:`ShardedDatabase.open` resolves by
  consulting the target shard's logged commits -- re-driving the insert
  from the carried payload or only forgetting -- so every move of a
  wave lands fully applied or fully absent, never as a lost row, and
  moves of one wave may land on different sides.  The resolution scan
  speaks the same list verbs (one ``put`` and one ``forget`` frame per
  shard) and trusts that rounds serialize with checkpoints (both run
  through the dispatcher), so a target's ``move_commit`` record always
  outlives any unresolved source intent -- checkpoint GC cannot drop it
  mid-move.

Documented divergences (also in the README): row ids created *after*
load (inserts, cross-shard moves) need not match the serial oracle's --
load-order ids do, because shard slice offsets reproduce the key-sorted
global numbering; and per-shard WAL watermarks are incomparable, so
``SessionResult.commit_lsn`` is ``None`` -- the per-shard vector is
reported instead (``SessionResult.shard_lsns``, with
:meth:`ShardedDatabase.sync` for the durable counterpart).
"""

from __future__ import annotations

import itertools
import json
import os
import time
from dataclasses import replace
from pathlib import Path
from typing import Sequence

import numpy as np

from ..api.session import SessionResult
from ..storage.cost_accounting import AccessCounter
from ..storage.engine import place_results, planned_operations
from ..storage.table import default_payload_names
from ..workload import operations as ops
from ..workload.operations import Operation, Workload
from . import codec
from .cluster import DEFAULT_ARENA_BYTES, ExecuteReply, ShardCluster
from .codec import ArenaWriter
from .errors import ShardError
from .shard_map import ShardMap

_MANIFEST = "manifest.json"


def resolve(op, payload_names):
    """``op`` as its request record states it: a read's ``columns`` as
    payload column indices (``None``: every column), a missing insert
    payload as the zero rows the table pads.  Only the dispatcher knows
    ``payload_names``, so it resolves what it hands
    :func:`~repro.sharding.codec.encode_ops`."""
    if hasattr(op, "columns"):
        names = payload_names if op.columns is None else op.columns
        if not set(names) <= set(payload_names):
            raise ShardError(f"unknown payload column in {names!r}")
        return replace(op, columns=tuple(map(payload_names.index, names)))
    if isinstance(op, ops.MultiInsert) and op.payloads is None:
        rows = np.zeros((len(op.keys), len(payload_names)), dtype=np.int64)
        return replace(op, payloads=rows)
    if isinstance(op, ops.Insert) and op.payload is None:
        return replace(op, payload=(0,) * len(payload_names))
    return op


def _shard_dir(root: "str | os.PathLike", shard: int) -> str:
    return os.path.join(os.fspath(root), f"shard-{shard}")


def _scan_move_markers(
    shard_root: str,
) -> tuple[dict[int, tuple[int, int, list[int]]], set[int], set[int]]:
    """Collect one shard's move-protocol markers from its WAL tail.

    Returns ``(intents, commits, forgets)``: intents map move id to the
    logged ``(old_key, new_key, payload)``; commits/forgets are the move
    ids this shard logged the respective resolution marker for.  Reads
    the surviving segments only -- markers whose segments checkpoint GC
    already reclaimed were resolved before the snapshot (rounds serialize
    with checkpoints), so a surviving unresolved intent always has its
    verdict in the target's surviving tail.
    """
    from ..durability.wal import (
        decode_delta_log,
        scan_segment,
        segment_first_lsn,
    )

    intents: dict[int, tuple[int, int, list[int]]] = {}
    commits: set[int] = set()
    forgets: set[int] = set()
    wal_dir = Path(shard_root) / "wal"
    if not wal_dir.is_dir():
        return intents, commits, forgets
    for segment in sorted(wal_dir.glob("wal-*.log"), key=segment_first_lsn):
        for _lsn, body in scan_segment(segment).records:
            for record in decode_delta_log(body).records:
                if record.kind == "move_intent":
                    move_id, old_key, new_key = (
                        int(value) for value in record.keys
                    )
                    payload = [int(value) for value in record.payloads[0]]
                    intents[move_id] = (old_key, new_key, payload)
                elif record.kind == "move_commit":
                    commits.add(int(record.keys[0]))
                elif record.kind == "move_forget":
                    forgets.add(int(record.keys[0]))
    return intents, commits, forgets


def _move_frame(verb: str, **arrays):
    """Builder of one move-phase frame: every array rides the arena."""

    def build(writer: ArenaWriter) -> dict:
        frame = {"verb": verb}
        for name, values in arrays.items():
            frame[name] = writer.put(values)
        return frame

    return build


def _rows_by_shard(
    shards: np.ndarray, rows: np.ndarray
) -> dict[int, np.ndarray]:
    """``rows`` grouped by ``shards[rows]``, in ascending shard order."""
    return {
        int(shard): rows[shards[rows] == shard]
        for shard in np.unique(shards[rows])
    }


class ShardedDatabase:
    """One logical database fanned out across shard worker processes."""

    def __init__(
        self,
        *,
        shard_map: ShardMap,
        cluster: ShardCluster,
        owns_cluster: bool,
        bases: Sequence[int],
        payload_names: Sequence[str],
        durability_root: "str | os.PathLike | None" = None,
        move_id_start: int = 1,
    ) -> None:
        self.shard_map = shard_map
        self.cluster = cluster
        self._owns_cluster = owns_cluster
        #: Per-shard global row-id offset: shard ``s``'s local row ``j``
        #: is global row ``bases[s] + j`` in key-sorted load order.
        self.bases = [int(b) for b in bases]
        self.payload_names = tuple(payload_names)
        self.durability_root = (
            os.fspath(durability_root) if durability_root is not None else None
        )
        #: Monotonic move-id source for the two-phase cross-shard move
        #: protocol; :meth:`open` seeds it past every id seen in the WALs
        #: so resolved and in-flight moves never collide after recovery.
        self._move_ids = itertools.count(int(move_id_start))
        self._closed = False

    def _next_move_id(self) -> int:
        return next(self._move_ids)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_rows(
        cls,
        keys: np.ndarray | Sequence[int],
        payload: np.ndarray | None = None,
        *,
        n_shards: int = 2,
        cluster: ShardCluster | None = None,
        layout: str = "equi",
        partitions: int = 16,
        chunk_size: int = 1 << 20,
        block_values: int = 4096,
        payload_names: Sequence[str] | None = None,
        durability: "str | os.PathLike | None" = None,
        fsync: str = "always",
        reorg: bool = False,
        plan: Workload | None = None,
        arena_bytes: int | None = None,
        faults: dict[int, dict] | None = None,
    ) -> "ShardedDatabase":
        """Load rows across ``n_shards`` worker processes.

        The keys are sorted once (stable, matching ``Table``'s load
        order), fenced into even slices with duplicate runs kept whole
        (:meth:`ShardMap.from_sorted_keys`), and each slice is shipped to
        its worker through the channel's shared-memory arena.  ``plan``
        optionally carries a workload sample: each worker then builds its
        shard with ``Database.plan_for`` and replans independently when
        ``reorg`` is on.  ``durability`` roots per-shard WAL directories
        under ``<root>/shard-<s>/`` plus a cluster manifest for
        :meth:`open`.  ``cluster`` reuses a running pool (its shard count
        must match) instead of spawning one -- property tests re-attach
        fresh data per example this way.  ``faults`` maps shard -> worker
        fault hooks (crash injection for recovery tests).
        """
        keys = np.asarray(keys, dtype=np.int64).reshape(-1)
        if payload is not None:
            payload = np.asarray(payload, dtype=np.int64)
            if payload.ndim == 1:
                payload = payload.reshape(-1, 1)
            if payload.shape[0] != keys.size:
                raise ValueError("payload rows must align with keys")
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        sorted_payload = payload[order] if payload is not None else None
        shard_map = ShardMap.from_sorted_keys(sorted_keys, n_shards)
        positions = shard_map.split_positions(sorted_keys)

        width = 0 if sorted_payload is None else int(sorted_payload.shape[1])
        if arena_bytes is None:
            # Room for the largest load slice (keys + payload) or a large
            # request body, whichever is bigger; an overflowing array travels
            # as inline JSON, so this only has to be usually-big-enough.
            largest = int(np.diff(positions).max(initial=0))
            arena_bytes = max(
                DEFAULT_ARENA_BYTES, (largest * (1 + width) * 8) + (1 << 16)
            )

        config = {
            "layout": layout,
            "partitions": int(partitions),
            "chunk_size": int(chunk_size),
            "block_values": int(block_values),
            "payload_names": list(payload_names or default_payload_names(width)),
            "fsync": fsync,
            "reorg": bool(reorg),
        }
        if durability is not None:
            root = os.fspath(durability)
            os.makedirs(root, exist_ok=True)
            manifest = {
                "n_shards": int(n_shards),
                "shard_map": shard_map.to_meta(),
                "config": config,
            }
            with open(os.path.join(root, _MANIFEST), "w") as fh:
                json.dump(manifest, fh)

        def load_request(shard: int, writer: ArenaWriter) -> dict:
            start, stop = int(positions[shard]), int(positions[shard + 1])
            request = {
                "mode": "load",
                "keys": writer.put(sorted_keys[start:stop]),
            }
            if sorted_payload is not None:
                request["payload"] = writer.put(
                    sorted_payload[start:stop].reshape(-1)
                )
                # Explicit width: an empty slice cannot infer it.
                request["width"] = width
            if plan is not None:
                names = config["payload_names"]
                request["plan"] = codec.encode_ops(
                    [resolve(op, names) for op in plan.operations], writer
                )
            if durability is not None:
                request["durability"] = _shard_dir(durability, shard)
            return request

        cluster, owns_cluster, names = cls._attach(
            cluster,
            n_shards,
            arena_bytes,
            config,
            faults,
            load_request,
            expected_rows=np.diff(positions),
        )
        return cls(
            shard_map=shard_map,
            cluster=cluster,
            owns_cluster=owns_cluster,
            bases=positions[:-1],
            payload_names=names,
            durability_root=durability,
        )

    @classmethod
    def open(
        cls,
        root: "str | os.PathLike",
        *,
        cluster: ShardCluster | None = None,
        fsync: str | None = None,
        arena_bytes: int = DEFAULT_ARENA_BYTES,
        faults: dict[int, dict] | None = None,
    ) -> "ShardedDatabase":
        """Recover a sharded database from its durability root.

        Reads the cluster manifest, then has every worker run
        ``Database.open`` on its own ``shard-<s>/`` directory -- latest
        snapshot plus per-shard WAL replay, exactly the single-process
        recovery path, run ``n_shards`` times independently.  Recovery
        renumbers local row ids, so post-open global ids are prefix sums
        of recovered shard sizes (the logical row multiset is what is
        preserved).

        After the workers recover, the dispatcher scans every shard's WAL
        tail for move-protocol markers and resolves each intent that has
        no matching ``move_forget``: if the target shard never logged the
        ``move_commit``, the insert half is re-driven with the intent's
        carried payload; either way the source then logs its forget.  A
        worker killed anywhere in the move window therefore re-opens to a
        state where the move happened fully or not at all.
        """
        root = os.fspath(root)
        with open(os.path.join(root, _MANIFEST)) as fh:
            manifest = json.load(fh)
        n_shards = int(manifest["n_shards"])
        shard_map = ShardMap.from_meta(manifest["shard_map"])
        config = dict(manifest["config"])
        if fsync is not None:
            config["fsync"] = fsync

        cluster, owns_cluster, names = cls._attach(
            cluster,
            n_shards,
            arena_bytes,
            config,
            faults,
            lambda shard, writer: {
                "mode": "open",
                "durability": _shard_dir(root, shard),
            },
        )
        try:
            next_move = cls._resolve_moves(cluster, shard_map, root, n_shards)
            # Row counts are read *after* resolution: a re-driven insert
            # changes a shard's size, and bases must reflect final state.
            stats = cluster.request_all({"verb": "stats"})
            bases = []
            base = 0
            for shard in range(n_shards):
                bases.append(base)
                base += int(stats[shard].get("rows", 0))
        except Exception:
            if owns_cluster:
                cluster.stop()
            raise
        return cls(
            shard_map=shard_map,
            cluster=cluster,
            owns_cluster=owns_cluster,
            bases=bases,
            payload_names=names,
            durability_root=root,
            move_id_start=next_move,
        )

    @staticmethod
    def _attach(
        cluster: ShardCluster | None,
        n_shards: int,
        arena_bytes: int,
        config: dict,
        faults: dict[int, dict] | None,
        build_request,
        expected_rows: Sequence[int] | None = None,
    ) -> tuple[ShardCluster, bool, Sequence[str]]:
        """Attach every shard's worker; ``build_request(shard, writer)``
        gives the mode-specific part of its ``attach`` frame.

        Spawns a cluster when none is passed and stops it again if an
        attach fails -- a worker error, or a row count other than
        ``expected_rows[shard]``.  Returns ``(cluster, owns_cluster,
        payload_names)``.
        """
        owns_cluster = cluster is None
        if cluster is None:
            cluster = ShardCluster(n_shards, arena_bytes=arena_bytes).start()
        elif cluster.n_shards != n_shards:
            raise ShardError(
                f"cluster has {cluster.n_shards} shards, need {n_shards}"
            )
        names = None
        try:
            for shard in range(n_shards):
                channel = cluster.channel(shard)
                request = {
                    "verb": "attach",
                    "arena": channel.arena.name,
                    "config": config,
                    **build_request(shard, ArenaWriter(channel.arena)),
                }
                if faults and shard in faults:
                    request["faults"] = faults[shard]
                reply = channel.request(request)
                if expected_rows is not None and reply.get("rows") != int(
                    expected_rows[shard]
                ):
                    raise ShardError(
                        f"shard {shard} loaded {reply.get('rows')} rows, "
                        f"expected {int(expected_rows[shard])}"
                    )
                names = reply.get("payload_names", names)
        except Exception:
            if owns_cluster:
                cluster.stop()
            raise
        return cluster, owns_cluster, names or ()

    @staticmethod
    def _resolve_moves(
        cluster: ShardCluster,
        shard_map: ShardMap,
        root: str,
        n_shards: int,
    ) -> int:
        """Resolve unresolved cross-shard move intents after recovery.

        Scans every shard's surviving WAL segments for move markers.  For
        each ``move_intent`` with no ``move_forget`` on the same shard,
        the target shard's log decides: a logged ``move_commit`` means
        the insert half landed (durably -- it rode the same atomic WAL
        record), so the intent is only forgotten; otherwise the insert is
        re-driven from the intent's carried payload first.  Returns the
        next safe move id (one past the largest id seen anywhere).
        """
        markers = [
            _scan_move_markers(_shard_dir(root, shard))
            for shard in range(n_shards)
        ]
        next_move = 1 + max(
            (
                move_id
                for intents, commits, forgets in markers
                for move_id in (*intents, *commits, *forgets)
            ),
            default=0,
        )
        puts: dict[int, list] = {}
        forgets: dict[int, list[int]] = {}
        for shard, (intents, _commits, forgotten) in enumerate(markers):
            for move_id in sorted(set(intents) - forgotten):
                _old_key, new_key, payload = intents[move_id]
                target = shard_map.shard_of(new_key)
                if move_id not in markers[target][1]:
                    puts.setdefault(target, []).append(
                        (move_id, new_key, payload)
                    )
                forgets.setdefault(shard, []).append(move_id)
        # One list frame per shard and phase, the same verbs a live wave
        # speaks; every re-driven put is acked before any forget is sent.
        if puts:
            cluster.round(
                {
                    target: _move_frame(
                        "put",
                        moves=[row[:2] for row in rows],
                        payload=[row[2] for row in rows],
                    )
                    for target, rows in puts.items()
                }
            )
        if forgets:
            cluster.round(
                {
                    shard: _move_frame("forget", moves=move_ids)
                    for shard, move_ids in forgets.items()
                }
            )
        return next_move

    # ------------------------------------------------------------------ #
    # Lifecycle / introspection
    # ------------------------------------------------------------------ #

    @property
    def n_shards(self) -> int:
        """Number of shards in the map."""
        return self.shard_map.n_shards

    def session(self) -> "ShardedSession":
        """Open the execution surface (same shape as ``Database.session``).

        Each worker owns a long-lived serial session around its shard
        (reorganization is attach-time configuration, ``reorg=``), so
        this takes no policy arguments.
        """
        self._check_open()
        return ShardedSession(self)

    def checkpoint(self) -> dict[int, int]:
        """Snapshot every shard; returns shard -> snapshot LSN."""
        self._check_open()
        replies = self.cluster.request_all({"verb": "checkpoint"})
        return {
            shard: int(reply["snapshot_lsn"])
            for shard, reply in replies.items()
            if "snapshot_lsn" in reply
        }

    def sync(self) -> dict[int, int]:
        """Group-commit fsync on every shard; returns shard -> durable LSN."""
        self._check_open()
        replies = self.cluster.request_all({"verb": "sync"})
        return {
            shard: int(reply["durable_lsn"])
            for shard, reply in replies.items()
            if reply.get("durable_lsn") is not None
        }

    def stats(self) -> dict[int, dict]:
        """Per-shard stats: rows, chunks, op counts, replans, violations."""
        self._check_open()
        return {
            shard: {k: v for k, v in reply.items() if k != "ok"}
            for shard, reply in self.cluster.request_all(
                {"verb": "stats"}
            ).items()
        }

    @property
    def num_rows(self) -> int:
        """Total live rows across shards (one stats round trip)."""
        return sum(stat["rows"] for stat in self.stats().values())

    def kill(self, shard: int) -> None:
        """SIGKILL one shard's worker (crash-recovery tests)."""
        self.cluster.kill(shard)

    def close(self) -> None:
        """Release the cluster if this database spawned it (idempotent).

        A shared cluster (passed into :meth:`from_rows` / :meth:`open`)
        is left running for the next attach; only its workers' databases
        stay attached until then.
        """
        if self._closed:
            return
        self._closed = True
        if self._owns_cluster:
            self.cluster.stop()

    def _check_open(self) -> None:
        if self._closed:
            raise ShardError("sharded database is closed")

    def __enter__(self) -> "ShardedDatabase":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ShardedSession:
    """Session façade over the cluster: plan, split, dispatch, merge.

    The planned operations of a call accumulate into per-shard
    sub-batches and are flushed as one
    :meth:`~repro.sharding.cluster.ShardCluster.execute_round` at the end
    of each :meth:`execute` call (or earlier, when a move wave with
    cross-shard pairs ends -- see the module docstring), so one submitted
    batch costs one round of concurrent worker execution, not one round
    trip per operation.
    """

    def __init__(self, database: ShardedDatabase) -> None:
        self.database = database
        self._closed = False
        #: Per-shard breakdown of the *last* :meth:`execute` call: access
        #: tallies and worker-measured wall time.  The scaling benchmark
        #: models parallel round latency as the max over shards.
        self.last_shard_accesses: dict[int, AccessCounter] = {}
        self.last_shard_wall_ns: dict[int, float] = {}

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return self._closed

    def __enter__(self) -> "ShardedSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Close the dispatcher side (workers keep their shards)."""
        self._closed = True

    def _require_open(self) -> None:
        if self._closed:
            raise ShardError("session is closed")

    def sync(self) -> dict[int, int]:
        """Fsync every shard's WAL; returns shard -> durable LSN.  A closed
        session raises :class:`ShardError`, as :meth:`execute` does."""
        self._require_open()
        return self.database.sync()

    def execute(
        self, operations: Workload | Sequence[Operation] | Operation
    ) -> SessionResult:
        """Execute operations with serial-oracle results and errors.

        ``commit_lsn`` is always ``None`` -- per-shard WAL watermarks are
        incomparable -- but ``shard_lsns`` reports the per-shard vector:
        the last commit LSN each involved shard acknowledged this call.
        ``durable`` is the conjunction of every involved shard's report.
        ``accesses`` is the sum of worker-side tallies (cross-shard moves
        charge their take+put decomposition, not the serial update's
        counts; grouped scalars charge as the engine's batch does); the
        per-shard breakdowns include the move phases.  A closed session or
        database raises :class:`ShardError`, as does a non-operation.
        """
        self._require_open()
        self.database._check_open()
        if isinstance(operations, Operation):
            operations = [operations]
        oplist = list(operations)
        for op in oplist:
            if not isinstance(op, Operation):
                raise ShardError(f"cannot route operation {type(op)!r}")
        start = time.perf_counter_ns()
        # The engine's batch plan: the router sees each group of scalars
        # as its one batched operation, so only batched kinds and SUM
        # ranges cross the wire.
        planned = planned_operations(oplist)
        batch = _Batch(self.database, len(planned))
        for index, (_positions, op, _grouped) in enumerate(planned):
            batch.route(index, op)
        batch.flush()
        results: list = [None] * len(oplist)
        errors = sum(
            place_results(results, *entry, result)
            for entry, result in zip(planned, batch.out, strict=True)
        )
        self.last_shard_accesses = batch.shard_accesses
        self.last_shard_wall_ns = batch.shard_wall_ns
        return SessionResult(
            results=results,
            accesses=batch.accesses,
            wall_ns=float(time.perf_counter_ns() - start),
            operations=len(oplist),
            errors=errors,
            commit_lsn=None,
            durable=batch.durable,
            shard_lsns=dict(batch.shard_lsns) or None,
        )


class _Batch:
    """One execute call's routing state: pending sub-batches, mergers and
    the open move wave."""

    def __init__(self, database: ShardedDatabase, size: int) -> None:
        self.database = database
        #: One result per routed operation, filled by the merges.
        self.out: list = [None] * size
        self.accesses = AccessCounter()
        self.durable = True
        self.shard_lsns: dict[int, int] = {}
        self.shard_accesses: dict[int, AccessCounter] = {}
        self.shard_wall_ns: dict[int, float] = {}
        self._pending: dict[int, list] = {}
        self._appliers: list = []
        #: The open move wave: every key its update pairs touch, and its
        #: cross-shard pairs as ``(old, new, source, target, hits, row)``
        #: -- ``hits[row]`` takes the pair's 0/1 outcome.
        self._wave_keys: set[int] = set()
        self._wave_moves: list[tuple] = []

    # -- plumbing ------------------------------------------------------- #

    def _push(self, shard: int, op) -> int:
        """Queue ``op``, resolved for its request record, on ``shard``;
        returns its sub-batch position."""
        sub = self._pending.setdefault(shard, [])
        sub.append(resolve(op, self.database.payload_names))
        return len(sub) - 1

    def flush(self) -> None:
        """Run the open wave, then whatever is still pending."""
        self._end_wave()
        self._dispatch()

    def _dispatch(self) -> None:
        """Dispatch pending sub-batches as one round and merge replies."""
        results = {}
        if self._pending:
            replies = self.database.cluster.execute_round(self._pending)
            for shard, reply in replies.items():
                self._absorb(shard, reply)
                results[shard] = reply.results
        for applier in self._appliers:
            applier(results)
        self._pending = {}
        self._appliers = []

    def _absorb(self, shard: int, reply: ExecuteReply) -> None:
        """Fold one shard reply's tallies and watermark into the call's."""
        self.accesses.merge(reply.accesses)
        self.durable = self.durable and reply.durable
        if reply.commit_lsn is not None:
            self.shard_lsns[shard] = int(reply.commit_lsn)
        self.shard_accesses.setdefault(shard, AccessCounter()).merge(
            reply.accesses
        )
        self.shard_wall_ns[shard] = (
            self.shard_wall_ns.get(shard, 0.0) + reply.wall_ns
        )

    # -- move waves ----------------------------------------------------- #

    def _conflicts(self, old_key: int, new_key: int) -> bool:
        """Whether an update pair reuses a key of the open wave.

        Such a pair does not commute with the pairs before it: the caller
        ends the wave first, so the pair opens the next one.
        """
        return old_key in self._wave_keys or new_key in self._wave_keys

    def _end_wave(self) -> None:
        """Close the open wave; run its cross-shard pairs, if any.

        The wave's pairs touch pairwise distinct keys, so they commute
        with each other: its same-shard pairs (already queued in the
        per-shard sub-batches) and everything queued before it go out as
        one flush, then the cross-shard pairs run as one move wave.
        """
        self._wave_keys.clear()
        if self._wave_moves:
            moves, self._wave_moves = self._wave_moves, []
            self._dispatch()
            self._run_moves(moves)

    def _run_moves(self, moves: list[tuple]) -> None:
        """One move wave, two-phase: take / put / forget rounds.

        Caller has flushed -- every shard is quiescent.  Each round sends
        every involved shard the list of its moves and collects every
        reply.  The sources' ``take`` logs ``[move_intent..., delete]`` as
        one WAL record before replying, the targets' ``put`` logs
        ``[move_commit..., insert]``, and the sources' ``forget`` retires
        the intents only after every put's ack -- so a crash at any point
        leaves each move the same per-move WAL markers a lone move would,
        which the re-open scan resolves to fully-applied or fully-absent.
        Moved rows get fresh target-shard row ids (documented
        divergence).
        """
        database = self.database
        width = len(database.payload_names)
        count = len(moves)
        move_ids = np.fromiter(
            (database._next_move_id() for _ in moves),
            dtype=np.int64,
            count=count,
        )
        old_keys, new_keys, sources, targets = np.asarray(
            [move[:4] for move in moves], dtype=np.int64
        ).T
        by_source = _rows_by_shard(sources, np.arange(count))
        replies = self._move_round(
            {
                shard: _move_frame(
                    "take",
                    moves=np.stack(
                        [move_ids[rows], old_keys[rows], new_keys[rows]],
                        axis=1,
                    ),
                )
                for shard, rows in by_source.items()
            }
        )
        found = np.zeros(count, dtype=bool)
        payload = np.zeros((count, width), dtype=np.int64)
        for shard, reply in replies.items():
            hits, taken = reply.results
            rows = by_source[shard][hits.astype(bool)]
            found[rows] = True
            payload[rows] = taken.reshape(rows.size, width)
        for (*_, hits, row), moved in zip(moves, found.tolist(), strict=True):
            # Bulk updates report misses as 0, never as errors.
            hits[row] = int(moved)
        if not found.any():
            return
        live = np.flatnonzero(found)
        self._move_round(
            {
                shard: _move_frame(
                    "put",
                    moves=np.stack([move_ids[rows], new_keys[rows]], axis=1),
                    payload=payload[rows],
                )
                for shard, rows in _rows_by_shard(targets, live).items()
            }
        )
        self._move_round(
            {
                shard: _move_frame("forget", moves=move_ids[rows])
                for shard, rows in _rows_by_shard(sources, live).items()
            }
        )

    def _move_round(self, frames: dict) -> dict[int, ExecuteReply]:
        """One phase of a move wave as one fan-out round."""
        cluster = self.database.cluster
        replies = {
            shard: cluster.channel(shard).decode_reply(reply)
            for shard, reply in cluster.round(frames).items()
        }
        for shard, reply in replies.items():
            self._absorb(shard, reply)
        return replies

    # -- routing -------------------------------------------------------- #

    def route(self, index: int, op) -> None:
        """Split one planned operation across shards and record its merge.

        The plan (:func:`~repro.storage.engine.planned_operations`) hands
        the router batched kinds and SUM ranges only.  Three routing
        shapes -- by key array, by range, update wave -- and, for the
        keyed one, the form of the result: ``rows`` are rebuilt with their
        keys and global row ids, ``rowids`` are offset by the shard's
        base, ``counts`` are global already.
        """
        if self._wave_keys and not isinstance(op, ops.MultiUpdate):
            # A wave is a run of update pairs: any other kind ends it.
            self._end_wave()
        if isinstance(op, ops.MultiPointQuery):
            self._route_keys(index, op, "rows")
        elif isinstance(op, ops.MultiInsert):
            self._route_keys(index, op, "rowids")
        elif isinstance(op, ops.MultiDelete):
            self._route_keys(index, op, "counts")
        elif isinstance(op, ops.RangeQuery):
            self._route_range(index, op)
        elif isinstance(op, ops.MultiRangeCount):
            self._route_ranges(index, op)
        elif isinstance(op, ops.MultiUpdate):
            self._route_multi_update(index, op)
        else:
            raise ShardError(f"cannot route operation {type(op)!r}")

    def _global(self, form: str, sub, value, shard: int):
        """Shard ``shard``'s result of sub-operation ``sub``, made global."""
        base = self.database.bases[shard]
        if form == "rows":
            columns = (
                list(sub.columns)
                if sub.columns is not None
                else list(self.database.payload_names)
            )
            return codec.materialize_rows(value, sub.keys, columns, base)
        if form == "rowids":
            return value + base
        return value

    def _scatter(self, index: int, size: int, pieces, form: str) -> None:
        """Queue the ``(shard, positions, sub-operation)`` pieces of one
        batched operation of ``size`` rows; the merge puts each piece's
        global result at its positions (counts of one row add up)."""
        refs = [
            (shard, self._push(shard, sub), positions, sub)
            for shard, positions, sub in pieces
        ]

        def merge(results):
            if form == "rows":
                merged = [None] * size
            else:
                merged = np.zeros(size, dtype=np.int64)
            for shard, pos, positions, sub in refs:
                part = self._global(form, sub, results[shard][pos], shard)
                if form == "rows":
                    for where, rows in zip(positions.tolist(), part):
                        merged[where] = rows
                else:
                    merged[positions] += part
            self.out[index] = merged

        self._appliers.append(merge)

    def _route_keys(self, index: int, op, form: str) -> None:
        """A batched keyed operation splits by the shard of each key."""
        shards = self.database.shard_map.shard_of_batch(op.keys)
        self._scatter(index, len(op.keys), ops.split(op, shards), form)

    def _route_range(self, index: int, op) -> None:
        pieces = self.database.shard_map.split_range(op.low, op.high)
        refs = []
        for shard, low, high in pieces:
            sub = op if len(pieces) == 1 else replace(op, low=low, high=high)
            refs.append((shard, self._push(shard, sub)))

        def merge(results):
            # Shards partition the key space: per-shard counts/sums
            # add to the serial aggregate exactly.
            self.out[index] = sum(results[shard][pos] for shard, pos in refs)

        self._appliers.append(merge)

    def _route_ranges(self, index: int, op) -> None:
        """Each range goes, clipped, to every shard it overlaps."""
        bounds = np.asarray(op.bounds, dtype=np.int64).reshape(-1, 2)
        shard_map = self.database.shard_map
        pieces = []
        for shard in range(shard_map.n_shards):
            low, high = shard_map.shard_interval(shard)
            if low > high:  # fences collapsed: shard owns no keys
                continue
            overlap = (bounds[:, 0] <= high) & (bounds[:, 1] >= low)
            if not overlap.any():
                continue
            positions = np.nonzero(overlap)[0]
            # An overlapping range clips to the shard at both ends.
            clipped = np.clip(bounds[positions], low, high)
            pieces.append((shard, positions, ops.MultiRangeCount(clipped)))
        self._scatter(index, len(op.bounds), pieces, "counts")

    def _route_multi_update(self, index: int, op) -> None:
        """Pairs join the open wave in submission order.

        Same-shard pairs stay ordered within their shard and commute
        across shards (disjoint key multisets), so they group into
        per-shard ``MultiUpdate`` sub-batches; cross-shard pairs collect
        in the wave.  A pair that reuses a key of the wave ends it -- the
        sub-batches go out first, then the wave's moves -- and opens the
        next.  The result array fills progressively: sub-batch hits at
        their positions on merge, moves when their wave runs.
        """
        pairs = np.asarray(op.pairs, dtype=np.int64).reshape(-1, 2)
        m = int(pairs.shape[0])
        shards = self.database.shard_map.shard_of_batch(
            pairs.reshape(-1)
        ).reshape(-1, 2)
        result = np.zeros(m, dtype=np.int64)
        self.out[index] = result
        group: dict[int, tuple[list, list]] = {}

        def emit_group() -> None:
            for shard, (sub_pairs, positions) in group.items():
                pos = self._push(
                    shard, ops.MultiUpdate(pairs=tuple(sub_pairs))
                )
                where = np.asarray(positions, dtype=np.int64)

                def merge(results, shard=shard, pos=pos, where=where):
                    result[where] = np.asarray(
                        results[shard][pos], dtype=np.int64
                    )

                self._appliers.append(merge)
            group.clear()

        for row, ((old_key, new_key), (source, target)) in enumerate(
            zip(pairs.tolist(), shards.tolist(), strict=True)
        ):
            if self._conflicts(old_key, new_key):
                emit_group()
                self._end_wave()
            self._wave_keys.update((old_key, new_key))
            if source == target:
                sub_pairs, positions = group.setdefault(source, ([], []))
                sub_pairs.append((old_key, new_key))
                positions.append(row)
            else:
                self._wave_moves.append(
                    (old_key, new_key, source, target, result, row)
                )
        emit_group()
