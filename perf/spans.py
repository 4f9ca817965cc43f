"""Span tracing from outside the program.

The program has no tracing hooks, so the benchmark records spans by wrapping
the public functions of each layer *at the name where the caller looks them
up* -- ``repro.durability.manager.encode_delta_log``, not only
``repro.durability.wal.encode_delta_log``, because ``manager`` imported the
name into its own namespace.  :data:`TARGETS` is that list; nothing under
``src/`` is edited, and :meth:`Tracer.uninstall` puts every name back.

A span is ``(name, start, end, parent span, call)``; spans of one
``Session.execute`` share the call number.  They are kept in one flat
``array('q')`` while the run lasts and reduced afterwards: a span's *self
time* is its duration minus the durations of its direct children, so the
self times under one root add up to the root's duration exactly.
"""

from __future__ import annotations

import importlib
import time
from array import array

import numpy as np

#: (module, attribute path, span name).  One span name per layer metric.
TARGETS = (
    ("repro.api.session", "Session.execute", "api.session"),
    ("repro.api.policies", "VectorizedPolicy.execute", "api.policies.group"),
    ("repro.api.policies", "SerialPolicy.execute", "api.policies.group"),
    ("repro.storage.engine", "StorageEngine.execute_batch", "storage.engine.dispatch"),
    ("repro.storage.engine", "StorageEngine.execute", "storage.engine.dispatch"),
    *(
        ("repro.storage.table", f"Table.{name}", "storage.table.read")
        for name in (
            "point_query", "multi_point_query", "range_count",
            "multi_range_count", "range_sum",
        )
    ),
    *(
        ("repro.storage.table", f"Table.{name}", "storage.table.write")
        for name in (
            "insert", "delete", "update_key", "bulk_insert", "bulk_delete",
            "bulk_update",
        )
    ),
    *(
        ("repro.storage.column", f"PartitionedColumn.{name}", "storage.column.read_kernel")
        for name in (
            "point_query", "multi_point_query", "multi_range_count",
            "range_query", "range_rowids",
        )
    ),
    *(
        ("repro.storage.column", f"PartitionedColumn.{name}", "storage.column.write_kernel")
        for name in (
            "insert", "delete", "remove_one", "update", "bulk_insert",
            "bulk_delete",
        )
    ),
    ("repro.core.monitor", "WorkloadMonitor.observe_batch", "core.monitor.observe"),
    ("repro.core.monitor", "WorkloadMonitor.observe", "core.monitor.observe"),
    ("repro.api.reorganizer", "Reorganizer.after_execute", "api.reorganizer.after_execute"),
    ("repro.api.reorg", "ReorgPolicy.scan", "api.reorg.scan"),
    ("repro.api.reorg", "ReorgPolicy.decide_chunk", "api.reorg.decide"),
    ("repro.api.reorg", "ReorgPolicy.apply_action", "api.reorg.apply"),
    ("repro.core.optimizer", "solve_dp", "core.dp_solver.solve"),
    ("repro.durability.manager", "encode_delta_log", "durability.wal.encode"),
    ("repro.durability.wal", "WalWriter.append", "durability.wal.append"),
    ("repro.durability.wal", "WalWriter.sync", "durability.wal.fsync"),
    ("repro.sharding.database", "ShardedSession.execute", "sharding.database.split_merge"),
    ("repro.sharding.shard_map", "ShardMap.shard_of", "sharding.shard_map.split"),
    ("repro.sharding.shard_map", "ShardMap.shard_of_batch", "sharding.shard_map.split"),
    ("repro.sharding.shard_map", "ShardMap.split_range", "sharding.shard_map.split"),
    ("repro.sharding.cluster", "ShardCluster.execute_round", "sharding.cluster.round"),
    ("repro.sharding.codec", "encode_ops", "sharding.codec.encode_ops"),
    ("repro.sharding.codec", "decode_results", "sharding.codec.decode_results"),
    ("repro.ipc.framing", "send_frame", "ipc.framing.send"),
    ("repro.ipc.framing", "recv_frame", "ipc.framing.recv_wait"),
)


_FIELDS = 5  # name, start, end, parent, call
_MISSING = object()


class Tracer:
    """Installs the wrappers, holds the spans, reduces them to numbers."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans = array("q")
        self.call = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        #: Arena traffic seen by the ``ArenaWriter.put`` probe.
        self.arena_bytes = 0
        self.inline_fallbacks = 0
        #: Access records handed to the monitor.
        self.monitor_records = 0

    # -- wrapping ------------------------------------------------------- #

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _traced(self, function, name: str, probe=None):
        name_id = self._name_id(name)
        spans, stack, now = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.extend((name_id, now(), 0, stack[-1] if stack else -1, self.call))
            stack.append(index)
            try:
                result = function(*args, **kwargs)
            finally:
                spans[index + 2] = now()
                stack.pop()
            if probe is not None:
                probe(args, result)
            return result

        return traced

    def _patch(self, module: str, path: str, wrap) -> None:
        owner = importlib.import_module(module)
        *parents, attribute = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        original = getattr(owner, attribute)
        own = vars(owner).get(attribute, _MISSING)
        self._patched.append((owner, attribute, own))
        setattr(owner, attribute, wrap(original))

    def install(self) -> None:
        """Wrap every target (idempotent while installed)."""
        if self._patched:
            return
        for module, path, name in TARGETS:
            probe = self._count_records if name == "core.monitor.observe" else None
            self._patch(module, path, lambda f, n=name, p=probe: self._traced(f, n, p))
        self._patch("repro.sharding.codec", "ArenaWriter.put", self._arena_probe)

    def uninstall(self) -> None:
        """Restore every wrapped name, inherited ones by deletion."""
        for owner, attribute, own in reversed(self._patched):
            if own is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, own)
        self._patched.clear()

    # -- count probes (no span: too small to time honestly) ------------- #

    def _arena_probe(self, put):
        def counted(writer, values):
            descriptor = put(writer, values)
            if "v" in descriptor:
                self.inline_fallbacks += 1
            else:
                self.arena_bytes += 8 * descriptor["n"]
            return descriptor

        return counted

    def _count_records(self, args, _result) -> None:
        # ``observe_batch(table, log)`` hands over a log of records;
        # ``observe(table, kind, ...)`` is one record.
        log = args[2]
        self.monitor_records += len(getattr(log, "records", ())) or 1

    # -- reduction ------------------------------------------------------ #

    def table(self) -> dict[str, np.ndarray]:
        """The spans as columns, plus ``self_ns`` per span."""
        flat = np.array(self.spans, dtype=np.int64).reshape(-1, _FIELDS)
        name, start, end, parent, call = flat.T
        duration = end - start
        covered = np.zeros(len(flat), dtype=np.int64)
        child = parent >= 0
        # Parent fields hold flat-array offsets; spans are rows.
        np.add.at(covered, parent[child] // _FIELDS, duration[child])
        return {
            "name": name, "start": start, "end": end, "parent": parent,
            "call": call, "duration": duration, "self_ns": duration - covered,
        }

    def summary(
        self, keep: np.ndarray, slowdown: np.ndarray
    ) -> dict[str, dict[str, float]]:
        """Per span name, over the calls where ``keep[call]`` holds: count,
        total self ns, total and max duration -- each span's time divided
        by ``slowdown[call]``, the machine state its call ran in."""
        table = self.table()
        kept = keep[table["call"]]
        scale = 1.0 / slowdown[table["call"]]
        out = {}
        for name_id, name in enumerate(self.names):
            rows = kept & (table["name"] == name_id)
            durations = table["duration"][rows] * scale[rows]
            out[name] = {
                "count": int(rows.sum()),
                "self_ns": float((table["self_ns"][rows] * scale[rows]).sum()),
                "total_ns": float(durations.sum()),
                "max_ns": float(durations.max(initial=0)),
            }
        return out

    def chunk_visits(self, keep: np.ndarray) -> int:
        """Column-kernel spans entered straight from a table span, over the
        calls where ``keep[call]`` holds."""
        table = self.table()
        if not len(table["name"]):
            return 0
        layer = np.asarray([name.split(".")[1] for name in self.names])[table["name"]]
        parent = table["parent"]
        nested = (parent >= 0) & keep[table["call"]]
        parent_layer = layer[np.where(nested, parent // _FIELDS, 0)]
        return int(np.sum(nested & (layer == "column") & (parent_layer == "table")))

    def save(self, path) -> None:
        """Write the raw spans out (``names`` indexes the ``name`` column)."""
        table = self.table()
        np.savez_compressed(path, names=np.asarray(self.names), **table)
