"""The repository benchmark: four HTAP workloads, one closed-loop client.

Driver contract (``BENCHMARK.json``)::

    python3 perf/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

runs one workload and prints, as the last line of standard output, one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` -- the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Without ``--workload`` every workload runs in turn (each in a process of its
own, memory-only ones first) and the combined result lands in
``perf/out/``; ``perf/compare.py`` reads two such files.

One client thread issues calls back to back (closed loop: a caller of an
embedded library waits for the reply).  Work is fixed -- the call count is
``CALLS_PER_SECOND[workload] * seconds`` with frozen rates -- there are no
timers, and every result is checked against :mod:`oracle` between calls,
outside the timed region.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

if (SRC / "repro").is_dir() and str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
    # Spawned shard workers inherit the environment, not this sys.path.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )

import numpy as np  # noqa: E402

#: name -> (unit, better, bound).  ``BENCHMARK.json`` repeats this table.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "ops_per_s": ("ops/s", "higher", 0.25),
    "read_p50_ms": ("ms", "lower", 0.25),
    "write_p50_ms": ("ms", "lower", 0.25),
    "sim_ns_per_op": ("ns", "lower", 0.10),
    "peak_rss_mb": ("MB", "lower", 0.05),
}

#: name -> unit.  ``*_ms`` are mean self time per traced call unless the
#: README says otherwise; ``count`` metrics repeat exactly for a seed.
PER_LAYER = {
    "api.session.self_ms": "ms",
    "api.session.calls": "count",
    "api.session.read_p95_ms": "ms",
    "api.session.write_p95_ms": "ms",
    "api.policies.group_self_ms": "ms",
    "api.policies.slices_per_call": "count",
    "storage.engine.dispatch_self_ms": "ms",
    "storage.engine.runs_per_call": "count",
    "storage.table.read_self_ms": "ms",
    "storage.table.write_self_ms": "ms",
    "storage.table.chunks_per_call": "count",
    "storage.column.read_kernel_ms": "ms",
    "storage.column.write_kernel_ms": "ms",
    "storage.column.memory_amplification": "ratio",
    "storage.cost_accounting.random_per_op": "count",
    "storage.cost_accounting.seq_per_op": "count",
    "storage.cost_accounting.index_probes_per_op": "count",
    "storage.cost_accounting.sim_over_wall": "ratio",
    "core.monitor.observe_ms": "ms",
    "core.monitor.records_per_call": "count",
    "api.reorganizer.after_execute_ms": "ms",
    "api.reorg.scan_ms": "ms",
    "api.reorg.decide_ms": "ms",
    "api.reorg.apply_ms": "ms",
    "api.reorg.stall_max_ms": "ms",
    "api.reorg.replans": "count",
    "api.reorg.rejected": "count",
    "api.reorganizer.requeues": "count",
    "core.dp_solver.solve_ms": "ms",
    "core.planner.plan_for_s": "s",
    "durability.wal.encode_ms": "ms",
    "durability.wal.append_ms": "ms",
    "durability.wal.fsync_ms": "ms",
    "durability.wal.fsyncs_per_call": "count",
    "durability.wal.records": "count",
    "durability.wal.bytes": "count",
    "durability.wal.bytes_per_user_byte": "ratio",
    "durability.manager.checkpoint_ms": "ms",
    "durability.manager.checkpoints": "count",
    "durability.snapshot.bytes": "count",
    "durability.stored_bytes_per_user_byte": "ratio",
    "durability.recovery_s": "s",
    "durability.recovery.open_s": "s",
    "durability.recovery.batches_replayed": "count",
    "durability.recovery.replay_ops_per_s": "ops/s",
    "replication.follower.catch_up_s": "s",
    "replication.follower.apply_ops_per_s": "ops/s",
    "sharding.database.split_merge_self_ms": "ms",
    "sharding.shard_map.split_ms": "ms",
    "sharding.codec.encode_ops_ms": "ms",
    "sharding.codec.decode_results_ms": "ms",
    "sharding.codec.arena_bytes_per_call": "count",
    "sharding.codec.inline_fallbacks": "count",
    "ipc.framing.send_ms": "ms",
    "ipc.framing.recv_wait_ms": "ms",
    "sharding.cluster.round_ms": "ms",
    "sharding.cluster.rounds_per_call": "count",
    "sharding.worker.execute_ms": "ms",
    "sharding.worker.imbalance": "ratio",
    "sharding.worker.cpu_s": "s",
    "sharding.cluster.overhead_frac": "ratio",
    "ipc.shm.leaked_segments": "count",
    "trace.overhead_frac": "ratio",
    "trace.self_time_coverage": "ratio",
    "ops_per_s.window_cv": "ratio",
    "machine.slowdown": "ratio",
}

#: Database builds per run; ``setup_s`` is their median.  A sharded build
#: spawns two processes and takes seconds, so it gets fewer.
SETUPS = {"sharded_htap": 3}
#: Slices of the key domain in the content digest of a sharded database.
DIGEST_SLICES = 256

FSYNC_CAVEAT = (
    "fsync on this sandbox is nearly free (policy 'always' costs about what "
    "'os' does), so latencies are the sandbox's, not a storage device's"
)


# --------------------------------------------------------------------- #
# Building the program's stack
# --------------------------------------------------------------------- #


class Stack:
    """One built database plus what the run needs to drive and tear it down."""

    def __init__(self, workload: str, inputs, log_dir: Path) -> None:
        from repro.api import Database
        from repro.durability.manager import DurabilityConfig
        from repro.storage.layouts import LayoutKind

        import workloads

        scale = inputs.scale
        common = dict(
            chunk_size=scale.chunk_size,
            block_values=scale.block_values,
            payload_names=list(workloads.PAYLOAD_NAMES),
        )
        partitions = scale.chunk_size // scale.block_values
        self.workload = workload
        self.log_dir = log_dir
        self.plan_for_s = 0.0
        if workload in ("olap_mem", "drift_reorg"):
            start = time.perf_counter()
            self.db = Database.plan_for(
                inputs.training, inputs.keys, inputs.payload, **common
            )
            self.plan_for_s = time.perf_counter() - start
        elif workload == "oltp_durable":
            self.db = Database.from_rows(
                inputs.keys,
                inputs.payload,
                layout=LayoutKind.EQUI_GV,
                partitions=partitions,
                durability=DurabilityConfig(root=log_dir, fsync="always"),
                **common,
            )
        else:  # sharded_htap
            # Client and both workers on ONE core (spawned workers inherit
            # the mask).  On this sandbox a wake-up that crosses virtual
            # cores costs 10 us or 1.4 ms depending on the host, and a write
            # call makes about a hundred (16 cross-shard moves x take, put,
            # forget, each a request and a reply): with one worker per core
            # the same schedule ran at a third of the throughput an hour
            # later, and so it did with placement left to the scheduler.  On
            # one core a wake-up is a context switch, and the clock reads the
            # work of split, codec, socket, execute and merge -- not overlap
            # between shards, which needs a machine whose cores are its own.
            self.affinity = os.sched_getaffinity(0)
            os.sched_setaffinity(0, {max(self.affinity)})
            try:
                self.db = Database.sharded(
                    inputs.keys,
                    inputs.payload,
                    n_shards=2,
                    layout="equi_gv",
                    partitions=partitions,
                    **common,
                )
            except BaseException:
                os.sched_setaffinity(0, self.affinity)
                raise

    def session(self):
        """The one session the client drives."""
        from repro.api.policies import VectorizedPolicy
        from repro.api.reorg import ReorgPolicy
        from repro.api.reorganizer import Reorganizer

        if self.workload == "olap_mem":
            return self.db.session(execution=VectorizedPolicy(256))
        if self.workload == "drift_reorg":
            # Foreground slices, no background thread: counts stay exact.
            self.reorganizer = Reorganizer(
                ReorgPolicy(drift_threshold=0.25, min_chunk_operations=200),
                chunk_budget=1,
            )
            return self.db.session(
                execution=VectorizedPolicy(256), reorg=self.reorganizer
            )
        return self.db.session()

    def worker_rss_kb(self) -> int:
        """Summed peak RSS of live child processes (the shard workers)."""
        return sum(
            _status_kb(child.pid, "VmHWM")
            for child in multiprocessing.active_children()
        )

    def close(self) -> None:
        """Release the database, reap workers, drop the log directory."""
        self.db.close()
        for child in multiprocessing.active_children():
            child.join(timeout=10.0)
            if child.is_alive():
                child.kill()
                child.join()
        shutil.rmtree(self.log_dir, ignore_errors=True)
        if self.workload == "sharded_htap":
            os.sched_setaffinity(0, self.affinity)


def _status_kb(pid, field: str) -> int:
    """One ``kB`` field of ``/proc/<pid>/status`` (0 when unreadable)."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    for line in status.splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1])
    return 0


def _child_pids() -> list[int]:
    """Live processes whose parent is this one (zombies included)."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        # "pid (comm) state ppid ..."; comm may hold spaces and brackets.
        if int(stat.rpartition(")")[2].split()[1]) == me:
            found.append(int(entry))
    return found


def reap_processes() -> None:
    """Stop every process this one started and wait until each has ended.

    Runs on every path out of ``main``.  Besides the shard workers there is
    one process nobody asked for: spawn and ``SharedMemory`` start a
    ``multiprocessing.resource_tracker``, which ends only when it reads
    end-of-file on its pipe -- a moment *after* this process has exited,
    unless it is closed and waited for here.
    """
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()  # closes the pipe, then waitpid
    for pid in _child_pids():  # whatever is left, whoever started it
        try:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
        except OSError:
            pass


def _shm_entries() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def _tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


# --------------------------------------------------------------------- #
# Content checks
# --------------------------------------------------------------------- #


def table_rows(table):
    """Every live ``(key, payload row)`` of a single-process table."""
    import oracle

    keys, rowids = [], []
    for chunk in table.chunks:
        keys.append(np.asarray(chunk.values(), dtype=np.int64))
        rowids.append(np.asarray(chunk.rowids(), dtype=np.int64))
    keys = np.concatenate(keys)
    return oracle.sort_rows(keys, table.payload_rows(np.concatenate(rowids)))


def content_failures(db, model, domain: int) -> int:
    """Rows (or digest slices) on which ``db`` and the model disagree."""
    import oracle
    from repro.workload.operations import Aggregate, MultiRangeCount, RangeQuery

    if hasattr(db, "table"):
        db.check_invariants()
        return oracle.missing_rows(model.live_rows(), table_rows(db.table))
    # Sharded: no table on this side of the socket, so digest through the
    # session -- per-slice row counts and payload sums.
    edges = np.linspace(0, domain, DIGEST_SLICES + 1).astype(np.int64)
    bounds = [(int(lo), int(hi) - 1) for lo, hi in zip(edges[:-1], edges[1:])]
    ops = [MultiRangeCount(tuple(bounds))]
    ops += [RangeQuery(lo, hi, Aggregate.SUM) for lo, hi in bounds]
    with db.session() as session:
        got = session.execute(ops).results
    counts, sums = model.slice_digest(edges)
    bad = int(np.sum(np.asarray(got[0]) != counts))
    bad += int(np.sum(np.asarray(got[1:], dtype=np.int64) != sums))
    bad += sum(stat["violations"] for stat in db.stats().values())
    return bad


# --------------------------------------------------------------------- #
# Telling the machine's noise from the program's time
# --------------------------------------------------------------------- #


class Timeline:
    """Per-call series of the measured phase, cut into windows, with the
    machine's slowdown taken out.

    The sandbox drifts, for seconds or minutes at a time, between states in
    which the same code runs up to 1.6x slower (a neighbour on the host).
    The benchmark carries a reference that feels those states as the program
    does and that no later change to ``src/`` can touch: the oracle's own
    replay of each call -- Python and numpy over arrays of the table's size.
    A window's *slowdown* is the median, over its calls, of that replay time
    divided by the frozen reference for the call's phase and kind
    (``workloads.REFERENCE_REPLAY_US``; the run's own medians where there is
    none, as at tiny scale).  Every timing metric is computed from
    ``latency / slowdown``: milliseconds of the reference machine state.

    Windows hold about ``workloads.WINDOW`` consecutive calls and never
    straddle a phase, and write calls are evenly spaced, so the windows of a
    phase hold the same mix.  With ``--trace 1`` odd windows run wrapped, so
    one run yields the per-layer numbers and an untraced reference over the
    same phases.
    """

    def __init__(self, calls, phase_ends, window: int, trace: bool) -> None:
        count = len(calls)
        self.is_write = np.asarray([call.kind == "write" for call in calls])
        self.window = np.zeros(count, dtype=np.int64)
        self.phase = np.zeros(count, dtype=np.int64)
        start = next_window = 0
        for phase, end in enumerate(phase_ends):
            parts = np.array_split(
                np.arange(start, end), max(1, (end - start) // window)
            )
            for part in parts:
                self.window[part] = next_window
                next_window += 1
            self.phase[start:end] = phase
            start = end
        self.traced = (self.window % 2 == 1) if trace else np.zeros(count, bool)
        self.raw = np.zeros(count, dtype=np.float64)
        self.replay = np.zeros(count, dtype=np.float64)
        self.slowdown = np.ones(count, dtype=np.float64)
        self.latency = self.raw

    def normalise(self, reference_us: dict | None) -> None:
        """Compute window slowdowns and the normalised latencies."""
        relative = np.empty_like(self.replay)
        for phase in np.unique(self.phase):
            for kind, flag in (("read", False), ("write", True)):
                group = (self.phase == phase) & (self.is_write == flag)
                if not group.any():
                    continue
                if reference_us is not None:
                    reference = 1e3 * reference_us[(int(phase), kind)]
                else:
                    reference = np.median(self.replay[group])
                relative[group] = self.replay[group] / reference
        windows = np.unique(self.window)
        medians = np.asarray(
            [np.median(relative[self.window == w]) for w in windows]
        )
        self.slowdown = medians[np.searchsorted(windows, self.window)]
        self.latency = self.raw / self.slowdown

    def percentile(self, mask: np.ndarray, q: float) -> float:
        """Phase-weighted ``q``-th percentile of the latencies in ``mask``.

        Each phase contributes the percentile of its own calls, weighted by
        its share of ``mask``: a plain percentile over phases with different
        mixes sits on the cliff between two of them and jumps from run to
        run.
        """
        total = 0.0
        for phase in np.unique(self.phase[mask]):
            group = mask & (self.phase == phase)
            total += group.sum() / mask.sum() * float(
                np.percentile(self.latency[group], q)
            )
        return total


# --------------------------------------------------------------------- #
# One workload run
# --------------------------------------------------------------------- #


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale_name: str = "full",
    setups: int | None = None,
) -> dict:
    """Run one workload; returns metrics of both kinds plus the verdict."""
    import oracle
    import spans
    import workloads

    scale = workloads.SCALES[scale_name]
    inputs = workloads.generate(workload, seed, seconds, scale)
    run_dir = OUT / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    shm_before = _shm_entries()

    model = oracle.Oracle(inputs.keys, inputs.payload, inputs.key_domain)
    # The generator's and the model's arrays are not the program's.
    harness_kb = _status_kb("self", "VmRSS")
    setup_times = []
    for build in range(setups or SETUPS.get(workload, 5)):
        if build:
            # Free the last stack first: the peak must hold only one.
            stack.close()
            del stack, session
            gc.collect()
        start = time.perf_counter()
        stack = Stack(workload, inputs, run_dir / f"log-{build}")
        session = stack.session()
        setup_times.append(time.perf_counter() - start)
    db = stack.db

    from repro.storage.cost_accounting import AccessCounter, constants_for_block_values

    constants = constants_for_block_values(scale.block_values)
    attempted = failed = 0

    def check(call, result) -> int:
        """Check one call against the model; returns the nanoseconds the
        model took to replay it (the machine-speed reference)."""
        nonlocal attempted, failed
        start = time.perf_counter_ns()
        expected, misses = model.predict(call.ops)
        replay_ns = time.perf_counter_ns() - start
        a, f = oracle.compare(
            call.ops, expected, misses, result.results, result.errors
        )
        attempted += a
        failed += f
        return replay_ns

    reference = None
    if scale is workloads.FULL:
        reference = workloads.REFERENCE_REPLAY_US[workload]
    # The warm-up follows the builds at once, so its replay times tell the
    # machine state the builds ran in (see ``Timeline``).
    warmup_slowdown = []
    for call in inputs.warmup:
        replay_ns = check(call, session.execute(call.ops))
        if reference is not None:
            warmup_slowdown.append(replay_ns / (1e3 * reference[(0, call.kind)]))
    setup_s = statistics.median(setup_times)
    if warmup_slowdown:
        setup_s /= statistics.median(warmup_slowdown)

    tracer = spans.Tracer()
    calls = inputs.calls
    timeline = Timeline(calls, inputs.phase_ends, workloads.WINDOW, trace)
    engine = getattr(db, "engine", None)
    manager = getattr(db, "durability", None)
    sharded = workload == "sharded_htap"
    checkpoint_ns: list[int] = []
    accesses = AccessCounter()
    slices = runs = 0
    wal_bytes = 0
    wal_size = manager.wal.path.stat().st_size if manager else 0
    durable_size = wal_size
    shard_max_ns = np.zeros(len(calls))
    imbalance: list[float] = []
    now = time.perf_counter_ns

    gc.collect()
    gc.freeze()
    for index, call in enumerate(calls):
        if timeline.traced[index]:
            tracer.install()
        else:
            tracer.uninstall()
        tracer.call = index
        runs_before = sum(engine.statistics.operations.values()) if engine else 0
        start = now()
        result = session.execute(call.ops)
        timeline.raw[index] = now() - start
        accesses.merge(result.accesses)
        slices += len(result.batch_sizes)
        if engine:
            runs += sum(engine.statistics.operations.values()) - runs_before
        if sharded:
            walls = list(session.last_shard_wall_ns.values())
            shard_max_ns[index] = max(walls)
            imbalance.append(max(walls) / (sum(walls) / len(walls)))
        if manager and call.kind == "write":
            size = manager.wal.path.stat().st_size
            wal_bytes += size - wal_size
            wal_size = size
            if result.durable:
                durable_size = size
        timeline.replay[index] = check(call, result)
        if call.checkpoint_after:
            tracer.uninstall()
            start = now()
            db.checkpoint()
            checkpoint_ns.append(now() - start)
            wal_size = durable_size = manager.wal.path.stat().st_size
    tracer.uninstall()
    gc.unfreeze()
    timeline.normalise(reference)

    # -- end-to-end numbers: untraced calls, machine slowdown taken out -- #
    ops_per_call = workloads.OPS_PER_CALL
    lat = timeline.latency
    is_write = timeline.is_write
    plain = ~timeline.traced
    wall_ns = float(timeline.raw.sum() + sum(checkpoint_ns))
    run_slowdown = float(np.median(timeline.slowdown))
    # Checkpoints run between calls; the run's median slowdown stands in.
    checkpoints_ns = sum(checkpoint_ns) / run_slowdown
    total_ops = len(calls) * ops_per_call
    sim_ns = accesses.cost(constants)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": plain.sum() * ops_per_call * 1e9
        / (lat[plain].sum() + checkpoints_ns * plain.mean()),
        "read_p50_ms": timeline.percentile(plain & ~is_write, 50) * 1e-6,
        "write_p50_ms": timeline.percentile(plain & is_write, 50) * 1e-6,
        "sim_ns_per_op": sim_ns / total_ops,
    }
    # Window means relative to their phase's mean: what is left of the
    # noise once the slowdown is taken out.
    window_ns = np.asarray(
        [
            lat[plain & (timeline.window == w)].mean()
            / lat[plain & (timeline.phase == timeline.phase[timeline.window == w][0])].mean()
            for w in np.unique(timeline.window[plain])
        ]
    )

    layer = dict.fromkeys(PER_LAYER, 0.0)
    layer.update(
        {
            "api.session.calls": len(calls),
            "api.session.read_p95_ms": timeline.percentile(plain & ~is_write, 95)
            * 1e-6,
            "api.session.write_p95_ms": timeline.percentile(plain & is_write, 95)
            * 1e-6,
            "api.policies.slices_per_call": slices / len(calls),
            "storage.engine.runs_per_call": runs / len(calls),
            "storage.cost_accounting.random_per_op": (
                accesses.random_reads + accesses.random_writes
            ) / total_ops,
            "storage.cost_accounting.seq_per_op": (
                accesses.seq_reads + accesses.seq_writes
            ) / total_ops,
            "storage.cost_accounting.index_probes_per_op": (
                accesses.index_probes / total_ops
            ),
            "storage.cost_accounting.sim_over_wall": sim_ns / wall_ns,
            "core.planner.plan_for_s": stack.plan_for_s,
            "ops_per_s.window_cv": float(window_ns.std() / window_ns.mean()),
            "machine.slowdown": run_slowdown,
        }
    )
    if hasattr(db, "table"):
        layer["storage.column.memory_amplification"] = float(
            np.mean([chunk.memory_amplification for chunk in db.table.chunks])
        )
    if workload == "drift_reorg":
        decisions = stack.reorganizer.decisions
        layer["api.reorg.replans"] = sum(d.replanned for d in decisions)
        layer["api.reorg.rejected"] = sum(not d.replanned for d in decisions)
        layer["api.reorganizer.requeues"] = stack.reorganizer.requeues
    if sharded:
        busy = shard_max_ns / timeline.slowdown
        layer["sharding.worker.execute_ms"] = float(busy[plain].mean()) * 1e-6
        layer["sharding.worker.imbalance"] = float(np.mean(imbalance))
        layer["sharding.cluster.overhead_frac"] = 1.0 - float(
            shard_max_ns[plain].sum() / timeline.raw[plain].sum()
        )

    if trace:
        _layer_times(layer, tracer, timeline)
        tracer.save(OUT / f"spans-{workload}-seed{seed}.npz")

    # -- final state, durability, teardown ------------------------------ #
    session.close()
    attempted += 1
    failed += min(1, content_failures(db, model, inputs.key_domain))
    if manager:
        a, f = _durability_epilogue(
            stack, inputs, model, layer, wal_bytes, durable_size, checkpoint_ns
        )
        attempted += a
        failed += f
    worker_kb = stack.worker_rss_kb()
    children_before = resource.getrusage(resource.RUSAGE_CHILDREN)
    stack.close()
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    if sharded:
        layer["sharding.worker.cpu_s"] = (
            children.ru_utime + children.ru_stime
            - children_before.ru_utime - children_before.ru_stime
        )
    shutil.rmtree(run_dir, ignore_errors=True)
    if manager:
        # Leave no dirty pages behind for the next run's timer to pay for.
        os.sync()
    leaked = len(_shm_entries() - shm_before)
    layer["ipc.shm.leaked_segments"] = leaked
    own_kb = _status_kb("self", "VmHWM") - harness_kb
    metrics["peak_rss_mb"] = (own_kb + worker_kb) / 1024.0
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "scale": scale.name,
        "trace": trace,
        "correct": failed == 0 and leaked == 0,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": metrics,
        "per_layer": layer,
        "samples": {
            "calls": len(calls),
            "read_calls": int((plain & ~is_write).sum()),
            "write_calls": int((plain & is_write).sum()),
            "measured_wall_s": wall_ns * 1e-9,
        },
        # Per-call series, for a reader who wants to see the noise.
        "setup_raw_s": setup_times,
        "latency_us": [int(ns // 1000) for ns in timeline.raw],
        "replay_us": [int(ns // 1000) for ns in timeline.replay],
    }


def _layer_times(layer, tracer, timeline) -> None:
    """Fill the span-derived per-layer metrics from the traced windows."""
    kept = timeline.traced
    summary = tracer.summary(kept, timeline.slowdown)
    traced_calls = int(kept.sum())
    per_call_ms = 1e-6 / traced_calls

    def self_ms(name):
        return summary.get(name, {}).get("self_ns", 0.0) * per_call_ms

    def total_ms(name):
        return summary.get(name, {}).get("total_ns", 0.0) * per_call_ms

    def count(name):
        return summary.get(name, {}).get("count", 0) / traced_calls

    for metric, name in {
        "api.session.self_ms": "api.session",
        "api.policies.group_self_ms": "api.policies.group",
        "storage.engine.dispatch_self_ms": "storage.engine.dispatch",
        "storage.table.read_self_ms": "storage.table.read",
        "storage.table.write_self_ms": "storage.table.write",
        "storage.column.read_kernel_ms": "storage.column.read_kernel",
        "storage.column.write_kernel_ms": "storage.column.write_kernel",
        "core.monitor.observe_ms": "core.monitor.observe",
        "durability.wal.encode_ms": "durability.wal.encode",
        "durability.wal.append_ms": "durability.wal.append",
        "durability.wal.fsync_ms": "durability.wal.fsync",
        "sharding.database.split_merge_self_ms": "sharding.database.split_merge",
        "sharding.shard_map.split_ms": "sharding.shard_map.split",
        "sharding.codec.encode_ops_ms": "sharding.codec.encode_ops",
        "sharding.codec.decode_results_ms": "sharding.codec.decode_results",
        "ipc.framing.send_ms": "ipc.framing.send",
        "ipc.framing.recv_wait_ms": "ipc.framing.recv_wait",
    }.items():
        layer[metric] = self_ms(name)
    # Whole-span durations: what a caller of that layer waits for.
    for metric, name in {
        "api.reorganizer.after_execute_ms": "api.reorganizer.after_execute",
        "api.reorg.scan_ms": "api.reorg.scan",
        "api.reorg.decide_ms": "api.reorg.decide",
        "api.reorg.apply_ms": "api.reorg.apply",
        "core.dp_solver.solve_ms": "core.dp_solver.solve",
        "sharding.cluster.round_ms": "sharding.cluster.round",
    }.items():
        layer[metric] = total_ms(name)
    layer["api.reorg.stall_max_ms"] = (
        summary.get("api.reorganizer.after_execute", {}).get("max_ns", 0.0) * 1e-6
    )
    layer["durability.wal.fsyncs_per_call"] = count("durability.wal.fsync")
    layer["sharding.cluster.rounds_per_call"] = count("sharding.cluster.round")
    layer["storage.table.chunks_per_call"] = tracer.chunk_visits(kept) / traced_calls
    layer["core.monitor.records_per_call"] = tracer.monitor_records / traced_calls
    layer["sharding.codec.arena_bytes_per_call"] = tracer.arena_bytes / traced_calls
    layer["sharding.codec.inline_fallbacks"] = tracer.inline_fallbacks
    all_self = sum(entry["self_ns"] for entry in summary.values())
    layer["trace.self_time_coverage"] = all_self / float(timeline.latency[kept].sum())
    # Same schedule, alternating windows: compare the class medians.
    with_ns = without_ns = 0.0
    for klass in (timeline.is_write, ~timeline.is_write):
        weight = klass.mean()
        with_ns += weight * timeline.percentile(klass & timeline.traced, 50)
        without_ns += weight * timeline.percentile(klass & ~timeline.traced, 50)
    layer["trace.overhead_frac"] = with_ns / without_ns - 1.0


def _durability_epilogue(
    stack, inputs, model, layer, wal_bytes, durable_size, checkpoint_ns
) -> tuple[int, int]:
    """Crash image -> ``Database.open`` -> follower; fills ``durability.*``.

    Killing a process leaves the OS cache intact, so the test itself discards
    what a crash would: the live database is abandoned without ``close()``,
    its log directory copied, and the copy's last WAL segment cut back to the
    size it had at the last ``durable=True`` acknowledgement.  Every
    acknowledged write must be present after recovery.
    """
    import oracle
    from repro.api import Database
    from repro.durability.manager import DurabilityConfig

    db = stack.db
    manager = db.durability
    root = Path(manager.root)
    width = inputs.payload.shape[1]
    written = {
        phase: sum(
            _user_bytes(op, width)
            for call in calls if call.kind == "write" for op in call.ops
        )
        for phase, calls in (("warmup", inputs.warmup), ("measured", inputs.calls))
    }
    user_bytes = inputs.keys.size * 8 * (1 + width) + sum(written.values())
    snapshots = sorted((root / "snapshots").iterdir())
    layer["durability.wal.records"] = manager.last_lsn
    layer["durability.wal.bytes"] = wal_bytes
    layer["durability.wal.bytes_per_user_byte"] = wal_bytes / written["measured"]
    layer["durability.manager.checkpoint_ms"] = (
        statistics.median(checkpoint_ns) * 1e-6 if checkpoint_ns else 0.0
    )
    layer["durability.manager.checkpoints"] = len(checkpoint_ns)
    layer["durability.snapshot.bytes"] = _tree_bytes(snapshots[-1])
    layer["durability.stored_bytes_per_user_byte"] = _tree_bytes(root) / user_bytes

    segment = manager.wal.path.name
    manager.wal.abandon()
    image = root.with_name("crash-image")
    shutil.copytree(root, image)
    os.truncate(image / "wal" / segment, durable_size)

    read_call = next(call for call in inputs.calls if call.kind == "read")
    start = time.perf_counter()
    recovered = Database.open(DurabilityConfig(root=image, fsync="always"))
    open_s = time.perf_counter() - start
    with recovered.session() as session:
        result = session.execute(read_call.ops)
    layer["durability.recovery_s"] = time.perf_counter() - start
    attempted, failed = model.check(read_call.ops, result.results, result.errors)
    failed += content_failures(recovered, model, inputs.key_domain)
    report = recovered.recovery
    layer["durability.recovery.open_s"] = open_s
    layer["durability.recovery.batches_replayed"] = report.batches_replayed
    layer["durability.recovery.replay_ops_per_s"] = report.operations_replayed / open_s
    recovered.close()

    follower_db = Database.follow(image, start=False, catch_up=False)
    start = time.perf_counter()
    follower_db.follower.catch_up()
    catch_up_s = time.perf_counter() - start
    layer["replication.follower.catch_up_s"] = catch_up_s
    layer["replication.follower.apply_ops_per_s"] = (
        follower_db.follower.operations_applied / catch_up_s
    )
    failed += content_failures(follower_db, model, inputs.key_domain)
    follower_db.close()
    shutil.rmtree(image, ignore_errors=True)
    return attempted + 2, min(failed, attempted + 2)


def _user_bytes(op, width: int) -> int:
    """Bytes of user data a write operation carries (8 per int64)."""
    from repro.workload import operations as ops

    if isinstance(op, (ops.Insert, ops.MultiInsert)):
        keys = getattr(op, "keys", (0,))
        return 8 * len(keys) * (1 + width)
    if isinstance(op, ops.MultiDelete):
        return 8 * len(op.keys)
    if isinstance(op, ops.MultiUpdate):
        return 16 * len(op.pairs)
    return 16 if isinstance(op, ops.Update) else 8


# --------------------------------------------------------------------- #
# Command line
# --------------------------------------------------------------------- #


def fingerprint() -> dict:
    """What a reader needs to place the numbers: machine and versions."""
    OUT.mkdir(parents=True, exist_ok=True)
    filesystem = "unknown"
    try:
        best = ""
        for line in Path("/proc/mounts").read_text().splitlines():
            _device, mount, kind = line.split()[:3]
            if str(OUT).startswith(mount) and len(mount) >= len(best):
                best, filesystem = mount, kind
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "log_dir_filesystem": filesystem,
        "caveat": FSYNC_CAVEAT,
    }


def _reported(result: dict) -> list[tuple[str, float, str]]:
    """``(name, value, unit)`` of the metric kind this run reports: the
    per-layer metrics of a traced run, the end-to-end ones otherwise."""
    if result["trace"]:
        return [(n, result["per_layer"][n], u) for n, u in PER_LAYER.items()]
    return [(n, result["end_to_end"][n], s[0]) for n, s in END_TO_END.items()]


def _print_metrics(result: dict) -> None:
    print(f"== {result['workload']} seed={result['seed']} "
          f"trace={int(result['trace'])} scale={result['scale']}")
    for name, value, unit in _reported(result):
        print(f"  {name:<48} {value:>16.6g} {unit}")
    samples = result["samples"]
    print(f"  samples: {samples['read_calls']} read / {samples['write_calls']} "
          f"write calls, measured phase {samples['measured_wall_s']:.2f} s")
    print(f"  checked {result['attempted']} ops, {result['failed']} failed")


def _contract_line(result: dict) -> str:
    metrics = {
        name: {"value": float(value), "unit": unit}
        for name, value, unit in _reported(result)
    }
    return json.dumps(
        {
            "correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": metrics,
        }
    )


def _run_all(args) -> int:
    """Every workload, each in a fresh process; oltp_durable goes last so
    its writeback cannot slow a memory-only run."""
    import workloads

    runs = []
    for seed in range(args.seed, args.seed + args.runs):
        for workload in workloads.WORKLOADS:
            for trace in (0, 1) if args.trace else (0,):
                command = [
                    sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(args.seconds),
                    "--trace", str(trace), "--scale", args.scale,
                ]
                done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
                sys.stdout.write(done.stdout)
                if done.returncode:
                    return done.returncode
                detail = OUT / f"{workload}-seed{seed}-trace{trace}.json"
                run = json.loads(detail.read_text())
                for series in ("latency_us", "replay_us"):
                    del run[series]
                runs.append(run)
    combined = {
        "fingerprint": fingerprint(),
        "seconds": args.seconds,
        "scale": args.scale,
        "runs": runs,
    }
    target = Path(args.output) if args.output else OUT / f"result-seed{args.seed}.json"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(combined, indent=1))
    print(f"wrote {target}")
    print(f"note: {FSYNC_CAVEAT}")
    return 0 if all(run["correct"] for run in runs) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload; default: all four")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--runs", type=int, default=1,
                        help="all-workload mode: seeds seed .. seed+runs-1")
    parser.add_argument("--output", help="all-workload mode: result file")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: program sources not found at {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return _run_all(args)
    # A terminated run unwinds like any other, through the ``finally``.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        result = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), args.scale
        )
    finally:
        reap_processes()
        shutil.rmtree(OUT / f"run-{os.getpid()}", ignore_errors=True)
    result["fingerprint"] = fingerprint()
    detail = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps(result, indent=1))
    _print_metrics(result)
    print(f"note: {FSYNC_CAVEAT}")
    print(_contract_line(result))
    return 0


if __name__ == "__main__":
    # The guard matters: shard workers are spawned, and spawn re-imports the
    # main module in every worker.
    sys.exit(main())
