"""Shard worker process: one shard's database behind a command channel.

``worker_main`` is the spawn target of :class:`~repro.sharding.cluster
.ShardCluster`.  It connects back to the dispatcher's listener,
identifies itself with a ``hello`` frame, then serves the dispatch verbs
over the same length-prefixed JSON framing the replication transport
speaks (:mod:`repro.ipc.framing`):

``attach``
    Build (or recover) this shard's :class:`~repro.api.database.Database`
    -- slice arrays arrive through the channel's shared-memory arena, or
    the worker runs ``Database.open`` on its per-shard durability root --
    and open the long-lived session the execute verb runs through.  The
    session dispatches serially (sub-batches arrive in bulk form already)
    and carries, when requested, its own
    :class:`~repro.api.reorganizer.Reorganizer`, so each shard
    reorganizes independently off the other shards' paths.
``execute``
    Decode a per-shard request body (WAL body format, one record per
    operation: the batched kinds and SUM ranges of the dispatcher's batch
    plan, none of which raises a miss), run it through the session, and
    reply with the encoded results plus the batch's access tally and
    durability watermarks.  A point read answers with the row block
    ``Table.point_rows`` returns (``counts``, ``rowids``, ``cells``), and
    the worker ships those arrays as they are: no ``Row`` is built here.  Writes commit through this shard's
    *own* :class:`~repro.durability.manager.DurabilityManager` -- the
    per-shard WALs are what unserializes durable write batches that a
    single-process database would funnel through one ``wal_commit`` lock.
``take`` / ``put`` / ``forget``
    The three phases of the two-phase cross-shard move protocol, each
    carrying the *list* of moves one dispatcher wave routed to this
    shard (a single move is a list of one), arrays through the arena.
    ``take`` removes one row per listed key (the deterministic oldest
    copy, exactly the serial table's delete victim), logs
    ``[move_intent..., delete]`` as one WAL record and replies with the
    hit mask and the taken payload rows; ``put`` inserts the carried rows
    on the target shard under one ``[move_commit..., insert]`` record;
    ``forget`` logs the source's ``[move_forget...]`` record once the
    dispatcher has every target's ack.  One WAL record per phase is
    all-or-nothing under its CRC, and its markers stay per move, so a
    crash anywhere in the window leaves each move with exactly the
    marker trail a lone move would have -- which the dispatcher's
    re-open scan resolves (see ``ShardedDatabase.open``).  The move
    fault hooks (:data:`repro.durability.faults.MOVE_POINTS`) kill the
    worker at each window edge, counted per phase frame, to test exactly
    that.  ``take`` and ``put`` are the only dispatches no session runs,
    so the worker itself takes the counter window and the clock around
    each one's engine call (:func:`_measured`), and their replies'
    ``accesses`` / ``wall_ns`` mean what an ``execute`` reply's do.
``checkpoint`` / ``sync`` / ``stats`` / ``shutdown``
    Durability lifecycle, introspection (rows, per-kind statistics,
    replans, recorded discipline violations -- the CI shard job asserts
    zero -- and the frame counters: ``batches`` / ``takes`` / ``puts`` /
    ``forgets`` frames served since attach plus ``frames``, every
    request served since attach except ``stats`` probes themselves, so
    tests and benches can assert frame counts), and orderly exit.

The worker is single-threaded on purpose: per-shard FIFO execution is
half of the serial-equivalence argument (the other half is the shard
map's disjoint key spaces).  Inside one batch the engine still uses the
table's chunk latches, so a worker-side reorganizer thread interleaves
safely.
"""

from __future__ import annotations

import collections
import os
import socket
import time

from ..ipc import framing
from ..ipc.shm import ShmArena
from . import codec


def _build_database(request: dict, reader: codec.ArenaReader):
    """Construct this shard's database per the attach request."""
    from ..api.database import Database
    from ..durability.manager import DurabilityConfig
    from ..storage.layouts import LayoutKind
    from ..workload.operations import Workload

    config = request.get("config", {})
    durability_root = request.get("durability")
    durability = None
    if durability_root is not None:
        durability = DurabilityConfig(
            root=durability_root, fsync=config.get("fsync", "always")
        )
    if request["mode"] == "open":
        return Database.open(durability)
    keys = reader.get(request["keys"])
    payload = None
    if "payload" in request:
        # Width travels explicitly: an empty shard slice cannot infer it.
        payload = reader.get(request["payload"]).reshape(
            -1, int(request["width"])
        )
    common = dict(
        chunk_size=int(config.get("chunk_size", 1 << 20)),
        block_values=int(config.get("block_values", 4096)),
        payload_names=config.get("payload_names"),
        durability=durability,
    )
    plan = request.get("plan")
    if plan is not None:
        sample = Workload(
            operations=codec.decode_operations(plan, reader, common["payload_names"]),
            name="shard-sample",
        )
        return Database.plan_for(sample, keys, payload, **common)
    return Database.from_rows(
        keys,
        payload,
        layout=LayoutKind(config.get("layout", "equi")),
        partitions=int(config.get("partitions", 16)),
        **common,
    )


def _open_session(database, config: dict):
    from ..api.reorg import ReorgPolicy
    from ..api.reorganizer import Reorganizer

    reorg = None
    if config.get("reorg"):
        # Each worker drains its own replans between batches; background
        # threads stay inside the worker process.
        reorg = Reorganizer(ReorgPolicy())
    return database.session(reorg=reorg)


def worker_main(host: str, port: int, shard: int, token: str) -> None:
    """Entry point of one shard worker process (spawn target)."""
    from repro import discipline

    sock = socket.create_connection((host, port))
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    framing.send_frame(sock, {"verb": "hello", "shard": shard, "token": token})

    database = None
    session = None
    arena: ShmArena | None = None
    #: Request frames served since attach, by verb; the move fault hooks
    #: fire on the n-th frame of their phase.
    served: collections.Counter = collections.Counter()
    faults: dict = {}

    def close_database() -> None:
        nonlocal database, session
        if session is not None and not session.closed:
            session.close()
        if database is not None:
            database.close()
        database = session = None

    def die_at(point: str, verb: str) -> None:
        if faults.get(point) == served[verb]:
            os._exit(1)

    try:
        while True:
            try:
                request = framing.recv_frame(sock)
            except framing.FrameError:
                break
            if request is None:
                break  # dispatcher went away; per-shard WAL has the state
            verb = request.get("verb")
            reply: dict = {"ok": True}
            try:
                served[verb] += 1
                if verb == "attach":
                    close_database()
                    if arena is not None:
                        arena.close()
                        arena = None
                    if request.get("arena"):
                        arena = ShmArena.attach(request["arena"])
                    reader = codec.ArenaReader(arena)
                    database = _build_database(request, reader)
                    session = _open_session(database, request.get("config", {}))
                    faults = request.get("faults") or {}
                    served.clear()
                    reply["rows"] = int(database.num_rows)
                    reply["payload_names"] = list(database.table.payload_names)
                elif verb == "execute":
                    die_at("exit_before_apply", verb)
                    oplist = codec.decode_operations(
                        request["ops"],
                        codec.ArenaReader(arena),
                        database.table.payload_names,
                    )
                    outcome = session.execute(oplist)
                    # Simulates a crash after the WAL append + fsync but
                    # before the dispatcher hears back: recovery must
                    # replay this batch from the shard's log.
                    die_at("exit_before_ack", verb)
                    reply["results"] = codec.encode_results(
                        outcome.results, codec.ArenaWriter(arena)
                    )
                    reply["accesses"] = _counter_meta(outcome.accesses)
                    reply["wall_ns"] = float(outcome.wall_ns)
                    reply["commit_lsn"] = outcome.commit_lsn
                    reply["durable"] = bool(outcome.durable)
                elif verb == "take":
                    die_at("move.take.before_apply", verb)
                    moves = codec.ArenaReader(arena).get(request["moves"])
                    (found, rows), accesses, wall_ns = _measured(
                        database, database.engine.take_for_moves, moves
                    )
                    if found.any():
                        # The intents + delete are on the source WAL but
                        # the dispatcher never hears the payloads:
                        # recovery must resolve the orphaned intents from
                        # the log alone.
                        die_at("move.take.before_ack", verb)
                    reply.update(
                        _move_reply(database, arena, accesses, wall_ns, found, rows)
                    )
                elif verb == "put":
                    die_at("move.put.before_apply", verb)
                    reader = codec.ArenaReader(arena)
                    _rowids, accesses, wall_ns = _measured(
                        database,
                        database.engine.apply_move_puts,
                        reader.get(request["moves"]),
                        reader.get(request["payload"]),
                    )
                    # The commits + insert are on the target WAL but the
                    # sources never get their forgets: the re-open scan
                    # must see the commits and only discard the intents.
                    die_at("move.put.before_ack", verb)
                    reply.update(_move_reply(database, arena, accesses, wall_ns))
                elif verb == "forget":
                    die_at("move.forget.before_apply", verb)
                    database.engine.log_move_forgets(
                        codec.ArenaReader(arena).get(request["moves"])
                    )
                    reply.update(_watermark(database))
                elif verb == "checkpoint":
                    if database.durability is not None:
                        info = database.checkpoint()
                        reply["snapshot_lsn"] = int(info.lsn)
                elif verb == "sync":
                    if database.durability is not None:
                        reply["durable_lsn"] = int(database.sync())
                elif verb == "stats":
                    reply.update(_stats(database, session, discipline, served))
                elif verb == "shutdown":
                    framing.send_frame(sock, reply)
                    break
                else:
                    reply = {"ok": False, "error": f"unknown verb {verb!r}"}
            except Exception as exc:  # surface worker failures to the peer
                reply = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
            try:
                framing.send_frame(sock, reply)
            except framing.FrameError:
                break
    finally:
        close_database()
        if arena is not None:
            arena.close()
        try:
            sock.close()
        except OSError:
            pass


def _measured(database, phase, *args) -> tuple:
    """Run one move phase's engine call under a counter window and a
    clock, as a session measures an ``execute`` call; returns ``(result,
    accesses, wall_ns)``."""
    counter = database.engine.counter
    before = counter.snapshot()
    start = time.perf_counter_ns()
    result = phase(*args)
    return result, counter.diff(before), float(time.perf_counter_ns() - start)


def _move_reply(database, arena, accesses, wall_ns, *arrays) -> dict:
    """A move phase's reply, in the shape of an ``execute`` reply: result
    arrays through the arena, access tally, wall time, watermark."""
    writer = codec.ArenaWriter(arena)
    reply = {
        # The codec's wire form of a bare int64 array result.
        "results": [{"t": "a", "v": writer.put(array)} for array in arrays],
        "accesses": _counter_meta(accesses),
        "wall_ns": wall_ns,
    }
    reply.update(_watermark(database))
    return reply


def _watermark(database) -> dict:
    """This shard's durability watermark, as execute replies report it."""
    manager = database.durability
    if manager is None:
        return {"commit_lsn": None, "durable": True}
    lsn = int(manager.last_lsn)
    return {"commit_lsn": lsn, "durable": bool(manager.durable_lsn >= lsn)}


def _stats(database, session, discipline, served) -> dict:
    replans = 0
    if session is not None and session.reorg is not None:
        replans = int(session.reorg.replans)
    durable_lsn = None
    if database is not None and database.durability is not None:
        durable_lsn = int(database.durability.durable_lsn)
    return {
        "rows": int(database.num_rows) if database is not None else 0,
        "chunks": int(database.num_chunks) if database is not None else 0,
        "operations": dict(database.statistics.operations)
        if database is not None
        else {},
        "replans": replans,
        "violations": len(discipline.violations()),
        "durable_lsn": durable_lsn,
        # Frames served since attach: per data verb, and in total
        # (``stats`` probes excluded, so the total is a function of the
        # workload alone).
        "batches": served["execute"],
        "takes": served["take"],
        "puts": served["put"],
        "forgets": served["forget"],
        "frames": sum(served.values()) - served["stats"],
    }


def _counter_meta(counter) -> dict:
    return {
        "rr": int(counter.random_reads),
        "rw": int(counter.random_writes),
        "sr": int(counter.seq_reads),
        "sw": int(counter.seq_writes),
        "ip": int(counter.index_probes),
    }
