"""Worker-process pool and per-shard command channels.

:class:`ShardCluster` owns the process side of sharding: it binds one
loopback listener, spawns ``n_shards`` worker processes
(:func:`~repro.sharding.worker.worker_main`, ``spawn`` context so no
parent state leaks through ``fork``), and pairs each accepted connection
with its shard by the worker's authenticated ``hello`` frame.  Each pair
becomes a :class:`ShardChannel`: one socket, one shared-memory arena for
bulk arrays, and a frame lock so request/reply pairs never interleave.

The cluster is deliberately separable from the data: ``attach`` can be
sent repeatedly (property tests re-load fresh data into a long-lived
pool instead of paying process spawn per example), and
:meth:`ShardCluster.round` is the only dispatch primitive -- send every
involved shard its frame, then collect every reply, so workers compute
concurrently while the dispatcher blocks on the slowest one.
:meth:`~ShardCluster.execute_round` (sub-batches), the move phases of
:mod:`repro.sharding.database` (take / put / forget lists) and
:meth:`~ShardCluster.request_all` (lifecycle verbs) are its callers.  A
round always collects from every channel it sent to before it raises,
whatever failed, so no reply is left in a socket for the next request to
mistake for its own.

Locking (registered in :data:`repro.discipline.LOCK_ORDER`): a round
reads the channel registry under the cluster lock ``shard_state``
(lifecycle mutates it under the same lock), then sends and receives each
frame under that channel's ``shard_channel`` lock.  ``shard_state`` ranks
outside ``shard_channel`` and the two are never held together; neither
is ever taken from a worker process.  A channel's arena is rewritten by
every frame, so one dispatcher thread drives a cluster at a time.
"""

from __future__ import annotations

import multiprocessing
import secrets
import socket
from dataclasses import dataclass
from typing import Callable, Mapping

from repro import discipline
from repro.discipline import guarded_class

from ..ipc import framing
from ..ipc.shm import ShmArena
from ..storage.cost_accounting import AccessCounter
from . import codec
from .errors import ShardError, WorkerDiedError

#: Default arena capacity per channel; arrays beyond it fall back to
#: inline JSON in the frame (slower, never wrong).
DEFAULT_ARENA_BYTES = 1 << 23

#: Accept/connect deadline for worker bootstrap.
_SPAWN_TIMEOUT_S = 60.0

#: Per-request socket deadline: long enough for a worker-side checkpoint
#: or a huge batch, short enough that a hung worker fails the test run
#: instead of wedging it.
_REQUEST_TIMEOUT_S = 120.0


#: Builds one frame, encoding its bulk arrays through the receiving
#: channel's arena writer.
FrameBuilder = Callable[[codec.ArenaWriter], dict]


@dataclass
class ExecuteReply:
    """One shard's decoded reply to an ``execute`` or move-phase frame.

    Every data verb answers in this one shape; a ``take`` reports its
    ``(found mask, flat payload rows)`` as ``results``, ``put`` and
    ``forget`` leave it empty.
    """

    results: list
    accesses: AccessCounter
    wall_ns: float
    commit_lsn: int | None
    durable: bool


def _decode_counter(meta: dict | None) -> AccessCounter:
    if not meta:
        return AccessCounter()
    return AccessCounter(
        random_reads=meta.get("rr", 0),
        random_writes=meta.get("rw", 0),
        seq_reads=meta.get("sr", 0),
        seq_writes=meta.get("sw", 0),
        index_probes=meta.get("ip", 0),
    )


@guarded_class
class ShardChannel:
    """One worker's command channel: socket + arena + frame lock."""

    def __init__(
        self, shard: int, sock: socket.socket, arena: ShmArena
    ) -> None:
        self.shard = shard
        self.arena = arena
        self._lock = discipline.make_lock("shard_channel")
        with self._lock:
            self._sock = sock

    # -- frame plumbing (socket passed in: ``_sock`` reads stay under
    #    ``shard_channel`` in the public methods) ----------------------- #

    def _send(self, sock, frame: dict) -> None:
        if sock is None:
            raise WorkerDiedError(self.shard, "channel is closed")
        try:
            framing.send_frame(sock, frame)
        except framing.FrameError as exc:
            raise WorkerDiedError(self.shard, str(exc)) from exc

    def _recv(self, sock) -> dict:
        if sock is None:
            raise WorkerDiedError(self.shard, "channel is closed")
        try:
            reply = framing.recv_frame(sock)
        except framing.FrameError as exc:
            raise WorkerDiedError(self.shard, str(exc)) from exc
        if reply is None:
            raise WorkerDiedError(self.shard, "worker closed the connection")
        if not reply.get("ok"):
            raise ShardError(
                f"shard {self.shard} rejected request: {reply.get('error')}"
            )
        return reply

    # -- public request surface ---------------------------------------- #

    def request(self, frame: dict) -> dict:
        """One synchronous request/reply exchange."""
        with self._lock:
            sock = self._sock
            self._send(sock, frame)
            return self._recv(sock)

    def send(self, build: FrameBuilder) -> None:
        """Build and send one frame (reply read separately by :meth:`recv`)."""
        with self._lock:
            self._send(self._sock, build(codec.ArenaWriter(self.arena)))

    def recv(self) -> dict:
        """Receive the raw reply to the last :meth:`send`."""
        with self._lock:
            return self._recv(self._sock)

    def decode_reply(self, reply: dict) -> ExecuteReply:
        """Decode a data verb's reply, resolving arrays from the arena."""
        return ExecuteReply(
            results=codec.decode_results(
                reply.get("results", ()), codec.ArenaReader(self.arena)
            ),
            accesses=_decode_counter(reply.get("accesses")),
            wall_ns=float(reply.get("wall_ns", 0.0)),
            commit_lsn=reply.get("commit_lsn"),
            durable=bool(reply.get("durable", True)),
        )

    def close(self) -> None:
        """Drop the socket and release the arena (idempotent)."""
        with self._lock:
            sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass
        self.arena.close()


@guarded_class
class ShardCluster:
    """A pool of shard worker processes plus their channels."""

    def __init__(
        self, n_shards: int, *, arena_bytes: int = DEFAULT_ARENA_BYTES
    ) -> None:
        if n_shards <= 0:
            raise ValueError("n_shards must be positive")
        self.n_shards = int(n_shards)
        self.arena_bytes = int(arena_bytes)
        self._lock = discipline.make_lock("shard_state")
        with self._lock:
            self._channels: dict[int, ShardChannel] = {}
            self._processes: dict[int, multiprocessing.process.BaseProcess] = {}
        self._started = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> "ShardCluster":
        """Spawn the workers and pair their channels (idempotent)."""
        if self._started:
            return self
        from .worker import worker_main

        token = secrets.token_hex(16)
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(_SPAWN_TIMEOUT_S)
        host, port = listener.getsockname()[:2]
        context = multiprocessing.get_context("spawn")
        processes: dict[int, multiprocessing.process.BaseProcess] = {}
        channels: dict[int, ShardChannel] = {}
        try:
            for shard in range(self.n_shards):
                process = context.Process(
                    target=worker_main,
                    args=(host, port, shard, token),
                    name=f"shard-worker-{shard}",
                    daemon=True,
                )
                process.start()
                processes[shard] = process
            for _ in range(self.n_shards):
                conn, _ = listener.accept()
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                conn.settimeout(_REQUEST_TIMEOUT_S)
                hello = framing.recv_frame(conn)
                if (
                    hello is None
                    or hello.get("verb") != "hello"
                    or hello.get("token") != token
                    or hello.get("shard") not in processes
                ):
                    conn.close()
                    raise ShardError(f"bad worker hello: {hello!r}")
                shard = int(hello["shard"])
                channels[shard] = ShardChannel(
                    shard, conn, ShmArena.create(self.arena_bytes)
                )
        except Exception:
            for channel in channels.values():
                channel.close()
            for process in processes.values():
                process.terminate()
            raise
        finally:
            listener.close()
        with self._lock:
            self._channels = channels
            self._processes = processes
        self._started = True
        return self

    def stop(self) -> None:
        """Shut workers down politely, then make sure they are gone."""
        with self._lock:
            channels = dict(self._channels)
            processes = dict(self._processes)
            self._channels = {}
            self._processes = {}
        self._started = False
        for channel in channels.values():
            try:
                channel.request({"verb": "shutdown"})
            except (ShardError, OSError):
                pass
            channel.close()
        for process in processes.values():
            process.join(timeout=5.0)
            if process.is_alive():
                process.terminate()

    def kill(self, shard: int) -> None:
        """SIGKILL one worker (crash-recovery tests)."""
        with self._lock:
            process = self._processes.get(shard)
        if process is not None:
            process.kill()
            process.join(timeout=5.0)

    def alive(self, shard: int) -> bool:
        """Whether the shard's worker process is still running."""
        with self._lock:
            process = self._processes.get(shard)
        return process is not None and process.is_alive()

    def __enter__(self) -> "ShardCluster":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #

    def channel(self, shard: int) -> ShardChannel:
        """The command channel of one shard."""
        with self._lock:
            try:
                return self._channels[shard]
            except KeyError:
                raise ShardError(f"no channel for shard {shard}") from None

    def round(
        self, frames: Mapping[int, FrameBuilder]
    ) -> dict[int, dict]:
        """Send each involved shard its frame, then collect each raw reply.

        All sends complete before the first receive blocks, so every
        involved worker runs concurrently; the round returns when the
        slowest one replies.  A failure of any kind (dead worker,
        rejected request, a frame that cannot be built) stops further
        sends, but every channel already sent to is still drained before
        the first error is raised -- an unread reply would answer that
        channel's *next* request.
        """
        with self._lock:
            channels = {
                shard: self._channels[shard]
                for shard in frames
                if shard in self._channels
            }
        missing = set(frames) - set(channels)
        if missing:
            raise ShardError(f"no channel for shards {sorted(missing)}")
        error: Exception | None = None
        sent = []
        for shard, build in frames.items():
            try:
                channels[shard].send(build)
            except Exception as exc:
                error = exc
                break
            sent.append(shard)
        replies = {}
        for shard in sent:
            try:
                replies[shard] = channels[shard].recv()
            except Exception as exc:
                error = error or exc
        if error is not None:
            raise error
        return replies

    def request_all(self, frame: dict) -> dict[int, dict]:
        """Send one verb frame to every shard; collect replies by shard."""
        with self._lock:
            shards = sorted(self._channels)
        return self.round({shard: lambda _writer: frame for shard in shards})

    def execute_round(
        self, shard_ops: dict[int, list]
    ) -> dict[int, ExecuteReply]:
        """Fan one round of per-shard sub-batches out and collect replies."""
        replies = self.round(
            {
                shard: lambda writer, oplist=oplist: {
                    "verb": "execute",
                    "ops": codec.encode_ops(oplist, writer),
                }
                for shard, oplist in shard_ops.items()
            }
        )
        return {
            shard: self.channel(shard).decode_reply(reply)
            for shard, reply in replies.items()
        }
