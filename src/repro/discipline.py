"""Concurrency discipline: declared invariants plus a debug-mode detector.

PR 5 made the engine concurrent under a small set of rules -- chunk-granular
RW latches, ascending-order multi-acquire, generation-checked copy-on-write
publishes, solver-outside-the-lock -- that until now lived only in comments
and probabilistic stress tests.  This module turns them into *data* that is
enforced twice:

* **statically** by :mod:`repro.analysis` (``python -m repro.analysis src/``),
  which parses the tree with :mod:`ast` and checks every latch bracket, lock
  nesting, guarded-attribute access and publish site against the tables
  declared here;
* **at runtime** (opt-in via ``REPRO_DEBUG_LATCHES=1``) by a debug layer
  that records per-thread held-lock sets, builds a lock-order graph with
  cycle detection (potential-deadlock reports carry both acquisition
  stacks), asserts latch requirements at decorated entry points, and runs
  an Eraser-lite lockset check over the ``GUARDED_BY`` attributes.

When the debug mode is disabled (the default) every hook here compiles out:
``requires_latch``/``requires_lock`` return the function unchanged,
``guarded_class`` returns the class unchanged, and the lock factories
return plain :mod:`threading` primitives -- the hot paths are bit-identical
to the undecorated code.

This module is dependency-free (stdlib only) so the static analyzer can
import the declaration tables without dragging in numpy.
"""

from __future__ import annotations

import os
import threading
import traceback
from dataclasses import dataclass, field
from typing import Callable, Iterable

#: Environment variable that switches the runtime debug layer on.
DEBUG_ENV = "REPRO_DEBUG_LATCHES"

#: Debug-mode decisions taken at import time (decorator wrapping).  The
#: mutable module flag below can be flipped by tests for construction-time
#: choices (latch classes, lock factories), but already-imported decorated
#: functions keep their import-time shape.
DEBUG_AT_IMPORT = os.environ.get(DEBUG_ENV, "").strip() not in ("", "0", "false")

_debug = DEBUG_AT_IMPORT


def debug_enabled() -> bool:
    """Whether the runtime debug layer is active (construction-time checks)."""
    return _debug


def set_debug(enabled: bool) -> None:
    """Flip the debug flag (test hook).

    Affects *construction-time* choices -- latch classes picked by
    :class:`~repro.storage.latches.ChunkLatches`, lock factories -- but not
    decorators already applied at import time, which honour
    :data:`DEBUG_AT_IMPORT`.  Tests exercising the decorator wrappers use
    :func:`wrap_requires_latch` directly or a subprocess with the
    environment variable set.
    """
    global _debug
    _debug = bool(enabled)


class LatchDisciplineError(AssertionError):
    """A latch/lock discipline assertion failed in debug mode."""


# --------------------------------------------------------------------- #
# Declared model: lock order, lock attributes, guarded state
# --------------------------------------------------------------------- #

#: Rank of every chunk latch (the outermost tier of the partial order).
CHUNK_LATCH_RANK = 0

#: The declared acquisition partial order: a lock may only be acquired
#: while every held lock has a strictly *smaller* rank.  The durability
#: commit lock is the outermost of all (a durable write scope holds it
#: across chunk-latched applies *and* the WAL append; a checkpoint holds
#: it across whole-table chunk snapshots), with the WAL group-commit sync
#: lock just inside it -- hence the negative ranks.  Chunk latches are the
#: outermost *storage* tier; within the tier, :class:`ChunkLatches`
#: requires ascending chunk indices (check LO02).  This is the order the
#: sharding dispatcher inherits -- extend it here, not in comments.
LOCK_ORDER: dict[str, int] = {
    # Sharding tier (dispatcher side, outermost of all): the dispatcher
    # serializes rounds on ``shard_state`` and then talks to each worker
    # under that worker's ``shard_channel`` frame lock, while the workers'
    # own durability/storage locks live in *other processes* and never
    # interleave with these.  A dispatcher thread may also execute against
    # an in-process oracle database while holding ``shard_state`` (the
    # equality harness does), so the tier sits outside ``wal_commit``.
    "shard_state": -40,
    "shard_channel": -30,
    "wal_commit": -20,
    "wal_sync": -10,
    # Replication tier: the log tail's apply lock is held across WAL
    # replay into the tail's table (which takes chunk latches), so it
    # sits outside the chunk tier; the cursor-pin registry may be taken
    # under the commit lock (checkpoint GC) *or* under the applier lock
    # (watermark exchange), so it is the innermost durability lock.
    "replica_apply": -6,
    "replica_pins": -4,
    "chunk_latch": CHUNK_LATCH_RANK,
    "table_structure": 10,
    "table_payload": 20,
    "engine_stats": 30,
    "policy_state": 40,
    "monitor": 50,
    "reorg_state": 60,
    "reorg_wake": 70,
}

#: Rank assigned to locks the model does not know (they sort after every
#: declared lock, so acquiring a declared lock while holding one is an
#: order violation -- unknown locks must be innermost).
UNKNOWN_LOCK_RANK = 1_000

#: Maps ``(class name, attribute name)`` of a lock attribute to its order
#: name, so both the static walker and fixtures resolve ``with
#: self._state_lock:`` blocks to a ranked lock.  ``None`` class keys are
#: name-only fallbacks for attributes that are unambiguous repo-wide.
LOCK_ATTRIBUTES: dict[tuple[str | None, str], str] = {
    ("Table", "_structure_lock"): "table_structure",
    ("Table", "_payload_lock"): "table_payload",
    ("EngineStatistics", "_lock"): "engine_stats",
    ("WorkloadMonitor", "_lock"): "monitor",
    ("ReorgPolicy", "_state_lock"): "policy_state",
    ("Reorganizer", "_state"): "reorg_state",
    ("Reorganizer", "_wake"): "reorg_wake",
    ("DurabilityManager", "_commit_lock"): "wal_commit",
    ("DurabilityManager", "_pins_lock"): "replica_pins",
    ("WalWriter", "_sync_lock"): "wal_sync",
    ("LogTail", "_apply_lock"): "replica_apply",
    ("ShardCluster", "_lock"): "shard_state",
    ("ShardedDatabase", "_lock"): "shard_state",
    ("ShardChannel", "_lock"): "shard_channel",
    (None, "commit_lock"): "wal_commit",
    (None, "_commit_lock"): "wal_commit",
    (None, "_sync_lock"): "wal_sync",
    (None, "_pins_lock"): "replica_pins",
    (None, "_apply_lock"): "replica_apply",
    (None, "_structure_lock"): "table_structure",
    (None, "_payload_lock"): "table_payload",
    (None, "_state_lock"): "policy_state",
    (None, "_state"): "reorg_state",
    (None, "_wake"): "reorg_wake",
    # Cross-object references in the sharding layer: a helper holding a
    # borrowed cluster/channel lock names the attribute unambiguously.
    (None, "_shard_state_lock"): "shard_state",
    (None, "_shard_channel_lock"): "shard_channel",
}

#: Chunk-touching methods and the latch mode each requires.  The
#: ``@requires_latch`` decorators across ``storage/column.py`` and
#: ``storage/delta_store.py`` must agree with this table (a test asserts
#: it), and the static latch-bracketing checker (LB01) treats any call to
#: one of these names on a chunk object as requiring the declared mode.
CHUNK_METHOD_MODES: dict[str, str] = {
    # Shared (read) mode: concurrent probes of one chunk.
    "point_query": "shared",
    "multi_point_query": "shared",
    "range_query": "shared",
    "multi_range_count": "shared",
    "range_rowids": "shared",
    "full_scan": "shared",
    # Exclusive (write) mode: structural mutation of one chunk.
    "insert": "exclusive",
    "delete": "exclusive",
    "update": "exclusive",
    "remove_one": "exclusive",
    "bulk_insert": "exclusive",
    "bulk_delete": "exclusive",
    # Module-level kernel over several chunks (every one latched).
    "bulk_insert_chunks": "exclusive",
}

#: Latch-mode strength: exclusive satisfies a shared requirement.
_MODE_LEVEL = {"shared": 1, "exclusive": 2}

#: Guarded state: ``GUARDED_BY[class][attribute] = (lock name, mode)``.
#: Mode ``"rw"`` means *every* access (read or write) must hold the lock;
#: ``"write"`` means writes must hold it while unlocked reads are
#: tolerated (GIL-atomic reads of monotonic scalars / published
#: references, documented at each declaration site).  ``__init__`` /
#: ``__post_init__`` are exempt (the object is not yet shared).
GUARDED_BY: dict[str, dict[str, tuple[str, str]]] = {
    "Table": {
        # Payload growth is serialized; readers see rows only after the
        # chunk insert publishes their row ids, so reads stay unlocked.
        "_payload": ("table_payload", "write"),
        "_next_rowid": ("table_payload", "rw"),
        "_payload_capacity": ("table_payload", "rw"),
        # Fence/router refresh happens under the structure lock; unlocked
        # reads see either the old or the new published router state.
        "_chunk_bounds": ("table_structure", "write"),
        "_router": ("table_structure", "write"),
        # Generations move only under the owning chunk's exclusive latch.
        "_generations": ("chunk_latch:exclusive", "write"),
    },
    "EngineStatistics": {
        "operations": ("engine_stats", "write"),
    },
    "WorkloadMonitor": {
        "_counts": ("monitor", "rw"),
        "_samples": ("monitor", "rw"),
    },
    "ReorgPolicy": {
        "_baselines": ("policy_state", "rw"),
        "_baselines_seeded": ("policy_state", "rw"),
        "decisions": ("policy_state", "write"),
        "_reported": ("policy_state", "rw"),
        "_database": ("policy_state", "write"),
    },
    "Reorganizer": {
        "requeues": ("reorg_state", "write"),
        "errors": ("reorg_state", "write"),
        "_failures": ("reorg_state", "rw"),
        "_sessions": ("reorg_state", "rw"),
        "_thread": ("reorg_state", "rw"),
        "_database": ("reorg_state", "write"),
        "_pending": ("reorg_wake", "rw"),
        "_busy": ("reorg_wake", "rw"),
        "_stop": ("reorg_wake", "rw"),
    },
    "WalWriter": {
        # Framing state moves only inside a commit scope (the manager's
        # ``wal_commit`` lock, the decorated precondition of ``append``);
        # the sync path reads them unlocked to latch its fsync target.
        "_offset": ("wal_commit", "write"),
        "_appended_lsn": ("wal_commit", "write"),
        # The durable watermark moves only under the group-commit lock;
        # commit acknowledgement reads it unlocked (monotonic scalar).
        "_synced_offset": ("wal_sync", "write"),
        "_synced_lsn": ("wal_sync", "write"),
    },
    "DurabilityManager": {
        # Degradation latches and the checkpoint watermark flip only under
        # the commit lock; ``require_writable`` reads them unlocked (a
        # racing read at worst lets one already-in-flight scope commit,
        # which the failing append itself then refuses).
        "_read_only": ("wal_commit", "write"),
        "_closed": ("wal_commit", "write"),
        "_last_checkpoint": ("wal_commit", "write"),
        # The active segment writer is swapped at checkpoint rotation
        # only; unlocked readers see the old or the new published writer.
        "wal": ("wal_commit", "write"),
        # Replication cursor pins: mutated by watermark exchanges, read
        # by checkpoint GC; every access holds the pin-registry lock.
        "_pins": ("replica_pins", "rw"),
    },
    "ShardChannel": {
        # The one connection to a shard worker: request/reply pairs (and
        # the close that invalidates the socket) hold the channel lock, so
        # frames from concurrent dispatcher threads never interleave.
        "_sock": ("shard_channel", "rw"),
    },
    "ShardCluster": {
        # Worker-process/channel registries: mutated at start/stop and on
        # worker death, read by every dispatch round.
        "_channels": ("shard_state", "rw"),
        "_processes": ("shard_state", "rw"),
    },
    "LogTail": {
        # The cursor and the replay accounting move only under the
        # tail's apply lock (a follower's poll thread and direct catch-up
        # callers share one tail); the applied/target watermarks and the
        # counters are read unlocked by lag introspection and recovery's
        # report (monotonic scalars within an incarnation).
        "_cursor": ("replica_apply", "rw"),
        "applied_lsn": ("replica_apply", "write"),
        "target_lsn": ("replica_apply", "write"),
        "batches_applied": ("replica_apply", "write"),
        "operations_applied": ("replica_apply", "write"),
        "torn_bytes": ("replica_apply", "write"),
        "segments_scanned": ("replica_apply", "write"),
    },
}

#: Container methods the checkers treat as *mutations* of a guarded
#: attribute (``self._pending.append(...)`` is a write to ``_pending``).
MUTATING_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "extend",
        "extendleft",
        "add",
        "discard",
        "remove",
        "pop",
        "popleft",
        "popitem",
        "clear",
        "update",
        "setdefault",
        "insert",
        "rebuild",
        "sort",
        "reverse",
    }
)

#: Solver / heavy-rebuild entry points that must never run under a latch
#: or any declared lock (check SL01): the expensive phases of a replan are
#: off-latch by design.
SOLVER_CALL_NAMES = frozenset(
    {
        "plan_chunk",
        "with_sample",
        "build_chunk",
        "build_chunk_from_plan",
        "evaluate_layout",
        "optimize_layout",
        "solve_bip",
        "solve_dp",
        "solve_greedy",
        "build_chunk_replacement",
        "decide_chunk",
    }
)


def mode_level(mode: str) -> int:
    """Numeric strength of a latch mode (exclusive > shared)."""
    try:
        return _MODE_LEVEL[mode]
    except KeyError:
        raise ValueError(f"unknown latch mode: {mode!r}") from None


def lock_rank(name: str) -> int:
    """Declared rank of a lock order name (unknown locks sort last)."""
    return LOCK_ORDER.get(name, UNKNOWN_LOCK_RANK)


# --------------------------------------------------------------------- #
# Violation recording
# --------------------------------------------------------------------- #


@dataclass
class DisciplineViolation:
    """One runtime discipline violation (recorded, not raised)."""

    check: str
    message: str
    stack: str = ""
    extra_stack: str = ""


_violations: list[DisciplineViolation] = []
_violations_lock = threading.Lock()


def violations() -> list[DisciplineViolation]:
    """All runtime violations recorded since the last :func:`clear`."""
    with _violations_lock:
        return list(_violations)


def clear_violations() -> None:
    """Forget recorded runtime violations (test hook)."""
    with _violations_lock:
        _violations.clear()
    _order_graph.reset()


def _record_violation(
    check: str, message: str, *, stack: str = "", extra_stack: str = ""
) -> DisciplineViolation:
    violation = DisciplineViolation(
        check=check, message=message, stack=stack, extra_stack=extra_stack
    )
    with _violations_lock:
        _violations.append(violation)
    return violation


def _stack() -> str:
    # Drop the innermost frames (this module's plumbing) for readability.
    return "".join(traceback.format_stack()[:-2])


# --------------------------------------------------------------------- #
# Per-thread held-lock state
# --------------------------------------------------------------------- #


class _ThreadState(threading.local):
    def __init__(self) -> None:  # noqa: B027 - threading.local init hook
        # key -> (mode level, group id, chunk index) for chunk latches
        self.latches: dict[object, tuple[int, int, int]] = {}
        # order name -> reentry count for tracked named locks
        self.locks: dict[str, int] = {}


_state = _ThreadState()


def held_latches() -> dict[object, tuple[int, int, int]]:
    """The calling thread's held chunk latches (debug mode)."""
    return dict(_state.latches)


def held_locks() -> dict[str, int]:
    """The calling thread's held tracked locks, name -> reentry count."""
    return dict(_state.locks)


def _held_keys() -> list[tuple[object, int]]:
    """(graph key, rank) pairs for everything the thread holds."""
    keys: list[tuple[object, int]] = [
        (key, CHUNK_LATCH_RANK) for key in _state.latches
    ]
    keys.extend((name, lock_rank(name)) for name in _state.locks)
    return keys


def holds_chunk_latch(mode: str = "shared") -> bool:
    """Whether the thread holds any chunk latch of at least ``mode``."""
    needed = mode_level(mode)
    return any(level >= needed for level, _, _ in _state.latches.values())


def holds_lock(name: str) -> bool:
    """Whether the thread holds the tracked lock called ``name``."""
    return _state.locks.get(name, 0) > 0


# --------------------------------------------------------------------- #
# Lock-order graph (cycle detection = potential deadlock)
# --------------------------------------------------------------------- #


@dataclass
class PotentialDeadlock:
    """A cycle in the lock-order graph: two sites acquire in both orders."""

    edge: tuple[object, object]
    cycle: list[object]
    stack: str
    reverse_stack: str


class LockOrderGraph:
    """Directed graph of observed ``held -> acquired`` lock pairs.

    Every acquisition adds one edge per currently-held lock.  An edge that
    closes a cycle is a *potential deadlock* -- some interleaving of the
    recorded acquisition sites can deadlock -- and is reported with the
    acquisition stack of both directions (Eraser-style: no actual deadlock
    has to occur for the order inversion to be caught).
    """

    def __init__(self) -> None:
        self._edges: dict[object, dict[object, str]] = {}
        self._lock = threading.Lock()
        self.cycles: list[PotentialDeadlock] = []

    def reset(self) -> None:
        with self._lock:
            self._edges.clear()
            self.cycles.clear()

    def edges(self) -> list[tuple[object, object]]:
        """All recorded (held, acquired) pairs."""
        with self._lock:
            return [
                (src, dst) for src, dsts in self._edges.items() for dst in dsts
            ]

    def _path(self, start: object, goal: object) -> list[object] | None:
        """A path start -> ... -> goal in the edge set, if one exists."""
        stack = [(start, [start])]
        seen = {start}
        while stack:
            node, path = stack.pop()
            if node == goal:
                return path
            for nxt in self._edges.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, path + [nxt]))
        return None

    def note(
        self,
        held: Iterable[object],
        acquired: object,
        stack: str = "",
    ) -> list[PotentialDeadlock]:
        """Record edges ``held -> acquired``; return any new cycles."""
        found: list[PotentialDeadlock] = []
        with self._lock:
            for src in held:
                if src == acquired:
                    continue
                existing = self._edges.setdefault(src, {})
                if acquired in existing:
                    continue
                # Adding src -> acquired closes a cycle iff acquired
                # already reaches src.
                path = self._path(acquired, src)
                existing[acquired] = stack
                if path is not None:
                    reverse_stack = ""
                    if len(path) >= 2:
                        reverse_stack = self._edges.get(path[0], {}).get(
                            path[1], ""
                        )
                    found.append(
                        PotentialDeadlock(
                            edge=(src, acquired),
                            cycle=path + [acquired],
                            stack=stack,
                            reverse_stack=reverse_stack,
                        )
                    )
            self.cycles.extend(found)
        return found

    def has_cycles(self) -> bool:
        """Whether any recorded acquisition closed a cycle."""
        with self._lock:
            return bool(self.cycles)


_order_graph = LockOrderGraph()


def order_graph() -> LockOrderGraph:
    """The process-wide lock-order graph (debug mode)."""
    return _order_graph


def _check_order(new_key: object, new_rank: int, stack: str) -> None:
    held = _held_keys()
    for key, rank in held:
        if rank > new_rank or (rank == new_rank and rank != CHUNK_LATCH_RANK):
            _record_violation(
                "LO01",
                f"lock order violation: acquiring {new_key!r} (rank "
                f"{new_rank}) while holding {key!r} (rank {rank}); the "
                "declared order is repro.discipline.LOCK_ORDER",
                stack=stack,
            )
    cycles = _order_graph.note([key for key, _ in held], new_key, stack)
    for cycle in cycles:
        _record_violation(
            "LO03",
            f"potential deadlock: lock-order cycle {cycle.cycle!r}",
            stack=cycle.stack,
            extra_stack=cycle.reverse_stack,
        )


# --------------------------------------------------------------------- #
# Chunk-latch tracking (driven by DebugChunkLatches)
# --------------------------------------------------------------------- #


def note_latch_request(
    key: object, mode: str, *, group: int, index: int
) -> None:
    """Order checks for a chunk-latch acquisition about to block.

    Runs *before* the acquire so a potential deadlock is reported even if
    the acquisition would actually deadlock.  Same-group nesting must be
    ascending by chunk index (check LO02); re-acquisition of a held latch
    is always an error (the latches are not reentrant).
    """
    stack = _stack()
    if key in _state.latches:
        _record_violation(
            "LO02",
            f"re-acquisition of held chunk latch {index} (latches are not "
            "reentrant)",
            stack=stack,
        )
    for level, held_group, held_index in _state.latches.values():
        if held_group == group and held_index >= index:
            _record_violation(
                "LO02",
                f"non-ascending chunk-latch acquisition: chunk {index} "
                f"requested while holding chunk {held_index}; multi-chunk "
                "latching must use acquire_write_many (ascending order)",
                stack=stack,
            )
    _check_order(key, CHUNK_LATCH_RANK, stack)


def note_latch_acquired(
    key: object, mode: str, *, group: int, index: int
) -> None:
    """Record a successfully acquired chunk latch in the thread state."""
    _state.latches[key] = (mode_level(mode), group, index)


def note_latch_released(key: object) -> None:
    """Drop a chunk latch from the thread state."""
    _state.latches.pop(key, None)


def assert_held(key: object, mode: str) -> None:
    """Assert the thread holds chunk latch ``key`` with at least ``mode``."""
    held = _state.latches.get(key)
    needed = mode_level(mode)
    if held is None or held[0] < needed:
        raise LatchDisciplineError(
            f"thread {threading.current_thread().name!r} does not hold "
            f"chunk latch {key!r} in {mode} mode"
        )


# --------------------------------------------------------------------- #
# Tracked named locks
# --------------------------------------------------------------------- #


class TrackedLock:
    """A named, order-checked wrapper over a :class:`threading.Lock`.

    Participates in the per-thread held set and the lock-order graph.
    Only constructed in debug mode (:func:`make_lock` returns a plain
    ``threading.Lock`` otherwise).  Reentrant variants wrap an ``RLock``
    and only note the outermost acquisition.
    """

    def __init__(self, name: str, *, reentrant: bool = False) -> None:
        self.name = name
        self.rank = lock_rank(name)
        self._reentrant = reentrant
        self._inner = threading.RLock() if reentrant else threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        first = _state.locks.get(self.name, 0) == 0
        if first:
            _check_order(self.name, self.rank, _stack())
        ok = self._inner.acquire(blocking, timeout)
        if ok:
            _state.locks[self.name] = _state.locks.get(self.name, 0) + 1
        return ok

    def release(self) -> None:
        count = _state.locks.get(self.name, 0)
        if count <= 1:
            _state.locks.pop(self.name, None)
        else:
            _state.locks[self.name] = count - 1
        self._inner.release()

    def locked(self) -> bool:
        """Mirror ``threading.Lock.locked`` where the inner lock has it."""
        inner_locked = getattr(self._inner, "locked", None)
        if inner_locked is None:
            return _state.locks.get(self.name, 0) > 0
        return inner_locked()

    def _is_owned(self) -> bool:
        # threading.Condition adopts this for its ownership checks, which
        # keeps its probe-acquire fallback (and the spurious order-graph
        # edges it would note) out of the picture.
        return _state.locks.get(self.name, 0) > 0

    def __enter__(self) -> "TrackedLock":
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()


def make_lock(name: str) -> "threading.Lock | TrackedLock":
    """A mutex for the declared order slot ``name`` (tracked in debug)."""
    if debug_enabled():
        return TrackedLock(name)
    return threading.Lock()


def make_rlock(name: str) -> "threading.RLock | TrackedLock":
    """A reentrant mutex for order slot ``name`` (tracked in debug)."""
    if debug_enabled():
        return TrackedLock(name, reentrant=True)
    return threading.RLock()


def make_condition(name: str) -> threading.Condition:
    """A condition variable whose lock fills order slot ``name``."""
    if debug_enabled():
        return threading.Condition(TrackedLock(name))
    return threading.Condition(threading.Lock())


# --------------------------------------------------------------------- #
# Entry-point annotations
# --------------------------------------------------------------------- #

#: Name -> latch mode registry populated by ``@requires_latch`` at import.
LATCH_REQUIREMENTS: dict[str, str] = {}

#: Name -> lock order name registry populated by ``@requires_lock``.
LOCK_REQUIREMENTS: dict[str, str] = {}


def wrap_requires_latch(fn: Callable, mode: str) -> Callable:
    """The debug wrapper :func:`requires_latch` applies (test-accessible).

    Eraser-lite ownership refinement: a chunk column touched only by its
    creating thread (standalone unit tests, a rebuild in progress on the
    reorganizer thread) is exempt -- no data can race.  The first call
    from a second thread marks the instance shared, and from then on
    every call must hold a chunk latch of at least ``mode``.  Calls with
    no receiver (free functions) are always enforced.
    """
    import functools

    needed = mode_level(mode)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        receiver = args[0] if args else None
        if receiver is not None:
            ident = threading.get_ident()
            owner = getattr(receiver, "_repro_owner", None)
            if owner is None:
                try:
                    object.__setattr__(receiver, "_repro_owner", ident)
                    object.__setattr__(receiver, "_repro_shared", False)
                    owner = ident
                except AttributeError:
                    pass  # slotted receiver: strict check below
            if owner is not None and not getattr(
                receiver, "_repro_shared", True
            ):
                if ident == owner:
                    return fn(*args, **kwargs)
                object.__setattr__(receiver, "_repro_shared", True)
        if not holds_chunk_latch(mode):
            raise LatchDisciplineError(
                f"{fn.__qualname__} requires a {mode} chunk latch "
                f"(mode level {needed}); thread "
                f"{threading.current_thread().name!r} holds none"
            )
        return fn(*args, **kwargs)

    return wrapper


def requires_latch(mode: str) -> Callable[[Callable], Callable]:
    """Declare that a method must run under a chunk latch of ``mode``.

    The declaration is the contract the static latch-bracketing checker
    (LB01) enforces at every call site; in debug mode the method
    additionally asserts at runtime that the calling thread holds a chunk
    latch of at least the declared mode.  Disabled, the function is
    returned unchanged (zero call overhead).
    """
    mode_level(mode)  # validate eagerly

    def decorate(fn: Callable) -> Callable:
        LATCH_REQUIREMENTS[fn.__name__] = mode
        if not DEBUG_AT_IMPORT:
            return fn
        return wrap_requires_latch(fn, mode)

    return decorate


def wrap_requires_lock(fn: Callable, name: str) -> Callable:
    """The debug wrapper :func:`requires_lock` applies (test-accessible)."""
    import functools

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not holds_lock(name):
            raise LatchDisciplineError(
                f"{fn.__qualname__} requires lock {name!r}; thread "
                f"{threading.current_thread().name!r} does not hold it"
            )
        return fn(*args, **kwargs)

    return wrapper


def requires_lock(name: str) -> Callable[[Callable], Callable]:
    """Declare that a method must run under the named tracked lock."""

    def decorate(fn: Callable) -> Callable:
        LOCK_REQUIREMENTS[fn.__name__] = name
        if not DEBUG_AT_IMPORT:
            return fn
        return wrap_requires_lock(fn, name)

    return decorate


def assert_latched(latches, chunk_index: int, mode: str) -> None:
    """Assert the calling thread holds ``chunk_index``'s latch (debug).

    ``latches`` is a :class:`~repro.storage.latches.ChunkLatches`.  A
    no-op unless the latch set was built in debug mode; raise
    :class:`LatchDisciplineError` on a missing or too-weak hold.
    """
    checker = getattr(latches, "assert_latched", None)
    if checker is not None:
        checker(chunk_index, mode)


# --------------------------------------------------------------------- #
# Eraser-lite guarded-state instrumentation
# --------------------------------------------------------------------- #


def instrument_guarded(cls, spec: dict[str, tuple[str, str]]):
    """Instrument ``cls`` so GUARDED_BY accesses are lockset-checked.

    Eraser-lite: every instance starts *unshared* (owned by its creating
    thread; ``__init__`` runs free).  The first access from a second
    thread marks it shared; from then on, rebinding a guarded attribute
    (and, for ``"rw"`` attributes, any read) without holding the declared
    lock records a GS-R violation.  Container mutations that never rebind
    the attribute are the static checker's job (GS01) -- this runtime pass
    catches the rebinding/reading side, which is exactly the Eraser
    lockset discipline at attribute granularity.
    """
    rw_attrs = frozenset(a for a, (_, mode) in spec.items() if mode == "rw")
    all_attrs = frozenset(spec)

    def _check(self, name: str, kind: str) -> None:
        try:
            owner = object.__getattribute__(self, "_repro_owner")
        except AttributeError:
            return  # mid-construction
        ident = threading.get_ident()
        if not object.__getattribute__(self, "_repro_shared"):
            if ident == owner:
                return
            object.__setattr__(self, "_repro_shared", True)
        lock_name = spec[name][0]
        if lock_name.startswith("chunk_latch"):
            _, _, mode = lock_name.partition(":")
            if holds_chunk_latch(mode or "shared"):
                return
        elif holds_lock(lock_name):
            return
        _record_violation(
            "GS-R",
            f"lockset violation: {kind} of {cls.__name__}.{name} without "
            f"holding {lock_name!r} (object shared across threads)",
            stack=_stack(),
        )

    original_init = cls.__init__
    original_setattr = cls.__setattr__
    original_getattribute = cls.__getattribute__

    def __init__(self, *args, **kwargs):
        object.__setattr__(self, "_repro_owner", threading.get_ident())
        object.__setattr__(self, "_repro_shared", False)
        original_init(self, *args, **kwargs)

    def __setattr__(self, name, value):
        if name in all_attrs:
            _check(self, name, "write")
        original_setattr(self, name, value)

    def __getattribute__(self, name):
        if name in rw_attrs:
            _check(self, name, "read")
        return original_getattribute(self, name)

    cls.__init__ = __init__
    cls.__setattr__ = __setattr__
    cls.__getattribute__ = __getattribute__
    return cls


def guarded_class(cls):
    """Apply Eraser-lite instrumentation when debug mode is on at import.

    Disabled (the default), the class is returned unchanged -- the
    instrumentation compiles out entirely.
    """
    spec = GUARDED_BY.get(cls.__name__)
    if not DEBUG_AT_IMPORT or not spec:
        return cls
    return instrument_guarded(cls, spec)
