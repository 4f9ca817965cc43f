"""Seeded input generator for the four HTAP benchmark workloads.

Everything the program under test receives is built here from the seed:
the loaded rows, the ``plan_for`` training sample and the call schedule.
Calls hold only :mod:`repro.workload.operations` objects.  Key arithmetic
is numpy-vectorised over the whole schedule; Python only wraps the drawn
numbers into operation objects.

Common shape: int64 keys plus eight int64 payload columns.  Loaded keys are
the even numbers ``0, 2, .. 2*(rows-1)``; inserts and update targets draw
*fresh odd* keys without replacement, so a key is live at most once.
Deletes and update sources are drawn with replacement and without tracking
what earlier calls removed, so a small share of them miss -- the oracle
predicts those not-found outcomes like any other result.

A *call* is one ``Session.execute`` of :data:`OPS_PER_CALL` logical
operations (each key, bound or pair of a ``Multi*`` operation counts as
one) and is either a read call or a write call.  The number of measured
calls is ``CALLS_PER_SECOND[workload] * seconds``: the rates were measured
once at the seed commit on the 2-core sandbox and then frozen, so a run does
the same work on every commit and a faster program finishes sooner.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.workload.operations import (
    Aggregate,
    Delete,
    Insert,
    MultiDelete,
    MultiInsert,
    MultiPointQuery,
    MultiRangeCount,
    MultiUpdate,
    PointQuery,
    RangeQuery,
    Update,
    Workload,
)

OPS_PER_CALL = 256
#: Calls per measurement window; a multiple of every write-call period.
WINDOW = 20
PAYLOAD_COLUMNS = 8
PAYLOAD_NAMES = tuple(f"p{i}" for i in range(PAYLOAD_COLUMNS))

WORKLOADS = ("olap_mem", "sharded_htap", "drift_reorg", "oltp_durable")

#: Measured calls per ``--seconds`` second.  Frozen: see the module docstring.
CALLS_PER_SECOND = {
    "olap_mem": 135,
    "sharded_htap": 46,
    "drift_reorg": 50,
    "oltp_durable": 66,
}

#: Time the oracle takes to replay one call, in microseconds, by (phase,
#: kind), at full scale: the machine-speed reference of ``run.Timeline``.
#: Measured at the seed commit with the sandbox in its fast state, then
#: frozen like the rates above -- any fixed value would do, it only sets the
#: unit.
REFERENCE_REPLAY_US = {
    "olap_mem": {(0, "read"): 843, (0, "write"): 769},
    "sharded_htap": {(0, "read"): 890, (0, "write"): 637},  # all on one core
    "drift_reorg": {
        (0, "read"): 1089, (0, "write"): 949,
        (1, "read"): 934, (1, "write"): 930,
        (2, "read"): 1093, (2, "write"): 958,
    },
    "oltp_durable": {(0, "read"): 1017, (0, "write"): 779},
}

#: Calls of ``plan_for`` training sample (drawn from ``seed + 1``).
TRAINING_CALLS = 40

#: (point, range COUNT, range SUM) / (insert, delete, update) per call.
READ_PER_OP = (192, 48, 16)
WRITE_PER_OP = (128, 96, 32)
READ_BULK = (192, 64, 0)
WRITE_BULK = (160, 64, 32)
READ_POINT_HEAVY = (240, 16, 0)
READ_RANGE_HEAVY = (32, 176, 48)


@dataclass(frozen=True)
class Scale:
    """Data size of a run.  ``calls`` overrides the rate x seconds rule."""

    name: str
    rows: int
    chunk_size: int
    block_values: int
    warmup_calls: int
    max_range_rows: int
    calls: int | None = None


FULL = Scale("full", 1_048_576, 65_536, 1_024, 100, 2_048)
#: Smoke-test size: four chunks, so a chunk collects enough operations to
#: trip the drift check within a few calls.
TINY = Scale("tiny", 16_384, 4_096, 128, 4, 256, calls=60)
SCALES = {scale.name: scale for scale in (FULL, TINY)}


@dataclass
class Call:
    """One ``Session.execute`` worth of operations."""

    kind: str  # "read" | "write"
    ops: list
    #: Run ``Database.checkpoint()`` after this call (``oltp_durable``).
    checkpoint_after: bool = False


@dataclass
class Inputs:
    """Everything one benchmark run feeds the program."""

    workload: str
    seed: int
    scale: Scale
    keys: np.ndarray
    payload: np.ndarray
    training: Workload | None
    warmup: list[Call]
    calls: list[Call]
    #: Exclusive end index into ``calls`` of each phase (one entry unless
    #: the workload drifts).
    phase_ends: list[int] = field(default_factory=list)

    @property
    def key_domain(self) -> int:
        """Exclusive upper bound of every key the schedule can name."""
        return 2 * self.scale.rows


class _Schedule:
    """Draws calls for one workload; owns the rng and the fresh-key pool."""

    def __init__(
        self, seed: int, scale: Scale, *, hot: bool, bulk: bool, shuffle: bool
    ) -> None:
        self.rng = np.random.default_rng(seed)
        self.scale = scale
        self.hot = hot
        self.bulk = bulk
        self.shuffle = shuffle
        self.pool = np.empty(0, dtype=np.int64)
        self.consumed = 0

    # -- key draws ------------------------------------------------------ #

    def _rows(self, shape) -> np.ndarray:
        """Row indices; with ``hot``, 80 % land on the top 20 % of rows."""
        rows = self.scale.rows
        rng = self.rng
        if not self.hot:
            return rng.integers(0, rows, shape)
        cut = rows - rows // 5
        return np.where(
            rng.random(shape) < 0.8,
            rng.integers(cut, rows, shape),
            rng.integers(0, cut, shape),
        )

    def _reserve_fresh(self, needed: int) -> None:
        """Extend the pool of distinct odd keys by ``needed`` entries."""
        target = self.pool.size + needed
        while self.pool.size < target:
            draw = self._rows(2 * (target - self.pool.size) + 64) * 2 + 1
            _, first = np.unique(draw, return_index=True)
            draw = draw[np.sort(first)]
            draw = draw[~np.isin(draw, self.pool)]
            self.pool = np.concatenate([self.pool, draw])[:target]

    def _existing(self, consumed: np.ndarray, width: int, inserted_share: float):
        """Keys that were live at some point: loaded even keys, or -- for
        ``inserted_share`` of the draws -- keys inserted by earlier calls
        (``consumed[w]`` pool entries precede write call ``w``)."""
        shape = (consumed.size, width)
        loaded = self._rows(shape) * 2
        from_pool = (self.rng.random(shape) < inserted_share) & (
            consumed[:, None] > 0
        )
        slot = (self.rng.random(shape) * consumed[:, None]).astype(np.int64)
        return np.where(from_pool, self.pool[slot], loaded)

    # -- calls ---------------------------------------------------------- #

    def calls(self, count: int, write_share: float, read_shape, write_shape):
        """``count`` calls; write calls are spaced evenly (every tenth call
        at a 10 % share), so any window of :data:`WINDOW` calls holds the
        same mix and window times compare."""
        marks = np.floor(np.arange(count + 1) * write_share + 1e-9)
        is_write = np.diff(marks) > 0
        reads = iter(self._read_calls(int((~is_write).sum()), *read_shape))
        writes = iter(self._write_calls(int(is_write.sum()), *write_shape))
        return [next(writes if flag else reads) for flag in is_write]

    def _read_calls(self, count: int, points: int, counts: int, sums: int):
        rng = self.rng
        scale = self.scale
        keys = self._rows((count, points)) * 2
        # One point key in twenty is odd: absent unless an insert made it.
        keys += rng.random((count, points)) < 0.05
        ranges = counts + sums
        low = self._rows((count, ranges)) * 2
        span = rng.integers(
            min(64, scale.max_range_rows), scale.max_range_rows + 1,
            (count, ranges),
        )
        high = np.minimum(low + 2 * span, 2 * scale.rows - 1)
        order = self._orders(count, points + ranges)
        calls = []
        for c in range(count):
            bounds = list(zip(low[c].tolist(), high[c].tolist()))
            if self.bulk:
                ops = [
                    MultiPointQuery(tuple(keys[c].tolist())),
                    MultiRangeCount(tuple(bounds[:counts])),
                ]
            else:
                ops = [PointQuery(key) for key in keys[c].tolist()]
                ops += [RangeQuery(lo, hi) for lo, hi in bounds[:counts]]
            ops += [
                RangeQuery(lo, hi, Aggregate.SUM) for lo, hi in bounds[counts:]
            ]
            if order is not None:
                ops = [ops[i] for i in order[c]]
            calls.append(Call("read", ops))
        return calls

    def _write_calls(self, count: int, inserts: int, deletes: int, updates: int):
        rng = self.rng
        per_call = inserts + updates
        self._reserve_fresh(count * per_call)
        fresh = self.pool[self.consumed : self.consumed + count * per_call]
        fresh = fresh.reshape(count, per_call)
        consumed = self.consumed + np.arange(count, dtype=np.int64) * per_call
        self.consumed += count * per_call
        rows = rng.integers(0, 1_000, (count, inserts, PAYLOAD_COLUMNS))
        victims = self._existing(consumed, deletes, 0.25)
        sources = self._existing(consumed, updates, 0.10)
        order = self._orders(count, inserts + deletes + updates)
        calls = []
        for c in range(count):
            new_keys = fresh[c, :inserts].tolist()
            payloads = [tuple(row) for row in rows[c].tolist()]
            pairs = list(zip(sources[c].tolist(), fresh[c, inserts:].tolist()))
            if self.bulk:
                ops = [
                    MultiInsert(tuple(new_keys), tuple(payloads)),
                    MultiDelete(tuple(victims[c].tolist())),
                    MultiUpdate(tuple(pairs)),
                ]
            else:
                ops = [Insert(k, p) for k, p in zip(new_keys, payloads)]
                ops += [Delete(key) for key in victims[c].tolist()]
                ops += [Update(old, new) for old, new in pairs]
            if order is not None:
                ops = [ops[i] for i in order[c]]
            calls.append(Call("write", ops))
        return calls

    def _orders(self, count: int, width: int):
        if not self.shuffle or not count:
            return None
        return self.rng.permuted(
            np.tile(np.arange(width), (count, 1)), axis=1
        ).tolist()


def _load(seed: int, scale: Scale) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng([seed, 0x10AD])
    keys = np.arange(scale.rows, dtype=np.int64) * 2
    payload = rng.integers(
        0, 1_000, size=(scale.rows, PAYLOAD_COLUMNS), dtype=np.int64
    )
    return keys, payload


def measured_calls(workload: str, seconds: float, scale: Scale) -> int:
    """Number of measured calls of a run (the frozen-rate rule)."""
    if scale.calls is not None:
        return scale.calls
    windows = round(CALLS_PER_SECOND[workload] * seconds / WINDOW)
    return WINDOW * max(1, windows)


def generate(workload: str, seed: int, seconds: float, scale: Scale) -> Inputs:
    """Build the inputs of one run.  Same arguments, same inputs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    keys, payload = _load(seed, scale)
    total = measured_calls(workload, seconds, scale)
    warm = scale.warmup_calls
    training = None
    if workload == "olap_mem":
        plan = _Schedule(seed, scale, hot=True, bulk=False, shuffle=False)
        stream = plan.calls(warm + total, 0.10, READ_PER_OP, WRITE_PER_OP)
        sample = _Schedule(seed + 1, scale, hot=True, bulk=False, shuffle=False)
        training = sample.calls(TRAINING_CALLS, 0.10, READ_PER_OP, WRITE_PER_OP)
        phase_ends = [total]
    elif workload == "oltp_durable":
        plan = _Schedule(seed, scale, hot=False, bulk=True, shuffle=False)
        stream = plan.calls(warm + total, 0.70, READ_BULK, WRITE_BULK)
        phase_ends = [total]
        every = max(1, total // 5)
        for index in range(every, total - every // 2, every):
            stream[warm + index - 1].checkpoint_after = True
    elif workload == "sharded_htap":
        plan = _Schedule(seed, scale, hot=False, bulk=True, shuffle=False)
        stream = plan.calls(warm + total, 0.50, READ_BULK, WRITE_BULK)
        phase_ends = [total]
    else:  # drift_reorg
        plan = _Schedule(seed, scale, hot=False, bulk=False, shuffle=True)
        a = WINDOW * round(total * 0.20 / WINDOW)
        b = WINDOW * round(total * 0.45 / WINDOW)
        stream = plan.calls(warm + a, 0.80, READ_PER_OP, WRITE_PER_OP)
        stream += plan.calls(b, 0.10, READ_POINT_HEAVY, WRITE_PER_OP)
        stream += plan.calls(total - a - b, 0.10, READ_RANGE_HEAVY, WRITE_PER_OP)
        sample = _Schedule(seed + 1, scale, hot=False, bulk=False, shuffle=True)
        training = sample.calls(TRAINING_CALLS, 0.80, READ_PER_OP, WRITE_PER_OP)
        phase_ends = [a, a + b, total]
    if training is not None:
        training = Workload(
            [op for call in training for op in call.ops], name="training"
        )
    return Inputs(
        workload=workload,
        seed=seed,
        scale=scale,
        keys=keys,
        payload=payload,
        training=training,
        warmup=stream[:warm],
        calls=stream[warm:],
        phase_ends=phase_ends,
    )
