"""Property tests: the sharded façade is oracle-equal to one process.

Every example loads the same rows into a single-process
:class:`~repro.api.database.Database` (the oracle) and into the shared
3-shard cluster, runs an identical random operation sequence through
both, and compares results and error counts.  Key domains are tiny on
purpose: heavy duplication forces :meth:`ShardMap.from_sorted_keys` to
snap fences, so duplicate runs straddling a tentative cut are the common
case, not the corner.

Two regimes bound what is contractual (see the README's sharding
section):

* **Variant A** -- payload is a pure function of the key and no key
  updates run: *everything* the session returns is compared exactly,
  including SUM aggregates and row payloads.
* **Variant B** -- key updates (including cross-shard moves) and
  arbitrary insert payloads are allowed; comparison drops to the
  count level (row counts, COUNT aggregates, delete/update flags,
  error tallies), which stays deterministic because every write removes
  or moves exactly one copy regardless of which.

Which copy of a duplicated key a delete or update removes is *pinned*
(the oldest surviving copy -- smallest row id, see
:meth:`repro.storage.column.PartitionedColumn._oldest_first`), so serial
and sharded agree on victims exactly even when duplicate copies carry
distinct payloads; ``TestDuplicateVictimRule`` is the regression for
that.  Row ids assigned *after* load remain non-contractual (inserts,
and rows carried by a cross-shard move, age differently per path), which
is why mixed random workloads still need Variant B's count-level regime.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from shard_helpers import (
    encoded_operations,
    normalize,
    payload_for,
    serial_db,
    sharded_db,
)

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
)

#: Tiny key domain: ~10 distinct values over up to 150 rows guarantees
#: duplicate runs long enough to straddle shard fences.
KEY = st.integers(0, 9)
loaded_keys = st.lists(KEY, min_size=0, max_size=150)

READ_SPECS = ("pq", "rq", "sum", "mpq", "mrc")
WRITE_SPECS = ("in", "mi", "de", "md")
UPDATE_SPECS = ("up", "mu")

#: A point read's columns: every one, reordered, single and none.
COLUMNS = st.sampled_from((None, ("b", "a"), ("a",), ("b",), ()))

spec = st.tuples(st.sampled_from(READ_SPECS + WRITE_SPECS), KEY, KEY, COLUMNS)
#: Variant B draws no SUM: a SUM adds payload columns, so under arbitrary
#: payloads it sees *which* copy of a duplicated key an update took, and a
#: row carried by a cross-shard move ages differently per path (README
#: divergence 1).  Variant A keeps SUM under ``payload = f(key)``.
spec_b = st.tuples(
    st.sampled_from(
        tuple(kind for kind in READ_SPECS if kind != "sum")
        + WRITE_SPECS
        + UPDATE_SPECS
    ),
    KEY,
    KEY,
    COLUMNS,
)


def build_op(kind: str, a: int, b: int, columns=None, *, pure_payload: bool):
    low, high = min(a, b), max(a, b)
    if kind == "pq":
        return PointQuery(key=a, columns=columns)
    if kind == "rq":
        return RangeQuery(low=low, high=high)
    if kind == "sum":
        return RangeQuery(low=low, high=high, aggregate=Aggregate.SUM)
    if kind == "mpq":
        return MultiPointQuery(keys=(a, b, a), columns=columns)
    if kind == "mrc":
        return MultiRangeCount(bounds=((low, high), (b, b), (0, 9)))
    if kind == "in":
        payload = (
            tuple(payload_for([a])[0].tolist())
            if pure_payload
            else (a * 100 + b, b)
        )
        return Insert(key=a, payload=payload)
    if kind == "mi":
        keys = (a, b)
        payloads = (
            tuple(tuple(row) for row in payload_for(keys).tolist())
            if pure_payload
            else ((a, b), (b, a))
        )
        return MultiInsert(keys=keys, payloads=payloads)
    if kind == "de":
        return Delete(key=a)
    if kind == "md":
        return MultiDelete(keys=(a, b))
    if kind == "up":
        return Update(old_key=a, new_key=b)
    if kind == "mu":
        return MultiUpdate(pairs=((a, b), (b, a), (a, 9 - a)))
    raise AssertionError(kind)


def counts_view(op, result):
    """The count-level projection that stays contractual under updates."""
    if isinstance(result, np.ndarray):
        if isinstance(op, MultiInsert):
            return result.shape  # rowids post-load are non-contractual
        return result.tolist()
    if isinstance(result, list):
        if result and isinstance(result[0], list):
            return [len(rows) for rows in result]
        return len(result)
    if isinstance(op, Insert):
        return result is not None
    return result


def payload_columns(result):
    """The payload column names of every row of a point read, in order."""
    if isinstance(result, list):
        return [payload_columns(rows) for rows in result]
    return list(result.payload)


BATCHED = (MultiPointQuery, MultiRangeCount, MultiInsert, MultiDelete, MultiUpdate)


def run_both(cluster, keys, oplist):
    serial = serial_db(keys)
    with serial.session() as session:
        want = session.execute(list(oplist))
    with sharded_db(cluster, keys) as database, encoded_operations() as sent:
        with database.session() as session:
            got = session.execute(list(oplist))
        total = database.num_rows
    assert total == serial.num_rows
    # The router ships the engine's batch plan: every group of scalars
    # travels as its batched kind, SUM ranges (no batched form) as-is.
    for op in (op for sub_batch in sent for op in sub_batch):
        assert isinstance(op, BATCHED) or (
            isinstance(op, RangeQuery) and op.aggregate is Aggregate.SUM
        ), op
    return want, got


common = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestVariantA:
    """No updates, ``payload = f(key)``: full exact equality."""

    @given(keys=loaded_keys, specs=st.lists(spec, min_size=1, max_size=25))
    @example(
        # Every column choice, on duplicated and absent keys across shards.
        keys=[0, 2, 2, 2, 5, 5, 5, 5, 5, 5, 9],
        specs=[
            (kind, a, b, columns)
            for columns in (None, ("b", "a"), ("a",), ("b",), ())
            for kind, a, b in (("pq", 5, 0), ("mpq", 2, 7), ("mpq", 5, 9))
        ],
    )
    @common
    def test_results_and_errors_match_exactly(self, cluster3, keys, specs):
        oplist = [
            build_op(kind, a, b, columns, pure_payload=True)
            for kind, a, b, columns in specs
        ]
        want, got = run_both(cluster3, keys, oplist)
        assert got.errors == want.errors
        for op, theirs, ours in zip(
            oplist, want.results, got.results, strict=True
        ):
            if isinstance(op, MultiInsert):
                assert np.asarray(ours).shape == np.asarray(theirs).shape
            elif isinstance(op, Insert):
                assert (ours is None) == (theirs is None)
            else:
                assert normalize(ours) == normalize(theirs), op
            if isinstance(op, (PointQuery, MultiPointQuery)):
                assert payload_columns(ours) == payload_columns(theirs), op


class TestVariantB:
    """Updates and arbitrary payloads: count-level equality."""

    @given(keys=loaded_keys, specs=st.lists(spec_b, min_size=1, max_size=25))
    @common
    def test_counts_and_errors_match(self, cluster3, keys, specs):
        oplist = [
            build_op(kind, a, b, columns, pure_payload=False)
            for kind, a, b, columns in specs
        ]
        want, got = run_both(cluster3, keys, oplist)
        assert got.errors == want.errors
        for op, theirs, ours in zip(
            oplist, want.results, got.results, strict=True
        ):
            assert counts_view(op, ours) == counts_view(op, theirs), op
            if isinstance(op, (PointQuery, MultiPointQuery)):
                assert payload_columns(ours) == payload_columns(theirs), op

    def test_moved_row_ages_differently_but_counts_agree(self, cluster3):
        """The smallest case that failed while ``spec_b`` drew ``sum``
        (serial SUM 9, sharded 1): ``(0, 1)`` moves key 0's row across
        the fence, where it gets a younger row id than key 1's own row, so
        the next pair ``(1, 0)`` takes a different copy per path.  Errors,
        update flags, COUNT-level reads and the total row count agree all
        the same; the payload SUM is what is not contractual here."""
        keys = [0, 1]
        oplist = [
            build_op("mu", 0, 1, pure_payload=False),
            build_op("sum", 0, 1, pure_payload=False),
            build_op("rq", 0, 1, pure_payload=False),
            build_op("mpq", 0, 1, pure_payload=False),
        ]
        want, got = run_both(cluster3, keys, oplist)  # row totals agree
        assert got.errors == want.errors
        for op, theirs, ours in zip(
            oplist, want.results, got.results, strict=True
        ):
            if isinstance(op, RangeQuery) and op.aggregate is Aggregate.SUM:
                continue
            assert counts_view(op, ours) == counts_view(op, theirs), op


#: Keys 10 and 11 are never loaded: sources that miss until an insert or
#: an earlier pair lands a row there.
WAVE_KEY = st.integers(0, 11)
wave_pairs = st.lists(st.tuples(WAVE_KEY, WAVE_KEY), min_size=1, max_size=6)
#: One step of a call: a ``MultiUpdate``, a run of scalar ``Update``s, or
#: any other operation on the same twelve keys.
wave_step = st.one_of(
    wave_pairs.map(lambda pairs: [MultiUpdate(pairs=tuple(pairs))]),
    wave_pairs.map(
        lambda pairs: [Update(old_key=a, new_key=b) for a, b in pairs]
    ),
    st.tuples(
        st.sampled_from(("in", "mi", "de", "md", "pq", "mpq", "rq")),
        WAVE_KEY,
        WAVE_KEY,
        COLUMNS,
    ).map(lambda spec: [build_op(*spec, pure_payload=False)]),
)


class TestWaveConflictRule:
    """Move waves against the serial oracle, aimed at the conflict rule.

    Twelve keys and up to six pairs per step make key reuse the common
    case: chains (``a->b, b->c``), swaps (``a->b, b->a``), one old key
    twice, a new key equal to an earlier pair's old key, misses and
    duplicate-key victims all occur, same-shard and cross-shard pairs
    interleaved, with inserts, deletes and reads on the same keys before
    and after in the same call.  A wave that admitted a non-commuting
    pair, or ran out of order against its neighbours, changes a hit
    flag, the error count or a per-key row count.  Comparison is at
    Variant B's count level (moved rows age differently per path).
    """

    @staticmethod
    def check(cluster, keys, steps):
        # The call ends with a census: every key's row count.
        oplist = [op for step in steps for op in step]
        oplist.append(MultiPointQuery(keys=tuple(range(12))))
        want, got = run_both(cluster, keys, oplist)
        assert got.errors == want.errors
        for op, theirs, ours in zip(
            oplist, want.results, got.results, strict=True
        ):
            assert counts_view(op, ours) == counts_view(op, theirs), op

    wave_examples = settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )

    @given(keys=loaded_keys, steps=st.lists(wave_step, min_size=1, max_size=8))
    @wave_examples
    def test_two_shards(self, cluster2, keys, steps):
        self.check(cluster2, keys, steps)

    @given(keys=loaded_keys, steps=st.lists(wave_step, min_size=1, max_size=8))
    @wave_examples
    def test_three_shards(self, cluster3, keys, steps):
        self.check(cluster3, keys, steps)

    def test_pinned_conflict_shapes(self, cluster2):
        """The named shapes, deterministically, across the one fence."""
        keys = [0, 0, 1, 2, 3, 6, 7, 8, 9, 9]
        steps = [
            [Insert(key=10, payload=(1, 2)), Delete(key=3)],
            [
                MultiUpdate(
                    pairs=(
                        (0, 9),  # cross
                        (9, 5),  # chain: new wave, back across
                        (5, 0),  # chain again
                        (1, 8), (8, 1),  # swap
                        (2, 7), (2, 6),  # one old key twice: second misses
                        (6, 4), (11, 6),  # new key == earlier old key; miss
                        (0, 0),  # identity pair on a duplicated key
                    )
                )
            ],
            [PointQuery(key=0), RangeQuery(low=0, high=11)],
            [
                Update(old_key=10, new_key=3),
                Update(old_key=3, new_key=10),
                Update(old_key=3, new_key=4),  # miss: one error
                Update(old_key=7, new_key=2),
            ],
            [MultiDelete(keys=(0, 9, 10)), Insert(key=2, payload=(3, 4))],
        ]
        self.check(cluster2, keys, steps)


class TestDuplicateVictimRule:
    """Deletes/updates of duplicated keys hit the pinned oldest copy.

    Every copy carries a *distinct* payload here, so any divergence in
    victim choice between the serial oracle and the sharded path (or any
    payload mangling across a cross-shard move) shows up as a
    payload-exact mismatch in the point queries.

    Scope note: a serial cross-chunk key update preserves the row's
    global row id ("the payload never moves"), while a cross-shard move
    re-inserts on the target shard under a fresh local row id.  The
    moved row's *age* therefore differs across paths -- the standing
    "row ids after load are non-contractual" caveat -- so the workload
    never deletes from a key after a cross-shard move lands on it.
    Victim choice on loaded duplicates (deletes, same-shard updates) and
    the carried payload itself are exact.
    """

    def test_serial_and_sharded_pick_the_same_victims(self, cluster3):
        keys = np.asarray([2] * 6 + [5] * 5 + [8] * 4, dtype=np.int64)
        # Column "a" is the load position: unique per copy, so victim
        # identity is fully observable through payloads.
        payload = np.stack(
            [np.arange(keys.size, dtype=np.int64), keys * 10], axis=1
        )
        oplist = [
            Delete(key=2),  # oldest copy (a=0) dies on both paths
            PointQuery(key=2),
            MultiDelete(keys=(5, 5, 8)),  # a=6, a=7 and a=11 die
            PointQuery(key=5),
            PointQuery(key=8),
            Update(old_key=8, new_key=9),  # same-shard: age preserved
            PointQuery(key=8),
            PointQuery(key=9),
            Delete(key=8),  # post-update victim: a=13, both paths
            PointQuery(key=8),
            Update(old_key=2, new_key=5),  # cross-shard: payload carried
            PointQuery(key=2),
            PointQuery(key=5),
        ]
        serial = serial_db(keys, payload=payload)
        with serial.session() as session:
            want = session.execute(list(oplist))
        with sharded_db(cluster3, keys, payload=payload) as database:
            shard_of = database.shard_map.shard_of
            assert shard_of(8) == shard_of(9)  # in-shard update
            assert shard_of(2) != shard_of(5)  # two-phase move
            with database.session() as session:
                got = session.execute(list(oplist))
            assert database.num_rows == serial.num_rows
        assert got.errors == want.errors
        for op, theirs, ours in zip(
            oplist, want.results, got.results, strict=True
        ):
            if isinstance(op, PointQuery):
                # Payload-exact: same victims died, same payloads moved.
                assert normalize(ours) == normalize(theirs), op
            else:
                assert counts_view(op, ours) == counts_view(op, theirs), op


def test_duplicate_run_straddling_a_fence_stays_whole(cluster3):
    """The even cut lands mid-run; every copy must still act as one key."""
    keys = np.asarray([3] * 40 + [7] * 5, dtype=np.int64)
    with sharded_db(cluster3, keys) as database:
        shards = database.shard_map.shard_of_batch(keys)
        for key in (3, 7):
            assert np.unique(shards[keys == key]).size == 1
        oplist = [
            PointQuery(key=3),
            Delete(key=3),
            RangeQuery(low=3, high=3),
            MultiDelete(keys=(3, 3, 7)),
            RangeQuery(low=0, high=10),
        ]
        serial = serial_db(keys)
        with serial.session() as session:
            want = session.execute(list(oplist))
        with database.session() as session:
            got = session.execute(list(oplist))
        for theirs, ours in zip(want.results, got.results, strict=True):
            assert normalize(ours) == normalize(theirs)
