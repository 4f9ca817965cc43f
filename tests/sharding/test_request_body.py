"""A shard request and the WAL record it commits are one batch format.

The dispatcher states each planned operation of a call as one record of
a WAL body; the shard worker runs them and appends the call's write
records to its own log.  For a durable call without cross-shard moves,
the write records a shard receives, re-encoded as a WAL body, are
byte-for-byte the record that shard appends -- misses included, and
payload-less inserts carrying the zero rows the table pads.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import numpy as np
from shard_helpers import sharded_db

from repro.durability.wal import (
    decode_batch,
    encode_delta_log,
    scan_segment,
    segment_first_lsn,
)
from repro.sharding import codec
from repro.storage.access_log import DELTA_KIND_CODES, CallLog
from repro.workload.operations import (
    Aggregate,
    Delete,
    Insert,
    MultiPointQuery,
    MultiRangeCount,
    PointQuery,
    RangeQuery,
    Update,
)


@contextmanager
def request_records():
    """Collect the records of every request body the dispatcher encodes."""
    sent: list[list] = []
    encode = codec.encode_ops

    def recording(oplist, writer):
        inline = encode(oplist, codec.ArenaWriter(None))
        body = codec.ArenaReader(None).get(inline).tobytes()[: inline["b"]]
        sent.append(decode_batch(body).records)
        return encode(oplist, writer)

    with mock.patch.object(codec, "encode_ops", recording):
        yield sent


def last_wal_body(root, shard: int) -> bytes:
    wal = root / f"shard-{shard}" / "wal"
    segments = sorted(wal.glob("wal-*.log"), key=lambda p: segment_first_lsn(p.name))
    records = [record for segment in segments for record in scan_segment(segment).records]
    return records[-1][1]


def test_request_write_records_are_the_appended_wal_record(cluster2, tmp_path):
    keys = np.arange(0, 400, 2, dtype=np.int64)
    with sharded_db(cluster2, keys, durability=tmp_path) as database:
        shard_map = database.shard_map
        high = int(shard_map.shard_interval(0)[1])
        # Every key below stays in shard 0, every key above 300 in shard 1.
        assert high < 300 and shard_map.shard_of(301) == 1
        oplist = [
            PointQuery(key=4),
            RangeQuery(low=0, high=50),
            RangeQuery(low=10, high=390, aggregate=Aggregate.SUM, columns=("b",)),
            Insert(key=5),
            Insert(key=7, payload=(70, 71)),
            Insert(key=301),
            Insert(key=303, payload=(30, 31)),
            Delete(key=8),
            Delete(key=9),  # a miss
            Delete(key=302),
            Delete(key=333),  # a miss
            Update(old_key=10, new_key=11),
            Update(old_key=13, new_key=15),  # a miss
            Update(old_key=304, new_key=305),
            MultiPointQuery(keys=(4, 5, 302)),
            MultiRangeCount(bounds=((0, 10), (300, 320))),
        ]
        with request_records() as sent, database.session() as session:
            result = session.execute(oplist)
            shard_lsns = dict(result.shard_lsns)
        assert result.errors == 3  # two delete misses, one update miss

    assert len(sent) == 2 and set(shard_lsns) == {0, 1}
    for records in sent:
        writes = [record for record in records if record.kind in DELTA_KIND_CODES]
        kinds = {record.kind for record in records}
        assert kinds >= {"insert", "delete", "update", "point_query"}
        shard = shard_map.shard_of(int(writes[0].keys[0]))
        log = CallLog()
        log.records.extend(writes)
        assert encode_delta_log(log) == last_wal_body(tmp_path, shard)
        inserts = [record for record in writes if record.kind == "insert"]
        assert [row.tolist() for record in inserts for row in record.payloads] in (
            [[0, 0], [70, 71]],
            [[0, 0], [30, 31]],
        )
