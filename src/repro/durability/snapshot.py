"""Table snapshots: chunk files plus immutable payload segments.

Layout under the snapshot root (``<log dir>/snapshots/``)::

    payload/seg-<lsn>-<start>-<stop>.npy   payload rows [start, stop)
    snap-<lsn>/chunk-<i>.npz               one chunk's ``values``/``rowids``
    snap-<lsn>/MANIFEST.json               written last
    .free/                                 the pool: a dropped snapshot
                                           directory, never read

Payload rows are append-only and never change once written (updates and
moves carry row ids), so a checkpoint stores them by *row-id range*: it
streams one new segment holding the rows appended since the previous
checkpoint's segments, ``[previous stop, next row id)``, and reuses the
older segments as they are.  Each chunk file holds only the keys and row
ids of a consistent :meth:`~repro.storage.table.Table.snapshot_chunk`
view.  The manifest (version 2) records the snapshot LSN, the chunk files
and every segment covering ``[0, next_rowid)``, each with its CRC, plus
the table's reconstruction metadata (chunk size, payload names, layout
spec).  Each chunk entry also records ``bytes``, the length of its
content: the CRC covers exactly that prefix of the file.  Version-1
manifests (payload inside the chunk files) are refused.

Snapshot directories are recycled, because on a disk that discards freed
blocks a free is what a checkpoint pays for (measured on a 2-core
virtual machine whose ext4 is mounted with ``discard``: about 60 ms plus
40 ms per MB for any ``unlink`` or shrinking ``ftruncate``, against
0.04 ms for a ``rename``).  The manager's GC renames the first snapshot directory it
drops to ``.free/`` when there is none, and the next checkpoint renames
``.free/`` to its partial directory instead of creating one.  Files are
written in place without ``O_TRUNC`` and only ever grow: a chunk file
may be longer than its ``bytes``, the manifest is padded with spaces
(JSON whitespace) to the length of the file it overwrites, and recycled
files the new manifest does not name stay in the directory unread.

Commit protocol:

1. the new segment is streamed to ``payload/`` block by block (never
   staged whole in memory) and fsynced, then the directory;
2. ``.free/`` (when present) becomes ``snap-<lsn>.partial/`` (a stale
   partial of the same LSN is written over as it is); the chunk files
   are written into the partial directory and fsynced;
3. the manifest is written and fsynced inside the partial directory;
4. the directory is renamed to its final name and the parent fsynced.

A crash at any point leaves a complete snapshot or garbage nobody reads:
an unreferenced segment, a ``.partial`` directory, the pool.  A partly
overwritten recycled file fails its CRC exactly like a partly written
new one, and the rename in step 4 is still the only commit.  The
manager's GC works *by reference*: it drops snapshots beyond its
retention count (the first into the pool), then deletes every segment
that no kept manifest names, crash orphans included.

The loader validates every chunk file's ``bytes`` prefix (the whole file
when the entry has no ``bytes``) and every referenced segment against
its manifest CRC and gathers the payload by row id.  A segment
is shared by every later snapshot of the same table, so a corrupt
segment fails every snapshot naming it: the loader falls back to an
older snapshot that does not name it, and when none is left recovery
fails loudly rather than load wrong rows.

Row ids are renumbered by recovery, so segments are only valid for the
table incarnation that wrote them: a reopened table's first checkpoint
writes a full segment under a new name.

Chunks are captured one at a time under their shared latches (the PR 5
consistent off-latch copy), *not* under a table-wide freeze; the manager
serializes checkpoints against durable write commits with the commit
lock, so the captured state is exactly the state the WAL describes up to
the snapshot LSN.
"""

from __future__ import annotations

import io
import json
import os
import time
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import SnapshotCorruptionError
from .faults import FaultInjector, retry_io

if TYPE_CHECKING:
    from ..storage.table import Table

MANIFEST_NAME = "MANIFEST.json"

#: Subdirectory of the snapshot root holding the payload segments.
PAYLOAD_DIR = "payload"

#: The pool: one dropped snapshot directory kept for the next checkpoint
#: to write over.  Sorts before ``payload`` and ``snap-``.
FREE_DIR = ".free"

#: Manifest format version, bumped on layout changes.
MANIFEST_VERSION = 2

#: Bytes per block when streaming a segment to or from disk.
_BLOCK_BYTES = 1 << 22


def snapshot_dir_name(lsn: int) -> str:
    """Directory name of the snapshot taken at ``lsn``."""
    return f"snap-{lsn:020d}"


def snapshot_lsn(path: str | os.PathLike) -> int:
    """Inverse of :func:`snapshot_dir_name`."""
    name = Path(path).name
    if not name.startswith("snap-"):
        raise SnapshotCorruptionError(f"not a snapshot directory name: {name!r}")
    return int(name[5:])


def segment_file_name(lsn: int, start: int, stop: int) -> str:
    """File name of the payload segment ``[start, stop)`` written at ``lsn``."""
    return f"seg-{lsn:020d}-{start:020d}-{stop:020d}.npy"


@dataclass(frozen=True)
class PayloadSegment:
    """One immutable payload segment: rows ``[start, stop)`` in ``file``."""

    file: str
    start: int
    stop: int
    crc: int


@dataclass(frozen=True)
class SnapshotInfo:
    """Summary of one committed snapshot.

    ``segments`` are the payload segments its manifest names, in row-id
    order; ``written`` is false when the snapshot already existed and was
    returned untouched.
    """

    lsn: int
    path: Path
    rows: int
    chunks: int
    segments: tuple[PayloadSegment, ...]
    written: bool


@dataclass(frozen=True)
class LoadedSnapshot:
    """A validated snapshot read back into memory.

    ``keys`` / ``payload`` are the concatenated live rows of every chunk in
    chunk order (keys ascending within each chunk); ``meta`` is the
    manifest's table-reconstruction block, verbatim.
    """

    lsn: int
    path: Path
    keys: np.ndarray
    payload: np.ndarray
    meta: dict


def _fsync_dir(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _stream_segment(path: Path, rows: np.ndarray) -> int:
    """Write ``rows`` as a ``.npy`` file block by block, fsync it and
    return the file's CRC."""
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        header, np.lib.format.header_data_from_array_1_0(rows)
    )
    head = header.getvalue()
    crc = zlib.crc32(head)
    data = np.ascontiguousarray(rows).reshape(-1).view(np.uint8)
    with open(path, "wb") as handle:
        handle.write(head)
        for offset in range(0, data.size, _BLOCK_BYTES):
            block = data[offset : offset + _BLOCK_BYTES]
            crc = zlib.crc32(block, crc)
            handle.write(block)
        handle.flush()
        os.fsync(handle.fileno())
    return crc


def write_snapshot(
    root: str | os.PathLike,
    table: "Table",
    lsn: int,
    meta: dict,
    *,
    segments: Sequence[PayloadSegment] = (),
    faults: FaultInjector | None = None,
    max_retries: int = 4,
    retry_backoff_s: float = 0.002,
    sleep=time.sleep,
) -> SnapshotInfo:
    """Write (or find) the snapshot of ``table`` at ``lsn`` under ``root``.

    ``segments`` are payload segments already durable for *this* table's
    row ids, contiguous from row id 0; only the rows after the last of
    them are written, as one new segment.  Idempotent per LSN: if
    ``snap-<lsn>`` already committed, it is returned untouched (a
    checkpoint with no intervening writes).  The caller must hold the
    commit lock so no durable write lands between the captures and the
    LSN stamp.
    """
    root = Path(root)
    final = root / snapshot_dir_name(lsn)
    if final.exists():
        manifest = json.loads((final / MANIFEST_NAME).read_text())
        return SnapshotInfo(
            lsn=lsn,
            path=final,
            rows=manifest["rows"],
            chunks=len(manifest["chunks"]),
            segments=tuple(PayloadSegment(**entry) for entry in manifest["segments"]),
            written=False,
        )

    def _with_retry(fn):
        return retry_io(
            fn,
            point="snapshot.write",
            faults=faults,
            max_retries=max_retries,
            backoff_s=retry_backoff_s,
            sleep=sleep,
        )

    def _write_file(path: Path, data: bytes) -> None:
        # In place, without O_TRUNC: a recycled file is overwritten and
        # never shrunk, because freeing blocks is what costs.
        def attempt() -> None:
            with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o644), "wb") as handle:
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())

        _with_retry(attempt)

    segments = list(segments)
    start = segments[-1].stop if segments else 0
    rows = table.payload_since(start)
    stop = start + int(rows.shape[0])
    if stop > start:
        payload_dir = root / PAYLOAD_DIR
        payload_dir.mkdir(parents=True, exist_ok=True)
        name = segment_file_name(lsn, start, stop)
        crc = _with_retry(lambda: _stream_segment(payload_dir / name, rows))
        _fsync_dir(payload_dir)
        segments.append(PayloadSegment(file=name, start=start, stop=stop, crc=crc))
        if faults is not None:
            faults.hit("snapshot.segment")

    partial = Path(str(final) + ".partial")
    pool = root / FREE_DIR
    if pool.exists() and not partial.exists():
        os.rename(pool, partial)
    partial.mkdir(parents=True, exist_ok=True)
    chunk_entries = []
    total_rows = 0
    for chunk_index in range(table.num_chunks):
        view = table.snapshot_chunk(chunk_index)
        buffer = io.BytesIO()
        np.savez(buffer, values=view.values, rowids=view.rowids)
        data = buffer.getvalue()
        file_name = f"chunk-{chunk_index:05d}.npz"
        _write_file(partial / file_name, data)
        if faults is not None:
            faults.hit("snapshot.chunk")
        chunk_entries.append(
            {
                "file": file_name,
                "rows": int(view.values.size),
                "bytes": len(data),
                "crc": zlib.crc32(data),
            }
        )
        total_rows += int(view.values.size)

    manifest = {
        "version": MANIFEST_VERSION,
        "lsn": int(lsn),
        "rows": total_rows,
        "next_rowid": stop,
        "chunks": chunk_entries,
        "segments": [asdict(segment) for segment in segments],
        "meta": meta,
    }
    manifest_path = partial / MANIFEST_NAME
    recycled = manifest_path.stat().st_size if manifest_path.exists() else 0
    text = json.dumps(manifest, indent=2, sort_keys=True).encode()
    _write_file(manifest_path, text.ljust(recycled, b" "))
    if faults is not None:
        faults.hit("snapshot.manifest")
    os.rename(partial, final)
    _fsync_dir(root)
    return SnapshotInfo(
        lsn=lsn,
        path=final,
        rows=total_rows,
        chunks=len(chunk_entries),
        segments=tuple(segments),
        written=True,
    )


def list_snapshots(root: str | os.PathLike) -> list[Path]:
    """Committed snapshot directories under ``root``, newest first."""
    root = Path(root)
    if not root.is_dir():
        return []
    dirs = [
        entry
        for entry in root.iterdir()
        if entry.is_dir()
        and entry.name.startswith("snap-")
        and not entry.name.endswith(".partial")
    ]
    return sorted(dirs, key=snapshot_lsn, reverse=True)


def read_manifest(path: str | os.PathLike) -> dict:
    """The parsed version-2 manifest of snapshot directory ``path``."""
    manifest_path = Path(path) / MANIFEST_NAME
    if not manifest_path.is_file():
        raise SnapshotCorruptionError(f"missing manifest in {path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except (ValueError, OSError) as exc:
        raise SnapshotCorruptionError(f"unreadable manifest in {path}: {exc}") from exc
    if manifest.get("version") != MANIFEST_VERSION:
        raise SnapshotCorruptionError(
            f"unsupported snapshot version {manifest.get('version')!r} in {path}"
        )
    return manifest


def _scatter_segment(
    path: Path,
    segment: PayloadSegment,
    slots: np.ndarray,
    payload: np.ndarray,
) -> int:
    """Stream one segment file into ``payload`` rows, block by block.

    ``slots[r]`` is the output row of row id ``r`` (-1: not live).  The
    file's header and length are checked against the manifest entry and
    its CRC against ``segment.crc``.  Returns the number of rows placed.
    """
    width = payload.shape[1]
    expected = (segment.stop - segment.start, width)
    try:
        with open(path, "rb") as handle:
            if np.lib.format.read_magic(handle) != (1, 0):
                raise ValueError("unexpected .npy format version")
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(handle)
            if shape != expected or fortran or dtype != np.dtype("<i8"):
                raise ValueError(f"header {shape} {dtype} does not match {expected}")
            header_bytes = handle.tell()
            handle.seek(0)
            crc = zlib.crc32(handle.read(header_bytes))
            block_rows = max(1, _BLOCK_BYTES // max(1, 8 * width))
            block = np.empty((block_rows, width), dtype=np.int64)
            placed = 0
            for first in range(segment.start, segment.stop, block_rows):
                count = min(block_rows, segment.stop - first)
                rows = block[:count]
                raw = rows.reshape(-1).view(np.uint8)
                if handle.readinto(raw) != raw.size:
                    raise ValueError("segment file is short")
                crc = zlib.crc32(raw, crc)
                targets = slots[first : first + count]
                live = targets >= 0
                payload[targets[live]] = rows[live]
                placed += int(np.count_nonzero(live))
            if handle.read(1):
                raise ValueError("segment file is long")
    except (OSError, ValueError) as exc:
        raise SnapshotCorruptionError(f"bad payload segment {path}: {exc}") from exc
    if crc != segment.crc:
        raise SnapshotCorruptionError(f"CRC mismatch in {path}")
    return placed


def load_snapshot(path: str | os.PathLike) -> LoadedSnapshot:
    """Read one snapshot back, validating every chunk file's and every
    referenced payload segment's CRC, and gather the payload by row id."""
    path = Path(path)
    manifest = read_manifest(path)
    key_pieces: list[np.ndarray] = []
    rowid_pieces: list[np.ndarray] = []
    for entry in manifest["chunks"]:
        chunk_path = path / entry["file"]
        size = entry.get("bytes", -1)
        try:
            with open(chunk_path, "rb") as handle:
                data = handle.read(size)
        except OSError as exc:
            raise SnapshotCorruptionError(
                f"missing chunk file {chunk_path}: {exc}"
            ) from exc
        if len(data) < size:
            raise SnapshotCorruptionError(f"short chunk file {chunk_path}")
        if zlib.crc32(data) != entry["crc"]:
            raise SnapshotCorruptionError(f"CRC mismatch in {chunk_path}")
        with np.load(io.BytesIO(data), allow_pickle=False) as arrays:
            values = np.asarray(arrays["values"], dtype=np.int64)
            rowids = np.asarray(arrays["rowids"], dtype=np.int64)
        if values.shape[0] != entry["rows"] or rowids.shape != values.shape:
            raise SnapshotCorruptionError(f"row-count mismatch in {chunk_path}")
        key_pieces.append(values)
        rowid_pieces.append(rowids)
    keys = np.concatenate(key_pieces) if key_pieces else np.empty(0, np.int64)
    rowids = np.concatenate(rowid_pieces) if rowid_pieces else np.empty(0, np.int64)
    del key_pieces, rowid_pieces

    segments = [PayloadSegment(**entry) for entry in manifest["segments"]]
    next_rowid = int(manifest["next_rowid"])
    covered = 0
    for segment in segments:
        if segment.start != covered or segment.stop <= segment.start:
            raise SnapshotCorruptionError(f"payload segments do not tile in {path}")
        covered = segment.stop
    if covered != next_rowid:
        raise SnapshotCorruptionError(f"payload segments do not tile in {path}")
    if rowids.size and (int(rowids.min()) < 0 or int(rowids.max()) >= next_rowid):
        raise SnapshotCorruptionError(f"row id outside the payload in {path}")
    slots = np.full(next_rowid, -1, dtype=np.int64)
    slots[rowids] = np.arange(rowids.size, dtype=np.int64)
    width = len(manifest["meta"].get("payload_names") or ())
    payload = np.empty((rowids.size, width), dtype=np.int64)
    placed = 0
    for segment in segments:
        placed += _scatter_segment(
            path.parent / PAYLOAD_DIR / segment.file, segment, slots, payload
        )
    if placed != rowids.size:
        raise SnapshotCorruptionError(f"duplicate row ids in {path}")
    return LoadedSnapshot(
        lsn=int(manifest["lsn"]),
        path=path,
        keys=keys,
        payload=payload,
        meta=dict(manifest["meta"]),
    )


def load_latest_snapshot(root: str | os.PathLike) -> LoadedSnapshot | None:
    """Newest snapshot that passes validation, or ``None``.

    Falls back across corrupt snapshots newest-to-oldest -- a damaged
    latest snapshot costs a longer WAL replay, not data loss, as long as
    the covering segments were retained (see the manager's GC policy).
    The directory is listed again after each failure: a snapshot a
    concurrent checkpoint dropped and recycled fails its CRCs, and the
    snapshots committed meanwhile are the ones left to load.
    """
    failed: set[Path] = set()
    while True:
        candidates = [path for path in list_snapshots(root) if path not in failed]
        if not candidates:
            return None
        try:
            return load_snapshot(candidates[0])
        except SnapshotCorruptionError:
            failed.add(candidates[0])
