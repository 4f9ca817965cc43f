"""Exception hierarchy for the durability subsystem."""

from __future__ import annotations


class DurabilityError(RuntimeError):
    """Base class for all durability-layer errors."""


class WalCorruptionError(DurabilityError):
    """A WAL segment failed structural validation (bad magic, CRC mismatch
    or an LSN gap) somewhere other than its tail.

    A *torn tail* -- an incomplete or CRC-rejected final record -- is not an
    error: it is the expected shape of a crash mid-append and is silently
    truncated on open; so are a recycled segment's stale records past its
    own.  This exception marks corruption the torn-tail and successor
    rules cannot explain, i.e. data loss in the middle of the committed
    history.
    """


class SnapshotCorruptionError(DurabilityError):
    """A snapshot directory failed validation (missing manifest, CRC
    mismatch, short chunk file).  Recovery falls back to the next older
    snapshot; the error surfaces only when no intact snapshot remains."""


class WalUnavailableError(DurabilityError):
    """The WAL writer exhausted its bounded retries against persistent I/O
    failures and shut itself down.  The owning manager degrades the engine
    to read-only mode; see :class:`ReadOnlyError`."""


class ReadOnlyError(DurabilityError):
    """A write was attempted while the durability layer is in read-only
    degradation (the log directory became unwritable).  Reads keep working;
    writes are refused rather than silently accepted without durability."""


class RecoveryError(DurabilityError):
    """Recovery could not reconstruct a table (no intact snapshot, or the
    WAL history between the snapshot and the head has a gap)."""
