"""The Frequency Model (Section 4.2 and 4.3).

The Frequency Model (FM) overlays the access patterns of a sample workload on
the data distribution of a column chunk.  The chunk is divided into ``N``
logical blocks and ten histograms -- one counter per block each -- capture the
sub-operations generated by the five storage-engine operations:

========  ==========================================================
``pq``    block accesses of point queries
``rs``    blocks where a range query *starts*
``sc``    blocks fully scanned in the middle of a range query
``re``    blocks where a range query *ends*
``de``    blocks containing a value targeted by a delete
``in``    blocks receiving an insert
``udf``   blocks a forward-rippling update moves a value *from*
``utf``   blocks a forward-rippling update moves a value *to*
``udb``   blocks a backward-rippling update moves a value *from*
``utb``   blocks a backward-rippling update moves a value *to*
========  ==========================================================

The FM can be learned by replaying a sample workload against the initial
dataset (without materializing results or modifying data, Fig. 8a) or
constructed directly from statistical knowledge of the access-pattern
distributions (Fig. 8b).

Learning is a pure function of each sample operation's kind and two bounds,
so a sample has one form between the engine and the solver:
:class:`SampleColumns`.  The monitor keeps its per-chunk windows in it, an
offline ``Workload`` is read into it (:func:`sample_columns`), the planner
filters it per chunk and :func:`learn_from_workload` counts it in one
vectorized pass; the ``record_*`` methods are the scalar Fig. 8a API that
pass is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

import numpy as np

from ..storage.access_log import KIND_CODES, PAIRED_UPDATE_KIND, RANGE_KINDS
from ..storage.cost_accounting import DEFAULT_BLOCK_VALUES
from ..workload.operations import Operation

#: Names of the ten FM histograms, in the order the paper introduces them.
HISTOGRAM_NAMES = (
    "pq",
    "rs",
    "sc",
    "re",
    "de",
    "in",
    "udf",
    "utf",
    "udb",
    "utb",
)


@dataclass
class FrequencyModel:
    """Ten per-block access-frequency histograms for one column chunk."""

    num_blocks: int
    histograms: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.num_blocks <= 0:
            raise ValueError("num_blocks must be positive")
        for name in HISTOGRAM_NAMES:
            if name not in self.histograms:
                self.histograms[name] = np.zeros(self.num_blocks, dtype=np.float64)
            else:
                array = np.asarray(self.histograms[name], dtype=np.float64)
                if array.shape != (self.num_blocks,):
                    raise ValueError(
                        f"histogram {name!r} must have shape ({self.num_blocks},)"
                    )
                self.histograms[name] = array.copy()

    # ------------------------------------------------------------------ #
    # Convenience accessors
    # ------------------------------------------------------------------ #

    def __getitem__(self, name: str) -> np.ndarray:
        return self.histograms[name]

    @property
    def pq(self) -> np.ndarray:
        """Point-query accesses per block."""
        return self.histograms["pq"]

    @property
    def rs(self) -> np.ndarray:
        """Range-query start accesses per block."""
        return self.histograms["rs"]

    @property
    def sc(self) -> np.ndarray:
        """Full block scans (middle of range queries) per block."""
        return self.histograms["sc"]

    @property
    def re(self) -> np.ndarray:
        """Range-query end accesses per block."""
        return self.histograms["re"]

    @property
    def de(self) -> np.ndarray:
        """Delete targets per block."""
        return self.histograms["de"]

    @property
    def ins(self) -> np.ndarray:
        """Insert targets per block (``in`` in the paper)."""
        return self.histograms["in"]

    @property
    def udf(self) -> np.ndarray:
        """Update-from accesses with a forward ripple."""
        return self.histograms["udf"]

    @property
    def utf(self) -> np.ndarray:
        """Update-to accesses with a forward ripple."""
        return self.histograms["utf"]

    @property
    def udb(self) -> np.ndarray:
        """Update-from accesses with a backward ripple."""
        return self.histograms["udb"]

    @property
    def utb(self) -> np.ndarray:
        """Update-to accesses with a backward ripple."""
        return self.histograms["utb"]

    def total_operations(self) -> float:
        """Total number of recorded logical operations."""
        reads = float(self.pq.sum() + self.rs.sum())
        writes = float(self.de.sum() + self.ins.sum())
        updates = float(self.udf.sum() + self.udb.sum())
        return reads + writes + updates

    def copy(self) -> "FrequencyModel":
        """Deep copy of the model."""
        return FrequencyModel(
            self.num_blocks,
            {name: histogram.copy() for name, histogram in self.histograms.items()},
        )

    def scaled(self, factor: float) -> "FrequencyModel":
        """Return a copy with every histogram multiplied by ``factor``."""
        return FrequencyModel(
            self.num_blocks,
            {name: histogram * factor for name, histogram in self.histograms.items()},
        )

    def merged(self, other: "FrequencyModel") -> "FrequencyModel":
        """Return the element-wise sum of two models (same granularity)."""
        if other.num_blocks != self.num_blocks:
            raise ValueError("cannot merge models with different granularity")
        return FrequencyModel(
            self.num_blocks,
            {
                name: self.histograms[name] + other.histograms[name]
                for name in HISTOGRAM_NAMES
            },
        )

    def coarsened(self, factor: int) -> "FrequencyModel":
        """Aggregate adjacent blocks to reduce granularity (Section 6.3).

        ``factor`` adjacent blocks are merged into one; the last bucket may
        aggregate fewer blocks when ``num_blocks`` is not divisible.
        """
        if factor <= 0:
            raise ValueError("factor must be positive")
        if factor == 1:
            return self.copy()
        new_blocks = int(np.ceil(self.num_blocks / factor))
        coarsened: dict[str, np.ndarray] = {}
        for name, histogram in self.histograms.items():
            padded = np.zeros(new_blocks * factor, dtype=np.float64)
            padded[: self.num_blocks] = histogram
            coarsened[name] = padded.reshape(new_blocks, factor).sum(axis=1)
        return FrequencyModel(new_blocks, coarsened)

    # ------------------------------------------------------------------ #
    # Recording operations
    # ------------------------------------------------------------------ #

    def record_point_query(self, block: int) -> None:
        """Record a point query touching ``block``."""
        self.pq[self._clamp(block)] += 1

    def record_range_query(self, start_block: int, end_block: int) -> None:
        """Record a range query spanning ``start_block`` .. ``end_block``."""
        start = self._clamp(start_block)
        end = self._clamp(end_block)
        if end < start:
            start, end = end, start
        self.rs[start] += 1
        if end > start:
            self.re[end] += 1
            if end - start > 1:
                self.sc[start + 1 : end] += 1

    def record_delete(self, block: int) -> None:
        """Record a delete targeting ``block``."""
        self.de[self._clamp(block)] += 1

    def record_insert(self, block: int) -> None:
        """Record an insert landing in ``block``."""
        self.ins[self._clamp(block)] += 1

    def record_update(self, from_block: int, to_block: int) -> None:
        """Record an update moving a value from one block to another.

        A larger target block produces a forward ripple (``udf``/``utf``),
        otherwise a backward ripple (``udb``/``utb``); the equal-block case is
        recorded as backward by the paper's convention.
        """
        source = self._clamp(from_block)
        target = self._clamp(to_block)
        if target > source:
            self.udf[source] += 1
            self.utf[target] += 1
        else:
            self.udb[source] += 1
            self.utb[target] += 1

    def _clamp(self, block: int) -> int:
        if block < 0:
            return 0
        if block >= self.num_blocks:
            return self.num_blocks - 1
        return int(block)


class BlockMapper:
    """Maps key values to logical blocks of the initial sorted chunk."""

    def __init__(
        self,
        sorted_values: np.ndarray | list[int],
        block_values: int = DEFAULT_BLOCK_VALUES,
    ) -> None:
        self._sorted = np.asarray(sorted_values, dtype=np.int64)
        if self._sorted.ndim != 1 or self._sorted.size == 0:
            raise ValueError("sorted_values must be a non-empty 1-D array")
        if np.any(np.diff(self._sorted) < 0):
            raise ValueError("sorted_values must be non-decreasing")
        if block_values <= 0:
            raise ValueError("block_values must be positive")
        self.block_values = int(block_values)
        self.num_blocks = int(
            np.ceil(self._sorted.shape[0] / self.block_values)
        )

    def blocks_of(self, values: np.ndarray | int) -> np.ndarray:
        """Logical block that would hold each value in the initial chunk."""
        positions = np.searchsorted(self._sorted, values, side="left")
        return np.minimum(positions // self.block_values, self.num_blocks - 1)

    def block_of(self, value: int) -> int:
        """Logical block that would hold ``value`` in the initial chunk."""
        return int(self.blocks_of(int(value)))

    def last_blocks_of(self, values: np.ndarray) -> np.ndarray:
        """Block of the last chunk value ``<=`` each value (-1: none is)."""
        positions = np.searchsorted(self._sorted, values, side="right")
        return (positions - 1) // self.block_values


#: Sample-column kind codes: the monitor's attribution kinds, then the
#: paired update an offline ``Update`` / ``MultiUpdate`` attributes as.
SAMPLE_CODES = {**KIND_CODES, PAIRED_UPDATE_KIND: len(KIND_CODES)}

# Per sample code: whether its bounds are a range, whether it is an update.
_UPDATE_KINDS = ("update_source", "update_target", PAIRED_UPDATE_KIND)
_RANGED = np.array([kind in RANGE_KINDS for kind in SAMPLE_CODES])
_UPDATES = np.array([kind in _UPDATE_KINDS for kind in SAMPLE_CODES])


class SampleColumns(NamedTuple):
    """A workload sample: one row per scalar operation, in sample order.

    ``codes`` holds :data:`SAMPLE_CODES` values.  For the range kinds
    ``lows``/``highs`` are the inclusive bounds; for a paired update the old
    and the new key; for every other kind both are the one key touched
    (the monitor records an update's two sides as such rows, so each trains
    as an in-place update at its key's block).
    """

    codes: np.ndarray
    lows: np.ndarray
    highs: np.ndarray

    @property
    def ranged(self) -> np.ndarray:
        """Mask of the rows whose bounds are a range, not keys."""
        return _RANGED[self.codes]


def sample_columns(sample: Iterable[Operation] | SampleColumns) -> SampleColumns:
    """``sample`` as columns: as it is when it already is, else read off
    each operation's attribution (:mod:`repro.workload.operations`), so a
    batched ``Multi*`` operation contributes one row per scalar."""
    if isinstance(sample, SampleColumns):
        return sample
    codes: list[int] = []
    lows: list[int] = []
    highs: list[int] = []
    for operation in sample:
        if not isinstance(operation, Operation):
            raise TypeError(f"unsupported operation type: {type(operation)!r}")
        kind, low, high = operation.attribution()
        codes.extend([SAMPLE_CODES[kind]] * len(low))
        lows.extend(low)
        highs.extend(low if high is None else high)
    return SampleColumns(
        np.asarray(codes, dtype=np.int64),
        np.asarray(lows, dtype=np.int64),
        np.asarray(highs, dtype=np.int64),
    )


def learn_from_workload(
    workload: Iterable[Operation] | SampleColumns,
    sorted_values: np.ndarray | list[int],
    *,
    block_values: int = DEFAULT_BLOCK_VALUES,
) -> FrequencyModel:
    """Learn a Frequency Model by replaying a sample workload (Fig. 8a).

    The workload is *not* executed: each operation is mapped onto the blocks
    it would touch in the initial dataset, exactly as described in Section
    4.2 (results are not materialized, data is not modified).  The sample is
    read as :class:`SampleColumns` and counted kind by kind -- the same
    histograms a per-operation ``record_*`` replay adds up to.
    """
    mapper = BlockMapper(sorted_values, block_values)
    sample = sample_columns(workload)
    codes, lows, highs = sample
    blocks = mapper.num_blocks

    def histogram(touched: np.ndarray) -> np.ndarray:
        return np.bincount(touched, minlength=blocks)

    low_blocks = mapper.blocks_of(lows)
    by_code = np.bincount(
        codes.astype(np.int64) * blocks + low_blocks,
        minlength=len(SAMPLE_CODES) * blocks,
    ).reshape(len(SAMPLE_CODES), blocks)

    # A range starts in its low bound's block and ends in the block of the
    # last value it covers (never before its start: an empty range is one
    # block); the blocks strictly between are scanned, counted as a
    # difference array -- one more scan from ``start + 1``, one less from
    # ``end`` on.
    ranged = sample.ranged
    start = low_blocks[ranged]
    end = np.maximum(start, mapper.last_blocks_of(highs[ranged]))
    spans = end > start
    range_ends = histogram(end[spans])

    # An update ripples forward when its target block lies after its source
    # block, backward otherwise (the equal-block case included).
    updates = _UPDATES[codes]
    source = low_blocks[updates]
    target = mapper.blocks_of(highs[updates])
    forward = target > source

    return FrequencyModel(
        blocks,
        {
            "pq": by_code[KIND_CODES["point_query"]],
            "rs": by_code[_RANGED].sum(axis=0),
            "sc": np.cumsum(histogram(start[spans] + 1) - range_ends),
            "re": range_ends,
            "de": by_code[KIND_CODES["delete"]],
            "in": by_code[KIND_CODES["insert"]],
            "udf": histogram(source[forward]),
            "utf": histogram(target[forward]),
            "udb": histogram(source[~forward]),
            "utb": histogram(target[~forward]),
        },
    )


def learn_from_distributions(
    num_blocks: int,
    *,
    point_queries: np.ndarray | None = None,
    range_starts: np.ndarray | None = None,
    range_scans: np.ndarray | None = None,
    range_ends: np.ndarray | None = None,
    inserts: np.ndarray | None = None,
    deletes: np.ndarray | None = None,
    updates_from: np.ndarray | None = None,
    updates_to: np.ndarray | None = None,
) -> FrequencyModel:
    """Build a Frequency Model from access-pattern distributions (Fig. 8b).

    Each argument is a length-``num_blocks`` array of expected access counts
    for the corresponding sub-operation.  Updates are split evenly between
    forward and backward ripples unless the caller provides the four update
    histograms directly through :class:`FrequencyModel`.
    """

    def _normalize(histogram: np.ndarray | None) -> np.ndarray:
        if histogram is None:
            return np.zeros(num_blocks, dtype=np.float64)
        histogram = np.asarray(histogram, dtype=np.float64)
        if histogram.shape != (num_blocks,):
            raise ValueError("histograms must have length num_blocks")
        return histogram

    histograms = {
        "pq": _normalize(point_queries),
        "rs": _normalize(range_starts),
        "sc": _normalize(range_scans),
        "re": _normalize(range_ends),
        "in": _normalize(inserts),
        "de": _normalize(deletes),
    }
    updates_from = _normalize(updates_from)
    updates_to = _normalize(updates_to)
    histograms["udf"] = updates_from / 2.0
    histograms["udb"] = updates_from / 2.0
    histograms["utf"] = updates_to / 2.0
    histograms["utb"] = updates_to / 2.0
    return FrequencyModel(num_blocks, histograms)
