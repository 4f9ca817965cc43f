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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..storage.cost_accounting import DEFAULT_BLOCK_VALUES
from ..storage.access_log import PAIRED_UPDATE_KIND, RANGE_KINDS
from ..workload.operations import Operation, Workload

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

    def block_of(self, value: int) -> int:
        """Logical block that would hold ``value`` in the initial chunk."""
        position = int(np.searchsorted(self._sorted, int(value), side="left"))
        block = position // self.block_values
        return min(block, self.num_blocks - 1)

    def block_range(self, low: int, high: int) -> tuple[int, int]:
        """Blocks spanned by the inclusive value range ``[low, high]``."""
        start = self.block_of(low)
        end_position = int(np.searchsorted(self._sorted, int(high), side="right"))
        end = min(max(end_position - 1, 0) // self.block_values, self.num_blocks - 1)
        return start, max(start, end)


def learn_from_workload(
    workload: Workload,
    sorted_values: np.ndarray | list[int],
    *,
    block_values: int = DEFAULT_BLOCK_VALUES,
) -> FrequencyModel:
    """Learn a Frequency Model by replaying a sample workload (Fig. 8a).

    The workload is *not* executed: each operation is mapped onto the blocks
    it would touch in the initial dataset, exactly as described in Section
    4.2 (results are not materialized, data is not modified).  Operations
    are read through their attribution (:mod:`repro.workload.operations`),
    so a batched ``Multi*`` operation trains exactly as its scalars would.
    """
    mapper = BlockMapper(sorted_values, block_values)
    model = FrequencyModel(mapper.num_blocks)
    record_key = {
        "point_query": model.record_point_query,
        "insert": model.record_insert,
        "delete": model.record_delete,
    }
    for operation in workload:
        if not isinstance(operation, Operation):
            raise TypeError(f"unsupported operation type: {type(operation)!r}")
        kind, lows, highs = operation.attribution()
        if kind in RANGE_KINDS:
            for low, high in zip(lows, highs, strict=True):
                model.record_range_query(*mapper.block_range(low, high))
        elif kind == PAIRED_UPDATE_KIND:
            for old_key, new_key in zip(lows, highs, strict=True):
                model.record_update(
                    mapper.block_of(old_key), mapper.block_of(new_key)
                )
        else:
            for key in lows:
                record_key[kind](mapper.block_of(key))
    return model


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
