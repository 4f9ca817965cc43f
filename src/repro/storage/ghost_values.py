"""Helpers for distributing ghost values (empty slots) across partitions.

Ghost values (Section 2 and Section 4.6) are empty slots interspersed at the
tail of partitions.  They let deletes simply leave a hole behind and let
inserts/updates land without rippling, trading memory amplification for
update performance.

This module contains allocation-shape helpers shared by the storage layouts
and by the optimizer's ghost allocator (:mod:`repro.core.ghost_allocation`).
"""

from __future__ import annotations

import numpy as np


def spread_evenly(total: int, partitions: int) -> np.ndarray:
    """Distribute ``total`` ghost slots as evenly as possible.

    The first ``total % partitions`` partitions receive one extra slot, which
    is how the Equi-GV baseline in the paper allocates its buffer space.
    """
    if partitions <= 0:
        raise ValueError("partitions must be positive")
    if total < 0:
        raise ValueError("total must be non-negative")
    base, remainder = divmod(total, partitions)
    allocation = np.full(partitions, base, dtype=np.int64)
    allocation[:remainder] += 1
    return allocation


def fold_onto_snapped(
    allocation: np.ndarray, original_ends: np.ndarray, snapped_ends: np.ndarray
) -> np.ndarray:
    """Re-aggregate a per-partition allocation after boundary snapping.

    Snapping (:func:`~repro.storage.column.snap_boundaries_to_duplicates`)
    may merge partitions whose boundaries split a duplicate run; each
    original partition's slots go to the snapped partition that holds its
    end offset.
    """
    targets = np.minimum(
        np.searchsorted(snapped_ends, original_ends, side="left"),
        snapped_ends.shape[0] - 1,
    )
    result = np.zeros(snapped_ends.shape[0], dtype=np.int64)
    np.add.at(result, targets, np.asarray(allocation, dtype=np.int64))
    return result


def spread_proportionally(weights: np.ndarray | list[float], total: int) -> np.ndarray:
    """Distribute ``total`` slots proportionally to non-negative ``weights``.

    Implements the largest-remainder rounding of Eq. 18: each partition gets
    ``floor(weight / sum * total)`` slots and the leftover slots go to the
    partitions with the largest fractional remainders.  If every weight is
    zero the slots are spread evenly instead.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 1 or weights.size == 0:
        raise ValueError("weights must be a non-empty 1-D array")
    if np.any(weights < 0):
        raise ValueError("weights must be non-negative")
    if total < 0:
        raise ValueError("total must be non-negative")
    weight_sum = float(weights.sum())
    if weight_sum == 0.0:
        return spread_evenly(total, weights.size)
    raw = weights / weight_sum * total
    allocation = np.floor(raw).astype(np.int64)
    leftover = int(total - allocation.sum())
    if leftover > 0:
        remainders = raw - allocation
        winners = np.argsort(-remainders, kind="stable")[:leftover]
        allocation[winners] += 1
    return allocation


def ghost_budget_from_fraction(data_size: int, fraction: float) -> int:
    """Total ghost slots for a chunk of ``data_size`` values.

    ``fraction`` is the memory-amplification knob from the paper's
    experiments (e.g. 0.001 for 0.1% ghost values in Fig. 12, 0.0001 to 0.1
    for the sweep in Fig. 14).
    """
    if fraction < 0:
        raise ValueError("fraction must be non-negative")
    return int(round(data_size * fraction))
