"""Shared fixtures for the sharding suite.

Worker processes are expensive to spawn (a fresh interpreter each,
``spawn`` context), so the end-to-end and property tests share one
long-lived :class:`~repro.sharding.cluster.ShardCluster` per session and
re-``attach`` fresh data instead of paying process startup per test or
per hypothesis example.  Crash tests that kill workers build their own
throwaway clusters.
"""

from __future__ import annotations

import pytest
from shard_helpers import N_SHARDS

from repro.sharding import ShardCluster


@pytest.fixture(scope="session")
def cluster3():
    """One running 3-shard worker pool, reused across tests via attach."""
    with ShardCluster(N_SHARDS, arena_bytes=1 << 20) as cluster:
        yield cluster


@pytest.fixture(scope="session")
def cluster2():
    """A 2-shard pool: one fence, so every cross-shard pair crosses it."""
    with ShardCluster(2, arena_bytes=1 << 20) as cluster:
        yield cluster
