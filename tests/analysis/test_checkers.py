"""Every repro-lint checker family fires on its fixture violations, stays
quiet on the clean variants, and catches the real bugs PR 6 fixed."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.analysis.cli import (
    analyze_paths,
    analyze_source,
    collect_registry,
    merge_registry,
)
from repro.discipline import CHUNK_METHOD_MODES

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).parents[2] / "src"


@pytest.fixture(scope="module")
def fixture_violations():
    return analyze_paths([str(FIXTURES)])


def findings(violations, check, filename):
    return [
        v
        for v in violations
        if v.check == check and v.path.endswith(filename)
    ]


class TestFixtureViolations:
    def test_lb01_insufficient_mode_fires(self, fixture_violations):
        found = findings(fixture_violations, "LB01", "broken_latch.py")
        assert any("point_query" in v.message for v in found)
        assert any(
            "insert" in v.message and "chunk:shared" in v.message
            for v in found
        ), "shared-held exclusive-required call must flag the held mode"

    def test_lb01_checks_module_level_kernels(self, fixture_violations):
        found = findings(fixture_violations, "LB01", "broken_latch.py")
        kernel = [v for v in found if "insert_across" in v.message]
        assert [v.function.split(".")[-1] for v in kernel] == ["unlatched_kernel"]

    def test_lb02_raw_chunk_access_fires(self, fixture_violations):
        found = findings(fixture_violations, "LB02", "broken_latch.py")
        assert any(v.function.endswith("unlatched_subscript") for v in found)
        assert any(v.function.endswith("unlatched_store") for v in found)

    def test_lb03_leaked_latch_fires(self, fixture_violations):
        found = findings(fixture_violations, "LB03", "broken_latch.py")
        assert len(found) == 1
        assert found[0].function.endswith("leaky_acquire")

    def test_lo01_order_inversion_fires(self, fixture_violations):
        found = findings(fixture_violations, "LO01", "broken_order.py")
        assert any("reorg_wake" in v.message for v in found)
        assert any("chunk latch" in v.message for v in found)

    def test_lo02_nested_chunk_latch_fires(self, fixture_violations):
        found = findings(fixture_violations, "LO02", "broken_order.py")
        assert len(found) == 1
        assert found[0].function.endswith("descending_chunks")

    def test_gs01_guarded_writes_fire(self, fixture_violations):
        found = findings(fixture_violations, "GS01", "broken_guarded.py")
        flagged = {v.function.split(".")[-1] for v in found}
        assert flagged == {
            "bump_unlocked",
            "mutate_queue_unlocked",
            "store_failures_unlocked",
        }

    def test_gs02_guarded_reads_fire(self, fixture_violations):
        found = findings(fixture_violations, "GS02", "broken_guarded.py")
        flagged = {v.function.split(".")[-1] for v in found}
        assert flagged == {"read_queue_unlocked", "peek_sample"}

    def test_sl01_solver_under_lock_fires(self, fixture_violations):
        found = findings(fixture_violations, "SL01", "broken_solver.py")
        assert any("plan_chunk" in v.message for v in found)
        assert any("build_chunk_replacement" in v.message for v in found)

    def test_gc01_blind_publish_fires(self, fixture_violations):
        found = findings(fixture_violations, "GC01", "broken_solver.py")
        assert len(found) == 1
        assert found[0].function.endswith("blind_publish")

    def test_gs01_shard_registries_fire(self, fixture_violations):
        found = findings(fixture_violations, "GS01", "broken_shard.py")
        flagged = {v.function.split(".")[-1] for v in found}
        assert flagged == {
            "swap_socket_unlocked",
            "drop_channel_unlocked",
            "forget_process_unlocked",
        }

    def test_gs02_shard_socket_and_channel_reads_fire(
        self, fixture_violations
    ):
        found = findings(fixture_violations, "GS02", "broken_shard.py")
        flagged = {v.function.split(".")[-1] for v in found}
        assert flagged == {"read_socket_unlocked", "peek_channel_unlocked"}

    def test_lo01_cluster_lock_under_channel_lock_fires(
        self, fixture_violations
    ):
        found = findings(fixture_violations, "LO01", "broken_shard.py")
        assert len(found) == 1
        assert found[0].function.endswith("cluster_lock_under_frame_lock")
        assert "shard_state" in found[0].message
        assert "shard_channel" in found[0].message

    def test_clean_variants_stay_clean(self, fixture_violations):
        clean = (
            "properly_bracketed",
            "properly_scoped",
            "sanctioned_many",
            "guarded_properly",
            "peek_sample_locked",
            "checked_publish",
            "request_properly",
            "dispatch_properly",
        )
        for v in fixture_violations:
            assert not v.function.endswith(clean), v


def _analyze_snippet(source: str, path: str = "snippet.py"):
    tree = ast.parse(source)
    registry, class_registry = merge_registry([collect_registry(tree)])
    return analyze_source(path, source, tree, registry, class_registry)


class TestRegressions:
    """The real violations this PR fixed must stay detectable: each test
    analyzes the pre-fix code shape and asserts the finding."""

    def test_prefix_rebuild_chunk_unlatched_read(self):
        # Table.rebuild_chunk used to return self._chunks[i] unlatched on
        # the empty-snapshot path (now bracketed with a shared scope).
        source = (
            "class Table:\n"
            "    def rebuild_chunk(self, chunk_index):\n"
            "        while True:\n"
            "            snapshot = self.snapshot_chunk(chunk_index)\n"
            "            if snapshot.values.size == 0:\n"
            "                return self._chunks[chunk_index]\n"
            "            rebuilt = self.build_chunk_replacement(snapshot)\n"
            "            if self.publish_chunk(snapshot, rebuilt):\n"
            "                return rebuilt\n"
        )
        assert [v.check for v in _analyze_snippet(source)] == ["LB02"]

    def test_prefix_attach_unguarded_writes(self):
        # Reorganizer.attach used to publish _database with no lock and
        # flip _stop under the wrong lock (now both under their guards).
        source = (
            "class Reorganizer:\n"
            "    def attach(self, database):\n"
            "        self.policy.bind(database)\n"
            "        self._database = database\n"
            "        if self.background:\n"
            "            with self._state:\n"
            "                if self._thread is None:\n"
            "                    self._stop = False\n"
        )
        found = _analyze_snippet(source)
        assert sorted(v.check for v in found) == ["GS01", "GS01"]
        messages = " ".join(v.message for v in found)
        assert "_database" in messages and "_stop" in messages

    def test_fixed_shapes_are_clean(self):
        source = (
            "class Reorganizer:\n"
            "    def attach(self, database):\n"
            "        self.policy.bind(database)\n"
            "        with self._state:\n"
            "            self._database = database\n"
            "            if self.background and self._thread is None:\n"
            "                with self._wake:\n"
            "                    self._stop = False\n"
        )
        assert _analyze_snippet(source) == []


class TestSuppression:
    def test_ignore_comment_silences_named_check(self):
        source = (
            "class Table:\n"
            "    def peek(self, i):\n"
            "        return self._chunks[i]  # repro-lint: ignore[LB02]\n"
        )
        assert _analyze_snippet(source) == []

    def test_ignore_comment_is_check_specific(self):
        source = (
            "class Table:\n"
            "    def peek(self, i):\n"
            "        return self._chunks[i]  # repro-lint: ignore[GS01]\n"
        )
        assert [v.check for v in _analyze_snippet(source)] == ["LB02"]


class TestRegistryConsistency:
    def test_decorators_match_declaration_table(self):
        """The ``@requires_latch`` decorators on the chunk column classes
        must agree with ``repro.discipline.CHUNK_METHOD_MODES`` -- the
        static analyzer's seed registry."""
        decorated: dict[str, str] = {}
        for name in ("column.py", "delta_store.py"):
            path = SRC / "repro" / "storage" / name
            tree = ast.parse(path.read_text())
            for methods in collect_registry(tree).values():
                for method, mode in methods.items():
                    assert decorated.get(method, mode) == mode, method
                    decorated[method] = mode
        assert decorated == CHUNK_METHOD_MODES
