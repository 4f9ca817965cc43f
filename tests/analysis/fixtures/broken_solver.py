"""Solver-under-lock and generation-check violations (SL01 / GC01)."""


class BrokenPolicy:
    def solve_under_latch(self, table, chunk_index, values):
        # SL01: the solver runs while a chunk latch is held -- the
        # expensive phase must price against a pinned snapshot off-latch.
        table._latches.acquire_read(chunk_index)
        try:
            return self.planner.plan_chunk(values)
        finally:
            table._latches.release_read(chunk_index)

    def rebuild_under_lock(self, table, snapshot):
        # SL01: a heavy rebuild entry point under a declared lock.
        with self._state_lock:
            return table.build_chunk_replacement(snapshot)

    def blind_publish(self, table, snapshot, rebuilt):
        # GC01: the publish result is discarded and nothing compared
        # generations first -- a stale replan would land silently.
        table.publish_chunk(snapshot, rebuilt)

    def checked_publish(self, table, snapshot, rebuilt):
        # Clean: the result gates the retry.
        if not table.publish_chunk(snapshot, rebuilt):
            self.requeue(snapshot.chunk_index)
