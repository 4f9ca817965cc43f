"""Latch-bracketing violations (LB01 / LB02 / LB03)."""

from repro.discipline import requires_latch


class BrokenTable:
    def unlatched_probe(self, chunk_index, key):
        # LB01 (and the raw access it rides on): point_query requires a
        # shared latch, none is held.
        return self._chunks[chunk_index].point_query(key)

    def unlatched_subscript(self, chunk_index):
        # LB02: raw _chunks[...] load outside any latch bracket.
        chunk = self._chunks[chunk_index]
        return chunk.size

    def unlatched_store(self, chunk_index, rebuilt):
        # LB02: _chunks[...] store requires an exclusive latch.
        self._chunks[chunk_index] = rebuilt

    def shared_for_write(self, chunk_index, key):
        # LB01: insert requires an exclusive latch; only shared is held.
        self._latches.acquire_read(chunk_index)
        try:
            self._chunks[chunk_index].insert(key)
        finally:
            self._latches.release_read(chunk_index)

    def leaky_acquire(self, chunk_index, key):
        # LB03: the exclusive latch is never released on this path.
        self._latches.acquire_write(chunk_index)
        self._chunks[chunk_index].delete(key)
        return True

    def properly_bracketed(self, chunk_index, key):
        # Clean: no finding expected here.
        self._latches.acquire_read(chunk_index)
        try:
            return self._chunks[chunk_index].point_query(key)
        finally:
            self._latches.release_read(chunk_index)

    def properly_scoped(self, chunk_index, rebuilt):
        # Clean: with-scope bracketing.
        with self._latches.exclusive(chunk_index):
            self._chunks[chunk_index] = rebuilt


@requires_latch("exclusive")
def insert_across(columns, batches):
    for column, batch in zip(columns, batches):
        column.bulk_insert(batch)


class BrokenKernelCaller:
    def unlatched_kernel(self, chunk_indices, batches):
        # LB01: a module-level exclusive kernel called with no latch held.
        return insert_across(self.columns, batches)

    def latched_kernel(self, chunk_indices, batches):
        # Clean: every chunk latched before the kernel runs.
        latched = self._latches.acquire_write_many(chunk_indices)
        try:
            insert_across(self.columns, batches)
        finally:
            self._latches.release_write_many(latched)
