"""Guarded-state violations (GS01 / GS02).

The class names deliberately match ``repro.discipline.GUARDED_BY`` keys:
the declaration table is class-name keyed, so these fixtures exercise the
same specs the real classes are checked against.
"""


class Reorganizer:
    def bump_unlocked(self):
        # GS01: ``requeues`` is guarded by reorg_state.
        self.requeues += 1

    def mutate_queue_unlocked(self, chunk_index):
        # GS01: container mutation of a reorg_wake-guarded deque.
        self._pending.append(chunk_index)

    def read_queue_unlocked(self):
        # GS02: ``_pending`` is rw-guarded -- reads need the lock too.
        return len(self._pending)

    def store_failures_unlocked(self, chunk_index, count):
        # GS01: subscript store into a reorg_state-guarded dict.
        self._failures[chunk_index] = count

    def guarded_properly(self):
        # Clean: both accesses under their declared locks.
        with self._state:
            self.requeues += 1
        with self._wake:
            return len(self._pending)


class WorkloadMonitor:
    def peek_sample(self, chunk_index):
        # GS02: the sample map is rw-guarded by the monitor lock.
        return self._samples.get(chunk_index)

    def peek_sample_locked(self, chunk_index):
        # Clean.
        with self._lock:
            return self._samples.get(chunk_index)
