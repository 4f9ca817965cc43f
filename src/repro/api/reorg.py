"""Reorganization policy: what to replan, and whether it pays.

The paper's Fig. 10 loop (sample -> plan -> execute -> monitor -> replan)
has three roles in this package, each written once: the engine's
:class:`~repro.core.monitor.WorkloadMonitor` *records* per-chunk operation
mixes, the :class:`ReorgPolicy` here *prices* them, and the
:class:`~repro.api.reorganizer.Reorganizer` *schedules* the policy's three
steps -- it is the loop's only driver:

* :meth:`ReorgPolicy.scan` finds chunks whose total-variation drift
  against their baseline mix (seeded from the planner's offline training
  sample) crossed the threshold -- cheap: no layouts are solved;
* :meth:`ReorgPolicy.decide_chunk` prices one candidate -- solving a
  layout for the chunk's recorded sample columns and comparing its modeled
  cost to the current layout and the rebuild charge -- and returns either an
  approved :class:`ReorgAction` (carrying the already-solved plan and the
  chunk's data generation) or a recorded rejection :class:`ReorgDecision`;
* :meth:`ReorgPolicy.apply_action` builds the replacement chunk *off to
  the side* (copy-on-write: readers keep serving from the current chunk
  throughout) and swaps it in with the table's single generation-checked
  :meth:`~repro.storage.table.Table.publish_chunk`; a generation mismatch
  -- at the pre-build snapshot or at the publish itself -- means a write
  raced the decision, and the action is reported stale (``None``) so the
  caller requeues it instead of applying a layout solved for data that no
  longer exists.

A policy may be driven from several sessions (threads) at once: the
baseline/bookkeeping state is mutex-guarded, decisions are solved without
any lock (the generation-checked publish makes a raced plan harmless), and
two racing applies of the same chunk resolve safely -- the first publish
bumps the generation, the second fails its check and requeues.

Every evaluation that crosses the drift threshold is recorded as a
:class:`ReorgDecision`, whether or not it replanned, so sessions can report
exactly why the lifecycle did (or did not) act.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING

from repro import discipline
from repro.discipline import guarded_class

from ..core.monitor import WorkloadMonitor, mix_distance
from ..storage.cost_accounting import blocks_spanned

if TYPE_CHECKING:
    from .database import Database

#: Multiplier on the rebuild charge the modeled savings must exceed.
REBUILD_MARGIN = 1.0


@dataclass
class ReorgDecision:
    """Outcome of evaluating one drifted chunk.

    One object per evaluation: :meth:`ReorgPolicy.decide_chunk` creates it,
    fills in the priced costs, and either records it as a rejection or
    carries it forward inside a :class:`ReorgAction` for
    :meth:`ReorgPolicy.apply_action` to mark ``replanned`` and record.
    """

    chunk_index: int
    drift: float
    observed_operations: int
    replanned: bool = False
    reason: str = ""
    current_cost_ns: float | None = None
    planned_cost_ns: float | None = None
    rebuild_cost_ns: float | None = None

    @property
    def modeled_savings_ns(self) -> float | None:
        """Modeled cost reduction of the replan over the recorded sample."""
        if self.current_cost_ns is None or self.planned_cost_ns is None:
            return None
        return self.current_cost_ns - self.planned_cost_ns


@dataclass
class ReorgAction:
    """An approved replan awaiting application (decision-phase output).

    Carries the priced (not yet recorded) ``decision`` plus what the apply
    phase needs: the layout ``plan`` the cost gate already solved, the
    ``replanner`` bound to the recorded sample, the ``mix`` that triggered
    the decision (adopted as the chunk's new baseline on apply) and the
    chunk's data ``generation`` at decision time -- the staleness token
    :meth:`ReorgPolicy.apply_action` re-checks.
    """

    decision: ReorgDecision
    mix: dict[str, float]
    generation: int
    plan: object
    replanner: object


@guarded_class
@dataclass
class ReorgPolicy:
    """Which drifted chunks are worth replanning.

    Parameters
    ----------
    drift_threshold:
        Total-variation distance between a chunk's observed operation mix
        and its baseline above which the chunk becomes a replan candidate.
    min_chunk_operations:
        Minimum operations attributed to a chunk (since its last replan)
        before drift is evaluated, so a handful of operations cannot trigger
        a rebuild.

    A candidate layout is solved for the chunk's recorded sample and the
    replan only proceeds if the modeled savings beat the rebuild charge
    (the cost gate).  A rejection adopts the evaluated mix as the chunk's
    new baseline and resets its recorded window, so a workload that
    persists in a judged-unprofitable mix never re-triggers the solver --
    the mix has to drift past the threshold again.

    A policy instance carries per-database state (baseline mixes), so it
    is bound to the first database it serves; create a fresh instance per
    database (sharing one across a database's sessions, consecutive or
    concurrent, is fine -- baselines deliberately persist across them, and
    each decision is reported to exactly one session call).
    """

    drift_threshold: float = 0.25
    min_chunk_operations: int = 256
    decisions: list[ReorgDecision] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not 0.0 <= self.drift_threshold <= 1.0:
            raise ValueError("drift_threshold must be in [0, 1]")
        self._baselines: dict[int, dict[str, float]] = {}
        self._baselines_seeded = False
        self._database: "Database | None" = None
        # Report watermark over ``decisions``.  It sits beside the log, not
        # in a reorganizer, because every session given this policy bare
        # builds a reorganizer of its own around it.
        self._reported = len(self.decisions)
        # Guards the cheap bookkeeping (seeding, baseline adoption,
        # decision log and watermark) against concurrent sessions.  The solver
        # deliberately runs outside this lock: pricing a candidate can take
        # milliseconds, and the generation-checked publish already makes a
        # stale plan harmless.
        self._state_lock = discipline.make_rlock("policy_state")

    @property
    def replans(self) -> int:
        """Number of replans performed so far."""
        return sum(1 for decision in self.decisions if decision.replanned)

    def unreported(self) -> list[ReorgDecision]:
        """Decisions recorded since the previous call (any thread's).

        Each decision is handed out exactly once, however many sessions
        and reorganizers share the policy.  The watermark advances by what
        was sliced, under the lock that guards the log, so a decision a
        background worker appends meanwhile is neither skipped nor
        reported twice.
        """
        with self._state_lock:
            new = self.decisions[self._reported :]
            self._reported += len(new)
        return new

    def bind(self, database: "Database") -> None:
        """Bind the policy to ``database`` (first caller wins)."""
        with self._state_lock:
            if self._database is None:
                self._database = database
            elif self._database is not database:
                raise ValueError(
                    "ReorgPolicy instances carry per-database state (baseline "
                    "mixes); create a fresh policy per database"
                )

    def _seed_baselines(self, database: "Database") -> None:
        """Seed baseline chunk mixes from the planner's training sample."""
        with self._state_lock:
            if self._baselines_seeded:
                return
            self._baselines_seeded = True
            planner = database.planner
            if planner is None or not len(planner.sample_workload):
                return
            probe = WorkloadMonitor(sample_limit=0)
            probe.observe_workload(database.table, planner.sample_workload)
            for chunk_index in probe.observed_chunks():
                self._baselines[chunk_index] = probe.chunk_mix(chunk_index)

    # ------------------------------------------------------------------ #
    # Decision phase
    # ------------------------------------------------------------------ #

    def scan(self, database: "Database") -> list[int]:
        """Find chunks whose drift crossed the threshold (no solver work).

        Returns the candidate chunk indices, ascending.  Chunks without a
        baseline adopt their observed mix instead of becoming candidates.
        A no-op unless the database carries both a monitor and a planner.
        """
        monitor = database.monitor
        if monitor is None or database.planner is None:
            return []
        self._seed_baselines(database)
        return [
            chunk_index
            for chunk_index in monitor.observed_chunks()
            if self._drift_state(monitor, chunk_index) is not None
        ]

    def _drift_state(
        self, monitor, chunk_index: int
    ) -> tuple[dict[str, float], float, int] | None:
        """The drift gate shared by :meth:`scan` and :meth:`decide_chunk`.

        Returns ``(mix, drift, total)`` when the chunk has accumulated
        ``min_chunk_operations`` and drifted past the threshold, ``None``
        otherwise.  A chunk without a baseline adopts its observed mix as
        the baseline (first sighting of an un-trained chunk should never
        replan against nothing) and is not a candidate.
        """
        counts = monitor.operation_counts(chunk_index)
        total = sum(counts.values())
        if total < self.min_chunk_operations:
            return None
        # The mix of the very counts just totalled: a second monitor read
        # could already include a concurrent session's next flush.
        mix = {kind: count / total for kind, count in counts.items()}
        with self._state_lock:
            baseline = self._baselines.get(chunk_index)
            if baseline is None:
                self._baselines[chunk_index] = mix
                return None
        drift = mix_distance(mix, baseline)
        if drift < self.drift_threshold:
            return None
        return mix, drift, total

    def decide_chunk(
        self, database: "Database", chunk_index: int
    ) -> ReorgAction | ReorgDecision | None:
        """Price one candidate chunk: the full decision phase.

        Re-checks drift against the chunk's *current* window (the mix may
        have moved since :meth:`scan` queued it), then runs the cost gate.
        Returns ``None`` when the chunk is no longer a candidate, a
        :class:`ReorgDecision` (already recorded in :attr:`decisions`) when
        it was evaluated but rejected, or an approved :class:`ReorgAction`
        ready for :meth:`apply_action`.
        """
        monitor = database.monitor
        planner = database.planner
        table = database.table
        if monitor is None or planner is None:
            return None
        state = self._drift_state(monitor, chunk_index)
        if state is None:
            return None
        mix, drift, total = state
        decision = ReorgDecision(chunk_index, drift, total)
        sample = monitor.recorded_sample(chunk_index)
        if not sample.codes.size:
            return self._record(decision, "no recorded operation sample")
        # Snapshot values and generation atomically (under the chunk's
        # shared latch): the solved plan and the staleness token the apply
        # phase re-checks belong to the same point in the chunk's history.
        snapshot = table.snapshot_chunk(chunk_index)
        values = snapshot.values
        if values.size == 0:
            return self._record(decision, "chunk is empty")
        replanner = planner.with_sample(sample)
        plan = replanner.plan_chunk(values)
        decision.planned_cost_ns = plan.estimated_cost
        # The snapshot captured the live partition layout under the same
        # latch as the values and generation, so the gate prices the
        # current layout against exactly the data the plan was solved for
        # (a chunk object fetched separately could have been swapped by a
        # racing publish in between).
        decision.current_cost_ns = replanner.evaluate_layout(
            plan.frequency_model, snapshot.partition_offsets
        )
        constants = planner.constants
        blocks = blocks_spanned(0, int(values.size), planner.block_values)
        decision.rebuild_cost_ns = blocks * (constants.seq_read + constants.seq_write)
        if decision.modeled_savings_ns < REBUILD_MARGIN * decision.rebuild_cost_ns:
            # Back off: the evaluated mix was judged not worth acting on, so
            # it becomes the chunk's new baseline -- a workload that *stays*
            # in this mix never re-triggers the solver; it must drift past
            # the threshold again.  The recorded window is reset so the next
            # evaluation (if any) prices a fresh sample.
            with self._state_lock:
                self._baselines[chunk_index] = mix
            monitor.reset_chunk(chunk_index)
            return self._record(
                decision, "cost gate: modeled savings below rebuild charge"
            )
        return ReorgAction(decision, mix, snapshot.generation, plan, replanner)

    # ------------------------------------------------------------------ #
    # Apply phase
    # ------------------------------------------------------------------ #

    def apply_action(
        self, database: "Database", action: ReorgAction
    ) -> ReorgDecision | None:
        """Rebuild the chunk an approved action targets, copy-on-write.

        The replacement chunk is built entirely off to the side from a
        latched :meth:`~repro.storage.table.Table.snapshot_chunk` -- readers
        keep serving from the current chunk throughout -- and swapped in by
        the table's generation-checked
        :meth:`~repro.storage.table.Table.publish_chunk`.  A generation
        mismatch (a write landed after the decision solved its plan, or
        slipped in between the build and the publish) means the plan prices
        data that no longer exists: the action is *not* applied and ``None``
        is returned, so the caller requeues the chunk and decides again on
        fresh state.  On success the replan decision is recorded and the
        action's mix becomes the chunk's new baseline.
        """
        table = database.table
        chunk_index = action.decision.chunk_index
        snapshot = table.snapshot_chunk(chunk_index)
        if snapshot.generation != action.generation:
            return None
        # The gate already paid for the layout solve; apply that plan
        # instead of solving it a second time.  The snapshot check above
        # guarantees the chunk still holds the (non-empty) values the plan
        # was built for, and the publish re-checks under the latch.
        rebuilt = table.build_chunk_replacement(
            snapshot, partial(action.replanner.build_chunk_from_plan, action.plan)
        )
        if not table.publish_chunk(snapshot, rebuilt):
            return None
        database.monitor.reset_chunk(chunk_index)
        with self._state_lock:
            self._baselines[chunk_index] = action.mix
        action.decision.replanned = True
        return self._record(
            action.decision, "drift above threshold, savings beat rebuild charge"
        )

    def _record(self, decision: ReorgDecision, reason: str) -> ReorgDecision:
        decision.reason = reason
        with self._state_lock:
            self.decisions.append(decision)
        return decision
