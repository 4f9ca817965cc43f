"""Public session API: the declarative façade over the Casper stack.

This package is the recommended entry point for applications::

    from repro.api import Database, ReorgPolicy, VectorizedPolicy

    db = Database.plan_for(training_workload, keys, payload)
    with db.session(execution=VectorizedPolicy(), reorg=ReorgPolicy()) as s:
        outcome = s.execute(workload)
    report = s.report()

:class:`Database` builds the planner/table/engine/monitor stack from a
declaration; :class:`Session` executes operations through a pluggable
:class:`ExecutionPolicy` (serial, or fixed-size vectorized slices) and
runs an automatic, cost-gated reorganization lifecycle
(:class:`ReorgPolicy`) that closes the paper's Fig. 10 online loop.  The
``StorageEngine`` entry points remain available through ``db.engine`` as a
compatibility layer.
"""

from .database import Database
from .policies import ExecutionPolicy, SerialPolicy, VectorizedPolicy
from .reorg import ReorgAction, ReorgDecision, ReorgPolicy
from .reorganizer import Reorganizer
from .session import FollowerSession, Session, SessionReport, SessionResult

__all__ = [
    "Database",
    "ExecutionPolicy",
    "FollowerSession",
    "ReorgAction",
    "ReorgDecision",
    "ReorgPolicy",
    "Reorganizer",
    "SerialPolicy",
    "Session",
    "SessionReport",
    "SessionResult",
    "VectorizedPolicy",
]
