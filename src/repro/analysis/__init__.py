"""Static concurrency-discipline analyzer (``repro-lint``).

``python -m repro.analysis src/`` parses the tree with :mod:`ast` and
checks it against the concurrency model declared in
:mod:`repro.discipline`.  Four checker families:

===========  ==========================================================
Check        Rule
===========  ==========================================================
``LB01``     A chunk-touching method (or module-level function)
             registered via ``@requires_latch`` may only be called while
             holding a chunk latch of at least the declared mode.
``LB02``     Raw ``self._chunks[...]`` access outside a latch bracket
             (loads need a shared latch, stores an exclusive one).
``LB03``     A latch acquired in a function must be released on every
             path out of it (``try``/``finally`` or a ``with`` scope).
``LO01``     Cross-object acquisitions follow the declared partial
             order ``repro.discipline.LOCK_ORDER`` (chunk latch before
             structure locks before monitor before reorganizer state).
``LO02``     Nested chunk-latch acquisitions are forbidden outside
             ``acquire_write_many`` (which sorts ascending).
``GS01``     Writing an attribute declared in ``GUARDED_BY`` requires
             its lock (rebinding, subscript stores, container
             mutations).
``GS02``     Reading a ``"rw"``-mode guarded attribute requires its
             lock.
``SL01``     Solver / heavy-rebuild calls (``plan_chunk``,
             ``build_chunk_replacement``, ...) must not run under any
             latch or declared lock.
``GC01``     Every ``publish_chunk`` call site must consume the result
             (or be dominated by a generation comparison) -- a blind
             publish defeats the copy-on-write staleness check.
===========  ==========================================================

The runtime complements (``REPRO_DEBUG_LATCHES=1``) are the held-latch
assertions, the lock-order graph with cycle detection (LO03) and the
Eraser-lite lockset pass (GS-R) in :mod:`repro.discipline`.

Suppress a finding with a trailing ``# repro-lint: ignore[CHECK]``
comment on the flagged line (``ignore[*]`` silences every check there).
"""

from .cli import analyze_paths, main
from .report import Violation

__all__ = ["Violation", "analyze_paths", "main"]
