"""The four checker families of ``repro-lint``.

Each checker consumes a :class:`~repro.analysis.walker.FunctionAnalysis`
(the held-set annotation of one function) and yields
:class:`~repro.analysis.report.Violation` records.  See the package
docstring for the check-ID table.
"""

from __future__ import annotations

import ast

from repro.discipline import (
    CHUNK_LATCH_RANK,
    GUARDED_BY,
    MUTATING_METHODS,
    SOLVER_CALL_NAMES,
    lock_rank,
)

from .report import Violation
from .walker import FunctionAnalysis, Held, is_chunks_subscript

#: Functions whose bodies run before the object is shared.
CONSTRUCTOR_NAMES = frozenset({"__init__", "__post_init__", "__new__"})


def _parent_map(func: ast.AST) -> dict[int, ast.AST]:
    parents: dict[int, ast.AST] = {}
    for node in ast.walk(func):
        for child in ast.iter_child_nodes(node):
            parents[id(child)] = node
    return parents


def _held(analysis: FunctionAnalysis, node: ast.AST) -> Held:
    return analysis.held_at.get(id(node), analysis.premise)


def _violation(
    check: str,
    path: str,
    node: ast.AST,
    message: str,
    analysis: FunctionAnalysis,
) -> Violation:
    name = getattr(analysis.func, "name", "")
    if analysis.class_name:
        name = f"{analysis.class_name}.{name}"
    return Violation(
        check=check,
        path=path,
        line=getattr(node, "lineno", 0),
        col=getattr(node, "col_offset", 0),
        message=message,
        function=name,
    )


# --------------------------------------------------------------------- #
# Latch bracketing (LB01 / LB02 / LB03)
# --------------------------------------------------------------------- #


def _call_receiver_is_chunk(
    call: ast.Call, analysis: FunctionAnalysis, class_methods: set[str]
) -> bool:
    """Whether a method call's receiver is a chunk object (a
    ``_chunks[...]`` subscript, a chunk alias variable, or ``self`` inside
    the class that declares the decorated method)."""
    func = call.func
    if not isinstance(func, ast.Attribute):
        return False
    receiver = func.value
    if is_chunks_subscript(receiver):
        return True
    if (
        isinstance(receiver, ast.Name)
        and receiver.id in analysis.chunk_aliases
    ):
        return True
    return (
        isinstance(receiver, ast.Name)
        and receiver.id == "self"
        and func.attr in class_methods
    )


def check_latch_bracketing(
    path: str,
    analysis: FunctionAnalysis,
    registry: dict[str, str],
    class_registry: dict[str, dict[str, str]],
):
    """LB01/LB02/LB03 over one function."""
    func_name = getattr(analysis.func, "name", "")
    if func_name in CONSTRUCTOR_NAMES:
        return
    class_methods = set(class_registry.get(analysis.class_name or "", ()))
    # Module-level functions (registry key "") have no receiver: every
    # call to one by its bare name needs the declared latch.
    module_functions = class_registry.get("", {})

    flagged_receivers: set[int] = set()
    for node in ast.walk(analysis.func):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            name = func.id
            mode = module_functions.get(name)
        elif isinstance(func, ast.Attribute):
            name = func.attr
            mode = registry.get(name)
            if mode is not None and not _call_receiver_is_chunk(
                node, analysis, class_methods
            ):
                continue
        else:
            continue
        if mode is None:
            continue
        held = _held(analysis, node)
        if not held.has_chunk(mode):
            if isinstance(func, ast.Attribute):
                flagged_receivers.add(id(func.value))
            yield _violation(
                "LB01",
                path,
                node,
                f"call to chunk method {name}() requires a {mode} "
                f"chunk latch; held here: {_describe(held)}",
                analysis,
            )

    for node in ast.walk(analysis.func):
        if not is_chunks_subscript(node):
            continue
        if id(node) in flagged_receivers:
            continue  # the LB01 finding above already covers this access
        mode = "exclusive" if isinstance(node.ctx, ast.Store) else "shared"
        held = _held(analysis, node)
        if not held.has_chunk(mode):
            yield _violation(
                "LB02",
                path,
                node,
                f"raw _chunks[...] {'store' if mode == 'exclusive' else 'access'}"
                f" outside a latch bracket (requires a {mode} latch); "
                f"held here: {_describe(held)}",
                analysis,
            )

    for node, leaked in analysis.leaks:
        holds = ", ".join(f"{h.mode}({h.index})" for h in leaked)
        yield _violation(
            "LB03",
            path,
            node,
            f"latch acquired but not released on this path: {holds} "
            "(bracket with try/finally or a with-scope)",
            analysis,
        )


def _describe(held: Held) -> str:
    if held.empty():
        return "nothing"
    parts = [f"chunk:{h.mode}({h.index})" for h in sorted(
        held.chunks, key=lambda h: (h.mode, h.index)
    )]
    parts.extend(f"lock:{name}" for name in sorted(held.locks))
    return ", ".join(parts)


# --------------------------------------------------------------------- #
# Lock ordering (LO01 / LO02)
# --------------------------------------------------------------------- #


def check_lock_order(path: str, analysis: FunctionAnalysis):
    """LO01/LO02 over one function's acquisition events."""
    for event in analysis.acquires:
        held = event.held_before
        if event.kind == "chunk":
            if held.locks:
                yield _violation(
                    "LO01",
                    path,
                    event.node,
                    "chunk latch acquired while holding "
                    f"{_describe(Held(frozenset(), held.locks))}; chunk "
                    f"latches rank first (rank {CHUNK_LATCH_RANK}) in "
                    "repro.discipline.LOCK_ORDER",
                    analysis,
                )
            nested = held.non_premise_chunks()
            if nested and not event.many:
                indices = ", ".join(h.index for h in nested)
                yield _violation(
                    "LO02",
                    path,
                    event.node,
                    f"nested chunk-latch acquisition (chunk {event.index} "
                    f"while holding chunk {indices}); multi-chunk latching "
                    "must go through acquire_write_many (ascending order)",
                    analysis,
                )
        else:
            rank = event.rank
            for name in held.locks:
                # Unknown locks ("?<attr>") miss LOCK_ORDER and rank last.
                held_rank = lock_rank(name)
                if held_rank > rank or (
                    held_rank == rank and name != event.lock_name
                ):
                    yield _violation(
                        "LO01",
                        path,
                        event.node,
                        f"lock {event.lock_name!r} (rank {rank}) acquired "
                        f"while holding {name!r} (rank {held_rank}); the "
                        "declared order is repro.discipline.LOCK_ORDER",
                        analysis,
                    )


# --------------------------------------------------------------------- #
# Guarded state (GS01 / GS02)
# --------------------------------------------------------------------- #


def _guard_satisfied(held: Held, guard: str) -> bool:
    if guard.startswith("chunk_latch"):
        _, _, mode = guard.partition(":")
        return held.has_chunk(mode or "shared")
    return guard in held.locks


def check_guarded_state(path: str, analysis: FunctionAnalysis):
    """GS01/GS02 over one function (``self.<attr>`` accesses only)."""
    spec = GUARDED_BY.get(analysis.class_name or "")
    if not spec:
        return
    func_name = getattr(analysis.func, "name", "")
    if func_name in CONSTRUCTOR_NAMES:
        return
    parents = _parent_map(analysis.func)

    def is_self_attr(node: ast.AST) -> str | None:
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and node.attr in spec
        ):
            return node.attr
        return None

    for node in ast.walk(analysis.func):
        attr = is_self_attr(node)
        if attr is None:
            continue
        guard, mode = spec[attr]
        held = _held(analysis, node)
        parent = parents.get(id(node))

        write = isinstance(node.ctx, (ast.Store, ast.Del))
        # ``self._failures[i] = x`` / ``self._calls += 1``
        if (
            isinstance(parent, ast.Subscript)
            and parent.value is node
            and isinstance(parent.ctx, (ast.Store, ast.Del))
        ):
            write = True
        # ``self._pending.append(x)`` -- container mutation
        grand = parents.get(id(parent)) if parent is not None else None
        if (
            isinstance(parent, ast.Attribute)
            and parent.value is node
            and parent.attr in MUTATING_METHODS
            and isinstance(grand, ast.Call)
            and grand.func is parent
        ):
            write = True

        if write:
            if not _guard_satisfied(held, guard):
                yield _violation(
                    "GS01",
                    path,
                    node,
                    f"write to guarded attribute self.{attr} without "
                    f"holding {guard!r} (GUARDED_BY mode {mode!r}); "
                    f"held here: {_describe(held)}",
                    analysis,
                )
        elif mode == "rw" and not _guard_satisfied(held, guard):
            yield _violation(
                "GS02",
                path,
                node,
                f"read of rw-guarded attribute self.{attr} without "
                f"holding {guard!r}; held here: {_describe(held)}",
                analysis,
            )


# --------------------------------------------------------------------- #
# Solver-under-lock and generation checks (SL01 / GC01)
# --------------------------------------------------------------------- #


def check_solver_rules(path: str, analysis: FunctionAnalysis):
    """SL01/GC01 over one function."""
    parents = _parent_map(analysis.func)
    saw_generation_compare_line: int | None = None
    for node in ast.walk(analysis.func):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(
                isinstance(op, ast.Attribute) and op.attr == "generation"
                for op in operands
            ):
                line = getattr(node, "lineno", 0)
                if (
                    saw_generation_compare_line is None
                    or line < saw_generation_compare_line
                ):
                    saw_generation_compare_line = line

    for node in ast.walk(analysis.func):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = None
        if isinstance(func, ast.Attribute):
            name = func.attr
        elif isinstance(func, ast.Name):
            name = func.id
        if name is None:
            continue

        if name in SOLVER_CALL_NAMES:
            held = _held(analysis, node)
            if not held.empty():
                yield _violation(
                    "SL01",
                    path,
                    node,
                    f"solver/rebuild call {name}() under "
                    f"{_describe(held)}; the expensive replan phases must "
                    "run off-latch against a pinned snapshot",
                    analysis,
                )

        if name == "publish_chunk":
            parent = parents.get(id(node))
            consumed = not (
                isinstance(parent, ast.Expr)
            )
            dominated = (
                saw_generation_compare_line is not None
                and saw_generation_compare_line <= getattr(node, "lineno", 0)
            )
            if not consumed and not dominated:
                yield _violation(
                    "GC01",
                    path,
                    node,
                    "publish_chunk() result discarded and no dominating "
                    "generation comparison: a blind publish defeats the "
                    "copy-on-write staleness check",
                    analysis,
                )
