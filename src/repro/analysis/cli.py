"""``repro-lint`` entry point: discovery, driving the checkers.

``python -m repro.analysis [paths] [--format text|json]``

Two passes over the file set, each file parsed once:

1. collect the ``@requires_latch`` registry contributed by every file's
   decorators (merged with the seed table
   ``repro.discipline.CHUNK_METHOD_MODES``);
2. analyze each file against the merged registry.

A run over ``src`` takes about a second, so nothing is cached between
runs and the analyzer writes no file.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
from pathlib import Path

from repro.discipline import CHUNK_METHOD_MODES

from . import checks
from .report import Violation, format_json, format_text
from .walker import analyze_function, decorator_requirements, iter_functions

#: Implementation modules exempt from analysis: they *are* the latch /
#: discipline machinery the rules describe.
EXEMPT_SUFFIXES = (
    os.path.join("repro", "discipline.py"),
    os.path.join("repro", "storage", "latches.py"),
)
EXEMPT_DIR_PARTS = (os.path.join("repro", "analysis"),)

_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*ignore\[([^\]]*)\]")


def _is_exempt(path: str) -> bool:
    norm = os.path.normpath(path)
    if norm.endswith(EXEMPT_SUFFIXES):
        return True
    return any(part in norm for part in EXEMPT_DIR_PARTS)


def discover(paths: list[str]) -> list[str]:
    """Python files under the given paths (files pass through)."""
    found: list[str] = []
    for raw in paths:
        path = Path(raw)
        if path.is_file() and path.suffix == ".py":
            found.append(str(path))
        elif path.is_dir():
            found.extend(
                str(p) for p in sorted(path.rglob("*.py"))
            )
    return found


# --------------------------------------------------------------------- #
# Registry collection (pass 1)
# --------------------------------------------------------------------- #


def collect_registry(tree: ast.Module) -> dict[str, dict[str, str]]:
    """``{class name: {method: latch mode}}`` from ``@requires_latch``
    decorators in one module (module-level functions key ``""``)."""
    contrib: dict[str, dict[str, str]] = {}
    for class_name, func in iter_functions(tree):
        latch, _ = decorator_requirements(func)
        if latch is not None:
            contrib.setdefault(class_name or "", {})[func.name] = latch
    return contrib


def merge_registry(
    contribs: list[dict[str, dict[str, str]]],
) -> tuple[dict[str, str], dict[str, dict[str, str]]]:
    """Merge per-file contributions into (name registry, class registry).

    The name registry (method name -> strongest declared mode) drives
    LB01 on chunk-receiver calls; the class registry drives self-call
    resolution.  The seed table ``CHUNK_METHOD_MODES`` always applies.
    """
    names: dict[str, str] = dict(CHUNK_METHOD_MODES)
    classes: dict[str, dict[str, str]] = {}
    for contrib in contribs:
        for class_name, methods in contrib.items():
            bucket = classes.setdefault(class_name, {})
            for method, mode in methods.items():
                bucket[method] = mode
                prior = names.get(method)
                if prior is None or (
                    prior == "shared" and mode == "exclusive"
                ):
                    names[method] = mode
    return names, classes


# --------------------------------------------------------------------- #
# Per-file analysis (pass 2)
# --------------------------------------------------------------------- #


def _suppressed(source_lines: list[str], violation: Violation) -> bool:
    if not 1 <= violation.line <= len(source_lines):
        return False
    match = _SUPPRESS_RE.search(source_lines[violation.line - 1])
    if match is None:
        return False
    codes = {code.strip() for code in match.group(1).split(",")}
    return "*" in codes or violation.check in codes


def analyze_source(
    path: str,
    source: str,
    tree: ast.Module,
    registry: dict[str, str],
    class_registry: dict[str, dict[str, str]],
) -> list[Violation]:
    """Run every checker family over one parsed module."""
    violations: list[Violation] = []
    for class_name, func in iter_functions(tree):
        analysis = analyze_function(func, class_name)
        violations.extend(
            checks.check_latch_bracketing(
                path, analysis, registry, class_registry
            )
        )
        violations.extend(checks.check_lock_order(path, analysis))
        violations.extend(checks.check_guarded_state(path, analysis))
        violations.extend(checks.check_solver_rules(path, analysis))
    source_lines = source.splitlines()
    return [v for v in violations if not _suppressed(source_lines, v)]


# --------------------------------------------------------------------- #
# Driver
# --------------------------------------------------------------------- #


def analyze_paths(paths: list[str]) -> list[Violation]:
    """Analyze every Python file under ``paths``; return all violations."""
    files = [f for f in discover(paths) if not _is_exempt(f)]
    parsed: dict[str, tuple[str, ast.Module]] = {}
    for path in files:
        with open(path, "r", encoding="utf-8") as fh:
            source = fh.read()
        parsed[path] = (source, ast.parse(source, filename=path))

    # Pass 1: registry contributions.
    registry, class_registry = merge_registry(
        [collect_registry(tree) for _, tree in parsed.values()]
    )

    # Pass 2: per-file checks.
    violations: list[Violation] = []
    for path, (source, tree) in parsed.items():
        violations.extend(
            analyze_source(path, source, tree, registry, class_registry)
        )
    return violations


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Static concurrency-discipline analyzer for the repro engine "
            "(latch bracketing, lock order, guarded state, solver/"
            "generation rules)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format",
    )
    args = parser.parse_args(argv)

    violations = analyze_paths(args.paths or ["src"])
    formatter = format_json if args.format == "json" else format_text
    print(formatter(violations))
    return 1 if violations else 0
