"""The declaration tables in :mod:`repro.discipline` name real code.

The checkers key off attribute and function *names*; a name nothing under
``src/`` defines any more checks nothing and hides that it stopped checking.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro import discipline

SRC = Path(__file__).parents[2] / "src"


def _trees():
    for path in sorted(SRC.rglob("*.py")):
        yield ast.parse(path.read_text(), filename=str(path))


def _assigned_attributes(class_def: ast.ClassDef) -> set[str]:
    """Names the class assigns: fields in its body, ``self.x`` in methods."""
    names: set[str] = set()
    for node in ast.walk(class_def):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for leaf in ast.walk(target):
                if isinstance(leaf, ast.Attribute) and isinstance(leaf.ctx, ast.Store):
                    if isinstance(leaf.value, ast.Name) and leaf.value.id == "self":
                        names.add(leaf.attr)
                elif isinstance(leaf, ast.Name) and node in class_def.body:
                    names.add(leaf.id)
    return names


def test_every_guarded_attribute_is_assigned_in_its_class():
    assigned: dict[str, set[str]] = {}
    for tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name in discipline.GUARDED_BY:
                assigned.setdefault(node.name, set()).update(
                    _assigned_attributes(node)
                )
    dead = [
        (class_name, attribute)
        for class_name, attributes in discipline.GUARDED_BY.items()
        for attribute in attributes
        if attribute not in assigned.get(class_name, set())
    ]
    assert dead == []


def test_every_solver_call_name_is_defined():
    defined = {
        node.name
        for tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    assert sorted(discipline.SOLVER_CALL_NAMES - defined) == []
