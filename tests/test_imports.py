"""Layering rules for the package source."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import holoifs

PACKAGE = Path(holoifs.__file__).parent


def _sibling_module(node: ast.ImportFrom) -> bool:
    if node.level == 1:
        return node.module is not None  # `from . import _series` imports a module
    return node.level == 0 and (node.module or "").startswith("holoifs.")


def test_no_module_imports_a_private_name_from_a_sibling():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and _sibling_module(node):
                offenders += [
                    f"{path.name}: {node.module}.{alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert offenders == []


def _public_definitions(tree: ast.Module):
    """Each public top-level function or class, and each public method of a public class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node
            if isinstance(node, ast.ClassDef):
                yield from (
                    item for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                )


def _identifiers(tree: ast.Module) -> set[str]:
    """Every name the module reads: names, attribute names and imported names."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update(filter(None, (node.name, node.asname)))
    return found


def test_every_public_name_is_used_or_documented():
    # a public name that no code in the package reads and the README does not
    # document is dead code or undocumented API; a word in a docstring or a
    # comment is not a use
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    used = set().union(*map(_identifiers, trees.values()))
    readme = (PACKAGE.parents[1] / "README.md").read_text(encoding="utf-8")
    unused = [
        f"{path.name}: {node.name}"
        for path, tree in trees.items()
        for node in _public_definitions(tree)
        if node.name not in used and not re.search(rf"\b{node.name}\b", readme)
    ]
    assert unused == []
