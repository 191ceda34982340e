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


def test_every_public_name_is_used_or_documented():
    # a public name that nothing in the package reads and the README does not
    # document is dead code or undocumented API
    lines = {
        (path.name, n): line
        for path in sorted(PACKAGE.glob("*.py"))
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
    }
    readme = (PACKAGE.parents[1] / "README.md").read_text(encoding="utf-8")
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _public_definitions(ast.parse(path.read_text(encoding="utf-8"))):
            word = re.compile(rf"\b{node.name}\b")
            if not word.search(readme) and not any(
                word.search(line) for at, line in lines.items() if at != (path.name, node.lineno)
            ):
                unused.append(f"{path.name}: {node.name}")
    assert unused == []
