"""Layering rules for the package source."""

from __future__ import annotations

import ast
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
