"""The one table of tolerances: no tolerance literal outside it, and every module reads it."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

from holoifs import tolerances

PACKAGE = Path(tolerances.__file__).resolve().parent

#: every name a module reads from the table, so each is also that module's attribute
READERS = {
    "maps": ("INVERT_RTOL", "DERIV_FLOOR", "CONTAINMENT_MARGIN"),
    "attractor": ("ROUNDING_PAD", "BALL_SLACK"),
    "dynamics": ("FIXED_POINT_TOL", "MULTIPLIER_BOUND_SLACK", "PERIODIC_RESIDUAL_TOL",
                 "SPECTRUM_DEDUP_TOL", "PREP_DEDUP_TOL", "RECURRENCE_TOL"),
    "symmetry": ("DERIV_FLOOR", "DERIV_SLACK", "GERM_EQUALITY_TOL", "SPECTRUM_TOL",
                 "FUNC_EQ_TOL", "SANDWICH_SLACK", "SYMMETRY_RESIDUAL_TOL",
                 "BACKWARD_DERIV_FLOOR", "RECURRENCE_TOL"),
    "geometry": ("REAL_TOL", "ATANH_CLAMP"),
    "koenigs": ("SERIES_FIXED_POINT_TOL", "ROOT_RESIDUAL_TOL"),
}


def _small_literals(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            if 0.0 < abs(node.value) < 1e-6:
                yield f"{path.name}:{node.lineno}: {node.value!r}"


def test_no_small_float_literal_outside_the_table():
    found = [hit for path in sorted(PACKAGE.glob("*.py")) if path.name != "tolerances.py"
             for hit in _small_literals(path)]
    assert found == []


def test_the_table_imports_nothing():
    tree = ast.parse((PACKAGE / "tolerances.py").read_text(encoding="utf-8"))
    assert not [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]


def test_every_entry_has_one_comment_line():
    lines = (PACKAGE / "tolerances.py").read_text(encoding="utf-8").splitlines()
    names = [name for name in vars(tolerances) if name.isupper()]
    assert names
    for name in names:
        (k,) = [k for k, line in enumerate(lines) if line.startswith(f"{name} = ")]
        assert lines[k - 1].startswith("#: "), name
        assert not lines[k - 2].startswith("#"), name


@pytest.mark.parametrize("module, names", READERS.items())
def test_module_attributes_are_the_table_values(module, names):
    mod = importlib.import_module(f"holoifs.{module}")
    for name in names:
        assert getattr(mod, name) == getattr(tolerances, name), (module, name)


def test_defaults_read_the_table():
    from holoifs.dynamics import InverseDynamics
    from holoifs.symmetry import Budgets, spectrum_compat, verify_symmetry

    assert InverseDynamics.orbits.__defaults__ == (200, tolerances.RECURRENCE_TOL)
    assert InverseDynamics.orbit.__defaults__ == (200, tolerances.RECURRENCE_TOL)
    assert spectrum_compat.__defaults__ == (tolerances.SPECTRUM_TOL,)
    assert verify_symmetry.__defaults__ == (200, tolerances.SYMMETRY_RESIDUAL_TOL)
    budgets = Budgets()
    assert budgets.spectrum_tol == tolerances.SPECTRUM_TOL
    assert budgets.func_eq_tol == tolerances.FUNC_EQ_TOL
