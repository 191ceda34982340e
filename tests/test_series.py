"""Round-trip properties of truncated power-series composition and reversion."""

from __future__ import annotations

import cmath
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from holoifs._series import compose, reversion

#: the largest error allowed, relative to the largest coefficient modulus of the series compared
TOL = 1e-10

_unit = st.floats(0.0, 1.0)


@st.composite
def _series(draw, order):
    """A series of ``order`` fixing the origin: ``|c_1|`` in [0.5, 2], the other parts in [0, 1]."""
    c1 = cmath.rect(draw(st.floats(0.5, 2.0)), draw(st.floats(-math.pi, math.pi)))
    rest = [complex(draw(_unit), draw(_unit)) for _ in range(order - 1)]
    return np.array([0.0, c1, *rest], dtype=np.complex128)


@st.composite
def _orders_and_series(draw, count):
    order = draw(st.integers(2, 10))
    return order, [draw(_series(order)) for _ in range(count)]


def _close(a, b, *series):
    """Whether ``a`` and ``b`` agree within ``TOL`` times the largest coefficient modulus."""
    scale = max(float(np.max(np.abs(p))) for p in (a, b, *series))
    return float(np.max(np.abs(a - b))) <= TOL * scale


def _identity(order):
    z = np.zeros(order + 1, dtype=np.complex128)
    z[1] = 1.0
    return z


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_orders_and_series(1))
def test_a_series_composed_with_its_reversion_is_the_identity(drawn):
    order, (f,) = drawn
    g = reversion(f, order)
    z = _identity(order)
    assert _close(compose(f, g, order), z, f, g)
    assert _close(compose(g, f, order), z, f, g)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_orders_and_series(3))
def test_composition_is_associative(drawn):
    order, (f, g, h) = drawn
    left = compose(compose(f, g, order), h, order)
    right = compose(f, compose(g, h, order), order)
    assert _close(left, right, f, g, h)
