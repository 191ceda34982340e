"""The exact kernel of ``holoifs.maps`` against Python's complex scalars.

Every result must carry the bits of the scalar operation, signed zeros
included.  The kernel's ``*``, ``/`` and ``sqrt`` are CPython's own, applied
to each row, so they hold on every CPython, however its complex arithmetic
is compiled and whatever rules widen a real operand.
"""

import cmath
import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holoifs.maps import Exact

TINY = sys.float_info.min
SUBNORMAL = 5e-324

#: parts that exercise the axes, signed zeros, subnormals and both ends of the range
EDGE_PARTS = (0.0, -0.0, 1.0, -1.0, 0.5, -3.0, SUBNORMAL, -SUBNORMAL, 3 * SUBNORMAL,
              TINY, -TINY / 3, 1e-300, -1e-300, 1e300, -1e300, 1.7e308, 2.0 ** -1074 * 12345)
EDGE = [complex(re, im) for re, im in itertools.product(EDGE_PARTS, repeat=2)]


def _bits(values) -> list:
    return [(math.copysign(1.0, v.real), math.copysign(1.0, v.imag), v.real, v.imag)
            if not (cmath.isnan(v)) else "nan" for v in values]


def _same(got, want):
    got = [complex(v) for v in np.asarray(got).ravel().tolist()]
    assert _bits(got) == _bits(want)


def _exact(values) -> Exact:
    return np.array(values, dtype=np.complex128).view(Exact)


def _scalar(fn, *columns):
    return [complex(fn(*args)) for args in zip(*columns)]


def _modulus(z: complex) -> float:
    """``abs(z)``, and inf where it overflows: the kernel cannot raise for one row."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


magnitude = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)
part = st.one_of(
    st.sampled_from(EDGE_PARTS),
    st.tuples(magnitude, st.booleans()).map(lambda t: -t[0] if t[1] else t[0]),
    st.floats(allow_nan=False, allow_infinity=False),
)
complexes = st.lists(st.builds(complex, part, part), min_size=1, max_size=40)


def test_the_edge_cases_round_as_python_does():
    a = EDGE
    b = list(reversed(EDGE))
    with np.errstate(over="ignore", invalid="ignore"):
        _same(_exact(a) * _exact(b), _scalar(lambda x, y: x * y, a, b))
        nonzero = [y for y in b if y != 0]
        head = a[:len(nonzero)]
        _same(_exact(head) / _exact(nonzero), _scalar(lambda x, y: x / y, head, nonzero))
        _same(abs(_exact(a)), _scalar(_modulus, a))
        _same(np.sqrt(_exact(a)), _scalar(cmath.sqrt, a))


@pytest.mark.parametrize("z", [0j, -0.0 + 0j, complex(0.0, -0.0), complex(-0.0, -0.0),
                               complex(SUBNORMAL, 0.0), complex(-SUBNORMAL, SUBNORMAL),
                               complex(TINY, -TINY), complex(-4.0, 0.0), complex(-4.0, -0.0),
                               complex(0.0, 2.0), complex(math.inf, math.nan),
                               complex(-math.inf, 1.0), complex(math.nan, 0.0)])
def test_sqrt_on_zeros_axes_subnormals_and_specials(z):
    got = complex(np.sqrt(_exact([z]))[0])
    assert _bits([got]) == _bits([cmath.sqrt(z)])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(complexes, complexes)
def test_products_and_quotients_equal_the_scalar_ones(a, b):
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    with np.errstate(over="ignore", invalid="ignore"):
        _same(_exact(a) * _exact(b), _scalar(lambda x, y: x * y, a, b))
        if all(y != 0 for y in b):
            _same(_exact(a) / _exact(b), _scalar(lambda x, y: x / y, a, b))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(complexes)
def test_moduli_and_square_roots_equal_the_scalar_ones(a):
    with np.errstate(over="ignore"):
        _same(abs(_exact(a)), _scalar(_modulus, a))
    _same(np.sqrt(_exact(a)), _scalar(cmath.sqrt, a))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(complexes, st.sampled_from([1, -1, 2.0, -0.5, 0.0, 3j, -1 + 0j]))
def test_a_real_or_scalar_operand_widens_as_python_widens_it(a, k):
    # the map formulas read sign*root, sign/(2*root), 2.0*z and alpha*z + b
    with np.errstate(over="ignore", invalid="ignore"):
        _same(k * _exact(a), _scalar(lambda x: k * x, a))
        _same(_exact(a) * k, _scalar(lambda x: x * k, a))
        if all(x != 0 for x in a):
            _same(k / _exact(a), _scalar(lambda x: k / x, a))
        if k != 0:
            _same(_exact(a) / k, _scalar(lambda x: x / k, a))
    # real arrays widen too: (x + 0j) * z
    re = np.array([x.real for x in a])
    with np.errstate(over="ignore", invalid="ignore"):
        _same(re * _exact(a), _scalar(lambda x, y: x * y, re.tolist(), a))


def test_division_by_zero_raises_as_python_does():
    with pytest.raises(ZeroDivisionError):
        _exact([1 + 1j, 2j]) / _exact([1.0, 0.0])


def test_other_ufuncs_stay_numpy_and_results_keep_the_type():
    z = _exact([1 + 2j, -3.5 - 0.25j])
    assert type(z + 1j) is Exact and type(z * 2) is Exact
    assert type(abs(z)) is np.ndarray and type(z.real < 0) is np.ndarray
    assert np.array_equal((z - 1).view(np.ndarray), z.view(np.ndarray) - 1)
    with pytest.raises(TypeError, match="no keywords"):
        np.multiply(z, z, out=np.empty(2, complex))


def _rows(fn, *operands) -> list:
    """``fn`` of Python scalars, element by element over the broadcast operands."""
    cells = np.broadcast_arrays(*(np.asarray(x) for x in operands))
    return _scalar(fn, *(c.ravel().tolist() for c in cells))


OPERANDS = [
    _exact([]),
    _exact(1.5 - 2j),
    _exact([[1 + 2j, -0.0 - 3j], [SUBNORMAL, 1e300 + 1e-300j]]),
    _exact([[2 - 1j], [-0.0 + 0j], [1e-300j]]),
    _exact([[0.5 + 0.5j, -3.0, TINY - 7j, complex(-0.0, -0.0)]]),
]
OTHERS = [3, -2, 0.25, -0.0, 1e300, 2 - 0.5j, complex(-0.0, 0.0),
          np.array([1.5, -0.0, 1e-300, 1e300]), np.array([[0.5], [-2.0], [7.0]]),
          np.float64(-3.5), np.complex128(1 + 1j)]


def _checked(got, want):
    assert type(got) is Exact and got.dtype == np.complex128
    _same(got, want)


@pytest.mark.parametrize("a", OPERANDS, ids=["empty", "0-d", "2x2", "3x1", "1x4"])
def test_every_shape_and_operand_kind_rounds_as_python_does(a):
    with np.errstate(over="ignore", invalid="ignore"):
        for b in OPERANDS + OTHERS:
            try:
                np.broadcast_shapes(np.shape(a), np.shape(b))
            except ValueError:
                continue
            _checked(a * b, _rows(lambda x, y: x * y, a, b))
            _checked(b * a, _rows(lambda x, y: x * y, b, a))
            if all(x != 0 for x in np.ravel(b)):
                _checked(a / b, _rows(lambda x, y: x / y, a, b))
            if all(x != 0 for x in np.ravel(a)):
                _checked(b / a, _rows(lambda x, y: x / y, b, a))
    _checked(np.sqrt(a), _rows(cmath.sqrt, a))


def test_broadcast_columns_against_rows_round_as_python_does():
    col = _exact([[1 + 2j], [-0.0 - 1j], [1e300 + 1e300j]])
    row = _exact([[3 - 1j, -0.0 + 0j, 1e-300 + 2j, 1e200]])
    with np.errstate(over="ignore", invalid="ignore"):
        got = col * row
        assert got.shape == (3, 4)
        _checked(got, _rows(lambda x, y: x * y, col, row))
        _checked(row / col, _rows(lambda x, y: x / y, row, col))


@pytest.mark.parametrize("divisor", [0, 0.0, -0.0, 0j, complex(-0.0, -0.0),
                                     np.array([[1.0], [0.0]]), _exact([[2j, 0j]])])
def test_a_zero_divisor_row_raises_in_any_shape(divisor):
    with pytest.raises(ZeroDivisionError):
        _exact([[1 + 1j, 2j], [3.0, -1j]]) / divisor
