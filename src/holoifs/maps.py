"""Holomorphic map algebra: disks, words, contraction systems.

All maps act on complex scalars or complex numpy arrays interchangeably.
The variant set is deliberately closed (affine maps, inverse square-root
branches, compositions, inverses) so that every operation -- evaluation,
derivative, inversion, certified disk enclosure -- has a closed form.

Each variant has one formula per operation, and the operand picks the
arithmetic: CPython's on a scalar; numpy's on an array, as at the sites that
feed the pinned reports (nets, images, samples), where complex ``*``, ``abs``
and ``sqrt`` may differ from CPython's in the last bit; and on an
:class:`Exact` array, for rows that stand for scalars, CPython's own complex
``*``, ``/`` and ``cmath.sqrt`` on each row, so the bits of each row's scalar
evaluation.  :func:`map_rows` evaluates a different map on each
row of an array, factor position by factor position.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _series
from .errors import DomainError, NonInvertible, NotInImage, SingularDerivative
from .tolerances import CONTAINMENT_MARGIN, DERIV_FLOOR, INVERT_RTOL

#: number of boundary samples used to certify domain containment
CONTAINMENT_SAMPLES = 256


def _sqrt(z):
    """Principal square root for complex scalars and arrays."""
    if isinstance(z, np.ndarray):
        return np.sqrt(z.astype(np.complex128, copy=False))
    return cmath.sqrt(z)


# ---------------------------------------------------------------------------
# the exact kernel: complex arrays that round as CPython's complex scalars


def _per_row(op, nin: int):
    """``op`` of CPython applied to each row: by construction, the bits of the scalar operation."""
    rows = np.frompyfunc(op, nin, 1)
    return lambda *args: np.asarray(rows(*args), dtype=np.complex128)


def modulus(z):  # _Py_c_abs
    """``|z|`` of a complex array, rounded as the built-in ``abs()`` of a complex scalar."""
    return np.hypot(z.real, z.imag)


def circle(centers, radii, n: int) -> np.ndarray:
    """``n`` equispaced points on each circle, one row per centre and radius (broadcast)."""
    angles = 2.0 * np.pi * np.arange(n) / n
    return np.asarray(centers)[..., None] + np.asarray(radii)[..., None] * np.exp(1j * angles)


_KERNELS = {np.multiply: _per_row(operator.mul, 2), np.divide: _per_row(operator.truediv, 2),
            np.sqrt: _per_row(cmath.sqrt, 1), np.absolute: modulus}


class Exact(np.ndarray):
    """Complex array whose ``*``, ``/``, ``abs`` and ``sqrt`` round as CPython's complex scalars.

    Numpy's complex loops may fuse or reorder these four.  Here ``*``, ``/``
    and ``sqrt`` are CPython's own ``operator.mul``, ``operator.truediv`` and
    ``cmath.sqrt``, applied to each row with its operands as Python objects
    (so a real operand widens as Python widens it, and a zero divisor raises
    ``ZeroDivisionError``); ``abs`` is :func:`modulus`, whose overflow is inf
    where Python raises.  The other ufuncs, ``+`` and ``-`` among them, are
    numpy's.  So a map evaluated on ``z.view(Exact)`` gives each row the bits
    of its scalar evaluation.
    """

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        args = [x.view(np.ndarray) if isinstance(x, Exact) else x for x in inputs]
        kernel = _KERNELS.get(ufunc) if method == "__call__" else None
        if kernel and any(np.iscomplexobj(x) for x in args):
            if kwargs:
                raise TypeError(f"{ufunc.__name__} on an Exact array takes no keywords")
            out = kernel(*args)
        else:
            out = getattr(ufunc, method)(*args, **kwargs)
        return out.view(Exact) if isinstance(out, np.ndarray) and out.dtype.kind == "c" else out


@dataclass(frozen=True)
class Disk:
    """Open round disk ``{z : |z - center| < radius}``."""

    center: complex
    radius: float

    def __post_init__(self):
        center = complex(self.center)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", float(self.radius))
        if not cmath.isfinite(center) or not math.isfinite(self.radius):
            raise ValueError("disk parameters must be finite")
        if self.radius <= 0:
            raise ValueError("disk radius must be positive")

    @property
    def diameter(self) -> float:
        return 2.0 * self.radius

    def boundary(self, n: int = CONTAINMENT_SAMPLES) -> np.ndarray:
        """``n`` equispaced points on the boundary circle."""
        return circle(self.center, self.radius, n)


@dataclass(frozen=True)
class Word:
    """Finite composition word over map indices ``0 .. alphabet_size-1``.

    ``indices[0]`` is the outermost map: the word ``(0, 1)`` denotes the
    composition "map 0 after map 1".  The empty word is the identity.
    """

    indices: tuple[int, ...]
    alphabet_size: int

    def __post_init__(self):
        indices = tuple(map(int, self.indices))
        object.__setattr__(self, "indices", indices)
        if self.alphabet_size < 1:
            raise ValueError("alphabet size must be at least 1")
        if indices and (min(indices) < 0 or max(indices) >= self.alphabet_size):
            bad = next(i for i in indices if not 0 <= i < self.alphabet_size)
            raise IndexError(f"letter {bad} outside alphabet of size {self.alphabet_size}")

    def __len__(self) -> int:
        return len(self.indices)

    def __add__(self, other: "Word") -> "Word":
        if self.alphabet_size != other.alphabet_size:
            raise ValueError("cannot concatenate words over different alphabets")
        return Word(self.indices + other.indices, self.alphabet_size)

    def __mul__(self, k: int) -> "Word":
        return Word(self.indices * k, self.alphabet_size)

    def starts_with(self, prefix: "Word") -> bool:
        return self.indices[: len(prefix)] == prefix.indices


class HoloMap:
    """Base class for the closed family of holomorphic maps.

    Each variant is one class that supplies every per-variant rule:

    * ``__call__(z)`` and ``deriv(z)``: value and derivative, on complex
      scalars or arrays;
    * ``inverse()``: the closed-form inverse map, again a family member, and
      the one inversion rule: a preimage is ``g.inverse()(y)``;
    * ``enclosure_arrays(centers, radii)``: disks certified to contain the
      images of many disks at once; an ``Affine`` or ``SqrtBranch``
      enclosure is centred at the centre's image and has radius ``sup |f'|``
      on the disk times its radius, so a chain of them bounds the derivative
      of a composition (a square-root branch's inverse bounds only the
      image);
    * ``taylor(point, order)``: the image of ``point`` and the Taylor
      coefficients ``c_1..c_order`` there.
    """


@dataclass(frozen=True)
class Affine(HoloMap):
    """``z -> alpha*z + b``."""

    alpha: complex
    b: complex

    def __post_init__(self):
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "b", complex(self.b))
        if not (cmath.isfinite(self.alpha) and cmath.isfinite(self.b)):
            raise ValueError("affine coefficients must be finite")

    def __call__(self, z):
        return self.alpha * z + self.b

    def deriv(self, z):
        if isinstance(z, np.ndarray):
            return np.full_like(z, self.alpha, dtype=np.complex128)
        return self.alpha

    def inverse(self) -> "Affine":
        if self.alpha == 0:
            raise SingularDerivative("constant affine map has no inverse")
        return Affine(1.0 / self.alpha, -self.b / self.alpha)

    def enclosure_arrays(self, centers, radii):
        return self.alpha * centers + self.b, abs(self.alpha) * radii

    def taylor(self, point, order):
        point = complex(point)
        coeffs = np.zeros(order, dtype=np.complex128)
        coeffs[0] = self.alpha
        return self.alpha * point + self.b, coeffs


@dataclass(frozen=True)
class SqrtBranch(HoloMap):
    """``z -> sign * principal_sqrt(z - c)``, an inverse branch of ``z^2 + c``.

    The branch point sits at ``z = c`` and the principal cut extends from it
    along the ray ``c - t`` for ``t >= 0``.
    """

    c: complex
    sign: int

    def __post_init__(self):
        object.__setattr__(self, "c", complex(self.c))
        object.__setattr__(self, "sign", int(self.sign))
        if self.sign not in (-1, 1):
            raise ValueError("sign must be +1 or -1")
        if not cmath.isfinite(self.c):
            raise ValueError("branch point must be finite")

    def __call__(self, z):
        return self.sign * _sqrt(z - self.c)

    def deriv(self, z):
        root = _sqrt(z - self.c)
        if np.any(abs(root) < DERIV_FLOOR):
            raise SingularDerivative("derivative of sqrt branch blows up at the branch point")
        return self.sign / (2.0 * root)

    def inverse(self) -> "_SqrtBranchInverse":
        return self._inverse

    @cached_property
    def _inverse(self) -> "_SqrtBranchInverse":  # one object, so map_rows batches its rows
        return _SqrtBranchInverse(self)

    def enclosure_arrays(self, centers, radii):
        v = centers - self.c
        cut_dist = np.abs(v - np.minimum(v.real, 0.0))
        if np.any(cut_dist <= radii):
            raise DomainError("disk meets a square-root branch cut")
        d = np.abs(v)
        # max of |1/(2 sqrt(z-c))| over each disk
        bound = 0.5 / np.sqrt(d - radii)
        return self.sign * np.sqrt(v), bound * radii

    def taylor(self, point, order):
        u0 = complex(self(complex(point)))
        if u0 == 0:
            raise NonInvertible("expansion at the branch point")
        coeffs = np.zeros(order, dtype=np.complex128)
        c = u0
        for k in range(1, order + 1):
            c = c * ((1.5 - k) / k) / (u0 * u0)
            coeffs[k - 1] = c
        return u0, coeffs


@dataclass(frozen=True)
class Composite(HoloMap):
    """Composition ``factors[0] o factors[1] o ... o factors[-1]``.

    The last factor acts first, matching the word convention.
    """

    factors: tuple[HoloMap, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        if not self.factors:
            raise ValueError("composite needs at least one factor")

    def __call__(self, z):
        for f in reversed(self.factors):
            z = f(z)
        return z

    def deriv(self, z):
        total = 1.0 + 0.0j
        for f in reversed(self.factors):
            total = total * f.deriv(z)
            z = f(z)
        return total

    def inverse(self) -> "Composite":
        return Composite(tuple(f.inverse() for f in reversed(self.factors)))

    def enclosure_arrays(self, centers, radii):
        for f in reversed(self.factors):
            centers, radii = f.enclosure_arrays(centers, radii)
        return centers, radii

    def taylor(self, point, order):
        value = point
        full = None
        for factor in reversed(self.factors):
            value, coeffs = factor.taylor(value, order)
            layer = np.concatenate(([0.0], coeffs))
            full = layer if full is None else _series.compose(layer, full, order)
        return value, full[1:]


@dataclass(frozen=True)
class _SqrtBranchInverse(HoloMap):
    """``y -> y^2 + c`` restricted to the branch half-plane of ``branch``."""

    branch: SqrtBranch

    def __call__(self, y):
        # the branch only produces values with Re(sign*y) >= 0
        w = self.branch.sign * y
        if np.any(w.real < -INVERT_RTOL * np.maximum(1.0, abs(w))):
            raise NotInImage("value not in the range of this square-root branch")
        x = y * y + self.branch.c
        if np.any(abs(self.branch(x) - y) > INVERT_RTOL * np.maximum(1.0, abs(y))):
            raise NotInImage("inversion round-trip failed beyond tolerance")
        return x

    def deriv(self, z):
        return 2.0 * z

    def inverse(self) -> SqrtBranch:
        return self.branch

    def enclosure_arrays(self, centers, radii):
        return centers * centers + self.branch.c, (2.0 * np.abs(centers) + radii) * radii

    def taylor(self, point, order):
        point = complex(point)
        coeffs = np.zeros(order, dtype=np.complex128)
        coeffs[0] = 2.0 * point
        if order > 1:
            coeffs[1] = 1.0
        return complex(self(point)), coeffs


def compose_maps(factors) -> HoloMap:
    """Compose maps (outermost first), simplifying all-affine chains.

    The empty composition is the identity ``Affine(1, 0)``.
    """
    flat: list[HoloMap] = []
    for f in factors:
        if isinstance(f, Composite):
            flat.extend(f.factors)
        else:
            flat.append(f)
    if all(isinstance(f, Affine) for f in flat):
        alpha, b = 1.0 + 0.0j, 0.0 + 0.0j
        for f in flat:
            alpha, b = alpha * f.alpha, alpha * f.b + b
        return Affine(alpha, b)
    if len(flat) == 1:
        return flat[0]
    return Composite(tuple(flat))


@dataclass(frozen=True)
class IfsSystem:
    """Finite system of holomorphic contractions of a disk into itself.

    Construction verifies, by sampling the boundary circle, that each map
    sends the closed domain disk strictly inside the open disk.  For maps
    containing square-root branches each cut must avoid the image of the
    domain under the factors inside it (the disks of ``enclosure_arrays``,
    which the first net refinement meets too), which also guarantees
    injectivity of each member on the disk.  A map whose derivative vanishes
    at the domain centre is rejected, since it is not injective there (a
    constant map, for one).
    """

    maps: tuple[HoloMap, ...]
    domain: Disk

    def __post_init__(self):
        object.__setattr__(self, "maps", tuple(self.maps))
        if not self.maps:
            raise ValueError("a system needs at least one map")
        boundary = self.domain.boundary(CONTAINMENT_SAMPLES)
        center, radius = np.array([self.domain.center]), np.array([self.domain.radius])
        for k, g in enumerate(self.maps):
            try:
                g.enclosure_arrays(center, radius)
            except DomainError as exc:
                raise DomainError(f"map {k}: square-root branch cut meets the domain disk") from exc
            if abs(complex(g.deriv(self.domain.center))) < DERIV_FLOOR:
                raise DomainError(f"map {k}: derivative vanishes at the domain centre")
            image = g(boundary)
            margin = self.domain.radius - float(np.max(np.abs(image - self.domain.center)))
            if margin <= CONTAINMENT_MARGIN:
                raise DomainError(
                    f"map {k} does not send the domain strictly into itself "
                    f"(boundary margin {margin:.3e})"
                )


def compose_word(system: IfsSystem, word: Word) -> HoloMap:
    """The map ``g_w`` for a composition word over ``system``'s alphabet."""
    if word.alphabet_size != len(system.maps):
        raise IndexError(
            f"word alphabet size {word.alphabet_size} does not match "
            f"system with {len(system.maps)} maps"
        )
    return compose_maps(system.maps[i] for i in word.indices)


# ---------------------------------------------------------------------------
# many maps, one row each


def rowwise(fn, z: np.ndarray):
    """``fn(z)`` of a row-by-row ``fn``, and the exception of each row on which it raises.

    If ``fn`` raises on ``z``, it is called on each row alone.  Returns the
    values (NaN on failing rows) and a dict from failing row to exception.
    """
    try:
        return fn(z), {}
    except Exception:
        pass
    out = np.full_like(z, complex(math.nan, math.nan), dtype=np.complex128)
    errors = {}
    for k in range(len(z)):
        try:
            out[k] = fn(z[k:k + 1])[0]
        except Exception as exc:
            errors[k] = exc
    return out, errors


def apply_rows(factors: list, table: np.ndarray, z: np.ndarray, deriv: bool = False,
               d0: np.ndarray | None = None):
    """Carry each row of ``z`` through the factors its row of ``table`` names.

    ``table[i]`` indexes ``factors`` outermost first (-1 names none); the last
    column acts first, as in :class:`Composite`.  The rows that meet one factor
    in one column are evaluated in one call, so each row gets the bits of its
    own chain of calls.  Without ``deriv`` a factor may be any row-wise
    callable (a bound ``deriv`` method, say); with it, the maps' derivatives
    are multiplied into ``d0`` (1 by default) innermost first, as
    ``Composite.deriv`` does; so ``z`` and ``d0`` taken from a call on the
    inner factors resume that call's chain.  A row whose call raises stops and
    keeps the exception (see :func:`rowwise`).  Returns ``(values, derivatives
    or None, errors)``.
    """
    values = z.copy()
    derivs = (np.ones_like(z) if d0 is None else d0.copy()) if deriv else None
    errors: dict = {}
    live = np.ones(len(z), dtype=bool)
    for col in table.T[::-1]:
        for k, f in enumerate(factors):
            rows = (col == k) & live if errors else col == k
            if not rows.any():
                continue
            zr = values[rows]
            d, failed = rowwise(f.deriv, zr) if deriv else (None, {})
            values[rows], called = rowwise(f, zr)
            if deriv:
                derivs[rows] = derivs[rows] * d
            failed = {**called, **failed}  # a derivative's exception comes first
            if failed:
                at = np.flatnonzero(rows)[list(failed)]
                errors.update(zip(at.tolist(), failed.values()))
                live[at] = False
    return values, derivs, errors


def factor_table(maps) -> tuple[list, np.ndarray]:
    """The distinct factors of ``maps`` and each map's row of :func:`apply_rows` indexes.

    A composite is the chain of its factors, any other map one factor.  The
    maps that are one object, as the rows of a sweep that share a cached
    composition are, share one chain, unpacked once.
    """
    distinct: dict = {}
    rows = [distinct.setdefault(id(m), (len(distinct), m))[0] for m in maps]
    chains = [m.factors if isinstance(m, Composite) else (m,) for _, m in distinct.values()]
    flat = [f for chain in chains for f in chain]
    number: dict = {}
    index = [number.setdefault(id(f), len(number)) for f in flat]
    factors = list({id(f): f for f in flat}.values())
    lengths = np.array([len(chain) for chain in chains], dtype=np.intp)
    width = int(lengths.max(initial=0))
    table = np.full((len(chains), width), -1, dtype=np.min_scalar_type(-len(factors) - 1))
    table[np.arange(width) >= width - lengths[:, None]] = index
    return factors, table[rows]


def map_rows(maps, z: np.ndarray, deriv: bool = False, d0: np.ndarray | None = None):
    """:func:`apply_rows` of ``maps[i]`` on row ``i``, with ``d0[i]`` its initial derivative.

    A map of one factor has its derivative multiplied into 1 too, which can
    change only the sign of a zero part.
    """
    return apply_rows(*factor_table(maps), z, deriv, d0)
