"""Holomorphic map algebra: disks, words, contraction systems.

All maps act on complex scalars or complex numpy arrays interchangeably.
The variant set is deliberately closed (affine maps, inverse square-root
branches, compositions, inverses) so that every operation -- evaluation,
derivative, inversion, certified disk enclosure -- has a closed form.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from . import _series
from .errors import DomainError, NonInvertible, NotInImage, SingularDerivative

#: relative tolerance for inversion round-trip verification
INVERT_RTOL = 1e-12

#: derivative magnitudes below this cannot be reciprocated meaningfully
DERIV_FLOOR = 1e-300

#: number of boundary samples used to certify domain containment
BOUNDARY_SAMPLES = 256

#: minimal margin by which map images must stay inside the domain disk
CONTAINMENT_MARGIN = 1e-9


def _sqrt(z):
    """Principal square root for complex scalars and arrays."""
    if isinstance(z, np.ndarray):
        return np.sqrt(z.astype(np.complex128, copy=False))
    return cmath.sqrt(z)


def _is_finite_complex(z: complex) -> bool:
    return math.isfinite(z.real) and math.isfinite(z.imag)


@dataclass(frozen=True)
class Disk:
    """Open round disk ``{z : |z - center| < radius}``."""

    center: complex
    radius: float

    def __post_init__(self):
        center = complex(self.center)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", float(self.radius))
        if not _is_finite_complex(center) or not math.isfinite(self.radius):
            raise ValueError("disk parameters must be finite")
        if self.radius <= 0:
            raise ValueError("disk radius must be positive")

    @property
    def diameter(self) -> float:
        return 2.0 * self.radius

    def boundary(self, n: int = BOUNDARY_SAMPLES) -> np.ndarray:
        """``n`` equispaced points on the boundary circle."""
        angles = 2.0 * np.pi * np.arange(n) / n
        return self.center + self.radius * np.exp(1j * angles)


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

    * ``__call__(z)``, ``deriv(z)`` and ``invert(y)``: value, derivative and
      preimage, on complex scalars or arrays;
    * ``inverse()``: the closed-form inverse map, again a family member;
    * ``enclosure_arrays(centers, radii)``: disks certified to contain the
      images of many disks at once;
    * ``taylor(point, order)``: the image of ``point`` and the Taylor
      coefficients ``c_1..c_order`` there;
    * ``meets_branch_cut(disk)``: whether the cut of any square-root factor
      meets ``disk``.
    """

    def __call__(self, z):
        raise NotImplementedError

    def deriv(self, z):
        raise NotImplementedError

    def invert(self, y):
        raise NotImplementedError

    def inverse(self) -> "HoloMap":
        """Closed-form inverse map within the variant family."""
        raise NotImplementedError

    def enclosure_arrays(self, centers: np.ndarray, radii: np.ndarray):
        """Centers and radii of disks containing the images of the given disks."""
        raise NotImplementedError

    def taylor(self, point: complex, order: int) -> tuple[complex, np.ndarray]:
        """Image value and centered coefficients ``c_1..c_order`` at ``point``."""
        raise NotImplementedError

    def meets_branch_cut(self, disk: Disk) -> bool:
        """Whether the cut of any square-root factor meets ``disk``."""
        raise NotImplementedError

    def image_enclosure(self, disk: Disk) -> Disk:
        """A disk certified to contain the image of ``disk``."""
        centers, radii = self.enclosure_arrays(
            np.array([disk.center], dtype=np.complex128),
            np.array([disk.radius], dtype=np.float64),
        )
        return Disk(complex(centers[0]), float(radii[0]))

    def _verify_roundtrip(self, x, y):
        scale = np.maximum(1.0, np.abs(y)) if isinstance(y, np.ndarray) else max(1.0, abs(y))
        err = np.abs(self(x) - y) if isinstance(y, np.ndarray) else abs(self(x) - y)
        if np.any(err > INVERT_RTOL * scale):
            raise NotInImage("inversion round-trip failed beyond tolerance")
        return x


@dataclass(frozen=True)
class Affine(HoloMap):
    """``z -> alpha*z + b``."""

    alpha: complex
    b: complex

    def __post_init__(self):
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "b", complex(self.b))
        if not (_is_finite_complex(self.alpha) and _is_finite_complex(self.b)):
            raise ValueError("affine coefficients must be finite")

    def __call__(self, z):
        return self.alpha * z + self.b

    def deriv(self, z):
        if isinstance(z, np.ndarray):
            return np.full(z.shape, self.alpha, dtype=np.complex128)
        return self.alpha

    def invert(self, y):
        if self.alpha == 0:
            raise SingularDerivative("constant affine map has no inverse")
        return (y - self.b) / self.alpha

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

    def meets_branch_cut(self, disk):
        return False


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
        if not _is_finite_complex(self.c):
            raise ValueError("branch point must be finite")

    def __call__(self, z):
        return self.sign * _sqrt(z - self.c)

    def deriv(self, z):
        root = _sqrt(z - self.c)
        if np.any(np.abs(root) < DERIV_FLOOR):
            raise SingularDerivative("derivative of sqrt branch blows up at the branch point")
        return self.sign / (2.0 * root)

    def invert(self, y):
        # the selected branch only produces values with Re(sign*y) >= 0
        w = self.sign * y
        scale = np.maximum(1.0, np.abs(w)) if isinstance(w, np.ndarray) else max(1.0, abs(w))
        bad = np.real(w) < -INVERT_RTOL * scale
        if np.any(bad):
            raise NotInImage("value not in the range of this square-root branch")
        return self._verify_roundtrip(y * y + self.c, y)

    def inverse(self) -> "_SqrtBranchInverse":
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

    def meets_branch_cut(self, disk):
        # distance from the disk's center to the cut ray
        v = disk.center - self.c
        t = max(0.0, -v.real)
        return abs(v - complex(-t, 0.0)) <= disk.radius


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

    def invert(self, y):
        for f in self.factors:
            y = f.invert(y)
        return y

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

    def meets_branch_cut(self, disk):
        return any(f.meets_branch_cut(disk) for f in self.factors)


@dataclass(frozen=True)
class _SqrtBranchInverse(HoloMap):
    """``y -> y^2 + c`` restricted to the branch half-plane of ``branch``."""

    branch: SqrtBranch

    def __call__(self, z):
        return self.branch.invert(z)

    def deriv(self, z):
        return 2.0 * z

    def invert(self, y):
        return self.branch(y)

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

    def meets_branch_cut(self, disk):
        return False


def inverse_map(m: HoloMap) -> HoloMap:
    """Closed-form inverse of ``m`` within the variant family."""
    return m.inverse()


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
    containing square-root branches the branch cut must avoid the domain,
    which also guarantees injectivity of each member on the disk.  A map
    whose derivative vanishes at the domain centre is rejected, since it is
    not injective there (a constant map, for one).
    """

    maps: tuple[HoloMap, ...]
    domain: Disk
    labels: tuple[str, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "maps", tuple(self.maps))
        if not self.maps:
            raise ValueError("a system needs at least one map")
        if self.labels and len(self.labels) != len(self.maps):
            raise ValueError("label count must match map count")
        boundary = self.domain.boundary(BOUNDARY_SAMPLES)
        for k, g in enumerate(self.maps):
            if g.meets_branch_cut(self.domain):
                raise DomainError(f"map {k}: square-root branch cut meets the domain disk")
            if abs(complex(g.deriv(self.domain.center))) < DERIV_FLOOR:
                raise DomainError(f"map {k}: derivative vanishes at the domain centre")
            image = g(boundary)
            margin = self.domain.radius - float(np.max(np.abs(image - self.domain.center)))
            if margin <= CONTAINMENT_MARGIN:
                raise DomainError(
                    f"map {k} does not send the domain strictly into itself "
                    f"(boundary margin {margin:.3e})"
                )

    def __len__(self) -> int:
        return len(self.maps)


def compose_word(system: IfsSystem, word: Word) -> HoloMap:
    """The map ``g_w`` for a composition word over ``system``'s alphabet."""
    if word.alphabet_size != len(system.maps):
        raise IndexError(
            f"word alphabet size {word.alphabet_size} does not match "
            f"system with {len(system.maps)} maps"
        )
    return compose_maps(system.maps[i] for i in word.indices)
