"""Power-series germs, Koenigs linearization, and functional roots.

A germ here is a truncated power series with zero constant term — a
holomorphic map fixing the origin.  Taylor data for the map variants comes
from each map class's exact ``taylor`` rule (composites chain their factors
through series composition), so germ extraction needs no numerical
differentiation.

The linearizer of a germ ``R`` with multiplier ``0 < |lambda| < 1`` is the
normalized parametrization ``psi`` with ``R(psi(w)) = psi(lambda * w)`` and
``psi'(0) = 1``.  Compositional l-th roots of ``R`` are conjugates of the
l-th roots of ``lambda``: ``g = psi ∘ (nu·) ∘ psi^{-1}``.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _series
from .errors import InvalidMultiplier, NoConvergence, NonInvertible, NotAFixedPoint
from .maps import HoloMap, circle
from .tolerances import ROOT_RESIDUAL_TOL, SERIES_FIXED_POINT_TOL

#: default truncation order (coefficients c_1 .. c_ORDER)
ORDER = 32

#: geometric ratio used to pick a safe sampling radius
_SAMPLE_RATIO = 0.25


@dataclass(frozen=True, eq=False)
class PowerSeriesGerm:
    """Truncated series ``c_1 z + c_2 z^2 + ...`` of a map fixing 0."""

    coefficients: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coefficients, dtype=np.complex128).reshape(-1)
        if arr.size == 0:
            raise ValueError("a germ needs at least its linear coefficient")
        object.__setattr__(self, "coefficients", arr)

    @property
    def order(self) -> int:
        return len(self.coefficients)

    @property
    def multiplier(self) -> complex:
        return complex(self.coefficients[0])

    @property
    def _growth(self) -> float:
        """``max_k |c_k|^{1/k}``, the geometric growth of the coefficients."""
        mags = np.abs(self.coefficients)
        ks = np.arange(1, self.order + 1)
        return float(np.max(mags ** (1.0 / ks))) if np.any(mags > 0) else 0.0

    @property
    def sample_radius(self) -> float:
        """Radius where the truncation tail is provably negligible.

        With growth ``g = max_k |c_k|^{1/k}`` the terms at radius
        ``0.25 / g`` are dominated by ``0.25^k``, so the tail past the
        truncation order is below 1e-10.
        """
        return _SAMPLE_RATIO / max(1.0, self._growth)

    def tail_bound(self, radius: float) -> float:
        """Crude geometric bound on the dropped tail at ``radius``."""
        q = self._growth * radius
        if q >= 1.0:
            return math.inf
        return q ** (self.order + 1) / (1.0 - q)

    def __call__(self, z):
        coeffs = np.concatenate((self.coefficients[::-1], [0.0]))
        return np.polyval(coeffs, z)

    def _full(self) -> np.ndarray:
        return np.concatenate(([0.0], self.coefficients))

    def compose(self, inner: "PowerSeriesGerm") -> "PowerSeriesGerm":
        """Series of ``self ∘ inner`` truncated at the smaller order."""
        n = min(self.order, inner.order)
        out = _series.compose(self._full()[: n + 1], inner._full()[: n + 1], n)
        return PowerSeriesGerm(out[1:])

    def inverse(self) -> "PowerSeriesGerm":
        if self.coefficients[0] == 0:
            raise NonInvertible("zero linear coefficient")
        out = _series.reversion(self._full(), self.order)
        return PowerSeriesGerm(out[1:])

    def iterate(self, l: int) -> "PowerSeriesGerm":
        if l < 1:
            raise ValueError("iterate needs l >= 1")
        out = self
        for _ in range(l - 1):
            out = out.compose(self)
        return out

    def scaled(self, factor: complex) -> "PowerSeriesGerm":
        """Germ of ``z -> self(factor * z)``."""
        ks = np.arange(1, self.order + 1)
        return PowerSeriesGerm(self.coefficients * np.power(complex(factor), ks))


def series_of_map(m: HoloMap, point: complex, order: int = ORDER) -> PowerSeriesGerm:
    """Centered Taylor germ of ``m`` at a fixed point.

    The germ represents ``z -> m(point + z) - point``; the point must be
    fixed within ``SERIES_FIXED_POINT_TOL`` so the constant term genuinely vanishes.
    """
    value, coeffs = m.taylor(point, order)
    if abs(value - complex(point)) > SERIES_FIXED_POINT_TOL:
        raise NotAFixedPoint(
            f"map moves {point} to {value}; germ extraction needs a fixed point"
        )
    return PowerSeriesGerm(coeffs)


def koenigs(germ: PowerSeriesGerm) -> PowerSeriesGerm:
    """Normalized linearizing parametrization of an attracting germ.

    Returns ``psi`` with ``germ(psi(w)) = psi(multiplier * w)`` and
    ``psi'(0) = 1``, solving coefficient by coefficient; the divisor
    ``lambda^n - lambda`` never vanishes for ``0 < |lambda| < 1``.  A
    coefficient that overflows raises :class:`NoConvergence` naming its degree.
    """
    lam = germ.multiplier
    if not 0.0 < abs(lam) < 1.0:
        raise InvalidMultiplier(f"need 0 < |multiplier| < 1, got |{lam}| = {abs(lam)}")
    if abs(lam) > 0.9:
        warnings.warn(
            "multiplier close to 1; linearization coefficients may be ill-conditioned",
            stacklevel=2,
        )
    n = germ.order
    r = germ._full()
    psi = np.zeros(n + 1, dtype=np.complex128)
    psi[1] = 1.0
    # an overflow shows as a non-finite coefficient, which ends the solve
    with np.errstate(over="ignore", invalid="ignore"):
        for deg in range(2, n + 1):
            # psi[deg] is still zero here, so the composition collects exactly
            # the lower-order contributions C with lam*b + C = lam^deg * b
            c = _series.compose(r, psi, deg)[deg]
            psi[deg] = c / (lam**deg - lam)
            if not np.isfinite(psi[deg]):
                raise NoConvergence(f"Koenigs coefficient of degree {deg} is not finite")
    return PowerSeriesGerm(psi[1:])


def composition_residual(
    g: PowerSeriesGerm, l: int, target: PowerSeriesGerm, samples: int = 64
) -> float:
    """Max of ``|g^l - target|`` over a circle inside both sample radii."""
    radius = 0.5 * min(g.sample_radius, target.sample_radius)
    z = circle(0.0, radius, samples)
    w = z.copy()
    for _ in range(l):
        w = g(w)
    return float(np.max(np.abs(w - target(z))))


def functional_roots(germ: PowerSeriesGerm, l: int) -> tuple[PowerSeriesGerm, ...]:
    """All ``l`` compositional roots ``g`` with ``g^l = germ`` and ``g(0) = 0``.

    The root multipliers are the l-th roots of the germ multiplier, listed
    principal first and then counterclockwise.  Each candidate is verified
    by composing it back; a residual above ``ROOT_RESIDUAL_TOL``, or NaN, aborts.
    """
    if l < 1:
        raise ValueError("root order must be at least 1")
    lam = germ.multiplier
    if not 0.0 < abs(lam) < 1.0:
        raise InvalidMultiplier(f"need 0 < |multiplier| < 1, got |{lam}| = {abs(lam)}")
    psi = koenigs(germ)
    psi_inv = psi.inverse()
    base_mod = abs(lam) ** (1.0 / l)
    base_arg = cmath.phase(lam)
    roots = []
    for r in range(l):
        nu = base_mod * cmath.exp(1j * (base_arg + 2.0 * math.pi * r) / l)
        g = psi.scaled(nu).compose(psi_inv)
        res = composition_residual(g, l, germ)
        if not res <= ROOT_RESIDUAL_TOL:  # a NaN residual fails too
            raise NoConvergence(
                f"root candidate {r} fails verification (residual {res:.3e})"
            )
        roots.append(g)
    return tuple(roots)
