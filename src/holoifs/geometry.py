"""Hyperbolic geometry on disks and slit planes, Koebe distortion bounds.

Metric normalization: the unit disk carries the density ``|dz|/(1-|z|^2)``
(curvature -4), so the distance from 0 to ``t`` along a radius is
``artanh(t)``.  All other domains inherit the metric through conformal
transport.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotReal, OnSlit, OutsideDomain
from .maps import Disk, circle
from .tolerances import ATANH_CLAMP, REAL_TOL


def _to_unit(disk: Disk, z: complex) -> complex:
    w = (complex(z) - disk.center) / disk.radius
    if abs(w) >= 1.0:
        raise OutsideDomain(f"point {z} not inside the disk")
    return w


def pseudo_hyperbolic(w1, w2):
    """Pseudo-hyperbolic distance ``tanh(d)`` between points of the unit disk.

    Takes complex scalars or broadcastable arrays.
    """
    return abs((w1 - w2) / (1.0 - w1.conjugate() * w2))


def hyp_dist_disk(disk: Disk, z1: complex, z2: complex) -> float:
    """Hyperbolic distance between two points of a round disk."""
    return math.atanh(pseudo_hyperbolic(_to_unit(disk, z1), _to_unit(disk, z2)))


def pseudo_hyperbolic_ball(w, t):
    """Euclidean ``(centre, radius)`` of the pseudo-hyperbolic ``t``-ball about ``w``.

    The ball ``{v : pseudo_hyperbolic(w, v) <= t}`` of the unit disk is a
    round disk (exact Moebius transport), for ``|w| < 1`` and ``0 <= t < 1``.
    Takes a complex scalar or an array of points.
    """
    denom = 1.0 - t * t * abs(w) ** 2
    return w * (1.0 - t * t) / denom, t * (1.0 - abs(w) ** 2) / denom


def hyp_ball_disk(disk: Disk, center: complex, rho: float) -> Disk:
    """The hyperbolic ball as a Euclidean disk (exact Moebius transport)."""
    if rho <= 0:
        raise ValueError("hyperbolic radius must be positive")
    w0 = _to_unit(disk, center)
    euclid_center, euclid_radius = pseudo_hyperbolic_ball(w0, math.tanh(rho))
    return Disk(disk.center + disk.radius * euclid_center, disk.radius * euclid_radius)


def hyp_ball_inradius(disk: Disk, points, rho: float):
    """Radius of the largest round disk about each point inside its ``rho``-ball.

    The hyperbolic ball about ``z`` is a Euclidean disk (see
    :func:`hyp_ball_disk`); the returned radius is the distance from ``z``
    to its boundary.  Takes a complex scalar or an array of points.
    """
    t = math.tanh(rho)
    w = np.abs(points - disk.center) / disk.radius
    return disk.radius * (t * (1.0 - w * w) / (1.0 + t * w))


@dataclass(frozen=True)
class PoincareDomain:
    """Lens-shaped neighborhood of a real interval.

    Bounded by two circular arcs through the endpoints, each meeting the
    real axis at angle ``theta``.  At ``theta = pi/2`` this is the round
    disk over the interval.
    """

    a: float
    b: float
    theta: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)) or self.a >= self.b:
            raise ValueError("need a finite interval with a < b")
        if not 0.0 < self.theta < math.pi:
            raise ValueError("theta must lie in (0, pi)")

    @property
    def half_length(self) -> float:
        return 0.5 * (self.b - self.a)

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.a + self.b)

    @property
    def circle_radius(self) -> float:
        return self.half_length / math.sin(self.theta)

    @property
    def upper_center(self) -> complex:
        offset = self.half_length * math.cos(self.theta) / math.sin(self.theta)
        return complex(self.midpoint, -offset)

    @property
    def lower_center(self) -> complex:
        return self.upper_center.conjugate()

    def margin(self, z: complex) -> float:
        """How far inside the lens ``z`` lies; positive exactly when it is inside.

        Off the axis, the arc's circle radius minus the distance to its
        centre, for the arc on ``z``'s side; on the axis, the distance to the
        nearer endpoint.
        """
        z = complex(z)
        if z.imag > 0:
            return self.circle_radius - abs(z - self.upper_center)
        if z.imag < 0:
            return self.circle_radius - abs(z - self.lower_center)
        return min(z.real - self.a, self.b - z.real)

    def contains(self, z: complex) -> bool:
        return self.margin(z) > 0.0

    def boundary(self, n: int = 128) -> np.ndarray:
        """``2n`` boundary samples, both arcs, endpoints excluded."""
        phi = np.pi / 2 - self.theta + 2 * self.theta * (np.arange(1, n + 1) / (n + 1))
        upper = self.upper_center + self.circle_radius * np.exp(1j * phi)
        return np.concatenate((upper, np.conj(upper)))


def poincare_domain(interval: tuple[float, float], theta: float) -> PoincareDomain:
    return PoincareDomain(float(interval[0]), float(interval[1]), float(theta))


def _slit_to_unit(interval: tuple[float, float], z: complex) -> complex:
    """Uniformize the slit plane to the unit disk.

    The plane minus the two real rays maps through arcsin to a vertical
    strip, then to the right half-plane, then to the disk; the interval
    itself lands on the imaginary diameter.
    """
    a, b = float(interval[0]), float(interval[1])
    if not (math.isfinite(a) and math.isfinite(b)) or a >= b:
        raise ValueError("need a finite interval with a < b")
    z = complex(z)
    if z.imag == 0.0 and (z.real <= a or z.real >= b):
        raise OnSlit(f"point {z} lies on the removed rays")
    zp = (2.0 * z - (a + b)) / (b - a)
    u = cmath.exp(1j * cmath.asin(zp))
    return (u - 1.0) / (u + 1.0)


def hyp_dist_slit(interval: tuple[float, float], z: complex) -> float:
    """Hyperbolic distance from ``z`` to the interval inside the slit plane.

    After uniformization the interval is the imaginary diameter, a geodesic;
    the pseudo-hyperbolic distance from ``w`` to it is the closed form
    ``2|Re w| / (q + hypot(q, 2 Re w))`` with ``q = 1 - |w|^2``.
    """
    w = _slit_to_unit(interval, z)
    q = 1.0 - abs(w) ** 2
    p = 2.0 * abs(w.real) / (q + math.hypot(q, 2.0 * w.real))
    return math.atanh(min(p, 1.0 - ATANH_CLAMP))


def kappa(theta: float) -> float:
    """Distance level whose sublevel set is the lens of angle ``theta``.

    Computed as the slit-plane distance from the lens apex to the interval;
    strictly increasing in ``theta`` with ``kappa(0+) = 0``.
    """
    if not 0.0 < theta < math.pi:
        raise ValueError("theta must lie in (0, pi)")
    apex = 1j * math.tan(0.5 * theta)
    return hyp_dist_slit((-1.0, 1.0), apex)


def koebe_bounds(radius: float, t: float, deriv0: complex) -> tuple[float, float]:
    """Image disk sandwich for a univalent map of ``B(0, radius)``.

    For ``phi`` univalent on the disk, the image of the sub-disk of relative
    radius ``t`` contains the round disk of the first returned radius about
    ``phi(0)`` and is contained in the round disk of the second.
    """
    if not 0.0 < t < 1.0:
        raise ValueError("relative radius t must lie in (0, 1)")
    if radius <= 0:
        raise ValueError("radius must be positive")
    scale = radius * abs(deriv0)
    return (0.25 * t * scale, t / (1.0 - t) ** 2 * scale)


def koebe_distortion(t: float) -> tuple[float, float]:
    """Bounds on ``|phi'(z)/phi'(0)|`` for univalent ``phi`` on the unit disk, ``|z| <= t``.

    Returns ``(shrink, expand)``; the Koebe function attains both at ``z = -t``
    and ``z = t``.
    """
    return (1.0 - t) / (1.0 + t) ** 3, (1.0 + t) / (1.0 - t) ** 3


def distortion_ratio_bound(s: float) -> float:
    """Bound on ``|phi'(z1)/phi'(z2)|`` over the sub-disk of relative radius ``s``."""
    if not 0.0 <= s < 1.0:
        raise ValueError("relative radius s must lie in [0, 1)")
    return ((1.0 + s) / (1.0 - s)) ** 4


def check_sull_containment(
    g,
    v: Disk,
    interval: tuple[float, float],
    theta: float,
    theta_prime: float,
    n: int = 256,
) -> tuple[bool, float]:
    """Whether ``g`` maps the lens over ``interval`` into the lens over ``g(interval)``.

    ``g`` must commute with conjugation (be real) on ``v``; the containment
    is certified on sampled lens boundary points with a signed margin
    (positive means strictly inside).
    """
    a, b = float(interval[0]), float(interval[1])
    source = PoincareDomain(a, b, theta)

    # realness: g(conj z) == conj(g z) on a sample of v
    radii = v.radius * np.array([0.25, 0.55, 0.85])
    probe = circle(complex(v.center).real, radii, 32).ravel()
    mirror_err = np.abs(np.conj([complex(g(complex(z))) for z in probe]) -
                        [complex(g(complex(z).conjugate())) for z in probe])
    if float(np.max(mirror_err)) > REAL_TOL * max(1.0, float(np.max(np.abs(probe)))):
        raise NotReal("map does not commute with conjugation on the domain")

    boundary = source.boundary(n)
    if any(abs(p - v.center) >= v.radius for p in boundary):
        raise DomainError("lens closure is not contained in the map's domain disk")

    ga, gb = complex(g(complex(a))).real, complex(g(complex(b))).real
    target = PoincareDomain(min(ga, gb), max(ga, gb), theta_prime)

    margin = math.inf
    for p in boundary:
        margin = min(margin, target.margin(complex(g(complex(p)))))
    return margin > 0.0, margin
