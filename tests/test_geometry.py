"""Hyperbolic distances, lens domains, Koebe distortion."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from holoifs.errors import NotReal, OnSlit, OutsideDomain
from holoifs.geometry import (
    PoincareDomain,
    check_sull_containment,
    distortion_ratio_bound,
    hyp_ball_disk,
    hyp_ball_inradius,
    hyp_dist_disk,
    hyp_dist_slit,
    kappa,
    koebe_bounds,
    koebe_distortion,
    poincare_domain,
    pseudo_hyperbolic,
    pseudo_hyperbolic_ball,
)
from holoifs.maps import Affine, Disk

# frozen: distance from 0.5i to (-1, 1) in the slit plane equals the density
# integral along the vertical segment, 0.5 * asinh(0.5)
SLIT_HALF_I = 0.24060591252959443


def test_hyp_dist_disk_unit_cases():
    disk = Disk(0.0, 1.0)
    assert hyp_dist_disk(disk, 0.0, 0.5) == pytest.approx(math.atanh(0.5), abs=1e-14)
    # moebius invariance: rotating both points preserves distance
    rot = complex(math.cos(1.1), math.sin(1.1))
    assert hyp_dist_disk(disk, 0.3 * rot, 0.5j * rot) == pytest.approx(
        hyp_dist_disk(disk, 0.3, 0.5j), abs=1e-13
    )


def test_hyp_dist_disk_scales_with_domain():
    big = Disk(2.0 + 1.0j, 4.0)
    # transporting the configuration to any disk leaves distances unchanged
    d_unit = hyp_dist_disk(Disk(0.0, 1.0), 0.1, 0.4 + 0.2j)
    d_big = hyp_dist_disk(big, big.center + 4 * 0.1, big.center + 4 * (0.4 + 0.2j))
    assert d_big == pytest.approx(d_unit, abs=1e-13)


def test_hyp_dist_disk_outside():
    with pytest.raises(OutsideDomain):
        hyp_dist_disk(Disk(0.0, 1.0), 0.0, 1.5)


def test_hyp_ball_is_the_true_hyperbolic_circle():
    disk = Disk(0.5, 2.0)
    center = -0.3 + 0.4j
    rho = 0.7
    ball = hyp_ball_disk(disk, center, rho)
    # oracle: push the pseudo-hyperbolic circle of radius tanh(rho) forward
    w0 = (center - disk.center) / disk.radius
    t = math.tanh(rho)
    phis = np.exp(2j * np.pi * np.arange(720) / 720)
    w = (w0 + t * phis) / (1.0 + np.conj(w0) * t * phis)
    pts = disk.center + disk.radius * w
    dist = np.abs(pts - ball.center)
    assert float(np.max(np.abs(dist - ball.radius))) <= 1e-10


def test_hyp_ball_at_disk_center():
    ball = hyp_ball_disk(Disk(0.0, 1.0), 0.0, math.atanh(0.5))
    assert ball.center == pytest.approx(0.0, abs=1e-15)
    assert ball.radius == pytest.approx(0.5, abs=1e-12)


def test_hyp_ball_inradius_touches_the_ball():
    rng = np.random.default_rng(20261018)
    disk = Disk(0.3 - 0.2j, 1.7)
    zs = disk.center + disk.radius * 0.95 * np.sqrt(rng.random(40)) * np.exp(
        2j * np.pi * rng.random(40)
    )
    rhos = rng.uniform(0.05, 3.0, 40)
    for z, rho in zip(zs, rhos):
        ball = hyp_ball_disk(disk, complex(z), float(rho))
        r = hyp_ball_inradius(disk, complex(z), float(rho))
        assert abs(complex(z) - ball.center) + r == pytest.approx(ball.radius, abs=1e-12)
    # the array form agrees with the scalar one
    arr = hyp_ball_inradius(disk, zs, 0.7)
    assert arr == pytest.approx([hyp_ball_inradius(disk, complex(z), 0.7) for z in zs], abs=0)


def test_pseudo_hyperbolic_ball_matches_scalar_ball_and_its_boundary_is_at_t():
    rng = np.random.default_rng(20261019)
    w = 0.98 * np.sqrt(rng.random(50)) * np.exp(2j * np.pi * rng.random(50))
    rho = 0.4
    t = math.tanh(rho)
    centers, radii = pseudo_hyperbolic_ball(w, t)
    for wk, ck, rk in zip(w, centers, radii):
        ball = hyp_ball_disk(Disk(0.0, 1.0), complex(wk), rho)
        assert (complex(ck), float(rk)) == pytest.approx((ball.center, ball.radius), abs=1e-15)
        boundary = ck + rk * np.exp(2j * np.pi * np.arange(64) / 64)
        assert np.max(np.abs(pseudo_hyperbolic(wk, boundary) - t)) <= 1e-12


def test_pseudo_hyperbolic_arrays_match_scalars():
    w1 = np.array([0.1 + 0.2j, -0.5j, 0.7])
    w2 = np.array([-0.3 + 0.1j, 0.4 + 0.4j, 0.69])
    arr = pseudo_hyperbolic(w1, w2)
    scalars = [pseudo_hyperbolic(complex(a), complex(b)) for a, b in zip(w1, w2)]
    assert list(arr) == pytest.approx(scalars, abs=1e-15)
    disk = Disk(0.0, 1.0)
    assert math.atanh(arr[0]) == pytest.approx(
        hyp_dist_disk(disk, complex(w1[0]), complex(w2[0])), rel=1e-14
    )


def test_poincare_domain_circle_geometry():
    dom = poincare_domain((0.0, 1.0), math.pi / 4)
    assert dom.circle_radius == pytest.approx(math.sqrt(2) / 2, abs=1e-14)
    assert dom.upper_center == pytest.approx(0.5 - 0.5j, abs=1e-14)
    assert dom.lower_center == pytest.approx(0.5 + 0.5j, abs=1e-14)


def test_poincare_domain_contains():
    assert poincare_domain((-1.0, 1.0), math.pi / 2).contains(0.5j)
    assert not poincare_domain((-1.0, 1.0), 0.01).contains(0.5j)
    thin = poincare_domain((-1.0, 1.0), 0.2)
    assert thin.contains(0.0)
    assert thin.contains(1j * math.tan(0.1) * 0.999)
    assert not thin.contains(1j * math.tan(0.1) * 1.001)
    assert not thin.contains(1.5)


def _arc_rule(dom, z):
    """The upper-arc / lower-arc / axis membership test, written out."""
    if z.imag > 0:
        return abs(z - dom.upper_center) < dom.circle_radius
    if z.imag < 0:
        return abs(z - dom.lower_center) < dom.circle_radius
    return dom.a < z.real < dom.b


@pytest.mark.parametrize("theta", [0.2, math.pi / 2, 2.5])
def test_poincare_domain_margin_is_positive_exactly_inside(theta):
    rng = np.random.default_rng(5)
    dom = PoincareDomain(-0.5, 2.0, theta)
    axis = np.concatenate((np.linspace(-1.0, 2.5, 57), [-0.5, 2.0, np.nextafter(2.0, 0.0)]))
    points = np.concatenate((
        rng.normal(0.75, 1.5, 400) + 1j * rng.normal(0.0, 1.5, 400),
        axis + 0j,
        dom.boundary(64),
        dom.boundary(64) * (1 + 1e-15),
    ))
    for z in points.tolist():
        assert dom.contains(z) == (dom.margin(z) > 0.0) == _arc_rule(dom, z)
    assert dom.margin(0.75) == 1.25
    assert dom.margin(-0.5) == dom.margin(2.0) == 0.0
    z = 0.75 + 1j
    assert dom.margin(z) == dom.circle_radius - abs(z - dom.upper_center)


def test_poincare_domain_boundary_on_circle():
    dom = poincare_domain((0.0, 2.0), 0.8)
    pts = dom.boundary(64)
    upper = pts[pts.imag > 0]
    assert np.allclose(np.abs(upper - dom.upper_center), dom.circle_radius, atol=1e-12)


def test_slit_distance_frozen_value():
    assert hyp_dist_slit((-1.0, 1.0), 0.5j) == pytest.approx(SLIT_HALF_I, abs=1e-9)


def test_slit_distance_density_integral_oracle():
    # the vertical segment from the interval to i*h is a geodesic by symmetry;
    # integrate the slit-plane density 1 / (2 sqrt(1 + y^2)) along it
    for h in (0.25, 0.5, 1.3):
        target, _ = quad(lambda y: 0.5 / math.sqrt(1.0 + y * y), 0.0, h)
        assert hyp_dist_slit((-1.0, 1.0), 1j * h) == pytest.approx(target, abs=1e-9)


def test_slit_distance_grid_minimization_oracle():
    z = 0.4 + 0.7j
    w_mine = hyp_dist_slit((-1.0, 1.0), z)
    # brute force over the geodesic parameter with an independent minimizer
    import cmath

    u = cmath.exp(1j * cmath.asin(z))
    w = (u - 1) / (u + 1)
    s = np.linspace(-1 + 1e-9, 1 - 1e-9, 20001)
    p = np.abs((w - 1j * s) / (1 + 1j * s * w))
    assert w_mine == pytest.approx(math.atanh(float(np.min(p))), abs=1e-6)


def test_slit_distance_affine_invariance():
    # rescaling the interval and the point leaves the distance unchanged
    d1 = hyp_dist_slit((-1.0, 1.0), 0.3 + 0.9j)
    d2 = hyp_dist_slit((2.0, 6.0), 4.0 + 2 * (0.3 + 0.9j))
    assert d2 == pytest.approx(d1, abs=1e-10)


def test_slit_distance_on_interval_is_zero():
    assert hyp_dist_slit((-1.0, 1.0), 0.37) <= 1e-9


def test_slit_distance_on_slit_raises():
    for z in (2.0, -1.0, 1.0, -5.0):
        with pytest.raises(OnSlit):
            hyp_dist_slit((-1.0, 1.0), z)


def test_kappa_monotone_and_vanishing():
    thetas = [(i + 1) / 20 * math.pi / 2 for i in range(20)]
    values = [kappa(t) for t in thetas]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert kappa(1e-4) <= 1e-3


def test_kappa_matches_apex_closed_form():
    for theta in (0.3, math.pi / 4, 1.4):
        assert kappa(theta) == pytest.approx(0.5 * math.asinh(math.tan(theta / 2)), abs=1e-9)


def test_lens_boundary_has_constant_distance():
    dom = poincare_domain((-1.0, 1.0), math.pi / 4)
    values = [hyp_dist_slit((-1.0, 1.0), complex(p)) for p in dom.boundary(25)]
    spread = (max(values) - min(values)) / min(values)
    assert spread <= 1e-6
    assert min(values) == pytest.approx(kappa(math.pi / 4), rel=1e-8)


def test_koebe_bounds_on_koebe_function():
    # z / (1-z)^2 is the extremal univalent map: the outer bound is attained
    for t in (0.1, 0.3, 3.0 - math.sqrt(8.0)):
        inner, outer = koebe_bounds(1.0, t, 1.0)
        zs = t * np.exp(2j * np.pi * np.arange(2000) / 2000)
        values = np.abs(zs / (1 - zs) ** 2)
        assert float(np.min(values)) >= inner - 1e-12
        assert float(np.max(values)) <= outer + 1e-12
        assert float(np.max(values)) == pytest.approx(outer, rel=1e-9)


def test_koebe_distortion_attained_by_koebe_function():
    # |k'(z)| for k(z) = z/(1-z)^2, by central differences, at z = -t and z = t
    def koebe_deriv(z, h=1e-6):
        k = lambda x: x / (1 - x) ** 2
        return abs((k(z + h) - k(z - h)) / (2 * h))

    for t in (0.1, 0.3, 3.0 - math.sqrt(8.0)):
        shrink, expand = koebe_distortion(t)
        assert koebe_deriv(-t) == pytest.approx(shrink, rel=1e-8)
        assert koebe_deriv(t) == pytest.approx(expand, rel=1e-8)
        zs = t * np.exp(2j * np.pi * np.arange(360) / 360)
        values = np.abs((1 + zs) / (1 - zs) ** 3)
        assert shrink - 1e-12 <= float(np.min(values))
        assert float(np.max(values)) <= expand + 1e-12


def test_koebe_bounds_scaling():
    inner, outer = koebe_bounds(2.0, 0.25, 3.0)
    assert inner == pytest.approx(0.25 / 4 * 6.0, abs=1e-14)
    assert outer == pytest.approx(0.25 / 0.75**2 * 6.0, abs=1e-12)


def test_distortion_ratio_bound_values():
    assert distortion_ratio_bound(0.5) == pytest.approx(81.0, abs=1e-12)
    assert distortion_ratio_bound(0.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        distortion_ratio_bound(1.0)


def test_sull_containment_affine():
    g = Affine(1 / 3, 0.0)
    ok, margin = check_sull_containment(g, Disk(0.5, 3.0), (0.0, 1.0), math.pi / 6, math.pi / 4)
    assert ok and margin > 0


def test_sull_containment_moebius_grid_search():
    # a real Moebius map carries circular arcs to circular arcs, so it maps
    # the lens of angle theta exactly onto the lens of the same angle over
    # the image interval: any strictly wider lens contains the image
    g = lambda z: z / (2.0 - z)  # noqa: E731
    v = Disk(0.5, 1.2)
    theta = 0.5
    admissible = []
    for theta_prime in np.linspace(0.4, 0.8, 17):
        ok, _ = check_sull_containment(g, v, (0.0, 1.0), theta, float(theta_prime))
        if ok:
            admissible.append(float(theta_prime))
    assert admissible
    assert min(admissible) <= theta + 0.03
    assert all(tp > theta for tp in admissible)
    ok, margin = check_sull_containment(g, v, (0.0, 1.0), theta, 0.3)
    assert not ok and margin < 0


def test_sull_containment_rejects_nonreal_map():
    g = Affine(1j * 0.3, 0.0)
    with pytest.raises(NotReal):
        check_sull_containment(g, Disk(0.5, 3.0), (0.0, 1.0), 0.5, 0.5)


def test_poincare_domain_validation():
    with pytest.raises(ValueError):
        PoincareDomain(1.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        PoincareDomain(0.0, 1.0, 0.0)
