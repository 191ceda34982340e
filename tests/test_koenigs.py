"""Tests for series germs, linearization, and compositional roots."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from holoifs import InvalidMultiplier, NoConvergence, NonInvertible, NotAFixedPoint, Word
from holoifs.dynamics import fixed_point
from holoifs.koenigs import (
    ORDER,
    PowerSeriesGerm,
    composition_residual,
    functional_roots,
    koenigs,
    series_of_map,
)
from holoifs.maps import compose_word
from holoifs.systems import cantor_thirds, sqrt_julia

RNG = np.random.default_rng(20260826)


def _cauchy_coeffs(f, point, radius, order, n=512):
    """Taylor coefficients of f at `point` by discretized Cauchy integrals."""
    j = np.arange(n)
    w = np.exp(2j * np.pi * j / n)
    values = f(point + radius * w)
    coeffs = []
    for k in range(1, order + 1):
        c = np.mean(values * np.exp(-2j * np.pi * j * k / n)) / radius**k
        coeffs.append(c)
    return np.array(coeffs)


def _sequential_square_root(target, nu, order):
    """Solve g(g(z)) = target coefficientwise; independent of conjugation."""
    t = np.concatenate(([0.0], np.asarray(target, dtype=np.complex128)))
    g = np.zeros(order + 1, dtype=np.complex128)
    g[1] = nu

    def compose_full(outer, inner, n):
        acc = np.zeros(n + 1, dtype=np.complex128)
        for k in range(n, 0, -1):
            acc = np.convolve(acc, inner)[: n + 1]
            acc[0] += outer[k]
        acc = np.convolve(acc, inner)[: n + 1]
        return acc

    for n in range(2, order + 1):
        known = compose_full(g, g, n)[n]
        g[n] = (t[n] - known) / (nu + nu**n)
    return g[1:]


# ---------------------------------------------------------------------------
# germ basics


def test_evaluate_quadratic_example():
    g = PowerSeriesGerm([0.5, 1.0])
    assert abs(g(0.1) - 0.06) < 1e-15
    z = np.array([0.1, 0.2j])
    assert np.allclose(g(z), z / 2 + z**2)


def test_iterate_square_of_quadratic():
    g = PowerSeriesGerm([0.5, 1.0, 0.0, 0.0])
    sq = g.iterate(2)
    assert np.allclose(sq.coefficients, [0.25, 0.75, 1.0, 1.0], atol=1e-14)


def test_inverse_reversion_example():
    g = PowerSeriesGerm(np.concatenate(([1.0, -4.0], np.zeros(6))))
    inv = g.inverse()
    assert abs(inv.coefficients[0] - 1.0) < 1e-14
    assert abs(inv.coefficients[1] - 4.0) < 1e-14
    assert abs(inv.coefficients[2] - 32.0) < 1e-12
    z = 1e-3 * np.exp(2j * np.pi * np.arange(16) / 16)
    assert np.max(np.abs(g(inv(z)) - z)) < 1e-15


def test_inverse_requires_unit_jet():
    with pytest.raises(NonInvertible):
        PowerSeriesGerm([0.0, 1.0]).inverse()


def test_scaled_germ():
    g = PowerSeriesGerm([0.5, 1.0]).scaled(2j)
    assert np.allclose(g.coefficients, [1j, -4.0], atol=1e-15)


def test_tail_bound_shrinks_with_radius():
    g = PowerSeriesGerm(RNG.standard_normal(32) * 0.5)
    r = g.sample_radius
    assert g.tail_bound(r) < 1e-10
    assert g.tail_bound(0.5 * r) < g.tail_bound(r)


# ---------------------------------------------------------------------------
# Taylor extraction from map variants


def test_series_of_affine_word():
    system = cantor_thirds()
    gw = compose_word(system, Word((0, 1), 2))
    germ = series_of_map(gw, 0.25, order=6)
    expected = np.zeros(6)
    expected[0] = 1 / 9
    assert np.allclose(germ.coefficients, expected, atol=1e-15)


def test_cauchy_oracle_self_check_on_affine():
    system = cantor_thirds()
    gw = compose_word(system, Word((0, 1), 2))
    coeffs = _cauchy_coeffs(gw, 0.25, 0.3, 4)
    assert abs(coeffs[0] - 1 / 9) < 1e-12
    assert np.max(np.abs(coeffs[1:])) < 1e-12


def test_series_of_sqrt_branch_matches_cauchy():
    system = sqrt_julia(-6.0)
    g = system.maps[0]
    germ = series_of_map(g, 3.0, order=8)
    assert abs(germ.multiplier - 1 / 6) < 1e-14
    oracle = _cauchy_coeffs(g, 3.0, 0.5, 8)
    assert np.max(np.abs(germ.coefficients - oracle)) < 1e-10


def test_series_of_composite_matches_cauchy():
    system = sqrt_julia(-6.0)
    word = Word((0, 1), 2)
    beta = fixed_point(system, word).point
    gw = compose_word(system, word)
    germ = series_of_map(gw, beta, order=8)
    shifted = lambda h: gw(beta + h) - beta
    oracle = _cauchy_coeffs(shifted, 0.0, 0.3, 8)
    assert np.max(np.abs(germ.coefficients - oracle)) < 1e-9


def test_series_of_inverse_map():
    system = sqrt_julia(-6.0)
    inv = system.maps[0].inverse()
    germ = series_of_map(inv, 3.0, order=5)
    expected = np.zeros(5)
    expected[0], expected[1] = 6.0, 1.0
    assert np.allclose(germ.coefficients, expected, atol=1e-12)

    # a composite with square-root factors inverts to the reverted series
    word = Word((0, 1), 2)
    beta = fixed_point(system, word).point
    gw = compose_word(system, word)
    germ = series_of_map(gw.inverse(), beta, order=8)
    expected = series_of_map(gw, beta, order=8).inverse().coefficients
    assert np.allclose(germ.coefficients, expected, rtol=1e-9, atol=1e-12)


def test_series_needs_fixed_point():
    system = sqrt_julia(-6.0)
    with pytest.raises(NotAFixedPoint):
        series_of_map(system.maps[0], 2.0)


# ---------------------------------------------------------------------------
# linearization


def test_koenigs_quadratic_frozen_coefficients():
    psi = koenigs(PowerSeriesGerm(np.concatenate(([0.5, 1.0], np.zeros(6)))))
    assert abs(psi.coefficients[0] - 1.0) < 1e-15
    assert abs(psi.coefficients[1] - (-4.0)) < 1e-12
    assert abs(psi.coefficients[2] - 64.0 / 3.0) < 1e-11


def test_koenigs_matches_sympy_solver():
    import sympy

    order = 8
    w = sympy.symbols("w")
    bs = sympy.symbols(f"b2:{order + 1}")
    psi_expr = w + sum(b * w**n for n, b in zip(range(2, order + 1), bs))
    lam = sympy.Rational(1, 2)
    R = lambda u: u / 2 + u**2
    eq = sympy.expand(R(psi_expr) - psi_expr.subs(w, lam * w))
    poly = sympy.Poly(eq, w)
    sol = {}
    for n in range(2, order + 1):
        c = poly.coeff_monomial(w**n).subs(sol)
        (val,) = sympy.solve(c, bs[n - 2])
        sol[bs[n - 2]] = val
    psi = koenigs(PowerSeriesGerm(np.concatenate(([0.5, 1.0], np.zeros(order - 2)))))
    for n in range(2, order + 1):
        assert abs(psi.coefficients[n - 1] - float(sol[bs[n - 2]])) < 1e-9 * max(
            1.0, abs(float(sol[bs[n - 2]]))
        )


def test_koenigs_functional_equation_numeric():
    coeffs = np.zeros(32, dtype=np.complex128)
    coeffs[:4] = [0.3 + 0.2j, 0.1, -0.05 + 0.02j, 0.07]
    germ = PowerSeriesGerm(coeffs)
    psi = koenigs(germ)
    lam = germ.multiplier
    r = 0.25 * min(psi.sample_radius, germ.sample_radius)
    w = r * np.exp(2j * np.pi * np.arange(64) / 64)
    lhs = germ(psi(w))
    rhs = psi(lam * w)
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_koenigs_of_linear_germ_is_identity():
    psi = koenigs(PowerSeriesGerm(np.concatenate(([0.4], np.zeros(7)))))
    expected = np.zeros(8)
    expected[0] = 1.0
    assert np.allclose(psi.coefficients, expected, atol=1e-15)


def test_koenigs_multiplier_validation():
    for lam in (0.0, 1.0, 1.2, -1.5):
        with pytest.raises(InvalidMultiplier):
            koenigs(PowerSeriesGerm([lam, 1.0]))
    with pytest.warns(UserWarning):
        koenigs(PowerSeriesGerm(np.concatenate(([0.95, 0.1], np.zeros(4)))))


def test_koenigs_names_the_degree_that_overflows():
    # psi_2 = -4e200 is finite; psi_3 collects about 1e200 * psi_2 and overflows
    germ = PowerSeriesGerm(np.concatenate(([0.5, 1e200], np.zeros(4))))
    with pytest.raises(NoConvergence, match="^Koenigs coefficient of degree 3 is not finite$"):
        koenigs(germ)


# ---------------------------------------------------------------------------
# functional roots


def test_roots_of_linear_germ():
    roots = functional_roots(PowerSeriesGerm(np.concatenate(([0.25], np.zeros(7)))), 2)
    assert len(roots) == 2
    assert abs(roots[0].multiplier - 0.5) < 1e-14
    assert abs(roots[1].multiplier + 0.5) < 1e-14
    for g in roots:
        assert np.max(np.abs(g.coefficients[1:])) < 1e-12


def test_square_root_matches_sequential_solver():
    order = 10
    target = np.concatenate(([0.5, 1.0], np.zeros(order - 2)))
    germ = PowerSeriesGerm(target)
    roots = functional_roots(germ, 2)
    assert len(roots) == 2
    for g, sign in zip(roots, (1.0, -1.0)):
        nu = sign * math.sqrt(0.5)
        oracle = _sequential_square_root(target, nu, order)
        scale = np.maximum(1.0, np.abs(oracle))
        assert np.max(np.abs(g.coefficients[:order] - oracle) / scale) < 1e-8


def test_roots_verify_by_composition():
    germ = PowerSeriesGerm(np.concatenate(([0.5, 1.0], np.zeros(30))))
    for l in (2, 3):
        roots = functional_roots(germ, l)
        assert len(roots) == l
        for g in roots:
            assert composition_residual(g, l, germ) <= 1e-8
            assert abs(g.multiplier**l - 0.5) < 1e-12


def test_roots_complex_multiplier_ordering():
    lam = 0.25 * cmath.exp(1j * 0.7)
    coeffs = np.zeros(24, dtype=np.complex128)
    coeffs[0], coeffs[1], coeffs[2] = lam, 0.2, -0.1j
    roots = functional_roots(PowerSeriesGerm(coeffs), 4)
    assert len(roots) == 4
    for r, g in enumerate(roots):
        assert abs(g.multiplier**4 - lam) < 1e-12
        expected_arg = (cmath.phase(lam) + 2 * math.pi * r) / 4
        unit = g.multiplier / abs(g.multiplier)
        assert abs(unit - cmath.exp(1j * expected_arg)) < 1e-12


def test_residual_detects_wrong_root():
    germ = PowerSeriesGerm(np.concatenate(([0.5, 1.0], np.zeros(14))))
    g = functional_roots(germ, 2)[0]
    bad = np.array(g.coefficients, copy=True)
    bad[1] += 0.05
    assert composition_residual(PowerSeriesGerm(bad), 2, germ) > 1e-8


def test_roots_reject_nan_residual():
    # finite coefficients whose Koenigs series overflows at degree 2
    coeffs = np.zeros(ORDER, dtype=np.complex128)
    coeffs[:3] = (0.5, 1e308, 1e308)
    with pytest.raises(NoConvergence, match="Koenigs coefficient of degree 2 is not finite"):
        functional_roots(PowerSeriesGerm(coeffs), 2)


def test_roots_reject_bad_multiplier():
    with pytest.raises(InvalidMultiplier):
        functional_roots(PowerSeriesGerm([1.5, 0.3]), 2)
    with pytest.raises(ValueError):
        functional_roots(PowerSeriesGerm([0.5, 0.3]), 0)
