"""Tests for periodic points, spectra, and inverse-map orbits."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from holoifs import (
    BudgetExceeded,
    Disk,
    IfsSystem,
    OutsideAttractor,
    SeparationFailure,
    Word,
)
from holoifs.attractor import compute_net
from holoifs.dynamics import (
    fixed_point,
    inverse_step,
    orbit,
    prep_points,
    spectrum,
)
from holoifs.maps import Affine
from holoifs.systems import cantor_thirds, cantor_thirds_reflected, sqrt_julia

RNG = np.random.default_rng(20260826)


def _brute_fixed_point(system, indices, iters=400):
    """Independent oracle: fold the maps and iterate from the domain center."""
    z = complex(system.domain.center)
    for _ in range(iters):
        for i in reversed(indices):
            z = system.maps[i](z)
    return z


def _brute_multiplier(system, indices, point):
    """Chain rule along the word, innermost first."""
    lam = 1.0 + 0.0j
    z = point
    for i in reversed(indices):
        lam *= system.maps[i].deriv(z)
        z = system.maps[i](z)
    return lam


# ---------------------------------------------------------------------------
# fixed points


def test_fixed_point_thirds_pair():
    system = cantor_thirds()
    pp = fixed_point(system, Word((0, 1), 2))
    assert abs(pp.point - 0.25) < 1e-14
    assert abs(pp.multiplier - 1.0 / 9.0) < 1e-14


def test_fixed_point_matches_brute_oracle():
    system = cantor_thirds_reflected()
    for indices in [(0,), (1,), (0, 1), (1, 0), (1, 1, 0)]:
        pp = fixed_point(system, Word(indices, 2))
        oracle = _brute_fixed_point(system, indices)
        assert abs(pp.point - oracle) < 1e-12
        assert abs(pp.multiplier - _brute_multiplier(system, indices, oracle)) < 1e-12


def test_fixed_point_sqrt_branches():
    system = sqrt_julia(-6.0)
    pos = fixed_point(system, Word((0,), 2))
    neg = fixed_point(system, Word((1,), 2))
    assert abs(pos.point - 3.0) < 1e-12
    assert abs(pos.multiplier - 1.0 / 6.0) < 1e-12
    assert abs(neg.point - (-2.0)) < 1e-12
    assert abs(neg.multiplier - (-0.25)) < 1e-12


def test_fixed_point_rejects_empty_word():
    with pytest.raises(ValueError):
        fixed_point(cantor_thirds(), Word((), 2))


def test_orbit_of_periodic_point_lists_rotation_fixed_points():
    system = cantor_thirds()
    pp = fixed_point(system, Word((0, 1), 2))
    pts = pp.orbit(system)
    assert len(pts) == 2
    assert abs(pts[0] - 0.25) < 1e-14
    assert abs(pts[1] - 0.75) < 1e-14
    # each orbit point is fixed by the corresponding rotation of the word
    rot = fixed_point(system, Word((1, 0), 2))
    assert abs(rot.point - pts[1]) < 1e-14


def test_multiplier_is_rotation_invariant():
    system = cantor_thirds_reflected()
    a = fixed_point(system, Word((0, 1, 1), 2))
    b = fixed_point(system, Word((1, 1, 0), 2))
    c = fixed_point(system, Word((1, 0, 1), 2))
    assert abs(a.multiplier - b.multiplier) < 1e-13
    assert abs(b.multiplier - c.multiplier) < 1e-13


# ---------------------------------------------------------------------------
# spectra


def _unique_multipliers(spec):
    vals = spec.multipliers()
    uniq = np.unique(np.round(vals.real, 9) + 1j * np.round(vals.imag, 9))
    return uniq


def test_spectrum_thirds_values():
    uniq = _unique_multipliers(spectrum(cantor_thirds(), 3))
    assert np.allclose(np.sort(uniq.real), [1 / 27, 1 / 9, 1 / 3], atol=1e-12)
    assert np.allclose(uniq.imag, 0.0)


def test_spectrum_reflected_values():
    uniq = _unique_multipliers(spectrum(cantor_thirds_reflected(), 2))
    assert np.allclose(
        np.sort(uniq.real), [-1 / 3, -1 / 9, 1 / 9, 1 / 3], atol=1e-12
    )
    assert np.allclose(uniq.imag, 0.0)


def test_spectrum_one_entry_per_rotation_class():
    spec = spectrum(cantor_thirds(), 2)
    # classes: (0), (1), (00), (01)~(10), (11) — all with distinct points
    assert len(spec.entries) == 5
    words = {e.word.indices for e in spec.entries}
    assert (0, 1) in words and (1, 0) not in words


def test_spectrum_matches_brute_enumeration():
    system = cantor_thirds_reflected()
    spec = spectrum(system, 3)
    brute = set()
    for length in range(1, 4):
        for indices in itertools.product(range(2), repeat=length):
            p = _brute_fixed_point(system, indices)
            lam = _brute_multiplier(system, indices, p)
            brute.add(complex(round(lam.real, 9), round(lam.imag, 9)))
    mine = {complex(round(v.real, 9), round(v.imag, 9)) for v in spec.multipliers()}
    assert mine == brute


def test_spectrum_contains_multiplier():
    spec = spectrum(cantor_thirds(), 2)
    assert spec.contains_multiplier(1 / 9)
    assert not spec.contains_multiplier(-1 / 9)


def test_spectrum_budget():
    with pytest.raises(BudgetExceeded):
        spectrum(cantor_thirds(), 30, word_cap=1000)


# ---------------------------------------------------------------------------
# inverse dynamics


def test_inverse_step_picks_the_right_branch():
    system = cantor_thirds()
    net = compute_net(system, 1e-3)
    y, branch = inverse_step(system, net, 2 / 3)
    assert branch == 1
    assert abs(y - 0.0) < 1e-12
    y, branch = inverse_step(system, net, 0.2)
    assert branch == 0
    assert abs(y - 0.6) < 1e-12


def test_inverse_step_rejects_gap_and_far_points():
    system = cantor_thirds()
    net = compute_net(system, 1e-3)
    with pytest.raises(OutsideAttractor):
        inverse_step(system, net, 0.5)
    with pytest.raises(OutsideAttractor):
        inverse_step(system, net, 5.0 + 5.0j)


def test_inverse_step_needs_separation():
    halves = IfsSystem(
        (Affine(0.5, 0.0), Affine(0.5, 0.5)), Disk(0.5 + 0.0j, 2.0)
    )
    net = compute_net(halves, 1e-3)
    with pytest.raises(SeparationFailure):
        inverse_step(halves, net, 0.3)


def test_orbit_period_two():
    system = cantor_thirds()
    net = compute_net(system, 1e-3)
    rep = orbit(system, net, 0.75)
    assert rep.preperiod == 0
    assert rep.period == 2
    assert abs(rep.points[0] - 0.75) < 1e-12
    assert abs(rep.points[1] - 0.25) < 1e-12
    assert rep.is_preperiodic


def test_orbit_strictly_preperiodic():
    system = cantor_thirds()
    net = compute_net(system, 1e-3)
    rep = orbit(system, net, 2 / 3)
    assert rep.preperiod == 1
    assert rep.period == 1
    assert abs(rep.points[1] - 0.0) < 1e-12


def test_orbit_terminates_outside():
    system = cantor_thirds()
    net = compute_net(system, 1e-3)
    rep = orbit(system, net, 0.5)
    assert rep.points == (0.5,)
    assert rep.period is None and rep.preperiod is None
    assert not rep.is_preperiodic


def test_orbit_budget_truncation_reports_nothing():
    system = cantor_thirds()
    net = compute_net(system, 1e-3)
    rep = orbit(system, net, 0.75, max_iter=1)
    assert rep.period is None
    assert len(rep.points) == 2


def test_orbit_escapes_after_one_step():
    system = sqrt_julia(-6.0)
    net = compute_net(system, 2e-3)
    rep = orbit(system, net, 1.0)
    assert rep.period is None
    assert len(rep.points) == 2
    assert abs(rep.points[1] - (-5.0)) < 1e-9


def test_orbit_fixed_points_of_sqrt_system():
    system = sqrt_julia(-6.0)
    net = compute_net(system, 2e-3)
    for x in (3.0, -2.0):
        rep = orbit(system, net, x)
        assert rep.preperiod == 0
        assert rep.period == 1


def test_orbit_deterministic():
    system = cantor_thirds_reflected()
    net = compute_net(system, 1e-3)
    a = orbit(system, net, 0.3)
    b = orbit(system, net, 0.3)
    assert a == b


# ---------------------------------------------------------------------------
# preperiodic enumeration


def test_prep_points_small_budget_exact():
    system = cantor_thirds()
    pts = prep_points(system, max_word=1, max_prefix=1)
    expected = np.array([0.0, 1 / 3, 2 / 3, 1.0])
    assert pts.shape == expected.shape
    assert np.allclose(np.sort(pts.real), expected, atol=1e-12)
    assert np.allclose(pts.imag, 0.0, atol=1e-12)


def test_prep_points_dedup_and_growth():
    system = cantor_thirds()
    small = prep_points(system, max_word=2, max_prefix=2)
    large = prep_points(system, max_word=3, max_prefix=3)
    assert len(large) > len(small)
    # every small point reappears in the larger enumeration
    for p in small:
        assert np.min(np.abs(large - p)) < 1e-10


def test_prep_points_all_near_attractor():
    system = cantor_thirds_reflected()
    net = compute_net(system, 1e-3)
    pts = prep_points(system, max_word=3, max_prefix=2)
    from scipy.spatial import cKDTree

    tree = cKDTree(np.column_stack((net.points.real, net.points.imag)))
    d, _ = tree.query(np.column_stack((pts.real, pts.imag)), k=1)
    assert np.max(d) <= net.epsilon + 1e-12


def test_prep_points_budget():
    system = cantor_thirds()
    with pytest.raises(BudgetExceeded):
        prep_points(system, max_word=2, max_prefix=2, word_cap=3)
