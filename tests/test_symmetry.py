"""Tests for symmetry germs, conjugacy relations, and shared-attractor verdicts."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from scipy.spatial import cKDTree

import holoifs.attractor
import holoifs.dynamics
import holoifs.symmetry
from holoifs import (
    AddressFailure,
    BudgetExceeded,
    CriterionEmpty,
    Disk,
    IfsSystem,
    NoCoincidence,
    Word,
)
from holoifs.attractor import certify_strong_osc, compute_net
from holoifs.dynamics import prep_points, spectrum
from holoifs.maps import Affine, compose_word
from holoifs.symmetry import (
    Budgets,
    SymmetryGerm,
    SystemNet,
    address,
    build_symmetry,
    detect_coincidence,
    min_depth,
    s_floor,
    shared_attractor,
    spectrum_compat,
    verify_symmetry,
)
from holoifs.systems import (
    cantor_thirds,
    cantor_thirds_reflected,
    iterate_system,
    sqrt_julia,
)

EPS = 1e-3


def system_net(system, epsilon=EPS):
    return SystemNet(system, compute_net(system, epsilon))


@pytest.fixture(scope="module")
def thirds():
    return system_net(cantor_thirds())


@pytest.fixture(scope="module")
def reflected():
    return system_net(cantor_thirds_reflected())


@pytest.fixture(scope="module")
def julia6():
    return system_net(sqrt_julia(-6.0), 2e-3)


def shifted_system():
    return IfsSystem((Affine(1 / 3, 0.0), Affine(1 / 3, 0.5)), Disk(0.5 + 0j, 2.0))


# ---------------------------------------------------------------------------
# derivative floor and depth


def test_s_floor_constant_derivative(thirds, reflected):
    assert s_floor(thirds.system, thirds.net) == pytest.approx(1 / 3, abs=1e-15)
    assert s_floor(reflected.system, reflected.net) == pytest.approx(1 / 3, abs=1e-15)


def test_s_floor_julia(julia6):
    system, net = julia6.system, julia6.net
    value = s_floor(system, net)
    # attractor reaches z = 3 where |f'| = 1/(2*sqrt(9)) = 1/6
    assert value == pytest.approx(1 / 6, abs=1e-3)
    oracle = min(np.min(np.abs(f.deriv(net.points))) for f in system.maps)
    assert value == pytest.approx(oracle, abs=0)


def test_min_depth_examples(thirds, reflected):
    assert min_depth(thirds.system, thirds.net, 1 / 3) == 1
    assert min_depth(thirds.system, thirds.net, 1 / 9) == 2
    assert min_depth(reflected.system, reflected.net, 1 / 3) == 1


def test_min_depth_budget(thirds):
    with pytest.raises(BudgetExceeded):
        min_depth(thirds.system, thirds.net, 1e-9, word_cap=8)


# ---------------------------------------------------------------------------
# addresses


def test_address_examples(thirds):
    assert address(thirds, 2 / 3, 3).indices == (1, 0, 0)
    assert address(thirds, 0.25, 4).indices == (0, 1, 0, 1)
    assert address(thirds, 1.0, 2).indices == (1, 1)


def test_address_satisfies_word_evaluation(thirds):
    system = thirds.system
    x = 2 / 9
    word = address(thirds, x, 5)
    # walking back down the word must reproduce x
    b = complex(x)
    for letter in word.indices:
        b = system.maps[letter].invert(b)
    assert abs(complex(compose_word(system, word)(b)) - x) < 1e-12


def test_address_failure_off_attractor(thirds):
    with pytest.raises(AddressFailure):
        address(thirds, 0.5, 2)


# ---------------------------------------------------------------------------
# germ construction


def test_germ_reflection_is_one_minus_z(thirds, reflected):
    germ = build_symmetry(reflected, thirds, 0.0, Word((1,), 2))
    assert germ.word_f.indices == (1,)
    assert abs(germ.derivative - (-1.0)) < 1e-12
    rng = np.random.default_rng(20260826)
    z = germ.radius * (2 * rng.random(100) - 1 + 1j * (2 * rng.random(100) - 1)) / 2
    assert np.max(np.abs(germ.map(z) - (1 - z))) <= 1e-9


def test_germ_same_system_identity(thirds):
    germ = build_symmetry(thirds, thirds, 0.0, Word((0,), 2))
    assert germ.word_f.indices == (0,)
    z = np.linspace(-germ.radius, germ.radius, 33)
    assert np.max(np.abs(germ.map(z) - z)) < 1e-12


def test_germ_depth_two_identity(thirds):
    germ = build_symmetry(thirds, thirds, 0.0, Word((0, 1), 2))
    assert germ.word_f.indices == (0, 1)
    z = np.linspace(-germ.radius, germ.radius, 33)
    assert np.max(np.abs(germ.map(z) - z)) < 1e-12


def test_germ_derivative_window_and_sandwich(thirds, reflected, julia6):
    pairs = [
        (reflected, thirds, 0.0, (1,)),
        (reflected, thirds, 0.75, (1, 1)),
        (thirds, reflected, 0.0, (0, 0)),
        (julia6, julia6, 3.0, (0,)),
        (julia6, julia6, -2.0, (1,)),
    ]
    for G, F, a, w in pairs:
        germ = build_symmetry(G, F, a, Word(w, len(G.system.maps)))
        sF = s_floor(F.system, F.net)
        assert sF - 1e-9 <= abs(germ.derivative) <= 1.0 + 1e-9
        rho = germ.radius / (3.0 - np.sqrt(8.0))
        theta = 2 * np.pi * np.arange(64) / 64
        ring = germ.base + germ.radius * np.exp(1j * theta)
        dist = np.abs(germ.map(ring) - germ.image)
        assert np.max(dist) <= rho + 1e-12
        assert np.min(dist) >= sF * rho / 25.0 - 1e-12


def test_germ_word_length_grows_with_source_word(thirds):
    lengths = []
    for k in range(1, 6):
        germ = build_symmetry(thirds, thirds, 0.0, Word((0,) * k, 2))
        lengths.append(len(germ.word_f))
    assert lengths == sorted(lengths)
    assert lengths[-1] > lengths[0]


def test_germ_criterion_empty_for_weak_source_contraction(thirds):
    weak = IfsSystem((Affine(0.4, 0.0), Affine(0.4, 0.6)), Disk(0.5 + 0j, 2.0))
    squared = iterate_system(cantor_thirds(), 2)
    with pytest.raises(CriterionEmpty):
        build_symmetry(system_net(weak), system_net(squared), 0.0, Word((0,), 2))


def test_germ_address_failure_across_distinct_attractors(thirds):
    with pytest.raises(AddressFailure):
        build_symmetry(thirds, system_net(shifted_system()), 1.0, Word((1,), 2))


# ---------------------------------------------------------------------------
# symmetry verification


def test_verify_reflection_germ(thirds, reflected):
    germ = build_symmetry(reflected, thirds, 0.0, Word((1,), 2))
    report = verify_symmetry(germ, reflected, thirds)
    assert report.passed
    assert report.forward_residual <= 2 * EPS
    assert report.backward_residual <= 2 * EPS
    assert report.forward_count > 0 and report.backward_count > 0


def test_verify_identity_germ_zero_residual(thirds):
    germ = build_symmetry(thirds, thirds, 0.0, Word((0,), 2))
    report = verify_symmetry(germ, thirds, thirds)
    assert report.passed
    assert report.forward_residual == 0.0
    assert report.backward_residual == 0.0


def test_verify_corrupted_germ_fails(thirds, reflected):
    reference = build_symmetry(reflected, thirds, 0.0, Word((1,), 2))
    corrupted = SymmetryGerm(
        base=reference.base,
        radius=reference.radius,
        word_g=reference.word_g,
        word_f=reference.word_f,
        map=Affine(-1.0, 1.05),
    )
    report = verify_symmetry(corrupted, reflected, thirds)
    assert not report.passed
    assert report.forward_residual >= 0.05 - 2 * EPS
    assert report.forward_failures > 0


# ---------------------------------------------------------------------------
# coincidence detection


def test_coincidence_reflected_word_one(thirds, reflected):
    rel = detect_coincidence(reflected, thirds, Word((1,), 2))
    assert rel.exponent_l == 2
    assert rel.outer.indices == ()
    assert rel.inner.indices == (1, 0)
    assert abs(rel.anchor - 0.75) < 1e-12
    assert rel.residual <= 1e-12


def test_coincidence_same_system_single_letter(thirds):
    rel = detect_coincidence(thirds, thirds, Word((0,), 2))
    assert rel.exponent_l == 1
    assert rel.outer.indices == ()
    assert rel.inner.indices == (0,)
    assert rel.residual <= 1e-12


def test_coincidence_same_system_two_letters(thirds):
    rel = detect_coincidence(thirds, thirds, Word((0, 1), 2))
    assert rel.exponent_l == 1
    assert rel.inner.indices == (0, 1)
    assert rel.residual <= 1e-12


def test_coincidence_sqrt_system(julia6):
    rel = detect_coincidence(julia6, julia6, Word((0,), 2))
    assert rel.exponent_l == 1
    assert rel.inner.indices == (0,)
    assert rel.residual <= 1e-9


def test_coincidence_multiplier_law(thirds, reflected):
    systemF, systemG = thirds.system, reflected.system
    rel = detect_coincidence(reflected, thirds, Word((1,), 2))
    gwl = compose_word(systemG, Word(rel.source.indices * rel.exponent_l, 2))
    lam_l = complex(gwl.deriv(rel.anchor))
    f_outer = compose_word(systemF, rel.outer)
    beta_tilde = complex(f_outer.invert(rel.anchor))
    mu = complex(compose_word(systemF, rel.inner).deriv(beta_tilde))
    assert abs(lam_l - mu) < 1e-9
    assert abs(lam_l - 1 / 9) < 1e-12


def test_coincidence_budget_exhaustion(thirds, reflected):
    with pytest.raises(NoCoincidence):
        detect_coincidence(reflected, thirds, Word((1,), 2), K_max=1)


# ---------------------------------------------------------------------------
# spectrum compatibility


def test_spectrum_compat_reflected_into_thirds():
    specG = spectrum(cantor_thirds_reflected(), 2)
    specF = spectrum(cantor_thirds(), 4)
    matches = dict(spectrum_compat(specG, specF, 4))
    assert matches[complex(1 / 3)] == 1
    assert matches[complex(-1 / 3)] == 2
    assert matches[complex(1 / 9)] == 1
    assert matches[complex(-1 / 9)] == 2
    assert all(l is not None for l in matches.values())


def test_spectrum_compat_thirds_into_squared():
    specG = spectrum(cantor_thirds(), 4)
    specF = spectrum(iterate_system(cantor_thirds(), 2), 4)
    for lam, l in spectrum_compat(specG, specF, 4):
        n = round(-np.log(lam.real) / np.log(3.0))
        assert l == (1 if n % 2 == 0 else 2)


def test_spectrum_compat_reports_unmatched():
    specG = spectrum(cantor_thirds(), 2)
    weak = IfsSystem((Affine(0.4, 0.0), Affine(0.4, 0.6)), Disk(0.5 + 0j, 2.0))
    specF = spectrum(weak, 3)
    matches = spectrum_compat(specG, specF, 6)
    assert all(l is None for _, l in matches)


# ---------------------------------------------------------------------------
# shared attractor verdicts


def _cantor_distance(x: float) -> float:
    """Exact distance from a real point to the middle-thirds Cantor set."""
    if x < 0.0:
        return -x
    if x > 1.0:
        return x - 1.0
    scale = 1.0
    t = x
    for _ in range(60):
        if t <= 1 / 3:
            t *= 3.0
        elif t >= 2 / 3:
            t = 3.0 * t - 2.0
        else:
            return scale * min(t - 1 / 3, 2 / 3 - t)
        scale /= 3.0
    return 0.0


def test_shared_thirds_vs_reflected():
    report = shared_attractor(cantor_thirds(), cantor_thirds_reflected(), EPS)
    assert report.verdict == "Shared"
    assert report.hausdorff <= 2 * EPS
    assert report.ssc_both
    assert report.prep_forward[1] == 0 and report.prep_forward[0] > 0
    assert report.prep_backward[1] == 0 and report.prep_backward[0] > 0
    assert all(l is not None for _, l in report.spectrum_matches)
    assert len(report.functional_equations) > 0
    assert all(e.ok for e in report.functional_equations)
    assert max(e.residual for e in report.functional_equations) <= 1e-9


def test_shared_thirds_vs_squared_both_orders():
    thirds_sys = cantor_thirds()
    squared = iterate_system(thirds_sys, 2)
    fwd = shared_attractor(thirds_sys, squared, EPS)
    bwd = shared_attractor(squared, thirds_sys, EPS)
    assert fwd.verdict == "Shared"
    assert bwd.verdict == "Shared"
    assert fwd.hausdorff <= 2 * EPS
    assert max(e.residual for e in fwd.functional_equations) <= 1e-9
    assert max(e.residual for e in bwd.functional_equations) <= 1e-9


def test_not_shared_certified_by_hausdorff():
    report = shared_attractor(cantor_thirds(), shifted_system(), EPS)
    assert report.verdict == "NotShared"
    assert report.hausdorff >= 1 / 6 - 2 * EPS
    # the true gap is 0.25 at the right endpoint (1 vs 3/4)
    assert report.hausdorff == pytest.approx(0.25, abs=5 * EPS)


def test_not_shared_is_symmetric():
    fwd = shared_attractor(cantor_thirds(), shifted_system(), EPS)
    bwd = shared_attractor(shifted_system(), cantor_thirds(), EPS)
    assert fwd.verdict == bwd.verdict == "NotShared"


def test_inconclusive_without_separation():
    halves = IfsSystem((Affine(0.5, 0.0), Affine(0.5, 0.5)), Disk(0.5 + 0j, 2.0))
    report = shared_attractor(halves, halves, EPS)
    assert report.verdict == "Inconclusive"
    assert not report.ssc_both
    assert report.notes


def test_shared_verdict_symmetric_positive():
    fwd = shared_attractor(cantor_thirds(), cantor_thirds_reflected(), EPS)
    bwd = shared_attractor(cantor_thirds_reflected(), cantor_thirds(), EPS)
    assert fwd.verdict == bwd.verdict == "Shared"


def test_functional_equation_entries_structure():
    report = shared_attractor(cantor_thirds(), cantor_thirds_reflected(), EPS)
    for entry in report.functional_equations:
        assert entry.word_f is not None
        assert entry.rep_word_g is not None
        # representative entries are their own class and have zero residual
        if entry.word_g.indices == entry.rep_word_g.indices:
            assert entry.residual <= 1e-12


def test_prep_points_of_reflected_land_on_cantor():
    # independent oracle: every fixed point of the reflected system lies on
    # the middle-thirds Cantor set
    for p in prep_points(cantor_thirds_reflected(), 4, 0):
        assert abs(p.imag) < 1e-12
        assert _cantor_distance(p.real) < 1e-12


def test_shared_thirds_vs_reflected_at_fine_resolution():
    # 25,000-point nets: needs the sub-quadratic separation radius
    report = shared_attractor(cantor_thirds(), cantor_thirds_reflected(), 1e-6)
    assert report.verdict == "Shared"


@pytest.mark.parametrize(
    "field, value",
    [
        ("spectrum_tol", 0.0),
        ("spectrum_tol", float("inf")),
        ("func_eq_tol", float("nan")),
        ("func_eq_tol", -1e-9),
        ("eq_samples", 0),
        ("point_cap", -1),
        ("prep_max_word", -3),
        ("prep_orbit_cap", 2.5),
        ("spectrum_l_max", True),
        ("spectrum_source_len", "4"),
    ],
)
def test_budgets_reject_invalid_limits(field, value):
    with pytest.raises(ValueError, match=f"Budgets.{field} must be"):
        Budgets(**{field: value})


def test_budgets_accept_numpy_scalars():
    budgets = Budgets(eq_samples=np.int64(8), spectrum_tol=np.float64(1e-6), func_eq_tol=1)
    assert budgets.eq_samples == 8


def test_shared_attractor_derives_each_structure_once(monkeypatch):
    calls = Counter()

    def count(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module in (holoifs.symmetry, holoifs.attractor, holoifs.dynamics):
        count(module, "certify_ssc")
    for name in ("rho_radius", "s_floor", "spectrum"):
        count(holoifs.symmetry, name)
    report = shared_attractor(cantor_thirds(), cantor_thirds_reflected(), EPS)
    assert report.verdict == "Shared"
    assert calls == {"certify_ssc": 2, "rho_radius": 2, "s_floor": 1, "spectrum": 2}


def test_osc_composition_property(thirds):
    system, net = thirds.system, thirds.net
    disks = (Disk(1 / 6 + 0j, 1 / 6 + 0.01), Disk(5 / 6 + 0j, 1 / 6 + 0.01))
    cert = certify_strong_osc(system, disks, net)
    assert cert.valid
    tree = cKDTree(np.column_stack((net.points.real, net.points.imag)))
    from itertools import product

    for disk in disks:
        members = net.points[np.abs(net.points - disk.center) <= disk.radius]
        for length in range(1, 4):
            for idx in product(range(2), repeat=length):
                image = compose_word(system, Word(idx, 2))(members)
                d, _ = tree.query(np.column_stack((image.real, image.imag)), k=1)
                assert np.max(d) <= net.epsilon + 1e-12
