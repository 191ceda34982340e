"""End-to-end acceptance checks with closed-form oracles.

Each test prints a single ``criterion N: PASS``/``FAIL`` line so the full
gate reads as a checklist.  All criteria together run in well under a
minute.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from holoifs import Disk, IfsSystem, Word, cli
from holoifs.attractor import (
    cardinality_bound,
    certify_ssc,
    compute_net,
    hutchinson_defect,
)
from holoifs.dynamics import InverseDynamics, fixed_point, spectrum
from holoifs.geometry import kappa, koebe_bounds, poincare_domain, hyp_dist_slit
from holoifs.koenigs import ORDER, PowerSeriesGerm, functional_roots, koenigs
from holoifs.maps import Affine
from holoifs.symmetry import (
    SystemNet,
    build_symmetry,
    detect_coincidence,
    s_floor,
    shared_attractor,
)
from holoifs.systems import (
    cantor_thirds,
    cantor_thirds_reflected,
    iterate_system,
    sqrt_julia,
)

EPS = 1e-3


class _criterion:
    """Context manager printing one PASS/FAIL line per acceptance criterion."""

    def __init__(self, label: str):
        self.label = label

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        print(f"{self.label}: {'FAIL' if exc_type else 'PASS'}")
        return False


@pytest.fixture(scope="module")
def thirds_net():
    return compute_net(cantor_thirds(), EPS)


@pytest.fixture(scope="module")
def reflected_net():
    return compute_net(cantor_thirds_reflected(), EPS)


@pytest.fixture(scope="module")
def thirds_sn(thirds_net):
    return SystemNet(cantor_thirds(), thirds_net)


@pytest.fixture(scope="module")
def reflected_sn(reflected_net):
    return SystemNet(cantor_thirds_reflected(), reflected_net)


def _cantor_distance(x: float) -> float:
    """Distance from a real point to the middle-thirds Cantor set."""
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


def test_01_cantor_net_membership_and_hutchinson(thirds_net):
    with _criterion("criterion 1"):
        pts = thirds_net.points
        assert np.max(np.abs(pts.imag)) <= EPS
        worst = max(
            float(np.hypot(_cantor_distance(p.real), p.imag)) for p in pts
        )
        assert worst <= EPS
        assert hutchinson_defect(cantor_thirds(), thirds_net) <= 2e-3


def test_02_ssc_certificates(thirds_net):
    with _criterion("criterion 2"):
        cert = certify_ssc(cantor_thirds(), thirds_net)
        assert cert.valid
        assert abs(cert.pairwise_distance - 1 / 3) <= 2 * EPS
        halves = IfsSystem(
            (Affine(0.5, 0.0), Affine(0.5, 0.5)), Disk(0.5 + 0j, 2.0)
        )
        cert2 = certify_ssc(halves, compute_net(halves, EPS))
        assert not cert2.valid
        assert cert2.pairwise_distance <= 2 * EPS


def test_03_shared_attractor_positive():
    with _criterion("criterion 3"):
        thirds = cantor_thirds()
        for other in (cantor_thirds_reflected(), iterate_system(thirds, 2)):
            report = shared_attractor(thirds, other, EPS)
            assert report.verdict == "Shared"
            assert report.hausdorff <= 2e-3
            assert report.functional_equations
            assert all(eq.ok for eq in report.functional_equations)
            assert max(eq.residual for eq in report.functional_equations) <= 1e-9


def test_04_shared_attractor_negative():
    with _criterion("criterion 4"):
        shifted = IfsSystem(
            (Affine(1 / 3, 0.0), Affine(1 / 3, 0.5)), Disk(0.5 + 0j, 2.0)
        )
        report = shared_attractor(cantor_thirds(), shifted, EPS)
        assert report.verdict == "NotShared"
        assert report.hausdorff >= 1 / 6 - 2e-3


def test_05_symmetry_germ_reflection(thirds_sn, reflected_sn):
    with _criterion("criterion 5"):
        germ = build_symmetry(reflected_sn, thirds_sn, 0.0, Word((1,), 2))
        rng = np.random.default_rng(905)
        angles = 2 * np.pi * rng.random(100)
        radii = germ.radius * np.sqrt(rng.random(100))
        z = radii * np.exp(1j * angles)
        assert np.max(np.abs(germ.map(z) - (1 - z))) <= 1e-9
        s_f = s_floor(thirds_sn.system, thirds_sn.net)
        d = abs(germ.derivative)
        assert abs(d - 1.0) <= 1e-9
        assert s_f - 1e-9 <= d <= 1.0 + 1e-9
        rho = germ.radius / (3.0 - np.sqrt(8.0))
        ring = germ.base + germ.radius * np.exp(
            2j * np.pi * np.arange(64) / 64
        )
        dist = np.abs(germ.map(ring) - germ.image)
        assert np.max(dist) <= rho + 1e-12
        assert np.min(dist) >= s_f * rho / 25.0 - 1e-12


def test_06_conjugacy_extraction(thirds_sn, reflected_sn):
    with _criterion("criterion 6"):
        rel = detect_coincidence(reflected_sn, thirds_sn, Word((1,), 2))
        assert rel.exponent_l == 2
        assert rel.residual <= 1e-12
        law = (-1 / 3) ** 2
        spec = spectrum(cantor_thirds(), 2)
        hits = [
            e
            for e in spec.entries
            if abs(e.multiplier - law) <= 1e-10
            and any(abs(p - 0.75) <= 1e-10 for p in e.orbit(cantor_thirds()))
        ]
        assert hits


def test_07_preperiodicity_of_periodic_points(thirds_net):
    with _criterion("criterion 7"):
        thirds = cantor_thirds()
        reflected = cantor_thirds_reflected()
        beta = fixed_point(reflected, Word((1,), 2)).point
        assert abs(beta - 0.75) <= 1e-12
        dyn = InverseDynamics(thirds, thirds_net)
        report = dyn.orbit(beta, max_iter=64, tol=1e-9)
        assert report.is_preperiodic
        assert report.preperiod == 0 and report.period == 2
        from itertools import product

        for length in range(1, 6):
            for idx in product(range(2), repeat=length):
                b = fixed_point(reflected, Word(idx, 2)).point
                rep = dyn.orbit(b, max_iter=70, tol=1e-9)
                assert rep.is_preperiodic
                assert rep.preperiod + rep.period <= 64


def test_08_koenigs_and_functional_roots():
    with _criterion("criterion 8"):
        coeffs = [0.5 + 0j, 1.0 + 0j] + [0j] * (ORDER - 2)
        target = PowerSeriesGerm(tuple(coeffs))
        psi = koenigs(target)
        assert abs(psi.coefficients[1] - (-4.0)) <= 1e-9
        roots = functional_roots(target, 2)
        assert len(roots) == 2
        rng = np.random.default_rng(906)
        z = 0.05 * np.sqrt(rng.random(400)) * np.exp(
            2j * np.pi * rng.random(400)
        )
        z = np.concatenate((z, 0.05 * np.exp(2j * np.pi * np.arange(64) / 64)))
        for g in roots:
            assert abs(g.coefficients[0] ** 2 - 0.5) <= 1e-10
            assert np.max(np.abs(g(g(z)) - (0.5 * z + z**2))) <= 1e-8
        for l in (1, 2, 3, 5):
            assert len(functional_roots(target, l)) == l


def test_09_julia_net_forward_invariance():
    with _criterion("criterion 9"):
        system = sqrt_julia(-6.0)
        net = compute_net(system, EPS)
        assert float(np.min(np.abs(net.points - 3.0))) <= EPS
        assert float(np.min(np.abs(net.points - (-2.0)))) <= EPS
        rng = np.random.default_rng(907)
        samples = rng.choice(net.points, size=1000, replace=True)
        images = samples**2 - 6.0
        from scipy.spatial import cKDTree

        tree = cKDTree(np.column_stack((net.points.real, net.points.imag)))
        d, _ = tree.query(np.column_stack((images.real, images.imag)), k=1)
        assert float(np.max(d)) <= 3 * EPS


def test_10_hyperbolic_geometry():
    with _criterion("criterion 10"):
        thetas = np.linspace(np.pi / 40, np.pi / 2, 20)
        values = np.array([kappa(t) for t in thetas])
        assert np.all(np.diff(values) > 0)
        dom = poincare_domain((-1.0, 1.0), np.pi / 4)
        dists = np.array(
            [hyp_dist_slit((-1.0, 1.0), z) for z in dom.boundary(25)]
        )
        spread = (np.max(dists) - np.min(dists)) / np.mean(dists)
        assert spread <= 1e-6
        phase = np.exp(2j * np.pi * np.arange(4096) / 4096)
        for t in (0.1, 0.3, 3.0 - np.sqrt(8.0)):
            inner, outer = koebe_bounds(1.0, t, 1.0)
            w = t * phase
            values = np.abs(w / (1 - w) ** 2)
            assert np.min(values) >= inner - 1e-12
            assert np.max(values) <= outer + 1e-12
        assert cardinality_bound(1 / 3, 1.0) == 49


def test_11_shared_reports_byte_identical(tmp_path):
    with _criterion("criterion 11"):
        cfg_g = tmp_path / "g.json"
        cfg_f = tmp_path / "f.json"
        cfg_g.write_text(
            json.dumps(
                {
                    "maps": [
                        {
                            "kind": "affine",
                            "alpha_re": 1 / 3,
                            "alpha_im": 0,
                            "b_re": 0,
                            "b_im": 0,
                        },
                        {
                            "kind": "affine",
                            "alpha_re": 1 / 3,
                            "alpha_im": 0,
                            "b_re": 2 / 3,
                            "b_im": 0,
                        },
                    ],
                    "domain": {"center_re": 0.5, "center_im": 0, "radius": 2.0},
                }
            ),
            encoding="utf-8",
        )
        cfg_f.write_text(
            json.dumps(
                {
                    "maps": [
                        {
                            "kind": "affine",
                            "alpha_re": 1 / 3,
                            "alpha_im": 0,
                            "b_re": 0,
                            "b_im": 0,
                        },
                        {
                            "kind": "affine",
                            "alpha_re": -1 / 3,
                            "alpha_im": 0,
                            "b_re": 1.0,
                            "b_im": 0,
                        },
                    ],
                    "domain": {"center_re": 0.5, "center_im": 0, "radius": 2.0},
                }
            ),
            encoding="utf-8",
        )
        out_a = tmp_path / "a.txt"
        out_b = tmp_path / "b.txt"
        args = ["shared", str(cfg_g), str(cfg_f)]
        assert cli.main(args + ["--report", str(out_a)]) == 0
        assert cli.main(args + ["--report", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert b"verdict = Shared" in out_a.read_bytes()
