"""Attractor nets, separation certificates, covering geometry."""

import cmath
import math
import re
import tracemalloc
from dataclasses import dataclass
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import holoifs.attractor
from holoifs.attractor import (
    POINT_CAP,
    AttractorNet,
    PointIndex,
    SeparationCertificate,
    box_restriction,
    cardinality_bound,
    certify_ssc,
    certify_strong_osc,
    compute_net,
    first_per_key,
    hausdorff,
    hutchinson_defect,
    refine_level,
    rho_radius,
    _blocks,
    _frozen_groups,
    _grid_dedup,
    _live_tree,
    _run_starts,
)
from holoifs.errors import BudgetExceeded, DomainError, SeparationFailure
from holoifs.geometry import hyp_ball_inradius, pseudo_hyperbolic
from holoifs.maps import Affine, Composite, Disk, IfsSystem, SqrtBranch
from holoifs.systems import cantor_thirds, cantor_thirds_reflected, iterate_system, sqrt_julia

EPS = 1e-3


def cantor_distance(x: float) -> float:
    """Exact distance from a real number to the middle-thirds Cantor set."""
    if x < 0:
        return -x
    if x > 1:
        return x - 1
    scale = 1.0
    for _ in range(80):
        if x <= 1 / 3:
            x = 3 * x
        elif x >= 2 / 3:
            x = 3 * x - 2
        else:
            return scale * min(x - 1 / 3, 2 / 3 - x)
        scale /= 3
    return 0.0


def cantor_distance_complex(z: complex) -> float:
    return math.hypot(cantor_distance(z.real), z.imag)


@pytest.fixture(scope="module")
def thirds():
    return cantor_thirds()


@pytest.fixture(scope="module")
def thirds_net(thirds):
    return compute_net(thirds, EPS)


def test_net_points_lie_near_cantor_set(thirds_net):
    worst = max(cantor_distance_complex(complex(z)) for z in thirds_net.points)
    assert worst <= EPS


def test_net_covers_cantor_endpoints(thirds_net):
    # all dyadic cylinder endpoints of depth 5 belong to the attractor
    targets = []
    for k in range(2**5):
        digits = [(k >> i) & 1 for i in range(5)]
        targets.append(sum(2 * d / 3 ** (i + 1) for i, d in enumerate(digits)))
    pts = thirds_net.points
    for t in targets:
        assert np.min(np.abs(pts - t)) <= EPS


def test_hutchinson_self_consistency(thirds, thirds_net):
    assert hutchinson_defect(thirds, thirds_net) <= 2 * EPS


def test_monotone_refinement(thirds, thirds_net):
    finer = compute_net(thirds, EPS / 4)
    assert hausdorff(thirds_net, finer) <= EPS + EPS / 4


def test_cylinder_radius_decay(thirds):
    centers = np.array([thirds.domain.center])
    radii = np.array([thirds.domain.radius])
    prev = float(np.max(radii))
    for _ in range(6):
        centers, radii = refine_level(thirds, centers, radii)
        cur = float(np.max(radii))
        assert cur <= prev * (1 / 3 + 1e-12)
        prev = cur


def test_hausdorff_against_bruteforce_oracle():
    rng = np.random.default_rng(7)
    a = rng.normal(size=40) + 1j * rng.normal(size=40)
    b = rng.normal(size=55) + 1j * rng.normal(size=55)
    brute = max(
        max(min(abs(x - y) for y in b) for x in a),
        max(min(abs(x - y) for y in a) for x in b),
    )
    assert hausdorff(a, b) == pytest.approx(brute, abs=1e-14)


def _nearest_oracle(data: np.ndarray, queries: np.ndarray, rows: int = 256) -> np.ndarray:
    """Each query's least ``sqrt(dx*dx + dy*dy)`` to ``data``, block by block."""
    out = []
    for k in range(0, len(queries), rows):
        q = queries[k : k + rows, None]
        dx, dy = data.real - q.real, data.imag - q.imag
        out.append(np.sqrt(dx * dx + dy * dy).min(axis=1))
    return np.concatenate(out)


def _hausdorff_oracle(a, b) -> float:
    a, b = np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128)
    return float(max(_nearest_oracle(b, a).max(), _nearest_oracle(a, b).max()))


def _ssc_oracle(system, net) -> tuple[float, float]:
    """``pairwise_distance`` and ``margin`` of :func:`certify_ssc` from every pair's distances."""
    images = [g(net.points) for g in system.maps]
    pairwise = min((float(_nearest_oracle(v, u).min()) for u, v in combinations(images, 2)),
                   default=math.inf)
    pairwise = pairwise if math.isfinite(pairwise) else 0.0
    lip = max(float(np.max(np.abs(g.deriv(net.points)))) for g in system.maps)
    return pairwise, pairwise - 2.0 * lip * net.epsilon


def _assert_pruned_extrema(system, net, other) -> None:
    """``hausdorff`` both ways and ``certify_ssc`` equal their oracles, bit for bit."""
    for a, b in ((net.points, other), (net.points, np.concatenate([g(net.points) for g in system.maps]))):
        want = _hausdorff_oracle(a, b)
        assert hausdorff(a, b) == want and hausdorff(b, a) == want
    cert = certify_ssc(system, net)
    assert (cert.pairwise_distance, cert.margin) == _ssc_oracle(system, net)
    for (i, j), (dist, row, index) in cert.closest.items():
        u, v = cert.images[i], cert.images[j]
        assert dist == float(_nearest_oracle(v, u).min())
        assert dist == float(_nearest_oracle(v[index : index + 1], u[row : row + 1])[0])


@pytest.mark.filterwarnings("ignore:net has fewer than 2 points")
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_pruned_extrema_equal_brute_force_on_random_affine_systems(data):
    def draw_system():
        maps = []
        for _ in range(data.draw(st.integers(2, 3), label="maps")):
            ratio = data.draw(st.floats(0.1, 0.45))
            angle = data.draw(st.floats(0.0, 2 * math.pi))
            shift = complex(data.draw(st.floats(-1.0, 1.0)), data.draw(st.floats(-1.0, 1.0)))
            maps.append(Affine(ratio * cmath.exp(1j * angle), shift))
        least = max(abs(g.b) / (1.0 - abs(g.alpha)) for g in maps)
        return IfsSystem(tuple(maps), Disk(0.0, 1.5 * least + 1e-3))

    system, other = draw_system(), draw_system()
    eps = data.draw(st.sampled_from([0.05, 0.02, 0.01]), label="eps")
    net = compute_net(system, eps * system.domain.radius)
    _assert_pruned_extrema(system, net, compute_net(other, eps * other.domain.radius).points)


def test_pruned_extrema_equal_brute_force_on_a_vertical_line():
    # the thirds and their reflection turned onto the imaginary axis: every
    # real part is 0, so an order by real part would bound no row
    up = IfsSystem((Affine(1 / 3, 0.0), Affine(1 / 3, 2j / 3)), Disk(0.5j, 2.0))
    down = IfsSystem((Affine(1 / 3, 0.0), Affine(-1 / 3, 1j)), Disk(0.5j, 2.0))
    for eps in (1e-2, 1e-3):
        net = compute_net(up, eps)
        assert not np.any(net.points.real)
        for other in (compute_net(down, eps).points, net.points + 1e-3, net.points[::-1] * 0.999):
            _assert_pruned_extrema(up, net, other)


def test_pruned_extrema_equal_brute_force_on_duplicate_points(thirds):
    net = compute_net(thirds, 1e-3)
    twice = AttractorNet(np.concatenate([net.points, net.points[::3], net.points[:1]]), 1e-3, net.depth)
    other = compute_net(cantor_thirds_reflected(), 1e-3).points
    _assert_pruned_extrema(thirds, twice, np.concatenate([other, other[::-2]]))
    assert hausdorff(twice, net) == 0.0
    assert hausdorff(np.full(5, 1.0 + 2.0j), [1.0 + 2.0j]) == 0.0


def _error(fn, *args) -> tuple[type, str]:
    try:
        fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    raise AssertionError("no exception")


def test_hausdorff_checks_every_point_before_pruning(thirds_net):
    net = thirds_net.points
    nan_at = {k: net.copy() for k in (0, 100, len(net) - 1)}
    for k, pts in nan_at.items():
        pts[k] = math.nan  # row 0 sits farthest from the far set below, the others nearer
    inf_at = net.copy()
    inf_at[7] = complex(0.0, math.inf)
    finite = ValueError, "index points must be finite"
    empty = ValueError, "an index needs at least one point"
    query = ValueError, "query points must be finite"
    # (a, b) -> the first check of the full queries: index b, query a, index a
    cases = [
        (([], net), empty), ((net, []), empty), (([], []), empty),
        (([], nan_at[100]), finite), ((nan_at[100], []), empty),
        ((nan_at[0], net + 0.5), query), ((nan_at[100], net), query),
        ((nan_at[len(net) - 1], net), query), ((inf_at, net), query),
        ((net, nan_at[0]), finite), ((net, inf_at), finite), ((nan_at[100], inf_at), finite),
        ((np.zeros((2, 2)), net), (ValueError, "query points must be a scalar or 1-D, got shape (2, 2)")),
        ((net, np.zeros((2, 2))), (ValueError, "index points must be a 1-D array, got shape (2, 2)")),
        ((1.0, net), (ValueError, "index points must be a 1-D array, got shape ()")),
        ((np.zeros((2, 2)), nan_at[0]), finite),
    ]
    for args, want in cases:
        assert _error(hausdorff, *args) == want


@pytest.mark.parametrize("bad", [(1,), (0,), (0, 1), (2,)], ids=["second", "first", "both", "third"])
def test_certify_ssc_checks_every_image_before_pruning(thirds_net, bad):
    # (0.6 - 0.6i) * (1.7e308 + 1.7e308i) overflows to inf in both parts
    net = AttractorNet(np.append(thirds_net.points, 1.7e308 + 1.7e308j), EPS, thirds_net.depth)
    maps = [Affine(1 / 3, 0.0), Affine(1 / 3, 2 / 3), Affine(1 / 3, 1.0 / 3.0j)]
    for k in bad:
        maps[k] = Affine(0.6 - 0.6j, maps[k].b)
    system = IfsSystem(tuple(maps[: max(2, max(bad) + 1)]), Disk(0.5, 1e300))
    with np.errstate(over="ignore", invalid="ignore"):
        assert _error(certify_ssc, system, net) == (ValueError, "index points must be finite")
        assert _error(hutchinson_defect, system, net) == (ValueError, "index points must be finite")


def test_2d_pair_separation_memory():
    # C = {(0.3+0.3i)z, (0.3+0.3i)z + 0.7} and its square: every SSC pair and
    # rho ball query asks the index only about the rows that can attain the
    # extremum; measuring every row's nearest point peaked at 171.5 MiB
    C = IfsSystem((Affine(0.3 + 0.3j, 0.0), Affine(0.3 + 0.3j, 0.7)), Disk(0.35, 1.0))
    for system in (C, iterate_system(C, 2)):
        net = compute_net(system, 3e-4)
        tracemalloc.start()
        try:
            cert = certify_ssc(system, net)
            rho_radius(system, net, cert)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cert.valid
        assert peak < 8 * 2**20


def test_ssc_certificate_thirds(thirds, thirds_net):
    cert = certify_ssc(thirds, thirds_net)
    assert cert.valid
    assert cert.pairwise_distance == pytest.approx(1 / 3, abs=2 * EPS)


def test_ssc_certificate_fails_for_touching_pieces():
    halves = IfsSystem((Affine(0.5, 0.0), Affine(0.5, 0.5)), Disk(0.5, 2.0))
    net = compute_net(halves, EPS)
    cert = certify_ssc(halves, net)
    assert not cert.valid
    assert cert.pairwise_distance <= 2 * EPS


def test_strong_osc_two_disks(thirds, thirds_net):
    disks = (Disk(1 / 6, 1 / 6 + 0.01), Disk(5 / 6, 1 / 6 + 0.01))
    cert = certify_strong_osc(thirds, disks, thirds_net)
    assert cert.valid
    assert cert.kind == "StrongOSC"
    assert set(cert.checks) == {"net_meets_set", "containment", "image_disjointness"}


def test_strong_osc_single_disk(thirds, thirds_net):
    cert = certify_strong_osc(thirds, (Disk(0.5, 0.9),), thirds_net)
    assert cert.valid


def test_strong_osc_rejects_tangent_images(thirds, thirds_net):
    # images of B(1/2, 1) under the two maps touch at 1/2
    cert = certify_strong_osc(thirds, (Disk(0.5, 1.0),), thirds_net)
    assert not cert.valid
    assert cert.checks["image_disjointness"] <= 1e-12


def test_strong_osc_memory_is_linear_in_the_disks(thirds):
    # the union depths of every ring sample in every disk once took
    # disks**2 * samples cells: 236 MiB at 200 disks
    net = compute_net(thirds, 1e-3)
    disks = [Disk(complex(x, 0.01 * k), 0.013) for k, x in enumerate(np.linspace(0, 1, 200))]
    tracemalloc.start()
    try:
        cert = certify_strong_osc(thirds, disks, net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.kind == "StrongOSC"
    assert peak < 16 * 2**20


# ---------------------------------------------------------------------------
# the strong-OSC certificate against the per-disk loops it replaced


def _disk_loop_strong_osc(system, disks, net, samples=256):
    """The per-disk loops that the disk arrays of the certificate replaced, as the oracle.

    Returns the certificate's floats by name.
    """
    disks = tuple(disks)

    def union_depth(pts):
        best = np.full(pts.shape, -math.inf)
        for d in disks:
            best = np.maximum(best, d.radius - np.abs(pts - d.center))
        return best

    meets_margin = float(np.max(union_depth(net.points)))
    containment = math.inf
    for g in system.maps:
        for d in disks:
            for pts in (g(d.boundary(samples)), np.array([g(d.center)])):
                containment = min(containment, float(np.min(union_depth(pts))))

    def enclosure(g, d):
        centers, radii = g.enclosure_arrays(np.array([d.center]), np.array([d.radius]))
        return Disk(complex(centers[0]), float(radii[0]))

    enclosures = [[enclosure(g, d) for d in disks] for g in system.maps]
    gap = math.inf
    for i in range(len(system.maps)):
        for j in range(i + 1, len(system.maps)):
            for ei in enclosures[i]:
                for ej in enclosures[j]:
                    gap = min(gap, abs(ei.center - ej.center) - ei.radius - ej.radius)
    if not math.isfinite(gap):
        gap = 0.0
    return {
        "margin": min(meets_margin, containment, gap),
        "pairwise_distance": max(gap, 0.0),
        "net_meets_set": meets_margin,
        "containment": containment,
        "image_disjointness": gap,
    }


def _strong_osc_outcome(certify, system, disks, net, samples=256):
    """The certificate's floats by name as ``float.hex``, or the exception's type and text."""
    try:
        found = certify(system, disks, net, samples)
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(found, SeparationCertificate):
        found = {"margin": found.margin, "pairwise_distance": found.pairwise_distance,
                 **found.checks}
    return {name: float.hex(value) for name, value in found.items()}


def _complex_affine_triple():
    return IfsSystem(
        (Affine(0.3 + 0.1j, 0.0), Affine(0.25 - 0.1j, 0.6 + 0.2j), Affine(0.2j, 0.3 - 0.5j)),
        Disk(0.3, 2.0),
    )


def _imaginary_factors():
    return IfsSystem(
        (Composite((Affine(0.5, 0.1), Affine(0.3j, 0.0))),
         Composite((Affine(0.5, 0.6), Affine(-0.3j, 0.0)))),
        Disk(0.3, 2.0),
    )


@pytest.mark.parametrize(
    "make",
    [cantor_thirds, _complex_affine_triple, lambda: sqrt_julia(-6.0),
     lambda: iterate_system(sqrt_julia(-6.5), 2)],
    ids=["thirds", "complex-affine", "julia6", "julia6.5-squared"],
)
def test_strong_osc_equals_the_disk_loops(make):
    # every float of the certificate has the bits of the loops, on seeded
    # random disks away from the square-root cuts, at two ring sizes
    system = make()
    net = compute_net(system, 1e-2)
    c, r = system.domain.center, system.domain.radius
    rng = np.random.default_rng(24)
    for samples in (256, 37, 256, 256, 37, 256):
        disks = [Disk(c + 0.5 * r * complex(*rng.uniform(-1, 1, 2)), r * rng.uniform(0.02, 0.3))
                 for _ in range(rng.integers(1, 7))]
        want = _strong_osc_outcome(_disk_loop_strong_osc, system, disks, net, samples)
        assert isinstance(want, dict)
        assert _strong_osc_outcome(certify_strong_osc, system, disks, net, samples) == want


@pytest.mark.parametrize(
    "make, disks",
    [
        # a ring past the float range: a map with an imaginary factor sends
        # its points to NaN, and the loops skip such a ring; the other maps
        # send them to inf
        (_imaginary_factors, (Disk(1e308, 0.9e308),)),
        (_imaginary_factors, (Disk(1e308, 0.9e308), Disk(0.3, 0.5))),
        (_complex_affine_triple, (Disk(1e308, 1e308), Disk(0.5, 0.5))),
        # an enclosure whose radius underflows to 0 is not a disk
        (cantor_thirds, (Disk(0.5, 0.5), Disk(0.5, 5e-324))),
        (lambda: sqrt_julia(-6.0), (Disk(0.0, 1.0), Disk(-6.0 + 0.1j, 1.0))),
    ],
    ids=["nan-ring", "nan-ring-and-disk", "inf-ring", "zero-enclosure", "square-root-cut"],
)
def test_strong_osc_degenerate_disks_meet_the_disk_loops(make, disks):
    system = make()
    net = compute_net(system, 1e-2)
    for errors in ("raise", "ignore"):  # the first floating-point error raises, or none does
        with np.errstate(all=errors):
            want = _strong_osc_outcome(_disk_loop_strong_osc, system, disks, net)
            assert _strong_osc_outcome(certify_strong_osc, system, disks, net) == want


@dataclass(frozen=True)
class _Fenced(Affine):
    """An affine map that refuses the points right of ``wall`` and the point ``trap``."""

    wall: float = math.inf
    trap: complex = math.nan

    def __call__(self, z):
        if np.any(abs(z - self.trap) < 1e-9):
            raise DomainError("trapped")
        if np.any(np.real(z) > self.wall):
            raise DomainError("fenced")
        return super().__call__(z)


@pytest.mark.parametrize(
    "order, message",
    [((0, 1, 2), "^trapped$"), ((0, 2, 1), "^fenced$")],
    ids=["centre-first", "ring-first"],
)
def test_strong_osc_raises_for_the_first_disk_a_map_refuses(thirds, thirds_net, order, message):
    # disk 1 has its centre on the trap and its ring clear of it; disk 2 has
    # its ring across the wall: the disk met first in the loops' order raises
    fenced = _Fenced(1 / 3, 2 / 3, wall=3.0, trap=1.0)
    system = IfsSystem((thirds.maps[0], fenced), thirds.domain)
    disks = [(Disk(0.5, 0.6), Disk(1.0, 0.2), Disk(2.8, 0.5))[k] for k in order]
    for certify in (_disk_loop_strong_osc, certify_strong_osc):
        with pytest.raises(DomainError, match=message):
            certify(system, disks, thirds_net)


def _hyp_dist_disk_oracle(domain, z1, z2):
    w1 = (z1 - domain.center) / domain.radius
    w2 = (z2 - domain.center) / domain.radius
    return math.atanh(abs((w1 - w2) / (1 - w1.conjugate() * w2)))


def test_rho_radius_against_direct_minimization(thirds):
    net = compute_net(thirds, 0.05)
    rho_h, rho_g = rho_radius(thirds, net)

    # oracle: plain double loop over image pairs
    img0 = [complex(z) for z in thirds.maps[0](net.points)]
    img1 = [complex(z) for z in thirds.maps[1](net.points)]
    oracle_h = min(
        _hyp_dist_disk_oracle(thirds.domain, a, b) for a in img0 for b in img1
    )
    assert rho_h == pytest.approx(oracle_h, rel=1e-12)

    # oracle: bisection on the largest round disk inside the hyperbolic ball
    def inradius_at(a):
        lo, hi = 0.0, thirds.domain.radius
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            circle = a + mid * np.exp(2j * np.pi * np.arange(64) / 64)
            worst = max(
                _hyp_dist_disk_oracle(thirds.domain, complex(a), complex(q))
                for q in circle
            )
            if worst <= rho_h:
                lo = mid
            else:
                hi = mid
        return lo

    def closed_form_inradius(a):
        t = math.tanh(rho_h)
        w = abs(a - thirds.domain.center) / thirds.domain.radius
        return thirds.domain.radius * t * (1 - w * w) / (1 + t * w)

    sample = [complex(z) for z in net.points[:: max(1, len(net) // 8)]]
    for a in sample:
        assert closed_form_inradius(a) == pytest.approx(inradius_at(a), abs=1e-6)
    # the reported value is the minimum over all net points
    assert rho_g <= min(inradius_at(a) for a in sample) + 1e-6
    assert 0.0 < rho_g < 1 / 3


def test_rho_radius_floor_is_the_least_inradius(thirds):
    net = compute_net(thirds, 0.01)
    rho_h, rho_g = rho_radius(thirds, net)
    assert rho_g == float(np.min(hyp_ball_inradius(thirds.domain, net.points, rho_h)))


def test_rho_radius_requires_separation():
    halves = IfsSystem((Affine(0.5, 0.0), Affine(0.5, 0.5)), Disk(0.5, 2.0))
    net = compute_net(halves, EPS)
    with pytest.raises(SeparationFailure):
        rho_radius(halves, net)


def _all_pairs_rho(system, net):
    """Oracle: ``rho_radius`` by the all-pairs scan it replaced, block by block."""
    c, radius = system.domain.center, system.domain.radius
    images = [(g(net.points) - c) / radius for g in system.maps]
    best = math.inf
    for i in range(len(images)):
        for j in range(i + 1, len(images)):
            u, v = images[i], images[j][None, :]
            for start in range(0, len(u), 512):
                block = u[start : start + 512][:, None]
                best = min(best, float(np.min(pseudo_hyperbolic(block, v))))
    rho_h = math.atanh(best)
    return rho_h, float(np.min(hyp_ball_inradius(system.domain, net.points, rho_h)))


@pytest.mark.parametrize(
    "system",
    [
        cantor_thirds(),
        cantor_thirds_reflected(),
        sqrt_julia(-6.0),
        iterate_system(sqrt_julia(-6.0), 2),
        iterate_system(cantor_thirds(), 3),
        IfsSystem((Affine(0.3 + 0.3j, 0.0), Affine(0.3 + 0.3j, 0.7)), Disk(0.35, 1.0)),
    ],
    ids=["thirds", "reflected", "julia", "julia-squared", "thirds-cubed", "complex-similarity"],
)
def test_rho_radius_equals_all_pairs_minimum(system):
    net = compute_net(system, EPS)
    assert rho_radius(system, net) == _all_pairs_rho(system, net)


def test_rho_radius_exact_when_domain_hugs_attractor():
    # the fixed points 0, 1 and 0.5+0.2i lie on the circle |z - (0.5-0.525i)| = 0.725
    maps = tuple(Affine(1 / 3, 2 / 3 * p) for p in (0.0, 1.0, 0.5 + 0.2j))
    system = IfsSystem(maps, Disk(0.5 - 0.525j, 0.725 * (1.0 + 1e-4)))
    net = compute_net(system, 1e-2)
    c, radius = system.domain.center, system.domain.radius
    images = [(g(net.points) - c) / radius for g in system.maps]
    assert max(float(np.max(np.abs(w))) for w in images) > 0.999
    # no Euclidean nearest-neighbour pair attains the least hyperbolic distance
    nn_bound = min(
        float(np.min(pseudo_hyperbolic(u, v[np.argmin(np.abs(u[:, None] - v), axis=1)])))
        for u, v in combinations(images, 2)
    )
    rho_h, rho_g = rho_radius(system, net)
    assert math.tanh(rho_h) < nn_bound - 1e-3
    assert (rho_h, rho_g) == _all_pairs_rho(system, net)


def test_rho_radius_skips_pairs_without_candidates(monkeypatch):
    system = iterate_system(cantor_thirds(), 3)
    net = compute_net(system, EPS)
    calls, hits = [], []

    def spy(w1, w2):
        calls.append(np.size(w2))
        return pseudo_hyperbolic(w1, w2)

    within = PointIndex.within

    def spy_within(self, z, r):
        rows, cols = within(self, z, r)
        hits.append(rows.size)
        return rows, cols

    monkeypatch.setattr(holoifs.attractor, "pseudo_hyperbolic", spy)
    monkeypatch.setattr(PointIndex, "within", spy_within)
    rho_radius(system, net)
    pairs = 8 * 7 // 2
    # per image pair, one evaluation of its closest pair, then one of the
    # candidates only when its balls hold a point, which is not every pair;
    # no call evaluates a whole image
    assert len(hits) == pairs
    assert calls == [size for h in hits for size in ([1, h] if h else [1])]
    assert 0 < sum(h > 0 for h in hits) < pairs
    assert max(calls) < len(net)


@pytest.mark.parametrize("outlier", [7.5, 10.0 + 1.0j], ids=["on-circle", "outside"])
def test_rho_radius_rejects_images_outside_the_domain(outlier):
    thirds = cantor_thirds()  # domain B(1/2, 2); z/3 sends 7.5 to the circle
    net = compute_net(thirds, 1e-2)
    bad = AttractorNet(np.append(net.points, outlier), net.epsilon, net.depth)
    cert = certify_ssc(thirds, bad)
    assert cert.valid
    named = f"image point {thirds.maps[0](complex(outlier))} of map 0 is not inside"
    with pytest.raises(SeparationFailure, match=re.escape(named)):
        rho_radius(thirds, bad, cert)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_rho_radius_matches_all_pairs_on_random_affine_systems(data):
    maps = []
    for _ in range(data.draw(st.integers(2, 3), label="maps")):
        ratio = data.draw(st.floats(0.1, 0.4))
        angle = data.draw(st.floats(0.0, 2 * math.pi))
        shift = complex(data.draw(st.floats(-1.0, 1.0)), data.draw(st.floats(-1.0, 1.0)))
        maps.append(Affine(ratio * cmath.exp(1j * angle), shift))
    # the least disk about 0 that every map sends into itself, widened by a
    # drawn factor: small factors put image points near the unit circle
    least = max(abs(g.b) / (1.0 - abs(g.alpha)) for g in maps)
    hug = data.draw(st.floats(1e-4, 1.0), label="hug")
    # conjugating by z -> z + t moves the domain far from the origin, where
    # the image trees hold the points before their map to the unit disk
    size = data.draw(st.sampled_from([0.0, 1.0, 1e3, 1e6, 1e8]), label="|t|")
    t = size * cmath.exp(1j * data.draw(st.floats(0.0, 2 * math.pi), label="arg t"))
    maps = [Affine(g.alpha, g.b + t - g.alpha * t) for g in maps]
    system = IfsSystem(tuple(maps), Disk(t, least * (1.0 + hug) + 1e-3))
    # distinct fixed points keep the net from collapsing to one point
    fixed = [g.b / (1.0 - g.alpha) for g in maps]
    assume(min(abs(p - q) for p, q in combinations(fixed, 2)) > 0.1 * system.domain.radius)
    net = compute_net(system, 0.02 * system.domain.radius)
    cert = certify_ssc(system, net)
    assume(cert.valid)
    assert rho_radius(system, net, cert) == _all_pairs_rho(system, net)


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, 0.0])
def test_non_finite_resolutions_rejected(thirds, thirds_net, eps):
    with pytest.raises(ValueError, match="finite and positive"):
        compute_net(thirds, eps)
    with pytest.raises(ValueError, match="finite and positive"):
        AttractorNet(thirds_net.points, eps, thirds_net.depth)
    with pytest.raises(ValueError, match="finite and positive"):
        box_restriction(thirds, thirds_net, eps_target=eps)


def test_box_restriction_component_counts(thirds, thirds_net):
    disks = box_restriction(thirds, thirds_net, 0.4)
    assert len(disks) == 2
    centers = sorted(d.center.real for d in disks)
    assert centers[0] == pytest.approx(1 / 6, abs=0.01)
    assert centers[1] == pytest.approx(5 / 6, abs=0.01)

    disks = box_restriction(thirds, thirds_net, 0.12)
    assert len(disks) == 4

    disks = box_restriction(thirds, thirds_net, 1.2)
    assert len(disks) == 1


def test_box_restriction_covers_net_and_respects_diameter(thirds, thirds_net):
    target = 0.12
    disks = box_restriction(thirds, thirds_net, target)
    assert all(d.diameter < target for d in disks)
    pts = thirds_net.points
    covered = np.zeros(len(pts), dtype=bool)
    for d in disks:
        covered |= np.abs(pts - d.center) < d.radius
    assert covered.all()


@pytest.mark.parametrize("r,diam,expected", [(1 / 3, 1.0, 49), (1.0, 1.0, 9), (2.0, 1.0, 4)])
def test_cardinality_bound_values(r, diam, expected):
    assert cardinality_bound(r, diam) == expected


@pytest.mark.parametrize(
    "r, diam",
    [(0.0, 1.0), (1.0, -1.0), (1.0, math.inf), (math.inf, 1.0), (-math.inf, 1.0),
     (math.nan, 1.0), (1.0, math.nan)],
)
def test_cardinality_bound_refuses_arguments_that_are_not_finite_and_positive(r, diam):
    with pytest.raises(ValueError, match="^radius and diameter must be finite and positive, got "):
        cardinality_bound(r, diam)


@pytest.mark.parametrize("r, diam", [(1e-300, 1e300), (1e-160, 1.0), (1e300, 1e-300)])
def test_cardinality_bound_refuses_a_bound_past_the_float_range(r, diam):
    # the ratio r/(2 diam) underflows to 0, its square overflows, or it overflows to inf
    with pytest.raises(ValueError, match="^the packing bound of .* is not a finite float$"):
        cardinality_bound(r, diam)


def test_j6_net_contains_fixed_points():
    j6 = sqrt_julia(-6.0)
    net = compute_net(j6, EPS)
    assert np.min(np.abs(net.points - 3.0)) <= EPS
    assert np.min(np.abs(net.points - (-2.0))) <= EPS


def test_j6_forward_invariance():
    j6 = sqrt_julia(-6.0)
    net = compute_net(j6, EPS)
    stride = max(1, len(net) // 1000)
    sample = net.points[::stride][:1000]
    forward = sample * sample - 6.0
    assert hausdorff(forward, net.points) >= 0  # sanity: computable
    from scipy.spatial import cKDTree

    tree = cKDTree(np.column_stack((net.points.real, net.points.imag)))
    d, _ = tree.query(np.column_stack((forward.real, forward.imag)))
    assert float(np.max(d)) <= 3 * EPS


def test_degenerate_single_map_net():
    system = IfsSystem((Affine(0.5, 0.0),), Disk(0.0, 1.0))
    with pytest.warns(UserWarning):
        net = compute_net(system, 1e-2)
    assert len(net) == 1
    assert np.min(np.abs(net.points)) <= 1e-2


def test_budget_exceeded():
    thirds = cantor_thirds()
    with pytest.raises(BudgetExceeded):
        compute_net(thirds, 1e-6, point_cap=100)


def test_reflected_net_matches_thirds(thirds_net):
    reflected = cantor_thirds_reflected()
    net2 = compute_net(reflected, EPS)
    assert hausdorff(thirds_net, net2) <= 2 * EPS


def test_shifted_system_net_is_scaled_cantor():
    shifted = IfsSystem((Affine(1 / 3, 0.0), Affine(1 / 3, 0.5)), Disk(0.5, 2.0))
    net = compute_net(shifted, EPS)
    # attractor is 0.75 * (middle-thirds Cantor set)
    worst = max(
        math.hypot(0.75 * cantor_distance(z.real / 0.75), z.imag)
        for z in map(complex, net.points)
    )
    assert worst <= EPS


def _first_rows_by_int_keys(*keys):
    """The first row of each tuple of Python ``int`` keys, as the oracle of float keys."""
    first = {}
    for row, key in enumerate(zip(*(map(int, k.tolist()) for k in keys))):
        first.setdefault(key, row)
    return sorted(first.values())


def test_first_per_key_compares_keys_as_integers_of_any_size():
    # beyond 2**63 an int64 cast sends these keys to one value
    big = np.array([2.0**63, 2.0**63 + 2048, 2.0**64, 2.0**63 + 2048, -(2.0**70), 1e300])
    zeros = np.array([0.0, -0.0, 0.0, -0.0, 1.0, 2.0**63])
    assert first_per_key(big).tolist() == [0, 1, 2, 4, 5]
    assert first_per_key(zeros).tolist() == [0, 4, 5]
    for keys in ((big,), (zeros,), (big, zeros), (zeros, -zeros), (-zeros, big, zeros)):
        assert first_per_key(*keys).tolist() == _first_rows_by_int_keys(*keys)


def _unique_first_rows(*keys):
    """``np.unique(axis=0)``, the sort that the lexsort of ``first_per_key`` replaced, as the oracle."""
    _, first = np.unique(np.stack(keys, axis=1) + 0.0, axis=0, return_index=True)
    return np.sort(first).tolist()


_TIED_KEYS = st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 3.0, math.inf, -math.inf, 2.0**63, 2.0**63 + 2048, 2.0**64, -(2.0**70), 1e300]
)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda width: st.tuples(st.just(width), st.lists(st.tuples(*[_TIED_KEYS] * width), max_size=40))))
def test_first_per_key_equals_the_unique_oracle(case):
    # few distinct values, so most rows tie with an earlier one on some keys
    width, rows = case
    keys = [np.array([row[j] for row in rows], dtype=np.float64) for j in range(width)]
    assert first_per_key(*keys).tolist() == _unique_first_rows(*keys)


def _level_by_level_net(system, epsilon, point_cap=POINT_CAP):
    """Oracle: ``compute_net`` as it was before the depth-first walk, whole levels at a time."""
    target = epsilon / 4.0
    centers = np.array([system.domain.center], dtype=np.complex128)
    radii = np.array([system.domain.radius], dtype=np.float64)
    depth = 0
    while float(np.max(radii)) > target:
        if len(centers) * len(system.maps) > point_cap:
            raise BudgetExceeded(
                f"net refinement needs more than {point_cap} cylinders at depth {depth + 1}"
            )
        centers, radii = refine_level(system, centers, radii)
        depth += 1
    points = _grid_dedup(centers, target)
    return AttractorNet(points, epsilon, depth)


def _net_outcome(build, system, epsilon, point_cap):
    """``(depth, point bytes)`` of a net, or the type and text of its error."""
    try:
        net = build(system, epsilon, point_cap)
    except (BudgetExceeded, DomainError) as exc:
        return type(exc), str(exc)
    return net.depth, net.points.tobytes()


def _spy_walks(mp):
    """``(args, frozen, first)`` of each walk's :func:`_frozen_groups`, as a list that fills up."""
    walks = []
    frozen_groups = holoifs.attractor._frozen_groups

    def spy(*args):
        frozen, first = frozen_groups(*args)
        walks.append((args, frozen, first))
        return frozen, first

    mp.setattr(holoifs.attractor, "_frozen_groups", spy)
    return walks


def _frozen(walks):
    """The frozen (block, group) pairs of all walks."""
    return sum(int(frozen.sum()) for _, frozen, _ in walks)


def _assert_matches_level_by_level(system, epsilon, point_cap=POINT_CAP, block=8):
    """Depth-first ``compute_net`` with ``block``-cylinder levels equals the oracle.

    Returns the walks of :func:`_spy_walks`, none if no walk ran.
    """
    expected = _net_outcome(_level_by_level_net, system, epsilon, point_cap)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(holoifs.attractor, "NET_BLOCK", block)
        walks = _spy_walks(mp)
        assert _net_outcome(compute_net, system, epsilon, point_cap) == expected
    return walks


@pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4])
@pytest.mark.parametrize(
    "system",
    [
        sqrt_julia(-6.0),
        sqrt_julia(-6.0 + 0.5j),
        sqrt_julia(-6.7),
        iterate_system(sqrt_julia(-6.0), 2),
        cantor_thirds_reflected(),
    ],
    ids=["julia", "julia-complex", "julia-6.7", "julia-squared", "reflected"],
)
def test_depth_first_net_matches_level_by_level(system, eps):
    # the non-affine systems also restart the walk when a level's largest
    # radius exceeds the greedy chain's bound
    assert _assert_matches_level_by_level(system, eps)


@pytest.mark.parametrize("system", [cantor_thirds(), sqrt_julia(-6.0)], ids=["thirds", "julia"])
def test_depth_first_budget_matches_level_by_level(system):
    assert _assert_matches_level_by_level(system, 1e-6, point_cap=100)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(holoifs.attractor, "NET_BLOCK", 8)
        with pytest.raises(BudgetExceeded, match="more than 100 cylinders at depth 7"):
            compute_net(system, 1e-6, point_cap=100)


@pytest.mark.parametrize("block", [1, 8])
@pytest.mark.parametrize("c", [-5.5, -5.65])
@pytest.mark.parametrize("eps", [1e-3, 15.0])
def test_depth_first_branch_cut_matches_level_by_level(c, eps, block):
    # level 2 (c = -5.5) or 4 (c = -5.65) meets the cut; at eps = 15 the
    # net stops at depth 1 and the cut is never reached
    system = IfsSystem((SqrtBranch(c, 1), SqrtBranch(c, -1)), Disk(0.0, 5.0))
    _assert_matches_level_by_level(system, eps, block=block)
    if eps < 1.0:
        with pytest.raises(DomainError, match="square-root branch cut"):
            _level_by_level_net(system, eps)


@pytest.mark.filterwarnings("ignore:net has fewer than 2 points")
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_depth_first_net_matches_level_by_level_on_random_affine_systems(data):
    # real systems on a real centre take the real-axis rule of _frozen_groups
    real = data.draw(st.booleans(), label="real")
    maps = []
    for _ in range(data.draw(st.integers(2, 4), label="maps")):
        ratio = data.draw(st.floats(0.05, 0.5))
        if real:
            alpha = ratio * data.draw(st.sampled_from([1.0, -1.0]))
            shift = complex(data.draw(st.floats(-1.0, 1.0)))
        else:
            alpha = ratio * cmath.exp(1j * data.draw(st.floats(0.0, 2 * math.pi)))
            shift = complex(data.draw(st.floats(-1.0, 1.0)), data.draw(st.floats(-1.0, 1.0)))
        maps.append(Affine(alpha, shift))
    least = max(abs(g.b) / (1.0 - abs(g.alpha)) for g in maps)
    system = IfsSystem(tuple(maps), Disk(0.0, least + 0.1))
    eps = data.draw(st.floats(1e-3, 0.5), label="eps") * system.domain.radius
    # the cap turns the largest draws into BudgetExceeded, on both sides
    _assert_matches_level_by_level(system, eps, point_cap=2**14)


def _nonuniform(t=0j):
    """{0.5z, 0.05z + 0.95} conjugated by ``z -> z + t``: its attractor is ``t + [0, 1]``."""
    return IfsSystem((Affine(0.5, 0.5 * t), Affine(0.05, 0.95 + 0.95 * t)), Disk(0.5 + t, 2.0))


@pytest.mark.parametrize("block", [8, holoifs.attractor.NET_BLOCK])
@pytest.mark.parametrize("eps", [1e-3, 1e-4])
@pytest.mark.parametrize(
    "shift",
    [0.0, 0.3, 3j, 0.2608171825055785 + 0.07907681980551806j],
    ids=["im-0", "real-shift", "grid-line", "off-grid"],
)
def test_frozen_walk_matches_level_by_level_on_grid_lines(shift, eps, block):
    # "grid-line" puts the attractor on Im z = 3*eps/4, a line of the grid of
    # cell eps/4, where rounding sends each centre to one side or the other;
    # only the real systems (im-0, real-shift) take the real-axis rule
    t = shift * eps / 4 if shift == 3j else shift
    walks = _assert_matches_level_by_level(_nonuniform(t), eps, block=block)
    if block == 8:  # at NET_BLOCK few levels lie below the base
        assert (_frozen(walks) > 0) == (shift != 3j)


@pytest.mark.parametrize("point_cap", [2**13 - 1, 2**13, 2**16])
def test_frozen_walk_budget_matches_level_by_level(point_cap):
    # the net of eps = 1e-3 has depth 13: a cap one short of its level fails
    walks = _assert_matches_level_by_level(_nonuniform(), 1e-3, point_cap=point_cap)
    assert walks
    if point_cap >= 2**13:
        assert _frozen(walks) > 0


def _spy_leaf_rows(mp):
    """The cylinders of the last-level blocks that the walks yield, as a list of one count."""
    rows = [0]
    blocks = holoifs.attractor._blocks

    def spy(system, centers, radii, tree, groups, level=0, place=0):
        if level == len(tree) - 1:
            rows[0] += centers.size
        yield from blocks(system, centers, radii, tree, groups, level, place)

    mp.setattr(holoifs.attractor, "_blocks", spy)
    return rows


def test_frozen_blocks_engage_on_the_nonuniform_system(monkeypatch):
    # a silent fallback to whole blocks, or to the full walk, would keep
    # every byte and fail here: whole blocks froze 81% and walked 1.63M rows
    walks, rows = _spy_walks(monkeypatch), _spy_leaf_rows(monkeypatch)
    net = compute_net(_nonuniform(), 1e-6)
    assert (net.depth, len(net)) == (23, 1864)
    ((_, centers, *_), frozen, _), = walks
    assert centers.shape == (8, 512) and frozen.shape == (2048, 8)
    assert frozen.mean() >= 0.9
    assert rows[0] <= 500_000


@pytest.mark.parametrize(
    "system, eps",
    [(sqrt_julia(-6.0 + 0.5j), 1e-6), (iterate_system(sqrt_julia(-6.0 + 0.5j), 2), 1e-5)],
    ids=["julia-complex", "julia-complex-squared"],
)
def test_frozen_walk_matches_level_by_level_on_julia_sets(system, eps):
    assert _frozen(_assert_matches_level_by_level(system, eps)) > 0


def test_julia_set_on_a_grid_line_does_not_freeze():
    # sqrt_julia(-6)'s attractor lies on the grid line Im z = 0, and its maps
    # are not affine, so the real-axis rule does not hold
    walks = _assert_matches_level_by_level(sqrt_julia(-6.0), 1e-6)
    assert walks and _frozen(walks) == 0


def test_frozen_walk_needs_the_domain_enclosures_inside_the_domain():
    # the maps send Disk(0, 5.3) into itself, but their enclosures of it
    # reach out, so the rounding pad has no bound and nothing freezes; on
    # Disk(0, 5), as sqrt_julia(-6 + 0.5j), the same maps freeze blocks
    c = -6.0 + 0.5j
    walks = {}
    for radius in (5.0, 5.3):
        system = IfsSystem((SqrtBranch(c, 1), SqrtBranch(c, -1)), Disk(0.0, radius))
        dc, dr = refine_level(system, np.zeros(1, dtype=complex), np.full(1, radius))
        assert (np.max(np.abs(dc) + dr) > radius) == (radius == 5.3)
        walks[radius] = _assert_matches_level_by_level(system, 1e-6)
    assert _frozen(walks[5.3]) == 0 < _frozen(walks[5.0])


def _triangle(radius):
    """Maps towards the cube roots of unity ``v_k``: ``0.3z + 0.7v_0`` and ``0.05z + 0.95v_k``.

    Each map fixes its ``v_k``, so every radius above 1 gives a domain that
    each map, and its enclosure, sends into itself.  On ``Disk(0, 1.1)`` the
    bounding disk of the first level, centred at about 0.11, reaches 1.45
    from 0.
    """
    v = [cmath.exp(2j * math.pi * k / 3) for k in range(3)]
    maps = tuple(Affine(a, (1 - a) * vk) for a, vk in zip((0.3, 0.05, 0.05), v))
    return IfsSystem(maps, Disk(0.0, radius))


@pytest.mark.parametrize("eps", [1e-2, 1e-3])
def test_frozen_walk_needs_the_bounding_disk_inside_the_domain(eps):
    # the first level as one group: its bounding disk lies outside Disk(0, 1.1)
    # and inside Disk(0, 2); at NET_BLOCK 8 each group is one cylinder of the
    # first level, whose bounding disk is itself, so both walks freeze
    for radius in (1.1, 2.0):
        system = _triangle(radius)
        assert _frozen(_assert_matches_level_by_level(system, eps)) > 0
        centers, radii = refine_level(system, np.zeros(1, dtype=complex), np.full(1, radius))
        frozen, _ = _frozen_groups(system, centers[None], radii[None], eps / 4, 4, False)
        assert frozen.shape == (81, 1)
        assert frozen.any() == (radius == 2.0)


@pytest.mark.parametrize("eps", [1e-2, 1e-3])
def test_real_maps_on_a_centre_off_the_real_axis_do_not_freeze(eps):
    # the base centres come in pairs x + iy and x - iy, so the base level's
    # bounding disk has a real centre, but a block's leaves lie on both sides
    # of the grid line Im z = 0; on a real centre the same maps freeze
    maps = (Affine(0.3, 0.0), Affine(-0.3, 0.3), Affine(0.05, 0.95))
    off = _assert_matches_level_by_level(IfsSystem(maps, Disk(0.5 + 0.5j, 2.0)), eps)
    on = _assert_matches_level_by_level(IfsSystem(maps, Disk(0.5, 2.0)), eps)
    assert _frozen(off) == 0 < _frozen(on)


@pytest.mark.parametrize(
    "system, eps, block, shape",
    [
        (_triangle(2.0), 1e-4, 3**5, (3, 81)),
        (IfsSystem((Affine(0.3, 0.0), Affine(0.05, 0.45), Affine(0.05, 0.95)), Disk(0.5, 2.0)), 1e-4, 3**5, (3, 81)),
        (_nonuniform(), 1e-4, 8, (8, 1)),
        (_nonuniform(0.2608171825055785 + 0.07907681980551806j), 1e-4, 8, (8, 1)),
        (sqrt_julia(-6.0 + 0.5j), 1e-6, 64, (8, 8)),
        (iterate_system(sqrt_julia(-6.0 + 0.5j), 2), 1e-5, 4**2, (4, 4)),
    ],
    ids=["triangle", "three-real", "nonuniform-one-row", "off-grid-one-row", "julia-complex", "julia-complex-squared"],
)
def test_grouped_walk_matches_level_by_level(system, eps, block, shape):
    # base groups of m**j rows (at most NET_GROUPS of them), or of one row
    # when the base level is small; in some block one group freezes while
    # another is walked
    walks = _assert_matches_level_by_level(system, eps, block=block)
    assert walks
    assert all(centers.shape == shape for (_, centers, *_), _, _ in walks)
    frozen = np.concatenate([frozen for _, frozen, _ in walks])
    assert (frozen.any(axis=1) & ~frozen.all(axis=1)).any()


@pytest.mark.parametrize(
    "system, eps",
    [
        (_nonuniform(), 1e-4),
        (_nonuniform(0.2608171825055785 + 0.07907681980551806j), 1e-4),
        (sqrt_julia(-6.0 + 0.5j), 1e-6),
        (_triangle(2.0), 1e-3),
    ],
    ids=["nonuniform", "off-grid", "julia-complex", "triangle"],
)
def test_frozen_block_row_is_its_first_run_start(system, eps):
    # the chain's row of a frozen (block, group) pair, walked whole, is the
    # group's only run start in the block, on both axes; at NET_BLOCK 8 a
    # group is one cylinder, at 64 several
    for block in (8, 64):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(holoifs.attractor, "NET_BLOCK", block)
            walks = _spy_walks(mp)
            compute_net(system, eps)
        assert walks
        for (_, centers, radii, target, _, _), frozen, first in walks:
            walked = 0
            tree = _live_tree(np.zeros_like(frozen), len(system.maps))
            for place, groups, bc, _ in _blocks(system, centers, radii, tree, np.arange(len(centers))):
                assert groups.tolist() == list(range(len(centers)))
                for k in np.flatnonzero(frozen[place]).tolist():
                    row = bc[k : k + 1]
                    assert row[_run_starts(row, target, False)].tobytes() == first[place, k : k + 1].tobytes()
                    walked += 1
            assert walked == frozen.sum() > 0


@pytest.mark.parametrize("eps", [1e-8, 1e-9])
@pytest.mark.parametrize(
    "system",
    [sqrt_julia(-6.0), iterate_system(sqrt_julia(-6.0), 2), sqrt_julia(-6.7), sqrt_julia(-6.0 + 0.5j)],
    ids=["julia", "julia-squared", "julia-6.7", "julia-complex"],
)
def test_beam_walks_once(monkeypatch, system, eps):
    # the greedy chain (largest child of the largest cylinder) stopped a
    # level short on these and walked every block twice
    walks = _spy_walks(monkeypatch)
    compute_net(system, eps)
    assert len(walks) == 1


def _variant_maps():
    branch = SqrtBranch(-6.0 + 0.5j, -1)
    return [
        Affine(0.3 + 0.4j, 0.1 - 0.2j),
        Affine(0.5, 0.0),
        SqrtBranch(-6.0, 1),
        branch,
        branch.inverse(),
        Composite((SqrtBranch(-6.0, 1), Affine(0.5, 0.25j), SqrtBranch(-6.0, -1))),
    ]


@pytest.mark.parametrize("g", _variant_maps(), ids=["affine", "affine-real", "sqrt", "sqrt-complex", "square", "composite"])
def test_enclosure_of_a_row_has_the_bits_of_the_whole_array(g):
    # the premise of carrying one row of a frozen subtree: numpy's loops may
    # treat an array's head, body and tail differently, and must not round
    # them differently
    rng = np.random.default_rng(7)
    for n in [1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 31, 33, 64, 100, 1001, 4096]:
        centers = 0.3 + 0.5 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        radii = rng.uniform(0.0, 0.1, n)
        whole = g.enclosure_arrays(centers, radii)
        for k in range(n):
            row = g.enclosure_arrays(centers[k : k + 1], radii[k : k + 1])
            assert row[0].tobytes() == whole[0][k : k + 1].tobytes()
            assert row[1].tobytes() == whole[1][k : k + 1].tobytes()


def test_nonuniform_net_memory():
    tracemalloc.start()
    try:
        net = compute_net(_nonuniform(), 1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # whole levels held all 2**23 depth-23 cylinders: a 672 MB peak; the
    # freeze chain refined breadth first over every place reached 2.7 MiB
    assert (net.depth, len(net)) == (23, 1864)
    assert peak < 2 * 2**20
