"""Attractor nets, separation certificates, covering geometry."""

import cmath
import math
import re
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import holoifs.attractor
from holoifs.attractor import (
    POINT_CAP,
    AttractorNet,
    box_restriction,
    cardinality_bound,
    certify_ssc,
    certify_strong_osc,
    compute_net,
    hausdorff,
    hutchinson_defect,
    rho_radius,
    _grid_dedup,
    _refine_level,
)
from holoifs.errors import BudgetExceeded, DomainError, SeparationFailure
from holoifs.geometry import hyp_ball_inradius, pseudo_hyperbolic
from holoifs.maps import Affine, Disk, IfsSystem, SqrtBranch
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
        centers, radii = _refine_level(thirds, centers, radii)
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
    calls = []

    def spy(w1, w2):
        calls.append(np.size(w2))
        return pseudo_hyperbolic(w1, w2)

    monkeypatch.setattr(holoifs.attractor, "pseudo_hyperbolic", spy)
    rho_radius(system, net)
    pairs = 8 * 7 // 2
    # one nearest-neighbour evaluation per image pair; candidate evaluations
    # only for the pairs whose balls hold a point, which is not all of them
    assert calls.count(len(net)) >= pairs
    assert pairs < len(calls) < 2 * pairs


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
    system = IfsSystem(tuple(maps), Disk(0.0, least * (1.0 + hug) + 1e-3))
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
    assert net.is_degenerate
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
        centers, radii = _refine_level(system, centers, radii)
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


def _assert_matches_level_by_level(system, epsilon, point_cap=POINT_CAP, block=8):
    """Depth-first ``compute_net`` with ``block``-cylinder levels equals the oracle.

    Returns whether the depth-first walk ran.
    """
    expected = _net_outcome(_level_by_level_net, system, epsilon, point_cap)
    walks = []

    def spy(*args):
        walks.append(args)
        return depth_first(*args)

    depth_first = holoifs.attractor._depth_first_net
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(holoifs.attractor, "NET_BLOCK", block)
        mp.setattr(holoifs.attractor, "_depth_first_net", spy)
        assert _net_outcome(compute_net, system, epsilon, point_cap) == expected
    return bool(walks)


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
    maps = []
    for _ in range(data.draw(st.integers(2, 4), label="maps")):
        ratio = data.draw(st.floats(0.05, 0.5))
        angle = data.draw(st.floats(0.0, 2 * math.pi))
        shift = complex(data.draw(st.floats(-1.0, 1.0)), data.draw(st.floats(-1.0, 1.0)))
        maps.append(Affine(ratio * cmath.exp(1j * angle), shift))
    least = max(abs(g.b) / (1.0 - abs(g.alpha)) for g in maps)
    system = IfsSystem(tuple(maps), Disk(0.0, least + 0.1))
    eps = data.draw(st.floats(1e-3, 0.5), label="eps") * system.domain.radius
    # the cap turns the largest draws into BudgetExceeded, on both sides
    _assert_matches_level_by_level(system, eps, point_cap=2**14)


def test_nonuniform_net_memory():
    system = IfsSystem((Affine(0.5, 0.0), Affine(0.05, 0.95)), Disk(0.5, 2.0))
    tracemalloc.start()
    try:
        net = compute_net(system, 1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # whole levels held all 2**23 depth-23 cylinders: a 672 MB peak
    assert (net.depth, len(net)) == (23, 1864)
    assert peak < 32 * 2**20
