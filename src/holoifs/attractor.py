"""Attractor nets and separation certificates.

The net construction propagates certified disk enclosures of cylinder sets:
the image of a disk under each map variant is contained in a closed-form
disk, so after enough refinement every cylinder disk has radius below the
requested resolution and its center is a point of the net.  This yields a
Hausdorff-distance guarantee without evaluating the maps on the attractor
itself.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from itertools import chain

import numpy as np
from scipy.spatial import cKDTree

from .errors import BudgetExceeded, SeparationFailure
from .geometry import hyp_ball_inradius, pseudo_hyperbolic, pseudo_hyperbolic_ball
from .maps import Disk, IfsSystem

#: default cap on the number of cylinder disks per refinement level
POINT_CAP = 10**7

#: the largest level :func:`compute_net` builds whole; deeper levels are
#: walked in blocks of that many cylinders
NET_BLOCK = 2**15

#: relative and absolute (unit-disk) widening of the KD query disks in
#: :func:`rho_radius`; rounding in the distance, the disk formula and the KD
#: distance test moves a ball boundary by far less, so the minimising pair
#: is never dropped
BALL_SLACK = 1e-9


@dataclass(frozen=True)
class AttractorNet:
    """Finite point set within ``epsilon`` Hausdorff distance of an attractor."""

    points: np.ndarray
    epsilon: float
    depth: int

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.complex128)
        object.__setattr__(self, "points", pts)
        if pts.size == 0:
            raise ValueError("a net must contain at least one point")
        if not np.all(np.isfinite(pts.real) & np.isfinite(pts.imag)):
            raise ValueError("net points must be finite")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be finite and positive, got {self.epsilon!r}")
        if pts.size < 2:
            warnings.warn("net has fewer than 2 points; the attractor is degenerate")

    def __len__(self) -> int:
        return int(self.points.size)

    @property
    def is_degenerate(self) -> bool:
        return self.points.size < 2

    @property
    def xy(self) -> np.ndarray:
        """Points as an ``(n, 2)`` real array, for spatial indexing."""
        return _xy(self.points)

    def diameter(self, directions: int = 512) -> float:
        """Diameter of the point set.

        Exact over the points that are extreme in ``directions`` sampled
        directions; the relative error is below ``1 - cos(pi/directions)``.
        """
        angles = np.pi * np.arange(directions) / directions
        proj = np.real(self.points[:, None] * np.exp(-1j * angles)[None, :])
        idx = np.unique(np.concatenate((np.argmax(proj, axis=0), np.argmin(proj, axis=0))))
        cand = self.points[idx]
        return float(np.max(np.abs(cand[:, None] - cand[None, :])))


@dataclass(frozen=True)
class SeparationCertificate:
    """Numerical evidence for a separation condition.

    ``margin`` discounts the net resolution: a positive margin certifies the
    condition for the true attractor, a non-positive margin is inconclusive.
    """

    kind: str
    pairwise_distance: float
    margin: float
    osc_set: tuple[Disk, ...] | None = None
    checks: dict = field(default_factory=dict)

    @property
    def valid(self) -> bool:
        return self.margin > 0.0


def _refine_level(system: IfsSystem, centers: np.ndarray, radii: np.ndarray):
    """One Hutchinson refinement step, merged in map-index order."""
    parts = [g.enclosure_arrays(centers, radii) for g in system.maps]
    return (
        np.concatenate([p[0] for p in parts]),
        np.concatenate([p[1] for p in parts]),
    )


def _grid_dedup(points: np.ndarray, cell: float) -> np.ndarray:
    """Keep the first point in each square grid cell, then sort.

    Only first occurrences survive, so any subsequence of ``points`` that
    keeps every first occurrence, in order, gives the same result, such as
    the run starts of :func:`_run_starts`.
    """
    keys = np.stack(
        (np.floor(points.real / cell).astype(np.int64),
         np.floor(points.imag / cell).astype(np.int64)),
        axis=1,
    )
    _, first = np.unique(keys, axis=0, return_index=True)
    kept = points[np.sort(first)]
    order = np.lexsort((kept.imag, kept.real))
    return kept[order]


def _run_starts(points: np.ndarray, cell: float) -> np.ndarray:
    """Row 0 and every row whose grid cell differs from the previous row's.

    A row in its predecessor's cell is not the first in its cell.  Cells are
    compared as floats, before :func:`_grid_dedup`'s integer cast: rows with
    equal floats have equal keys, so this keeps a superset of the integer
    run starts.
    """
    # run starts are taken before the level is known to be the last; only
    # the last level's overflow of the grid is reported, by _grid_dedup
    with np.errstate(all="ignore"):
        kr = np.floor(points.real / cell)
        ki = np.floor(points.imag / cell)
    starts = np.ones(len(points), dtype=bool)
    starts[1:] = (kr[1:] != kr[:-1]) | (ki[1:] != ki[:-1])
    return points[starts]


def _check_budget(cylinders: int, point_cap: int, depth: int) -> None:
    """Raise unless the ``cylinders`` of level ``depth + 1`` fit in ``point_cap``."""
    if cylinders > point_cap:
        raise BudgetExceeded(
            f"net refinement needs more than {point_cap} cylinders at depth {depth + 1}"
        )


def compute_net(system: IfsSystem, epsilon: float, point_cap: int = POINT_CAP) -> AttractorNet:
    """Uniform-depth epsilon-net of the attractor of ``system``.

    Refines cylinder enclosures until every cylinder disk has radius at most
    ``epsilon/4``, then removes duplicates on a grid of cell ``epsilon/4``.
    The combined covering error stays below ``epsilon``.  The depth is the
    first level whose largest radius is at most ``epsilon/4``; a level of
    more than ``point_cap`` cylinders raises :class:`BudgetExceeded`.

    Levels are built whole while they hold at most ``NET_BLOCK`` cylinders.
    Deeper levels are walked depth first in blocks of the last such level
    (:func:`_blocks`), and only the run starts of the last level's blocks are
    kept (:func:`_depth_first_net`), so memory stays near one block per
    level.  Depth, points and their order are those of whole levels, and
    ``point_cap`` still limits the cylinders of each level.
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be finite and positive, got {epsilon!r}")
    target = epsilon / 4.0
    m = len(system.maps)
    centers = np.array([system.domain.center], dtype=np.complex128)
    radii = np.array([system.domain.radius], dtype=np.float64)
    depth = 0
    while float(np.max(radii)) > target:
        _check_budget(len(centers) * m, point_cap, depth)
        if len(centers) * m > NET_BLOCK:
            return _depth_first_net(system, epsilon, point_cap, centers, radii, depth)
        centers, radii = _refine_level(system, centers, radii)
        depth += 1
    points = _grid_dedup(centers, target)
    return AttractorNet(points, epsilon, depth)


def _blocks(maps, centers: np.ndarray, radii: np.ndarray, depth: int):
    """Yield ``(place, centers, radii)`` for the blocks ``depth`` levels down.

    Block ``(a_1 .. a_j)`` is ``E_a1(..(E_aj(base)))``.  Its place in the
    whole level is the base-``m`` number ``a_1 .. a_j``, outer letter most
    significant as in :func:`_refine_level`, so the map applied ``s``-th
    has place value ``m**s``.  Depth first: one block per level is alive.
    """
    if depth == 0:
        yield 0, centers, radii
        return
    m = len(maps)
    for a, g in enumerate(maps):
        for place, c, r in _blocks(maps, *g.enclosure_arrays(centers, radii), depth - 1):
            yield a + m * place, c, r


def _depth_first_net(system, epsilon, point_cap, centers, radii, base_depth) -> AttractorNet:
    """:func:`compute_net` below a base level whose largest radius exceeds ``epsilon/4``.

    No level is computed that the whole-level loop would not reach.  The
    radii along a greedy chain, the largest child of the largest cylinder,
    bound each level's maximum from below, so the level after one whose
    bound exceeds ``epsilon/4`` is sure to be reached.  The blocks are
    walked that deep; the largest radius of that level decides whether it
    is the last, and else its largest cylinder starts the next chain and
    the walk is repeated deeper.  Of the last level only each block's run
    starts are kept: in level order they hold every first occurrence of a
    grid cell, so :func:`_grid_dedup` of them is that of the whole level.
    """
    target = epsilon / 4.0
    maps = system.maps
    m, n = len(maps), len(centers)
    top = int(np.argmax(radii))
    c, r = centers[top : top + 1], radii[top : top + 1]
    depth = 0
    while True:
        while float(r[0]) > target and n * m ** (depth + 1) <= point_cap:
            children = [g.enclosure_arrays(c, r) for g in maps]
            c, r = children[int(np.argmax([rr[0] for _, rr in children]))]
            depth += 1
        pieces = [None] * m**depth
        level_max = -np.inf
        for place, bc, br in _blocks(maps, centers, radii, depth):
            pieces[place] = _run_starts(bc, target)
            i = int(np.argmax(br))  # a NaN radius, if any, as np.max finds it
            level_max = np.maximum(level_max, br[i])
            if br[i] == level_max:
                c, r = bc[i : i + 1], br[i : i + 1]
        if not level_max > target:
            points = _grid_dedup(np.concatenate(pieces), target)
            return AttractorNet(points, epsilon, base_depth + depth)
        _check_budget(n * m ** (depth + 1), point_cap, base_depth + depth)


def _as_points(obj) -> np.ndarray:
    if isinstance(obj, AttractorNet):
        return obj.points
    return np.asarray(obj, dtype=np.complex128)


def _xy(points: np.ndarray) -> np.ndarray:
    """Complex points as an ``(n, 2)`` real array, for spatial indexing."""
    return np.column_stack((points.real, points.imag))


def _nearest_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance from each point of ``a`` to its nearest point of ``b``."""
    d, _ = cKDTree(_xy(b)).query(_xy(a), k=1)
    return d


def hausdorff(a, b) -> float:
    """Hausdorff distance between two finite point sets (or nets)."""
    pa, pb = _as_points(a), _as_points(b)
    return float(max(np.max(_nearest_distances(pa, pb)), np.max(_nearest_distances(pb, pa))))


def hutchinson_defect(system: IfsSystem, net: AttractorNet) -> float:
    """Hausdorff distance between the net and its own Hutchinson image."""
    images = np.concatenate([g(net.points) for g in system.maps])
    return hausdorff(net.points, images)


def certify_ssc(system: IfsSystem, net: AttractorNet) -> SeparationCertificate:
    """Strong-separation certificate from pairwise image distances.

    The margin subtracts twice the worst first-level Lipschitz constant times
    the net resolution, which bounds how far the sampled images can sit from
    the true pieces of the attractor.
    """
    images = [g(net.points) for g in system.maps]
    pairwise = math.inf
    for i in range(len(images)):
        for j in range(i + 1, len(images)):
            pairwise = min(pairwise, float(np.min(_nearest_distances(images[i], images[j]))))
    if not math.isfinite(pairwise):
        pairwise = 0.0  # single-map system: nothing to separate
    lip = max(float(np.max(np.abs(g.deriv(net.points)))) for g in system.maps)
    margin = pairwise - 2.0 * lip * net.epsilon
    return SeparationCertificate(
        kind="SSC",
        pairwise_distance=pairwise,
        margin=margin,
        checks={"lipschitz": lip, "epsilon": net.epsilon},
    )


def certify_strong_osc(
    system: IfsSystem, disks, net: AttractorNet, samples: int = 256
) -> SeparationCertificate:
    """Certificate for the strong open-set condition with a disk-union set.

    Three sampled checks: the net meets the union, each map sends every disk
    into the union (boundary samples with margin), and images of the union
    under distinct maps are disjoint (via certified disk enclosures).
    """
    disks = tuple(disks)
    if not disks:
        raise ValueError("need at least one candidate disk")

    def union_margin(pts: np.ndarray) -> float:
        best = np.full(pts.shape, -math.inf)
        for d in disks:
            best = np.maximum(best, d.radius - np.abs(pts - d.center))
        return float(np.min(best))

    inside = np.full(net.points.shape, -math.inf)
    for d in disks:
        inside = np.maximum(inside, d.radius - np.abs(net.points - d.center))
    meets_margin = float(np.max(inside))

    containment = math.inf
    for g in system.maps:
        for d in disks:
            containment = min(containment, union_margin(g(d.boundary(samples))))
            containment = min(containment, union_margin(np.array([g(d.center)])))

    enclosures = [[g.image_enclosure(d) for d in disks] for g in system.maps]
    gap = math.inf
    for i in range(len(system.maps)):
        for j in range(i + 1, len(system.maps)):
            for ei in enclosures[i]:
                for ej in enclosures[j]:
                    gap = min(gap, abs(ei.center - ej.center) - ei.radius - ej.radius)
    if not math.isfinite(gap):
        gap = 0.0

    margin = min(meets_margin, containment, gap)
    return SeparationCertificate(
        kind="StrongOSC",
        pairwise_distance=max(gap, 0.0),
        margin=margin,
        osc_set=disks,
        checks={
            "net_meets_set": meets_margin,
            "containment": containment,
            "image_disjointness": gap,
        },
    )


def rho_radius(
    system: IfsSystem, net: AttractorNet, cert: SeparationCertificate | None = None
) -> tuple[float, float]:
    """Hyperbolic separation radius and its Euclidean inradius floor.

    Returns ``(rho_h, rho_g)`` where ``rho_h`` is the minimal hyperbolic
    distance (in the domain disk) between distinct first-level images of the
    net, and ``rho_g`` the smallest Euclidean radius such that the hyperbolic
    ``rho_h``-ball around any net point contains the round ball of that
    radius.  Requires a valid strong-separation certificate; ``cert`` is
    computed when not supplied.  Every image point must lie inside the
    domain disk, else :class:`SeparationFailure` names the first that does not.

    The minimum is exact, without an all-pairs scan.  For each pair of
    images, the pseudo-hyperbolic distances from the points ``u`` of one to
    their Euclidean nearest neighbours in the other, and the minimum of the
    earlier pairs, bound the minimum by some ``t``.  The pseudo-hyperbolic
    ``t``-ball about ``u`` is a Euclidean disk (:func:`pseudo_hyperbolic_ball`),
    so a KD fixed-radius query over those disks, widened by ``BALL_SLACK``
    against rounding, gathers every pair at distance at most ``t``: the
    minimising pair is among them, and the distance is evaluated on those
    pairs only.  A disk that lies nearer ``u`` than ``u``'s nearest neighbour
    holds none of them and is not queried.
    """
    cert = cert if cert is not None else certify_ssc(system, net)
    if not cert.valid:
        raise SeparationFailure(
            f"strong separation not certified (margin {cert.margin:.3e})"
        )
    c, radius = system.domain.center, system.domain.radius
    images = [(g(net.points) - c) / radius for g in system.maps]
    for k, w in enumerate(images):
        outside = np.flatnonzero(np.abs(w) >= 1.0)
        if outside.size:
            z = complex(system.maps[k](net.points[outside[0]]))
            raise SeparationFailure(f"image point {z} of map {k} is not inside the domain disk")
    xys = [_xy(w) for w in images]
    trees = [cKDTree(xy) for xy in xys]
    best = math.inf
    for i, u in enumerate(images):
        for j in range(i + 1, len(images)):
            v, tree = images[j], trees[j]
            dist, nearest = tree.query(xys[i], k=1)
            best = min(best, float(np.min(pseudo_hyperbolic(u, v[nearest]))))
            centers, radii = pseudo_hyperbolic_ball(u, best)
            radii = radii * (1.0 + BALL_SLACK) + BALL_SLACK
            reach = np.flatnonzero(dist <= np.abs(centers - u) + radii)
            near = tree.query_ball_point(_xy(centers[reach]), radii[reach])
            counts = np.fromiter(map(len, near), dtype=np.intp, count=len(near))
            rows = np.repeat(reach, counts)
            cols = np.fromiter(chain.from_iterable(near), dtype=np.intp, count=len(rows))
            if rows.size:
                best = min(best, float(np.min(pseudo_hyperbolic(u[rows], v[cols]))))
    rho_h = math.atanh(best)
    rho_g = float(np.min(hyp_ball_inradius(system.domain, net.points, rho_h)))
    return rho_h, rho_g


def _bounding_disk(points: np.ndarray, pad: float) -> Disk:
    center = complex(
        0.5 * (points.real.min() + points.real.max()),
        0.5 * (points.imag.min() + points.imag.max()),
    )
    radius = float(np.max(np.abs(points - center))) + pad
    return Disk(center, radius)


def box_restriction(
    system: IfsSystem,
    net: AttractorNet,
    eps_target: float,
    point_cap: int = POINT_CAP,
) -> list[Disk]:
    """Disk cover of the net by cylinder enclosures of small diameter.

    The returned disks cover every net point, each has diameter below
    ``eps_target``, each image under a system map lands inside a single
    cover disk, and disks whose cylinder words start with different letters
    are pairwise disjoint.  This is the sampled stand-in for a box-like
    restriction neighborhood.
    """
    if not (math.isfinite(eps_target) and eps_target > 0):
        raise ValueError(f"eps_target must be finite and positive, got {eps_target!r}")
    eps = net.epsilon
    base = _bounding_disk(net.points, eps)
    centers = np.array([base.center], dtype=np.complex128)
    radii = np.array([base.radius], dtype=np.float64)
    m = len(system.maps)
    depth = 0
    while True:
        padded = radii + eps
        if float(np.max(padded)) * 2.0 < eps_target and _box_checks_pass(
            system, net, centers, padded, depth, m
        ):
            return [Disk(c, r) for c, r in zip(centers, padded)]
        if len(centers) * m > point_cap:
            raise BudgetExceeded("box restriction exceeded the cylinder budget")
        centers, radii = _refine_level(system, centers, radii)
        depth += 1
        if depth > 64:
            raise BudgetExceeded("box restriction failed to stabilize at depth 64")


def _box_checks_pass(system, net, centers, radii, depth, m) -> bool:
    # cover check: every net point inside some disk
    dist = np.abs(net.points[:, None] - centers[None, :]) - radii[None, :]
    if np.any(np.min(dist, axis=1) >= 0):
        return False
    # images of every disk under every map fit inside a single cover disk
    for g in system.maps:
        ic, ir = g.enclosure_arrays(centers, radii)
        fits = np.abs(ic[:, None] - centers[None, :]) + ir[:, None] <= radii[None, :]
        if not np.all(np.any(fits, axis=1)):
            return False
    # disks from different leading letters must not intersect
    if depth >= 1:
        block = len(centers) // m
        for i in range(m):
            ci = centers[i * block : (i + 1) * block]
            ri = radii[i * block : (i + 1) * block]
            for j in range(i + 1, m):
                cj = centers[j * block : (j + 1) * block]
                rj = radii[j * block : (j + 1) * block]
                gap = np.abs(ci[:, None] - cj[None, :]) - ri[:, None] - rj[None, :]
                if np.min(gap) <= 0:
                    return False
    return True


def cardinality_bound(r: float, diam: float) -> int:
    """Upper bound on the size of an ``r/2``-separated subset of the attractor.

    Packing count for disks of radius ``r/(2*diam)`` (after rescaling the
    attractor to unit diameter) inside the concentrically fattened unit disk.
    """
    if r <= 0 or diam <= 0:
        raise ValueError("radius and diameter must be positive")
    q = r / (2.0 * diam)
    return int(math.floor(((1.0 + q) / q) ** 2))
