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

import numpy as np

from .errors import BudgetExceeded, DomainError, SeparationFailure
from .geometry import hyp_ball_inradius, pseudo_hyperbolic, pseudo_hyperbolic_ball
from .maps import Affine, Disk, Exact, IfsSystem, circle, modulus, rowwise
from .tolerances import BALL_SLACK, ROUNDING_PAD

#: default cap on the number of cylinder disks per refinement level
POINT_CAP = 10**7

#: the largest level :func:`compute_net` builds whole; deeper levels are
#: walked in blocks of that many cylinders.  Smaller blocks have smaller chain
#: disks, so more (block, group) pairs freeze, but cost more Python per
#: cylinder: on {0.5z, 0.05z + 0.95} at epsilon 1e-6, 2**11, 2**12 and 2**13
#: froze 95.7%, 95.0% and 93.1% of the pairs, and took 17.5, 12.7 and 16.2 ms
#: (medians of 9 processes on a shared 2-vCPU host)
NET_BLOCK = 2**12

#: the base level of the walk splits into the most groups of rows, a power of
#: m, up to NET_GROUPS, each frozen on its own: on the same net, 2, 4, 8, 16
#: and 32 groups froze 87.7%, 93.0%, 95.0%, 95.7% and 96.0% of the pairs, and
#: took 23.4, 14.5, 12.7, 12.2 and 12.7 ms (the same runs); the chain refines
#: 2 * groups rows per block, so a fixed power of m would grow it with m
NET_GROUPS = 8

#: rows of the freeze chain refined breadth first at once: on the same net's
#: 32,768 chain rows, chunks of 2**12, 2**13 and 2**14 rows and the whole chain
#: took 0.99, 0.76, 0.59 and 1.12 ms and peaked at 0.57, 0.80, 1.27 and 2.21 MiB
NET_CHUNK = 2**14

#: cylinders per level that bound a level's largest radius from below
NET_BEAM = 8

#: most points in a leaf of a :class:`PointIndex`, and the rows that
#: :func:`_farthest` and :func:`_closest` ask the index first
LEAF_SIZE = 8

#: a :class:`PointIndex` query tests at most about this many (row, box) pairs
#: on the level where it starts and scans about as many (row, point) pairs on
#: the level where it stops: small batches start lower and stop higher
SCAN_PAIRS = 1024

#: rows answered together by :meth:`PointIndex.nearest`, which bounds its
#: working memory
QUERY_ROWS = 2**16


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


@dataclass(frozen=True)
class SeparationCertificate:
    """Numerical evidence for a separation condition.

    ``margin`` discounts the net resolution: a positive margin certifies the
    condition for the true attractor, a non-positive margin is inconclusive.
    An SSC certificate carries its ``net``, the images ``g_i(net)``, one
    :class:`PointIndex` over each (the only index of those points) and, for
    each pair ``i < j``, one ``closest`` pair ``(distance, row, index)``: a
    point of image ``i`` and its nearest point in image ``j`` at the least
    distance between the two images; a StrongOSC one has none of them.
    """

    kind: str
    pairwise_distance: float
    margin: float
    checks: dict = field(default_factory=dict)
    images: tuple[np.ndarray, ...] = field(default=(), repr=False, compare=False)
    trees: tuple = field(default=(), repr=False, compare=False)
    closest: dict = field(default_factory=dict, repr=False, compare=False)
    net: AttractorNet | None = field(default=None, repr=False, compare=False)

    @property
    def valid(self) -> bool:
        return self.margin > 0.0

    def require_trees(self, net: AttractorNet, failure: str) -> None:
        """Raise unless the certificate is valid, has image trees and was made from ``net``."""
        if not self.valid:
            raise SeparationFailure(f"{failure} (margin {self.margin:.3e})")
        if not self.trees:
            raise SeparationFailure(f"a {self.kind} certificate carries no image trees")
        if self.net is not net:
            raise ValueError("the certificate was made from another net")


def refine_level(system: IfsSystem, centers: np.ndarray, radii: np.ndarray):
    """One Hutchinson refinement step, merged in map-index order."""
    parts = [g.enclosure_arrays(centers, radii) for g in system.maps]
    return (
        np.concatenate([p[0] for p in parts]),
        np.concatenate([p[1] for p in parts]),
    )


def self_enclosed(system: IfsSystem) -> bool:
    """Whether every map's enclosure of the domain ``D = B(c0, R)`` lies inside ``D``.

    Enclosures are monotone, so every enclosure of a disk inside ``D`` then
    lies inside ``D`` too, and a map's Lipschitz bound on ``D``, its
    enclosure radius of ``D`` over ``R``, is at most 1.  A square-root cut
    that meets ``D`` raises :class:`DomainError`.
    """
    c0, radius = system.domain.center, system.domain.radius
    dc, dr = refine_level(system, np.array([c0]), np.array([radius]))
    return bool(np.all(np.abs(dc - c0) + dr <= radius))


def first_per_key(*keys: np.ndarray) -> np.ndarray:
    """The rows, in order, that hold the first occurrence of each tuple of float keys.

    One stable lexsort, then the first row of each run of equal keys.  Keys
    compare as floats: -0.0 equals 0.0, and integral floats compare as
    Python's integers do at every magnitude, where an int64 cast fails
    beyond 2**63.
    """
    order = np.lexsort(keys[::-1])
    first = np.zeros(len(order), dtype=bool)
    first[:1] = True
    for key in keys:
        ranked = key[order]
        first[1:] |= ranked[1:] != ranked[:-1]
    return np.sort(order[first])


def _grid_dedup(points: np.ndarray, cell: float) -> np.ndarray:
    """Keep the first point in each square grid cell, then sort.

    Only first occurrences survive, so any subsequence of ``points`` that
    keeps every first occurrence, in order, gives the same result, such as
    the run starts of :func:`_run_starts`.
    """
    kept = points[first_per_key(np.floor(points.real / cell), np.floor(points.imag / cell))]
    return np.sort_complex(kept)


def _run_starts(points: np.ndarray, cell: float, real: bool) -> np.ndarray:
    """Flag, in each row of ``points``, column 0 and each point in another grid cell than its left neighbour.

    A point in its predecessor's cell is not the first in its cell.  Cells
    are compared by the float keys of :func:`_grid_dedup`; when ``real``,
    every imaginary part is +-0 and its key is not compared.
    """
    starts = np.zeros(points.shape, dtype=bool)
    flat = starts.reshape(-1)
    # run starts are taken before the level is known to be the last; only
    # the last level's overflow of the grid is reported, by _grid_dedup
    with np.errstate(all="ignore"):
        for part in (points.real,) if real else (points.real, points.imag):
            key = np.floor(part / cell).reshape(-1)
            flat[1:] |= key[1:] != key[:-1]
    starts[:, :1] = True
    return starts


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

    Levels are built whole while the next holds at most ``NET_BLOCK``
    cylinders.  From the last such level on, the base level, levels are
    walked depth first in blocks of it (:func:`_blocks`), and only run
    starts of the last level are kept (:func:`_depth_first_net`), so memory
    stays near one block per level.  The base level splits into groups of
    contiguous rows, the cylinders that share their outermost letters.  A
    (last-level block, group) pair whose cylinders provably share one grid
    cell is frozen, and only its first row is computed
    (:func:`_frozen_groups`): enclosures are monotone and every cylinder of
    group ``k`` lies in its bounding disk ``B_k``, so the pair's chain disk
    ``E_u(B_k)`` holds all its cylinders, and when that disk, padded for
    rounding, lies in one cell, the first row is the pair's only run start.
    The pad's bound needs every map to send the domain into itself and every
    ``B_k`` to lie in the domain, else nothing freezes.  The walk refines
    only the rows of the groups that are unfrozen somewhere below a block,
    and skips a subtree where every pair is frozen.  On real affine systems
    with a real base level the imaginary axis is exactly +-0 and is neither
    tested nor compared.  Depth, points and their order are those of whole
    levels, and ``point_cap`` still limits the cylinders of each level.
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be finite and positive, got {epsilon!r}")
    m = len(system.maps)
    centers = np.array([system.domain.center], dtype=np.complex128)
    radii = np.array([system.domain.radius], dtype=np.float64)
    depth = 0
    while float(np.max(radii)) > epsilon / 4.0 and len(centers) * m <= NET_BLOCK:
        _check_budget(len(centers) * m, point_cap, depth)
        centers, radii = refine_level(system, centers, radii)
        depth += 1
    return _depth_first_net(system, epsilon, point_cap, centers, radii, depth)


def _live_tree(frozen: np.ndarray, m: int) -> list:
    """Per level ``d`` below the base, by subtree place: its live groups, and whether it has any.

    ``frozen`` flags the last level's (block, group) pairs.  Level ``d``'s
    entry is the flags, by place and group, of the groups unfrozen in some
    block of the subtree, and, by place, 0 if it has none, 1 if they are its
    parent's, else 2.
    """
    live = [~frozen]
    while len(live[0]) > 1:
        live.insert(0, live[0].reshape(m, -1, frozen.shape[1]).any(axis=0))
    tree = []
    for flags, parent in zip(live, live[:1] + live):
        same = (flags == np.tile(parent, (len(flags) // len(parent), 1))).all(axis=1)
        tree.append((flags, (flags.any(axis=1) * (2 - same)).tolist()))
    return tree


def _blocks(system: IfsSystem, centers: np.ndarray, radii: np.ndarray, tree: list, groups: np.ndarray,
            level: int = 0, place: int = 0):
    """Yield ``(place, groups, centers, radii)`` for each last-level block with a live group.

    Row ``k`` of ``centers`` and ``radii`` holds base group ``groups[k]``.
    Block ``(a_1 .. a_j)`` is ``E_a1(..(E_aj(base)))``.  Its place in the
    whole level is the base-``m`` number ``a_1 .. a_j``, outer letter most
    significant as in :func:`refine_level`, so the map applied ``s``-th has
    place value ``m**s``.  ``tree`` is :func:`_live_tree`'s: only the rows
    of a subtree's live groups are refined, and a subtree with none is not.
    Depth first: one block per level is alive.
    """
    if level == len(tree) - 1:
        yield place, groups, centers, radii
        return
    flags, codes = tree[level + 1]
    step = len(system.maps) ** level
    for a, g in enumerate(system.maps):
        child = place + a * step
        if codes[child]:
            keep = slice(None) if codes[child] == 1 else flags[child, groups]
            children = g.enclosure_arrays(centers[keep], radii[keep])
            yield from _blocks(system, *children, tree, groups[keep], level + 1, child)


def _frozen_groups(system: IfsSystem, centers: np.ndarray, radii: np.ndarray, target: float,
                   depth: int, real: bool) -> tuple[np.ndarray, np.ndarray]:
    """Flag, by place and base group, the groups of the blocks ``depth`` levels down that share a grid cell.

    Row ``k`` of ``centers`` and ``radii`` holds base group ``k``.  Returns
    the flags and the first leaf (last-level cylinder) centre of each
    (block, group), both of shape ``(m**depth, groups)``.  One chain of
    enclosures is refined ``depth`` times from ``2 * groups`` rows: the
    bounding disk ``B_k`` of each group, and each group's first cylinder.
    Block ``u`` gets the chain disks ``E_u(B_k)`` and ``E_u(first_k)``,
    which has the bits of the walk's first row of group ``k`` in the block,
    since enclosures are elementwise.  The chain is refined over its first
    letters, then each place of them on its own, breadth first in chunks of
    at most ``NET_CHUNK`` rows; only the flags and first rows are kept.
    Nothing freezes less than two levels down (see :func:`_depth_first_net`).

    Every variant's enclosure is monotone: a disk inside another has its
    enclosure inside the other's.  Every cylinder of group ``k`` lies in
    ``B_k``, so every leaf of the group in block ``u`` lies in ``E_u(B_k)``.
    The group is frozen there when that disk, padded for rounding, lies in
    one grid cell on each axis: every such leaf is then in the first one's
    cell, so the first is the group's only run start in the block.  A disk
    inside a cell of side ``target`` has radius below ``target/2``, and so
    has each leaf, so a frozen group never decides whether the level is the
    last or where the walk restarts.  If the chain raised (the branch-cut
    test of a square-root map), nothing is frozen; else no cylinder above a
    leaf meets a cut either.  The whole-block test is ``groups == 1``.

    The pad: an enclosure step rounds a centre by a few units in the last
    place of the moduli it meets.  Nothing is frozen unless every map's
    enclosure of the domain ``D = B(c0, R)`` lies inside ``D`` and every
    ``B_k`` lies inside ``D``.  Those moduli are then at most ``|c0| + R``,
    and a map's Lipschitz bound on ``D``, its enclosure radius of ``D`` over
    ``R``, is at most 1, so an error carried into a step does not grow.  A
    leaf takes ``depth`` steps from its base cylinder as computed, which
    ``B_k`` holds, and the chain ``depth`` steps from ``B_k``;
    ``ROUNDING_PAD * (|c0| + R)`` for each step, one more for ``B_k`` and
    one for the cell bounds, leaves thousands of units to spare.

    Real axis (``real``): when every base centre and the coefficients of
    every map, all ``Affine``, are real, every leaf's imaginary part is
    exactly +-0.  In ``alpha*z + b``, the imaginary part of the product is
    ``Re(alpha)*Im(z) + Im(alpha)*Re(z)``, and each product has an exact
    zero factor (``Im(z)`` by induction, ``Im(alpha)`` by assumption), so it
    is +-0, and adding ``Im(b) = 0`` keeps +-0.  Every imaginary cell key is
    then 0, so that axis is not tested; without this an attractor on the
    grid line ``Im z = 0`` would never freeze.  A real centre of ``B_k`` is
    not enough: base centres at ``x + iy`` and ``x - iy`` give one.
    """
    m, groups = len(system.maps), len(centers)
    frozen = np.zeros((m**depth, groups), dtype=bool)
    first = np.zeros((m**depth, groups), dtype=np.complex128)
    if depth < 2:  # the chain would cost more than the walk it could save
        return frozen, first
    c0, radius = system.domain.center, system.domain.radius
    pad = ROUNDING_PAD * (abs(c0) + radius) * 2 * (depth + 1)
    # the first letters, refined before the chunks of the last ones
    top = depth - max((k for k in range(depth + 1) if 2 * groups * m**k <= NET_CHUNK), default=0)

    def one_cell(x, r):
        return np.floor((x - r) / target) == np.floor((x + r) / target)

    try:
        with np.errstate(all="ignore"):
            bc, br = _bounding_disks(centers, np.max(radii, axis=1))
            if not (self_enclosed(system) and np.all(np.abs(bc - c0) + br <= radius)):
                return frozen, first
            chain = np.concatenate([bc, centers[:, 0]]), np.concatenate([br, radii[:, 0]])
            for _ in range(top):
                chain = refine_level(system, *chain)
            for place, (c, r) in enumerate(zip(*(x.reshape(m**top, -1) for x in chain))):
                for _ in range(depth - top):
                    c, r = refine_level(system, c, r)
                c, r = c.reshape(-1, 2, groups), r.reshape(-1, 2, groups)[:, 0] + pad
                frozen[place :: m**top] = one_cell(c[:, 0].real, r) & (real or one_cell(c[:, 0].imag, r))
                first[place :: m**top] = c[:, 1]
    except DomainError:  # a cut
        frozen[:] = False
    return frozen, first


def _batch_starts(batch: list, cell: float, real: bool) -> tuple[np.ndarray, np.ndarray]:
    """The run starts of a batch of ``(slots, centers)`` leaf blocks, in order, and each one's slot."""
    slots, points = batch[0] if len(batch) == 1 else map(np.concatenate, zip(*batch))
    flat = np.flatnonzero(_run_starts(points, cell, real))
    return points.reshape(-1)[flat], slots[flat // points.shape[1]]


def _depth_first_net(system, epsilon, point_cap, centers, radii, base_depth) -> AttractorNet:
    """:func:`compute_net` from a base level down, in blocks of the base level.

    A base level whose largest radius is at most ``epsilon/4`` is the last
    level, walked as one block.  No level is computed that the whole-level
    loop would not reach.  A beam, the ``NET_BEAM`` largest children of the
    beam before it, starting from the base level's largest cylinders, holds
    cylinders of each level, so its largest radius bounds the level's
    maximum from below, and the level after one whose bound exceeds
    ``epsilon/4`` is sure to be reached.  The blocks are walked that deep;
    the largest radius of that level decides whether it is the last, and
    else its largest cylinder starts the next beam and the walk is repeated
    deeper.

    The base level splits into the most groups of contiguous rows, a power
    of ``m`` up to ``NET_GROUPS`` (one row each if it is smaller), the
    cylinders that share their outermost letters.  Nothing freezes less than
    two levels down, where the chain would cost more than the walk it could
    save, and a walk that freezes nothing walks whole blocks, as one
    group.  Of the last level each (block, group) pair keeps, in level order,
    the chain's first row if it is frozen (:func:`_frozen_groups`), else its
    run starts, with its first row.  Such a subsequence holds every first
    occurrence of a grid cell: in a frozen pair it is the first row, and in
    a walked one a row that is not a run start follows a row of its own
    cell.  So :func:`_grid_dedup` of it is that of the whole level.  Frozen
    first rows in the cell of the frozen row before them are dropped too;
    the walk's run starts are taken over batches of about one base level's
    rows.  Each kept row carries its pair's place in the level, its slot,
    which orders the depth-first walk's rows back into level order.  Frozen
    rows have radii below ``epsilon/8``, so they never decide the largest
    radius of a level that is not the last.
    """
    target = epsilon / 4.0
    m, n, split = len(system.maps), len(centers), 1
    while split < n and split * m <= NET_GROUPS:
        split *= m
    real = not centers.imag.any() and all(
        isinstance(g, Affine) and g.alpha.imag == 0 and g.b.imag == 0 for g in system.maps
    )
    beam = np.argsort(radii)[-NET_BEAM:]
    c, r = centers[beam], radii[beam]
    depth = 0
    while True:
        while float(np.max(r)) > target and n * m ** (depth + 1) <= point_cap:
            c, r = refine_level(system, c, r)
            beam = np.argsort(r)[-NET_BEAM:]
            c, r = c[beam], r[beam]
            depth += 1
        groups = split
        gc, gr = centers.reshape(groups, -1), radii.reshape(groups, -1)
        frozen, first = _frozen_groups(system, gc, gr, target, depth, real)
        if not frozen.any():  # nothing to skip: walk whole blocks
            groups, gc, gr, frozen, first = 1, centers[None], radii[None], frozen[:, :1], first[:, :1]
        tree, slots, first = _live_tree(frozen, m), np.flatnonzero(frozen), first[frozen]
        keep = _run_starts(first[None], target, real)[0]  # the rest follow a row of their cell
        # kept: (rows, slots) pairs, where a slot is place * groups + group
        kept, batch, rows, level_max = [(first[keep], slots[keep])], [], 0, -np.inf
        del first, slots, keep  # not held through the walk
        live = np.flatnonzero(tree[0][0][0])
        for place, ids, bc, br in _blocks(system, gc[live], gr[live], tree, live):
            i = int(np.argmax(br))  # a NaN radius, if any, as np.max finds it
            level_max = np.maximum(level_max, br.flat[i])
            if br.flat[i] == level_max:
                c, r = bc.reshape(-1)[i : i + 1], br.reshape(-1)[i : i + 1]
            batch.append((place * groups + ids, bc))
            rows += bc.size
            if rows >= n:
                kept.append(_batch_starts(batch, target, real))
                batch, rows = [], 0
        if batch:
            kept.append(_batch_starts(batch, target, real))
        if not level_max > target:
            points, slots = (np.concatenate(x) for x in zip(*kept))
            points = points[np.argsort(slots, kind="stable")]
            return AttractorNet(_grid_dedup(points, target), epsilon, base_depth + depth)
        _check_budget(n * m ** (depth + 1), point_cap, base_depth + depth)


def _as_points(obj) -> np.ndarray:
    if isinstance(obj, AttractorNet):
        return obj.points
    return np.asarray(obj, dtype=np.complex128)


def _queries(z) -> np.ndarray:
    """The points of ``z`` as the columns of ``(x, y, -x, -y)``, the queries of a :class:`PointIndex`."""
    z = np.asarray(z, dtype=np.complex128)
    if z.ndim > 1:
        raise ValueError(f"query points must be a scalar or 1-D, got shape {z.shape}")
    z = z.reshape(-1)
    q4 = np.empty((4, len(z)))
    q4[0], q4[1] = z.real, z.imag
    if not np.isfinite(q4[:2]).all():
        raise ValueError("query points must be finite")
    np.negative(q4[:2], out=q4[2:])
    return q4


class PointIndex:
    """Median-split k-d tree over a 1-D array of complex points, queried a batch at a time.

    The tree is complete and numbered in heap order: the root is node 1, the
    children of node ``h`` are ``2h`` and ``2h + 1``, and level ``l`` holds
    the nodes ``2**l + k``, node ``2**l + k`` holding the ``width >> l``
    slots of ``order`` from ``k*(width >> l)`` on.  Every node is split at
    its median into its two halves.  The last slots are pads, at
    ``+inf`` so that they sort last and are never the nearest point.  A node
    is split along the longer side of its cell (the box cut out by the
    splits above it); every other level sorts each node along that side
    once, so its children split the same way.  Each node keeps its tight
    bounding box.

    Distances are ``sqrt(dx*dx + dy*dy)`` in float arithmetic (see
    :func:`_length` for the rows whose squares overflow), and ties are equal
    distances.  Every pruning test compares a distance bound computed by the
    same float expression, and rounding is monotone, so a pruned node holds
    no point that the test on its own distance would keep: answers are
    exact, not approximate.  A distance past the largest float is inf.
    """

    def __init__(self, points: np.ndarray):
        points = np.asarray(points, dtype=np.complex128)
        if points.ndim != 1:
            raise ValueError(f"index points must be a 1-D array, got shape {points.shape}")
        n = len(points)
        if n == 0:
            raise ValueError("an index needs at least one point")
        if not np.isfinite(points).all():
            raise ValueError("index points must be finite")
        depth = 0
        while -(-n >> depth) > LEAF_SIZE:
            depth += 1
        width = -(-n >> depth) << depth
        self.n, self.depth = n, depth
        # x then y, each padded to `width` slots
        coords = np.full(2 * width, np.inf)
        coords[:n], coords[width : width + n] = points.real, points.imag
        lo = np.array([[coords[:n].min()], [coords[width : width + n].min()]])
        hi = np.array([[coords[:n].max()], [coords[width : width + n].max()]])
        slots = np.arange(width)[None, :]
        splits = [np.zeros((3, 1))]  # (axis, left child's high, right child's low) by node
        # a cell made only of pads, or wider than the largest float, has an
        # infinite side; its axis matters only to speed, never to an answer
        with np.errstate(invalid="ignore", over="ignore"):
            for level in range(depth):
                nodes, size = slots.shape
                if level % 2 == 0:
                    axis = (hi[1] - lo[1] > hi[0] - lo[0]).astype(np.intp)
                    keys = np.take(coords, slots + width * axis[:, None])
                    perm = np.argsort(keys, axis=1, kind="stable")
                    perm += (np.arange(nodes) * size)[:, None]
                    slots, keys = np.take(slots, perm), np.take(keys, perm)
                else:
                    axis = axis.repeat(2)
                    keys = keys.reshape(nodes, size)
                half = size // 2
                split = np.empty((3, nodes))
                split[0], split[1], split[2] = axis, keys[:, half - 1], keys[:, half]
                splits.append(split)
                lo, hi = lo.repeat(2, axis=1), hi.repeat(2, axis=1)
                k = np.arange(nodes)
                hi[axis, 2 * k] = split[1]
                lo[axis, 2 * k + 1] = split[2]
                slots = slots.reshape(2 * nodes, half)
        slots = slots.ravel()
        self.order = np.minimum(slots, n)  # pads read as index n
        self.px, self.py = coords[slots], coords[slots + width]
        # boxes as rows (x_lo, y_lo, -x_hi, -y_hi), leaves up; pads widen none
        sides = np.empty((4, width))
        sides[0], sides[1] = self.px, self.py
        np.negative(sides[:2], out=sides[2:])
        sides[2:, slots >= n] = np.inf
        sides = sides.reshape(4, 1 << depth, -1)
        box = sides[:, :, 0].copy()
        for j in range(1, sides.shape[2]):
            np.minimum(box, sides[:, :, j], out=box)
        boxes = [box]
        for _ in range(depth):
            boxes.insert(0, np.minimum(boxes[0][:, 0::2], boxes[0][:, 1::2]))
        # by node number; column 0 is no node
        self.splits = np.concatenate(splits, axis=1)
        self.boxes = np.concatenate([np.zeros((4, 1))] + boxes, axis=1)
        self.width = [width >> level for level in range(depth + 1)]

    def nearest(self, z) -> tuple[np.ndarray, np.ndarray]:
        """Distance to, and index of, the nearest point for each point of ``z``.

        ``z`` is a 1-D array of complex points, or one point.  Ties go to the
        lowest index.  Raises ``ValueError`` on a point that is not finite.
        """
        return self._answer(_queries(z))

    def _answer(self, q4) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`nearest` of the query columns ``q4`` (see :func:`_queries`)."""
        with np.errstate(over="ignore"):  # a difference past the largest float is inf
            if q4.shape[1] <= QUERY_ROWS:
                return self._nearest(q4)
            parts = [self._nearest(q4[:, k : k + QUERY_ROWS])
                     for k in range(0, q4.shape[1], QUERY_ROWS)]
        return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])

    def within(self, z, r) -> tuple[np.ndarray, np.ndarray]:
        """Every pair ``(row, index)`` whose distance is at most ``r`` (per row, or one for all).

        ``z`` is as for :meth:`nearest`.  Each pair comes once, in no set
        order.  Raises ``ValueError`` on a point that is not finite.
        """
        with np.errstate(over="ignore"):
            rows, index, _ = self._ball(_queries(z), r)
        return rows, index

    def _stop(self, nq: int) -> int:
        """The level whose nodes ``nq`` rows scan: the highest within ``SCAN_PAIRS``, else the leaves."""
        level = 0
        while level < self.depth and nq * self.width[level] > SCAN_PAIRS:
            level += 1
        return level

    def _gaps(self, q4, rows, nodes) -> np.ndarray:
        """Box minus query, per side: ``(x_lo - x, y_lo - y, x - x_hi, y - y_hi)``."""
        return self.boxes.take(nodes, axis=1) - q4.take(rows, axis=1)

    @staticmethod
    def _near(gaps: np.ndarray) -> np.ndarray:
        """Distance from the query to its box: zero inside; no box point is nearer."""
        near = np.maximum(gaps[:2], gaps[2:])
        np.maximum(near, 0.0, out=near)
        return _length(near[0], near[1])

    @staticmethod
    def _expand(rows, nodes, keep, deeper: bool):
        """The kept pairs, with each node replaced by its two children when ``deeper``."""
        rows, nodes = rows[keep], nodes[keep]
        if deeper:
            rows, nodes = rows.repeat(2), (2 * nodes[:, None] + (0, 1)).ravel()
        return rows, nodes

    def _scan(self, q4, rows, nodes, level):
        """Distances and slots, ``(node width, pairs)``, of the points of each pair's node."""
        size = self.width[level]
        pos = (nodes - (1 << level)) * size + np.arange(size)[:, None]
        dx = self.px.take(pos) - q4[0].take(rows)
        dy = self.py.take(pos) - q4[1].take(rows)
        return _length(dx, dy), pos

    def _ball(self, q4, r, shrink: bool = False):
        """Rows, indexes and distances of every pair within ``r`` (per row, or one for all).

        With ``shrink`` each row's radius falls, level by level, to the
        distance of the first point of every node it keeps (a pad's is inf):
        the pairs left are those within that smaller radius, which still
        holds every point nearest the row.
        """
        nq = q4.shape[1]
        r = np.broadcast_to(np.asarray(r, dtype=np.float64), (nq,))
        if shrink:
            r = r.copy()
        stop = self._stop(nq)
        rows, nodes = np.arange(nq), np.ones(nq, dtype=np.intp)
        for level in range(stop + 1):
            near = self._near(self._gaps(q4, rows, nodes))
            keep = near <= r.take(rows)
            if shrink and keep.any():
                # rows stay in increasing order, so each row's pairs are one run
                kept, first = rows[keep], (nodes[keep] - (1 << level)) * self.width[level]
                dist = _length(self.px.take(first) - q4[0].take(kept),
                               self.py.take(first) - q4[1].take(kept))
                starts = np.flatnonzero(np.diff(kept, prepend=-1))
                heads = kept.take(starts)
                r[heads] = np.minimum(r.take(heads), np.minimum.reduceat(dist, starts))
            rows, nodes = self._expand(rows, nodes, keep, level < stop)
        dist, pos = self._scan(q4, rows, nodes, stop)
        index = self.order.take(pos)
        hit = (dist <= r.take(rows)) & (index < self.n)
        return np.broadcast_to(rows, hit.shape)[hit], index[hit], dist[hit]

    def _nearest(self, q4):
        """Distance to, and lowest index of, the nearest point of each query column.

        Each row first scans its home node, and a row that the boxes and
        split planes it passed by do not settle takes the nearest point of a
        ball whose radius falls with every point it meets (:meth:`_ball`), so
        it gathers about its nearest points, not every point within the home
        node's distance.
        """
        nq = q4.shape[1]
        cols = np.arange(nq)
        # each row starts in the nearest box of the deepest level whose boxes
        # it can all test within SCAN_PAIRS (the root for large batches); the
        # other boxes of that level bound every point outside it
        top = 0
        while top < self.depth and nq << (top + 1) <= SCAN_PAIRS:
            top += 1
        near = self._near(self.boxes[:, 1 << top : 2 << top, None] - q4[:, None])
        node = near.argmin(axis=0)
        near[node, cols] = np.inf
        bound = near.min(axis=0)
        # then descends to its home node, on the side of the nearer child,
        # noting the nearest split plane it passes
        stop = max(top, self._stop(nq))
        node += 1 << top
        plane = np.full(nq, np.inf)
        for _ in range(stop - top):
            axis, left_high, right_low = self.splits.take(node, axis=1)
            c = np.where(axis, q4[1], q4[0])
            dl, dr = c - left_high, right_low - c
            right = dl > dr
            across = np.where(right, dl, dr)  # to the other child's side of the split
            np.minimum(plane, across, out=plane)
            node = 2 * node + right
        dist, pos = self._scan(q4, cols, node, stop)
        best = dist.min(axis=0)
        index = np.where(dist == best, self.order.take(pos), self.n).min(axis=0)
        # a row nearer its home point than the other boxes of the top level
        # and every split plane on its path, or else than the box of every
        # node it passed by, is done; the others take the nearest,
        # lowest-index point of their shrinking ball of that radius, which
        # holds every nearest point
        # a plane's distance as a point's, so no point beyond it is nearer
        rows = np.flatnonzero(~(best < np.minimum(bound, _length(plane, np.zeros(nq)))))
        if rows.size:
            q, home, near = q4.take(rows, axis=1), node.take(rows), bound.take(rows)
            for up in range(stop - top):
                np.minimum(near, self._near(self.boxes.take((home >> up) ^ 1, axis=1) - q), out=near)
            rows = rows[~(best.take(rows) < near)]
        if rows.size:
            hit, hit_index, hit_dist = self._ball(q4.take(rows, axis=1), best.take(rows), True)
            first = np.lexsort((hit_index, hit_dist, hit))
            first = first[np.diff(hit.take(first), prepend=-1) != 0]
            best[rows], index[rows] = hit_dist.take(first), hit_index.take(first)
        return best, index


def _length(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """``sqrt(dx*dx + dy*dy)``, and where it overflows, the same formula scaled by ``2**-600``.

    A scaled row has the bits the formula would have with an unbounded
    exponent (inf past the largest float): its small square is far below half
    an ulp of the large one, so losing it to underflow changes nothing.  So
    the distance stays monotone in ``|dx|`` and ``|dy|`` across both forms.
    Callers hold ``np.errstate(over="ignore")``.
    """
    try:
        with np.errstate(over="raise"):  # an infinite part squares to inf without overflowing
            return np.sqrt(dx * dx + dy * dy)
    except FloatingPointError:
        pass
    d = np.sqrt(dx * dx + dy * dy)
    big = np.isinf(d)
    sx, sy = np.ldexp(dx[big], -600), np.ldexp(dy[big], -600)
    d[big] = np.ldexp(np.sqrt(sx * sx + sy * sy), 600)
    return d


def hausdorff(a, b) -> float:
    """Hausdorff distance between two finite point sets (or nets).

    Each point set is indexed by a :class:`PointIndex`, and the largest
    nearest distance is asked of it only for the points that can attain it
    (:func:`_farthest`), with the first direction's maximum as the floor of
    the second: the distance is that of querying every point.  Every point
    of both sets is checked, in the order of those full queries, before any
    is picked.
    """
    za, zb = _as_points(a), _as_points(b)
    tree_b, qa = PointIndex(zb), _queries(za)
    tree_a, qb = PointIndex(za), _queries(zb)
    return _farthest(tree_a, za, qb, _farthest(tree_b, zb, qa, -math.inf))


def _farthest(tree: PointIndex, points: np.ndarray, q4: np.ndarray, floor: float) -> float:
    """The largest distance from a query column of ``q4`` to its nearest point of ``tree``, or ``floor``.

    ``tree`` indexes ``points``.  A row's nearest distance is at most its
    distance to its two neighbours in the order of ``points`` along the
    longer side of their bounding box, each the same float the index
    computes.  The index answers the ``LEAF_SIZE`` rows with the largest
    bounds, then every other row whose bound exceeds the largest distance
    found; no row left can exceed it.
    """
    with np.errstate(over="ignore"):  # a difference past the largest float is inf
        coords = (points.real, points.imag)
        axis = int(np.ptp(coords[1]) > np.ptp(coords[0]))
        order = np.argsort(coords[axis], kind="stable")
        pos = np.searchsorted(coords[axis].take(order), q4[axis])
        upper = np.full(q4.shape[1], np.inf)
        for side in (np.maximum(pos - 1, 0), np.minimum(pos, len(points) - 1)):
            near = order.take(side)
            np.minimum(upper, _length(coords[0].take(near) - q4[0], coords[1].take(near) - q4[1]),
                       out=upper)
    k = min(LEAF_SIZE, len(upper))
    top = np.argpartition(upper, -k)[-k:]
    top = top[upper.take(top) > floor]
    if not top.size:
        return floor
    found = max(floor, float(tree._answer(q4.take(top, axis=1))[0].max()))
    upper[top] = -np.inf  # answered
    rest = np.flatnonzero(upper > found)
    if rest.size:
        found = max(found, float(tree._answer(q4.take(rest, axis=1))[0].max()))
    return found


def hutchinson_defect(system: IfsSystem, net: AttractorNet) -> float:
    """Hausdorff distance between the net and its own Hutchinson image."""
    images = np.concatenate([g(net.points) for g in system.maps])
    return hausdorff(net.points, images)


def certify_ssc(system: IfsSystem, net: AttractorNet) -> SeparationCertificate:
    """Strong-separation certificate from pairwise image distances.

    The margin subtracts twice the worst first-level Lipschitz constant times
    the net resolution, which bounds how far the sampled images can sit from
    the true pieces of the attractor.  Each image ``g_i(net)`` is computed
    once and indexed by one :class:`PointIndex`; the certificate carries
    both, and each pair's closest pair (:func:`_closest`), which
    :func:`rho_radius` reads.  Every image is indexed, so every image point
    is checked, before any pair is measured.
    """
    images = tuple(g(net.points) for g in system.maps)
    trees = tuple(PointIndex(w) for w in images)
    closest = {}
    for i in range(len(images)):
        q4 = _queries(images[i])
        for j in range(i + 1, len(images)):
            closest[i, j] = _closest(trees[j], q4)
    pairwise = min((d for d, _, _ in closest.values()), default=math.inf)
    if not math.isfinite(pairwise):
        pairwise = 0.0  # single-map system: nothing to separate
    lip = max(float(np.max(np.abs(g.deriv(net.points)))) for g in system.maps)
    margin = pairwise - 2.0 * lip * net.epsilon
    return SeparationCertificate(
        kind="SSC",
        pairwise_distance=pairwise,
        margin=margin,
        checks={"lipschitz": lip, "epsilon": net.epsilon},
        images=images,
        trees=trees,
        closest=closest,
        net=net,
    )


def _box_gap(tree: PointIndex, q4: np.ndarray) -> np.ndarray:
    """Each query column's distance to the root box of ``tree``: no point of ``tree`` is nearer."""
    with np.errstate(over="ignore"):
        return tree._near(tree.boxes[:, 1, None] - q4)


def _closest(tree: PointIndex, q4: np.ndarray) -> tuple[float, int, int]:
    """A closest pair ``(distance, row, index)`` of the query columns ``q4`` and the points of ``tree``.

    A row's nearest distance is at least its :func:`_box_gap`.  The index
    answers the ``LEAF_SIZE`` rows with the least gaps, then every other row
    whose gap is below the least distance found; no row left can be nearer.
    Of the rows answered at the least distance, the lowest is taken.
    """
    def least(rows):
        dist, index = tree._answer(q4.take(rows, axis=1))
        k = np.lexsort((rows, dist))[0]
        return float(dist[k]), int(rows[k]), int(index[k])

    lower = _box_gap(tree, q4)
    k = min(LEAF_SIZE, len(lower))
    top = np.argpartition(lower, k - 1)[:k]
    pair = least(top)
    lower[top] = np.inf  # answered
    rest = np.flatnonzero(lower < pair[0])
    return min(pair, least(rest)) if rest.size else pair


def certify_strong_osc(
    system: IfsSystem, disks, net: AttractorNet, samples: int = 256
) -> SeparationCertificate:
    """Certificate for the strong open-set condition with a disk-union set.

    Three sampled checks: the net meets the union, each map sends every disk
    into the union (boundary samples with margin), and images of the union
    under distinct maps are disjoint (via certified disk enclosures).  Each
    check takes all disks at once.  The first disk that a map cannot
    evaluate raises; a ring or centre whose depth is NaN is skipped.
    """
    disks = tuple(disks)
    if not disks:
        raise ValueError("need at least one candidate disk")
    centers = np.array([d.center for d in disks], dtype=np.complex128)
    radii = np.array([d.radius for d in disks], dtype=np.float64)
    block = max(1, QUERY_ROWS // len(disks))

    def union_depth(pts: np.ndarray) -> np.ndarray:
        """Per point, its largest depth ``radius - distance`` in one of the disks.

        The points go in blocks of at most ``QUERY_ROWS`` (point, disk) cells,
        so memory stays linear in the points and in the disks.
        """
        flat = pts.reshape(-1)
        out = np.empty(flat.shape)
        for k in range(0, len(flat), block):
            out[k:k + block] = np.max(radii - np.abs(flat[k:k + block, None] - centers), axis=-1)
        return out.reshape(pts.shape)

    meets_margin = float(np.max(union_depth(net.points)))
    rings = circle(centers, radii, samples)
    depths = []
    for g in system.maps:
        ring_images, ring_errors = rowwise(g, rings)
        center_images, center_errors = rowwise(g, centers.view(Exact))  # the bits of g(d.center)
        errors = {**center_errors, **ring_errors}  # a disk's ring is mapped before its centre
        if errors:
            raise errors[min(errors)]
        depths += [np.min(union_depth(ring_images), axis=1),
                   union_depth(center_images.view(np.ndarray))]
    containment = float(np.fmin.reduce(np.concatenate(depths), initial=math.inf))

    enclosures, gap = [], math.inf
    for g in system.maps:
        cj, rj = g.enclosure_arrays(centers, radii)
        for k in np.flatnonzero(~(np.isfinite(cj) & np.isfinite(rj) & (rj > 0)))[:1]:
            Disk(cj[k], rj[k])  # raises, as the first degenerate enclosure's disk does
        for ci, ri in enclosures:
            gap = min(gap, float(np.min(modulus(ci[:, None] - cj) - ri[:, None] - rj)))
        enclosures.append((cj, rj))
    if not math.isfinite(gap):
        gap = 0.0

    margin = min(meets_margin, containment, gap)
    return SeparationCertificate(
        kind="StrongOSC",
        pairwise_distance=max(gap, 0.0),
        margin=margin,
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
    radius.  Requires a valid SSC certificate of ``system`` made from ``net``
    (one without image trees or of another net raises); it is computed when
    not supplied.  Every image point must lie inside the domain disk, else
    :class:`SeparationFailure` names the first that does not.

    The minimum is exact, without an all-pairs scan.  For each pair of
    images, the pseudo-hyperbolic distance of the certificate's closest pair
    (evaluated as a one-element array, as the candidates are), and the
    minimum of the earlier pairs, bound the minimum by some ``t``.  The
    pseudo-hyperbolic ``t``-ball about a point ``u`` of one image is a
    Euclidean disk (:func:`pseudo_hyperbolic_ball`), so a ball query of the
    other image's index over those disks, widened by ``BALL_SLACK`` against
    rounding, gathers every pair at distance at most ``t``: the minimising
    pair is among them, and the distance is evaluated on those pairs only.
    A disk that lies nearer ``u`` than the other image's bounding box
    (:func:`_box_gap`) holds none of them and is not queried.  The indexes
    hold the images in the domain ``B(c, R)``, so their distances are divided
    by ``R`` and each disk is mapped back by ``z -> c + R*z``.
    """
    cert = cert if cert is not None else certify_ssc(system, net)
    cert.require_trees(net, "strong separation not certified")
    c, radius = system.domain.center, system.domain.radius
    images = [(w - c) / radius for w in cert.images]
    for k, w in enumerate(images):
        outside = np.flatnonzero(np.abs(w) >= 1.0)
        if outside.size:
            z = complex(system.maps[k](net.points[outside[0]]))
            raise SeparationFailure(f"image point {z} of map {k} is not inside the domain disk")
    best = math.inf
    for i, u in enumerate(images):
        q4 = _queries(cert.images[i])
        for j in range(i + 1, len(images)):
            v = images[j]
            _, row, col = cert.closest[i, j]
            best = min(best, float(pseudo_hyperbolic(u[row : row + 1], v[col : col + 1])[0]))
            centers, radii = pseudo_hyperbolic_ball(u, best)
            radii = radii * (1.0 + BALL_SLACK) + BALL_SLACK * (1.0 + abs(c) / radius)
            reach = np.flatnonzero(_box_gap(cert.trees[j], q4) / radius <= np.abs(centers - u) + radii)
            rows, cols = cert.trees[j].within(c + radius * centers[reach], radius * radii[reach])
            if rows.size:
                best = min(best, float(np.min(pseudo_hyperbolic(u[reach[rows]], v[cols]))))
    rho_h = math.atanh(best)
    rho_g = float(np.min(hyp_ball_inradius(system.domain, net.points, rho_h)))
    return rho_h, rho_g


def _bounding_disks(points: np.ndarray, pad) -> tuple[np.ndarray, np.ndarray]:
    """Centre and radius of a disk around each row of ``points``: its bounding box's centre, plus ``pad``."""
    center = np.empty(len(points), dtype=np.complex128)
    parts = np.stack([points.real, points.imag])
    center.real, center.imag = 0.5 * (parts.min(axis=2) + parts.max(axis=2))
    return center, np.max(np.abs(points - center[:, None]), axis=1) + pad


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
    centers, radii = _bounding_disks(net.points[None], eps)
    Disk(centers[0], radii[0])  # a disk that is not finite raises ValueError
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
        centers, radii = refine_level(system, centers, radii)
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
    Arguments that are not finite and positive, or whose bound is not a
    finite float, raise ``ValueError``.
    """
    if not (0.0 < r < math.inf and 0.0 < diam < math.inf):
        raise ValueError(f"radius and diameter must be finite and positive, got {r!r} and {diam!r}")
    q = r / (2.0 * diam)
    try:
        return int(math.floor(((1.0 + q) / q) ** 2))
    except (ZeroDivisionError, OverflowError, ValueError) as exc:  # q underflows or overflows
        raise ValueError(f"the packing bound of r = {r!r}, diam = {diam!r} is not a finite float") from exc
