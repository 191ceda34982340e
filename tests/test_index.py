"""``attractor.PointIndex`` against ``scipy.spatial.cKDTree``, the oracle.

The oracle takes ``(n, 2)`` real arrays and the index the same points as
complex numbers.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from holoifs.attractor import PointIndex, compute_net, hausdorff
from holoifs.maps import Affine, Disk, IfsSystem
from holoifs.systems import cantor_thirds, iterate_system

coord = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
point = st.tuples(coord, coord)


def _z(xy) -> np.ndarray:
    """The rows of an ``(n, 2)`` array as complex points, bit for bit."""
    xy = np.asarray(xy, dtype=np.float64).reshape(-1, 2)
    z = np.empty(len(xy), dtype=np.complex128)
    z.real, z.imag = xy[:, 0], xy[:, 1]
    return z


def _xy(z) -> np.ndarray:
    """Complex points as the rows of an ``(n, 2)`` array, for the oracle."""
    return np.column_stack((z.real, z.imag))


def _distances(data: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Every query-to-point distance, as ``sqrt(dx*dx + dy*dy)``."""
    dx = queries[:, None, 0] - data[None, :, 0]
    dy = queries[:, None, 1] - data[None, :, 1]
    return np.sqrt(dx * dx + dy * dy)


def _sorted_pairs(rows, cols) -> np.ndarray:
    """The ``(row, col)`` pairs as one ``(k, 2)`` array in lexicographic order."""
    pairs = np.column_stack((np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)))
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


def _pairs_set(rows, cols) -> set:
    return set(zip(np.asarray(rows).tolist(), np.asarray(cols).tolist()))


def _brute(data: np.ndarray, queries: np.ndarray, radii: np.ndarray, rows: int = 256):
    """Per query, the lowest index at the least distance; the pairs within each radius;
    and whether no point sits within a relative 1e-9 of the radius."""
    lowest, pairs, clear = [], [], []
    for k in range(0, len(queries), rows):
        every = _distances(data, queries[k : k + rows])
        lowest.append(np.argmax(every == every.min(axis=1, initial=np.inf)[:, None], axis=1))
        r = radii[k : k + rows, None]
        i, j = np.nonzero(every <= r)
        pairs.append(np.column_stack((i + k, j)))
        clear.append(~np.any(np.isclose(every, r, rtol=1e-9, atol=0.0), axis=1))
    if not lowest:
        return np.empty(0, dtype=np.intp), np.empty((0, 2), dtype=np.intp), np.empty(0, bool)
    return np.concatenate(lowest), np.concatenate(pairs), np.concatenate(clear)


def _agree(data: np.ndarray, queries: np.ndarray, radii: np.ndarray) -> None:
    """The index answers as cKDTree does, ties going to the lowest index."""
    oracle, index = cKDTree(data), PointIndex(_z(data))
    dist, idx = index.nearest(_z(queries))
    d0, i0 = oracle.query(queries, k=1)
    assert np.array_equal(dist, d0)
    assert dist.dtype == np.float64 and idx.dtype == np.intp and len(idx) == len(queries)
    if len(data) > 1:
        d2, _ = oracle.query(queries, k=2)
        unique = d2[:, 1] > d2[:, 0]
        assert np.array_equal(idx[unique], i0[unique])
    lowest, pairs, clear = _brute(data, queries, radii)
    assert np.array_equal(idx, lowest)
    rows, cols = index.within(_z(queries), radii)
    found = _sorted_pairs(rows, cols)
    assert np.array_equal(found, _sorted_pairs(pairs[:, 0], pairs[:, 1]))
    # cKDTree decides a point at float distance exactly r on its own
    # rounding; away from that boundary the two sets are equal
    lists = oracle.query_ball_point(queries, radii) if len(queries) else []
    oracle_pairs = _sorted_pairs(np.repeat(np.arange(len(lists)), [len(c) for c in lists]),
                                 np.concatenate([np.asarray(c, dtype=np.intp) for c in lists]
                                                or [np.empty(0, dtype=np.intp)]))
    assert np.array_equal(found[clear[found[:, 0]]], oracle_pairs[clear[oracle_pairs[:, 0]]])


@st.composite
def clouds(draw):
    """Points with repeats, and queries near them and far from them."""
    base = draw(st.lists(point, min_size=1, max_size=40))
    repeats = draw(st.lists(st.integers(0, len(base) - 1), max_size=40))
    data = np.array(base + [base[k] for k in repeats], dtype=np.float64)
    queries = np.array(draw(st.lists(point, max_size=30)), dtype=np.float64).reshape(-1, 2)
    near = data[draw(st.lists(st.integers(0, len(data) - 1), max_size=10))]
    return data, np.concatenate((queries, near, 10.0 * queries))


@given(clouds(), st.floats(0.0, 3.0))
@settings(max_examples=150, deadline=None)
def test_index_agrees_with_ckdtree_on_clouds_with_repeats(cloud, scale):
    data, queries = cloud
    _agree(data, queries, np.full(len(queries), scale))


@given(st.lists(coord, min_size=1, max_size=300), st.floats(-math.pi, math.pi),
       st.lists(point, max_size=30))
@settings(max_examples=100, deadline=None)
def test_index_agrees_with_ckdtree_on_rotated_lines(xs, angle, queries):
    line = np.array(xs) * complex(math.cos(angle), math.sin(angle))
    q = np.array(queries, dtype=np.float64).reshape(-1, 2)
    q = np.concatenate((q, _xy(line[:10]) + 1e-9))
    _agree(_xy(line), q, np.full(len(q), 0.5))


@pytest.mark.parametrize("angle", [0.0, 0.7, math.pi / 2])
def test_index_agrees_with_ckdtree_on_cantor_nets(angle):
    rng = np.random.default_rng(0)
    net = compute_net(cantor_thirds(), 1e-4)
    data = _xy(net.points * complex(math.cos(angle), math.sin(angle)))
    near = data + rng.normal(0.0, 1e-6, data.shape)
    far = data + rng.normal(0.0, 0.3, data.shape)
    for queries in (data, near, far, near[:5], far[:40], near[:300]):
        d0 = cKDTree(data).query(queries)[0]
        _agree(data, queries, d0 * 1.5 + 1e-7)


def test_index_agrees_with_ckdtree_on_uniform_points():
    rng = np.random.default_rng(1)
    data = rng.random((10_000, 2))
    for queries in (rng.random((300, 2)), 3.0 * rng.random((7, 2)), data[:100]):
        _agree(data, queries, np.full(len(queries), 0.01))


def test_ties_on_a_grid_go_to_the_lowest_index():
    # queries halfway between grid points are as near to two or four points,
    # often in different leaves and on a split plane or a box edge
    rng = np.random.default_rng(2)
    grid = np.stack(np.meshgrid(np.arange(32.0), np.arange(32.0)), axis=-1).reshape(-1, 2)
    data = grid[rng.permutation(len(grid))]
    halves = np.stack(np.meshgrid(np.arange(-1.0, 32.0, 0.5), np.arange(-1.0, 32.0, 0.5)),
                      axis=-1).reshape(-1, 2)
    for queries in (halves, halves[rng.permutation(len(halves))[:9]]):
        _agree(data, queries, np.full(len(queries), 1.0))


def test_ties_on_a_line_go_to_the_lowest_index():
    # queries halfway between neighbours of a line are as near to both, in
    # one leaf or on either side of a split; the points are numbered at random
    rng = np.random.default_rng(4)
    line = np.column_stack((np.arange(4096.0), np.zeros(4096)))
    data = line[rng.permutation(len(line))]
    queries = line[:-1] + (0.5, 0.0)
    for batch in (queries, queries[:5], queries[100:140]):  # every path of a query
        _agree(data, batch, np.full(len(batch), 0.5))


def test_ties_are_equal_distances_not_equal_squares():
    # 1.5625 and the square just below it have the same root, 1.25
    index = PointIndex(np.array([0.0, 1e-16]))
    dist, idx = index.nearest(np.array([1.0 + 0.75j]))
    assert dist.tolist() == [1.25] and idx.tolist() == [0]


def test_ball_keeps_points_at_exactly_the_radius():
    # r is a point's float distance itself, which r*r may round below
    rng = np.random.default_rng(3)
    for _ in range(20):
        data, queries = rng.random((200, 2)), rng.random((20, 2))
        every = _distances(data, queries)
        pick = rng.integers(0, len(data), len(queries))
        radii = every[np.arange(len(queries)), pick]
        rows, cols = PointIndex(_z(data)).within(_z(queries), radii)
        assert _pairs_set(rows, cols) >= set(enumerate(pick.tolist()))
        assert np.array_equal(_sorted_pairs(rows, cols),
                              _sorted_pairs(*np.nonzero(every <= radii[:, None])))


def test_single_point_index_and_empty_batches():
    index = PointIndex(np.array([0.25 - 1.0j]))
    dist, idx = index.nearest(np.array([3.25 + 3.0j, 0.25 - 1.0j]))
    assert dist.tolist() == [5.0, 0.0] and idx.tolist() == [0, 0]
    dist, idx = index.nearest(3.25 + 3.0j)  # one point is a batch of one
    assert dist.tolist() == [5.0] and idx.tolist() == [0]
    dist, idx = index.nearest(np.empty(0, dtype=np.complex128))
    assert dist.shape == idx.shape == (0,)
    rows, cols = index.within(np.empty(0, dtype=np.complex128), 1.0)
    assert rows.shape == cols.shape == (0,)
    rows, cols = index.within(np.array([0.0, 0.25 - 0.5j]), 0.5)
    assert rows.tolist() == [1] and cols.tolist() == [0]
    rows, cols = index.within(0.25 - 0.5j, 0.5)
    assert rows.tolist() == [0] and cols.tolist() == [0]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_index_refuses_points_that_are_not_finite(bad):
    with pytest.raises(ValueError, match="^index points must be finite$"):
        PointIndex(_z([[0.0, 0.0], [bad, 1.0]]))
    with pytest.raises(ValueError, match="^index points must be finite$"):
        PointIndex(_z([[0.0, 0.0], [1.0, bad]]))
    index = PointIndex(np.array([0.0, 1.0 + 1.0j]))
    with pytest.raises(ValueError, match="^query points must be finite$"):
        index.nearest(_z([[0.5, 0.5], [0.0, bad]]))
    with pytest.raises(ValueError, match="^query points must be finite$"):
        index.within(_z([[bad, 0.5]]), 1.0)
    with pytest.raises(ValueError, match="^query points must be finite$"):
        index.nearest(complex(bad, 0.0))


def test_index_refuses_an_empty_or_misshapen_point_set():
    # (n, 2) real rows are the layout of a point set before complex points
    with pytest.raises(ValueError, match="^an index needs at least one point$"):
        PointIndex(np.empty(0, dtype=np.complex128))
    for bad in (np.zeros((4, 2)), np.zeros((4, 3)), np.zeros((2, 2), dtype=np.complex128),
                np.complex128(1.0)):
        with pytest.raises(ValueError, match=r"^index points must be a 1-D array, got shape "):
            PointIndex(bad)
    index = PointIndex(np.array([0.0, 1.0 + 1.0j]))
    for bad in (np.zeros((3, 2)), np.zeros((1, 2)), np.zeros((2, 1), dtype=np.complex128)):
        with pytest.raises(ValueError, match=r"^query points must be a scalar or 1-D, got shape "):
            index.nearest(bad)
        with pytest.raises(ValueError, match=r"^query points must be a scalar or 1-D, got shape "):
            index.within(bad, 1.0)


def test_index_agrees_with_ckdtree_on_a_736k_point_net():
    # S = {0.45 z, 0.45 z + 0.55} at epsilon 1e-6, the net of 736,320 points
    a = 0.45
    system = IfsSystem((Affine(a, 0.0), Affine(a, 1.0 - a)), Disk(0.5, 2.0))
    net = compute_net(system, 1e-6)
    assert len(net) == 736_320
    data = system.maps[1](net.points)
    index, oracle = PointIndex(data), cKDTree(_xy(data))
    for queries in (system.maps[0](net.points), net.points + (1e-9 + 1e-9j)):
        dist, idx = index.nearest(queries)
        d0, i0 = oracle.query(_xy(queries))
        assert np.array_equal(dist, d0)
        d2, _ = oracle.query(_xy(queries[::97]), k=2)
        unique = d2[:, 1] > d2[:, 0]
        assert np.array_equal(idx[::97][unique], i0[::97][unique])


def _wide_distances(data: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Every query-to-point distance: ``sqrt(dx*dx + dy*dy)`` where it is finite, else ``hypot``."""
    with np.errstate(over="ignore"):
        dx = queries[:, None, 0] - data[None, :, 0]
        dy = queries[:, None, 1] - data[None, :, 1]
        plain = np.sqrt(dx * dx + dy * dy)
        return np.where(np.isfinite(plain), plain, np.hypot(dx, dy))


def _same_distance(got: np.ndarray, want: np.ndarray) -> None:
    """Bit for bit below 1e150, where no square overflows; within a few ulps above."""
    small = want < 1e150
    assert np.array_equal(got[small], want[small])
    assert np.allclose(got[~small], want[~small], rtol=1e-15, atol=0.0)


def _wide_points(rng, n: int) -> np.ndarray:
    """Rows of coordinates near 0 mixed with coordinates up to 1e300, and a few extremes."""
    xy = 10.0 ** rng.uniform(-3.0, 300.0, (n, 2)) * rng.choice([-1.0, 1.0], (n, 2))
    near_zero = rng.random((n, 2)) < 0.3
    xy[near_zero] = rng.normal(0.0, 1.0, near_zero.sum())
    extremes = [[0.0, 0.0], [1e300, -1e300], [1.7e308, 0.0], [-1.7e308, 1.7e308], [2.0, 1e300]]
    return np.concatenate((xy, extremes))


@pytest.mark.parametrize("n", [1, 9, 300, 3000])
def test_huge_coordinates_get_their_distances_without_warnings(n):
    # squares of coordinate differences past about 1.3e154 overflow; the
    # index still returns every distance, inf only past the largest float
    rng = np.random.default_rng(n)
    data, queries = _wide_points(rng, n), _wide_points(rng, 60)
    every = _wide_distances(data, queries)
    best = every.min(axis=1)
    second = np.partition(every, 1, axis=1)[:, 1] if len(data) > 1 else np.full(len(best), np.inf)
    clear = second > best * (1.0 + 1e-12)
    radii = np.sort(every, axis=1)[:, every.shape[1] // 2]
    near_r = np.any(np.isclose(every, radii[:, None], rtol=1e-9, atol=0.0), axis=1)
    index = PointIndex(_z(data))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rows in (slice(None), slice(0, 5), slice(7, 8)):
            dist, idx = index.nearest(_z(queries[rows]))
            _same_distance(dist, best[rows])
            assert np.array_equal(idx[clear[rows]], every[rows].argmin(axis=1)[clear[rows]])
            got_rows, got_cols = index.within(_z(queries[rows]), radii[rows])
            got = _pairs_set(got_rows, got_cols)
            want = _pairs_set(*np.nonzero(every[rows] <= radii[rows, None]))
            keep = set(np.flatnonzero(~near_r[rows]).tolist())
            assert {p for p in got if p[0] in keep} == {p for p in want if p[0] in keep}
        d = hausdorff(_z(data), _z(queries))
    _same_distance(np.array([d]), np.array([max(best.max(), every.min(axis=0).max())]))


def test_hausdorff_of_a_huge_point_is_its_distance():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert hausdorff([0.0, 1e200], [0.0, 1.0]) == 1e200
        assert hausdorff([0.0, 1e300j], [0.0]) == 1e300
        assert hausdorff([-1.7e308], [1.7e308]) == math.inf


def _sierpinski_nets(eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Nets of G = {0.45 z + 0.55 p : p in {0, 1, 0.5 + 0.866i}} and of its square."""
    G = IfsSystem(tuple(Affine(0.45, 0.55 * p) for p in (0.0, 1.0, 0.5 + 0.866j)),
                  Disk(0.5 + 0.3j, 1.5))
    return compute_net(G, eps).points, compute_net(iterate_system(G, 2), eps).points


def _spy_balls(monkeypatch) -> list:
    """Per ball query of the index, its rows and the pairs it returns."""
    balls, ball = [], PointIndex._ball

    def spy(self, q4, r, *args):
        out = ball(self, q4, r, *args)
        balls.append((q4.shape[1], len(out[0])))
        return out

    monkeypatch.setattr(PointIndex, "_ball", spy)
    return balls


def _grid(n: int) -> np.ndarray:
    return np.stack(np.meshgrid(np.arange(float(n)), np.arange(float(n))), axis=-1).reshape(-1, 2)


@pytest.mark.parametrize("case", ["sierpinski", "grid-halves", "grid-twice"])
def test_nearest_fallback_agrees_with_brute_force(monkeypatch, case):
    # large batches in 2-D and on tie-heavy grids, whose rows the home node
    # does not settle, take the ball with the shrinking radius
    rng = np.random.default_rng(5)
    if case == "sierpinski":
        data, queries = (_xy(z) for z in _sierpinski_nets(1e-2))
    else:
        data = _grid(48)[rng.permutation(48 * 48)]
        if case == "grid-twice":  # every point twice, under two indices
            data = np.concatenate((data, data[rng.permutation(len(data))]))
        queries = _grid(98) / 2.0 - 0.5
    balls = _spy_balls(monkeypatch)
    dist, idx = PointIndex(_z(data)).nearest(_z(queries))
    assert sum(rows for rows, _ in balls) > 0.1 * len(queries)
    queries, dist, idx = queries[::3], dist[::3], idx[::3]  # the oracle checks every third row
    lowest, _, _ = _brute(data, queries, np.zeros(len(queries)))
    assert np.array_equal(idx, lowest)
    d = data[lowest] - queries
    assert np.array_equal(dist, np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]))


def test_nearest_fallback_gathers_about_the_nearest_points(monkeypatch):
    # the square's net queried on G's: a ball of the home node's fixed radius
    # gathered 87 points per row (931k pairs for 10.7k rows); one whose
    # radius falls to each kept node's first point gathers about 2
    data, queries = _sierpinski_nets(3e-3)
    balls = _spy_balls(monkeypatch)
    PointIndex(data).nearest(queries)
    rows = sum(rows for rows, _ in balls)
    assert rows > 5000
    assert sum(pairs for _, pairs in balls) < 4 * rows
