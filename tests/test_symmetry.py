"""Tests for symmetry germs, conjugacy relations, and shared-attractor verdicts."""

from __future__ import annotations

import dataclasses
import itertools
import math
import sys
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import holoifs.attractor
import holoifs.dynamics
import holoifs.symmetry
from holoifs import (
    AddressFailure,
    BudgetExceeded,
    CriterionEmpty,
    Disk,
    DomainError,
    GermBoundsError,
    IfsSystem,
    NoCoincidence,
    NotInImage,
    OutsideAttractor,
    PrefixViolation,
    Word,
)
from holoifs.attractor import certify_strong_osc, compute_net
from holoifs.dynamics import fixed_point, prep_points, spectrum
from holoifs.maps import (
    Affine,
    Composite,
    Exact,
    HoloMap,
    SqrtBranch,
    circle,
    compose_maps,
    compose_word,
    map_rows,
)
from holoifs.symmetry import (
    BOUNDARY_SAMPLES,
    DERIV_SLACK,
    GERM_EQUALITY_TOL,
    GERM_REJECTIONS,
    GERM_SAMPLES,
    RADIUS_FRACTION,
    Budgets,
    ConjugacyRelation,
    FunctionalEquation,
    SymmetryGerm,
    SystemNet,
    SymmetryResidualReport,
    address,
    build_symmetries,
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


def test_min_depth_refuses_a_level_past_the_point_cap(thirds, monkeypatch):
    # each word holds a row of every net point: depth 2 needs 4 rows of them
    cells = 4 * len(thirds.net.points)
    monkeypatch.setattr(holoifs.symmetry, "POINT_CAP", cells)
    assert min_depth(thirds.system, thirds.net, 1 / 9) == 2
    monkeypatch.setattr(holoifs.symmetry, "POINT_CAP", cells - 1)
    assert min_depth(thirds.system, thirds.net, 1 / 3) == 1
    with pytest.raises(BudgetExceeded, match="^word enumeration exceeded the cap in min_depth$"):
        min_depth(thirds.system, thirds.net, 1 / 9)


def _word_loop_min_depth(systemG, netG, s_F, word_cap=10**6):
    """The per-word loop that the level arrays of ``min_depth`` replaced, as the oracle."""
    if not 0.0 < s_F < 1.0:
        raise ValueError("s_F must lie in (0, 1)")
    pts = netG.points
    level = [(pts, np.ones(len(pts), dtype=np.complex128))]
    depth = 0
    while True:
        depth += 1
        if len(level) * len(systemG.maps) > word_cap:
            raise BudgetExceeded("word enumeration exceeded the cap in min_depth")
        nxt = []
        worst = 0.0
        for vals, ders in level:
            for g in systemG.maps:
                nd = g.deriv(vals) * ders
                nxt.append((g(vals), nd))
                worst = max(worst, float(np.max(np.abs(nd))))
        level = nxt
        if worst <= s_F:
            return depth


@pytest.mark.parametrize(
    "make",
    [
        cantor_thirds,
        lambda: IfsSystem(
            (Affine(0.3 + 0.1j, 0.0), Affine(0.25 - 0.1j, 0.6 + 0.2j), Affine(0.2j, 0.3 - 0.5j)),
            Disk(0.3, 2.0),
        ),
        lambda: sqrt_julia(-6.0),
        lambda: iterate_system(sqrt_julia(-6.5), 2),
    ],
    ids=["thirds", "complex-affine", "julia6", "julia6.5-squared"],
)
def test_min_depth_equals_the_word_loop(make):
    system = make()
    net = compute_net(system, 1e-2)
    # the last cases meet the word cap, an s_F outside (0, 1), and net points
    # on the branch points, where a square-root derivative raises
    singular = holoifs.attractor.AttractorNet(np.append(net.points, [-6.0, -6.5]), 1e-2, 1)
    cases = [(net, s_F, 10**6) for s_F in (0.5, 0.1, 1e-2, 1e-3)]
    cases += [(net, 1e-3, 40), (net, 1.0, 10**6), (singular, 0.1, 10**6)]
    for case in cases:
        want = _outcome(_word_loop_min_depth, system, *case)
        assert _same_outcome(_outcome(min_depth, system, *case), want)


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
        b = system.maps[letter].inverse()(b)
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
# the batched germ construction against the one-word code it replaced


def _xy(points) -> np.ndarray:
    """Complex points as the rows of an ``(n, 2)`` array, for cKDTree."""
    return np.column_stack((points.real, points.imag))


def _scalar_address_walk(F, x):
    """The one-point address walk the batch replaced: its own trees, one query per point.

    It inverts through the walk's own inverse maps, ``F.dyn.inverses``.

    Each point takes the first branch that claims it, and no point it walks
    may be claimed by two branches, the invariant that lets the batched walk
    stop at the first claim.
    """
    images = [g(F.net.points) for g in F.system.maps]
    trees = [cKDTree(_xy(z)) for z in images]
    x = b = complex(x)
    n = 0
    try:
        while True:
            claims = [i for i, t in enumerate(trees)
                      if float(t.query([[b.real, b.imag]], k=1)[0][0]) < F.dyn.claim_radius]
            if not claims:
                raise OutsideAttractor(f"no branch claims {b}")
            assert len(claims) == 1, f"branches {claims} all claim {b}"
            try:
                b = complex(F.dyn.inverses[claims[0]](b))
            except NotInImage as exc:
                raise OutsideAttractor(f"branch {claims[0]} cannot invert {b}") from exc
            n += 1
            yield claims[0], b
    except OutsideAttractor as exc:
        raise AddressFailure(f"address walk from {x} failed after {n} letters at {b}") from exc


def _scalar_build_symmetry(G, F, a, w):
    """The one-word germ construction the batch replaced, as the oracle."""
    a = complex(a)
    gw = compose_word(G.system, w)
    lam = complex(gw.deriv(a))
    rho = min(G.rho, F.rho)
    r = RADIUS_FRACTION * rho
    sF = F.s_floor
    D = 1.0 + 0.0j
    letters = []
    for j, b in itertools.islice(_scalar_address_walk(F, gw(a)), holoifs.symmetry.WALK_CAP):
        D = D * complex(F.system.maps[j].deriv(b))
        if abs(D) < abs(lam):
            break
        letters.append(j)
    else:
        raise BudgetExceeded("address walk never crossed the derivative threshold")
    if not letters:
        raise CriterionEmpty(
            f"first address derivative {abs(D):.3e} already below |g_w'(a)| = {abs(lam):.3e}"
        )
    return _germ_oracle(F.system, a, w, gw, Word(tuple(letters), len(F.system.maps)), rho, sF)


def _germ_oracle(systemF, a, w, gw, V, rho, sF):
    """The per-word germ check the array of germs replaced: scalar H(a) and H'(a), one sandwich."""
    r = RADIUS_FRACTION * rho
    H = compose_maps((compose_word(systemF, V).inverse(), gw))
    dH = complex(H.deriv(a))
    if not (sF - DERIV_SLACK <= abs(dH) <= 1.0 + DERIV_SLACK):
        raise GermBoundsError(f"|H'(a)| = {abs(dH):.6e} outside [{sF:.6e}, 1]")
    Ha = complex(H(a))
    dist = np.abs(H(Disk(a, r).boundary(BOUNDARY_SAMPLES)) - Ha)
    if float(np.max(dist)) > rho + 1e-12:
        raise GermBoundsError("image boundary escapes the outer sandwich disk")
    if float(np.min(dist)) < sF * rho / 25.0 - 1e-12:
        raise GermBoundsError("image boundary enters the inner sandwich disk")
    return SymmetryGerm(base=a, radius=r, word_g=w, word_f=V, map=H)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # compared by type and text
        return exc


def _same_outcome(got, want):
    if isinstance(want, Exception):
        return type(got) is type(want) and str(got) == str(want)
    return got == want


def _all_words(m, max_len):
    return [Word(t, m) for n in range(1, max_len + 1) for t in itertools.product(range(m), repeat=n)]


@pytest.fixture(scope="module")
def julia_pairs():
    julia = sqrt_julia(-6.0)
    complex_c = sqrt_julia(-6.0 + 0.5j)
    return {
        "julia6": system_net(julia),
        "julia6-squared": system_net(iterate_system(julia, 2)),
        "julia6.7": system_net(sqrt_julia(-6.7)),
        "julia-complex": system_net(complex_c),
        "julia-complex-squared": system_net(iterate_system(complex_c, 2)),
        "thirds-cubed": system_net(iterate_system(cantor_thirds(), 3)),
    }


@pytest.mark.parametrize(
    "g, f, max_len",
    [
        ("thirds", "thirds", 3),
        ("reflected", "thirds", 3),
        ("thirds", "reflected", 3),
        ("thirds", "shifted", 3),
        ("julia6", "julia6-squared", 4),
        ("julia6-squared", "julia6", 2),
        ("julia6.7", "julia6.7", 3),
        ("thirds-cubed", "thirds", 1),
        ("thirds", "thirds-cubed", 3),
        ("julia-complex", "julia-complex", 3),
        ("julia-complex", "julia-complex-squared", 4),
    ],
)
def test_build_symmetries_equal_the_one_word_code(thirds, reflected, julia_pairs, g, f, max_len):
    # every preimage and derivative product is scalar arithmetic, so germs,
    # address words and exception texts are == on complex values too
    nets = dict(julia_pairs, thirds=thirds, reflected=reflected,
                shifted=system_net(shifted_system()))
    G, F = nets[g], nets[f]
    words = _all_words(len(G.system.maps), max_len)
    for a in prep_points(G.system, 2)[:4]:
        want = [_outcome(_scalar_build_symmetry, G, F, a, w) for w in words]
        got = build_symmetries(G, F, a, words)
        assert len(got) == len(want)
        assert all(_same_outcome(x, y) for x, y in zip(got, want))
        for w, outcome in zip(words[:6], want):
            assert _same_outcome(_outcome(build_symmetry, G, F, a, w), outcome)


def _complex_mixed():
    return IfsSystem((SqrtBranch(-6.0 + 0.5j, 1), Affine(0.2 + 0.1j, -1.0 + 0.3j)), Disk(0.0, 5.0))


class _PlantedInverse(type(SqrtBranch(-6.0, 1).inverse())):
    """A square-root branch's inverse that raises on every value right of the imaginary axis."""

    def __call__(self, y):
        if np.any(np.real(y) > 0.0):
            raise NotInImage("planted")
        return super().__call__(y)


GERM_RESUME_PAIRS = {
    # (G, F, the kinds of germ map the pair builds)
    "thirds-reflected": lambda: (cantor_thirds(), cantor_thirds_reflected(), {"folded"}),
    "julia6-squared": lambda: (sqrt_julia(-6.0), iterate_system(sqrt_julia(-6.0), 2), {"resumed"}),
    "complex-mixed": lambda: (_complex_mixed(), _complex_mixed(), {"folded", "resumed"}),
    "julia6-planted": lambda: (sqrt_julia(-6.0), sqrt_julia(-6.0), {"resumed"}),
}


@pytest.mark.parametrize("pair", list(GERM_RESUME_PAIRS))
def test_germ_images_resume_from_the_source_rows(monkeypatch, pair):
    g, f, kinds = GERM_RESUME_PAIRS[pair]()
    G, F = system_net(g), system_net(f)
    # the walk's inverses, the radii and the floor are made before any plant
    assert F.dyn.claim_radius > 0 and G.rho > 0 and F.rho > 0 and F.s_floor > 0
    if pair == "julia6-planted":  # the germs' f_V^{-1} raises where the walk did not
        branch = f.maps[0]
        monkeypatch.setitem(branch.__dict__, "_inverse", _PlantedInverse(branch))
    calls = []
    rows_of = holoifs.symmetry.map_rows

    def recording(maps, z, deriv=False, d0=None):
        out = rows_of(maps, z, deriv, d0)
        calls.append((maps, d0, out))
        return out

    monkeypatch.setattr(holoifs.symmetry, "map_rows", recording)
    # words of one to three letters, the lengths interleaved
    words = sorted(_all_words(len(g.maps), 3), key=lambda w: w.indices[::-1])
    seen, outcomes = set(), Counter()
    for a in prep_points(g, 2)[:3]:
        calls.clear()
        got = build_symmetries(G, F, a, words)
        # H(a) and H'(a), resumed from g_w(a) and g_w'(a), have the bits and
        # the exceptions of H's whole chain evaluated from a; the boundary
        # images, the next call, take the germ maps themselves
        [k] = [k for k, (_, d0, _) in enumerate(calls) if d0 is not None]
        H = calls[k + 1][0]
        values, derivs, errors = calls[k][2]
        want, want_derivs, want_errors = rows_of(H, np.full(len(H), complex(a)).view(Exact),
                                                 deriv=True)
        assert {j: (type(e), str(e)) for j, e in errors.items()} == {
            j: (type(e), str(e)) for j, e in want_errors.items()}
        ok = [j for j in range(len(H)) if j not in want_errors]
        assert values[ok].tobytes() == want[ok].tobytes()
        assert derivs[ok].tobytes() == want_derivs[ok].tobytes()
        seen.update("folded" if isinstance(m, Affine) else "resumed" for m in H)
        # every field of each batched germ is the one-word path's
        for w, x in zip(words, got):
            one = _outcome(build_symmetry, G, F, a, w)
            assert _same_outcome(x, one)
            if isinstance(x, SymmetryGerm):
                assert [getattr(x, n) for n in ("base", "radius", "word_g", "word_f", "map")] == [
                    getattr(one, n) for n in ("base", "radius", "word_g", "word_f", "map")]
                assert (np.array([x.image, x.derivative]).tobytes()
                        == np.array([one.image, one.derivative]).tobytes())
            outcomes[str(x) if isinstance(x, Exception) else "germ"] += 1
    assert seen == kinds
    assert outcomes["germ"] > 0
    assert (outcomes["planted"] > 0) is (pair == "julia6-planted")


@pytest.mark.parametrize(
    "name",
    ["thirds", "reflected", "julia6", "julia6-squared", "julia6.7", "thirds-cubed",
     "julia-complex"],
)
def test_address_equals_the_scalar_address_walk(thirds, reflected, julia_pairs, name):
    F = dict(julia_pairs, thirds=thirds, reflected=reflected)[name]
    m = len(F.system.maps)
    c, r = F.system.domain.center, F.system.domain.radius
    off = c + r * np.array([0.0, 0.3, 0.55j, -0.7 + 0.1j, 2.0])
    points = np.concatenate((prep_points(F.system, 2)[:12], off))
    names = set()
    for x in points:
        try:
            want = Word(tuple(j for j, _ in itertools.islice(_scalar_address_walk(F, x), 12)), m)
        except AddressFailure as exc:
            want = exc
        got = _outcome(address, F, x, 12)
        assert _same_outcome(got, want)
        if isinstance(want, Exception):
            assert type(got.__cause__) is type(want.__cause__)
        names.add(type(want).__name__)
        assert address(F, x, 0) == Word((), m)
    assert names == {"Word", "AddressFailure"}


def test_address_rejects_a_negative_length(thirds):
    with pytest.raises(ValueError, match="non-negative integer"):
        address(thirds, 0.25, -1)


def test_build_symmetries_stop_at_the_walk_cap(thirds, reflected, monkeypatch):
    monkeypatch.setattr(holoifs.symmetry, "WALK_CAP", 2)
    words = _all_words(2, 3)
    want = [_outcome(_scalar_build_symmetry, reflected, thirds, 0.0, w) for w in words]
    assert {type(x).__name__ for x in want} == {"SymmetryGerm", "BudgetExceeded"}
    got = build_symmetries(reflected, thirds, 0.0, words)
    assert all(_same_outcome(x, y) for x, y in zip(got, want))


def test_address_failure_partway_through_the_words_of_a_disk(thirds):
    # the shifted attractor lies in [0, 3/4]: the images of 3/4 under words
    # that start with letter 1 leave it
    shifted = system_net(shifted_system())
    words = _all_words(2, 3)
    want = [_outcome(_scalar_build_symmetry, thirds, shifted, 0.75, w) for w in words]
    names = [type(x).__name__ for x in want]
    first = names.index("AddressFailure")
    assert 0 < first < len(words) - 1 and "SymmetryGerm" in names[first + 1:]
    got = build_symmetries(thirds, shifted, 0.75, words)
    assert all(_same_outcome(x, y) for x, y in zip(got, want))
    assert isinstance(got[first].__cause__, OutsideAttractor)
    # a word-by-word loop that raises the first rejection raises that one
    with pytest.raises(AddressFailure) as raised:
        build_symmetry(thirds, shifted, 0.75, words[first])
    assert str(raised.value) == str(want[first])


def test_build_symmetries_keeps_a_word_whose_walk_cannot_invert(thirds, monkeypatch):
    # a point its branch cannot invert is off the attractor, so the walk ends
    # in an address failure, for that word only
    words = [Word((0,), 2), Word((1,), 2), Word((0, 0), 2)]
    start = complex(compose_word(thirds.system, words[1])(0.0))
    inverse = thirds.dyn.inverses[1]

    def refuse(y):
        if np.any(y == start):
            raise NotInImage("planted refusal")
        return inverse(y)

    monkeypatch.setattr(thirds.dyn, "inverses", (thirds.dyn.inverses[0], refuse))
    got = build_symmetries(thirds, thirds, 0.0, words)
    assert isinstance(got[0], SymmetryGerm) and isinstance(got[2], SymmetryGerm)
    assert type(got[1]) is AddressFailure
    assert str(got[1]) == f"address walk from {start} failed after 0 letters at {start}"
    assert type(got[1].__cause__) is OutsideAttractor
    assert str(got[1].__cause__) == f"branch 1 cannot invert {start}"
    assert str(got[1].__cause__.__cause__) == "planted refusal"
    with pytest.raises(AddressFailure) as raised:
        build_symmetry(thirds, thirds, 0.0, words[1])
    assert str(raised.value.__cause__.__cause__) == "planted refusal"
    assert build_symmetries(thirds, thirds, 0.0, []) == []


@dataclasses.dataclass(frozen=True)
class _FaultyInverse(HoloMap):
    """The inverse of an affine map that fails on purpose, as ``fault`` names.

    ``"deriv"``: its derivative raises.  ``"ring"`` and ``"far"``: a value
    off the real axis raises, or lands a thousand times farther out.  Real
    values, as on the walks of the thirds, are the affine map's.
    """

    inner: Affine
    fault: str

    def __call__(self, z):
        if self.fault != "deriv" and np.any(np.imag(z) != 0.0):
            if self.fault == "ring":
                raise DomainError("planted: a value off the real axis")
            return self.inner(z) * 1e3
        return self.inner(z)

    def deriv(self, z):
        if self.fault == "deriv":
            raise DomainError("planted: a derivative")
        return self.inner.deriv(z)


@dataclasses.dataclass(frozen=True)
class _FaultyAffine(HoloMap):
    """An affine map, not folded into its neighbours, whose inverse is planted."""

    inner: Affine
    fault: str

    def __call__(self, z):
        return self.inner(z)

    def deriv(self, z):
        return self.inner.deriv(z)

    def inverse(self):
        return _FaultyInverse(self.inner.inverse(), self.fault)

    def enclosure_arrays(self, centers, radii):
        return self.inner.enclosure_arrays(centers, radii)


@pytest.mark.parametrize("fault, rejection", [
    ("deriv", "DomainError: planted: a derivative"),
    ("ring", "DomainError: planted: a value off the real axis"),
    ("far", "GermBoundsError: image boundary escapes the outer sandwich disk"),
])
def test_build_symmetries_meet_a_germ_that_fails_its_checks(thirds, fault, rejection):
    # the germs whose target word reads the planted letter 1 fail at H'(a),
    # on the boundary ring, or at the outer sandwich disk
    maps = thirds.system.maps
    F = system_net(IfsSystem((maps[0], _FaultyAffine(maps[1], fault)), thirds.system.domain))
    words = _all_words(2, 3)
    names = set()
    for a in (0.0, 0.75, 1.0):
        want = [_outcome(_scalar_build_symmetry, thirds, F, a, w) for w in words]
        got = build_symmetries(thirds, F, a, words)
        assert all(_same_outcome(x, y) for x, y in zip(got, want))
        names.update(f"{type(x).__name__}: {x}" if isinstance(x, Exception) else "germ"
                     for x in want)
    assert names == {"germ", rejection}


def test_build_symmetries_meet_a_word_or_a_pair_that_fails(thirds):
    # a word over another alphabet fails to compose; a pair whose separation
    # fails has no radius rho, which every composed word meets
    halves = system_net(IfsSystem((Affine(0.5, 0.0), Affine(0.5, 0.5)), Disk(0.5, 2.0)))
    words = [Word((0,), 2), Word((0,), 3), Word((1, 0), 2)]
    for G, F, names in [
        (thirds, thirds, ["SymmetryGerm", "IndexError", "SymmetryGerm"]),
        (halves, thirds, ["SeparationFailure", "IndexError", "SeparationFailure"]),
        (thirds, halves, ["SeparationFailure", "IndexError", "SeparationFailure"]),
    ]:
        want = [_outcome(_scalar_build_symmetry, G, F, 0.0, w) for w in words]
        assert [type(x).__name__ for x in want] == names
        got = build_symmetries(G, F, 0.0, words)
        assert all(_same_outcome(x, y) for x, y in zip(got, want))


def _record_sweep_builds(monkeypatch):
    """Patch build_symmetries to record, per call, its base points, words and outcomes."""
    calls = []
    build = holoifs.symmetry.build_symmetries

    def recording(G, F, a, words):
        words = list(words)
        out = build(G, F, a, words)
        calls.append((np.broadcast_to(np.asarray(a), (len(words),)).tolist(), words, out))
        return out

    monkeypatch.setattr(holoifs.symmetry, "build_symmetries", recording)
    return calls


SWEEP_PAIRS = {
    "julia6-squared": lambda: (sqrt_julia(-6.0), iterate_system(sqrt_julia(-6.0), 2)),
    "julia6-self": lambda: (sqrt_julia(-6.0), sqrt_julia(-6.0)),
    "julia-complex-squared": lambda: (
        sqrt_julia(-6.0 + 0.5j), iterate_system(sqrt_julia(-6.0 + 0.5j), 2)),
    "thirds-reflected": lambda: (cantor_thirds(), cantor_thirds_reflected()),
}


@pytest.mark.parametrize("pair", list(SWEEP_PAIRS))
def test_sweep_germs_equal_the_per_word_germ_loop(monkeypatch, pair):
    # the sweep builds the germs of all its disks as one array of rows; each
    # row's germ, or exception type and text, is the one-word code's
    G, F = (system_net(system) for system in SWEEP_PAIRS[pair]())
    calls = _record_sweep_builds(monkeypatch)
    entries = holoifs.symmetry._functional_sweep(G, F, Budgets())
    (bases, words, got), = calls
    assert len(set(bases)) > 1 and len(got) == len(entries) > 0
    names = Counter()
    for a, w, outcome in zip(bases, words, got):
        want = _outcome(_scalar_build_symmetry, G, F, a, w)
        assert _same_outcome(outcome, want)
        names[type(want).__name__] += 1
    assert names["SymmetryGerm"] > 0


# ---------------------------------------------------------------------------
# symmetry verification


def _scalar_verify(germ, G, F, n_samples=200, tol=1e-9):
    """``verify_symmetry`` with its backward loop of one KD query per point, as the oracle."""
    report = verify_symmetry(germ, G, F, n_samples, tol)
    a, r, H = germ.base, germ.radius, germ.map
    inner = abs(germ.derivative) * r / 4.0
    dist_im = np.abs(F.net.points - complex(H(a)))
    selb = np.nonzero(dist_im <= inner)[0]
    selb = selb[np.argsort(dist_im[selb], kind="stable")][:n_samples]
    tree = cKDTree(_xy(G.net.points))
    res, fail = 0.0, 0
    H_inv = H.inverse()
    for y in F.net.points[selb]:
        try:
            x = complex(H_inv(complex(y)))
        except (NotInImage, DomainError, ValueError):
            fail += 1
            continue
        d, _ = tree.query([[x.real, x.imag]], k=1)
        res = max(res, float(d[0]))
        if float(d[0]) > report.backward_tolerance:
            fail += 1
    return res, fail, len(selb)


def test_verify_symmetry_backward_equals_the_per_point_loop(thirds, reflected, julia_pairs):
    julia6, squared = julia_pairs["julia6"], julia_pairs["julia6-squared"]
    reference = build_symmetry(reflected, thirds, 0.0, Word((1,), 2))
    corrupted = SymmetryGerm(reference.base, reference.radius, reference.word_g,
                             reference.word_f, Affine(1j, 1.0))
    cases = [
        (reference, reflected, thirds),
        (corrupted, reflected, thirds),
        (build_symmetry(thirds, thirds, 0.0, Word((0,), 2)), thirds, thirds),
        (build_symmetry(julia6, squared, 3.0, Word((0, 0, 1), 2)), julia6, squared),
        (build_symmetry(squared, julia6, -2.0, Word((3,), 4)), squared, julia6),
    ]
    for germ, G, F in cases:
        report = verify_symmetry(germ, G, F)
        assert isinstance(report, SymmetryResidualReport)
        res, fail, count = _scalar_verify(germ, G, F)
        assert (report.backward_residual, report.backward_failures, report.backward_count) == (
            res, fail, count)
        assert count > 0
    assert verify_symmetry(corrupted, reflected, thirds).backward_failures > 0


def _scalar_forward(germ, G, F, n_samples=200, tol=1e-9):
    """The forward direction of ``verify_symmetry`` with one KD query per image, as the oracle."""
    report = verify_symmetry(germ, G, F, n_samples, tol)
    dist_a = np.abs(G.net.points - germ.base)
    sel = np.nonzero(dist_a <= germ.radius)[0]
    sel = sel[np.argsort(dist_a[sel], kind="stable")][:n_samples]
    tree = cKDTree(_xy(F.net.points))
    res, fail = 0.0, 0
    for x in np.atleast_1d(germ.map(G.net.points[sel])).tolist():  # one array, as the library
        d, _ = tree.query([[x.real, x.imag]], k=1)
        res = max(res, float(d[0]))
        fail += float(d[0]) > report.forward_tolerance
    return res, fail, len(sel)


def test_verify_symmetry_forward_equals_the_per_point_loop(thirds, reflected, julia_pairs):
    julia6, squared = julia_pairs["julia6"], julia_pairs["julia6-squared"]
    reference = build_symmetry(reflected, thirds, 0.0, Word((1,), 2))
    corrupted = SymmetryGerm(reference.base, reference.radius, reference.word_g,
                             reference.word_f, Affine(1j, 1.0))
    cases = [
        (reference, reflected, thirds, 200),
        (corrupted, reflected, thirds, 200),
        (corrupted, reflected, thirds, 7),
        (dataclasses.replace(corrupted, base=0.25), reflected, thirds, 7),
        (build_symmetry(thirds, thirds, 0.0, Word((0,), 2)), thirds, thirds, 200),
        (build_symmetry(julia6, squared, 3.0, Word((0, 0, 1), 2)), julia6, squared, 200),
        (build_symmetry(squared, julia6, -2.0, Word((3,), 4)), squared, julia6, 200),
    ]
    for germ, G, F, n in cases:
        report = verify_symmetry(germ, G, F, n)
        res, fail, count = _scalar_forward(germ, G, F, n)
        assert (report.forward_residual, report.forward_failures, report.forward_count) == (
            res, fail, count)
        assert 0 < count <= n
    assert verify_symmetry(corrupted, reflected, thirds).forward_failures > 0
    # a germ whose ball holds no source point measures nothing in that direction
    away = dataclasses.replace(reference, base=0.5)
    report = verify_symmetry(away, reflected, thirds)
    assert (report.forward_residual, report.forward_failures, report.forward_count) == (0.0, 0, 0)
    assert _scalar_forward(away, reflected, thirds) == (0.0, 0, 0)


def test_verify_symmetry_counts_preimages_that_fail(julia_pairs):
    # the planted identity cannot invert a point off the real axis: every
    # point of the complex julia net is one, so no backward sample is
    # measured; the net of {z/3, z/3 + 2/3, z/3 + i/3} near 0 holds both kinds
    identity = _FaultyAffine(Affine(1.0, 0.0), "ring")
    julia = julia_pairs["julia-complex"]
    germ = build_symmetry(julia, julia, prep_points(julia.system, 1)[0], Word((0,), 2))
    report = verify_symmetry(dataclasses.replace(germ, map=identity), julia, julia)
    assert report.backward_count == report.backward_failures > 0
    assert report.backward_residual == 0.0
    assert (report.forward_residual, report.forward_failures) == (0.0, 0)
    gasket = system_net(IfsSystem(
        (Affine(1 / 3, 0.0), Affine(1 / 3, 2 / 3), Affine(1 / 3, 1j / 3)), Disk(0.5, 1.5)))
    mixed = SymmetryGerm(0.0, 0.2, Word((0,), 3), Word((0,), 3), identity)
    for germ, G in ((dataclasses.replace(germ, map=identity), julia), (mixed, gasket)):
        report = verify_symmetry(germ, G, G)
        assert _scalar_verify(germ, G, G) == (
            report.backward_residual, report.backward_failures, report.backward_count)
    assert 0 < report.backward_failures < report.backward_count


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
    beta_tilde = complex(f_outer.inverse()(rel.anchor))
    mu = complex(compose_word(systemF, rel.inner).deriv(beta_tilde))
    assert abs(lam_l - mu) < 1e-9
    assert abs(lam_l - 1 / 9) < 1e-12


def test_coincidence_budget_exhaustion(thirds, reflected):
    with pytest.raises(NoCoincidence):
        detect_coincidence(reflected, thirds, Word((1,), 2), K_max=1)


# ---------------------------------------------------------------------------
# germ classes


def _pairwise_germs_equal(g1, g2, tol=GERM_EQUALITY_TOL):
    z = Disk(g1.base, 0.5 * min(g1.radius, g2.radius)).boundary(GERM_SAMPLES)
    return float(np.max(np.abs(g1.map(z) - g2.map(z)))) <= tol


def _pairwise_classes(germs):
    """The sweep's class loop as first written: each germ evaluated on every comparison."""
    classes, out = [], []
    for germ in germs:
        if germ is None:
            out.append(None)
            continue
        rep = None
        for cand in classes:
            if _pairwise_germs_equal(germ, cand):
                rep = cand
                break
        if rep is None:
            classes.append(germ)
            rep = germ
        out.append(next(k for k, g in enumerate(germs) if g is rep))
    return out


def _pairwise_detect_coincidence(G, F, w, K_max=16):
    """detect_coincidence as first written: every germ against every earlier germ."""
    mG, mF = len(G.system.maps), len(F.system.maps)
    beta = fixed_point(G.system, w).point
    rho = min(G.rho, F.rho)
    r = RADIUS_FRACTION * rho
    sF = F.s_floor
    germs = [SymmetryGerm(complex(beta), r, Word((), mG), Word((), mF), Affine(1.0, 0.0))]
    for germ in build_symmetries(G, F, beta, [w * k for k in range(1, K_max + 1)]):
        if isinstance(germ, GERM_REJECTIONS):
            germ = None
        elif isinstance(germ, Exception):
            raise germ
        germs.append(germ)
    for q in range(1, K_max + 1):
        gq = germs[q]
        if gq is None:
            continue
        for p in range(q):
            gp = germs[p]
            if gp is None or not _pairwise_germs_equal(gp, gq):
                continue
            v, vq = gp.word_f, gq.word_f
            if vq.indices == v.indices:
                raise PrefixViolation("coinciding germs carry identical address words")
            if not vq.starts_with(v):
                raise PrefixViolation(f"address word {vq.indices} does not extend {v.indices}")
            vtilde = Word(vq.indices[len(v):], mF)
            l = q - p
            f_v = compose_word(F.system, v)
            rel = compose_maps((f_v, compose_word(F.system, vtilde), f_v.inverse()))
            gwl = compose_word(G.system, w * l)
            z = np.concatenate((Disk(beta, r * sF / 2.0).boundary(GERM_SAMPLES), [beta]))
            residual = float(np.max(np.abs(gwl(z) - rel(z))))
            return ConjugacyRelation(l, v, vtilde, w, beta, residual)
    raise NoCoincidence(f"no coinciding germ pair within K_max = {K_max}")


def _record_germ_scans(monkeypatch):
    """Patch the germ scan to record, per call, its germs, bases, radius, groups and outcomes."""
    scans = []
    scan = holoifs.symmetry._germ_classes

    def recording(germs, bases, radius, groups):
        got = scan(germs, bases, radius, groups)
        scans.append((germs, bases, radius, groups, got))
        return got

    monkeypatch.setattr(holoifs.symmetry, "_germ_classes", recording)
    return scans


def _scan_groups(germs, groups):
    """The flat indices of each group of a scan, in order."""
    members: dict = {}
    for i, group in enumerate(groups):
        members.setdefault(group, []).append(i)
    return list(members.values())


GERM_SCAN_PAIRS = {
    "thirds-reflected": lambda: (cantor_thirds(), cantor_thirds_reflected()),
    "julia6-squared": lambda: (sqrt_julia(-6.0), iterate_system(sqrt_julia(-6.0), 2)),
    "julia6-self": lambda: (sqrt_julia(-6.0), sqrt_julia(-6.0)),
    "julia-complex-squared": lambda: (
        sqrt_julia(-6.0 + 0.5j), iterate_system(sqrt_julia(-6.0 + 0.5j), 2)),
}


@pytest.mark.parametrize("pair", list(GERM_SCAN_PAIRS))
def test_germ_classes_equal_the_pairwise_loops(monkeypatch, pair):
    g, f = GERM_SCAN_PAIRS[pair]()
    scans = _record_germ_scans(monkeypatch)
    assert shared_attractor(g, f, EPS).verdict == "Shared"
    G, F = system_net(g), system_net(f)
    words = _all_words(len(g.maps), 2)
    for w in words:
        want = _outcome(_pairwise_detect_coincidence, G, F, w)
        assert _same_outcome(_outcome(detect_coincidence, G, F, w), want)
    merged = 0
    for germs, bases, radius, groups, got in scans:
        # every germ of a scan is built at its own base with the scan's radius
        assert all(x.base == bases[i] and x.radius == radius
                   for i, x in enumerate(germs) if x is not None)
        for members in _scan_groups(germs, groups):
            want = _pairwise_classes([germs[i] for i in members])
            assert [got[i] for i in members] == [None if c is None else members[c] for c in want]
        merged += sum(c not in (None, i) for i, c in enumerate(got))
    # one scan for the sweep, and one per word of detect_coincidence
    assert len(scans) == 1 + len(words) and merged > 0


def test_functional_sweep_scans_the_germs_of_every_disk_at_once(monkeypatch):
    julia = sqrt_julia(-6.0)
    G, F = system_net(julia), system_net(iterate_system(julia, 2))
    scans = _record_germ_scans(monkeypatch)
    entries = holoifs.symmetry._functional_sweep(G, F, Budgets())
    assert len(entries) == 256
    [(germs, bases, radius, groups, got)] = scans
    assert len(germs) == 256 and len(_scan_groups(germs, groups)) == 16
    assert sorted(set(groups)) == sorted({e.disk_index for e in entries})


def test_germ_maps_are_evaluated_once_per_germ(monkeypatch):
    counts = Counter()

    class Counted:
        def __init__(self, inner):
            self.inner = inner

        def __call__(self, z):
            counts[self] += 1
            return self.inner(z)

    build = holoifs.symmetry.build_symmetries

    def counting(*args):
        return [dataclasses.replace(x, map=Counted(x.map)) if isinstance(x, SymmetryGerm) else x
                for x in build(*args)]

    monkeypatch.setattr(holoifs.symmetry, "build_symmetries", counting)
    scans = _record_germ_scans(monkeypatch)
    julia = sqrt_julia(-6.0)
    report = shared_attractor(julia, iterate_system(julia, 2), EPS)
    assert len(report.functional_equations) == 256
    assert max(counts.values()) == 1
    assert sum(counts.values()) <= 256
    # the pairwise loop evaluates both germs on every comparison, disk by disk
    counts.clear()
    for germs, _, _, groups, _ in scans:
        for members in _scan_groups(germs, groups):
            _pairwise_classes([germs[i] for i in members])
    assert sum(counts.values()) == 1000


class _Planted(Exception):
    pass


def _raising(label):
    def planted(z):
        raise _Planted(label)

    return planted


def _scan_germ(map_):
    return SymmetryGerm(0.25 + 0j, 0.01, Word((0,), 2), Word((0,), 2), map_)


def _scan(germs, groups=None):
    """The scan's outcomes, with each exception as its message."""
    groups = [0] * len(germs) if groups is None else groups
    got = holoifs.symmetry._germ_classes(germs, [0.25] * len(germs), 0.01, groups)
    return [str(c) if isinstance(c, _Planted) else c for c in got]


def test_germ_scan_evaluates_a_germ_at_its_first_comparison():
    ok = _scan_germ(Affine(1.0, 0.0))
    # a lone germ is never evaluated
    assert _scan([None, _scan_germ(_raising("lone")), None]) == [None, 1, None]
    # a germ is not evaluated when it becomes the first representative, but at
    # its first comparison, after the new germ; its exception ends the scan
    assert _scan([_scan_germ(_raising("first")), ok, ok]) == [0, "first", "first"]
    assert _scan([ok, _scan_germ(_raising("second")), ok]) == [0, "second", "second"]
    assert _scan([_scan_germ(_raising("rep")), _scan_germ(_raising("new"))]) == [0, "new"]
    # the pairwise loop raises the same way
    with pytest.raises(_Planted, match="new"):
        _pairwise_classes([_scan_germ(_raising("rep")), _scan_germ(_raising("new"))])
    assert _scan([ok, _scan_germ(Affine(1.0, 1e-10)), _scan_germ(Affine(1.0, 1e-8))]) == [0, 0, 2]
    # each group is scanned alone: an exception ends its own group only, and a
    # germ's representative is never in another group
    assert _scan([ok, _scan_germ(_raising("other")), ok, None, ok, ok],
                 groups=[0, 1, 0, 1, 1, 2]) == [0, 1, 0, None, "other", 5]


def _loop_germ_classes(germs, bases, radius, groups):
    """The class scan as a germ-by-germ loop over the same (germs × samples) values, as the oracle."""
    live = [i for i, germ in enumerate(germs) if germ is not None]
    values = np.full((len(germs), GERM_SAMPLES), complex(math.nan, math.nan))
    values[live], _, failed = map_rows(
        [germs[i].map for i in live],
        circle(np.array([bases[i] for i in live], dtype=complex), 0.5 * radius, GERM_SAMPLES))
    errors = {live[k]: exc for k, exc in failed.items()}
    out = [None] * len(germs)
    reps = {}  # group -> its representatives, or the exception that ended its scan
    for i in live:
        seen = reps.setdefault(groups[i], [])
        if isinstance(seen, list) and seen and (exc := errors.get(i) or errors.get(seen[0])):
            reps[groups[i]] = seen = exc
        if isinstance(seen, Exception):
            out[i] = seen
            continue
        near = np.flatnonzero(np.max(np.abs(values[seen] - values[i]), axis=1)
                              <= GERM_EQUALITY_TOL)
        out[i] = seen[near[0]] if len(near) else i
        if not len(near):
            seen.append(i)
    return out


@pytest.mark.parametrize("seed", range(8))
def test_germ_classes_in_rounds_equal_the_germ_by_germ_loop(seed):
    # few classes per group, with offsets 0.7 tol apart, so a germ may lie
    # within the tolerance of two representatives and must take the first;
    # in group 0 the first germ raises, in group 1 a later germ, and rejected
    # germs and the groups interleave
    rng = np.random.default_rng(seed)
    n = 300
    groups = rng.integers(0, 10, n).tolist()
    steps = rng.integers(0, 6, n) * 0.7 * GERM_EQUALITY_TOL + rng.integers(0, 3, n) * 1e-3
    germs = [None if rng.random() < 0.1 else _scan_germ(Affine(1.0, b)) for b in steps.tolist()]
    for k in rng.choice(n, 4, replace=False).tolist():
        germs[k] = _scan_germ(_raising(f"germ {k}"))
    first0 = next(i for i, x in enumerate(germs) if x is not None and groups[i] == 0)
    germs[first0] = _scan_germ(_raising("first of group 0"))
    later1 = [i for i, x in enumerate(germs) if x is not None and groups[i] == 1][3]
    germs[later1] = _scan_germ(_raising("later in group 1"))
    got = holoifs.symmetry._germ_classes(germs, [0.25] * n, 0.01, groups)
    want = _loop_germ_classes(germs, [0.25] * n, 0.01, groups)
    assert [str(c) if isinstance(c, _Planted) else c for c in got] == [
        str(c) if isinstance(c, _Planted) else c for c in want]
    outcomes = Counter(type(c).__name__ for c in got)
    assert outcomes["_Planted"] > 0 and outcomes["int"] > 0 and outcomes["NoneType"] > 0
    assert "first of group 0" in map(str, got) and "later in group 1" in map(str, got)
    assert sum(c not in (None, i) and isinstance(c, int) for i, c in enumerate(got)) > 0


def test_germ_class_scan_memory_grows_linearly_with_the_germs():
    # one group with four classes: 4,096 germs against 256
    def peak(n):
        germs = [_scan_germ(Affine(1.0, 1e-3 * (i % 4))) for i in range(n)]
        tracemalloc.start()
        try:
            classes = holoifs.symmetry._germ_classes(germs, [0.25] * n, 0.01, [0] * n)
            return tracemalloc.get_traced_memory()[1], len(set(classes))
        finally:
            tracemalloc.stop()

    (small, small_classes), (big, big_classes) = peak(256), peak(4096)
    assert small_classes == big_classes == 4
    # 16 times the germs; pairs of germs would be 256 times
    assert big <= 20 * small


@pytest.mark.parametrize("lone", [False, True])
def test_functional_sweep_evaluates_a_planted_germ_only_when_compared(monkeypatch, lone):
    build = holoifs.symmetry.build_symmetries

    def planting(*args):
        out = build(*args)
        first = next(k for k, x in enumerate(out) if isinstance(x, SymmetryGerm))
        if lone:  # every other germ of the disk rejected
            out = [x if k == first else CriterionEmpty("planted") for k, x in enumerate(out)]
        out[first] = dataclasses.replace(out[first], map=_raising("planted"))
        return out

    monkeypatch.setattr(holoifs.symmetry, "build_symmetries", planting)
    if not lone:
        with pytest.raises(_Planted):
            shared_attractor(cantor_thirds(), cantor_thirds_reflected(), EPS)
        return
    report = shared_attractor(cantor_thirds(), cantor_thirds_reflected(), EPS)
    assert report.verdict == "Inconclusive"
    assert {e.note for e in report.functional_equations} == {"", "CriterionEmpty"}


def _plant(monkeypatch, plan):
    """Patch build_symmetries to replace outcome ``k`` of the sweep's disk ``d`` by ``plan[d, k]``.

    An exception replaces the outcome; a map replaces the germ's map.
    """
    build = holoifs.symmetry.build_symmetries

    def planting(G, F, a, words):
        out = build(G, F, a, words)
        bases = np.asarray(a).tolist()
        starts = [k for k, z in enumerate(bases) if k == 0 or z != bases[k - 1]]
        for (d, k), what in plan.items():
            row = starts[d] + k
            out[row] = what if isinstance(what, Exception) else dataclasses.replace(
                out[row], map=what)
        return out

    monkeypatch.setattr(holoifs.symmetry, "build_symmetries", planting)


#: an in-family map that raises NotInImage on every sample: y - 100 lies
#: outside the half-plane of the branch's image
FAILING = Composite((SqrtBranch(-6.0, 1).inverse(), Affine(1.0, -100.0)))


@pytest.mark.parametrize(
    "plan, raised",
    [
        # the scan of disk 1 compares its second germ with the first
        ({(1, 1): FAILING, (2, 1): _raising("later disk")}, NotInImage),
        ({(2, 1): FAILING, (1, 1): _raising("earlier disk")}, _Planted),
        # an outcome the loop raises comes before a later germ's failure
        ({(1, 0): BudgetExceeded("planted"), (1, 1): FAILING}, BudgetExceeded),
        ({(1, 1): FAILING, (1, 2): BudgetExceeded("planted")}, NotInImage),
        ({(1, 2): _raising("third"), (1, 1): _raising("second")}, _Planted),
    ],
)
def test_functional_sweep_raises_the_first_planted_failure_it_reaches(monkeypatch, plan, raised):
    G, F = system_net(cantor_thirds()), system_net(cantor_thirds_reflected())
    _plant(monkeypatch, plan)
    with pytest.raises(raised) as info:
        holoifs.symmetry._functional_sweep(G, F, Budgets())
    if raised is _Planted:
        assert str(info.value) in ("earlier disk", "second")


def test_functional_sweep_never_raises_for_a_lone_failing_germ(monkeypatch):
    # the scan compares no germ with a lone one, and the residuals read its words only
    G, F = system_net(cantor_thirds()), system_net(cantor_thirds_reflected())
    rejected = CriterionEmpty("planted")
    _plant(monkeypatch, {(0, 0): FAILING, (0, 1): rejected, (0, 2): rejected, (0, 3): rejected})
    entries = holoifs.symmetry._functional_sweep(G, F, Budgets())
    assert [e.note for e in entries[:4]] == ["", "CriterionEmpty", "CriterionEmpty",
                                             "CriterionEmpty"]
    assert all(e.ok for e in entries if not e.note)


@pytest.mark.parametrize(
    "pair",
    [
        (cantor_thirds(), cantor_thirds_reflected()),
        (sqrt_julia(-6.0), iterate_system(sqrt_julia(-6.0), 2)),
    ],
    ids=["thirds-reflected", "julia-square"],
)
def test_functional_sweep_residuals_match_a_germ_by_germ_evaluation(pair):
    # the sweep composes each word once and pulls each class's samples back
    # once; every residual is the one the germ-by-germ composition gives
    G, F = (system_net(system) for system in pair)
    budgets = Budgets()
    entries = holoifs.symmetry._functional_sweep(G, F, budgets)
    r = RADIUS_FRACTION * min(G.rho, F.rho)
    disks = holoifs.attractor.box_restriction(G.system, G.net, r, budgets.point_cap)
    checked = 0
    for e in entries:
        if e.word_f is None:
            continue
        disk = disks[e.disk_index]
        inside = G.net.points[np.abs(G.net.points - disk.center) <= disk.radius]
        samples = holoifs.symmetry._subsample(inside, budgets.eq_samples)
        y = compose_word(G.system, e.rep_word_g)(samples)
        lhs = compose_maps((compose_word(F.system, e.word_f),
                            compose_word(F.system, e.rep_word_f).inverse()))
        rhs = compose_maps((compose_word(G.system, e.word_g),
                            compose_word(G.system, e.rep_word_g).inverse()))
        assert e.residual == float(np.max(np.abs(lhs(y) - rhs(y)))) and e.note == ""
        checked += 1
    assert checked == len(entries) > 0


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


def _dict_spectrum_compat(specG, specF, l_max, tol):
    """The dict of ``round`` keys and ``sorted`` that the float keys replaced, as the oracle.

    A power matches a target within ``tol`` times its own modulus.
    """
    targets = specF.multipliers()
    seen = {}
    for lam in specG.multipliers():
        key = (round(lam.real / tol), round(lam.imag / tol))
        if key not in seen:
            seen[key] = complex(lam)
    out = []
    for lam in sorted(seen.values(), key=lambda z: (z.real, z.imag)):
        found = None
        for l in range(1, l_max + 1):
            if len(targets) and float(np.min(np.abs(lam**l - targets))) <= tol * abs(lam**l):
                found = l
                break
        out.append((lam, found))
    return out


def _signed_zero_spectrum():
    # multipliers that differ only in the sign of a zero part, or by less
    # than the tolerances, and repeats; a spectrum would deduplicate its
    # table, so the multipliers are planted on a stand-in
    lambdas = np.array(
        [complex(0.25, -0.0), 0.25, complex(-0.0, 0.5), 0.5j, 0.3 + 1e-10j, 0.3, -0.0, 0.0, 0.25]
    )
    return SimpleNamespace(multipliers=lambda: lambdas)


@pytest.mark.parametrize("tol", [1e-9, 1e-12, 1e-300])
@pytest.mark.parametrize(
    "make",
    [
        lambda: (spectrum(cantor_thirds_reflected(), 4), spectrum(cantor_thirds(), 8)),
        lambda: (spectrum(cantor_thirds(), 8), spectrum(cantor_thirds_reflected(), 4)),
        lambda: (spectrum(sqrt_julia(-6.0), 8), spectrum(iterate_system(sqrt_julia(-6.0), 2), 4)),
        lambda: (spectrum(sqrt_julia(-6.0 + 0.5j), 8), spectrum(sqrt_julia(-6.0 + 0.5j), 4)),
        lambda: (_signed_zero_spectrum(), _signed_zero_spectrum()),
    ],
    ids=["reflected-thirds", "thirds-reflected", "julia6-squared", "julia-complex",
         "signed-zeros"],
)
def test_spectrum_compat_equals_the_dict_oracle(make, tol):
    specG, specF = make()
    assert spectrum_compat(specG, specF, 8, tol) == _dict_spectrum_compat(specG, specF, 8, tol)


def test_spectrum_compat_has_no_vacuous_match_below_the_tolerance():
    # F's 0.06 and 0.0036 once matched G's spectrum at l = 8 and l = 4, where
    # every power and target lies below the absolute tolerance: 0.06**8 =
    # 1.7e-10 against 0.05**8 = 3.9e-11; relative to the power, they do not
    G = IfsSystem((Affine(0.05, 0.0), Affine(0.05, 0.95)), Disk(0.5 + 0j, 2.0))
    F = IfsSystem((Affine(0.05, 0.0), Affine(0.06, 0.94)), Disk(0.5 + 0j, 2.0))
    matches = dict(spectrum_compat(spectrum(F, 2), spectrum(G, 8), 8))
    assert abs(0.06**8 - 0.05**8) <= 1e-9 and abs(0.0036**4 - 0.05**8) <= 1e-9
    assert matches[complex(0.06)] is None and matches[complex(0.06 * 0.06)] is None
    assert matches[complex(0.05)] == 1
    # a power matches a target within tol of its own modulus, not of 1: the
    # absolute rule matched the square 1e-12 to the target 0
    tiny = SimpleNamespace(multipliers=lambda: np.array([1e-6]))
    for target, want in ((1e-6 * (1 + 5e-10), 1), (1e-6 * (1 + 2e-9), None), (0.0, None)):
        spec = SimpleNamespace(multipliers=lambda t=target: np.array([t]))
        assert spectrum_compat(tiny, spec, 2) == [(1e-6 + 0j, want)]


@pytest.mark.parametrize("delta", [1e-9, 1e-10])
def test_a_perturbed_thirds_pair_fails_the_spectrum_check(delta):
    # {(1/3 + delta) z, z/3 + 2/3} against the thirds: the multiplier
    # (1/3 + delta)^4 of the word 0000 differs from the thirds' 3^-4 by about
    # 12 delta times its modulus, beyond the relative tolerance 1e-9, and so
    # do its powers; the absolute rule matched it
    g = cantor_thirds()
    f = IfsSystem((Affine(1 / 3 + delta, 0.0), Affine(1 / 3, 2 / 3)), g.domain)
    report = shared_attractor(g, f, EPS)
    assert report.verdict == "Inconclusive"
    assert report.notes == ("preperiodic cross-check failed", "spectrum compatibility failed")
    assert any(l is None for _, l in report.spectrum_matches)


@pytest.mark.parametrize("tol", [1e-320, 0.0, float("nan")])
def test_spectrum_compat_rejects_a_tolerance_below_the_normal_floats(tol):
    # 1/3 over 1e-320 overflows, so every multiplier would share one key
    spec = spectrum(cantor_thirds(), 2)
    with pytest.raises(ValueError, match="^the spectrum tolerance must be a normal float"):
        spectrum_compat(spec, spec, 4, tol)


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


def test_shared_verdict_and_notes_follow_each_check(monkeypatch):
    # the evidence is planted; the rule is written out as the three checks
    # and their notes were before one table decided both
    passing = FunctionalEquation(0, Word((0,), 2), None, None, None, 0.0, True)
    failing = dataclasses.replace(passing, residual=1.0, ok=False)
    preps = [((3, 0), (3, 0)), ((0, 0), (3, 0)), ((3, 1), (3, 0)), ((3, 0), (0, 0)),
             ((3, 0), (3, 2))]
    spectra = [[(0.5, 1)], [], [(0.5, 1), (0.25, None)]]
    sweeps = [(passing,), (), (passing, failing)]
    unused = SimpleNamespace(truncated=lambda length: None)
    monkeypatch.setattr(holoifs.symmetry, "spectrum", lambda system, max_len: unused)
    monkeypatch.setattr(holoifs.symmetry, "extend_spectrum", lambda system, spec, max_len: spec)
    for (forward, backward), matches, equations in itertools.product(preps, spectra, sweeps):
        checks = iter([forward, backward])
        monkeypatch.setattr(holoifs.symmetry, "_prep_check", lambda *args: next(checks))
        monkeypatch.setattr(holoifs.symmetry, "spectrum_compat", lambda *args: matches)
        monkeypatch.setattr(holoifs.symmetry, "_functional_sweep", lambda *args: equations)
        report = shared_attractor(cantor_thirds(), cantor_thirds_reflected(), EPS)
        notes = []
        if not (forward[0] > 0 and forward[1] == 0 and backward[0] > 0 and backward[1] == 0):
            notes.append("preperiodic cross-check failed")
        if not (len(matches) > 0 and all(l is not None for _, l in matches)):
            notes.append("spectrum compatibility failed")
        if not (len(equations) > 0 and all(e.ok for e in equations)):
            notes.append("functional-equation sweep failed")
        assert report.notes == tuple(notes)
        assert report.verdict == ("Inconclusive" if notes else "Shared")
        assert (report.prep_forward, report.prep_backward) == (forward, backward)
        assert report.spectrum_matches == tuple(2 * matches)
        assert report.functional_equations == equations and report.ssc_both


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


def _conjugated(system, u, t):
    """``h ∘ g ∘ h⁻¹`` for every affine map ``g``, with ``h(z) = u·z + t``, on ``h(domain)``."""
    maps = tuple(Affine(g.alpha, u * g.b + t * (1 - g.alpha)) for g in system.maps)
    return IfsSystem(maps, Disk(u * system.domain.center + t, system.domain.radius))


_coordinate = st.floats(-100.0, 100.0, allow_subnormal=False)


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(
    a=st.floats(0.15, 0.4),
    b=st.floats(0.15, 0.4),
    angle=st.floats(0.0, 2 * np.pi),
    t=st.builds(complex, _coordinate, _coordinate),
)
def test_shared_with_its_square_survives_swapping_and_conjugation(a, b, angle, t):
    # a system shares its attractor with its own square; the verdict holds
    # with the pair swapped, and when both systems and their domain are moved
    # by the rotation and translation z -> u z + t, which walks complex affine
    # inverse orbits far from the origin
    G = IfsSystem((Affine(a, 0.0), Affine(b, 1.0 - b)), Disk(0.5, 2.0))
    G2 = iterate_system(G, 2)
    assert shared_attractor(G, G2, 1e-3).verdict == "Shared"
    assert shared_attractor(G2, G, 1e-3).verdict == "Shared"
    u = complex(np.cos(angle), np.sin(angle))
    moved = shared_attractor(_conjugated(G, u, t), _conjugated(G2, u, t), 1e-3)
    assert moved.verdict == "Shared", moved.notes


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


def test_inconclusive_when_net_refinement_meets_a_branch_cut():
    # the net refinement of sqrt_julia(-5.5) in B(0, 5) meets a square-root
    # branch cut: no net distance is measured, and the note names the error
    report = shared_attractor(sqrt_julia(-5.5), sqrt_julia(-5.5), EPS)
    assert report.verdict == "Inconclusive"
    assert np.isnan(report.hausdorff) and report.ssc_both is False
    assert report.notes == ("DomainError: disk meets a square-root branch cut",)
    assert report.prep_forward == report.prep_backward == (0, 0)
    assert report.spectrum_matches == report.functional_equations == ()


def test_inconclusive_when_a_later_stage_fails(monkeypatch):
    # an error after the net distance keeps it and the separation verdict
    def prep_check(*args):
        raise DomainError("planted")

    monkeypatch.setattr(holoifs.symmetry, "_prep_check", prep_check)
    report = shared_attractor(cantor_thirds(), cantor_thirds_reflected(), EPS)
    assert report.verdict == "Inconclusive" and report.ssc_both is True
    assert 0.0 <= report.hausdorff <= 2 * EPS
    assert report.notes == ("DomainError: planted",)


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
    for p in prep_points(cantor_thirds_reflected(), 4):
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
        # |lambda| / 1e-320 overflows; the smallest normal float is the bound
        ("spectrum_tol", 1e-320),
        ("spectrum_tol", np.nextafter(sys.float_info.min, 0.0)),
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


def test_shared_attractor_takes_the_smallest_normal_spectrum_tolerance():
    budgets = Budgets(spectrum_tol=sys.float_info.min)
    report = shared_attractor(cantor_thirds(), cantor_thirds_reflected(), 1e-2, budgets)
    assert report.spectrum_matches


def test_budgets_accept_numpy_scalars():
    budgets = Budgets(eq_samples=np.int64(8), spectrum_tol=np.float64(1e-6), func_eq_tol=1)
    assert budgets.eq_samples == 8


@pytest.mark.parametrize("eps", [np.nan, np.inf])
def test_shared_attractor_rejects_non_finite_resolution(eps):
    with pytest.raises(ValueError, match="finite and positive"):
        shared_attractor(cantor_thirds(), cantor_thirds_reflected(), eps)


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


@pytest.mark.parametrize(
    "pair, trees",
    [
        ((cantor_thirds(), cantor_thirds_reflected()), 6),
        ((sqrt_julia(-6.0), iterate_system(sqrt_julia(-6.0), 2)), 8),
    ],
    ids=["thirds-reflected", "julia-square"],
)
def test_shared_attractor_indexes_each_map_image_once(monkeypatch, pair, trees):
    # two trees for the net distance, then one per map image, built by
    # certify_ssc and queried by the inverse map and rho_radius alike
    built = []
    point_index = holoifs.attractor.PointIndex

    def spy(points):
        built.append(len(points))
        return point_index(points)

    for module in (holoifs.attractor, holoifs.symmetry):
        monkeypatch.setattr(module, "PointIndex", spy)
    assert shared_attractor(*pair, EPS).verdict == "Shared"
    assert len(built) == trees


def test_word_budgets_fail_before_the_prep_check(monkeypatch):
    # T = {z/5, z/5 + 2/5, z/5 + 4/5}: the spectrum of its 9-map square to
    # length 8 needs 9 + 81 + ... + 9**8 words
    T = IfsSystem((Affine(0.2, 0.0), Affine(0.2, 0.4), Affine(0.2, 0.8)), Disk(0.5, 2.0))

    def prep_check(*args):
        raise AssertionError("the prep check ran before the word budgets")

    monkeypatch.setattr(holoifs.symmetry, "_prep_check", prep_check)
    with pytest.raises(BudgetExceeded, match="^48427560 words exceed the cap 10000000$"):
        shared_attractor(T, iterate_system(T, 2), 1e-3)


def test_osc_composition_property(thirds):
    system, net = thirds.system, thirds.net
    disks = (Disk(1 / 6 + 0j, 1 / 6 + 0.01), Disk(5 / 6 + 0j, 1 / 6 + 0.01))
    cert = certify_strong_osc(system, disks, net)
    assert cert.valid
    tree = cKDTree(_xy(net.points))
    from itertools import product

    for disk in disks:
        members = net.points[np.abs(net.points - disk.center) <= disk.radius]
        for length in range(1, 4):
            for idx in product(range(2), repeat=length):
                image = compose_word(system, Word(idx, 2))(members)
                d, _ = tree.query(_xy(image), k=1)
                assert np.max(d) <= net.epsilon + 1e-12


@pytest.mark.parametrize("s", [1e160, 1e200])
def test_the_thirds_pair_scaled_past_overflowing_squares_is_never_not_shared(s):
    # {z/3, z/3 + 2s/3} and {z/3, s - z/3} share the scaled Cantor set; their
    # net distances square past the largest float
    domain = Disk(s / 2, 2 * s)
    g = IfsSystem((Affine(1 / 3, 0.0), Affine(1 / 3, 2 * s / 3)), domain)
    f = IfsSystem((Affine(1 / 3, 0.0), Affine(-1 / 3, s)), domain)
    report = shared_attractor(g, f, s / 1000)
    assert report.verdict != "NotShared"
    assert report.hausdorff < 2 * s / 1000
