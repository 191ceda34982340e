"""Tests for periodic points, spectra, and inverse-map orbits."""

from __future__ import annotations

import cmath
import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import holoifs.dynamics
from holoifs import (
    BudgetExceeded,
    Disk,
    DomainError,
    IfsSystem,
    NoConvergence,
    NotInImage,
    OutsideAttractor,
    SeparationFailure,
    SingularDerivative,
    Word,
)
from holoifs.attractor import (
    AttractorNet,
    certify_ssc,
    certify_strong_osc,
    compute_net,
    first_per_key,
    rho_radius,
)
from holoifs.dynamics import (
    PREP_DEDUP_TOL,
    SPECTRUM_DEDUP_TOL,
    InverseDynamics,
    OrbitReport,
    PeriodicPoint,
    _necklace_letters,
    check_word_budget,
    fixed_point,
    spectrum,
)
from holoifs.maps import Affine, Composite, SqrtBranch, compose_word
from holoifs.symmetry import Budgets, SystemNet, address
from holoifs.systems import cantor_thirds, cantor_thirds_reflected, iterate_system, sqrt_julia

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


def _scalar_orbit(system, pp):
    """The periodic orbit of ``pp`` by scalar calls, as the oracle of ``orbit_points``.

    Entry ``j+1`` applies letter ``-1-j``: each cyclic rotation of the word
    fixes the corresponding orbit point, so the orbit lists the fixed points
    of all rotations.
    """
    pts = [pp.point]
    for letter in pp.word.indices[:0:-1]:
        pts.append(complex(system.maps[letter](pts[-1])))
    return tuple(pts)


def test_orbit_of_periodic_point_lists_rotation_fixed_points():
    system = cantor_thirds()
    pp = fixed_point(system, Word((0, 1), 2))
    pts = _scalar_orbit(system, pp)
    assert len(pts) == 2
    assert abs(pts[0] - 0.25) < 1e-14
    assert abs(pts[1] - 0.75) < 1e-14
    # each orbit point is fixed by the corresponding rotation of the word
    rot = fixed_point(system, Word((1, 0), 2))
    assert abs(rot.point - pts[1]) < 1e-14
    # the table's orbits: those of (0) and (0,0), of (0,1), and of (1) and (1,1)
    orbits = spectrum(system, 2).orbit_points(system)
    assert np.allclose(orbits, [0.0, 0.25, 0.75, 1.0], rtol=0.0, atol=1e-14)


def test_multiplier_is_rotation_invariant():
    system = cantor_thirds_reflected()
    a = fixed_point(system, Word((0, 1, 1), 2))
    b = fixed_point(system, Word((1, 1, 0), 2))
    c = fixed_point(system, Word((1, 0, 1), 2))
    assert abs(a.multiplier - b.multiplier) < 1e-13
    assert abs(b.multiplier - c.multiplier) < 1e-13


def test_fixed_point_rejects_a_foreign_alphabet():
    with pytest.raises(IndexError, match="word alphabet size 3 does not match"):
        fixed_point(cantor_thirds(), Word((0,), 3))


# ---------------------------------------------------------------------------
# the array solver against the scalar loop it replaced


def _scalar_fixed_point(system, word):
    """The scalar fixed-point loop that the level solver replaced, as the oracle."""
    dyn = holoifs.dynamics
    if len(word) == 0:
        raise ValueError("the empty word fixes every point")
    gw = compose_word(system, word)
    if isinstance(gw, Affine):
        if abs(gw.alpha) >= 1.0:
            raise NoConvergence("word map is not a contraction")
        p = gw.b / (1.0 - gw.alpha)
    else:
        p = complex(system.domain.center)
        for _ in range(dyn.FIXED_POINT_MAX_ITER):
            q = complex(gw(p))
            if abs(q - p) <= dyn.FIXED_POINT_TOL * max(1.0, abs(p)):
                p = q
                break
            p = q
        else:
            raise NoConvergence(f"no fixed point after {dyn.FIXED_POINT_MAX_ITER} iterations")
    if abs(complex(gw(p)) - p) > dyn.PERIODIC_RESIDUAL_TOL:
        raise NoConvergence("fixed-point residual above tolerance")
    mult = complex(gw.deriv(p))
    if abs(mult) >= 1.0:
        raise NoConvergence("fixed point is not attracting")
    return PeriodicPoint(word, complex(p), mult)


def _necklaces(m, length):
    """Fredricksen-Kessler-Maiorana, the generator the array necklaces replaced, as the oracle.

    Extends each prenecklace periodically and keeps those whose period
    divides ``length``; yields in increasing order.
    """
    w = [-1]
    while w:
        w[-1] += 1
        k = len(w)
        if length % k == 0:
            yield tuple(w * (length // k))
        while len(w) < length:
            w.append(w[-k])
        while w and w[-1] == m - 1:
            w.pop()


def _scalar_periodic_points(system, max_len):
    m = len(system.maps)
    return [
        _scalar_fixed_point(system, Word(w, m))
        for n in range(1, max_len + 1)
        for w in _necklaces(m, n)
    ]


def _table_rows(spec):
    """Every row of a spectrum's necklace table as a ``PeriodicPoint``, in table order."""
    letters, lengths, points, lambdas = spec.table
    width, m = letters.shape[1], spec.alphabet_size
    rows = zip(letters.tolist(), lengths.tolist(), points.tolist(), lambdas.tolist())
    return [PeriodicPoint(Word(w[width - n:], m), p, lam) for w, n, p, lam in rows]


def _complex_similarity():
    return IfsSystem(
        (Affine(0.4 + 0.2j, 0.0), Affine(0.3 - 0.25j, 0.6 + 0.3j)), Disk(0.5, 2.0)
    )


def _real_mixed():
    return IfsSystem((SqrtBranch(-6.0, 1), Affine(0.2, -1.0)), Disk(0.0, 5.0))


def _complex_mixed():
    return IfsSystem(
        (SqrtBranch(-6.0 + 0.5j, 1), Affine(0.2 + 0.1j, -1.0 + 0.3j)), Disk(0.0, 5.0)
    )


@pytest.mark.parametrize(
    "make, max_len",
    [
        (cantor_thirds, 10),
        (cantor_thirds_reflected, 10),
        (lambda: iterate_system(cantor_thirds(), 3), 5),
        (_complex_similarity, 7),
        (lambda: sqrt_julia(-6.0), 10),
        (lambda: sqrt_julia(-6.7), 10),
        (lambda: iterate_system(sqrt_julia(-6.0), 2), 8),
        (_real_mixed, 10),
    ],
    ids=["thirds", "reflected", "thirds-cubed", "complex-similarity", "julia6",
         "julia6.7", "julia6-squared", "real-mixed"],
)
def test_periodic_points_equal_the_scalar_oracle(make, max_len):
    # affine words take the same closed form, and real values round the
    # same in arrays as in scalars, so every word, point and multiplier is ==
    system = make()
    assert _table_rows(spectrum(system, max_len)) == _scalar_periodic_points(system, max_len)


@pytest.mark.parametrize(
    "make, max_len",
    [
        (lambda: sqrt_julia(-6.0 + 0.5j), 10),
        (lambda: iterate_system(sqrt_julia(-6.0 + 0.5j), 2), 6),
        (_complex_mixed, 10),
    ],
    ids=["julia-complex", "julia-complex-squared", "complex-mixed"],
)
def test_periodic_points_match_the_oracle_on_complex_values(make, max_len):
    # numpy's complex products and quotients may differ from CPython's in
    # the last bit
    system = make()
    mine = _table_rows(spectrum(system, max_len))
    oracle = _scalar_periodic_points(system, max_len)
    assert [pp.word for pp in mine] == [pp.word for pp in oracle]
    for pp, want in zip(mine, oracle):
        assert abs(pp.point - want.point) <= 1e-14 * abs(want.point)
        assert abs(pp.multiplier - want.multiplier) <= 1e-14 * abs(want.multiplier)


@pytest.mark.parametrize(
    "make, words",
    [
        (cantor_thirds_reflected, [(0,), (1,), (1, 1, 0), (1, 0, 1, 1)]),
        (lambda: sqrt_julia(-6.0), [(0,), (1,), (0, 1), (1, 1, 0, 0)]),
        (lambda: iterate_system(sqrt_julia(-6.0), 2), [(3,), (0, 2), (2, 0), (1, 3, 3)]),
        (_real_mixed, [(0,), (1,), (0, 1), (1, 0, 0)]),
    ],
    ids=["reflected", "julia6", "julia6-squared", "real-mixed"],
)
def test_fixed_point_equals_the_scalar_oracle(make, words):
    system = make()
    for w in words:
        word = Word(w, len(system.maps))
        assert fixed_point(system, word) == _scalar_fixed_point(system, word)


def test_periodic_points_fail_in_the_oracle_order(monkeypatch):
    # letter 0 is affine and takes the closed form; letter 1 needs iteration
    system = IfsSystem((Affine(0.2, -1.0), SqrtBranch(-6.0, 1)), Disk(0.0, 5.0))
    monkeypatch.setattr(holoifs.dynamics, "FIXED_POINT_MAX_ITER", 1)
    message = "^no fixed point after 1 iterations$"
    with pytest.raises(NoConvergence, match=message):
        _scalar_fixed_point(system, Word((1,), 2))
    with pytest.raises(NoConvergence, match=message):
        _scalar_periodic_points(system, 3)
    with pytest.raises(NoConvergence, match=message):
        fixed_point(system, Word((0, 1), 2))
    for max_len in (1, 3):
        with pytest.raises(NoConvergence, match=message):
            spectrum(system, max_len)


class _PlantedBranch(SqrtBranch):
    """A square-root branch whose call raises near ``trap`` and at ``exact``,
    whose derivative raises near ``sharp`` and is 100 times too large near ``flat``."""

    exact = flat = sharp = trap = None

    def __call__(self, z):
        if self.trap is not None and np.any(abs(z - self.trap) < 1e-6):
            raise DomainError("planted")
        if self.exact is not None and np.any(z == self.exact):
            raise DomainError("planted value")
        return super().__call__(z)

    def deriv(self, z):
        if self.sharp is not None and np.any(abs(z - self.sharp) < 1e-6):
            raise SingularDerivative("planted derivative")
        d = super().deriv(z)
        return d if self.flat is None else np.where(abs(z - self.flat) < 1e-6, 100 * d, d)


def test_the_first_failing_row_in_length_order_raises_after_the_rows_before_it():
    # every length is solved in one array, so the length-3 row that raises in
    # its iteration is met before the length-2 row fails its last check
    julia = sqrt_julia(-6.0)
    planted = _PlantedBranch(-6.0, 1)
    system = IfsSystem((planted, julia.maps[1]), julia.domain)
    planted.flat = julia.maps[1](fixed_point(julia, Word((0, 1), 2)).point)
    planted.trap = julia.maps[1](fixed_point(julia, Word((0, 0, 1), 2)).point)
    with pytest.raises(DomainError, match="^planted$"):
        fixed_point(system, Word((0, 0, 1), 2))
    message = "^fixed point is not attracting$"
    with pytest.raises(NoConvergence, match=message):
        _scalar_periodic_points(system, 3)
    # the rows before the failing (0, 1): (0), (1) and (0, 0)
    assert _table_rows(spectrum(system, 1)) == _scalar_periodic_points(system, 1)
    assert fixed_point(system, Word((0, 0), 2)) == _scalar_fixed_point(system, Word((0, 0), 2))
    with pytest.raises(NoConvergence, match=message):
        spectrum(system, 3)


@pytest.mark.parametrize(
    "tol, error, message",
    [
        (None, SingularDerivative, "^planted derivative$"),
        # the scalar loop tests the residual before it takes the derivative
        (-1.0, NoConvergence, "^fixed-point residual above tolerance$"),
    ],
    ids=["derivative", "residual-first"],
)
def test_a_derivative_that_raises_inside_a_word_keeps_the_oracle_order(
        monkeypatch, tol, error, message):
    # the planted factor acts first, so its derivative raises before the
    # outer factor is applied, and the residual needs a pass of its own
    julia = sqrt_julia(-6.0)
    planted = _PlantedBranch(-6.0, 1)
    planted.sharp = fixed_point(julia, Word((1, 0), 2)).point
    system = IfsSystem((Composite((julia.maps[1], planted)), julia.maps[0]), julia.domain)
    if tol is not None:
        monkeypatch.setattr(holoifs.dynamics, "PERIODIC_RESIDUAL_TOL", tol)
    for solve in (_scalar_periodic_points, spectrum):
        with pytest.raises(error, match=message):
            solve(system, 2)


def test_a_value_that_raises_after_a_derivative_keeps_the_oracle_order():
    # at the fixed point p of word (1,), the inner factor's derivative raises,
    # and the outer factor's value raises at the inner image of p itself,
    # which no iteration step met: the scalar loop evaluates the value first
    julia = sqrt_julia(-6.0)
    inner, outer = _PlantedBranch(-6.0, 1), _PlantedBranch(-6.0, -1)
    system = IfsSystem((julia.maps[0], Composite((outer, inner))), julia.domain)
    p = fixed_point(system, Word((1,), 2)).point
    inner.sharp, outer.exact = p, inner(np.array([p]))[0]
    for solve in (_scalar_periodic_points, spectrum):
        with pytest.raises(DomainError, match="^planted value$"):
            solve(system, 2)
    assert fixed_point(system, Word((0,), 2)) == _scalar_fixed_point(system, Word((0,), 2))


def test_word_budget_counts_spectrum_and_prep_words():
    # the spectrum and the prep points read one necklace table, so one length
    # counts the words of both
    thirds = cantor_thirds()
    check_word_budget(thirds, 3, word_cap=14)  # 2 + 4 + 8 words
    with pytest.raises(BudgetExceeded, match="^14 words exceed the cap 13$"):
        check_word_budget(thirds, 3, word_cap=13)
    check_word_budget(thirds, 2, word_cap=6)  # 2 + 4 words
    with pytest.raises(BudgetExceeded, match="^6 words exceed the cap 5$"):
        check_word_budget(thirds, 2, word_cap=5)


# ---------------------------------------------------------------------------
# spectra


def _unique_multipliers(spec):
    vals = spec.lambdas
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
    mine = {complex(round(v.real, 9), round(v.imag, 9)) for v in spec.lambdas}
    assert mine == brute


def _round_key_spectrum(rows):
    """The ``round``-key loop that the array dedup of the spectrum replaced, as the oracle."""
    entries, keys = [], set()
    for pp in rows:
        key = (
            round(pp.point.real / SPECTRUM_DEDUP_TOL),
            round(pp.point.imag / SPECTRUM_DEDUP_TOL),
            round(pp.multiplier.real / SPECTRUM_DEDUP_TOL),
            round(pp.multiplier.imag / SPECTRUM_DEDUP_TOL),
        )
        if key not in keys:
            keys.add(key)
            entries.append(pp)
    return entries


@pytest.mark.parametrize(
    "make, max_len",
    [
        (cantor_thirds, 10),
        (cantor_thirds_reflected, 10),
        (lambda: sqrt_julia(-6.0), 10),
        (lambda: iterate_system(sqrt_julia(-6.0), 2), 8),
        (lambda: iterate_system(sqrt_julia(-6.0 + 0.5j), 2), 6),
        (_complex_mixed, 10),
    ],
    ids=["thirds", "reflected", "julia6", "julia6-squared", "julia-complex-squared",
         "complex-mixed"],
)
def test_spectrum_equals_the_round_key_oracle(make, max_len):
    system = make()
    spec = spectrum(system, max_len)
    oracle = _round_key_spectrum(_table_rows(spec))
    assert spec.points.tolist() == [pp.point for pp in oracle]
    assert spec.lambdas.tolist() == [pp.multiplier for pp in oracle]
    assert spec.entries == tuple(oracle)
    # shared_attractor reads the shorter spectra off the longest one
    for k in range(max_len + 1):
        cut, short = spec.truncated(k), spectrum(system, k)
        assert cut.entries == short.entries
        assert cut.points.tolist() == short.points.tolist()
        assert cut.lambdas.tolist() == short.lambdas.tolist()
        assert cut.max_word_length == short.max_word_length == k


def test_spectrum_rows_cannot_be_written_through_its_arrays():
    spec = spectrum(cantor_thirds_reflected(), 4)
    before = spec.entries[0]
    cut = spec.truncated(2)
    for rows in (spec.lambdas, spec.points, cut.lambdas, cut.points,
                 *spec.table, *cut.table):
        with pytest.raises(ValueError, match="read-only"):
            rows[0] = 5
    assert spec.entries[0] == before
    assert spec.entries[0].multiplier != 5
    assert spec.table[2][0] == before.point


def _no_solve(*args):
    raise AssertionError("a word was solved past the budget")


def test_spectrum_budget(monkeypatch):
    # 2**31 - 2 words pass the default cap: it raises before any solve
    monkeypatch.setattr(holoifs.dynamics, "_levels", _no_solve)
    with pytest.raises(BudgetExceeded, match=r"^2147483646 words exceed the cap 10000000$"):
        spectrum(cantor_thirds(), 30)


# ---------------------------------------------------------------------------
# necklace enumeration


def _first_seen_min_rotations(m, length):
    """Oracle: minimal rotation of every word, in first-seen product order."""
    seen = {}
    for w in itertools.product(range(m), repeat=length):
        seen.setdefault(min(w[i:] + w[:i] for i in range(length)), None)
    return list(seen)


def _totient(d):
    return sum(1 for k in range(1, d + 1) if math.gcd(k, d) == 1)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_necklaces_match_minimal_rotations(m):
    # m = 5 at 8 letters spans several blocks of the code filter
    for length in range(1, 9):
        letters = _necklace_letters(m, length)
        assert letters.dtype == np.min_scalar_type(m - 1)
        assert letters.shape == (len(letters), length)
        necklaces = list(map(tuple, letters.tolist()))
        assert necklaces == list(_necklaces(m, length))
        assert necklaces == _first_seen_min_rotations(m, length)
        # (1/n) sum over the divisors d of n of phi(d) m^(n/d)
        divisors = [d for d in range(1, length + 1) if length % d == 0]
        assert len(necklaces) * length == sum(_totient(d) * m ** (length // d) for d in divisors)


def test_necklace_letters_hold_a_block_and_the_output_at_once():
    tracemalloc.start()
    try:
        letters = _necklace_letters(2, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert letters.shape == (52488, 20)
    # the blocks and their concatenation; the whole code range as int64
    # arrays would take several times 8 * 2**20 bytes
    assert peak - letters.nbytes < 3 * 2**20


def test_periodic_points_one_per_necklace():
    system = cantor_thirds_reflected()
    words = [pp.word.indices for pp in _table_rows(spectrum(system, 4))]
    assert words == [w for n in range(1, 5) for w in _first_seen_min_rotations(2, n)]


def _three_map_system():
    return IfsSystem(
        (Affine(0.3, 0.0), Affine(0.3, 0.7), Affine(0.3j, 0.35 + 0.6j)),
        Disk(0.5 + 0.3j, 2.0),
    )


@pytest.mark.parametrize(
    "make",
    [
        cantor_thirds,
        lambda: sqrt_julia(-6.0),
        lambda: iterate_system(sqrt_julia(-6.0), 2),
        _three_map_system,
    ],
    ids=["thirds", "julia6", "julia6-squared", "three-map"],
)
def test_prep_points_match_per_word_fixed_points(make):
    system = make()
    m = len(system.maps)
    max_word = 4 if m == 2 else 2
    brute = np.array([
        fixed_point(system, Word(w, m)).point
        for n in range(1, max_word + 1)
        for w in itertools.product(range(m), repeat=n)
    ])
    keys = np.round(brute.real / PREP_DEDUP_TOL) + 1j * np.round(brute.imag / PREP_DEDUP_TOL)
    _, first = np.unique(keys, return_index=True)
    brute = brute[first]

    pts = spectrum(system, max_word).orbit_points(system)
    assert len(pts) == len(brute)
    assert np.max(np.min(np.abs(pts[:, None] - brute[None, :]), axis=1)) <= 1e-12
    assert np.max(np.min(np.abs(brute[:, None] - pts[None, :]), axis=1)) <= 1e-12


# ---------------------------------------------------------------------------
# inverse dynamics


def test_inverse_step_picks_the_right_branch():
    system = cantor_thirds()
    net = compute_net(system, 1e-3)
    y, branch = InverseDynamics(system, net).step(2 / 3)
    assert branch == 1
    assert abs(y - 0.0) < 1e-12
    y, branch = InverseDynamics(system, net).step(0.2)
    assert branch == 0
    assert abs(y - 0.6) < 1e-12


def test_inverse_step_rejects_gap_and_far_points():
    system = cantor_thirds()
    net = compute_net(system, 1e-3)
    with pytest.raises(OutsideAttractor):
        InverseDynamics(system, net).step(0.5)
    with pytest.raises(OutsideAttractor):
        InverseDynamics(system, net).step(5.0 + 5.0j)


def test_inverse_step_needs_separation():
    halves = IfsSystem(
        (Affine(0.5, 0.0), Affine(0.5, 0.5)), Disk(0.5 + 0.0j, 2.0)
    )
    net = compute_net(halves, 1e-3)
    with pytest.raises(SeparationFailure):
        InverseDynamics(halves, net).step(0.3)


def test_a_certificate_of_another_net_is_refused():
    # b's certificate carries b's images and trees, and b's pairwise distance
    system = cantor_thirds()
    a, b = compute_net(system, 1e-2), compute_net(system, 1e-3)
    cert = certify_ssc(system, b)
    refusal = "^the certificate was made from another net$"
    for net in (a, AttractorNet(b.points, b.epsilon, b.depth)):
        with pytest.raises(ValueError, match=refusal):
            rho_radius(system, net, cert)
        with pytest.raises(ValueError, match=refusal):
            InverseDynamics(system, net, cert)
    assert rho_radius(system, b, cert) == rho_radius(system, b)
    assert InverseDynamics(system, b, cert).claim_radius == InverseDynamics(system, b).claim_radius


def test_a_strong_osc_certificate_is_refused():
    # a valid certificate, but it carries no image trees to query
    system = cantor_thirds()
    net = compute_net(system, 1e-3)
    disks = (Disk(1 / 6, 1 / 6 + 0.01), Disk(5 / 6, 1 / 6 + 0.01))
    cert = certify_strong_osc(system, disks, net)
    assert cert.valid and cert.trees == cert.images == ()
    refusal = "^a StrongOSC certificate carries no image trees$"
    with pytest.raises(SeparationFailure, match=refusal):
        InverseDynamics(system, net, cert)
    with pytest.raises(SeparationFailure, match=refusal):
        rho_radius(system, net, cert)


def test_a_net_too_coarse_for_its_claim_radius_is_refused():
    # the thirds' certificate at epsilon 0.06 is valid, but its claim radius,
    # half the images' gap less epsilon, is not above 2 epsilon
    system = cantor_thirds()
    net = compute_net(system, 0.06)
    cert = certify_ssc(system, net)
    assert cert.valid and cert.pairwise_distance / 2 - net.epsilon <= 2 * net.epsilon
    with pytest.raises(SeparationFailure, match="^net too coarse to resolve inverse branches$"):
        InverseDynamics(system, net, cert)


def test_orbit_period_two():
    system = cantor_thirds()
    net = compute_net(system, 1e-3)
    rep = InverseDynamics(system, net).orbit(0.75)
    assert rep.preperiod == 0
    assert rep.period == 2
    assert abs(rep.points[0] - 0.75) < 1e-12
    assert abs(rep.points[1] - 0.25) < 1e-12
    assert rep.is_preperiodic


def test_orbit_strictly_preperiodic():
    system = cantor_thirds()
    net = compute_net(system, 1e-3)
    rep = InverseDynamics(system, net).orbit(2 / 3)
    assert rep.preperiod == 1
    assert rep.period == 1
    assert abs(rep.points[1] - 0.0) < 1e-12


def test_orbit_terminates_outside():
    system = cantor_thirds()
    net = compute_net(system, 1e-3)
    rep = InverseDynamics(system, net).orbit(0.5)
    assert rep.points == (0.5,)
    assert rep.period is None and rep.preperiod is None
    assert not rep.is_preperiodic


def test_orbit_budget_truncation_reports_nothing():
    system = cantor_thirds()
    net = compute_net(system, 1e-3)
    rep = InverseDynamics(system, net).orbit(0.75, max_iter=1)
    assert rep.period is None
    assert len(rep.points) == 2


def test_orbit_escapes_after_one_step():
    system = sqrt_julia(-6.0)
    net = compute_net(system, 2e-3)
    rep = InverseDynamics(system, net).orbit(1.0)
    assert rep.period is None
    assert len(rep.points) == 2
    assert abs(rep.points[1] - (-5.0)) < 1e-9


def test_orbit_fixed_points_of_sqrt_system():
    system = sqrt_julia(-6.0)
    net = compute_net(system, 2e-3)
    for x in (3.0, -2.0):
        rep = InverseDynamics(system, net).orbit(x)
        assert rep.preperiod == 0
        assert rep.period == 1


def test_orbit_deterministic():
    system = cantor_thirds_reflected()
    net = compute_net(system, 1e-3)
    a = InverseDynamics(system, net).orbit(0.3)
    b = InverseDynamics(system, net).orbit(0.3)
    assert a == b


def test_orbit_with_no_steps_holds_only_the_start():
    system = cantor_thirds()
    rep = InverseDynamics(system, compute_net(system, 1e-3)).orbit(0.75, max_iter=0)
    assert rep.points == (0.75,)
    assert rep.period is None and rep.preperiod is None


def test_orbit_takes_the_lowest_claiming_branch():
    system = cantor_thirds()
    dyn = InverseDynamics(system, compute_net(system, 1e-3))
    dyn.claim_radius = 1.0  # both image nets now claim every point of [0, 1]
    # 0.75 lies in the image of branch 1, but branch 0 claims it first; its
    # preimage 2.25 is more than 1 from both image nets
    assert dyn.step(0.75) == (2.25, 0)
    assert dyn.orbit(0.75) == OrbitReport((0.75, 2.25), None, None)


@pytest.mark.parametrize(
    "system, epsilon", [(cantor_thirds(), 1e-3), (sqrt_julia(-6.0), 2e-3)]
)
def test_one_inverse_dynamics_serves_every_orbit(system, epsilon):
    net = compute_net(system, epsilon)
    shared = InverseDynamics(system, net)
    points = spectrum(system, Budgets().prep_max_word).orbit_points(system)
    reused = [shared.orbit(p, 64, 1e-9) for p in points]
    fresh = [InverseDynamics(system, net).orbit(p, 64, 1e-9) for p in points]
    assert reused == fresh
    assert all(rep.is_preperiodic for rep in reused)


def _walk(dyn, x, n):
    """The first ``n`` ``(branch, preimage)`` pairs of the inverse orbit of ``x``."""
    steps = []
    for _ in range(n):
        x, branch = dyn.step(x)
        steps.append((branch, x))
    return steps


@pytest.mark.parametrize("system", [cantor_thirds(), sqrt_julia(-6.0)])
def test_walk_follows_the_address(system):
    net = compute_net(system, 2e-3)
    dyn = InverseDynamics(system, net)
    for pp in spectrum(system, 3).entries:
        steps = _walk(dyn, pp.point, 20)
        letters = tuple(j for j, _ in steps)
        assert letters == address(SystemNet(system, net), pp.point, 20).indices
        # each preimage maps back onto the point before it
        prev = pp.point
        for j, b in steps:
            assert abs(complex(system.maps[j](b)) - prev) < 1e-9
            prev = b


def test_walk_raises_off_the_attractor():
    thirds = cantor_thirds()
    with pytest.raises(OutsideAttractor):
        InverseDynamics(thirds, compute_net(thirds, 1e-3)).step(0.5)
    julia = sqrt_julia(-6.0)
    dyn = InverseDynamics(julia, compute_net(julia, 2e-3))
    y, _ = dyn.step(1.0)
    assert abs(y - (-5.0)) < 1e-9
    with pytest.raises(OutsideAttractor):
        dyn.step(y)


# ---------------------------------------------------------------------------
# the batched inverse walk against the scalar loop it replaced


class _ScalarInverse:
    """The one-point step and orbit loop that the batched walk replaced, as the oracle.

    It builds its own KD trees and queries them one point at a time, and it
    inverts through the walk's own inverse maps, ``dyn.inverses``.  A point
    takes the first branch that claims it; unless ``overlapping``, no point
    it walks may be claimed by two branches, the invariant that lets the
    batched walk stop at the first claim.
    """

    def __init__(self, dyn, overlapping=False):
        self.maps = dyn.system.maps
        self.inverses = dyn.inverses
        self.claim_radius = dyn.claim_radius
        self.overlapping = overlapping
        images = [g(dyn.net.points) for g in self.maps]
        self.trees = [cKDTree(np.column_stack((z.real, z.imag))) for z in images]

    def step(self, x):
        x = complex(x)
        claims = []
        for i, tree in enumerate(self.trees):
            d, _ = tree.query([[x.real, x.imag]], k=1)
            if float(d[0]) < self.claim_radius:
                claims.append(i)
        if not claims:
            raise OutsideAttractor(f"no branch claims {x}")
        assert self.overlapping or len(claims) == 1, f"branches {claims} all claim {x}"
        try:
            return complex(self.inverses[claims[0]](x)), claims[0]
        except NotInImage as exc:
            raise OutsideAttractor(f"branch {claims[0]} cannot invert {x}") from exc

    def orbit(self, x, max_iter=200, tol=1e-9):
        pts = [complex(x)]
        try:
            for _ in range(max_iter):
                pts.append(self.step(pts[-1])[0])
                q = len(pts) - 1
                for p in range(q):
                    if abs(pts[p] - pts[q]) <= tol:
                        return OrbitReport(tuple(pts), p, q - p)
        except OutsideAttractor:
            pass
        return OrbitReport(tuple(pts), None, None)


def _with_images(system, points):
    """``points`` followed by their images under each map of ``system``."""
    return np.concatenate([points] + [g(points) for g in system.maps])


def _walk_points(system, net, max_word):
    """Prep points, their first images, points off the attractor and net points."""
    points = _with_images(system, spectrum(system, max_word).orbit_points(system))
    spread = net.points[:: max(1, len(net.points) // 40)]
    c, r = system.domain.center, system.domain.radius
    off = c + r * np.array([0.0, 0.3, 0.55j, -0.7 + 0.1j, 2.0])
    return np.concatenate((points, spread, off))


WALKED = [
    (cantor_thirds, 1e-3, 4),
    (cantor_thirds_reflected, 1e-3, 4),
    (lambda: sqrt_julia(-6.0), 1e-3, 4),
    (lambda: iterate_system(sqrt_julia(-6.0), 2), 1e-3, 2),
    (lambda: sqrt_julia(-6.7), 1e-3, 4),
    (lambda: iterate_system(cantor_thirds(), 3), 1e-3, 2),
    (lambda: sqrt_julia(-6.0 + 0.5j), 1e-3, 4),
]
WALKED_IDS = ["thirds", "reflected", "julia6", "julia6-squared", "julia6.7",
              "thirds-cubed", "julia-complex"]


@pytest.mark.parametrize("make, epsilon, max_word", WALKED, ids=WALKED_IDS)
def test_orbits_equal_the_scalar_orbit_loop(make, epsilon, max_word):
    # every preimage is inverted in scalar arithmetic, so the points are ==
    # on complex values too, not only within rounding
    system = make()
    dyn = InverseDynamics(system, compute_net(system, epsilon))
    oracle = _ScalarInverse(dyn)
    points = _walk_points(system, dyn.net, max_word)
    want = [oracle.orbit(p, 64, 1e-9) for p in points]
    assert dyn.orbits(points, 64, 1e-9) == want
    assert [dyn.orbit(p, 64, 1e-9) for p in points] == want
    # the sample holds cycles, preperiodic points and escapes
    assert {rep.period is None for rep in want} == {True, False}
    assert any(rep.preperiod for rep in want)
    # an exact recurrence test, and one loose enough that several earlier
    # points match: the first match gives the preperiod.  Without a match,
    # rounding drives some orbits off the attractor, where a branch may
    # claim a point it cannot invert: such an orbit ends with no period
    for tol in (0.0, 0.3 * system.domain.radius):
        assert dyn.orbits(points, 16, tol) == [oracle.orbit(p, 16, tol) for p in points]


@pytest.mark.parametrize("make, epsilon, max_word", WALKED, ids=WALKED_IDS)
def test_steps_equal_the_scalar_step(make, epsilon, max_word):
    system = make()
    dyn = InverseDynamics(system, compute_net(system, epsilon))
    oracle = _ScalarInverse(dyn)
    points = _walk_points(system, dyn.net, max_word)
    branch, preimage, failures = dyn.steps(points)
    for k, x in enumerate(points):
        try:
            y, i = oracle.step(x)
        except OutsideAttractor as exc:
            assert type(failures[k]) is OutsideAttractor and str(failures[k]) == str(exc)
            assert branch[k] == -1
            continue
        assert k not in failures
        assert (complex(preimage[k]), int(branch[k])) == (y, i) == dyn.step(x)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_orbits_equal_the_scalar_loop_on_random_affine_systems(data):
    maps = []
    for _ in range(data.draw(st.integers(2, 3), label="maps")):
        ratio = data.draw(st.floats(0.1, 0.3))
        angle = data.draw(st.floats(0.0, 2 * math.pi))
        shift = complex(data.draw(st.floats(-1.0, 1.0)), data.draw(st.floats(-1.0, 1.0)))
        maps.append(Affine(ratio * cmath.exp(1j * angle), shift))
    least = max(abs(g.b) / (1.0 - abs(g.alpha)) for g in maps)
    system = IfsSystem(tuple(maps), Disk(0.0, 1.5 * least + 1e-3))
    # distinct fixed points keep the net from collapsing to one point
    fixed = [g.b / (1.0 - g.alpha) for g in maps]
    assume(min(abs(p - q) for p, q in itertools.combinations(fixed, 2)) > 0.1 * least)
    net = compute_net(system, 0.005 * system.domain.radius)
    cert = certify_ssc(system, net)
    assume(cert.valid and cert.pairwise_distance / 2.0 - net.epsilon > 2.0 * net.epsilon)
    dyn = InverseDynamics(system, net, cert)
    oracle = _ScalarInverse(dyn)
    points = _walk_points(system, net, 3)
    assert dyn.orbits(points, 32, 1e-9) == [oracle.orbit(p, 32, 1e-9) for p in points]


def test_orbits_under_overlapping_claims_equal_the_oracle():
    system = cantor_thirds()
    dyn = InverseDynamics(system, compute_net(system, 1e-3))
    dyn.claim_radius = 1.0  # both image nets now claim every point of [0, 1]
    oracle = _ScalarInverse(dyn, overlapping=True)
    # the first row leaves the attractor at once; both branches claim the
    # others, and each step takes branch 0 until its preimage leaves [0, 1]
    points = [5.0 + 5.0j, 0.75, 0.25, 0.0, 1.0 / 3.0]
    want = [oracle.orbit(p) for p in points]
    assert dyn.orbits(points) == want
    assert [rep.points[:2] for rep in want[:3]] == [(5.0 + 5.0j,), (0.75, 2.25), (0.25, 0.75)]
    assert want[3] == OrbitReport((0.0, 0.0), 0, 1)
    branch, preimage, failures = dyn.steps(np.array(points))
    assert branch.tolist() == [-1, 0, 0, 0, 0] and list(failures) == [0]
    assert preimage[1:].tolist() == [3.0 * p for p in points[1:]]


def test_a_row_its_branch_cannot_invert_fails_alone(monkeypatch):
    # a claimed point that its branch cannot invert is off the attractor:
    # its orbit ends with no period, and the other rows still move
    system = sqrt_julia(-6.0)
    dyn = InverseDynamics(system, compute_net(system, 1e-3))
    points = spectrum(system, 2).orbit_points(system)
    planted = complex(points[1])
    _, i = dyn.step(planted)
    inverse = dyn.inverses[i]

    def refuse(y):
        if np.any(y == planted):
            raise NotInImage("planted refusal")
        return inverse(y)

    inverses = list(dyn.inverses)
    inverses[i] = refuse
    monkeypatch.setattr(dyn, "inverses", tuple(inverses))
    branch, preimage, failures = dyn.steps(points)
    assert list(failures) == [1] and type(failures[1]) is OutsideAttractor
    assert str(failures[1]) == f"branch {i} cannot invert {planted}"
    assert type(failures[1].__cause__) is NotInImage
    assert str(failures[1].__cause__) == "planted refusal"
    assert branch[1] == -1 and (branch[[0, 2]] >= 0).all()
    reports = dyn.orbits(points, 64, 1e-9)
    assert reports == [_ScalarInverse(dyn).orbit(p, 64, 1e-9) for p in points]
    assert reports[1] == OrbitReport((planted,), None, None)
    with pytest.raises(OutsideAttractor, match=f"^branch {i} cannot invert ") as raised:
        dyn.step(planted)
    assert str(raised.value.__cause__) == "planted refusal"
    reports = dyn.orbits(points[[0, 2, 3]], 64, 1e-9)
    assert all(rep.is_preperiodic for rep in reports)


_ROTATION = cmath.exp(0.7j)


@pytest.mark.parametrize(
    "make, epsilon",
    [
        (cantor_thirds, 1e-4),
        # conjugate by z -> u*z + t: the offsets become complex
        (lambda: IfsSystem(tuple(Affine(g.alpha, _ROTATION * g.b + (0.3 - 0.2j) * (1 - g.alpha))
                                 for g in cantor_thirds().maps),
                           Disk(_ROTATION * 0.5 + (0.3 - 0.2j), 2.0)), 1e-4),
        # a rotating similarity: complex multipliers
        (lambda: IfsSystem((Affine(_ROTATION / 3, 0.0), Affine(_ROTATION / 3, 2 / 3)),
                           Disk(0.5, 2.0)), 1e-4),
        (lambda: sqrt_julia(-6.0), 1e-3),
        (lambda: iterate_system(sqrt_julia(-6.0), 2), 1e-3),
    ],
    ids=["thirds", "thirds-conjugate", "thirds-rotating", "julia", "julia-square"],
)
def test_steps_invert_with_the_branch_inverse_bit_for_bit(make, epsilon):
    # one inversion rule: a walk's preimage is g.inverse()(x), whatever its batch
    system = make()
    dyn = InverseDynamics(system, compute_net(system, epsilon))
    xs = dyn.net.points
    branch, preimage, failures = dyn.steps(xs)
    assert not failures and (branch >= 0).all()
    want = np.array([complex(system.maps[b].inverse()(complex(x)))
                     for b, x in zip(branch.tolist(), xs.tolist())])
    assert preimage.tobytes() == want.tobytes()


def test_steps_fail_a_non_finite_row_alone():
    system = cantor_thirds()
    dyn = InverseDynamics(system, compute_net(system, 1e-3))
    branch, _, failures = dyn.steps(np.array([0.75, complex(math.nan, 0.0), 0.25]))
    assert list(failures) == [1] and type(failures[1]) is ValueError
    assert str(failures[1]) == "point (nan+0j) is not finite"
    assert branch.tolist() == [1, -1, 0]
    with pytest.raises(ValueError, match=r"^point \(inf\+0j\) is not finite$"):
        dyn.step(math.inf)
    with pytest.raises(ValueError, match=r"^point \(nan\+0j\) is not finite$"):
        dyn.orbits([0.75, math.nan])


class _SpyTree:
    """A point index that records its branch and the points of each nearest-point query."""

    def __init__(self, tree, branch, queries):
        self.tree, self.branch, self.queries = tree, branch, queries

    def nearest(self, xy):
        self.queries.append((self.branch, xy.tolist()))
        return self.tree.nearest(xy)


def test_steps_of_empty_and_all_non_finite_batches():
    queries = []
    system = cantor_thirds()
    net = compute_net(system, 1e-3)
    cert = certify_ssc(system, net)
    spies = tuple(_SpyTree(t, i, queries) for i, t in enumerate(cert.trees))
    dyn = InverseDynamics(system, net, dataclasses.replace(cert, trees=spies))
    branch, preimage, failures = dyn.steps(np.array([], dtype=np.complex128))
    assert failures == {} and len(branch) == len(preimage) == 0
    xs = np.array([math.nan, complex(0.5, math.inf), -math.inf])
    branch, _, failures = dyn.steps(xs)
    assert queries == []
    assert branch.tolist() == [-1, -1, -1] and list(failures) == [0, 1, 2]
    assert all(type(exc) is ValueError for exc in failures.values())
    assert [str(exc) for exc in failures.values()] == [
        f"point {complex(x)} is not finite" for x in xs
    ]
    # the spy sees the queries of a finite batch: branch 0 with every finite
    # row, then branch 1 with the row that branch 0 left unclaimed
    branch, _, _ = dyn.steps(np.array([0.75, math.nan, 0.25]))
    assert queries == [(0, [0.75, 0.25]), (1, [0.75])]
    assert branch.tolist() == [1, -1, 0]
    # once every row is claimed, no later tree is queried
    del queries[:]
    dyn.steps(np.array([0.25, math.nan, 0.0]))
    assert queries == [(0, [0.25, 0.0])]
    # a row that no branch claims is queried by every tree
    del queries[:]
    dyn.steps(np.array([0.5, 0.25]))
    assert queries == [(0, [0.5, 0.25]), (1, [0.5])]


def test_orbits_memory_follows_the_walk_not_the_cap():
    # a table of max_iter + 1 columns per point could not be allocated
    system = sqrt_julia(-6.0)
    dyn = InverseDynamics(system, compute_net(system, 1e-3))
    points = _with_images(system, spectrum(system, 4).orbit_points(system))
    assert dyn.orbits(points, 10**18, 1e-9) == dyn.orbits(points, 64, 1e-9)


def _step_loop_orbit(dyn, x, max_iter, tol):
    """One point's orbit by a loop of ``step``, under the recurrence rule of ``orbits``."""
    points = [complex(x)]
    for _ in range(max_iter):
        try:
            y, _ = dyn.step(points[-1])
        except OutsideAttractor:
            break
        points.append(y)
        hit = [k for k, p in enumerate(points[:-1]) if abs(p - y) <= tol]
        if hit:
            return OrbitReport(tuple(points), hit[0], len(points) - 1 - hit[0])
    return OrbitReport(tuple(points), None, None)


@pytest.mark.parametrize("make", [cantor_thirds, lambda: sqrt_julia(-6.0)],
                         ids=["thirds", "julia6"])
def test_orbits_past_sixteen_steps_equal_the_step_loop(make):
    # the table starts with 17 columns and doubles when a walk needs more:
    # the cycles of words of 20 and 25 letters, which close under a loose
    # tolerance or leave the attractor once their rounding has grown
    system = make()
    dyn = InverseDynamics(system, compute_net(system, 1e-3))
    w20 = (0, 1, 1, 0, 1, 0, 0, 0, 1, 1, 1, 0, 1, 0, 0, 1, 1, 0, 0, 0)
    words = [Word(w20, 2), Word(w20 + (1, 1, 0, 1, 0), 2)]
    points = [fixed_point(system, w).point for w in words]
    points += list(spectrum(system, 3).orbit_points(system)[:4])
    for tol in (1e-6, 1e-9, 0.0):
        want = [_step_loop_orbit(dyn, p, 64, tol) for p in points]
        assert dyn.orbits(points, 64, tol) == want
    assert max(len(rep.points) for rep in want) > 17


def test_orbits_of_no_points():
    system = cantor_thirds()
    dyn = InverseDynamics(system, compute_net(system, 1e-3))
    assert dyn.orbits(np.array([], dtype=np.complex128)) == []
    assert dyn.orbits([0.75, 0.25], max_iter=0) == [
        OrbitReport((0.75,), None, None), OrbitReport((0.25,), None, None)
    ]


# ---------------------------------------------------------------------------
# preperiodic enumeration


def test_prep_points_small_budget_exact():
    system = cantor_thirds()
    pts = spectrum(system, 1).orbit_points(system)
    assert np.allclose(pts, [0.0, 1.0], atol=1e-12)
    images = _with_images(system, pts)
    assert np.allclose(np.unique(images.real), [0.0, 1 / 3, 2 / 3, 1.0], atol=1e-12)
    assert np.allclose(images.imag, 0.0, atol=1e-12)


def test_prep_points_dedup_and_growth():
    system = cantor_thirds()
    small = spectrum(system, 2).orbit_points(system)
    large = spectrum(system, 3).orbit_points(system)
    assert len(large) > len(small)
    # each point once, although the words 00 and 000 repeat the orbit of 0
    assert np.all(np.diff(large.real) > 1e-10)
    # every small point reappears in the larger enumeration
    for p in small:
        assert np.min(np.abs(large - p)) < 1e-10


def test_prep_points_all_near_attractor():
    system = cantor_thirds_reflected()
    net = compute_net(system, 1e-3)
    pts = _with_images(system, _with_images(system, spectrum(system, 3).orbit_points(system)))
    from scipy.spatial import cKDTree

    tree = cKDTree(np.column_stack((net.points.real, net.points.imag)))
    d, _ = tree.query(np.column_stack((pts.real, pts.imag)), k=1)
    assert np.max(d) <= net.epsilon + 1e-12


def test_prep_points_budget(monkeypatch):
    # 2**25 - 2 words pass the default cap: the prep points' spectrum raises
    # before any solve
    monkeypatch.setattr(holoifs.dynamics, "_levels", _no_solve)
    with pytest.raises(BudgetExceeded, match="^33554430 words exceed the cap 10000000$"):
        spectrum(cantor_thirds(), 24)


def _composed_prep_points(system, max_word):
    """The scalar orbits of the table's rows, deduplicated on rounded keys, as the oracle."""
    rows = _table_rows(spectrum(system, max_word))
    orbits = [x for pp in rows for x in _scalar_orbit(system, pp)]
    pts = np.array(orbits, dtype=np.complex128)
    keys = (np.round(pts.real / PREP_DEDUP_TOL), np.round(pts.imag / PREP_DEDUP_TOL))
    return np.sort_complex(pts[first_per_key(*keys)])


@pytest.mark.parametrize("max_word", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "make",
    [
        cantor_thirds,
        cantor_thirds_reflected,
        lambda: sqrt_julia(-6.0),
        lambda: sqrt_julia(-6.0 + 0.5j),
        lambda: iterate_system(cantor_thirds(), 2),
        lambda: iterate_system(cantor_thirds_reflected(), 2),
        lambda: iterate_system(sqrt_julia(-6.0), 2),
        lambda: iterate_system(sqrt_julia(-6.0 + 0.5j), 2),
    ],
    ids=["thirds", "reflected", "julia6", "julia-complex", "thirds-squared",
         "reflected-squared", "julia6-squared", "julia-complex-squared"],
)
def test_prep_points_equal_the_composed_oracle(make, max_word):
    # the orbits are read off the spectrum's necklace table, with the bits of
    # scalar calls along each row
    system = make()
    oracle = _composed_prep_points(system, max_word).tobytes()
    assert spectrum(system, max_word).orbit_points(system).tobytes() == oracle
    assert spectrum(system, 4).truncated(max_word).orbit_points(system).tobytes() == oracle


def test_prep_points_raise_as_the_composed_oracle(monkeypatch):
    # one necklace is not attracting, and, with one iteration, one fails to
    # converge: both raise the first failing row's exception
    julia = sqrt_julia(-6.0)
    planted = _PlantedBranch(-6.0, 1)
    repelling = IfsSystem((planted, julia.maps[1]), julia.domain)
    planted.flat = julia.maps[1](fixed_point(julia, Word((0, 1), 2)).point)
    slow = IfsSystem((Affine(0.2, -1.0), SqrtBranch(-6.0, 1)), Disk(0.0, 5.0))
    for system, message, cap in ((repelling, "fixed point is not attracting", None),
                                 (slow, "no fixed point after 1 iterations", 1)):
        if cap:
            monkeypatch.setattr(holoifs.dynamics, "FIXED_POINT_MAX_ITER", cap)
        for solve in (_scalar_periodic_points, lambda s, n: spectrum(s, n).orbit_points(s)):
            with pytest.raises(NoConvergence, match=f"^{message}$"):
                solve(system, 3)


def test_orbit_points_raise_the_first_failing_row_in_table_order():
    # the rows are carried column by column, but an earlier row that fails at
    # its second step raises before a later row that fails at its first, as
    # the scalar orbits row by row do
    julia = sqrt_julia(-6.0)
    spec = spectrum(julia, 4)
    rows = _table_rows(spec)
    orbits = [_scalar_orbit(julia, pp) for pp in rows]
    early = next(k for k, pp in enumerate(rows) if len(pp.word) > 2 and pp.word.indices[-2] == 1)
    late = next(k for k, pp in enumerate(rows)
                if k > early and len(pp.word) > 2 and pp.word.indices[-2:] == (0, 1))
    planted = _PlantedBranch(-6.0, -1)
    system = IfsSystem((julia.maps[0], planted), julia.domain)
    planted.exact = orbits[early][1]
    planted.trap = orbits[late][0]
    with pytest.raises(DomainError, match="^planted value$"):
        [_scalar_orbit(system, pp) for pp in rows]
    with pytest.raises(DomainError, match="^planted value$"):
        spec.orbit_points(system)
    planted.exact = None
    with pytest.raises(DomainError, match="^planted$"):
        spec.orbit_points(system)


def test_spectrum_entries_are_built_on_first_read(monkeypatch):
    built = []

    def counting(*args):
        built.append(args[0])
        return PeriodicPoint(*args)

    monkeypatch.setattr(holoifs.dynamics, "PeriodicPoint", counting)
    spec = spectrum(sqrt_julia(-6.0), 4)
    cut = spec.truncated(2)
    spec.lambdas, cut.points, spec.orbit_points(sqrt_julia(-6.0))
    assert built == []
    assert len(spec.entries) == len(spec.points)
    assert cut.entries == spec.entries[:len(cut.entries)]
    assert built == [pp.word for pp in spec.entries + cut.entries]
