"""Periodic points, multiplier spectra, and inverse-branch dynamics.

The inverse map of a strongly separated system is single-valued on the
attractor: a point close to one first-level image belongs to that branch.
:class:`InverseDynamics` is that map for one system and its net.  Its
``walk`` yields the target address of a point, which every symmetry germ is
built on, and its ``orbit`` detects (pre)periodicity numerically, which the
preperiodic cross-check reads.

Periodic points are solved one word length at a time: the necklaces of that
length form one letter array, iterated as a whole, and each row stops by its
own tolerance test.  Affine words take the closed form.  On real values the
array arithmetic rounds as scalar arithmetic does; on complex values numpy's
products and quotients may differ from CPython's in the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice, product

import numpy as np
from scipy.spatial import cKDTree

from .attractor import AttractorNet, SeparationCertificate, certify_ssc
from .errors import (
    AmbiguousBranch,
    BudgetExceeded,
    NoConvergence,
    OutsideAttractor,
    SeparationFailure,
)
from .maps import Affine, Composite, HoloMap, IfsSystem, Word, compose_word

#: fixed-point iteration tolerance and cap
FIXED_POINT_TOL = 1e-14
FIXED_POINT_MAX_ITER = 10**5

#: acceptance tolerances for periodic-point data
PERIODIC_RESIDUAL_TOL = 1e-10

#: deduplication tolerances
SPECTRUM_DEDUP_TOL = 1e-9
PREP_DEDUP_TOL = 1e-10

#: default word/point budget
WORD_CAP = 10**7


@dataclass(frozen=True)
class PeriodicPoint:
    """Attracting fixed point of a word map, with its multiplier."""

    word: Word
    point: complex
    multiplier: complex

    def orbit(self, system: IfsSystem) -> tuple[complex, ...]:
        """The full periodic orbit; entry ``j+1`` applies letter ``-1-j``.

        Each cyclic rotation of the word fixes the corresponding orbit
        point, so the orbit lists the fixed points of all rotations.
        """
        pts = [self.point]
        for letter in self.word.indices[:0:-1]:
            pts.append(complex(system.maps[letter](pts[-1])))
        return tuple(pts)


@dataclass(frozen=True)
class MultiplierSpectrum:
    """Deduplicated periodic data up to a word length."""

    entries: tuple[PeriodicPoint, ...]
    max_word_length: int

    def multipliers(self) -> np.ndarray:
        return np.array([e.multiplier for e in self.entries], dtype=np.complex128)

    def truncated(self, max_len: int) -> MultiplierSpectrum:
        """The entries of words up to ``max_len`` letters."""
        entries = tuple(e for e in self.entries if len(e.word) <= max_len)
        return MultiplierSpectrum(entries, min(max_len, self.max_word_length))

    def contains_multiplier(self, value: complex, tol: float = SPECTRUM_DEDUP_TOL) -> bool:
        if not self.entries:
            return False
        return bool(np.min(np.abs(self.multipliers() - value)) <= tol)


@dataclass(frozen=True)
class OrbitReport:
    """Inverse-map orbit with detected (pre)periodicity, if any."""

    points: tuple[complex, ...]
    preperiod: int | None
    period: int | None

    @property
    def is_preperiodic(self) -> bool:
        return self.period is not None


def _factors(g: HoloMap) -> tuple[HoloMap, ...]:
    """The factors ``g`` contributes to a word map, as :func:`compose_maps` flattens."""
    return g.factors if isinstance(g, Composite) else (g,)


def _apply_words(maps, letters: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``g_w(z)`` for each row ``w`` of ``letters``, innermost letter first."""
    z = z.copy()
    for col in letters.T[::-1]:
        for a, g in enumerate(maps):
            rows = col == a
            if rows.any():
                z[rows] = g(z[rows])
    return z


def _multipliers(maps, letters: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``g_w'(z)`` for each row ``w``: the chain rule over the flattened factors.

    The products run in the order of ``Composite.deriv``, innermost factor
    first.
    """
    z = z.copy()
    total = np.ones(len(z), dtype=np.complex128)
    for col in letters.T[::-1]:
        for a, g in enumerate(maps):
            rows = np.flatnonzero(col == a)
            if not len(rows):
                continue
            zr, tr = z[rows], total[rows]
            for f in reversed(_factors(g)):
                tr = tr * f.deriv(zr)
                zr = f(zr)
            z[rows], total[rows] = zr, tr
    return total


def _modulus(z: np.ndarray) -> np.ndarray:
    # np.hypot rounds as the built-in abs() of a complex scalar does
    return np.hypot(z.real, z.imag)


def _solve_level(system: IfsSystem, letters: np.ndarray):
    """Fixed points, multipliers and failure codes of ``g_w`` for the rows ``w`` of ``letters``.

    All rows are solved at once.  A word whose factors are all affine takes
    the closed form; the others iterate ``p <- g_w(p)`` from the domain
    centre, each row until its own step drops below ``FIXED_POINT_TOL``.
    A row's code names the first check it fails (see :func:`_level_points`);
    0 passes.
    """
    n = len(letters)
    m = len(system.maps)
    points = np.empty(n, dtype=np.complex128)
    mults = np.empty(n, dtype=np.complex128)
    fail = np.zeros(n, dtype=np.int8)

    affine_letter = np.array(
        [all(isinstance(f, Affine) for f in _factors(g)) for g in system.maps]
    )
    affine = affine_letter[letters].all(axis=1)
    for i in np.flatnonzero(affine):
        gw = compose_word(system, Word(letters[i].tolist(), m))
        if abs(gw.alpha) >= 1.0:
            fail[i] = 1
            continue
        p = gw.b / (1.0 - gw.alpha)
        points[i], mults[i] = p, gw.alpha
        if abs(complex(gw(p)) - p) > PERIODIC_RESIDUAL_TOL:
            fail[i] = 3

    rest = np.flatnonzero(~affine)
    words = letters[rest]
    p = np.full(len(rest), complex(system.domain.center), dtype=np.complex128)
    active = np.arange(len(rest))
    for _ in range(FIXED_POINT_MAX_ITER):
        if not len(active):
            break
        pa = p[active]
        q = _apply_words(system.maps, words[active], pa)
        p[active] = q
        settled = _modulus(q - pa) <= FIXED_POINT_TOL * np.maximum(1.0, _modulus(pa))
        active = active[~settled]
    fail[rest[active]] = 2
    ok = np.flatnonzero(fail[rest] == 0)
    bad = _modulus(_apply_words(system.maps, words[ok], p[ok]) - p[ok]) > PERIODIC_RESIDUAL_TOL
    fail[rest[ok[bad]]] = 3
    ok = ok[~bad]
    lam = _multipliers(system.maps, words[ok], p[ok])
    fail[rest[ok[_modulus(lam) >= 1.0]]] = 4
    points[rest], mults[rest[ok]] = p, lam
    return points, mults, fail


def _level_points(system: IfsSystem, letters: np.ndarray):
    """Yield the periodic point of each row of ``letters``, in row order.

    The first row that fails a check (contraction, convergence, residual,
    attraction) raises :class:`NoConvergence` instead.
    """
    reasons = (
        "",
        "word map is not a contraction",
        f"no fixed point after {FIXED_POINT_MAX_ITER} iterations",
        "fixed-point residual above tolerance",
        "fixed point is not attracting",
    )
    points, mults, fail = _solve_level(system, letters)
    m = len(system.maps)
    for i, word in enumerate(letters.tolist()):
        if fail[i]:
            raise NoConvergence(reasons[fail[i]])
        yield PeriodicPoint(Word(word, m), complex(points[i]), complex(mults[i]))


def fixed_point(system: IfsSystem, word: Word) -> PeriodicPoint:
    """Attracting fixed point of ``g_w``, exact for affine words.

    The one-row case of the level solver behind :func:`periodic_points`.
    """
    if len(word) == 0:
        raise ValueError("the empty word fixes every point")
    if word.alphabet_size != len(system.maps):
        raise IndexError(
            f"word alphabet size {word.alphabet_size} does not match "
            f"system with {len(system.maps)} maps"
        )
    return next(_level_points(system, np.array([word.indices])))


def _necklaces(m: int, length: int):
    """Lexicographically minimal rotations of the words of ``length`` letters.

    Fredricksen-Kessler-Maiorana: extend each prenecklace periodically and
    keep those whose period divides ``length``; yields in increasing order.
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


def periodic_points(system: IfsSystem, max_len: int):
    """One attracting periodic point per necklace of 1..``max_len`` letters.

    Every word is a rotation of exactly one necklace, and rotations share
    the orbit and the multiplier, so the orbits of the yielded points list
    the fixed points of all words.  Each length is solved as one array.
    """
    m = len(system.maps)
    dtype = np.min_scalar_type(m - 1)
    for length in range(1, max_len + 1):
        letters = np.fromiter(chain.from_iterable(_necklaces(m, length)), dtype=dtype)
        yield from _level_points(system, letters.reshape(-1, length))


def check_word_budget(
    system: IfsSystem,
    max_len: int = 0,
    max_word: int = 0,
    max_prefix: int = 0,
    word_cap: int = WORD_CAP,
) -> None:
    """Raise :class:`BudgetExceeded` before any work that would pass ``word_cap``.

    ``max_len`` is the word length of :func:`spectrum`; ``max_word`` and
    ``max_prefix`` are those of :func:`prep_points`.  A zero skips that test.
    """
    m = len(system.maps)
    total = sum(m**k for k in range(1, max_len + 1))
    if total > word_cap:
        raise BudgetExceeded(f"{total} words exceed the cap {word_cap}")
    n_words = sum(m**k for k in range(1, max_word + 1))
    n_prefix = sum(m**k for k in range(0, max_prefix + 1))
    if n_words * n_prefix > word_cap:
        raise BudgetExceeded("preperiodic enumeration exceeds the word cap")


def spectrum(system: IfsSystem, max_len: int, word_cap: int = WORD_CAP) -> MultiplierSpectrum:
    """Periodic points and multipliers over all words up to ``max_len``.

    One entry per cyclic rotation class (rotations share orbit and
    multiplier); entries agreeing in both point and multiplier within
    ``SPECTRUM_DEDUP_TOL`` are merged.
    """
    check_word_budget(system, max_len=max_len, word_cap=word_cap)
    entries: list[PeriodicPoint] = []
    keys = set()
    for pp in periodic_points(system, max_len):
        key = (
            round(pp.point.real / SPECTRUM_DEDUP_TOL),
            round(pp.point.imag / SPECTRUM_DEDUP_TOL),
            round(pp.multiplier.real / SPECTRUM_DEDUP_TOL),
            round(pp.multiplier.imag / SPECTRUM_DEDUP_TOL),
        )
        if key not in keys:
            keys.add(key)
            entries.append(pp)
    return MultiplierSpectrum(tuple(entries), max_len)


class InverseDynamics:
    """The inverse map of a strongly separated system, read off its net.

    Branch ``i`` claims the points within ``claim_radius`` of the net's image
    under map ``i``.  The certificate and the KD trees are built once.
    """

    def __init__(self, system: IfsSystem, net: AttractorNet, cert: SeparationCertificate | None = None):
        self.system = system
        self.net = net
        self.cert = cert if cert is not None else certify_ssc(system, net)
        if not self.cert.valid:
            raise SeparationFailure(
                f"inverse dynamics need strong separation (margin {self.cert.margin:.3e})"
            )
        # Shrinking by epsilon keeps attractor points claimed (they sit within
        # epsilon of their image net) while gap midpoints, whose true distance
        # is at least half the pairwise gap, stay strictly unclaimed despite
        # net slop.  Two claims would force image nets within 2*claim
        # < pairwise_distance of each other, so ambiguity cannot occur.
        self.claim_radius = self.cert.pairwise_distance / 2.0 - net.epsilon
        if self.claim_radius <= 2.0 * net.epsilon:
            raise SeparationFailure("net too coarse to resolve inverse branches")
        self._trees = []
        for g in system.maps:
            img = g(net.points)
            self._trees.append(cKDTree(np.column_stack((img.real, img.imag))))

    def step(self, x: complex) -> tuple[complex, int]:
        """One step of the inverse map: the claimed preimage and its branch index."""
        x = complex(x)
        claims = []
        for i, tree in enumerate(self._trees):
            d, _ = tree.query([[x.real, x.imag]], k=1)
            if float(d[0]) < self.claim_radius:
                claims.append(i)
        if not claims:
            raise OutsideAttractor(f"no branch claims {x}")
        if len(claims) > 1:
            raise AmbiguousBranch(f"branches {claims} all claim {x}")
        branch = claims[0]
        return complex(self.system.maps[branch].invert(x)), branch

    def walk(self, x: complex):
        """Yield ``(branch, preimage)`` along the inverse orbit of ``x``, unbounded.

        Ends by raising :class:`OutsideAttractor` or :class:`AmbiguousBranch`.
        """
        while True:
            x, branch = self.step(x)
            yield branch, x

    def orbit(self, x: complex, max_iter: int = 200, tol: float = 1e-9) -> OrbitReport:
        """Walk at most ``max_iter`` steps and report the first detected cycle.

        ``preperiod`` is the first index whose point recurs and ``period`` the
        distance to its recurrence.  Leaving the attractor ends the orbit with
        no periodicity claim; an ambiguous branch propagates.
        """
        pts = [complex(x)]
        try:
            for _, y in islice(self.walk(x), max_iter):
                pts.append(y)
                q = len(pts) - 1
                for p in range(q):
                    if abs(pts[p] - pts[q]) <= tol:
                        return OrbitReport(tuple(pts), p, q - p)
        except OutsideAttractor:
            pass
        return OrbitReport(tuple(pts), None, None)


def prep_points(
    system: IfsSystem,
    max_word: int,
    max_prefix: int,
    word_cap: int = WORD_CAP,
) -> np.ndarray:
    """Periodic points and their forward images, deduplicated.

    Enumerates the fixed points of every word up to ``max_word`` and applies
    every word map up to ``max_prefix`` (including the identity) to them.
    """
    check_word_budget(system, max_word=max_word, max_prefix=max_prefix, word_cap=word_cap)
    m = len(system.maps)
    orbits = [x for pp in periodic_points(system, max_word) for x in pp.orbit(system)]
    base = np.array(orbits, dtype=np.complex128)

    chunks = [base]
    for length in range(1, max_prefix + 1):
        for w in product(range(m), repeat=length):
            gw = compose_word(system, Word(w, m))
            chunks.append(gw(base))
    pts = np.concatenate(chunks)

    keys = np.stack(
        (np.round(pts.real / PREP_DEDUP_TOL).astype(np.int64),
         np.round(pts.imag / PREP_DEDUP_TOL).astype(np.int64)),
        axis=1,
    )
    _, first = np.unique(keys, axis=0, return_index=True)
    kept = pts[np.sort(first)]
    return kept[np.lexsort((kept.imag, kept.real))]
