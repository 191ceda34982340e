"""Periodic points, multiplier spectra, and inverse-branch dynamics.

The inverse map of a strongly separated system is single-valued on the
attractor: a point close to one first-level image belongs to that branch.
Orbits under the inverse map detect (pre)periodicity numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

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
from .maps import Affine, IfsSystem, Word, compose_word

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


def fixed_point(system: IfsSystem, word: Word) -> PeriodicPoint:
    """Attracting fixed point of ``g_w``, exact for affine words."""
    if len(word) == 0:
        raise ValueError("the empty word fixes every point")
    gw = compose_word(system, word)
    if isinstance(gw, Affine):
        if abs(gw.alpha) >= 1.0:
            raise NoConvergence("word map is not a contraction")
        p = gw.b / (1.0 - gw.alpha)
    else:
        p = complex(system.domain.center)
        for _ in range(FIXED_POINT_MAX_ITER):
            q = complex(gw(p))
            if abs(q - p) <= FIXED_POINT_TOL * max(1.0, abs(p)):
                p = q
                break
            p = q
        else:
            raise NoConvergence(f"no fixed point after {FIXED_POINT_MAX_ITER} iterations")
    if abs(complex(gw(p)) - p) > PERIODIC_RESIDUAL_TOL:
        raise NoConvergence("fixed-point residual above tolerance")
    mult = complex(gw.deriv(p))
    if abs(mult) >= 1.0:
        raise NoConvergence("fixed point is not attracting")
    return PeriodicPoint(word, complex(p), mult)


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
    the fixed points of all words.
    """
    m = len(system.maps)
    for length in range(1, max_len + 1):
        for w in _necklaces(m, length):
            yield fixed_point(system, Word(w, m))


def spectrum(system: IfsSystem, max_len: int, word_cap: int = WORD_CAP) -> MultiplierSpectrum:
    """Periodic points and multipliers over all words up to ``max_len``.

    One entry per cyclic rotation class (rotations share orbit and
    multiplier); entries agreeing in both point and multiplier within
    ``SPECTRUM_DEDUP_TOL`` are merged.
    """
    m = len(system.maps)
    total = sum(m**k for k in range(1, max_len + 1))
    if total > word_cap:
        raise BudgetExceeded(f"{total} words exceed the cap {word_cap}")
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


class _InverseDynamics:
    """Branch lookup structure for the inverse map of a separated system."""

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


def inverse_step(
    system: IfsSystem,
    net: AttractorNet,
    x: complex,
    cert: SeparationCertificate | None = None,
) -> tuple[complex, int]:
    """One step of the inverse map: the claimed preimage and its branch index."""
    return _InverseDynamics(system, net, cert).step(x)


def orbit(
    system: IfsSystem,
    net: AttractorNet,
    x: complex,
    max_iter: int = 200,
    tol: float = 1e-9,
    cert: SeparationCertificate | None = None,
) -> OrbitReport:
    """Iterate the inverse map and report the first detected cycle.

    ``preperiod`` is the first index whose point recurs and ``period`` the
    distance to its recurrence.  Leaving the attractor ends the orbit with
    no periodicity claim.
    """
    return _orbit_steps(_InverseDynamics(system, net, cert), x, max_iter, tol)


def _orbit_steps(dyn: _InverseDynamics, x: complex, max_iter: int, tol: float) -> OrbitReport:
    pts = [complex(x)]
    for _ in range(max_iter):
        try:
            nxt, _ = dyn.step(pts[-1])
        except OutsideAttractor:
            return OrbitReport(tuple(pts), None, None)
        pts.append(nxt)
        q = len(pts) - 1
        for p in range(q):
            if abs(pts[p] - pts[q]) <= tol:
                return OrbitReport(tuple(pts), p, q - p)
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
    from itertools import product

    m = len(system.maps)
    n_words = sum(m**k for k in range(1, max_word + 1))
    n_prefix = sum(m**k for k in range(0, max_prefix + 1))
    if n_words * n_prefix > word_cap:
        raise BudgetExceeded("preperiodic enumeration exceeds the word cap")

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
