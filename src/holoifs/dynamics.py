"""Periodic points, multiplier spectra, and inverse-branch dynamics.

The inverse map of a strongly separated system is single-valued on the
attractor: a point close to one first-level image belongs to that branch.
:class:`InverseDynamics` is that map for one system and its net.  Its
``steps`` advance many points at once: the branches' point indexes, carried
on the certificate, are queried in branch order, each with the points no
earlier branch claimed, and the points one branch claims go through its
inverse map, ``g.inverse()``, in one call of the exact kernel
(:class:`~holoifs.maps.Exact`), whose rows round as Python's complex scalars
do, so a preimage has the bits of ``g.inverse()(x)`` however many points
share the step.
``step`` is the one-point case.  ``steps`` is the one inverse walker: the
target addresses of :mod:`holoifs.symmetry` are read from it, and ``orbits``
walks many points as one array and detects (pre)periodicity numerically,
which the preperiodic cross-check reads; ``orbit`` is its one-point case.
A point takes the first branch whose image net lies within the claim
radius; the radius is below half the gap between the image nets, so no two
branches claim one point.  A step fails when the point is off the attractor
(no branch claims it, or its branch cannot invert it) or not finite.  A
point whose step fails never stops the others: its exception is kept, and
raised or returned in input order.

Periodic points of every word length are solved in one array: the
necklaces of all lengths, each padded on the left with a letter that names
no factor, are carried through the factors of their letters by
:func:`~holoifs.maps.apply_rows`, and each row stops by its own tolerance
test.  Affine words take the closed form.  The first row that fails, in
length then necklace order, raises, as a scalar loop over the necklaces
would.  These arrays keep numpy's arithmetic, which feeds the pinned
reports: on real values it rounds as scalar arithmetic does; on complex
values numpy's products and quotients may differ from CPython's in the last
bit.  A :class:`MultiplierSpectrum` keeps the table of every necklace it
solved; its deduplicated rows, :meth:`~MultiplierSpectrum.truncated` and
:func:`prep_points` read that table, and :func:`extend_spectrum` solves
only the lengths it lacks.  :func:`multiplier_length` bounds the
multipliers of each word length by the enclosures of the domain, so a
caller need not solve lengths whose multipliers cannot reach a given
modulus.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .attractor import (
    AttractorNet,
    SeparationCertificate,
    certify_ssc,
    first_per_key,
    refine_level,
    self_enclosed,
)
from .errors import (
    BudgetExceeded,
    DomainError,
    HoloifsError,
    NoConvergence,
    NotInImage,
    OutsideAttractor,
    SeparationFailure,
)
from .maps import (
    Affine,
    Exact,
    IfsSystem,
    SqrtBranch,
    Word,
    apply_rows,
    compose_word,
    factor_table,
    modulus,
)
from .tolerances import (
    FIXED_POINT_TOL,
    MULTIPLIER_BOUND_SLACK,
    PERIODIC_RESIDUAL_TOL,
    PREP_DEDUP_TOL,
    RECURRENCE_TOL,
    SPECTRUM_DEDUP_TOL,
)

#: fixed-point iteration cap
FIXED_POINT_MAX_ITER = 10**5

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


@dataclass(frozen=True, eq=False)
class MultiplierSpectrum:
    """The periodic points and multipliers of the necklaces up to ``max_word_length`` letters.

    ``table`` holds every solved necklace, one row each, in length then
    necklace order: ``(letters, lengths, points, multipliers)``, where row
    ``i`` of ``letters`` holds ``lengths[i]`` letters after the pad letter
    ``alphabet_size``.  ``points`` and ``lambdas``, and the ``entries`` and
    their ``words``, are derived from it: of the rows whose point and
    multiplier round alike at ``SPECTRUM_DEDUP_TOL``, the first.  The
    ``entries`` and ``words`` are built on first read.  Every array is
    read-only, so no caller of :meth:`multipliers` or :meth:`truncated`
    writes into the rows.
    """

    table: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    alphabet_size: int
    max_word_length: int
    points: np.ndarray = field(init=False)
    lambdas: np.ndarray = field(init=False)
    _rows: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        letters, lengths, points, lambdas = self.table
        keys = (points.real, points.imag, lambdas.real, lambdas.imag)
        rows = first_per_key(*(np.round(k / SPECTRUM_DEDUP_TOL) for k in keys))
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "points", points[rows])
        object.__setattr__(self, "lambdas", lambdas[rows])
        for array in (*self.table, self.points, self.lambdas):
            array.flags.writeable = False

    @cached_property
    def entries(self) -> tuple[PeriodicPoint, ...]:
        letters, lengths, _, _ = self.table
        return tuple(_necklaces(self.alphabet_size, letters[self._rows], lengths[self._rows],
                                self.points, self.lambdas))

    @cached_property
    def words(self) -> tuple[tuple[int, ...], ...]:
        return tuple(pp.word.indices for pp in self.entries)

    def multipliers(self) -> np.ndarray:
        return self.lambdas

    def truncated(self, max_len: int) -> MultiplierSpectrum:
        """The spectrum of the words up to ``max_len`` letters, read off a prefix of the table."""
        max_len = min(max_len, self.max_word_length)
        letters, lengths, points, lambdas = self.table
        n = np.searchsorted(lengths, max_len, side="right")
        table = (letters[:n, letters.shape[1] - max_len:], lengths[:n], points[:n], lambdas[:n])
        return MultiplierSpectrum(table, self.alphabet_size, max_len)

    def orbit_points(self, system: IfsSystem) -> np.ndarray:
        """The periodic orbits of the table's necklaces in ``system``, deduplicated and sorted.

        Each row's orbit is :meth:`PeriodicPoint.orbit`: all rows are carried
        through their letters, last letter first, as rows of the exact
        kernel (:class:`~holoifs.maps.Exact`), so each point has the bits of
        the scalar evaluation, and the first failing row, in table order,
        raises.  The points are those of every word up to
        ``max_word_length`` letters; of the points that round alike at
        ``PREP_DEDUP_TOL``, the first is kept.
        """
        letters, lengths, points, _ = self.table
        width = letters.shape[1]
        orbits = np.empty((len(points), width), dtype=np.complex128)
        orbits[:, :1] = points[:, None]
        here, errors = points.view(Exact), {}
        for j in range(1, width):
            # step j applies letter -j of each row with more than j letters
            col = letters[:, width - j].astype(np.intp)
            col[lengths <= j] = -1
            col[list(errors)] = -1
            here, _, failed = apply_rows(system.maps, col[:, None], here)
            errors.update(failed)
            orbits[:, j] = here
        if errors:
            raise errors[min(errors)]
        pts = orbits[np.arange(width) < lengths[:, None]]
        keys = (np.round(pts.real / PREP_DEDUP_TOL), np.round(pts.imag / PREP_DEDUP_TOL))
        return np.sort_complex(pts[first_per_key(*keys)])


def _necklaces(m: int, letters, lengths, points, multipliers) -> list[PeriodicPoint]:
    """The rows of a necklace table over ``m`` letters as :class:`PeriodicPoint` objects."""
    width = letters.shape[1]
    rows = zip(letters.tolist(), lengths.tolist(), points.tolist(), multipliers.tolist())
    return [PeriodicPoint(Word(w[width - n:], m), p, lam) for w, n, p, lam in rows]


@dataclass(frozen=True)
class OrbitReport:
    """Inverse-map orbit with detected (pre)periodicity, if any."""

    points: tuple[complex, ...]
    preperiod: int | None
    period: int | None

    @property
    def is_preperiodic(self) -> bool:
        return self.period is not None


def _solve_level(system: IfsSystem, letters: np.ndarray):
    """Fixed points and multipliers of ``g_w`` for the rows ``w`` of ``letters``.

    All rows are solved at once; the letter ``len(system.maps)`` pads a row
    and names no factor.  A word whose factors are all affine takes the
    closed form; the others iterate ``p <- g_w(p)`` from the domain centre,
    each row until its own step drops below ``FIXED_POINT_TOL``.  Returns the
    points and multipliers of the rows before the first that fails, and its
    exception or :class:`NoConvergence`, met in the scalar loop's order, or None.
    """
    n, m = len(letters), len(system.maps)
    points, mults = np.empty((2, n), dtype=np.complex128)
    failed: dict = {}  # row -> its first failure, in the scalar loop's order
    residual = NoConvergence("fixed-point residual above tolerance")

    factors, lookup = factor_table(system.maps)
    lookup = np.vstack((lookup, np.full_like(lookup[:1], -1)))  # the pad letter
    affine_letter = np.array([all(isinstance(factors[k], Affine) for k in row if k >= 0)
                              for row in lookup])
    affine = affine_letter[letters].all(axis=1)
    for i in np.flatnonzero(affine).tolist():
        gw = compose_word(system, Word(letters[i][letters[i] < m].tolist(), m))
        if abs(gw.alpha) >= 1.0:
            failed[i] = NoConvergence("word map is not a contraction")
            continue
        p = gw.b / (1.0 - gw.alpha)
        points[i], mults[i] = p, gw.alpha
        if abs(complex(gw(p)) - p) > PERIODIC_RESIDUAL_TOL:
            failed[i] = residual

    rest = np.flatnonzero(~affine)
    # the factors of each row's letters, outermost first: the chain of g_w
    table = lookup[letters[rest]].reshape(len(rest), letters.shape[1] * lookup.shape[1])
    p = np.full(len(rest), complex(system.domain.center), dtype=np.complex128)
    active = np.arange(len(rest))
    for _ in range(FIXED_POINT_MAX_ITER):
        if not len(active):
            break
        pa = p[active]
        q, _, errors = apply_rows(factors, table[active], pa)
        p[active] = q
        settled = modulus(q - pa) <= FIXED_POINT_TOL * np.maximum(1.0, modulus(pa))
        settled[list(errors)] = True
        failed.update(zip(rest[active[list(errors)]].tolist(), errors.values()))
        active = active[~settled]
    capped = NoConvergence(f"no fixed point after {FIXED_POINT_MAX_ITER} iterations")
    failed.update(dict.fromkeys(rest[active].tolist(), capped))
    ok = np.flatnonzero(~np.isin(rest, list(failed)))
    # one pass gives the residual and the multiplier, by the chain rule over
    # the factors in the order of Composite.deriv; if a row raised, a pass
    # without derivatives gives the values and the values' own exceptions
    values, lam, errors = apply_rows(factors, table[ok], p[ok], deriv=True)
    values, _, first = apply_rows(factors, table[ok], p[ok]) if errors else (values, lam, {})
    points[rest], mults[rest[ok]] = p, lam
    rows = rest[ok].tolist()
    far = dict.fromkeys(np.flatnonzero(modulus(values - p[ok]) > PERIODIC_RESIDUAL_TOL), residual)
    repelling = dict.fromkeys(np.flatnonzero(modulus(lam) >= 1.0),
                              NoConvergence("fixed point is not attracting"))
    for check in (first, far, errors, repelling):  # the scalar loop's order
        for j, exc in check.items():
            failed.setdefault(rows[j], exc)
    i = min(failed, default=n)
    return points[:i], mults[:i], failed.get(i)


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
    points, mults, error = _solve_level(system, np.array([word.indices]))
    if error:
        raise error
    return PeriodicPoint(word, complex(points[0]), complex(mults[0]))


#: codes per block of the necklace filter: its peak memory is a block plus the output
_NECKLACE_BLOCK = 1 << 15


def _necklace_letters(m: int, length: int) -> np.ndarray:
    """The necklaces (least rotations) of ``length`` letters over ``m``, in increasing order.

    The words are the base-``m`` codes ``0..m**length - 1``, filtered block by
    block: a code is kept when it is at most each of its left rotations,
    ``r * m**k + q`` for ``q, r = divmod(code, m**(length - k))``.
    """
    total, kept = m**length, [np.empty((0, length), np.min_scalar_type(m - 1))]
    for start in range(0, total, _NECKLACE_BLOCK):
        codes = np.arange(start, min(start + _NECKLACE_BLOCK, total), dtype=np.int64)
        for k in range(1, length):
            q, r = np.divmod(codes, m ** (length - k))
            codes = codes[codes <= r * m**k + q]
        kept.append(np.empty((len(codes), length), kept[0].dtype))
        for j in range(length - 1, -1, -1):
            codes, kept[-1][:, j] = np.divmod(codes, m)
    return np.concatenate(kept)


def _levels(system: IfsSystem, max_len: int, min_len: int = 1):
    """The necklaces of ``min_len``..``max_len`` letters, in increasing length, solved in one call.

    Returns ``(letters, lengths, points, multipliers, error)``: row ``i`` of
    ``letters`` holds ``lengths[i]`` letters after the pad letter ``m``, and
    the rest is :func:`_solve_level`'s.
    """
    m = len(system.maps)
    blocks = [_necklace_letters(m, length) for length in range(min_len, max_len + 1)]
    lengths = np.repeat(np.arange(min_len, max_len + 1), [len(b) for b in blocks])
    letters = np.full((len(lengths), max_len), m, dtype=np.min_scalar_type(m))
    for block, end in zip(blocks, np.cumsum([len(b) for b in blocks])):
        letters[end - len(block):end, max_len - block.shape[1]:] = block
    return (letters, lengths, *_solve_level(system, letters))


def periodic_points(system: IfsSystem, max_len: int):
    """One attracting periodic point per necklace of 1..``max_len`` letters.

    Every word is a rotation of exactly one necklace, and rotations share
    the orbit and the multiplier, so the orbits of the yielded points list
    the fixed points of all words.  After the word budget, all lengths are
    solved as one array; the rows before the first that fails are yielded,
    then its exception is raised.
    """
    check_word_budget(system, max_len)
    *table, error = _levels(system, max_len)
    yield from _necklaces(len(system.maps), *table)
    if error:
        raise error


def check_word_budget(system: IfsSystem, max_len: int, word_cap: int = WORD_CAP) -> None:
    """Raise :class:`BudgetExceeded` if the words of 1..``max_len`` letters exceed ``word_cap``."""
    m = len(system.maps)
    total = sum(m**k for k in range(1, max_len + 1))
    if total > word_cap:
        raise BudgetExceeded(f"{total} words exceed the cap {word_cap}")


def spectrum(system: IfsSystem, max_len: int) -> MultiplierSpectrum:
    """Periodic points and multipliers over all words up to ``max_len``.

    One row per necklace, all lengths solved as one array, as for
    :func:`periodic_points`: the first failing row, in length then necklace
    order, raises.  It is :func:`extend_spectrum` of an empty table.
    """
    m, empty = len(system.maps), np.empty(0, dtype=np.complex128)
    table = (np.empty((0, 0), np.min_scalar_type(m)), np.empty(0, np.intp), empty, empty)
    return extend_spectrum(system, MultiplierSpectrum(table, m, 0), max_len)


def extend_spectrum(system: IfsSystem, spec: MultiplierSpectrum, max_len: int) -> MultiplierSpectrum:
    """``spec``, a spectrum of ``system``, with its table extended up to ``max_len`` letters.

    Only the necklaces longer than ``spec.max_word_length`` are solved, as
    one array; the first failing row raises.  The new rows follow the
    table's rows, and each row is solved on its own, so the table is that of
    ``spectrum(system, max_len)``; ``spec`` itself is returned when it is
    long enough.
    """
    check_word_budget(system, max_len)
    start = spec.max_word_length
    if max_len <= start:
        return spec
    *new, error = _levels(system, max_len, start + 1)
    if error:
        raise error
    letters, *rest = spec.table
    letters = np.pad(letters, ((0, 0), (max_len - start, 0)), constant_values=spec.alphabet_size)
    table = tuple(np.concatenate(pair) for pair in zip((letters, *rest), new))
    return MultiplierSpectrum(table, spec.alphabet_size, max_len)


def multiplier_length(system: IfsSystem, floor: float, max_len: int) -> int:
    """The longest word length, up to ``max_len``, whose multipliers may reach modulus ``floor``.

    Let ``U_k`` be the largest radius of the level-``k`` enclosures of the
    domain ``D = B(c0, R)`` (:func:`~holoifs.attractor.refine_level`), over
    ``R``.  The enclosure of a disk by an ``Affine`` or ``SqrtBranch``
    factor has radius ``sup |f'|`` on the disk times its radius, and holds
    the disk's image; so, by the chain rule, ``U_k`` bounds ``|g_w'|`` on
    ``D`` for every word ``w`` of ``k`` letters.  When every map's
    enclosure of ``D`` lies inside ``D`` (:func:`~holoifs.attractor.self_enclosed`),
    the periodic points lie in ``D``, so ``U_k`` bounds the multipliers of
    length ``k``, and every map is 1-Lipschitz on ``D``, so a disk's
    enclosures are no larger than the disk and ``U_k`` does not increase
    with ``k``.  Levels are refined, keeping only the disks that may still
    reach ``floor``, until none does: every multiplier of a longer word has
    modulus at most ``U_k < floor / (1 + MULTIPLIER_BOUND_SLACK)``.

    With no bound, ``max_len`` is returned: a factor of another variant (a
    ``_SqrtBranchInverse`` enclosure bounds the image, not the
    derivative), an enclosure of ``D`` that leaves ``D``, a refinement that
    raises, or a ``floor`` that is not positive.
    """
    factors, _ = factor_table(system.maps)
    if not (floor > 0 and all(isinstance(f, (Affine, SqrtBranch)) for f in factors)):
        return max_len
    radius = system.domain.radius
    centers, radii = np.array([system.domain.center]), np.array([radius])
    try:
        if self_enclosed(system):
            for k in range(1, max_len + 1):
                centers, radii = refine_level(system, centers, radii)
                reach = radii / radius * (1.0 + MULTIPLIER_BOUND_SLACK) >= floor
                if not reach.any():
                    return k - 1
                centers, radii = centers[reach], radii[reach]
    except DomainError:  # a square-root cut meets an enclosure: no bound
        pass
    return max_len


class InverseDynamics:
    """The inverse map of a strongly separated system, read off its net.

    Branch ``i`` claims the points within ``claim_radius`` of the net's image
    under map ``i``.  The certificate and its point indexes are built once,
    by :func:`certify_ssc`; one without them or of another net raises.
    """

    def __init__(self, system: IfsSystem, net: AttractorNet, cert: SeparationCertificate | None = None):
        self.system = system
        self.net = net
        self.cert = cert if cert is not None else certify_ssc(system, net)
        self.cert.require_trees(net, "inverse dynamics need strong separation")
        self.inverses = tuple(g.inverse() for g in system.maps)
        # Shrinking by epsilon keeps attractor points claimed (they sit within
        # epsilon of their image net) while gap midpoints, whose true distance
        # is at least half the pairwise gap, stay strictly unclaimed despite
        # net slop.  Two claims would force image nets within 2*claim
        # < pairwise_distance of each other, so the first claim is the only one.
        self.claim_radius = self.cert.pairwise_distance / 2.0 - net.epsilon
        if self.claim_radius <= 2.0 * net.epsilon:
            raise SeparationFailure("net too coarse to resolve inverse branches")

    def steps(self, xs: np.ndarray):
        """One step of the inverse map for every point of ``xs``.

        The branch trees are queried in branch order, each with the finite
        points that no earlier branch claimed, with the strict ``d <
        claim_radius`` test, until no such point is left; so each point takes
        the first branch that claims it (a huge point's distance is at least
        the claim radius, or inf).
        :func:`~holoifs.maps.apply_rows` maps the points each branch claims
        by its inverse (``self.inverses``) in one call of the exact kernel
        (:class:`~holoifs.maps.Exact`), and
        the lowest row's non-library exception is raised.  Returns ``(branch,
        preimage, failures)``: ``failures`` maps each row that fails to the exception
        :meth:`step` raises for that point, and such a row has branch -1.  A
        row fails with :class:`OutsideAttractor` when no branch claims it or
        its branch cannot invert it (the branch's :class:`NotInImage` is the
        cause), and with ``ValueError`` when it is not finite.
        """
        xs = np.asarray(xs, dtype=np.complex128)
        n = len(xs)
        finite = np.isfinite(xs)
        branch = np.full(n, -1, dtype=np.intp)
        unclaimed = np.flatnonzero(finite)
        for i, tree in enumerate(self.cert.trees):
            if not len(unclaimed):
                break
            near = tree.nearest(xs[unclaimed])[0] < self.claim_radius
            branch[unclaimed[near]] = i
            unclaimed = unclaimed[~near]
        failures: dict = {}
        for k in np.flatnonzero(branch < 0).tolist():
            x = complex(xs[k])
            if finite[k]:
                failures[k] = OutsideAttractor(f"no branch claims {x}")
            else:
                failures[k] = ValueError(f"point {x} is not finite")
        preimage, _, errors = apply_rows(self.inverses, branch[:, None], xs.view(Exact))
        for k, exc in sorted(errors.items()):
            if not isinstance(exc, HoloifsError):
                raise exc
            failures[k] = exc
            if isinstance(exc, NotInImage):
                failures[k] = OutsideAttractor(f"branch {branch[k]} cannot invert {complex(xs[k])}")
                failures[k].__cause__ = exc
            branch[k] = -1
        return branch, preimage.view(np.ndarray), failures

    def step(self, x: complex) -> tuple[complex, int]:
        """One step of the inverse map: the claimed preimage and its branch index."""
        branch, preimage, failures = self.steps(np.array([complex(x)]))
        if failures:
            raise failures[0]
        return complex(preimage[0]), int(branch[0])

    def orbits(self, xs, max_iter: int = 200, tol: float = RECURRENCE_TOL) -> list[OrbitReport]:
        """:meth:`orbit` of every point of ``xs``, walked together as one array.

        Every row keeps its points in one table, which grows with the
        longest walk rather than with ``max_iter``; each new column is tested
        against the row's earlier points.  A row that leaves the attractor
        ends with no periodicity claim.  If any row's walk meets another
        failure (a point that is not finite, or a branch's other error), the
        first such row's exception is raised once every row has stopped.
        """
        xs = np.asarray(xs, dtype=np.complex128).reshape(-1)
        n = len(xs)
        table = np.empty((n, min(max_iter, 16) + 1), dtype=np.complex128)
        table[:, 0] = xs
        length = np.ones(n, dtype=np.intp)
        preperiod = np.full(n, -1, dtype=np.intp)
        errors = {}
        active = np.arange(n)
        for q in range(1, max_iter + 1):
            if not len(active):
                break
            if q == table.shape[1]:
                table = np.concatenate((table, np.empty_like(table)), axis=1)
            branch, ys, failures = self.steps(table[active, q - 1])
            for k, exc in failures.items():
                if not isinstance(exc, OutsideAttractor):
                    errors[int(active[k])] = exc
            moved = branch >= 0
            active, ys = active[moved], ys[moved]
            table[active, q] = ys
            length[active] = q + 1
            hit = modulus(table[active, :q] - ys[:, None]) <= tol
            closed = hit.any(axis=1)
            preperiod[active[closed]] = hit[closed].argmax(axis=1)
            active = active[~closed]
        if errors:
            raise errors[min(errors)]
        reports = []
        for row, size, p in zip(table, length.tolist(), preperiod.tolist()):
            points = tuple(row[:size].tolist())
            if p < 0:
                reports.append(OrbitReport(points, None, None))
            else:
                reports.append(OrbitReport(points, p, size - 1 - p))
        return reports

    def orbit(self, x: complex, max_iter: int = 200, tol: float = RECURRENCE_TOL) -> OrbitReport:
        """Walk at most ``max_iter`` steps and report the first detected cycle.

        ``preperiod`` is the first index whose point recurs and ``period`` the
        distance to its recurrence.  Leaving the attractor ends the orbit with
        no periodicity claim; any other failure of a step propagates.
        """
        return self.orbits([x], max_iter, tol)[0]


def prep_points(system: IfsSystem, max_word: int) -> np.ndarray:
    """The periodic orbits of every word up to ``max_word``, deduplicated and sorted."""
    return spectrum(system, max_word).orbit_points(system)
