"""Local symmetry germs between two systems and the shared-attractor verdict.

The central construction pairs a word ``w`` of a source system ``G`` with a
prefix ``V_m`` of the target-system address of ``g_w(a)``; the composition
``H = f_{V_m}^{-1} ∘ g_w`` is univalent near ``a`` with derivative modulus
pinned between the target's derivative floor and 1.  Coinciding germs of
iterated words yield exact conjugacy relations between word maps of the two
systems; together with net distance, separation certificates, preperiodic
cross-checks, spectra, and a functional-equation sweep they assemble into a
three-valued verdict on whether the systems share their attractor.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from functools import cache, cached_property
from itertools import count, product

import numpy as np

from .attractor import (
    POINT_CAP,
    AttractorNet,
    PointIndex,
    SeparationCertificate,
    box_restriction,
    certify_ssc,
    compute_net,
    first_per_key,
    hausdorff,
    rho_radius,
)
from .dynamics import (
    InverseDynamics,
    MultiplierSpectrum,
    check_word_budget,
    extend_spectrum,
    fixed_point,
    multiplier_length,
    spectrum,
)
from .errors import (
    AddressFailure,
    BudgetExceeded,
    CriterionEmpty,
    DegenerateDerivative,
    DomainError,
    GermBoundsError,
    HoloifsError,
    NoCoincidence,
    NotInImage,
    OutsideAttractor,
    PrefixViolation,
)
from .geometry import koebe_distortion
from .maps import (
    Affine,
    Exact,
    HoloMap,
    IfsSystem,
    Word,
    apply_rows,
    circle,
    compose_maps,
    compose_word,
    map_rows,
    rowwise,
)
from .tolerances import (
    BACKWARD_DERIV_FLOOR,
    DERIV_FLOOR,
    DERIV_SLACK,
    FUNC_EQ_TOL,
    GERM_EQUALITY_TOL,
    RECURRENCE_TOL,
    SANDWICH_SLACK,
    SPECTRUM_TOL,
    SYMMETRY_RESIDUAL_TOL,
)

#: germ radius as a fraction of the univalence radius rho
RADIUS_FRACTION = 3.0 - math.sqrt(8.0)

#: Koebe distortion bounds at relative radius RADIUS_FRACTION: on the germ
#: ball, |H'| / |H'(a)| lies in [_SHRINK, _EXPAND]
_SHRINK, _EXPAND = koebe_distortion(RADIUS_FRACTION)

GERM_SAMPLES = 32
BOUNDARY_SAMPLES = 64
WALK_CAP = 512

#: outcomes of a germ construction that reject the germ rather than the run
GERM_REJECTIONS = (CriterionEmpty, AddressFailure, GermBoundsError)
#: exceptions of a measured row that fail the row rather than the run
ROW_FAILURES = (NotInImage, DomainError, ValueError)


@dataclass(frozen=True)
class SymmetryGerm:
    """Local map ``f_{word_f}^{-1} ∘ g_{word_g}`` defined on ``B(base, radius)``."""

    base: complex
    radius: float
    word_g: Word
    word_f: Word
    map: HoloMap

    @property
    def image(self) -> complex:
        return complex(self.map(self.base))

    @property
    def derivative(self) -> complex:
        return complex(self.map.deriv(self.base))


@dataclass(frozen=True)
class ConjugacyRelation:
    """Identity ``g_source^exponent_l = f_outer ∘ f_inner ∘ f_outer^{-1}``."""

    exponent_l: int
    outer: Word
    inner: Word
    source: Word
    anchor: complex
    residual: float


@dataclass(frozen=True)
class SymmetryResidualReport:
    """Sampled two-way evidence that a germ maps one net into the other."""

    forward_residual: float
    backward_residual: float
    forward_failures: int
    backward_failures: int
    forward_count: int
    backward_count: int
    forward_tolerance: float
    backward_tolerance: float

    @property
    def passed(self) -> bool:
        return (
            self.forward_count > 0
            and self.backward_count > 0
            and self.forward_failures == 0
            and self.backward_failures == 0
        )


@dataclass(frozen=True)
class FunctionalEquation:
    """One sampled instance of ``f_u ∘ f_uk^{-1} = g_t ∘ g_tk^{-1}``."""

    disk_index: int
    word_g: Word
    word_f: Word | None
    rep_word_g: Word | None
    rep_word_f: Word | None
    residual: float
    ok: bool
    note: str = ""


@dataclass(frozen=True)
class Budgets:
    """Search limits for the shared-attractor evidence sweep."""

    prep_max_word: int = 4
    prep_orbit_cap: int = 64
    spectrum_source_len: int = 4
    spectrum_target_len: int = 8
    spectrum_l_max: int = 8
    spectrum_tol: float = SPECTRUM_TOL
    func_eq_tol: float = FUNC_EQ_TOL
    eq_samples: int = 64
    point_cap: int = POINT_CAP

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            number = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if f.type == "int":
                if not (number and isinstance(value, numbers.Integral) and value > 0):
                    raise ValueError(f"Budgets.{f.name} must be a positive integer, got {value!r}")
            elif not (number and math.isfinite(value) and value > 0):
                raise ValueError(f"Budgets.{f.name} must be finite and positive, got {value!r}")
        if (tol := self.spectrum_tol) < np.finfo(float).tiny:  # as spectrum_compat requires
            raise ValueError(f"Budgets.spectrum_tol must be a normal float, got {tol!r}")


@dataclass(frozen=True, kw_only=True)
class SharedAttractorReport:
    hausdorff: float
    ssc_both: bool
    prep_forward: tuple[int, int] = (0, 0)
    prep_backward: tuple[int, int] = (0, 0)
    spectrum_matches: tuple[tuple[complex, int | None], ...] = ()
    functional_equations: tuple[FunctionalEquation, ...] = ()
    verdict: str
    notes: tuple[str, ...] = ()


@dataclass(frozen=True, eq=False)
class SystemNet:
    """One system with its net, and the structures derived from the pair.

    Each derived member is computed once, on first use, and freed with the
    object.  ``cert`` carries the first-level images of the net and their
    point indexes, built once by :func:`certify_ssc`; ``dyn`` and ``rho``
    query those indexes and build none.  The members call the module-level
    functions by their global names, so a wrapper installed on a module
    attribute sees every call.
    """

    system: IfsSystem
    net: AttractorNet

    @cached_property
    def cert(self) -> SeparationCertificate:
        return certify_ssc(self.system, self.net)

    @cached_property
    def dyn(self) -> InverseDynamics:
        return InverseDynamics(self.system, self.net, self.cert)

    @cached_property
    def rho(self) -> float:
        """Euclidean inradius floor of the hyperbolic separation radius."""
        return rho_radius(self.system, self.net, self.cert)[1]

    @cached_property
    def s_floor(self) -> float:
        return s_floor(self.system, self.net)

    @cached_property
    def tree(self) -> PointIndex:
        """Point index over the net points."""
        return PointIndex(self.net.points)


def s_floor(systemF: IfsSystem, netF: AttractorNet) -> float:
    """Minimum derivative modulus of the system maps over the net."""
    lows = [float(np.min(np.abs(f.deriv(netF.points)))) for f in systemF.maps]
    value = min(lows)
    if value < DERIV_FLOOR:
        raise DegenerateDerivative(f"derivative floor underflows at {value!r}")
    return value


def min_depth(
    systemG: IfsSystem, netG: AttractorNet, s_F: float, word_cap: int = 10**6
) -> int:
    """Smallest word length at which every word derivative drops below s_F."""
    if not 0.0 < s_F < 1.0:
        raise ValueError("s_F must lie in (0, 1)")
    # row w of ``vals`` and ``ders`` holds g_w and its derivative on the net
    vals = netG.points[None, :]
    ders = np.ones_like(vals)
    for depth in count(1):
        # the next level holds words × net points values and derivatives
        if len(vals) * len(systemG.maps) > word_cap or vals.size * len(systemG.maps) > POINT_CAP:
            raise BudgetExceeded("word enumeration exceeded the cap in min_depth")
        ders = np.concatenate([g.deriv(vals) * ders for g in systemG.maps])
        vals = np.concatenate([g(vals) for g in systemG.maps])
        if np.max(np.abs(ders)) <= s_F:
            return depth


def address(F: SystemNet, x: complex, k: int) -> Word:
    """First ``k`` letters of the target address of ``x``.

    The one-row case of the germ address walk, with a derivative threshold of
    zero, which never stops the walk before ``k`` letters.
    """
    if not (isinstance(k, numbers.Integral) and k >= 0):
        raise ValueError(f"address length must be a non-negative integer, got {k!r}")
    letters = _address_prefixes(F, [complex(x)], [0.0], k)[0]
    if isinstance(letters, Exception):
        raise letters
    return Word(tuple(letters), len(F.system.maps))


def _address_prefixes(F: SystemNet, starts, lams, cap: int) -> list:
    """The address words of :func:`build_symmetries`, for many start points at once.

    Row ``r`` walks the target address of ``starts[r]``, multiplying the
    derivatives of the letters it reads, and keeps the letters read before
    the product's modulus first drops below ``lams[r]`` or before it holds
    ``cap`` letters.  Every unfinished row takes one inverse step of
    :meth:`InverseDynamics.steps` per round, the letters' derivatives are one
    :func:`~holoifs.maps.apply_rows` call (the lowest row's non-library
    exception is raised), and the products are one
    :class:`~holoifs.maps.Exact` array.  Returns, per row, the letters or the
    exception that ends the walk; a walk off the attractor ends in
    :class:`AddressFailure`.
    """
    starts = np.asarray(starts, dtype=np.complex128)
    lams = np.asarray(lams, dtype=np.float64)
    out: list = [[] for _ in starts]
    derivs = [g.deriv for g in F.system.maps]
    D = np.ones(len(starts), dtype=np.complex128).view(Exact)
    here = starts.copy()
    active = np.arange(len(starts))
    for n in range(cap):
        if not len(active):
            break
        branch, preimage, failures = F.dyn.steps(here[active])
        for k, exc in failures.items():
            r = active[k]
            if isinstance(exc, OutsideAttractor):
                exc = AddressFailure(
                    f"address walk from {complex(starts[r])} failed after {n} letters "
                    f"at {complex(here[r])}"
                )
                exc.__cause__ = failures[k]
            out[r] = exc
        d, _, errors = apply_rows(derivs, branch[:, None], preimage.view(Exact))
        for k, exc in sorted(errors.items()):
            if not isinstance(exc, HoloifsError):
                raise exc
            out[active[k]] = exc
            branch[k] = -1
        moved = np.flatnonzero(branch >= 0)
        rows = active[moved]
        D[rows] = D[rows] * d[moved]
        modulus = abs(D[rows])
        below = modulus < lams[rows]
        for r, mod in zip(rows[below].tolist(), modulus[below].tolist()):
            if not out[r]:
                out[r] = CriterionEmpty(
                    f"first address derivative {mod:.3e} already below "
                    f"|g_w'(a)| = {lams[r]:.3e}"
                )
        going = moved[~below]
        for r, j in zip(active[going].tolist(), branch[going].tolist()):
            out[r].append(j)
        here[active[going]] = preimage[going]
        active = active[going]
    return out


def build_symmetries(G: SystemNet, F: SystemNet, a, words) -> list:
    """:func:`build_symmetry` at a base point for each of ``words``: one point, or one per word.

    The words are rows of arrays.  ``g_w(a)``, ``g_w'(a)``, ``H(a)`` and
    ``H'(a)`` are rows of the exact kernel (:class:`~holoifs.maps.Exact`),
    the target addresses of all ``g_w(a)`` are walked together, and the
    image sandwiches of all germs are one (germs × samples) array.  Unless
    :func:`~holoifs.maps.compose_maps` folded ``H`` into one affine map, its
    chain is ``f_V^{-1}``'s factors after ``g_w``'s, so ``H(a)`` and
    ``H'(a)`` resume from the rows of ``g_w(a)`` and ``g_w'(a)``, which hold
    the bits that chain has after ``g_w``'s factors; a folded ``H`` is
    evaluated from ``a``.  Returns,
    per word in order, its germ or the exception :func:`build_symmetry`
    raises for it; nothing is raised, so a caller that raises the first
    exception it reads fails as a word-by-word loop would.
    """
    words = list(words)
    bases = np.broadcast_to(np.asarray(a, dtype=np.complex128), (len(words),)).tolist()
    out: list = [None] * len(words)
    compose = cache(lambda w: compose_word(G.system, w))
    gws: dict = {}
    for i, w in enumerate(words):
        # an exception is the word's outcome: returned, and raised by the
        # caller that reads it
        try:
            gws[i] = compose(w)
        except Exception as exc:
            out[i] = exc
    rows = list(gws)
    start, lam, failed = map_rows([gws[i] for i in rows],
                                  np.array([bases[i] for i in rows], dtype=complex).view(Exact),
                                  deriv=True)
    shared = None
    try:
        rho, sF = (min(G.rho, F.rho), F.s_floor) if rows else (None, None)
    except Exception as exc:
        shared = exc
    walked = []
    for k, i in enumerate(rows):
        out[i] = failed.get(k) or shared
        if out[i] is None:
            walked.append(k)
    inverses = cache(lambda V: compose_word(F.system, V).inverse())
    # one germ map per (V, w), so the germs that share it share its factor rows
    germ_map = cache(lambda V, w: compose_maps((inverses(V), compose(w))))
    germs: dict = {}  # word index -> (H, V, row of g_w(a))
    for k, letters in zip(walked, _address_prefixes(F, start[walked], abs(lam[walked]), WALK_CAP)):
        i = rows[k]
        if isinstance(letters, Exception):
            out[i] = letters
        elif len(letters) == WALK_CAP:
            # a walk stopped by the threshold holds fewer letters than the cap
            out[i] = BudgetExceeded("address walk never crossed the derivative threshold")
        else:
            V = Word(tuple(letters), len(F.system.maps))
            try:
                germs[i] = (germ_map(V, words[i]), V, k)
            except Exception as exc:
                out[i] = exc
    if not germs:
        return out
    # each germ meets its checks in the order H'(a) (whose chain holds H(a)),
    # its bounds, the boundary images, the outer and the inner sandwich disk
    r = RADIUS_FRACTION * rho
    maps, Vs, ks = map(list, zip(*germs.values()))
    at = np.array([bases[i] for i in germs], dtype=complex)
    folded = np.array([isinstance(H, Affine) for H in maps])
    tails = [H if fold else inverses(V) for H, V, fold in zip(maps, Vs, folded)]
    Ha, dH, failed = map_rows(tails, np.where(folded, at, start[ks]).view(Exact), deriv=True,
                              d0=np.where(folded, 1.0, lam[ks]).view(Exact))
    images, _, escaped = map_rows(maps, circle(at, r, BOUNDARY_SAMPLES))
    dist = np.abs(images - Ha.view(np.ndarray)[:, None])
    far, near, mod = dist.max(axis=1), dist.min(axis=1), abs(dH)
    for j, (i, (H, V, _)) in enumerate(germs.items()):
        if j in failed:
            out[i] = failed[j]
        elif not (sF - DERIV_SLACK <= mod[j] <= 1.0 + DERIV_SLACK):
            out[i] = GermBoundsError(f"|H'(a)| = {mod[j]:.6e} outside [{sF:.6e}, 1]")
        elif j in escaped:
            out[i] = escaped[j]
        elif far[j] > rho + SANDWICH_SLACK:
            out[i] = GermBoundsError("image boundary escapes the outer sandwich disk")
        elif near[j] < sF * rho / 25.0 - SANDWICH_SLACK:
            out[i] = GermBoundsError("image boundary enters the inner sandwich disk")
        else:
            out[i] = SymmetryGerm(base=bases[i], radius=r, word_g=words[i], word_f=V, map=H)
    return out


def build_symmetry(G: SystemNet, F: SystemNet, a: complex, w: Word) -> SymmetryGerm:
    """Germ ``H = f_{V_m}^{-1} ∘ g_w`` at ``a`` with certified bounds.

    ``m`` is the largest address depth whose accumulated derivative still
    dominates ``|g_w'(a)|``; this pins ``|H'(a)|`` into ``[s_F, 1]``.  The
    image sandwich around ``H(a)`` is checked on boundary samples.  The
    one-word case of :func:`build_symmetries`.
    """
    germ = build_symmetries(G, F, a, [w])[0]
    if isinstance(germ, Exception):
        raise germ
    return germ


def verify_symmetry(
    germ: SymmetryGerm,
    G: SystemNet,
    F: SystemNet,
    n_samples: int = 200,
    tol: float = SYMMETRY_RESIDUAL_TOL,
) -> SymmetryResidualReport:
    """Sampled check that the germ carries one net into the other and back.

    Forward tolerance allows the Koebe-distortion Lipschitz bound times the
    source net error; the backward direction inverts the germ on the inner
    quarter ball, where surjectivity is guaranteed.
    """
    netG, netF, H = G.net, F.net, germ.map
    dH = abs(germ.derivative)
    forward_tol = tol + netF.epsilon + _EXPAND * netG.epsilon
    backward_tol = tol + netG.epsilon + netF.epsilon / max(dH * _SHRINK, BACKWARD_DERIV_FLOOR)
    f_res, f_fail, f_count = _carry(netG.points, germ.base, germ.radius, n_samples,
                                    lambda z: (np.atleast_1d(H(z)), {}), F.tree, forward_tol)
    Ha, H_inv = germ.image, H.inverse()
    # one call of the exact kernel: each preimage has the bits of H_inv(complex(y))
    b_res, b_fail, b_count = _carry(netF.points, Ha, dH * germ.radius / 4.0, n_samples,
                                    lambda y: rowwise(H_inv, y.view(Exact)), G.tree, backward_tol)
    return SymmetryResidualReport(f_res, b_res, f_fail, b_fail, f_count, b_count,
                                  forward_tol, backward_tol)


def _carry(points, center, radius, n_samples, carry, tree, tol):
    """``(residual, failures, count)`` of the points within ``radius`` of ``center``, carried.

    At most ``n_samples`` of them, nearest first, go through ``carry``, which
    returns their images and a dict from row to exception; a row whose
    exception is one of ``ROW_FAILURES`` fails, and any other exception is
    raised.  Each image is measured against ``tree`` and fails
    beyond ``tol``.
    """
    dist = np.abs(points - center)
    sel = np.nonzero(dist <= radius)[0]
    sel = sel[np.argsort(dist[sel], kind="stable")][:n_samples]
    if not len(sel):
        return 0.0, 0, 0
    images, errors = carry(points[sel])
    for exc in errors.values():
        if not isinstance(exc, ROW_FAILURES):
            raise exc
    x = np.delete(np.asarray(images), list(errors))
    if not len(x):
        return 0.0, len(errors), len(sel)
    d, _ = tree.nearest(x)
    return float(np.max(d)), len(errors) + int(np.count_nonzero(d > tol)), len(sel)


def _germ_classes(germs: list, bases, radius: float, groups) -> list:
    """Class representative of each germ, scanned group by group in rounds.

    ``germs`` are built at ``bases`` with ``radius``, ``None`` for a rejected
    one, and the germs of one group are scanned in order.  Returns, per
    germ, the index of the first earlier representative of its group that it
    equals within ``GERM_EQUALITY_TOL`` on ``GERM_SAMPLES`` points of the
    circle of radius ``radius / 2`` about its base, its own index when it
    becomes one, ``None`` for ``None``, or the exception that ends its
    group's scan.  Every germ is evaluated on its samples up front, as one
    (germs × samples) array.  A germ whose evaluation raised ends the scan
    at its first comparison, before the representative's, as an evaluation
    made there would: a group's scan ends at its first germ after the first
    whose evaluation raised, or at its second germ if the first one raised,
    and that germ's exception, else the first's, is the outcome of every
    germ from there on; so only a group's first germ becomes a
    representative unevaluated, and a lone germ never ends a scan.

    Each round makes the first unscanned germ of every group a
    representative and gives it, in one array comparison, the later
    unscanned germs of its group that equal it.  Representatives are found
    in order, and a germ is taken by the first that it equals, so each germ
    gets the representative a germ-by-germ loop gives it.  A round holds
    one (unscanned germs × samples) array, and there are as many rounds as
    a group has representatives.
    """
    live = [i for i, germ in enumerate(germs) if germ is not None]
    values = np.full((len(germs), GERM_SAMPLES), complex(math.nan, math.nan))
    values[live], _, failed = map_rows(
        [germs[i].map for i in live],
        circle(np.array([bases[i] for i in live], dtype=complex), 0.5 * radius, GERM_SAMPLES))
    errors = {live[k]: exc for k, exc in failed.items()}
    # the live germs group by group, in order within each: group c holds
    # positions head[c]..bound[c] - 1 of ``order``, and its scan ends at stop[c]
    codes: dict = {}
    code = np.array([codes.setdefault(groups[i], len(codes)) for i in live], dtype=np.intp)
    sort = np.argsort(code, kind="stable")
    order, code = np.array(live, dtype=np.intp)[sort], code[sort]
    head = np.flatnonzero(np.diff(code, prepend=-1))
    bound = np.append(head[1:], len(order))
    stop = bound.copy()
    erred = np.zeros(len(germs), dtype=bool)
    erred[list(errors)] = True
    for p in np.flatnonzero(erred[order]).tolist():
        c = code[p]
        stop[c] = min(stop[c], head[c] + 1 if p == head[c] else p)
    rep = np.full(len(germs), -1, dtype=np.intp)
    pending = np.flatnonzero(np.arange(len(order)) < stop[code])
    while len(pending):
        lead = np.diff(code[pending], prepend=-1) != 0
        i = order[pending]
        r = i[lead][np.cumsum(lead) - 1]
        taken = lead.copy()
        taken[~lead] = (np.max(np.abs(values[r[~lead]] - values[i[~lead]]), axis=1)
                        <= GERM_EQUALITY_TOL)
        rep[i[taken]] = r[taken]
        pending = pending[~taken]
    out: list = [None if c < 0 else c for c in rep.tolist()]
    for c in np.flatnonzero(stop < bound).tolist():
        exc = errors.get(int(order[stop[c]])) or errors.get(int(order[head[c]]))
        for i in order[stop[c]:bound[c]].tolist():
            out[i] = exc
    return out


def detect_coincidence(G: SystemNet, F: SystemNet, w: Word, K_max: int = 16) -> ConjugacyRelation:
    """Conjugacy relation from two coinciding germs of iterated words.

    Builds the germ of ``w^k`` at the fixed point of ``g_w`` for
    ``k = 0..K_max`` (``k = 0`` is the identity germ with empty words) and
    scans them in increasing ``k``; the first coincidence ``H_p = H_q``
    forces the address word of ``H_q`` to extend that of ``H_p``, yielding
    ``g_w^(q-p) = f_v ∘ f_vtilde ∘ f_v^{-1}``.
    """
    if len(w) < 1:
        raise ValueError("coincidence detection needs a non-empty word")
    mG, mF = len(G.system.maps), len(F.system.maps)
    beta = fixed_point(G.system, w).point
    r = RADIUS_FRACTION * min(G.rho, F.rho)
    sF = F.s_floor

    germs: list[SymmetryGerm | None] = [
        SymmetryGerm(beta, r, Word((), mG), Word((), mF), Affine(1.0, 0.0))
    ]
    for germ in build_symmetries(G, F, beta, [w * k for k in range(1, K_max + 1)]):
        if isinstance(germ, GERM_REJECTIONS):
            germ = None
        elif isinstance(germ, Exception):
            raise germ
        germs.append(germ)

    # up to the first coincidence every germ is a representative, so the
    # first germ H_q with another class is the first pair H_p = H_q, p < q
    for q, p in enumerate(_germ_classes(germs, [beta] * len(germs), r, [0] * len(germs))):
        if isinstance(p, Exception):
            raise p
        if p is None or p == q:
            continue
        v, vq = germs[p].word_f, germs[q].word_f
        if vq.indices == v.indices:
            raise PrefixViolation("coinciding germs carry identical address words")
        if not vq.starts_with(v):
            raise PrefixViolation(f"address word {vq.indices} does not extend {v.indices}")
        vtilde = Word(vq.indices[len(v):], mF)
        l = q - p
        f_v = compose_word(F.system, v)
        rel = compose_maps((f_v, compose_word(F.system, vtilde), f_v.inverse()))
        gwl = compose_word(G.system, w * l)
        z = np.append(circle(beta, r * sF / 2.0, GERM_SAMPLES), beta)
        residual = float(np.max(np.abs(gwl(z) - rel(z))))
        return ConjugacyRelation(exponent_l=l, outer=v, inner=vtilde, source=w,
                                 anchor=beta, residual=residual)
    raise NoCoincidence(f"no coinciding germ pair within K_max = {K_max}")


def spectrum_compat(specG, specF, l_max: int, tol: float = SPECTRUM_TOL):
    """Smallest power matching each source multiplier into the target spectrum.

    A power ``lam^l`` matches a target ``t`` when ``|lam^l - t| <= tol |lam^l|``,
    relative to the power tested, so a power below ``tol`` cannot match every
    small target.  Returns ``(value, l)`` pairs with ``l = None`` for
    unmatched entries; source values are deduplicated on keys rounded to an
    absolute ``tol`` grid and ordered by real then imaginary part.
    """
    if not tol >= np.finfo(float).tiny:  # else a multiplier over tol may overflow
        raise ValueError(f"the spectrum tolerance must be a normal float, got {tol!r}")
    targets = specF.lambdas
    lams = specG.lambdas
    keys = (np.round(lams.real / tol), np.round(lams.imag / tol))
    out = []
    for lam in np.sort_complex(lams[first_per_key(*keys)]).tolist():
        found = None
        for l in range(1, l_max + 1):
            power = lam**l
            if len(targets) and float(np.min(np.abs(power - targets))) <= tol * abs(power):
                found = l
                break
        out.append((lam, found))
    return out


def _matches(sources: MultiplierSpectrum, target: IfsSystem, spec: MultiplierSpectrum,
             budgets: Budgets) -> list:
    """:func:`spectrum_compat` of ``sources`` into ``target``, whose solved spectrum is ``spec``.

    ``spec`` is extended only by the target lengths that can still lower a
    source's smallest power.  Each source ``lam`` takes its smallest power
    ``l_p`` in the targets solved so far (``spectrum_l_max + 1`` if none).
    A longer target word ``t`` matters only if ``|t|``, at most its length's
    bound ``U_k`` (:func:`~holoifs.dynamics.multiplier_length`), can reach
    ``|lam^l| (1 - tol)`` for some ``l < l_p``: else ``|lam^l - t| >= |lam^l|
    - |t| > tol |lam^l|``, and ``t`` cannot give a smaller power.  Adding targets only
    lowers each ``l_p``, so one extension suffices, and the matches are
    those of every length up to ``spectrum_target_len``; an unmatched source
    makes every length needed.
    """
    l_max, tol, tgt = budgets.spectrum_l_max, budgets.spectrum_tol, budgets.spectrum_target_len
    matches = spectrum_compat(sources, spec.truncated(tgt), l_max, tol)
    floor = min((abs(lam**l) * (1.0 - tol)
                 for lam, found in matches for l in range(1, found or l_max + 1)), default=math.inf)
    extended = extend_spectrum(target, spec, multiplier_length(target, floor, tgt))
    if extended is spec:
        return matches
    return spectrum_compat(sources, extended.truncated(tgt), l_max, tol)


def _prep_check(source: IfsSystem, spec: MultiplierSpectrum, target: InverseDynamics,
                budgets: Budgets):
    points = spec.orbit_points(source)
    # the recurrence test scales with the points, as their rounding does, so a
    # translated pair passes alike
    tol = RECURRENCE_TOL * max(1.0, float(np.max(np.abs(points), initial=0.0)))
    reports = target.orbits(points, budgets.prep_orbit_cap, tol)
    passes = sum(rep.is_preperiodic for rep in reports)
    return passes, len(reports) - passes


def _subsample(points: np.ndarray, cap: int) -> np.ndarray:
    if len(points) <= cap:
        return points
    idx = np.linspace(0, len(points) - 1, cap).round().astype(int)  # non-decreasing
    return points[idx[np.diff(idx, prepend=-1) != 0]]


def _functional_sweep(
    G: SystemNet, F: SystemNet, budgets: Budgets
) -> tuple[FunctionalEquation, ...]:
    """The functional equations of every cover disk; the germs and both sides as array rows.

    The germs of all disks are built in one call and scanned into classes in
    one more, one group per disk; a germ is named by its flat row in both.
    Per class representative ``c = (t_c, u_c)``, ``y = g_{t_c}(samples)`` is
    a row of one array, and the two sides ``f_u ∘ f_{u_c}^{-1}`` and
    ``g_t ∘ g_{t_c}^{-1}`` of each germ act on its class's ``y`` as rows of
    two more, over all disks.  Each row is the
    chain of calls, or the folded map of two affine maps, that the germ's own
    evaluation makes, so its bits and its exception are that evaluation's.
    A disk with fewer samples repeats them to the common width, which moves
    no maximum and no exception.  Every residual, the largest modulus of a
    row of the two sides' difference, is one reduction over all rows.  Each
    germ meets, in order, the exceptions of the scan, of its ``y`` and of
    each side.
    """
    sF = F.s_floor
    M = min_depth(G.system, G.net, sF) + 1
    rho = min(G.rho, F.rho)
    r = RADIUS_FRACTION * rho
    disks = box_restriction(G.system, G.net, eps_target=r, point_cap=budgets.point_cap)
    netG = G.net
    mG = len(G.system.maps)
    words = [Word(t, mG) for t in product(range(mG), repeat=M)]
    n = len(words)
    # germ i is word i % n at disk i // n; every disk holds a net point
    # (box_restriction), and its anchor is the one nearest its centre
    anchors, samples = [], []
    for disk in disks:
        dist = np.abs(netG.points - disk.center)
        inside = np.nonzero(dist <= disk.radius)[0]
        anchors.append(complex(netG.points[inside[np.argmin(dist[inside])]]))
        samples.append(_subsample(netG.points[inside], budgets.eq_samples))
    bases = np.repeat(anchors, n).tolist()
    built = build_symmetries(G, F, bases, words * len(disks))
    germs = [None if isinstance(g, Exception) else g for g in built]
    classes = _germ_classes(germs, bases, r, np.repeat(np.arange(len(disks)), n).tolist())
    reps = [i for i, c in enumerate(classes) if c == i]
    width = max(map(len, samples), default=0)
    # each word's map, and each side word(u) ∘ word(u_c)^{-1}, is composed once per sweep
    g_word = cache(lambda w: compose_word(G.system, w))
    f_word = cache(lambda w: compose_word(F.system, w))
    side = cache(lambda word, u, u_c: compose_maps((word(u), word(u_c).inverse())))
    y, _, y_errors = map_rows([g_word(germs[c].word_g) for c in reps],
                              np.array([np.resize(samples[c // n], width) for c in reps],
                                       dtype=complex).reshape(len(reps), width))
    y_errors = {reps[j]: exc for j, exc in y_errors.items()}
    y = {c: row for c, row in zip(reps, y) if c not in y_errors}
    rows = {i: j for j, i in enumerate(i for i, c in enumerate(classes) if c in y)}
    at = np.array([y[classes[i]] for i in rows], dtype=complex).reshape(len(rows), width)
    (lhs, _, lhs_errors), (rhs, _, rhs_errors) = (
        map_rows([side(word, getattr(germs[i], field), getattr(germs[classes[i]], field))
                  for i in rows], at)
        for field, word in (("word_f", f_word), ("word_g", g_word))
    )
    # a failed row's NaN is never read; initial=0 moves no maximum of moduli
    # and allows a sweep with no rows
    residuals = np.max(np.abs(lhs - rhs), axis=1, initial=0.0).tolist()
    entries: list[FunctionalEquation] = []
    for d in range(len(disks)):
        for i, tw in enumerate(words, d * n):
            outcome, c, j = built[i], classes[i], rows.get(i)
            if isinstance(outcome, GERM_REJECTIONS):
                entries.append(
                    FunctionalEquation(d, tw, None, None, None,
                                       math.inf, False, type(outcome).__name__)
                )
                continue
            if isinstance(outcome, Exception):
                raise outcome
            if isinstance(c, Exception):
                raise c
            exc = y_errors.get(c) or lhs_errors.get(j) or rhs_errors.get(j)
            if exc is None:
                residual, note = residuals[j], ""
            elif isinstance(exc, ROW_FAILURES):
                residual, note = math.inf, type(exc).__name__
            else:
                raise exc
            entries.append(
                FunctionalEquation(
                    disk_index=d,
                    word_g=tw,
                    word_f=outcome.word_f,
                    rep_word_g=germs[c].word_g,
                    rep_word_f=germs[c].word_f,
                    residual=residual,
                    ok=residual <= budgets.func_eq_tol,
                    note=note,
                )
            )
    return tuple(entries)


def shared_attractor(
    systemG: IfsSystem,
    systemF: IfsSystem,
    epsilon: float,
    budgets: Budgets | None = None,
) -> SharedAttractorReport:
    """Assemble all numerical evidence into Shared/NotShared/Inconclusive.

    A net distance beyond the combined net errors certifies NotShared.
    Shared needs every category to pass: separation both sides, preperiodic
    cross-checks both ways, spectrum compatibility both ways, and the
    functional-equation sweep.  Anything less is Inconclusive, and so is a
    computation that fails with a :class:`HoloifsError` other than
    :class:`BudgetExceeded`, which propagates: the note names the exception,
    and ``hausdorff`` is NaN if the net distance was not measured.

    Each system's necklaces are solved once, as one table: up to
    ``prep_max_word`` for its preperiodic cross-check, then extended to
    ``spectrum_source_len`` for its sources, and, as a target, only by the
    word lengths up to ``spectrum_target_len`` whose multiplier bound can
    still lower a source's smallest matching power (:func:`_matches`); the
    matches are those of solving every target length.  A target word that
    is never solved cannot fail the verdict by its own error.  The word
    budgets are still checked at the longer of the two spectrum lengths
    before any orbit walk.
    """
    budgets = budgets if budgets is not None else Budgets()
    h, ssc_both = math.nan, False  # until measured

    def report(verdict: str, *notes: str, **evidence) -> SharedAttractorReport:
        return SharedAttractorReport(hausdorff=h, ssc_both=ssc_both, verdict=verdict,
                                     notes=notes, **evidence)

    try:
        G = SystemNet(systemG, compute_net(systemG, epsilon, budgets.point_cap))
        F = SystemNet(systemF, compute_net(systemF, epsilon, budgets.point_cap))
        h = hausdorff(G.net.points, F.net.points)
        eps_sum = G.net.epsilon + F.net.epsilon
        ssc_both = bool(G.cert.valid and F.cert.valid)

        if h > eps_sum:
            return report("NotShared",
                          f"net distance {h:.6e} exceeds combined net error {eps_sum:.6e}")
        if not ssc_both:
            return report("Inconclusive", "separation certificate invalid; evidence unavailable")

        # the word budgets fail before any orbit walk, in the order the
        # stages below would meet them
        src, tgt = budgets.spectrum_source_len, budgets.spectrum_target_len
        for length, system in product((budgets.prep_max_word, max(src, tgt)), (G.system, F.system)):
            check_word_budget(system, length)
        # one necklace table per system: solved up to the prep length for its
        # prep check, extended to the source length after both walks, and
        # extended again, as a target, by the lengths that can still move a
        # match; its rows run in increasing word length, each solved on its
        # own, so truncated() and extend_spectrum() equal a spectrum of other
        # length; G's targets are extended first, in the order of the systems
        specG = spectrum(G.system, budgets.prep_max_word)
        prep_forward = _prep_check(G.system, specG, F.dyn, budgets)
        specF = spectrum(F.system, budgets.prep_max_word)
        prep_backward = _prep_check(F.system, specF, G.dyn, budgets)
        specG, specF = extend_spectrum(G.system, specG, src), extend_spectrum(F.system, specF, src)
        into_g = _matches(specF.truncated(src), G.system, specG, budgets)
        matches = tuple(_matches(specG.truncated(src), F.system, specF, budgets) + into_g)

        equations = _functional_sweep(G, F, budgets)
    except BudgetExceeded:
        raise
    except HoloifsError as exc:
        # a failed computation is no evidence either way
        return report("Inconclusive", f"{type(exc).__name__}: {exc}")

    # Shared needs every check; each one that fails writes its note, in order
    checks = (
        ("preperiodic cross-check", all(passes > 0 and fails == 0
                                        for passes, fails in (prep_forward, prep_backward))),
        ("spectrum compatibility", len(matches) > 0 and all(l is not None for _, l in matches)),
        ("functional-equation sweep", len(equations) > 0 and all(e.ok for e in equations)),
    )
    notes = [f"{name} failed" for name, passed in checks if not passed]
    return report("Inconclusive" if notes else "Shared", *notes, prep_forward=prep_forward,
                  prep_backward=prep_backward, spectrum_matches=matches,
                  functional_equations=equations)
