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
from functools import cached_property
from itertools import islice, product

import numpy as np
from scipy.spatial import cKDTree

from .attractor import (
    AttractorNet,
    SeparationCertificate,
    box_restriction,
    certify_ssc,
    compute_net,
    hausdorff,
    rho_radius,
)
from .dynamics import _InverseDynamics, _orbit_steps, fixed_point, prep_points, spectrum
from .errors import (
    AddressFailure,
    AmbiguousBranch,
    BudgetExceeded,
    CriterionEmpty,
    DegenerateDerivative,
    DomainError,
    GermBoundsError,
    NoCoincidence,
    NotInImage,
    OutsideAttractor,
    PrefixViolation,
    SeparationFailure,
)
from .geometry import koebe_distortion
from .maps import Affine, HoloMap, IfsSystem, Word, compose_maps, compose_word, inverse_map

#: germ radius as a fraction of the univalence radius rho
RADIUS_FRACTION = 3.0 - math.sqrt(8.0)

#: Koebe distortion bounds at relative radius RADIUS_FRACTION: on the germ
#: ball, |H'| / |H'(a)| lies in [_SHRINK, _EXPAND]
_SHRINK, _EXPAND = koebe_distortion(RADIUS_FRACTION)

DERIV_SLACK = 1e-9
GERM_EQUALITY_TOL = 1e-9
GERM_SAMPLES = 32
BOUNDARY_SAMPLES = 64
WALK_CAP = 512
DERIV_FLOOR = 1e-300


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
    spectrum_tol: float = 1e-9
    func_eq_tol: float = 1e-9
    eq_samples: int = 64
    point_cap: int = 10**7

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            number = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if f.type == "int":
                if not (number and isinstance(value, numbers.Integral) and value > 0):
                    raise ValueError(f"Budgets.{f.name} must be a positive integer, got {value!r}")
            elif not (number and math.isfinite(value) and value > 0):
                raise ValueError(f"Budgets.{f.name} must be finite and positive, got {value!r}")


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
    object.  The members call the module-level functions by their global
    names, so a wrapper installed on a module attribute sees every call.
    """

    system: IfsSystem
    net: AttractorNet

    @cached_property
    def cert(self) -> SeparationCertificate:
        return certify_ssc(self.system, self.net)

    @cached_property
    def dyn(self) -> _InverseDynamics:
        return _InverseDynamics(self.system, self.net, self.cert)

    @cached_property
    def rho(self) -> float:
        """Euclidean inradius floor of the hyperbolic separation radius."""
        return rho_radius(self.system, self.net, self.cert)[1]

    @cached_property
    def s_floor(self) -> float:
        return s_floor(self.system, self.net)

    @cached_property
    def tree(self) -> cKDTree:
        return cKDTree(self.net.xy)


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


def _address_walk(F: SystemNet, x: complex):
    """Yield ``(letter, preimage)`` along the target address of ``x``, unbounded."""
    x = b = complex(x)
    n = 0
    while True:
        try:
            b, j = F.dyn.step(b)
        except (OutsideAttractor, AmbiguousBranch) as exc:
            raise AddressFailure(
                f"address walk from {x} failed after {n} letters at {b}"
            ) from exc
        n += 1
        yield j, b


def address(F: SystemNet, x: complex, k: int) -> Word:
    """First ``k`` letters of the target address of ``x`` via inverse steps."""
    letters = tuple(j for j, _ in islice(_address_walk(F, x), k))
    return Word(letters, len(F.system.maps))


def build_symmetry(G: SystemNet, F: SystemNet, a: complex, w: Word) -> SymmetryGerm:
    """Germ ``H = f_{V_m}^{-1} ∘ g_w`` at ``a`` with certified bounds.

    ``m`` is the largest address depth whose accumulated derivative still
    dominates ``|g_w'(a)|``; this pins ``|H'(a)|`` into ``[s_F, 1]``.  The
    image sandwich around ``H(a)`` is checked on boundary samples.
    """
    a = complex(a)
    gw = compose_word(G.system, w)
    lam = complex(gw.deriv(a))
    rho = min(G.rho, F.rho)
    r = RADIUS_FRACTION * rho
    sF = F.s_floor

    D = 1.0 + 0.0j
    letters: list[int] = []
    for j, b in islice(_address_walk(F, gw(a)), WALK_CAP):
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
    V = Word(tuple(letters), len(F.system.maps))

    f_V = compose_word(F.system, V)
    H = compose_maps((inverse_map(f_V), gw))
    dH = complex(H.deriv(a))
    if not (sF - DERIV_SLACK <= abs(dH) <= 1.0 + DERIV_SLACK):
        raise GermBoundsError(
            f"|H'(a)| = {abs(dH):.6e} outside [{sF:.6e}, 1]"
        )
    Ha = complex(H(a))
    theta = 2.0 * np.pi * np.arange(BOUNDARY_SAMPLES) / BOUNDARY_SAMPLES
    ring = a + r * np.exp(1j * theta)
    dist = np.abs(H(ring) - Ha)
    if float(np.max(dist)) > rho + 1e-12:
        raise GermBoundsError("image boundary escapes the outer sandwich disk")
    if float(np.min(dist)) < sF * rho / 25.0 - 1e-12:
        raise GermBoundsError("image boundary enters the inner sandwich disk")
    return SymmetryGerm(base=a, radius=r, word_g=w, word_f=V, map=H)


def verify_symmetry(
    germ: SymmetryGerm,
    G: SystemNet,
    F: SystemNet,
    n_samples: int = 200,
    tol: float = 1e-9,
) -> SymmetryResidualReport:
    """Sampled check that the germ carries one net into the other and back.

    Forward tolerance allows the Koebe-distortion Lipschitz bound times the
    source net error; the backward direction inverts the germ on the inner
    quarter ball, where surjectivity is guaranteed.
    """
    netG, netF = G.net, F.net
    a, r, H = germ.base, germ.radius, germ.map
    dH = abs(germ.derivative)

    dist_a = np.abs(netG.points - a)
    sel = np.nonzero(dist_a <= r)[0]
    sel = sel[np.argsort(dist_a[sel], kind="stable")][:n_samples]
    forward_tol = tol + netF.epsilon + _EXPAND * netG.epsilon
    forward_res = 0.0
    forward_fail = 0
    if len(sel):
        images = np.atleast_1d(H(netG.points[sel]))
        d, _ = F.tree.query(np.column_stack((images.real, images.imag)), k=1)
        forward_res = float(np.max(d))
        forward_fail = int(np.count_nonzero(d > forward_tol))

    Ha = complex(H(a))
    inner = dH * r / 4.0
    dist_im = np.abs(netF.points - Ha)
    selb = np.nonzero(dist_im <= inner)[0]
    selb = selb[np.argsort(dist_im[selb], kind="stable")][:n_samples]
    backward_tol = tol + netG.epsilon + netF.epsilon / max(dH * _SHRINK, 1e-12)
    backward_res = 0.0
    backward_fail = 0
    H_inv = inverse_map(H)
    for y in netF.points[selb]:
        try:
            x = complex(H_inv(complex(y)))
        except (NotInImage, DomainError, ValueError):
            backward_fail += 1
            continue
        d, _ = G.tree.query([[x.real, x.imag]], k=1)
        backward_res = max(backward_res, float(d[0]))
        if float(d[0]) > backward_tol:
            backward_fail += 1
    return SymmetryResidualReport(
        forward_residual=forward_res,
        backward_residual=backward_res,
        forward_failures=forward_fail,
        backward_failures=backward_fail,
        forward_count=int(len(sel)),
        backward_count=int(len(selb)),
        forward_tolerance=forward_tol,
        backward_tolerance=backward_tol,
    )


def _germs_equal(g1: SymmetryGerm, g2: SymmetryGerm, tol: float = GERM_EQUALITY_TOL) -> bool:
    radius = 0.5 * min(g1.radius, g2.radius)
    theta = 2.0 * np.pi * np.arange(GERM_SAMPLES) / GERM_SAMPLES
    z = g1.base + radius * np.exp(1j * theta)
    return float(np.max(np.abs(g1.map(z) - g2.map(z)))) <= tol


def _identity_germ(base: complex, radius: float, mG: int, mF: int) -> SymmetryGerm:
    return SymmetryGerm(
        base=complex(base),
        radius=radius,
        word_g=Word((), mG),
        word_f=Word((), mF),
        map=Affine(1.0, 0.0),
    )


def detect_coincidence(G: SystemNet, F: SystemNet, w: Word, K_max: int = 16) -> ConjugacyRelation:
    """Conjugacy relation from two coinciding germs of iterated words.

    Builds the germ of ``w^k`` at the fixed point of ``g_w`` for
    ``k = 0..K_max`` (``k = 0`` is the identity germ with empty words) and
    scans pairs in increasing ``k``; the first coincidence ``H_p = H_q``
    forces the address word of ``H_q`` to extend that of ``H_p``, yielding
    ``g_w^(q-p) = f_v ∘ f_vtilde ∘ f_v^{-1}``.
    """
    if len(w) < 1:
        raise ValueError("coincidence detection needs a non-empty word")
    mG, mF = len(G.system.maps), len(F.system.maps)
    beta = fixed_point(G.system, w).point
    rho = min(G.rho, F.rho)
    r = RADIUS_FRACTION * rho
    sF = F.s_floor

    germs: list[SymmetryGerm | None] = [_identity_germ(beta, r, mG, mF)]
    for k in range(1, K_max + 1):
        wk = Word(w.indices * k, mG)
        try:
            germs.append(build_symmetry(G, F, beta, wk))
        except (CriterionEmpty, AddressFailure, GermBoundsError):
            germs.append(None)

    for q in range(1, K_max + 1):
        gq = germs[q]
        if gq is None:
            continue
        for p in range(q):
            gp = germs[p]
            if gp is None or not _germs_equal(gp, gq):
                continue
            v = gp.word_f
            vq = gq.word_f
            if vq.indices == v.indices:
                raise PrefixViolation(
                    "coinciding germs carry identical address words"
                )
            if not vq.starts_with(v):
                raise PrefixViolation(
                    f"address word {vq.indices} does not extend {v.indices}"
                )
            vtilde = Word(vq.indices[len(v):], mF)
            l = q - p
            f_v = compose_word(F.system, v)
            rel = compose_maps((f_v, compose_word(F.system, vtilde), inverse_map(f_v)))
            gwl = compose_word(G.system, Word(w.indices * l, mG))
            theta = 2.0 * np.pi * np.arange(GERM_SAMPLES) / GERM_SAMPLES
            z = beta + (r * sF / 2.0) * np.exp(1j * theta)
            z = np.concatenate((z, [beta]))
            residual = float(np.max(np.abs(gwl(z) - rel(z))))
            return ConjugacyRelation(
                exponent_l=l,
                outer=v,
                inner=vtilde,
                source=w,
                anchor=beta,
                residual=residual,
            )
    raise NoCoincidence(f"no coinciding germ pair within K_max = {K_max}")


def spectrum_compat(specG, specF, l_max: int, tol: float = 1e-9):
    """Smallest power matching each source multiplier into the target spectrum.

    Returns ``(value, l)`` pairs with ``l = None`` for unmatched entries;
    source values are deduplicated and ordered by real then imaginary part.
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
            if len(targets) and float(np.min(np.abs(lam**l - targets))) <= tol:
                found = l
                break
        out.append((lam, found))
    return out


def _prep_check(source: IfsSystem, target_dyn: _InverseDynamics, budgets: Budgets):
    passes = fails = 0
    for p in prep_points(source, budgets.prep_max_word, 0):
        rep = _orbit_steps(target_dyn, p, budgets.prep_orbit_cap, 1e-9)
        if rep.is_preperiodic:
            passes += 1
        else:
            fails += 1
    return passes, fails


def _subsample(points: np.ndarray, cap: int) -> np.ndarray:
    if len(points) <= cap:
        return points
    idx = np.linspace(0, len(points) - 1, cap).round().astype(int)
    return points[np.unique(idx)]


def _functional_sweep(
    G: SystemNet, F: SystemNet, budgets: Budgets
) -> tuple[FunctionalEquation, ...]:
    sF = F.s_floor
    M = min_depth(G.system, G.net, sF) + 1
    rho = min(G.rho, F.rho)
    r = RADIUS_FRACTION * rho
    disks = box_restriction(G.system, G.net, eps_target=r, point_cap=budgets.point_cap)
    netG = G.net
    mG = len(G.system.maps)
    entries: list[FunctionalEquation] = []

    for d_idx, disk in enumerate(disks):
        dist = np.abs(netG.points - disk.center)
        inside = np.nonzero(dist <= disk.radius)[0]
        if not len(inside):
            entries.append(
                FunctionalEquation(d_idx, Word((), mG), None, None, None,
                                   math.inf, False, "empty cover disk")
            )
            continue
        anchor = complex(netG.points[inside[np.argmin(dist[inside])]])
        samples = _subsample(netG.points[inside], budgets.eq_samples)
        classes: list[SymmetryGerm] = []
        for t in product(range(mG), repeat=M):
            tw = Word(t, mG)
            try:
                germ = build_symmetry(G, F, anchor, tw)
            except (CriterionEmpty, AddressFailure, GermBoundsError, SeparationFailure) as exc:
                entries.append(
                    FunctionalEquation(d_idx, tw, None, None, None,
                                       math.inf, False, type(exc).__name__)
                )
                continue
            rep = None
            for cand in classes:
                if _germs_equal(germ, cand):
                    rep = cand
                    break
            if rep is None:
                classes.append(germ)
                rep = germ
            t_k, u_k = rep.word_g, rep.word_f
            try:
                y = compose_word(G.system, t_k)(samples)
                lhs = compose_maps(
                    (compose_word(F.system, germ.word_f),
                     inverse_map(compose_word(F.system, u_k)))
                )
                rhs = compose_maps(
                    (compose_word(G.system, tw),
                     inverse_map(compose_word(G.system, t_k)))
                )
                residual = float(np.max(np.abs(lhs(y) - rhs(y))))
                note = ""
            except (NotInImage, DomainError, ValueError) as exc:
                residual, note = math.inf, type(exc).__name__
            entries.append(
                FunctionalEquation(
                    disk_index=d_idx,
                    word_g=tw,
                    word_f=germ.word_f,
                    rep_word_g=t_k,
                    rep_word_f=u_k,
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
    functional-equation sweep.  Anything less is Inconclusive.
    """
    budgets = budgets if budgets is not None else Budgets()
    G = SystemNet(systemG, compute_net(systemG, epsilon, budgets.point_cap))
    F = SystemNet(systemF, compute_net(systemF, epsilon, budgets.point_cap))
    h = hausdorff(G.net.points, F.net.points)
    eps_sum = G.net.epsilon + F.net.epsilon
    ssc_both = bool(G.cert.valid and F.cert.valid)

    if h > eps_sum:
        return SharedAttractorReport(
            hausdorff=h,
            ssc_both=ssc_both,
            verdict="NotShared",
            notes=(f"net distance {h:.6e} exceeds combined net error {eps_sum:.6e}",),
        )
    if not ssc_both:
        return SharedAttractorReport(
            hausdorff=h,
            ssc_both=False,
            verdict="Inconclusive",
            notes=("separation certificate invalid; evidence unavailable",),
        )

    notes: list[str] = []
    try:
        dynG, dynF = G.dyn, F.dyn
        prep_forward = _prep_check(G.system, dynF, budgets)
        prep_backward = _prep_check(F.system, dynG, budgets)

        # one enumeration per system; deduplication keeps the first entry in
        # increasing word length, so truncating equals a shorter enumeration
        src, tgt = budgets.spectrum_source_len, budgets.spectrum_target_len
        specG = spectrum(G.system, max(src, tgt))
        specF = spectrum(F.system, max(src, tgt))
        l_max, tol = budgets.spectrum_l_max, budgets.spectrum_tol
        matches = tuple(
            spectrum_compat(specG.truncated(src), specF.truncated(tgt), l_max, tol)
            + spectrum_compat(specF.truncated(src), specG.truncated(tgt), l_max, tol)
        )

        equations = _functional_sweep(G, F, budgets)
    except (SeparationFailure, DegenerateDerivative) as exc:
        return SharedAttractorReport(
            hausdorff=h,
            ssc_both=ssc_both,
            verdict="Inconclusive",
            notes=(f"{type(exc).__name__}: {exc}",),
        )

    prep_ok = (
        prep_forward[0] > 0
        and prep_forward[1] == 0
        and prep_backward[0] > 0
        and prep_backward[1] == 0
    )
    spectrum_ok = len(matches) > 0 and all(l is not None for _, l in matches)
    func_ok = len(equations) > 0 and all(e.ok for e in equations)
    if not prep_ok:
        notes.append("preperiodic cross-check failed")
    if not spectrum_ok:
        notes.append("spectrum compatibility failed")
    if not func_ok:
        notes.append("functional-equation sweep failed")

    verdict = "Shared" if (prep_ok and spectrum_ok and func_ok) else "Inconclusive"
    return SharedAttractorReport(
        hausdorff=h,
        ssc_both=True,
        prep_forward=prep_forward,
        prep_backward=prep_backward,
        spectrum_matches=matches,
        functional_equations=equations,
        verdict=verdict,
        notes=tuple(notes),
    )
