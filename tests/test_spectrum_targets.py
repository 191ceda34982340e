"""Spectrum targets are solved only up to the word length that can still move a match.

``shared_attractor`` solves each system's source lengths once, then extends
each target spectrum by the lengths whose multiplier bound (the enclosures
of the domain) can still reach a power of a source that no shorter target
matched.  The reports must equal those of solving every target length, which
the tests get by replacing the bound with "no bound".
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import holoifs.dynamics
import holoifs.symmetry
from holoifs.attractor import refine_level, self_enclosed
from holoifs.cli import shared_report_text
from holoifs.dynamics import _necklace_letters, extend_spectrum, multiplier_length, spectrum
from holoifs.errors import BudgetExceeded
from holoifs.maps import Affine, Composite, Disk, IfsSystem, SqrtBranch, Word, compose_word
from holoifs.symmetry import Budgets, shared_attractor
from holoifs.systems import cantor_thirds, cantor_thirds_reflected, iterate_system, sqrt_julia
from holoifs.tolerances import MULTIPLIER_BOUND_SLACK

EPS = 1e-3


def _recode(system, code):
    """The system of the word maps of ``code``, a complete prefix code: the same attractor."""
    m = len(system.maps)
    return IfsSystem(tuple(compose_word(system, Word(w, m)) for w in code), system.domain)


def _g_b(b):
    return IfsSystem((Affine(0.4, 0.0), Affine(b, 1.0 - b)), Disk(0.5, 2.0))


def _thirds_perturbed(delta):
    return IfsSystem((Affine(1 / 3 + delta, 0.0), Affine(1 / 3, 2 / 3)), Disk(0.5, 2.0))


def _julia_with_inverse_factor():
    """``sqrt_julia(-6)`` recoded by {00, 01, 1}, its first map written ``g0 o g0^-1 o g0 o g0``.

    The maps are those of the recoding, but one factor is a square-root
    branch's inverse, whose enclosure bounds the image, not the derivative.
    """
    g = sqrt_julia(-6.0)
    g0, g1 = g.maps
    maps = (Composite((g0, g0.inverse(), g0, g0)), compose_word(g, Word((0, 1), 2)), g1)
    return IfsSystem(maps, g.domain)


def _report_text(g, f):
    try:
        report = shared_attractor(g, f, EPS)
    except BudgetExceeded as exc:
        return repr(exc)
    return shared_report_text(report, EPS, "g", "f")


def _unpruned_text(g, f):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(holoifs.symmetry, "multiplier_length", lambda system, floor, max_len: max_len)
        return _report_text(g, f)


def _table():
    pairs = []
    for c in (-6.0, -6.5, -6.0 + 0.5j):
        julia = sqrt_julia(c)
        pairs += [(f"julia{c}-square", julia, iterate_system(julia, 2)),
                  (f"julia{c}-square-swapped", iterate_system(julia, 2), julia)]
    thirds = cantor_thirds()
    pairs += [
        ("thirds-reflected", thirds, cantor_thirds_reflected()),
        ("thirds-square", thirds, iterate_system(thirds, 2)),
        ("thirds-recoded", thirds, _recode(thirds, [(0,), (1, 0), (1, 1)])),
        ("g0.12-square", _g_b(0.12), iterate_system(_g_b(0.12), 2)),
        ("g0.1-square", _g_b(0.1), iterate_system(_g_b(0.1), 2)),
        ("thirds-delta1e-3", thirds, _thirds_perturbed(1e-3)),
        ("thirds-delta1e-9", thirds, _thirds_perturbed(1e-9)),
        ("julia-recoded", sqrt_julia(-6.0), _recode(sqrt_julia(-6.0), [(0, 0), (0, 1), (1,)])),
        ("julia-self", sqrt_julia(-6.0), sqrt_julia(-6.0)),
        ("julia-wide-domain", sqrt_julia(-6.0), sqrt_julia(-6.0, Disk(0.0, 5.1))),
        ("julia-inverse-factor", sqrt_julia(-6.0), _julia_with_inverse_factor()),
    ]
    return pairs


TABLE = _table()


@pytest.mark.parametrize("g, f", [p[1:] for p in TABLE], ids=[p[0] for p in TABLE])
def test_pruned_report_equals_the_unpruned_one(g, f):
    assert _report_text(g, f) == _unpruned_text(g, f)


def _affine_system(data, m):
    """``m`` real affine maps, of ratios in [0.15, 0.4] (0.3 for three), onto disjoint parts of [0, 1]."""
    ratios = [data.draw(st.floats(0.15, 0.4 if m == 2 else 0.3)) for _ in range(m)]
    flips = [data.draw(st.booleans()) for _ in range(m)]
    gap = (1.0 - sum(ratios)) / (m - 1)
    maps, start = [], 0.0
    for r, flip in zip(ratios, flips):
        maps.append(Affine(-r, start + r) if flip else Affine(r, start))
        start += r + gap
    return IfsSystem(tuple(maps), Disk(0.5, 2.0))


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_pruned_affine_reports_equal_the_unpruned_ones(data):
    g = _affine_system(data, data.draw(st.integers(2, 3)))
    delta = data.draw(st.sampled_from([1e-3, 1e-6, 1e-9]))
    alpha = g.maps[0].alpha
    perturbed = IfsSystem((Affine(alpha + math.copysign(delta, alpha.real), g.maps[0].b),
                           *g.maps[1:]), g.domain)
    square = iterate_system(g, 2)
    for pair in ((g, square), (square, g), (g, perturbed)):
        assert _report_text(*pair) == _unpruned_text(*pair)


def _level_bounds(system, max_len):
    """``U_1 .. U_max_len``: the largest radius of each level's enclosures of the domain, over R."""
    centers = np.array([system.domain.center])
    radii = np.array([system.domain.radius])
    bounds = []
    for _ in range(max_len):
        centers, radii = refine_level(system, centers, radii)
        bounds.append(float(np.max(radii)) / system.domain.radius)
    return bounds


BOUNDED = {
    "julia-6": lambda: sqrt_julia(-6.0),
    "julia-6.5": lambda: sqrt_julia(-6.5),
    "julia-complex": lambda: sqrt_julia(-6.0 + 0.5j),
    "julia-6-square": lambda: iterate_system(sqrt_julia(-6.0), 2),
    "julia-6.5-square": lambda: iterate_system(sqrt_julia(-6.5), 2),
    "julia-complex-square": lambda: iterate_system(sqrt_julia(-6.0 + 0.5j), 2),
    "thirds-square": lambda: iterate_system(cantor_thirds(), 2),
    "g0.12": lambda: _g_b(0.12),
}


@pytest.mark.parametrize("make", BOUNDED.values(), ids=BOUNDED.keys())
def test_every_multiplier_lies_under_its_length_bound(make):
    system = make()
    assert self_enclosed(system)
    bounds = _level_bounds(system, 8)
    assert all(b >= a for a, b in zip(bounds[1:], bounds))  # U_k does not increase
    spec = spectrum(system, 8)
    lengths = np.array([len(w) for w in spec.words])
    limit = np.array(bounds)[lengths - 1] * (1.0 + MULTIPLIER_BOUND_SLACK)
    assert np.all(np.abs(spec.lambdas) <= limit)
    # the longest length whose bound reaches the floor, or 0
    for floor in [*bounds, *np.abs(spec.lambdas[:: max(1, len(lengths) // 40)]), 2.0]:
        reach = [k for k, u in enumerate(bounds, 1) if u * (1.0 + MULTIPLIER_BOUND_SLACK) >= floor]
        want = max(reach, default=0)
        assert multiplier_length(system, floor, 8) == want


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_enclosure_radius_bounds_the_derivative_on_the_disk(data):
    unit = st.floats(-1.0, 1.0)
    if data.draw(st.booleans()):
        f = Affine(complex(data.draw(unit), data.draw(unit)), complex(data.draw(unit), data.draw(unit)))
        center = complex(data.draw(st.floats(-5.0, 5.0)), data.draw(st.floats(-5.0, 5.0)))
        radius = data.draw(st.floats(1e-3, 3.0))
    else:
        f = SqrtBranch(complex(data.draw(st.floats(-7.0, -2.0)), data.draw(unit)),
                       data.draw(st.sampled_from([-1, 1])))
        # a disk to the right of the branch point, clear of its cut
        v = complex(data.draw(st.floats(0.5, 8.0)), data.draw(st.floats(-4.0, 4.0)))
        center = f.c + v
        radius = data.draw(st.floats(1e-3, 0.99)) * abs(v)
    _, radii = f.enclosure_arrays(np.array([center]), np.array([radius]))
    t = np.array([data.draw(st.floats(0.0, 1.0)) for _ in range(16)])
    angle = np.array([data.draw(st.floats(0.0, 2 * math.pi)) for _ in range(16)])
    z = center + radius * np.sqrt(t) * np.exp(1j * angle)
    z = z[np.abs(z - center) < radius]
    derivative = np.abs(f.deriv(z)) * radius
    assert np.all(derivative <= radii[0] * (1.0 + MULTIPLIER_BOUND_SLACK))


# ---------------------------------------------------------------------------
# which lengths are solved, counted in necklaces


def _spy_solved_lengths(monkeypatch, calls=None):
    """Per system id, a Counter of the word lengths whose necklaces are solved.

    The level solver itself is spied, so the prep check's necklaces count
    too; each call's ``(system id, min_len, max_len)`` is appended to ``calls``.
    """
    solved = defaultdict(Counter)
    levels = holoifs.dynamics._levels

    def spy(system, max_len, min_len=1):
        solved[id(system)].update(range(min_len, max_len + 1))
        if calls is not None:
            calls.append((id(system), min_len, max_len))
        return levels(system, max_len, min_len)

    monkeypatch.setattr(holoifs.dynamics, "_levels", spy)
    return solved


def _necklaces(system, lengths):
    return sum(len(_necklace_letters(len(system.maps), n)) for n in lengths)


def test_julia_square_solves_the_squares_source_necklaces_and_no_more(monkeypatch):
    solved = _spy_solved_lengths(monkeypatch)
    g = sqrt_julia(-6.0)
    square = iterate_system(g, 2)
    assert shared_attractor(g, square, EPS).verdict == "Shared"
    # each length once; the square's sources only, and every length of G,
    # whose targets meet the square's tiny multipliers
    assert solved[id(square)] == Counter(range(1, 5))
    assert _necklaces(square, solved[id(square)]) == 108
    assert solved[id(g)] == Counter(range(1, 9))


@pytest.mark.parametrize(
    "make_pruned, make_fallback",
    [
        # the same maps on B(0, 5.1), where a map's enclosure leaves the domain
        (lambda: sqrt_julia(-6.0), lambda: sqrt_julia(-6.0, Disk(0.0, 5.1))),
        # the same maps with a square-root branch's inverse among the factors
        (lambda: _recode(sqrt_julia(-6.0), [(0, 0), (0, 1), (1,)]), _julia_with_inverse_factor),
    ],
    ids=["enclosure-leaves-the-domain", "inverse-branch-factor"],
)
def test_without_a_bound_every_target_length_is_solved(monkeypatch, make_pruned, make_fallback):
    solved = _spy_solved_lengths(monkeypatch)
    g = sqrt_julia(-6.0)
    pruned, fallback = make_pruned(), make_fallback()
    assert multiplier_length(pruned, 0.5, 8) < multiplier_length(fallback, 0.5, 8) == 8
    for target in (pruned, fallback):
        assert shared_attractor(g, target, EPS).verdict == "Shared"
    assert max(solved[id(pruned)]) < 8
    assert solved[id(fallback)] == Counter(range(1, 9))


BUDGETS = {
    "defaults": Budgets(),
    "prep5-source3": Budgets(prep_max_word=5, spectrum_source_len=3),
    "prep2-source5": Budgets(prep_max_word=2, spectrum_source_len=5),
}


@pytest.mark.parametrize("budgets", BUDGETS.values(), ids=BUDGETS.keys())
@pytest.mark.parametrize(
    "make_g, make_f",
    [
        (cantor_thirds, cantor_thirds_reflected),
        (lambda: sqrt_julia(-6.0), lambda: iterate_system(sqrt_julia(-6.0), 2)),
    ],
    ids=["thirds-reflected", "julia-square"],
)
def test_each_system_solves_each_length_once(monkeypatch, make_g, make_f, budgets):
    # one necklace table per system serves its prep check, its sources and
    # its targets, whichever of the prep and source lengths is longer
    solved = _spy_solved_lengths(monkeypatch)
    g, f = make_g(), make_f()
    shared_attractor(g, f, EPS, budgets)
    needed = range(1, max(budgets.prep_max_word, budgets.spectrum_source_len) + 1)
    for system in (g, f):
        lengths = solved[id(system)]
        assert set(lengths) == set(range(1, max(lengths) + 1)) >= set(needed)
        assert set(lengths.values()) == {1}


def test_julia_square_makes_three_solves_of_twelve_lengths(monkeypatch):
    # G's prep lengths, then its extension to 8 letters; the square's prep
    # lengths, which are its source lengths too
    calls = []
    _spy_solved_lengths(monkeypatch, calls)
    g = sqrt_julia(-6.0)
    square = iterate_system(g, 2)
    shared_attractor(g, square, EPS)
    assert calls == [(id(g), 1, 4), (id(square), 1, 4), (id(g), 5, 8)]


def test_an_unmatched_source_makes_every_target_length_needed(monkeypatch):
    solved = _spy_solved_lengths(monkeypatch)
    thirds, perturbed = cantor_thirds(), _thirds_perturbed(1e-3)
    report = shared_attractor(thirds, perturbed, EPS)
    assert any(l is None for _, l in report.spectrum_matches)
    # the perturbed system's sources find no match among the thirds' targets
    assert solved[id(thirds)] == Counter(range(1, 9))
    # every source of the thirds matches a perturbed one of its own length
    assert solved[id(perturbed)] == Counter(range(1, 5))


# ---------------------------------------------------------------------------
# extending a solved spectrum


EXTENDED = {
    "thirds": cantor_thirds,
    "julia-6": lambda: sqrt_julia(-6.0),
    "julia-complex-square": lambda: iterate_system(sqrt_julia(-6.0 + 0.5j), 2),
    "g0.12-square": lambda: iterate_system(_g_b(0.12), 2),
}


@pytest.mark.parametrize("make", EXTENDED.values(), ids=EXTENDED.keys())
@pytest.mark.parametrize("start, stop", [(1, 4), (2, 6), (4, 6), (0, 5)])
def test_an_extended_spectrum_equals_one_pass(monkeypatch, make, start, stop):
    system = make()
    base = spectrum(system, start)
    lengths = []
    levels = holoifs.dynamics._levels

    def spy(system, max_len, min_len=1):
        lengths.append((min_len, max_len))
        return levels(system, max_len, min_len)

    monkeypatch.setattr(holoifs.dynamics, "_levels", spy)
    extended = extend_spectrum(system, base, stop)
    assert lengths == [(start + 1, stop)]  # only the new lengths are solved
    monkeypatch.undo()
    whole = spectrum(system, stop)
    # the table and the rows derived from it, and again cut back to start
    for mine, one_pass in ((extended, whole), (extended.truncated(start), base)):
        assert mine.words == one_pass.words
        assert mine.points.tobytes() == one_pass.points.tobytes()
        assert mine.lambdas.tobytes() == one_pass.lambdas.tobytes()
        for array, want in zip(mine.table, one_pass.table, strict=True):
            assert (array.dtype, array.shape) == (want.dtype, want.shape)
            assert array.tobytes() == want.tobytes()
    assert extended.max_word_length == whole.max_word_length == stop
    assert extend_spectrum(system, extended, stop - 1) is extended
