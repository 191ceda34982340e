"""Map algebra: evaluation, derivatives, inversion, word composition."""

import numpy as np
import pytest

from holoifs.errors import DomainError, NotInImage
from holoifs.maps import (
    Affine,
    Composite,
    Disk,
    Exact,
    IfsSystem,
    SqrtBranch,
    Word,
    apply_rows,
    compose_maps,
    compose_word,
    factor_table,
)
from holoifs.systems import cantor_thirds, cantor_thirds_reflected, sqrt_julia

RNG = np.random.default_rng(20260826)


def _random_points(disk, n):
    r = disk.radius * np.sqrt(RNG.uniform(0, 1, n))
    t = RNG.uniform(0, 2 * np.pi, n)
    return disk.center + r * np.exp(1j * t)


def _naive_word_eval(system, indices, z):
    """Oracle: evaluate a word by folding the maps one at a time."""
    for i in reversed(indices):
        z = system.maps[i](z)
    return z


def test_affine_eval_deriv_invert():
    f = Affine(1 / 3, 2 / 3)
    assert f(0.0) == pytest.approx(2 / 3)
    assert f.deriv(1.0 + 1.0j) == pytest.approx(1 / 3)
    assert f.inverse()(f(0.25 + 0.5j)) == pytest.approx(0.25 + 0.5j, abs=1e-14)


def test_sqrt_branch_matches_quadratic_inverse():
    g = SqrtBranch(-6.0, +1)
    assert g(3.0) == pytest.approx(3.0)
    assert g.deriv(3.0) == pytest.approx(1 / 6)
    assert g.inverse()(3.0) == pytest.approx(3.0)
    minus = SqrtBranch(-6.0, -1)
    assert minus(-2.0 + 0j) == pytest.approx(-2.0)
    with pytest.raises(NotInImage):
        g.inverse()(-1.0 + 0.0j)


def test_composite_order_is_outermost_first():
    g1 = Affine(1 / 3, 0.0)
    g2 = Affine(1 / 3, 2 / 3)
    comp = Composite((g1, g2))
    assert comp(0.0) == pytest.approx(2 / 9)


@pytest.mark.parametrize(
    "m,disk",
    [
        (Affine(0.4 - 0.1j, 0.2j), Disk(0.5, 2.0)),
        (SqrtBranch(-6.0, +1), Disk(0.0, 4.0)),
        (SqrtBranch(-6.0, -1), Disk(1.0 + 0.5j, 3.0)),
        (Composite((Affine(0.5, 0.1), SqrtBranch(-6.0, +1))), Disk(0.0, 4.0)),
        (SqrtBranch(-6.0, +1).inverse(), Disk(2.5, 0.5)),
        (Affine(0.4, 0.3).inverse(), Disk(0.3, 0.05)),
    ],
)
def test_roundtrip_invert_after_eval(m, disk):
    pts = _random_points(disk, 100)
    for z in pts:
        y = m(z)
        assert abs(m.inverse()(y) - z) <= 1e-10 * max(1.0, abs(z))


@pytest.mark.parametrize(
    "m",
    [
        Affine(0.3 + 0.2j, -0.1),
        SqrtBranch(-6.0, +1),
        Composite((Affine(0.5, 0.0), SqrtBranch(-6.0, -1), Affine(0.25, 1.0))),
        SqrtBranch(-6.0, +1).inverse(),
    ],
)
def test_chain_rule_against_finite_differences(m):
    pts = _random_points(Disk(2.0 + 0.3j, 0.7), 50)
    h = 1e-6
    for z in pts:
        fd = (m(z + h) - m(z - h)) / (2 * h)
        assert abs(m.deriv(z) - fd) <= 1e-5 * max(1.0, abs(fd))


def test_compose_word_simplifies_affine_words():
    thirds = cantor_thirds()
    gw = compose_word(thirds, Word((0, 1), 2))
    assert isinstance(gw, Affine)
    assert gw.alpha == pytest.approx(1 / 9, abs=1e-14)
    assert gw.b == pytest.approx(2 / 9, abs=1e-14)

    reflected = cantor_thirds_reflected()
    gw = compose_word(reflected, Word((1, 1), 2))
    assert isinstance(gw, Affine)
    assert gw.alpha == pytest.approx(1 / 9, abs=1e-14)
    assert gw.b == pytest.approx(2 / 3, abs=1e-14)


def test_compose_word_against_naive_fold_oracle():
    systems = [cantor_thirds(), cantor_thirds_reflected(), sqrt_julia(-6.0)]
    for system in systems:
        m = len(system.maps)
        pts = _random_points(Disk(system.domain.center, system.domain.radius / 4), 20)
        for _ in range(30):
            k = int(RNG.integers(0, 7))
            indices = tuple(int(i) for i in RNG.integers(0, m, k))
            gw = compose_word(system, Word(indices, m))
            for z in pts:
                assert abs(gw(z) - _naive_word_eval(system, indices, z)) <= 1e-12


def test_empty_word_is_identity():
    thirds = cantor_thirds()
    ident = compose_word(thirds, Word((), 2))
    assert isinstance(ident, Affine)
    assert ident.alpha == 1 and ident.b == 0


def test_compose_word_rejects_alphabet_mismatch():
    thirds = cantor_thirds()
    with pytest.raises(IndexError):
        compose_word(thirds, Word((0, 1, 2), 3))


def test_word_validation_and_concat():
    with pytest.raises(IndexError):
        Word((0, 2), 2)
    w = Word((0, 1), 2)
    assert len(w + w) == 4
    assert (w * 3).indices == (0, 1) * 3
    assert (w * 3).starts_with(w)


def test_affine_simplification_exactness():
    # chain of 40 random affine maps vs naive fold at 1e-14
    maps = [Affine(0.8 * np.exp(1j * RNG.uniform(0, 2 * np.pi)), RNG.normal() * 0.1) for _ in range(40)]
    merged = compose_maps(maps)
    assert isinstance(merged, Affine)
    for z in _random_points(Disk(0.0, 1.0), 25):
        naive = z
        for f in reversed(maps):
            naive = f(naive)
        assert abs(merged(z) - naive) <= 1e-13 * max(1.0, abs(naive))


def test_inverse_map_closed_forms():
    f = Affine(1 / 3, 2 / 3)
    finv = f.inverse()
    assert isinstance(finv, Affine)
    z = 0.1 + 0.2j
    assert finv(f(z)) == pytest.approx(z, abs=1e-15)
    assert finv.deriv(f(z)) == pytest.approx(3.0)
    assert finv.inverse()(z) == pytest.approx(f(z))

    g = SqrtBranch(-6.0, +1)
    assert g.inverse().inverse() == g

    comp = Composite((Affine(0.5, 0.1), SqrtBranch(-6.0, +1)))
    cinv = comp.inverse()
    z = 2.0 + 0.1j
    assert cinv(comp(z)) == pytest.approx(z, abs=1e-12)


def test_system_construction_rejects_non_contraction():
    with pytest.raises(DomainError):
        IfsSystem((Affine(1.0, 0.5),), Disk(0.0, 1.0))
    # branch cut through the domain disk is refused
    with pytest.raises(DomainError):
        IfsSystem((SqrtBranch(-6.0, +1), SqrtBranch(-6.0, -1)), Disk(0.0, 7.0))


def test_system_construction_rejects_a_cut_inside_a_composite():
    # the cut of the square root lies far from the domain disk B(10, 1), but
    # the affine factor inside it carries the disk across the cut, so g jumps
    g = Composite((Affine(0.1, 10), SqrtBranch(0, 1), Affine(1, -10.5)))
    assert abs(g(10.2 + 1e-9j) - g(10.2 - 1e-9j)) > 0.1
    with pytest.raises(DomainError, match="^map 0: square-root branch cut meets the domain disk$"):
        IfsSystem((g, Affine(0.05, 9.5)), Disk(10, 1))


def test_system_construction_rejects_vanishing_derivative():
    # constant maps, composites holding one, and y**2 + c centred at 0
    # sit inside the domain but are not injective at its centre
    for m, disk in [
        (Affine(0, 0.1), Disk(0.0, 1.0)),
        (compose_maps((Affine(0.1, 0), SqrtBranch(-6.0, +1), Affine(0, 0.5))), Disk(0.0, 1.0)),
        (SqrtBranch(0.0, +1).inverse(), Disk(0.0, 0.5)),
    ]:
        with pytest.raises(DomainError, match="derivative vanishes"):
            IfsSystem((m,), disk)


def test_system_boundary_margin_positive():
    j6 = sqrt_julia(-6.0)
    boundary = j6.domain.boundary(256)
    for g in j6.maps:
        image = g(boundary)
        margin = j6.domain.radius - np.max(np.abs(image - j6.domain.center))
        assert margin > 1e-9


def test_image_enclosure_contains_sampled_images():
    cases = [
        (Affine(0.4 - 0.2j, 0.3), Disk(0.5, 2.0)),
        (SqrtBranch(-6.0, +1), Disk(0.0, 4.0)),
        (Composite((SqrtBranch(-6.0, -1), Affine(0.5, 1.0))), Disk(0.0, 4.0)),
        (SqrtBranch(-6.0, +1).inverse(), Disk(2.5, 0.7)),
    ]
    for m, disk in cases:
        centers, radii = m.enclosure_arrays(np.array([disk.center]), np.array([disk.radius]))
        pts = np.concatenate([_random_points(disk, 300), disk.boundary(128)])
        images = np.array([m(z) for z in pts])
        assert np.max(np.abs(images - centers[0])) <= radii[0] + 1e-12


def test_enclosure_rejects_disk_touching_cut():
    g = SqrtBranch(-6.0, +1)
    with pytest.raises(DomainError, match="^disk meets a square-root branch cut$"):
        g.enclosure_arrays(np.array([0.0, -6.0 + 0.1j]), np.array([1.0, 1.0]))


def _row_chain(factors, row, z, deriv):
    """Oracle: one row's chain of calls, innermost first, and its exception type."""
    total = (np.ones_like(z) if isinstance(z, np.ndarray) else 1.0 + 0.0j) if deriv else None
    for k in row[::-1]:
        if k < 0:
            continue
        f = factors[k]
        try:
            d = f.deriv(z) if deriv else None
        except Exception as exc:
            return z, total, type(exc)
        try:
            z = f(z)
        except Exception as exc:
            return z, total, type(exc)
        if deriv:
            total = total * d
    return z, total, None


@pytest.mark.parametrize("exact", [False, True], ids=["plain", "exact"])
@pytest.mark.parametrize("deriv, bound_derivs", [(False, False), (True, False), (False, True)],
                         ids=["values", "derivatives", "bound-derivs"])
@pytest.mark.parametrize("n_rows, n_factors", [(5, 12), (40, 4)], ids=["few-rows", "many-rows"])
def test_apply_rows_equals_each_rows_own_chain(n_rows, n_factors, deriv, bound_derivs, exact):
    # with deriv off, a factor may be any row-wise callable: here the maps' bound derivs
    rng = np.random.default_rng(n_rows * 100 + n_factors)
    branch = SqrtBranch(complex(*rng.uniform(-1, 1, 2)), 1)
    maps = [Affine(complex(*rng.uniform(-1, 1, 2)), complex(*rng.uniform(-1, 1, 2))),
            SqrtBranch(complex(*rng.uniform(-1, 1, 2)), -1),
            branch.inverse()]  # raises NotInImage on the rows outside its branch's half-plane
    maps += [Affine(complex(*rng.uniform(-1, 1, 2)), complex(*rng.uniform(-1, 1, 2)))
             for _ in range(n_factors - len(maps))]
    factors = [g.deriv for g in maps] if bound_derivs else maps
    table = rng.integers(-1, n_factors, size=(n_rows, 3))  # -1 pads
    table[::2, -1] = 2  # every other row meets the square-root inverse first
    z = rng.uniform(-2, 2, n_rows) + 1j * rng.uniform(-2, 2, n_rows)
    if exact:
        z = z.view(Exact)
    values, derivs, errors = apply_rows(factors, table, z, deriv)
    assert (derivs is None) is not deriv
    raised = set()
    for i, row in enumerate(table):
        want, want_d, exc = _row_chain(factors, row, z[i:i + 1], deriv)
        if exc is not None:
            raised.add(exc)
            assert type(errors.get(i)) is exc
            continue
        assert i not in errors
        assert values[i:i + 1].tobytes() == want.tobytes()
        if deriv:
            assert derivs[i:i + 1].tobytes() == want_d.tobytes()
        if exact:  # a row of the exact kernel has the bits of its scalar chain
            scalar, scalar_d, _ = _row_chain(factors, row, complex(z[i]), deriv)
            assert values[i:i + 1].tobytes() == np.array([scalar], dtype=complex).tobytes()
            if deriv:
                assert derivs[i:i + 1].tobytes() == np.array([scalar_d], dtype=complex).tobytes()
    # the square-root inverse raises on some rows; the derivatives never raise here
    assert raised == (set() if bound_derivs else {NotInImage})


@pytest.mark.parametrize("exact", [False, True], ids=["plain", "exact"])
@pytest.mark.parametrize("split", [1, 2, 3])
def test_apply_rows_resumed_from_initial_derivative_rows_equals_one_full_chain_call(exact, split):
    # the inner columns' values and derivatives, passed as z and d0 to a call on
    # the outer columns, give the bits and the exceptions of one call on all
    rng = np.random.default_rng(20261020 + split)
    branch = SqrtBranch(complex(*rng.uniform(-1, 1, 2)), 1)
    maps = [Affine(complex(*rng.uniform(-1, 1, 2)), complex(*rng.uniform(-1, 1, 2))),
            SqrtBranch(complex(*rng.uniform(-1, 1, 2)), -1),
            branch.inverse(),  # raises NotInImage on the rows outside its branch's half-plane
            Affine(complex(*rng.uniform(-1, 1, 2)), complex(*rng.uniform(-1, 1, 2)))]
    table = rng.integers(-1, len(maps), size=(60, 4))
    z = rng.uniform(-2, 2, 60) + 1j * rng.uniform(-2, 2, 60)
    if exact:
        z = z.view(Exact)
    values, derivs, errors = apply_rows(maps, table, z, deriv=True)
    inner_values, inner_derivs, inner_errors = apply_rows(maps, table[:, split:], z, deriv=True)
    outer = table[:, :split].copy()
    outer[list(inner_errors)] = -1  # a row that failed inside is not carried on
    got, got_derivs, outer_errors = apply_rows(maps, outer, inner_values, deriv=True,
                                               d0=inner_derivs)
    assert inner_errors.keys().isdisjoint(outer_errors)
    resumed_errors = {**inner_errors, **outer_errors}
    assert {k: type(e) for k, e in resumed_errors.items()} == {k: type(e) for k, e in errors.items()}
    assert NotInImage in {type(e) for e in errors.values()}
    ok = [k for k in range(len(z)) if k not in errors]
    assert got[ok].tobytes() == values[ok].tobytes()
    assert got_derivs[ok].tobytes() == derivs[ok].tobytes()
    # by default the derivatives start from 1
    ones = apply_rows(maps, table, z, deriv=True, d0=np.ones_like(z))
    assert ones[1][ok].tobytes() == derivs[ok].tobytes()


def _unpacked_factor_table(maps):
    """Each map's chain unpacked on its own, the factors numbered in order of first use."""
    chains = [m.factors if isinstance(m, Composite) else (m,) for m in maps]
    factors = list({id(f): f for chain in chains for f in chain}.values())
    number = {id(f): k for k, f in enumerate(factors)}
    width = max(map(len, chains), default=0)
    return factors, [[-1] * (width - len(c)) + [number[id(f)] for f in c] for c in chains]


def test_factor_table_shares_the_chain_of_one_map_object():
    # the rows of one map object share one unpacked chain, and the table is
    # that of unpacking every row
    julia = sqrt_julia(-6.0)
    g, h = compose_word(julia, Word((0, 1, 1), 2)), compose_word(julia, Word((1,), 2))
    affine = Affine(0.5, 0.25)
    for maps in ([g, h, g, affine, g, h], [affine, affine], [h], []):
        factors, table = factor_table(maps)
        want_factors, want_table = _unpacked_factor_table(maps)
        assert [id(f) for f in factors] == [id(f) for f in want_factors]
        assert table.tolist() == want_table
        assert table.shape == (len(maps), max((len(r) for r in want_table), default=0))
