import random
from fractions import Fraction

import numpy as np
import pytest

from kleinwiman import cli, fatideals, linalg
from kleinwiman.errors import FatIdealError, UsageError
from kleinwiman.fatideals import (GradedPiece, PointSet, alpha_symbolic,
                                  asymptotic_resurgence_bounds, certified_alpha,
                                  containment_inequality_certificate,
                                  containment_report, jacobian_minor_generators,
                                  least_degree, line_product,
                                  minimal_generators, point_conditions_matrix,
                                  power_piece, resurgence_certificate,
                                  symbolic_piece, vanishes_to_order)
from kleinwiman.fields import PrimeField, RationalField, preset_field
from kleinwiman.groups import act_on_poly
from kleinwiman.poly import (Poly, chart_for_point, local_expand, local_monomials,
                             monomials_of_degree, normalize_point, weighted_basis)


def test_symbolic_piece_dims_klein(klein_points_modp):
    assert symbolic_piece(klein_points_modp, 1, 8).dim == 3
    assert symbolic_piece(klein_points_modp, 0, 6).dim == 28  # full S_6
    assert symbolic_piece(klein_points_modp, 1, 7).dim == 0


def test_alpha_values(klein_points_modp, char7_points):
    assert alpha_symbolic(klein_points_modp, 1) == 8
    assert alpha_symbolic(char7_points, 1) == 8
    assert alpha_symbolic(char7_points, 2) == 16
    with pytest.raises(FatIdealError):
        alpha_symbolic(char7_points, 3, cap=10)


def _five_points(field, last):
    """(1:0:0), (0:1:0), (0:0:1), (1:1:1) and `last`: five points, no three
    on a line, so alpha of the m-th symbolic power is 2m."""
    pts = [normalize_point(field, p)
           for p in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), last)]
    return PointSet("five-points", field, pts,
                    [chart_for_point(field, p) for p in pts])


@pytest.fixture(scope="module")
def five_points_zeta7(klein_exact):
    z = klein_exact.gen
    return _five_points(klein_exact, (klein_exact.one, z, klein_exact.mul(z, z)))


@pytest.fixture(scope="module")
def six_points_zeta7(klein_exact):
    """Six points of P^2 over Q(zeta7), in all three charts."""
    f = klein_exact
    z = f.gen
    z2, z3 = f.mul(z, z), f.pow(z, 3)
    pts = [normalize_point(f, p) for p in (
        (f.one, f.zero, f.zero), (z, f.one, f.zero), (z3, f.coerce(2), f.zero),
        (f.zero, f.zero, f.coerce(3)), (f.one, z, z2),
        (f.add(z, f.one), z3, f.coerce(5)))]
    return PointSet("six-points", f, pts, [chart_for_point(f, p) for p in pts])


@pytest.mark.parametrize("points", ["klein_points_modp", "six_points_zeta7"])
@pytest.mark.parametrize("m, d", [(0, 3), (1, 0), (1, 4), (3, 5)])
def test_point_conditions_match_local_expand(points, m, d, request):
    """Each point's block of the condition matrix, against the expansion of
    every column monomial by local_expand, read in local_monomials order."""
    ps = request.getfixturevalue(points)
    field = ps.field
    mat, cols = point_conditions_matrix(ps, m, d)
    assert cols == monomials_of_degree(d)
    monos = local_monomials(m)
    if isinstance(mat, np.ndarray):
        assert mat.dtype == np.int64
        assert mat.shape == (len(ps) * len(monos), len(cols))
    else:
        assert len(mat) == len(ps) * len(monos)
        assert all(len(row) == len(cols) for row in mat)
    for p, (pt, chart) in enumerate(zip(ps.points, ps.charts)):
        block = mat[p * len(monos):(p + 1) * len(monos)]
        for c, e in enumerate(cols):
            t = local_expand(Poly(field, {e: field.one}), pt, m, chart=chart)
            assert [row[c] for row in block] == [t.coeff((i, j)) for i, j in monos]


@pytest.fixture(scope="module")
def five_points_rational():
    return _five_points(RationalField(), (1, 2, 4))


def _alpha_by_scan(pointset, m):
    d = 1
    while symbolic_piece(pointset, m, d).dim == 0:
        d += 1
    return d


@pytest.mark.parametrize("points, m", [
    ("klein_points_modp", 1), ("klein_points_modp", 2),
    ("char7_points", 1), ("char7_points", 2), ("char7_points", 3),
    ("five_points_zeta7", 1), ("five_points_zeta7", 2), ("five_points_zeta7", 3),
    ("five_points_rational", 1), ("five_points_rational", 2),
    ("five_points_rational", 3),
    # a non-coordinate unit line; two conic chains; no coordinate line
    # misses all six points
    ("wiman_points_modp", 1), ("char7_points", 4),
    ("six_points_zeta7", 1), ("six_points_zeta7", 2)])
def test_alpha_bisection_matches_scan(points, m, request):
    """alpha from the chains of the unit form is the least degree of a
    nonzero piece, found by scanning the degrees."""
    ps = request.getfixturevalue(points)
    cert = certified_alpha(ps, m)
    alpha = cert["alpha"]
    assert alpha == _alpha_by_scan(ps, m)
    if ps.preset == "five-points":
        assert alpha == 2 * m
    below = cert["empty_below"]
    assert below["degree"] == alpha - 1
    assert below["rank"] == below["columns"] == len(
        symbolic_piece(ps, 0, alpha - 1).monomials)
    # the chains read emptiness from their prefixes; rank the monomial
    # conditions independently: full column rank below alpha, less at alpha
    mat, cols = point_conditions_matrix(ps, m, alpha - 1)
    assert linalg.rank(mat, len(cols), ps.field) == len(cols)
    mat, cols = point_conditions_matrix(ps, m, alpha)
    assert linalg.rank(mat, len(cols), ps.field) < len(cols)
    assert cert["witness"]["degree"] == alpha
    assert vanishes_to_order(cert["witness"]["form"], ps, m)


def test_each_piece_built_once(char7_config, char7_gens, monkeypatch):
    """No (m, d) piece is built twice on one point set: not by the alpha
    certificate, whose chains build no monomial conditions, not by the
    containment loop, which starts from the certificate's stored
    degree-alpha piece, and not by `fatideal contain` without generators or
    `fatideal resurgence`, whose generators read the (1, alpha) piece that
    the alpha(I) chains stored.  Each run starts from a fresh point set, as
    each CLI command does."""
    built = []
    conditions = fatideals.point_conditions_matrix

    def counting(pointset, m, d):
        built.append((m, d))
        return conditions(pointset, m, d)

    monkeypatch.setattr(fatideals, "point_conditions_matrix", counting)
    assert certified_alpha(PointSet.from_config(char7_config), 6)["alpha"] == 42
    assert (6, 42) not in built and len(built) == len(set(built))
    built.clear()
    rep = containment_report(PointSet.from_config(char7_config), 2, 3, 20,
                             gens=char7_gens)
    assert rep["witness_degree"] == 16
    assert (2, 16) not in built and len(built) == len(set(built))
    for argv, piece, stored in (
            (["contain", "--m", "2", "--r", "3", "--dmax", "20"], (1, 9), (2, 16)),
            (["resurgence"], (1, 9), (1, 8))):
        built.clear()
        code, _ = cli.dispatch(["fatideal"] + argv + ["--preset", "klein-char7"])
        assert code == 0
        assert piece in built and stored not in built, argv
        assert len(built) == len(set(built)), argv


def test_alpha_cap_below_alpha(char7_points):
    """alpha(I^(2)) = 16: a cap under it is a failure, a cap at it is not."""
    with pytest.raises(FatIdealError):
        alpha_symbolic(char7_points, 2, cap=15)
    assert alpha_symbolic(char7_points, 2, cap=16) == 16


def test_minimal_generators(klein_gens_modp, char7_gens, wiman_gens_modp):
    assert {d: len(v) for d, v in klein_gens_modp.by_degree.items()} == {8: 3}
    assert klein_gens_modp.alpha == klein_gens_modp.omega == 8
    assert {d: len(v) for d, v in char7_gens.by_degree.items()} == {8: 3, 9: 1}
    assert char7_gens.alpha == 8 and char7_gens.omega == 9
    assert {d: len(v) for d, v in wiman_gens_modp.by_degree.items()} == {16: 3}


@pytest.mark.parametrize("points, depth", [
    ("klein_points_modp", 13), ("char7_points", 13), ("klein_points_exact", 9)])
def test_generators_complete_the_products(request, points, depth):
    """In each degree d the new generators and S_1 I_(d-1), its forms times
    x, y and z multiplied here as Polys, span I_d, and there are
    dim I_d - dim S_1 I_(d-1) of them."""
    ps = request.getfixturevalue(points)
    gens = minimal_generators(ps, depth)
    field = ps.field
    variables = [Poly.variable(field, v) for v in range(3)]
    below = None
    for d in range(gens.alpha, depth + 1):
        piece = symbolic_piece(ps, 1, d)
        cols = piece.monomials
        products = [] if below is None else [
            (below.basis_poly(i) * x).coeff_vector(cols)
            for i in range(below.dim) for x in variables]
        new = [g.coeff_vector(cols) for g in gens.by_degree.get(d, [])]
        assert len(new) == piece.dim - GradedPiece(d, field, cols, products).dim
        assert all(piece.contains_vector(v) for v in products + new)
        assert GradedPiece(d, field, cols, products + new).dim == piece.dim
        below = piece


def _dropping_a_row(degree):
    """symbolic_piece, less the first row of I_degree."""
    real = fatideals.symbolic_piece

    def piece(pointset, m, d):
        out = real(pointset, m, d)
        if (m, d) != (1, degree):
            return out
        return GradedPiece(d, out.field, out.monomials, out.rows[1:])
    return piece


@pytest.mark.parametrize("points, degree", [
    ("klein_points_modp", 9), ("char7_points", 10), ("klein_points_exact", 9)])
def test_generators_reject_a_piece_without_the_products(monkeypatch, request,
                                                        points, degree):
    """In a degree past the last generator degree (Klein has its three in
    degree 8, char 7 its last in degree 9) I_d is S_1 I_(d-1), so a piece
    short of a row misses a pivot of the products: a FatIdealError."""
    ps = request.getfixturevalue(points)
    monkeypatch.setattr(fatideals, "symbolic_piece", _dropping_a_row(degree))
    with pytest.raises(FatIdealError, match=r"S_1 I_\(d-1\) is not inside I_d"):
        minimal_generators(ps, degree + 1)


def test_generators_command_exits_1_on_a_short_piece(monkeypatch, capsys):
    monkeypatch.setattr(fatideals, "symbolic_piece", _dropping_a_row(10))
    code, report = cli.dispatch(["fatideal", "generators", "--preset",
                                 "klein-char7", "--depth", "13"])
    assert (code, report) == (1, None)
    assert "is not inside I_d at d = 10" in capsys.readouterr().err


def test_jacobian_minor_examples(klein_modp):
    x, y = Poly.variable(klein_modp, 0), Poly.variable(klein_modp, 1)
    minors = jacobian_minor_generators(x, y)
    assert [m.text() for m in minors] == ["1", "0", "0"]


def test_minors_span_ideal_piece(klein_points_modp, klein_inv_modp):
    minors = jacobian_minor_generators(klein_inv_modp.phi[4],
                                       klein_inv_modp.phi[6])
    sp = symbolic_piece(klein_points_modp, 1, 8)
    assert sp.dim == 3
    assert all(sp.contains_poly(m) for m in minors)
    piece_from_minors = GradedPiece(
        8, klein_modp_field(klein_points_modp),
        sp.monomials, [m.coeff_vector(sp.monomials) for m in minors])
    assert piece_from_minors.dim == 3


def klein_modp_field(ps):
    return ps.field


def test_minor_span_group_stable(klein_points_modp, klein_inv_modp):
    """Applying a group generator to a minor stays in the degree-8 span."""
    minors = jacobian_minor_generators(klein_inv_modp.phi[4],
                                       klein_inv_modp.phi[6])
    sp = symbolic_piece(klein_points_modp, 1, 8)
    from kleinwiman.configs import build_klein
    for g in build_klein(klein_points_modp.field).gens:
        for m in minors:
            assert sp.contains_poly(act_on_poly(g, m))


def test_wiman_minors(wiman_points_modp, wiman_inv_modp):
    minors = jacobian_minor_generators(wiman_inv_modp.phi[6],
                                       wiman_inv_modp.phi[12])
    sp = symbolic_piece(wiman_points_modp, 1, 16)
    assert sp.dim == 3
    assert all(sp.contains_poly(m) for m in minors)


def test_power_piece_dims(klein_points_modp, klein_gens_modp):
    assert power_piece(klein_gens_modp, 2, 16).dim == 6
    # below r * alpha(I) no product of r generators fits
    assert power_piece(klein_gens_modp, 2, 15).dim == 0
    # the r = 1 piece is the ideal itself, degree by degree
    for d in (8, 9, 10):
        assert power_piece(klein_gens_modp, 1, d).dim \
            == symbolic_piece(klein_points_modp, 1, d).dim
    assert power_piece(klein_gens_modp, 2, 21).dim == 105


def test_power_piece_precondition(klein_gens_modp):
    with pytest.raises(FatIdealError):
        power_piece(klein_gens_modp, 2, 40)


def test_membership_basics(klein_points_modp, klein_inv_modp, klein_gens_modp):
    phi21 = klein_inv_modp.phi[21]
    sp = symbolic_piece(klein_points_modp, 3, 21)
    assert sp.contains_poly(phi21)
    assert vanishes_to_order(phi21, klein_points_modp, 3)
    assert not power_piece(klein_gens_modp, 2, 21).contains_poly(phi21)
    zero = Poly.zero(klein_points_modp.field)
    assert sp.contains_poly(zero)
    with pytest.raises(FatIdealError):
        sp.contains_poly(klein_inv_modp.phi[4])


def test_monotonicity_properties(char7_points, char7_gens):
    """Symbolic pieces decrease in m; ordinary powers sit inside symbolic."""
    for d in (16, 18, 21):
        sm1 = symbolic_piece(char7_points, 1, d)
        sm2 = symbolic_piece(char7_points, 2, d)
        sm3 = symbolic_piece(char7_points, 3, d)
        for f in [sm3.basis_poly(i) for i in range(sm3.dim)]:
            assert sm2.contains_poly(f)
        for f in [sm2.basis_poly(i) for i in range(sm2.dim)]:
            assert sm1.contains_poly(f)
    for (r, d) in ((2, 16), (2, 18), (2, 21)):
        pw = power_piece(char7_gens, r, d)
        sm = symbolic_piece(char7_points, r, d)
        for f in [pw.basis_poly(i) for i in range(pw.dim)]:
            assert sm.contains_poly(f)


def test_char7_line_product_membership(char7_config, char7_points, char7_gens):
    F = line_product(char7_config)
    assert F.degree() == 21
    assert vanishes_to_order(F, char7_points, 3)
    assert symbolic_piece(char7_points, 3, 21).contains_poly(F)
    assert not power_piece(char7_gens, 2, 21).contains_poly(F)


def test_exact_line_product_vanishes_to_order_three(klein_config_exact,
                                                   klein_points_exact):
    """Over Q(zeta7) the Klein line product vanishes to order 3 at every
    point and not to order 4, as the triple points have order 3: the exact
    check's local expansions find a nonzero term."""
    F = line_product(klein_config_exact)
    assert vanishes_to_order(F, klein_points_exact, 3)
    assert not vanishes_to_order(F, klein_points_exact, 4)


def test_char7_containment_reports(char7_points, char7_gens):
    rep23 = containment_report(char7_points, 2, 3, 20, gens=char7_gens)
    assert not rep23["contained_degreewise"]
    assert rep23["witness_degree"] == 16
    rep32 = containment_report(char7_points, 3, 2, 30, gens=char7_gens)
    assert not rep32["contained_degreewise"]
    assert rep32["witness_degree"] == 21
    assert "degree_cap_caveat" in rep32


def test_inequality_certificates():
    # the three recorded regularity patterns all close at their r threshold
    assert containment_inequality_certificate(Fraction(58, 9), (8, 6), 2)["holds"]
    assert containment_inequality_certificate(Fraction(27, 2), (16, 14), 2)["holds"]
    assert containment_inequality_certificate(Fraction(25, 4), (9, 6), 8)["holds"]
    assert not containment_inequality_certificate(Fraction(5, 1), (8, 6), 2)["holds"]


def test_resurgence_report_char7(char7_config, char7_points):
    code, rep = resurgence_certificate(char7_config, char7_points)
    assert code == 0
    assert rep["resurgence"] == Fraction(3, 2)
    assert rep["alpha_hat"] == rep["alpha_hat_lower"] == Fraction(25, 4)
    assert rep["inequality_certificate"] == containment_inequality_certificate(
        Fraction(25, 4), (9, 6), 8)
    assert rep["inequality_certificate"]["holds"]
    assert "small_r_note" in rep


def test_asymptotic_bounds():
    b = asymptotic_resurgence_bounds(8, 8, Fraction(661, 102), Fraction(13, 2))
    assert b["lower"] == Fraction(16, 13)
    assert b["upper"] == Fraction(816, 661)
    bw = asymptotic_resurgence_bounds(16, 16, Fraction(27, 2), Fraction(27, 2))
    assert bw["lower"] == bw["upper"] == Fraction(32, 27)
    b7 = asymptotic_resurgence_bounds(8, 9, Fraction(25, 4), Fraction(25, 4))
    assert b7["lower"] == Fraction(32, 25) and b7["upper"] == Fraction(36, 25)


def test_exact_symbolic_piece_small(klein_points_exact):
    sp = symbolic_piece(klein_points_exact, 1, 8)
    assert sp.dim == 3


def test_exact_symbolic_piece_order_zero(klein_points_exact):
    """No conditions: the piece is all of S_6, as over F_p."""
    sp = symbolic_piece(klein_points_exact, 0, 6)
    assert sp.dim == len(sp.monomials) == 28


def test_certified_alpha_exact_klein(klein_points_exact):
    """The exact route over Q(zeta7): alpha(I) = 8, the degree-7 conditions
    have full column rank 36, and the witness re-checks."""
    cert = certified_alpha(klein_points_exact, 1)
    assert cert["alpha"] == 8
    assert cert["empty_below"] == {"degree": 7, "rank": 36, "columns": 36}
    witness = cert["witness"]
    assert witness["degree"] == 8 and witness["order"] == 1
    assert witness["form"].degree() == 8
    assert vanishes_to_order(witness["form"], klein_points_exact, 1)


def test_conditions_exact_vs_modp_dim(klein_points_exact, klein_points_modp):
    for (m, d) in ((1, 8), (1, 9), (2, 12)):
        assert symbolic_piece(klein_points_exact, m, d).dim \
            == symbolic_piece(klein_points_modp, m, d).dim


def _copy(pointset, lines=None):
    """A fresh copy of the point set, with its lines or the ones given:
    nothing built or kept yet."""
    return PointSet(pointset.preset, pointset.field, pointset.points,
                    pointset.charts,
                    pointset.lines if lines is None else lines)


def _without_reduction(pointset):
    """A fresh copy of the point set with no reduction: no chain runs on
    it, and every piece is a kernel of its exact conditions."""
    ps = _copy(pointset)
    ps.reduced = None
    return ps


def _same_piece(a, b):
    return (a.rows, a.pivots, a.monomials) == (b.rows, b.pivots, b.monomials)


def _rows(piece):
    rows = piece.rows
    return rows.tolist() if isinstance(rows, np.ndarray) else rows


# the exact Klein (3, 21) piece unsplit is 294 x 253 over Q(zeta7), about
# 1.5 s; the exact Wiman pieces unsplit are left out (6 s for (1, 16))
@pytest.mark.parametrize("config, m, d", [
    ("klein_config_exact", 1, 8), ("klein_config_exact", 2, 16),
    ("klein_config_exact", 3, 21), ("klein_config_modp", 2, 16),
    ("wiman_config_modp", 1, 16), ("wiman_config_modp", 2, 32),
    *(("char7_config", 1, d) for d in range(8, 14)),
    *(("char7_config", 2, d) for d in range(16, 21))])
def test_split_piece_matches_unsplit(config, m, d, request):
    """A piece split by the characters of the diagonal subgroup, at one
    point per orbit, has the RREF of the one kernel of every condition on
    every monomial, built on a copy with no diagonal subgroup."""
    split = PointSet.from_config(request.getfixturevalue(config))
    whole = _copy(split)
    assert len(split.representatives) < len(split)
    assert whole.representatives is whole and len(whole.characters(
        monomials_of_degree(d))) == 1
    a, b = symbolic_piece(split, m, d), symbolic_piece(whole, m, d)
    assert a.dim > 0
    assert (_rows(a), a.pivots, a.monomials) == (_rows(b), b.pivots, b.monomials)


def test_split_wiman_exact_piece_reduces_to_modp(wiman_points_exact,
                                                 wiman_points_modp):
    """The exact Wiman (1, 16) piece, from its four character blocks of 63
    rows, has dimension 3 and reduces entry by entry at 4951 to the piece
    over F_4951."""
    exact = symbolic_piece(wiman_points_exact, 1, 16)
    modp = symbolic_piece(wiman_points_modp, 1, 16)
    assert len(wiman_points_exact.representatives) == 63
    assert exact.dim == modp.dim == 3 and exact.pivots == modp.pivots
    field = wiman_points_exact.field
    assert [[field.reduce(c) for c in row] for row in exact.rows] \
        == modp.rows.tolist()


@pytest.mark.parametrize("config, order, orbits, characters", [
    ("klein_config_exact", 7, 7, 7), ("klein_config_modp", 7, 7, 7),
    ("wiman_config_exact", 4, 63, 4), ("wiman_config_modp", 4, 63, 4),
    ("char7_config", 4, 19, 4)])
def test_diagonal_orbits(config, order, orbits, characters, request):
    """Klein's 49 points form 7 free orbits of diag(zeta^4, zeta^2, zeta);
    Wiman's 201 form 63 orbits of the sign changes of determinant 1, whose
    points on the mirrors have nontrivial stabilizers, and klein-char7's 49
    form 19 orbits of the same sign changes.  Each orbit class is D-stable,
    not only the whole set.  Every character of D occurs on the monomials
    of degree 16."""
    cfg = request.getfixturevalue(config)
    ps = PointSet.from_config(cfg)
    field = ps.field
    group = ps.diagonal_elements(2)
    assert len(group) == order and group[0] == (field.one,) * 3
    reps = ps.representatives
    assert len(reps) == orbits and not reps.diagonal
    assert set(reps.points) <= set(ps.points)
    images = {normalize_point(field, tuple(map(field.mul, t, pt)))
              for pt in reps.points for t in group}
    assert images == set(ps.points)
    for cls in cfg.classes:
        assert {normalize_point(field, tuple(map(field.mul, t, pt)))
                for pt in cls.points for t in group} == set(cls.points)
    if cfg.preset == "klein":
        assert len(ps) == 49 and orbits * order == 49       # free orbits
    blocks = ps.characters(monomials_of_degree(16))
    assert len(blocks) == characters
    assert sorted(np.concatenate(blocks).tolist()) == list(range(153))


def _mutated(config, kind):
    """The point set with a generator outside its group as its diagonal
    subgroup (diag(1, zeta, 1) for Klein, diag(1, 1, 3) over F_7 for
    klein-char7), or with its first point dropped."""
    ps = PointSet.from_config(config)
    field = ps.field
    if kind == "outside":
        if config.preset == "klein":
            ps.diagonal = [(field.constant("zeta"), (0, 1, 0))]
        else:
            ps.diagonal = [(field.coerce(3), (0, 0, 1))]
        return ps
    return PointSet(ps.preset, field, ps.points[1:], ps.charts[1:], ps.lines,
                    ps.diagonal)


@pytest.mark.parametrize("config, kind", [
    ("klein_config_exact", "outside"), ("klein_config_exact", "dropped"),
    ("char7_config", "outside")], ids=["outside", "dropped", "char7-outside"])
def test_diagonal_subgroup_must_fix_the_set(config, kind, request, monkeypatch):
    """Mutations: an element outside the group, or a set with a point
    dropped, maps a point outside the set.  symbolic_piece raises a
    FatIdealError before any matrix is built, and the CLI exits 1 without
    building a condition matrix."""
    cfg = request.getfixturevalue(config)
    built = []
    for name in ("point_conditions_matrix", "chain_matrix"):
        monkeypatch.setattr(fatideals, name,
                            lambda *args, name=name: built.append(name))
    with pytest.raises(FatIdealError, match="image outside the set"):
        symbolic_piece(_mutated(cfg, kind), 1, 8)
    assert built == []
    monkeypatch.undo()
    conditions = fatideals.point_conditions_matrix
    monkeypatch.setattr(fatideals, "point_conditions_matrix",
                        lambda *args: built.append(args) or conditions(*args))
    mutated = _mutated(cfg, kind)
    monkeypatch.setattr(PointSet, "from_config",
                        classmethod(lambda cls, config: mutated))
    field = ["--field", "exact"] if cfg.preset == "klein" else []
    assert cli.dispatch(["fatideal", "generators", "--preset", cfg.preset, *field,
                         "--depth", "9"]) == (1, None)
    assert built == []


# (preset, m, alpha of the m-th symbolic power, degrees rebuilt on the exact
# route): the exact Wiman pieces of I^(2) cost about 1 s each near degree 30,
# so that route is compared on the low degrees and the last empty one
@pytest.mark.parametrize("preset,m,alpha,exact_degrees", [
    ("klein", 1, 8, range(1, 9)),
    ("klein", 2, 16, range(1, 17)),
    ("wiman", 1, 16, range(1, 16)),
    ("wiman", 2, 32, [*range(1, 11), 31]),
])
def test_partner_check_matches_exact_route(request, preset, m, alpha,
                                           exact_degrees):
    """The chains at the partner prime find every piece below alpha empty
    and the one at alpha nonzero, and the exact conditions agree: on a copy
    with no reduction the exact pieces are empty below alpha and nonzero at
    it."""
    pointset = request.getfixturevalue(f"{preset}_points_exact")
    assert pointset.reduced is not None
    assert pointset.reduced.field.p == pointset.field.partner_prime
    assert least_degree(pointset, m) == alpha
    exact = _without_reduction(pointset)
    for d in exact_degrees:
        assert (symbolic_piece(exact, m, d).dim > 0) == (d >= alpha), d


def test_empty_pieces_build_no_exact_conditions(klein_config_exact, monkeypatch):
    """The generators of the exact Klein ideal to degree 7, all of whose
    pieces are empty, build one chain at F_4733 and no conditions at all:
    the chain proves every piece below alpha = 8 empty."""
    fields = {"point_conditions_matrix": [], "chain_matrix": []}

    def recorder(name):
        built = getattr(fatideals, name)

        def recording(pointset, *args):
            fields[name].append(pointset.field.name)
            return built(pointset, *args)
        return recording

    for name in fields:
        monkeypatch.setattr(fatideals, name, recorder(name))
    gens = minimal_generators(PointSet.from_config(klein_config_exact), 7)
    assert gens.by_degree == {} and gens.complete_through == 7
    assert fields == {"point_conditions_matrix": [], "chain_matrix": ["F4733"]}


@pytest.mark.parametrize("points, m, alpha", [
    ("char7_points", 1, 8), ("char7_points", 2, 16), ("klein_points_modp", 1, 8),
    ("klein_points_modp", 2, 16)])
def test_least_degree_over_prime_field(points, m, alpha, request):
    """Over F_p least_degree is alpha, and it stores the (m, alpha) piece
    read from its chain, with nothing else built."""
    ps = _copy(request.getfixturevalue(points))
    assert ps.reduced is ps
    assert least_degree(ps, m) == alpha
    assert list(ps.pieces) == [(m, alpha)] and ps.pieces[(m, alpha)].dim > 0


@pytest.mark.parametrize("points, m, alpha", [
    ("klein_points_exact", 1, 8), ("klein_points_exact", 2, 16),
    ("wiman_points_exact", 1, 16), ("wiman_points_exact", 2, 32)])
def test_least_degree_over_extension(points, m, alpha, request):
    """Over Q(zeta7) and Q(sqrt5, omega) the chains at the partner prime
    give alpha itself for m = 1, 2, and build no exact piece."""
    ps = _copy(request.getfixturevalue(points))
    assert least_degree(ps, m) == alpha
    assert ps.pieces == {}


def test_least_degree_without_reduction(five_points_rational):
    """Q has no partner prime: the bound is m, read with no chain and no
    piece; certified_alpha walks up from it (see
    test_alpha_bisection_matches_scan)."""
    ps = _copy(five_points_rational)
    assert ps.reduced is None
    assert [least_degree(ps, m) for m in (1, 2, 3)] == [1, 2, 3]
    assert ps.pieces == {} and ps.least == {}


def test_generators_below_alpha(char7_points):
    """Through degree 5, below alpha(I) = 8, there is no generator, and the
    set is complete through 5."""
    gens = minimal_generators(char7_points, 5)
    assert gens.by_degree == {} and gens.complete_through == 5


def test_witness_recheck_can_fail(char7_config, char7_points, monkeypatch):
    """The witness re-check is not a formality.  The line product vanishes
    to order 3 at every point but not to order 4; and a chain whose form
    misses a point makes certified_alpha raise."""
    F = line_product(char7_config)
    assert vanishes_to_order(F, char7_points, 3)
    assert not vanishes_to_order(F, char7_points, 4)
    forms_of_chain = fatideals._chain_forms
    calls = []

    def mutated(rows, levels, g, field):
        forms, cols = forms_of_chain(rows, levels, g, field)
        bad = forms[:1].copy()
        bad[0, 0] = (bad[0, 0] + 1) % field.p      # + x^alpha
        calls.append(cols[0])
        return bad, cols

    monkeypatch.setattr(fatideals, "_chain_forms", mutated)
    with pytest.raises(FatIdealError, match="no form of degree 8"):
        certified_alpha(_copy(char7_points), 1)
    assert calls == [(8, 0, 0)]


def test_partner_check_without_image(klein_exact):
    """A coordinate with denominator 4733 has no image at the partner
    prime: the point set has no reduction, and every piece is the one the
    exact conditions give."""
    w = klein_exact.gen
    ps = _five_points(klein_exact,
                      (klein_exact.coerce(Fraction(1, 4733)), w, klein_exact.one))
    assert ps.reduced is None
    for m in (1, 2):
        for d in range(1, 2 * m + 1):
            piece = symbolic_piece(ps, m, d)
            mat, cols = point_conditions_matrix(ps, m, d)
            expected = GradedPiece(d, klein_exact, cols,
                                   linalg.kernel(mat, len(cols), klein_exact))
            assert _same_piece(piece, expected)
            assert piece.dim == (d == 2 * m)


@pytest.mark.parametrize("points, m", [
    ("char7_points", 1), ("char7_points", 2), ("char7_points", 3),
    ("char7_points", 6), ("klein_points_modp", 1), ("klein_points_modp", 2)])
def test_alpha_piece_from_chain(points, m, request):
    """The degree-alpha piece that certified_alpha stores, read from its
    chain's kernel, is the monomial piece: same RREF rows, pivots and
    monomials as symbolic_piece on a fresh copy of the point set."""
    ps = request.getfixturevalue(points)
    chained = PointSet(ps.preset, ps.field, ps.points, ps.charts)
    alpha = certified_alpha(chained, m)["alpha"]
    stored = chained.pieces[(m, alpha)]
    fresh = symbolic_piece(PointSet(ps.preset, ps.field, ps.points, ps.charts),
                           m, alpha)
    assert stored.dim > 0
    assert (stored.rows.tolist(), stored.pivots, stored.monomials) \
        == (fresh.rows.tolist(), fresh.pivots, fresh.monomials)


@pytest.mark.parametrize("points, text", [
    ("klein_points_modp", "z"), ("klein_points_exact", "z"),
    ("wiman_points_modp", "x + y + 3*z"), ("char7_points", "x^2 + y^2 + z^2")])
def test_unit_form(points, text, request):
    """The chosen unit form vanishes at no point: a line for Klein (over
    F_4733 and, through its reduction, over Q(zeta7)) and Wiman, the conic
    whose complement is the point set for klein-char7."""
    ps = request.getfixturevalue(points)
    chained = ps.reduced
    g = fatideals.unit_form(chained)
    assert g.text() == text and g.degree() == (2 if ps.preset == "klein-char7" else 1)
    assert g.field == chained.field
    assert all(not g.field.is_zero(g.evaluate(pt)) for pt in chained.points)
    exact = Poly(ps.field, {e: ps.field.coerce(c) for e, c in g.terms.items()})
    assert all(not ps.field.is_zero(exact.evaluate(pt)) for pt in ps.points)


@pytest.mark.parametrize("points, top", [("klein_points_modp", 5),
                                         ("char7_points", 7)])
def test_chain_entries_match_local_expand(points, top, request):
    """Each entry of chain_matrix is congruent mod p to the coefficient of
    the local expansion of its column mu g^k at its point, read in
    local_monomials order, with mixed per-point orders (0 and three
    positive ones, so several batches by order): the unit line z over
    F_4733, the conic over F_7.  Each level lists its monomials in
    monomials_of_degree order."""
    ps = request.getfixturevalue(points)
    field, p = ps.field, ps.field.p
    g = fatideals.unit_form(ps)
    orders = [(2, 0, 3, 1)[n % 4] for n in range(len(ps))]
    mat, levels = fatideals.chain_matrix(ps, g, orders, top)
    lead = max(g.terms)
    for s, mus in levels:
        assert mus.tolist() == [list(mu) for mu in monomials_of_degree(s)
                                if any(a < b for a, b in zip(mu, lead))]
    cols = [Poly(field, {tuple(mu): field.one}) * g ** ((top - s) // g.degree())
            for s, mus in levels for mu in mus.tolist()]
    assert mat.shape == (sum(m * (m + 1) // 2 for m in orders), len(cols))
    assert len(cols) == (top + 1) * (top + 2) // 2
    r = 0
    for pt, chart, m in zip(ps.points, ps.charts, orders):
        monos = local_monomials(m)
        block = (mat[r:r + len(monos)] % p).T.tolist()
        for col, entries in zip(cols, block):
            t = local_expand(col, pt, m, chart=chart)
            assert entries == [t.coeff(ij) for ij in monos]
        r += len(monos)
    assert r == len(mat)


@pytest.mark.parametrize("field", [PrimeField(7), PrimeField(4733),
                                   preset_field("klein-exact")],
                         ids=["F7", "F4733", "Q(zeta7)"])
def test_times_form_matches_poly_products(field):
    """_times_form gives the coefficient rows of the Poly products, as an
    int64 array over F_p and as lists otherwise: random rows of degrees 0
    to 9 with a zero row among them, and no rows at all, times 1, a
    monomial, a line with a zero coefficient, x^2 + y^2 + z^2 and a random
    cubic."""
    rng = random.Random(34)
    prime = isinstance(field, PrimeField)

    def element():
        c = field.coerce(rng.randrange(-20, 20))
        return c if prime else field.add(c, field.mul(field.coerce(rng.randrange(5)),
                                                      field.gen))

    def form(terms):
        return Poly(field, {e: field.coerce(c) for e, c in terms.items()})

    forms = [form({(0, 0, 0): 1}), form({(2, 0, 1): 3}),
             form({(1, 0, 0): 2, (0, 0, 1): -1}),
             form({(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}),
             Poly(field, {e: element() for e in monomials_of_degree(3)})]
    for d in range(10):
        cols = monomials_of_degree(d)
        for k in (0, 4):
            rows = [[element() for _ in cols] for _ in range(k)]
            if k:
                rows[1] = [field.zero] * len(cols)
            for g in forms:
                out = monomials_of_degree(d + g.degree())
                expected = [(Poly.from_coeff_vector(field, row, cols) * g)
                            .coeff_vector(out) for row in rows]
                if prime:
                    got = fatideals._times_form(
                        np.array(rows, dtype=np.int64).reshape(k, len(cols)),
                        cols, g, field)
                    assert got.dtype == np.int64 and got.shape == (k, len(out))
                    assert got.tolist() == expected
                else:
                    assert fatideals._times_form(rows, cols, g, field) == expected


def test_times_form_places_every_monomial():
    """The closed-form place of x^a y^b z^c of degree d in _times_form is its
    index in monomials_of_degree(d), for every d <= MAX_DEGREE: one row
    0, 1, 2, ... times 1 comes back unchanged over F_8191, above the
    widest degree's C(MAX_DEGREE + 2, 2) columns.  The monomial lists are
    built uncached, as the widest are large."""
    field = PrimeField(8191)
    one = Poly.constant(field, 1)
    for d in range(fatideals.MAX_DEGREE + 1):
        cols = weighted_basis.__wrapped__((1, 1, 1), d)
        row = np.arange(len(cols), dtype=np.int64)[None]
        assert (fatideals._times_form(row, cols, one, field) == row).all()


def test_no_unit_form_on_the_whole_plane():
    """Every line and every conic over F_7 has a rational point, so on all
    57 points of PG(2, 7) no candidate is a unit form, and alpha has no
    chain: a FatIdealError, with no fallback."""
    field = PrimeField(7)
    pts = [normalize_point(field, p) for p in
           [(1, 0, 0)] + [(a, 1, 0) for a in range(7)]
           + [(a, b, 1) for a in range(7) for b in range(7)]]
    ps = PointSet("pg27", field, pts, [chart_for_point(field, p) for p in pts])
    assert len(set(pts)) == 57
    with pytest.raises(FatIdealError):
        fatideals.unit_form(ps)
    with pytest.raises(FatIdealError):
        certified_alpha(ps, 1)


def test_alpha_walks_up_from_partner_prime(klein_exact):
    """(1:0:0), (0:1:0) and (1:1:4733) are not collinear, but they are mod
    4733: the chain at the partner prime reads degree 1 as nonzero, and the
    exact piece there is empty.  alpha trusts only the prime's empty
    degrees and reaches 2 by exact pieces."""
    f = klein_exact
    pts = [(f.one, f.zero, f.zero), (f.zero, f.one, f.zero),
           (f.one, f.one, f.coerce(4733))]
    ps = PointSet("three-points", f, pts, [0, 1, 0])
    assert ps.reduced is not None
    lines = []
    cert = certified_alpha(ps, 1, progress=lines.append)
    assert lines[0].endswith("empty through degree 0, nonzero at degree 1")
    assert symbolic_piece(ps, 1, 1).dim == 0
    assert cert["alpha"] == 2
    assert cert["empty_below"] == {"degree": 1, "rank": 3, "columns": 3}
    assert vanishes_to_order(cert["witness"]["form"], ps, 1)


def test_piece_past_the_kernels_width(char7_points, monkeypatch):
    """Degree 127 has 8256 monomials, past the 8192 columns of the mod-p
    kernels: a UsageError before any matrix is formed.  alpha above the
    widest degree is one too; a smaller widest degree stands in for 126,
    whose chains would be 8128 columns wide."""
    assert fatideals.MAX_DEGREE == 126
    with pytest.raises(UsageError, match="degree 127"):
        symbolic_piece(char7_points, 1, 127)
    monkeypatch.setattr(fatideals, "MAX_DEGREE", 10)
    with pytest.raises(UsageError, match="alpha lies above degree 10"):
        certified_alpha(PointSet(char7_points.preset, char7_points.field,
                                 char7_points.points, char7_points.charts), 2)


def _alpha_and_piece(pointset, m):
    """least_degree of the m-th symbolic power on a fresh copy of a set over
    F_p, and the (m, alpha) piece it stores, as RREF rows, pivots and
    monomials."""
    ps = _copy(pointset)
    alpha = least_degree(ps, m)
    piece = ps.pieces[(m, alpha)]
    return alpha, (piece.rows.tolist(), piece.pivots, piece.monomials)


@pytest.mark.parametrize("points, m, peeled", [
    ("char7_points", 3, 21), ("char7_points", 6, 21), ("char7_points", 8, 21),
    ("char7_points", 10, 42), ("klein_points_modp", 6, 21),
    ("wiman_points_modp", 2, 0), ("klein_points_exact", 2, 0)])
def test_peel_keeps_alpha_and_piece(points, m, peeled, request):
    """Peeling the lines changes neither alpha nor the degree-alpha piece:
    both equal those of a copy with no lines, whose chains eliminate the
    whole system.  At m = 10 the lines are peeled in two rounds.  Over
    Q(zeta7) the peel runs on the reduction at 4733, whose lines are the 21
    lines reduced."""
    ps = request.getfixturevalue(points).reduced
    assert len(ps.lines) == len(request.getfixturevalue(points).lines) > 0
    assert len(fatideals._peel(ps, m, fatideals._top(ps, m, None))[0]) == peeled
    assert _alpha_and_piece(ps, m) == _alpha_and_piece(_copy(ps, lines=[]), m)


def test_no_peel_when_points_meet_at_the_prime(klein_exact):
    """(1:1:1) and (1:1:4734) are distinct over Q(zeta7) but meet mod 4733:
    the reduction lists that point twice, and a peel would count it twice
    on the line x = y, so the reduced set carries no lines."""
    f = klein_exact
    pts = [normalize_point(f, p) for p in
           ((1, 0, 0), (0, 1, 0), (1, 1, 1), (1, 1, 4734), (0, 0, 1))]
    ps = PointSet("five-points", f, pts, [chart_for_point(f, p) for p in pts],
                  [(f.one, f.neg(f.one), f.zero)])
    reduced = ps.reduced
    assert reduced.points[2] == reduced.points[3] and reduced.lines == []


def test_third_symbolic_power_char7_is_the_line_product(char7_config, char7_points):
    """Through degree 23 every line carries 8 * 3 = 24 > 23 conditions, so
    the 21 lines divide every form, and no order is left at any point: alpha
    is 21, and the piece there is spanned by the product of the lines, with
    no matrix rank read."""
    ps = _copy(char7_points)
    lines = []
    assert certified_alpha(ps, 3, progress=lines.append)["alpha"] == 21
    piece = ps.pieces[(3, 21)]
    assert piece.dim == 1 and piece.contains_poly(line_product(char7_config))
    assert lines[0] == ("the product of 21 lines divides every form through "
                        "degree 23: residual degree 2, no conditions")


@pytest.mark.parametrize("m", [2, 6])
def test_false_incidence_is_caught(char7_points, m, monkeypatch):
    """Mutation: with line 0 said to pass through a point it misses, the
    peel is wrong (at m = 2 it forces line 0, at m = 6 it leaves too low an
    order at that point), and either the witness fails its re-check or alpha
    and its piece differ from those of the copy with no lines."""
    true = _alpha_and_piece(_copy(char7_points, lines=[]), m)
    incidence = fatideals._incidence
    missed = int(np.flatnonzero(incidence(char7_points)[0] == 0)[0])

    def false(pointset):
        on = incidence(pointset)
        on[0, missed] = 1
        return on

    monkeypatch.setattr(fatideals, "_incidence", false)
    try:
        certified_alpha(_copy(char7_points), m)
    except FatIdealError:
        return
    assert _alpha_and_piece(char7_points, m) != true
