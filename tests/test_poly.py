import random
from fractions import Fraction
from itertools import product

import pytest

from kleinwiman.errors import FieldError
from kleinwiman.fields import RationalField, preset_field
from kleinwiman.groups import valentiner_generators
from kleinwiman.poly import (Poly, TruncPoly, bordered_hessian_det, hessian_det,
                             jacobian_det, local_expand, monomials_of_degree,
                             normalize_point, weighted_basis)

Q = RationalField()


def _xyz(field):
    return [Poly.variable(field, i) for i in range(3)]


def test_partial_derivative():
    x, y, z = _xyz(Q)
    f = x ** 3 * y + y ** 3 * z + z ** 3 * x
    assert f.partial_derivative(0) == x ** 2 * y * 3 + z ** 3


def test_square_mod7():
    f7 = preset_field("klein-mod7")
    x, y, _ = _xyz(f7)
    assert ((x + y) ** 2).text() == "x^2 + 2*x*y + y^2"


def test_product_of_invariants_is_invariant(klein_inv_exact, klein_group_exact):
    from kleinwiman.groups import act_on_poly
    prod = klein_inv_exact.phi[4] * klein_inv_exact.phi[6]
    assert prod.degree() == 10
    assert len(klein_group_exact) == 168
    for g in klein_group_exact:
        assert act_on_poly(g, prod) == prod


def test_determinant_examples():
    x, y, z = _xyz(Q)
    phi4 = x ** 3 * y + y ** 3 * z + z ** 3 * x
    phi6 = x * y ** 5 + y * z ** 5 + z * x ** 5 - (x ** 2 * y ** 2 * z ** 2).scale(5)
    assert hessian_det(phi4) == phi6.scale(-54)
    assert jacobian_det(x, y, z) == Poly.constant(Q, 1)


def test_determinants_vs_evaluation_oracle():
    """Evaluate the polynomial determinants at random points and compare with
    scalar determinants of the evaluated matrices."""
    f = preset_field("klein-mod4733")
    rng = random.Random(7)
    x, y, z = _xyz(f)
    for _ in range(5):
        coeffs = [f.coerce(rng.randrange(4733)) for _ in range(10)]
        mono3 = [Poly(f, {e: c}) for e, c in zip(monomials_of_degree(3), coeffs)]
        cub = mono3[0]
        for m in mono3[1:]:
            cub = cub + m
        g = (x + y).scale(f.coerce(rng.randrange(1, 100))) ** 3
        H = hessian_det(cub)
        B = bordered_hessian_det(cub, g)
        for _ in range(10):
            pt = [rng.randrange(4733) for _ in range(3)]
            hess = [[cub.partial_derivative(i).partial_derivative(j).evaluate(pt)
                     for j in range(3)] for i in range(3)]
            grad = [g.partial_derivative(i).evaluate(pt) for i in range(3)]
            assert H.evaluate(pt) == _det3(f, hess)
            assert B.evaluate(pt) == _det4_bordered(f, hess, grad)


def _det3(f, m):
    t1 = f.mul(m[0][0], f.sub(f.mul(m[1][1], m[2][2]), f.mul(m[1][2], m[2][1])))
    t2 = f.mul(m[0][1], f.sub(f.mul(m[1][0], m[2][2]), f.mul(m[1][2], m[2][0])))
    t3 = f.mul(m[0][2], f.sub(f.mul(m[1][0], m[2][1]), f.mul(m[1][1], m[2][0])))
    return f.add(f.sub(t1, t2), t3)


def _det4_bordered(f, hess, grad):
    # Laplace along the last column of [[hess, grad], [grad^T, 0]]
    m = [row + [g] for row, g in zip(hess, grad)] + [grad + [f.zero]]
    total = f.zero
    for i in range(4):
        if f.is_zero(m[i][3]):
            continue
        sub = [[m[r][c] for c in range(3)] for r in range(4) if r != i]
        minor = _det3(f, sub)
        term = f.mul(m[i][3], minor)
        total = f.add(total, term if i % 2 == 1 else f.neg(term))
    return total


def test_weighted_basis_counts_vs_series_oracle():
    """Counts match the coefficients of the product of geometric series,
    expanded independently."""
    for weights, dmax in [((4, 6, 14), 100), ((6, 12, 30), 120)]:
        series = [0] * (dmax + 1)
        series[0] = 1
        for w in weights:
            out = list(series)
            for d in range(w, dmax + 1):
                out[d] += out[d - w]
            series = out
        for d in range(dmax + 1):
            assert len(weighted_basis(weights, d)) == series[d]


def test_weighted_basis_examples():
    assert len(weighted_basis((4, 6, 14), 18)) == 3
    assert set(weighted_basis((4, 6, 14), 18)) == {(3, 1, 0), (0, 3, 0), (1, 0, 1)}
    assert len(weighted_basis((4, 6, 14), 42)) == 9
    assert len(weighted_basis((6, 12, 30), 90)) == 18
    taylor = [1, 0, 0, 0, 1, 0, 1, 0, 1, 0, 1, 0, 2, 0, 2, 0, 2, 0, 3]
    for d, want in enumerate(taylor):
        assert len(weighted_basis((4, 6, 14), d)) == want


def test_weighted_basis_order():
    """The series column order: every (a, b, c) of weighted degree d, each
    once, lexicographically descending, for the Klein and Wiman weights."""
    for wa, wb, wc in ((4, 6, 14), (6, 12, 30)):
        for d in range(0, 121, 6):
            want = sorted(((a, b, c) for a in range(d // wa + 1)
                           for b in range(d // wb + 1) for c in range(d // wc + 1)
                           if a * wa + b * wb + c * wc == d), reverse=True)
            assert weighted_basis((wa, wb, wc), d) == tuple(want)


def test_monomials_of_degree_order():
    """The column order of every fat-point matrix: exponent tuples of total
    degree d, lexicographically descending, as weighted_basis gives them."""
    assert monomials_of_degree(2) == [(2, 0, 0), (1, 1, 0), (1, 0, 1),
                                      (0, 2, 0), (0, 1, 1), (0, 0, 2)]
    for d in range(31):
        want = sorted(((*h, d - sum(h)) for h in product(range(d + 1), repeat=2)
                       if sum(h) <= d), reverse=True)
        assert monomials_of_degree(d) == want
        assert monomials_of_degree(d) == list(weighted_basis((1, 1, 1), d))


def test_truncpoly_is_a_truncating_poly():
    """TruncPoly is a Poly in u and v: its sums keep the smaller order, and
    its products, powers and scalings drop every term of total degree >=
    order, agreeing with the plain Poly arithmetic truncated afterwards."""
    f = preset_field("klein-mod4733")

    def plain(t):
        return Poly(f, t.terms, 2, var_names=("u", "v"))

    def below(p, order):
        return {e: c for e, c in p.terms.items() if sum(e) < order}

    a = TruncPoly(f, 5, {(i, j): 1 + i + 2 * j for i in range(6) for j in range(6)})
    b = TruncPoly(f, 3, {(0, 0): 2, (1, 1): 3, (0, 2): 4, (2, 1): 5})
    assert isinstance(a, Poly) and isinstance(b, Poly)
    assert a.order == 5 and max(sum(e) for e in a.terms) == 4
    assert b.terms == {(0, 0): 2, (1, 1): 3, (0, 2): 4}
    for s in (a + b, b + a, a - b):
        assert isinstance(s, TruncPoly) and s.order == 3
        assert all(sum(e) < 3 for e in s.terms)
    assert (a + b).terms == below(plain(a) + plain(b), 3)
    assert (a - b).terms == below(plain(a) - plain(b), 3)
    assert (a + b).coeff((1, 1)) == 4 + 3
    for p, want, order in ((a * a, plain(a) * plain(a), 5),
                           (a * b, plain(a) * plain(b), 3),
                           (a ** 3, plain(a) ** 3, 5),
                           (a.scale(7), plain(a).scale(7), 5),
                           (-a, -plain(a), 5)):
        assert isinstance(p, TruncPoly) and p.order == order
        assert p.terms == below(want, order)
    u = TruncPoly(f, 2, {(1, 0): 1})
    assert (u * u).is_zero() and (u ** 2).is_zero() and (u ** 0).coeff((0, 0)) == 1
    assert a.scale(0).is_zero() and isinstance(a.scale(0), TruncPoly)
    t = TruncPoly(f, 3, {(1, 0): 1, (0, 1): 2, (2, 0): 3})
    assert t.text() == "3*u^2 + u + 2*v"
    lead = t.leading_form()
    assert type(lead) is Poly and lead.text() == "u + 2*v"
    assert t.order_of_vanishing() == 1


def test_local_expand_unit_and_centers():
    x, y, z = _xyz(Q)
    t = local_expand(z, (1, 2, 1), 2)
    assert t.coeff((0, 0)) == 1 and t.order_of_vanishing() == 0
    with pytest.raises(ValueError):
        local_expand(z, (1, 2, 0), 2, chart=2)


def test_local_expand_multiplicative():
    f = preset_field("klein-mod4733")
    rng = random.Random(11)
    for _ in range(6):
        terms_f = {e: f.coerce(rng.randrange(4733))
                   for e in rng.sample(monomials_of_degree(5), 6)}
        terms_g = {e: f.coerce(rng.randrange(4733))
                   for e in rng.sample(monomials_of_degree(4), 5)}
        a, b = Poly(f, terms_f), Poly(f, terms_g)
        pt = (rng.randrange(4733), rng.randrange(4733), 1)
        m = 6
        lhs = local_expand(a * b, pt, m)
        rhs = local_expand(a, pt, m) * local_expand(b, pt, m)
        assert lhs == rhs


def _random_element(field, rng):
    if field.kind == "prime":
        return field.coerce(rng.randrange(field.p))
    return field.coerce(tuple(rng.randint(-3, 3) for _ in range(field.deg)))


@pytest.mark.parametrize("name", ["klein-mod4733", "klein-exact"])
def test_local_expand_matches_translation(name):
    """local_expand against the translate by Poly.substitute: the local
    coordinates go to u + a and v + b, the chart coordinate to 1, and the
    terms of total degree below m are kept."""
    field = preset_field(name)
    rng = random.Random(13)
    u, v = (Poly.variable(field, i, 2, var_names=("u", "v")) for i in range(2))
    one = Poly.constant(field, 1, 2, var_names=("u", "v"))
    for chart in range(3):
        for m in (1, 4, 7):
            deg = rng.randint(0, 6)
            mons = monomials_of_degree(deg)
            f = Poly(field, {e: _random_element(field, rng)
                             for e in rng.sample(mons, min(len(mons), 6))})
            center = [_random_element(field, rng) for _ in range(3)]
            if field.is_zero(center[chart]):
                center[chart] = field.one
            inv = field.inv(center[chart])
            lu, lv = (k for k in range(3) if k != chart)
            images = [None] * 3
            images[chart] = one
            images[lu] = u + one.scale(field.mul(center[lu], inv))
            images[lv] = v + one.scale(field.mul(center[lv], inv))
            want = {e: c for e, c in f.substitute(images).terms.items()
                    if sum(e) < m}
            assert local_expand(f, center, m, chart=chart).terms == want


def test_multiplicity_of_line_product_at_triple_point(klein_inv_exact):
    assert local_expand(klein_inv_exact.phi[21], (1, 1, 1), 6) \
        .order_of_vanishing() == 3


def test_poly_operators():
    x, y, _ = _xyz(Q)
    assert (x + y) - y == x
    assert (x * y).degree() == 2
    assert (x + y) ** 2 == x ** 2 + (x * y).scale(2) + y ** 2


def test_canonical_text_deterministic():
    x, y, z = _xyz(Q)
    f = (x + y + z) ** 2
    assert f.text() == ("x^2 + 2*x*y + 2*x*z + y^2 + 2*y*z + z^2")


def test_normalize_point():
    f = preset_field("klein-mod4733")
    assert normalize_point(f, (2, 4, 2)) == (1, 2, 1)
    assert normalize_point(f, (3, 0, 0)) == (1, 0, 0)
    with pytest.raises(ValueError):
        normalize_point(f, (0, 0, 0))


def _term_by_term(f, images):
    """The substitution written out: sum of c * prod images[i] ** e_i."""
    tgt = images[0]
    acc = Poly.zero(tgt.field, tgt.nvars, tgt.weights, tgt.var_names)
    for e, c in f.terms.items():
        term = Poly.constant(tgt.field, c, tgt.nvars, tgt.weights, tgt.var_names)
        for image, k in zip(images, e):
            term = term * image ** k
        acc = acc + term
    return acc


def _sample(field, rng):
    if field.kind == "rational":
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return _random_element(field, rng)


@pytest.mark.parametrize("name", ["klein-mod4733", "rational", "klein-exact",
                                  "wiman-exact"])
def test_substitute_matches_term_by_term(name):
    """Poly.substitute (Horner's rule) against the term-by-term expansion:
    dense linear images (the Valentiner generator r3 over Q(sqrt5, omega)),
    affine images in two variables, the Klein invariants as images of the
    weighted generators, and the zero and constant polynomials."""
    field = Q if name == "rational" else preset_field(name)
    rng = random.Random(30)
    if name == "wiman-exact":
        dense = [Poly.linear_form(field, row) for row in valentiner_generators(field)[2].m]
    else:
        dense = [Poly.linear_form(field, [_sample(field, rng) for _ in range(3)])
                 for _ in range(3)]
    u, v = (Poly.variable(field, i, 2, var_names=("u", "v")) for i in range(2))
    one = Poly.constant(field, 1, 2, var_names=("u", "v"))
    affine = [u + one.scale(_sample(field, rng)), v + one.scale(_sample(field, rng)), one]
    x, y, z = _xyz(field)
    phi4 = x ** 3 * y + y ** 3 * z + z ** 3 * x
    phi6 = x * y ** 5 + y * z ** 5 + z * x ** 5 - (x ** 2 * y ** 2 * z ** 2).scale(5)
    invariants = [phi4, phi6, bordered_hessian_det(phi4, phi6)]
    weights, names = (4, 6, 14), ("v1", "v2", "v3")
    mons = [e for deg in range(7) for e in monomials_of_degree(deg)]
    cases = []
    for images in (dense, affine):
        for _ in range(3):
            f = Poly(field, {e: _sample(field, rng) for e in rng.sample(mons, 8)})
            cases.append((f, images))
    wmons = weighted_basis(weights, 18) + weighted_basis(weights, 28)
    cases.append((Poly(field, {e: _sample(field, rng) for e in wmons}, 3, weights,
                       names), invariants))
    c = _sample(field, rng)
    cases += [(Poly.zero(field), dense), (Poly.constant(field, c), dense),
              (Poly.constant(field, c, 3, weights, names), invariants)]
    for f, images in cases:
        got = f.substitute(images)
        assert got == _term_by_term(f, images)
        assert (got.nvars, got.weights, got.var_names) \
            == (images[0].nvars, images[0].weights, images[0].var_names)
    assert Poly.zero(field).substitute(dense).is_zero()
    assert Poly.constant(field, c).substitute(affine) == Poly.constant(
        field, c, 2, var_names=("u", "v"))
    other = Q if name != "rational" else preset_field("klein-mod4733")
    with pytest.raises(FieldError):
        Poly.variable(other, 0).substitute(dense)
