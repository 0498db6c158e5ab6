import random

import pytest

from kleinwiman.errors import FieldError, GroupError
from kleinwiman.fields import preset_field
from kleinwiman.groups import (GroupElement, act_on_point, act_on_poly,
                               generate_group, klein_generators, klein_group,
                               orbit, reynolds, stabilizer_order)
from kleinwiman.poly import Poly, gradient


def test_klein_group_order(klein_group_exact):
    assert klein_group_exact.order == 168


def test_valentiner_orders(valentiner_group_modp):
    g = valentiner_group_modp
    assert g.order == 1080
    assert g.projective_order == 360


def test_identity_generator_group(klein_modp):
    g = generate_group([GroupElement.identity(klein_modp)])
    assert g.order == 1


def test_generator_order_mismatch(klein_modp):
    with pytest.raises(GroupError):
        generate_group(klein_generators(klein_modp), expected_order=167)


def test_closure_cap(klein_modp):
    with pytest.raises(GroupError):
        generate_group(klein_generators(klein_modp), expected_order=2)


def test_act_on_point_examples(klein_exact):
    gens = klein_generators(klein_exact)
    one = klein_exact.one
    p = (one, one, one)
    assert act_on_point(gens[1], p) == p
    assert act_on_point(gens[2], p) == p  # the involution also fixes [1:1:1]


def test_act_on_poly_identity(klein_modp):
    f = Poly.variable(klein_modp, 0) ** 3
    ident = GroupElement.identity(klein_modp)
    assert act_on_poly(ident, f) == f


def test_act_respects_products(klein_modp):
    rng = random.Random(3)
    G = klein_group(klein_modp)
    x, y, z = (Poly.variable(klein_modp, i) for i in range(3))
    f = x ** 2 + (y * z).scale(3)
    h = x * y + z ** 2
    for g in rng.sample(G.elements, 8):
        assert act_on_poly(g, f * h) == act_on_poly(g, f) * act_on_poly(g, h)


def test_reynolds_klein_quartic(klein_exact, klein_group_exact):
    G = klein_group_exact
    x, y, z = (Poly.variable(klein_exact, i) for i in range(3))
    f4 = reynolds(G, x ** 3 * y).scale(klein_exact.coerce(3))
    assert f4 == x ** 3 * y + y ** 3 * z + z ** 3 * x
    # already invariant input is a fixed point of the projector
    assert reynolds(G, f4) == f4
    for g in G.gens:
        assert act_on_poly(g, f4) == f4


def test_reynolds_wiman_normalization(wiman_modp, valentiner_group_modp):
    G = valentiner_group_modp
    x = Poly.variable(wiman_modp, 0)
    f6 = reynolds(G, x ** 6).scale(wiman_modp.coerce(16))
    assert f6.coeff((6, 0, 0)) == wiman_modp.one


def test_reynolds_not_invertible_order():
    f7 = preset_field("klein-mod7")
    # a group of order 7 via a unipotent element: 7 is not invertible mod 7
    u = GroupElement(f7, ((1, 1, 0), (0, 1, 0), (0, 0, 1)))
    G = generate_group([u])
    assert G.order == 7
    with pytest.raises(FieldError):
        reynolds(G, Poly.variable(f7, 0))


def test_orbit_sizes_and_stabilizers(klein_config_exact, klein_group_exact):
    gens = klein_config_exact.gens
    G = klein_group_exact
    quad = klein_config_exact.classes[0].representative
    trip = klein_config_exact.classes[1].representative
    assert len(orbit(gens, quad)) == 21
    assert stabilizer_order(G, quad) == 8
    assert len(orbit(gens, trip)) == 28
    assert stabilizer_order(G, trip) == 6
    generic = (2, 3, 5)
    assert len(orbit(gens, generic)) == 168
    assert stabilizer_order(G, generic) == 1


def test_orbit_stabilizer_identity_wiman(wiman_config_modp,
                                         valentiner_group_modp):
    G = valentiner_group_modp
    for cls in wiman_config_modp.classes:
        orb = orbit(wiman_config_modp.gens, cls.representative)
        assert len(orb) == cls.size
        assert len(orb) * stabilizer_order(G, cls.representative) == 360


def test_gradient_transform_identity(klein_modp):
    """For the substitution action f -> f(M x), the gradient transforms by
    the transpose: grad(g f) = M^T (g grad f)."""
    rng = random.Random(5)
    G = klein_group(klein_modp)
    f7 = klein_modp
    from kleinwiman.poly import monomials_of_degree
    for g in rng.sample(G.elements, 6):
        terms = {e: f7.coerce(rng.randrange(4733))
                 for e in rng.sample(monomials_of_degree(4), 7)}
        f = Poly(f7, terms)
        lhs = [act_on_poly(g, df) for df in gradient(f)]
        grad_gf = gradient(act_on_poly(g, f))
        m = g.m
        rhs = [Poly.zero(f7), Poly.zero(f7), Poly.zero(f7)]
        # invert the transpose by solving with the matrix inverse = adjugate/det
        det = g.det()
        inv_det = f7.inv(det)
        adj = _adjugate(f7, m)
        minv = [[f7.mul(adj[i][j], inv_det) for j in range(3)] for i in range(3)]
        # grad(g f) = M^T (g grad f)  <=>  (M^T)^{-1} grad(g f) = g(grad f)
        minv_t = [[minv[j][i] for j in range(3)] for i in range(3)]
        for i in range(3):
            acc = Poly.zero(f7)
            for j in range(3):
                acc = acc + grad_gf[j].scale(minv_t[i][j])
            rhs[i] = acc
        assert lhs == rhs


def _adjugate(f, m):
    def co(i, j):
        rows = [r for r in range(3) if r != i]
        cols = [c for c in range(3) if c != j]
        v = f.sub(f.mul(m[rows[0]][cols[0]], m[rows[1]][cols[1]]),
                  f.mul(m[rows[0]][cols[1]], m[rows[1]][cols[0]]))
        return v if (i + j) % 2 == 0 else f.neg(v)
    return [[co(j, i) for j in range(3)] for i in range(3)]
