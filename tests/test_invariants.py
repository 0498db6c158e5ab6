import random
from fractions import Fraction

import pytest

from kleinwiman.configs import line_coeffs
from kleinwiman.errors import EngineError
from kleinwiman.fields import SimpleExtension
from kleinwiman.groups import reynolds
from kleinwiman.invariants import (KLEIN_RELATION, degree0_constant,
                                   _klein_curve, fixed_forms, invariant_set,
                                   is_invariant, klein_curve_local,
                                   solve_klein_relation,
                                   stated_multiplicity_matrix,
                                   verify_klein_relation, wiman_curve_local,
                                   wiman_multiplicity_matrix, wiman_phi45)
from kleinwiman.linalg import kernel_field
from kleinwiman.poly import Poly, local_expand


def test_klein_fundamental_values(klein_inv_exact):
    f = klein_inv_exact.field
    p = (1, 1, 1)
    assert [f.fmt(klein_inv_exact.phi[d].evaluate(p)) for d in (4, 6, 14)] \
        == ["3", "-2", "-48"]
    assert f.is_zero(klein_inv_exact.psi[12].evaluate(p))
    assert f.is_zero(klein_inv_exact.psi[14].evaluate(p))


def test_fixed_forms_match_reynolds(klein_exact, klein_group_exact,
                                    valentiner_group_modp):
    """The forms every generator fixes are the group averages: the Klein
    quartic over Q(zeta7) and the Wiman sextic over F_4951, each the one
    invariant of its degree.  No quadric is invariant."""
    for group, seed in ((klein_group_exact, (3, 1, 0)),
                        (valentiner_group_modp, (6, 0, 0))):
        field = group.field
        forms = fixed_forms(group.gens, sum(seed))
        average = reynolds(group, Poly(field, {seed: field.one}))
        assert len(forms) == 1 and not average.is_zero()
        assert forms[0].canonical_scale() == average.canonical_scale()
        assert fixed_forms(group.gens, 2) == []
    x, y, z = (Poly.variable(klein_exact, i) for i in range(3))
    assert fixed_forms(klein_group_exact.gens, 4)[0].canonical_scale() \
        == x ** 3 * y + y ** 3 * z + z ** 3 * x


def test_klein_line_product_vanishes_on_lines(klein_inv_exact):
    f = klein_inv_exact.field
    phi21 = klein_inv_exact.phi[21]
    rng = random.Random(13)
    for line in klein_inv_exact.config.lines:
        u = line_coeffs(line)
        idx = next(i for i, c in enumerate(u) if not f.is_zero(c))
        others = [i for i in range(3) if i != idx]
        base = []
        for o in others:
            v = [f.zero] * 3
            v[o] = f.one
            v[idx] = f.neg(f.div(u[o], u[idx]))
            base.append(v)
        for _ in range(2):
            t = f.coerce(rng.randrange(1, 50))
            pt = [f.add(a, f.mul(t, b)) for a, b in zip(base[0], base[1])]
            assert f.is_zero(phi21.evaluate(pt))


def test_klein_invariance(klein_inv_exact):
    assert all(is_invariant(klein_inv_exact.config, klein_inv_exact.phi[d])
               for d in (4, 6, 14, 21))
    assert all(is_invariant(klein_inv_exact.config, klein_inv_exact.psi[d])
               for d in (4, 6, 12, 14))


def test_degree_bookkeeping(klein_inv_exact, wiman_inv_modp):
    for d, f in klein_inv_exact.phi.items():
        assert {f.wdeg(e) for e in f.terms} == {d}
    for d, f in wiman_inv_modp.phi.items():
        assert {f.wdeg(e) for e in f.terms} == {d}
    for d, f in wiman_inv_modp.psi.items():
        assert {f.wdeg(e) for e in f.terms} == {d}


def test_klein_relation_residual_zero(klein_inv_exact):
    rep = verify_klein_relation(klein_inv_exact)
    assert rep["holds"] and rep["residual_zero"] and not rep["rederived"]


def test_klein_relation_rederivation_oracle(klein_inv_exact):
    sol = solve_klein_relation(klein_inv_exact)
    f = klein_inv_exact.field
    assert {e: f.fmt(c) for e, c in sol.items()} \
        == {e: str(c) for e, c in KLEIN_RELATION.items()}


def test_klein_relation_at_random_points(klein_inv_modp):
    f = klein_inv_modp.field
    inv = klein_inv_modp
    rng = random.Random(21)
    for _ in range(20):
        pt = [rng.randrange(4733) for _ in range(3)]
        v4, v6, v14, v21 = (inv.phi[d].evaluate(pt) for d in (4, 6, 14, 21))
        rhs = f.zero
        for (a, b, c), coef in KLEIN_RELATION.items():
            term = f.mul(f.coerce(coef), f.mul(f.pow(v4, a),
                                               f.mul(f.pow(v6, b), f.pow(v14, c))))
            rhs = f.add(rhs, term)
        assert f.mul(v21, v21) == rhs


def test_even_invariants_vanish_doubly_at_config_points(klein_inv_exact,
                                                        wiman_inv_modp):
    # even-degree invariants through a configuration point are double there
    cfg = wiman_inv_modp.config
    p4 = cfg.class_by_label("E4").representative
    p3a = cfg.class_by_label("E3a").representative
    klein, wiman = klein_inv_exact.psi, wiman_inv_modp.psi
    for f, pt in ((klein[12], (1, 1, 1)), (klein[14], (1, 1, 1)),
                  (wiman[12], p4), (wiman[24], p3a), (wiman[30], p4)):
        assert local_expand(f, pt, 5).order_of_vanishing() >= 2


def test_wiman_psi_incidences(wiman_inv_modp):
    f = wiman_inv_modp.field
    cfg = wiman_inv_modp.config
    p4 = cfg.class_by_label("E4").representative
    p3a = cfg.class_by_label("E3a").representative
    p3b = cfg.class_by_label("E3b").representative
    psi = wiman_inv_modp.psi
    assert f.is_zero(psi[12].evaluate(p4))
    assert f.is_zero(psi[24].evaluate(p3a)) and f.is_zero(psi[24].evaluate(p3b))
    assert all(f.is_zero(psi[30].evaluate(p)) for p in (p4, p3a, p3b))


def test_wiman_degree24_factorization(wiman_inv_modp):
    inv = wiman_inv_modp
    assert inv.extra["upsilon12"] * inv.extra["upsilon12_bar"] == inv.psi[24]


def test_wiman_sextic_matches_closed_form(wiman_inv_exact):
    """The Reynolds average of x^6 (scaled by 16) equals the classical
    closed form of the sextic, written in the named constants: with the
    choices omega = exp(2 pi i/3) and delta = -sqrt(5), the coefficient of
    x^2y^2z^2 is 3(5 - i sqrt(15)) = 15 + 3(2 omega + 1) delta, and the two
    even-exponent orbits carry (3/4)(2 sqrt(5) - (5 - sqrt(5)) omega) and
    (3/4)(5 - sqrt(5) + (5 + sqrt(5)) omega)."""
    f = wiman_inv_exact.field
    d = f.constant("delta")
    om = f.constant("omega")
    x, y, z = (Poly.variable(f, i) for i in range(3))
    sqrt5 = f.neg(d)  # the display chooses delta = -sqrt(5)
    i_sqrt15 = f.mul(f.add(f.add(om, om), f.one), sqrt5)  # (2w+1) = i sqrt(3)
    c_xyz = f.mul(f.coerce(3), f.sub(f.coerce(5), i_sqrt15))
    q34 = f.embed_rational(Fraction(3, 4))
    c_a = f.mul(q34, f.sub(f.add(sqrt5, sqrt5),
                           f.mul(f.sub(f.coerce(5), sqrt5), om)))
    c_b = f.mul(q34, f.add(f.sub(f.coerce(5), sqrt5),
                           f.mul(f.add(f.coerce(5), sqrt5), om)))
    display = (x ** 6 + y ** 6 + z ** 6
               + (x ** 2 * y ** 2 * z ** 2).scale(c_xyz)
               + (x ** 4 * y ** 2 + y ** 4 * z ** 2 + z ** 4 * x ** 2).scale(c_a)
               + (x ** 4 * z ** 2 + y ** 4 * x ** 2 + z ** 4 * y ** 2).scale(c_b))
    assert wiman_inv_exact.phi[6] == display


def test_wiman_invariance(wiman_inv_modp):
    for d in (6, 12, 30):
        assert is_invariant(wiman_inv_modp.config, wiman_inv_modp.phi[d])
    for d in (6, 12, 24, 30):
        assert is_invariant(wiman_inv_modp.config, wiman_inv_modp.psi[d])


def test_degree0_constants_klein(klein_inv_exact):
    f = klein_inv_exact.field
    psi = klein_inv_exact.psi
    p = (1, 1, 1)
    c1 = degree0_constant([(psi[4], 1), (psi[12], 2)], [(psi[14], 2)], p)
    c2 = degree0_constant([(psi[6], 1), (psi[12], 1)],
                          [(psi[4], 1), (psi[14], 1)], p)
    assert c1 == f.coerce(2) and c2 == f.coerce(2)


def test_degree0_constant_quadruple_point(wiman_inv_modp):
    f = wiman_inv_modp.field
    psi = wiman_inv_modp.psi
    p4 = wiman_inv_modp.config.class_by_label("E4").representative
    e = degree0_constant([(psi[12], 1), (psi[24], 1)],
                         [(psi[6], 1), (psi[30], 1)], p4)
    # the value is -4, with the sign fixed by the last matrix row
    assert e == f.coerce(-4)


def test_degree0_constant_errors(klein_inv_exact):
    psi = klein_inv_exact.psi
    p = (1, 1, 1)
    # numerator of strictly higher vanishing order gives 0
    z = degree0_constant([(psi[12], 2)], [(psi[4], 1), (psi[14], 1)], p)
    assert klein_inv_exact.field.is_zero(z)
    with pytest.raises(EngineError):
        degree0_constant([(psi[4], 1), (psi[6], 1)], [(psi[12], 1)], p)


def test_multiplicity_matrix_modp(wiman_inv_modp):
    f = wiman_inv_modp.field
    rows, s_used = wiman_multiplicity_matrix(wiman_inv_modp)
    assert f.mul(s_used, s_used) == f.coerce(-15)
    assert rows == stated_multiplicity_matrix(f, s_used)
    v = [f.coerce(c) for c in (4, -10, -20, 10, -5)]
    for row in rows:
        assert f.is_zero(f.sum([f.mul(a, b) for a, b in zip(row, v)]))


def test_multiplicity_matrix_literal_over_qs():
    qs = SimpleExtension((15, 0, 1), gen_name="s", name="Q(s)")
    rows = stated_multiplicity_matrix(qs, qs.gen)
    kern = kernel_field(rows, 5, qs)
    assert len(kern) == 1
    v = kern[0]
    scale = qs.div(qs.coerce(4), v[0])
    scaled = [qs.mul(scale, c) for c in v]
    assert scaled == [qs.coerce(c) for c in (4, -10, -20, 10, -5)]


def test_klein_curve_equation_multiplicity(klein_inv_exact):
    t = klein_curve_local(klein_inv_exact, (1, 1, 1), 9)
    assert t.order_of_vanishing() == 8


def test_klein_curve_in_generators_is_degree42(klein_inv_exact):
    w = _klein_curve(klein_inv_exact.psi_in_phi, klein_inv_exact.field)
    assert w.degree() == 42
    assert not w.is_zero()


def test_wiman_curve_multiplicities_modp(wiman_inv_modp):
    cfg = wiman_inv_modp.config
    p4 = cfg.class_by_label("E4").representative
    p3a = cfg.class_by_label("E3a").representative
    p3b = cfg.class_by_label("E3b").representative
    assert wiman_curve_local(wiman_inv_modp, p4, 5).order_of_vanishing() >= 4
    assert wiman_curve_local(wiman_inv_modp, p3a, 9).order_of_vanishing() >= 8
    assert wiman_curve_local(wiman_inv_modp, p3b, 9).order_of_vanishing() >= 8


def test_wiman_phi45_vanishes_on_lines(wiman_inv_modp):
    f45 = wiman_phi45(wiman_inv_modp)
    f = wiman_inv_modp.field
    cfg = wiman_inv_modp.config
    for cls in cfg.classes:
        assert f.is_zero(f45.evaluate(cls.representative))


def test_phi45_squared_proportional_to_recorded_relation(wiman_inv_modp):
    """The degree-90 relation is recorded up to overall scale only; test
    proportionality over the prime preset."""
    inv = wiman_inv_modp
    f = inv.field
    coeffs = {
        (13, 1, 0): 16, (11, 2, 0): -160, (9, 3, 0): 816, (7, 4, 0): -2188,
        (5, 5, 0): 3271, (3, 6, 0): -1539, (1, 7, 0): 351,
        (10, 0, 1): 72, (8, 1, 1): -396, (6, 2, 1): 954, (4, 3, 1): 99,
        (2, 4, 1): -1377, (0, 5, 1): 243,
        (5, 0, 2): 324, (3, 1, 2): -1944, (1, 2, 2): 729,
        (0, 0, 3): 729,
    }
    rng = random.Random(45)
    ratios = set()
    for _ in range(6):
        pt = [rng.randrange(1, 4951) for _ in range(3)]
        v6, v12, v30 = (inv.phi[d].evaluate(pt) for d in (6, 12, 30))
        rhs = f.zero
        for (a, b, c), coef in coeffs.items():
            t = f.mul(f.coerce(coef), f.mul(f.pow(v6, a),
                                            f.mul(f.pow(v12, b), f.pow(v30, c))))
            rhs = f.add(rhs, t)
        lhs = f.pow(wiman_phi45(inv).evaluate(pt), 2)
        if not f.is_zero(rhs):
            ratios.add(f.div(lhs, rhs))
    assert len(ratios) == 1  # constant of proportionality


def test_invariant_set_dispatch(klein_exact):
    assert invariant_set("klein", klein_exact).preset == "klein"
    assert invariant_set("klein", klein_exact) is invariant_set("klein", klein_exact)
    with pytest.raises(Exception):
        invariant_set("fermat", klein_exact)
