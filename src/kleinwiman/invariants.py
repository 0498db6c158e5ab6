"""Fundamental and normalized invariant forms for both configurations.

Klein: generators of degrees 4, 6, 14 and the degree-21 product of lines,
with the alternate normalized set tuned to the triple points.  Wiman: degrees
6, 12, 30, 45 and the normalized set tuned to a quadruple point and the two
triple-point orbits (including the conjugate pair of degree-12 forms that
factor the degree-24 invariant).
"""

from fractions import Fraction
from functools import cached_property, lru_cache

from kleinwiman import linalg
from kleinwiman.configs import build_klein, build_wiman
from kleinwiman.errors import ConfigError, EngineError
from kleinwiman.groups import act_on_poly
from kleinwiman.poly import (Poly, bordered_hessian_det, hessian_det, jacobian_det,
                             local_expand, monomials_of_degree)

KLEIN_WEIGHTS = (4, 6, 14)
WIMAN_WEIGHTS = (6, 12, 30)
T_VARS = ("v1", "v2", "v3")

# degree-42 identity: phi21^2 as a polynomial in (phi4, phi6, phi14),
# keyed by exponent triples
KLEIN_RELATION = {
    (0, 0, 3): 1,
    (0, 7, 0): -1728,
    (1, 4, 1): 1008,
    (2, 1, 2): 88,
    (3, 5, 0): 60032,
    (4, 2, 1): 1088,
    (6, 3, 0): -22016,
    (7, 0, 1): -256,
    (9, 1, 0): 2048,
}

WIMAN_CURVE_90 = (4, -10, -20, 10, -5)


class InvariantSet:
    def __init__(self, preset, field, config, phi, psi, psi_in_phi, extra=None):
        self.preset = preset
        self.field = field
        self.config = config
        self.phi = phi                  # degree -> Poly in S
        self._psi = psi                 # the same for psi, or a function giving it
        self.psi_in_phi = psi_in_phi    # degree -> weighted Poly in the generators
        self.extra = extra or {}

    @cached_property
    def psi(self):
        """degree -> normalized invariant, a Poly in S; built at the first
        read when the set was given a function for it."""
        return self._psi() if callable(self._psi) else self._psi


def _scaled(f, fr):
    return f.scale(f.field.embed_rational(Fraction(fr)))


def _weighted_vars(field, weights):
    return [Poly.variable(field, i, 3, weights, T_VARS) for i in range(3)]


def _klein_psi(phi4, phi6, phi14):
    """The normalized Klein invariants psi4, psi6, psi12, psi14 in terms of
    phi4, phi6, phi14 (forms in S, or the weighted generator variables)."""
    psi4 = _scaled(phi4, Fraction(2, 3))
    psi6 = _scaled(phi6, 2)
    return {4: psi4, 6: psi6, 12: _scaled(psi4 ** 3, 2) - psi6 ** 2,
            14: _scaled(phi14, Fraction(1, 11))
            - _scaled(phi4 ** 2 * phi6, Fraction(8, 33))}


@lru_cache(maxsize=None)
def klein_invariants(field):
    """Invariants of the 168-element group, normalized as in the incidence
    conventions at the triple point [1:1:1]."""
    config = build_klein(field)
    x, y, z = (Poly.variable(field, i) for i in range(3))
    phi4 = x ** 3 * y + y ** 3 * z + z ** 3 * x
    phi6 = _scaled(hessian_det(phi4), Fraction(-1, 54))
    phi14 = _scaled(bordered_hessian_det(phi4, phi6), Fraction(1, 9))
    phi21 = _scaled(jacobian_det(phi4, phi6, phi14), Fraction(1, 14))
    return InvariantSet("klein", field, config,
                        {4: phi4, 6: phi6, 14: phi14, 21: phi21},
                        _klein_psi(phi4, phi6, phi14),
                        _klein_psi(*_weighted_vars(field, KLEIN_WEIGHTS)))


def _normalize_leading(f, degree):
    """Scale so the coefficient of x^degree is 1."""
    c = f.coeff((degree, 0, 0))
    if f.field.is_zero(c):
        raise EngineError(f"cannot normalize: no x^{degree} term")
    return f.scale(f.field.inv(c))


def fixed_forms(gens, degree):
    """Basis of the forms of the given degree that every generator fixes: the
    kernel of the stacked (g - 1) on the monomials of that degree."""
    field = gens[0].field
    monos = monomials_of_degree(degree)
    rows = []
    for g in gens:
        images = [act_on_poly(g, Poly(field, {e: field.one})) for e in monos]
        rows.extend([field.sub(im.coeff(e), field.one if i == j else field.zero)
                     for j, im in enumerate(images)] for i, e in enumerate(monos))
    return [Poly.from_coeff_vector(field, v, monos)
            for v in linalg.kernel(rows, len(monos), field)]


def _wiman_psi_low(phi6, phi12):
    """The normalized Wiman invariants psi6 and psi12 in terms of phi6 and
    phi12 (forms in S, or the weighted generator variables)."""
    return _scaled(phi6, 2), _scaled(phi6 ** 2 - phi12, 18)


def _wiman_psi(phi6, phi12, phi30, psi6, psi12):
    """The normalized Wiman invariants psi6, psi12, psi24, psi30 in terms of
    phi6, phi12, phi30, given psi6 and psi12 (from _wiman_psi_low)."""
    psi24 = (psi6 ** 4 - _scaled(psi6 ** 2 * psi12, Fraction(1, 2))
             + _scaled(psi12 ** 2, Fraction(1, 15)))
    psi30 = _scaled(
        _scaled(phi6 ** 5, 2) - _scaled(phi6 ** 3 * phi12, 11)
        + _scaled(phi6 * phi12 ** 2, 36) - _scaled(phi30, 27),
        Fraction(36, 25))
    return {6: psi6, 12: psi12, 24: psi24, 30: psi30}


@lru_cache(maxsize=None)
def wiman_invariants(field):
    """Invariants of the Valentiner group, with the normalized set tuned to
    the quadruple point [0:0:1] and the two triple-point orbits."""
    config = build_wiman(field)
    sextics = fixed_forms(config.gens, 6)
    if len(sextics) != 1:
        raise EngineError(f"expected one invariant sextic, found {len(sextics)}")
    phi6 = _normalize_leading(sextics[0], 6)
    phi12 = _normalize_leading(hessian_det(phi6), 12)
    phi30 = _normalize_leading(bordered_hessian_det(phi6, phi12), 30)
    # psi24 and psi30 are built when first read: no search reads them
    psi6, psi12 = _wiman_psi_low(phi6, phi12)
    # calibrate the square root of -15: the degree-12 conjugate factor built
    # with +s must vanish on the first triple orbit
    s = field.constant("s")
    p3 = config.class_by_label("E3a").representative
    upsilon = _upsilon(psi6, psi12, s)
    if not field.is_zero(upsilon.evaluate(p3)):
        s = field.neg(s)
        upsilon = _upsilon(psi6, psi12, s)
        if not field.is_zero(upsilon.evaluate(p3)):
            raise EngineError("neither square root of -15 matches the triple orbit")
    upsilon_bar = _upsilon(psi6, psi12, field.neg(s))
    v = _weighted_vars(field, WIMAN_WEIGHTS)
    return InvariantSet("wiman", field, config,
                        {6: phi6, 12: phi12, 30: phi30},
                        lambda: _wiman_psi(phi6, phi12, phi30, psi6, psi12),
                        _wiman_psi(*v, *_wiman_psi_low(*v[:2])),
                        extra={"s": s, "upsilon12": upsilon,
                               "upsilon12_bar": upsilon_bar})


def _upsilon(psi6, psi12, s):
    field = psi6.field
    c = field.div(field.add(field.coerce(15), s), field.coerce(60))
    return psi6 ** 2 - psi12.scale(c)


@lru_cache(maxsize=None)
def wiman_phi45(inv):
    """The degree-45 product of lines (expensive over the exact field, cached
    per invariant set; inv.phi keeps the three generators only)."""
    return jacobian_det(inv.phi[6], inv.phi[12], inv.phi[30])


def invariant_set(preset, field):
    if preset == "klein":
        return klein_invariants(field)
    if preset == "wiman":
        return wiman_invariants(field)
    raise ConfigError(f"no invariant theory for preset {preset!r}")


def is_invariant(config, f):
    """Exact check that every group generator fixes f."""
    return all(act_on_poly(g, f) == f for g in config.gens)


def identity_checks(inv):
    """The identities the invariants of one preset satisfy.  Klein: the
    degree-42 relation and the image of the triple point [1:1:1] under
    (phi4, phi6, phi14).  Wiman: the factorization of psi24 into the
    conjugate degree-12 forms, the frozen multiplicity matrix, and its
    kernel vector WIMAN_CURVE_90."""
    field = inv.field
    if inv.preset == "klein":
        rel = verify_klein_relation(inv)
        p = (field.one,) * 3
        return {
            "degree42_relation": {
                "holds": rel["holds"], "rederived": rel["rederived"],
                "coefficients": {str(k): v for k, v in rel["coefficients"].items()}},
            "image_of_triple_point": [field.fmt(inv.phi[d].evaluate(p))
                                      for d in (4, 6, 14)],
        }
    rows, s_used = wiman_multiplicity_matrix(inv)
    v = [field.coerce(c) for c in WIMAN_CURVE_90]
    return {
        "degree24_factorization": (inv.extra["upsilon12"] * inv.extra["upsilon12_bar"]
                                   == inv.psi[24]),
        "multiplicity_matrix_matches": rows == stated_multiplicity_matrix(field, s_used),
        "kernel_vector": all(field.is_zero(field.sum([field.mul(a, b)
                                                      for a, b in zip(row, v)]))
                             for row in rows),
    }


def verify_klein_relation(inv):
    """Check the degree-42 identity between the square of the line product
    and the algebra generators: it holds when the residual is zero.  On
    residual failure re-derive the coefficients by exact linear solve and
    report them, a diagnostic that does not make the frozen ones hold."""
    field = inv.field
    phi4, phi6, phi14, phi21 = inv.phi[4], inv.phi[6], inv.phi[14], inv.phi[21]
    mono_polys = {e: phi4 ** e[0] * phi6 ** e[1] * phi14 ** e[2]
                  for e in KLEIN_RELATION}
    combo = Poly.zero(field)
    for e, c in KLEIN_RELATION.items():
        combo = combo + mono_polys[e].scale(field.coerce(c))
    residual = phi21 ** 2 - combo
    report = {"holds": residual.is_zero(), "residual_zero": residual.is_zero(),
              "coefficients": dict(KLEIN_RELATION), "rederived": False}
    if not report["holds"]:
        solved = solve_klein_relation(inv)
        report["coefficients"] = solved
        report["rederived"] = True
    return report


def solve_klein_relation(inv):
    """Exact linear solve expressing the squared line product in the degree-42
    monomials of the generator algebra; independent of the frozen constants."""
    from kleinwiman.linalg import rref_field
    from kleinwiman.poly import weighted_basis

    field = inv.field
    exps = weighted_basis(KLEIN_WEIGHTS, 42)
    cols = [inv.phi[4] ** a * inv.phi[6] ** b * inv.phi[14] ** c
            for (a, b, c) in exps]
    rhs = inv.phi[21] ** 2
    monomials = sorted({m for f in cols + [rhs] for m in f.terms})
    rows = []
    for m in monomials:
        rows.append([f.terms.get(m, field.zero) for f in cols]
                    + [rhs.terms.get(m, field.zero)])
    rref, pivots = rref_field(rows, field)
    n = len(cols)
    if n in pivots:
        return None  # inconsistent
    sol = {}
    for i, c in enumerate(pivots):
        sol[exps[c]] = rref[i][n]
    for e in exps:
        sol.setdefault(e, field.zero)
    return sol


def degree0_constant(num_factors, den_factors, point):
    """Ratio of the leading local-expansion forms of two invariant monomials.

    num_factors / den_factors: lists of (Poly, exponent).  Both products must
    have the same weighted degree; the ratio of their lowest-order local
    forms at the point is a scalar when the two forms are proportional, which
    is exactly the situation this helper is specified for.  Returns 0 when
    the numerator vanishes to strictly higher order; raises when the
    denominator does.  Every factor is expanded to order 8, so its order of
    vanishing at the point must be below 8.
    """
    field = num_factors[0][0].field

    def leading(factors):
        order = 0
        form = Poly.constant(field, 1, 2, var_names=("u", "v"))
        for f, e in factors:
            t = local_expand(f, point, 8)
            k = t.order_of_vanishing()
            if k is None:
                raise EngineError("factor vanishes beyond the expansion cap")
            for _ in range(e):
                order += k
                form = form * t.leading_form()
        return order, form

    ord_n, form_n = leading(num_factors)
    ord_d, form_d = leading(den_factors)
    if form_d.is_zero():
        raise EngineError("denominator leading form vanishes identically")
    if ord_n > ord_d or form_n.is_zero():
        return field.zero
    if ord_n < ord_d:
        raise EngineError("numerator vanishes to lower order than denominator")
    key = next(iter(sorted(form_d.terms)))
    ratio = field.div(form_n.terms.get(key, field.zero), form_d.terms[key])
    for k2 in set(form_n.terms) | set(form_d.terms):
        lhs = form_n.terms.get(k2, field.zero)
        rhs = field.mul(ratio, form_d.terms.get(k2, field.zero))
        if lhs != rhs:
            raise EngineError("leading forms are not proportional")
    return ratio


def _klein_curve(p, field):
    """2 psi14^3 - 3 psi4 psi12^2 psi14 + psi6 psi12^3 on p (degree -> psi),
    local expansions or weighted polynomials alike."""
    two = field.coerce(2)
    three = field.coerce(3)
    return ((p[14] ** 3).scale(two) - (p[4] * p[12] ** 2 * p[14]).scale(three)
            + p[6] * p[12] ** 3)


def klein_curve_local(inv, point, order):
    """Local expansion of the degree-42 combination tuned to the triple points."""
    return _klein_curve({d: local_expand(inv.psi[d], point, order)
                         for d in (4, 6, 12, 14)}, inv.field)


def _wiman_curve(p, field):
    """The degree-90 combination with coefficients WIMAN_CURVE_90 on p
    (degree -> psi), local expansions or weighted polynomials alike."""
    c = [field.coerce(v) for v in WIMAN_CURVE_90]
    return ((p[30] ** 3).scale(c[0]) + (p[6] * p[24] * p[30] ** 2).scale(c[1])
            + (p[6] ** 2 * p[24] ** 2 * p[30]).scale(c[2])
            + (p[12] * p[24] ** 2 * p[30]).scale(c[3])
            + (p[6] * p[12] * p[24] ** 3).scale(c[4]))


def wiman_curve_local(inv, point, order):
    """Local expansion of the degree-90 combination with coefficients
    (4, -10, -20, 10, -5)."""
    return _wiman_curve({d: local_expand(inv.psi[d], point, order)
                         for d in (6, 12, 24, 30)}, inv.field)


def wiman_curve_in_generators(inv):
    """The degree-90 combination as a weighted polynomial in the generators."""
    return _wiman_curve(inv.psi_in_phi, inv.field)


def wiman_multiplicity_matrix(inv):
    """The 5x5 matrix of degree-0 constants whose kernel gives the degree-90
    combination: rows are the octuple conditions at the two triple orbits and
    the quadruple condition, scaled to clear denominators as (10, 5, 10, 5, 1).

    Returns (rows, s_used): s_used is the square root of -15 for which the
    first row reads [30, 10+2s, 1+s, 4s, 0]; it is the negative of the root
    pairing the vanishing degree-12 factor with the first triple orbit.
    """
    field = inv.field
    psi = inv.psi
    config = inv.config
    p3 = config.class_by_label("E3a").representative
    p3bar = config.class_by_label("E3b").representative
    p4 = config.class_by_label("E4").representative

    def row_pair(pt):
        a = degree0_constant([(psi[6], 1), (psi[24], 1)], [(psi[30], 1)], pt)
        b = degree0_constant([(psi[6], 2), (psi[24], 2)], [(psi[30], 2)], pt)
        c = degree0_constant([(psi[12], 1), (psi[24], 2)], [(psi[30], 2)], pt)
        d = degree0_constant([(psi[12], 1), (psi[24], 1)],
                             [(psi[6], 1), (psi[30], 1)], pt)
        r1 = [field.coerce(30), field.mul(field.coerce(20), a),
              field.mul(field.coerce(10), b), field.mul(field.coerce(10), c),
              field.zero]
        r2 = [field.zero, field.coerce(5), field.mul(field.coerce(10), a),
              field.mul(field.coerce(10), d), field.mul(field.coerce(15), c)]
        return r1, r2

    r1, r2 = row_pair(p3)
    r3, r4 = row_pair(p3bar)
    e = degree0_constant([(psi[12], 1), (psi[24], 1)],
                         [(psi[6], 1), (psi[30], 1)], p4)
    r5 = [field.zero, field.zero, field.one, field.zero, e]
    rows = [r1, r2, r3, r4, r5]
    # the first row is [30, 10+2s, 1+s, 4s, 0] for exactly one root s
    s_used = field.div(field.sub(rows[0][1], field.coerce(10)), field.coerce(2))
    return rows, s_used


def stated_multiplicity_matrix(field, s):
    """The frozen form of the 5x5 matrix over any field containing s^2=-15."""
    fe = field.coerce
    two_s = field.mul(fe(2), s)
    return [
        [fe(30), field.add(fe(10), two_s), field.add(field.one, s),
         field.mul(fe(4), s), field.zero],
        [field.zero, fe(5), field.add(fe(5), s),
         field.add(fe(15), field.mul(fe(5), s)), field.mul(fe(6), s)],
        [fe(30), field.sub(fe(10), two_s), field.sub(field.one, s),
         field.neg(field.mul(fe(4), s)), field.zero],
        [field.zero, fe(5), field.sub(fe(5), s),
         field.sub(fe(15), field.mul(fe(5), s)),
         field.neg(field.mul(fe(6), s))],
        [field.zero, field.zero, field.one, field.zero, fe(-4)],
    ]
