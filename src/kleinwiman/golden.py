"""Reference-value suites: every check compares engine output against the
recorded value and reports one pass/fail line."""

from fractions import Fraction

from kleinwiman.fields import WIMAN_PRIME, preset_field


def _check(name, got, want):
    return {"name": name, "pass": got == want, "detail": f"got {got}, want {want}"}


def _check_true(name, got, detail=""):
    return {"name": name, "pass": bool(got), "detail": detail or f"got {got}"}


def _extreme_failure_checks(failure):
    """The pass/fail lines of fatideals.extreme_failure."""
    return [_check_true("line product in symbolic cube",
                        failure["in_symbolic_cube"]),
            _check_true("line product outside the square",
                        not failure["in_square"])]


def _guard(fn):
    try:
        return fn()
    except Exception as e:  # surface the failure instead of aborting the suite
        return [{"name": fn.__name__, "pass": False, "detail": f"error: {e}"}]


def klein_core_checks():
    from kleinwiman.configs import build_klein
    from kleinwiman.divisors import (klein_dk, line_class, negative_curve_search,
                                     self_int, verify_divisor_identity,
                                     waldschmidt_bounds, DivisorClass)
    from kleinwiman.fatideals import (PointSet, extreme_failure,
                                      jacobian_minor_generators, line_product,
                                      minimal_generators, symbolic_piece)
    from kleinwiman.groups import klein_group, stabilizer_order
    from kleinwiman.invariants import (degree0_constant, identity_checks,
                                       klein_curve_local, klein_invariants)
    from kleinwiman.poly import hessian_det
    from kleinwiman.series import SeriesSpec, dim_t, edim, series_dim

    out = []
    KE = preset_field("klein-exact")
    Kp = preset_field("klein-mod4733")
    cfg = build_klein(KE)
    out.append(_check("klein line count", cfg.num_lines, 21))
    out.append(_check("klein class sizes", cfg.class_sizes(), [21, 28]))
    group = klein_group(KE)
    out.append(_check("klein group order", group.order, 168))
    quad, trip = cfg.classes
    out.append(_check("quadruple stabilizer",
                      stabilizer_order(group, quad.representative), 8))
    out.append(_check("triple stabilizer",
                      stabilizer_order(group, trip.representative), 6))
    inv = klein_invariants(KE)
    out.append(_check_true("hessian normalization",
                           hessian_det(inv.phi[4]) == inv.phi[6].scale(KE.coerce(-54)),
                           "H of the quartic is -54 times the sextic"))
    ids = identity_checks(inv)
    out.append(_check("invariant image of [1:1:1]", ids["image_of_triple_point"],
                      ["3", "-2", "-48"]))
    rel = ids["degree42_relation"]
    out.append(_check_true("degree-42 relation", rel["holds"],
                           f"rederived={rel['rederived']}"))
    from kleinwiman.configs import line_coeffs, points_on_line
    on_lines = all(KE.is_zero(inv.phi[21].evaluate(pt))
                   for line in cfg.lines[:21]
                   for pt in points_on_line(KE, line_coeffs(line)))
    out.append(_check_true("line product vanishes on all lines", on_lines))
    out.append(_check("dim T_18", dim_t("klein", 18), 3))
    out.append(_check("dim T_42", dim_t("klein", 42), 9))
    out.append(_check("dim T_18(-4E4)",
                      series_dim(SeriesSpec("klein", 18, m4=4), KE), 1))
    out.append(_check("dim T_42(-8E3)",
                      series_dim(SeriesSpec("klein", 42, m3=8), KE), 1))
    out.append(_check("edim T_42(-8E3)", edim(SeriesSpec("klein", 42, m3=8)), 1))
    p = (1, 1, 1)
    c1 = degree0_constant([(inv.psi[4], 1), (inv.psi[12], 2)],
                          [(inv.psi[14], 2)], p)
    c2 = degree0_constant([(inv.psi[6], 1), (inv.psi[12], 1)],
                          [(inv.psi[4], 1), (inv.psi[14], 1)], p)
    out.append(_check("triple-point ratios", [KE.fmt(c1), KE.fmt(c2)], ["2", "2"]))
    out.append(_check("degree-42 curve multiplicity at [1:1:1]",
                      klein_curve_local(inv, p, 9).order_of_vanishing(), 8))
    ledger = negative_curve_search("klein", Kp, 60)
    out.append(_check("negative-curve ledger to degree 60",
                      [c.as_text() for c in ledger],
                      ["21H - 4E4 - 3E3", "18H - 4E4", "42H - 8E3"]))
    out.append(_check("line class self-intersection",
                      self_int(line_class("klein")), -147))
    out.append(_check_true("nef identity 8A + 7B = 7D",
                           verify_divisor_identity(
                               [(8, line_class("klein")),
                                (7, DivisorClass.make("klein", 42, 0, 8))],
                               [(7, klein_dk(Fraction(16, 7)))])))
    wb = waldschmidt_bounds("klein", Kp)
    out.append(_check("waldschmidt lower (curve route)", wb["lower"],
                      Fraction(58, 9)))
    out.append(_check("waldschmidt upper", wb["upper"], Fraction(13, 2)))
    invp = klein_invariants(Kp)
    cfgp = build_klein(Kp)
    ps = PointSet.from_config(cfgp)
    gens = minimal_generators(ps, 13)
    out.append(_check("minimal generators by degree",
                      {d: len(v) for d, v in gens.by_degree.items()}, {8: 3}))
    minors = jacobian_minor_generators(invp.phi[4], invp.phi[6])
    sp8 = symbolic_piece(ps, 1, 8)
    out.append(_check_true("minors span the degree-8 piece",
                           sp8.dim == 3 and all(sp8.contains_poly(m) for m in minors)))
    out.extend(_extreme_failure_checks(extreme_failure(ps, gens,
                                                      line_product(cfgp))))
    return out


def wiman_core_checks():
    from kleinwiman.configs import build_wiman
    from kleinwiman.divisors import (DivisorClass, line_class, self_int,
                                     verify_divisor_identity, waldschmidt_bounds,
                                     WIMAN_NEF_CANDIDATE)
    from kleinwiman.fatideals import (PointSet, extreme_failure,
                                      jacobian_minor_generators, line_product,
                                      minimal_generators, symbolic_piece)
    from kleinwiman.groups import valentiner_group
    from kleinwiman.invariants import (identity_checks, wiman_curve_local,
                                       wiman_invariants)
    from kleinwiman.series import SeriesSpec, dim_t, edim, series_dim

    out = []
    Wp = preset_field("modp", WIMAN_PRIME)
    cfg = build_wiman(Wp)
    out.append(_check("wiman line count", cfg.num_lines, 45))
    out.append(_check("wiman class sizes", cfg.class_sizes(), [36, 45, 60, 60]))
    group = valentiner_group(Wp)
    out.append(_check("valentiner group order", group.order, 1080))
    out.append(_check("projective group order", group.projective_order, 360))
    inv = wiman_invariants(Wp)
    ids = identity_checks(inv)
    out.append(_check_true("degree-24 factorization", ids["degree24_factorization"]))
    out.append(_check_true("multiplicity matrix matches",
                           ids["multiplicity_matrix_matches"]))
    out.append(_check_true("matrix kernel vector", ids["kernel_vector"]))
    out.append(_check("dim T_90", dim_t("wiman", 90), 18))
    spec = SeriesSpec("wiman", 90, m4=4, m3=8)
    out.append(_check("dim T_90(-4E4-8E3)", series_dim(spec, Wp), 1))
    out.append(_check("edim T_90(-4E4-8E3)", edim(spec), 0))
    p4 = cfg.class_by_label("E4").representative
    p3a = cfg.class_by_label("E3a").representative
    p3b = cfg.class_by_label("E3b").representative
    out.append(_check("degree-90 curve multiplicities",
                      [wiman_curve_local(inv, p4, 5).order_of_vanishing(),
                       wiman_curve_local(inv, p3a, 9).order_of_vanishing(),
                       wiman_curve_local(inv, p3b, 9).order_of_vanishing()],
                      [4, 8, 8]))
    out.append(_check("line class self-intersection",
                      self_int(line_class("wiman")), -675))
    out.append(_check_true("nef identity 2A + 3B = 10D",
                           verify_divisor_identity(
                               [(2, line_class("wiman")),
                                (3, DivisorClass.make("wiman", 90, 0, 4, 8))],
                               [(10, WIMAN_NEF_CANDIDATE)])))
    wb = waldschmidt_bounds("wiman", Wp)
    out.append(_check("waldschmidt exact value", wb["exact"], Fraction(27, 2)))
    ps = PointSet.from_config(cfg)
    gens = minimal_generators(ps, 29)
    out.append(_check("minimal generators by degree",
                      {d: len(v) for d, v in gens.by_degree.items()}, {16: 3}))
    minors = jacobian_minor_generators(inv.phi[6], inv.phi[12])
    sp16 = symbolic_piece(ps, 1, 16)
    out.append(_check_true("minors span the degree-16 piece",
                           sp16.dim == 3 and all(sp16.contains_poly(m)
                                                 for m in minors)))
    out.extend(_extreme_failure_checks(extreme_failure(ps, gens,
                                                      line_product(cfg))))
    return out


def char7_checks():
    from kleinwiman.configs import build_klein_char7
    from kleinwiman.fatideals import (PointSet, alpha_symbolic,
                                      asymptotic_resurgence_bounds,
                                      containment_report, extreme_failure,
                                      line_product, minimal_generators)

    out = []
    cfg = build_klein_char7()
    out.append(_check("char-7 line count", cfg.num_lines, 21))
    out.append(_check("char-7 class sizes", cfg.class_sizes(), [21, 28]))
    out.append(_check("conic point count", len(cfg.aux["conic_points"]), 8))
    ps = PointSet.from_config(cfg)
    out.append(_check("alpha of the ideal", alpha_symbolic(ps, 1), 8))
    gens = minimal_generators(ps, 13)
    out.append(_check("omega of the ideal", gens.omega, 9))
    out.extend(_extreme_failure_checks(extreme_failure(ps, gens,
                                                      line_product(cfg))))
    rep23 = containment_report(ps, 2, 3, 20, gens=gens)
    out.append(_check("(2,3) failure witness degree", rep23.get("witness_degree"),
                      16))
    rep32 = containment_report(ps, 3, 2, 30, gens=gens)
    out.append(_check("(3,2) failure witness degree", rep32.get("witness_degree"),
                      21))
    a8 = alpha_symbolic(ps, 8, cap=55)
    out.append(_check("alpha of the 8th symbolic power", a8, 50))
    bounds = asymptotic_resurgence_bounds(gens.alpha, gens.omega,
                                          Fraction(a8, 8), Fraction(a8, 8))
    out.append(_check("asymptotic resurgence bounds",
                      [str(bounds["lower"]), str(bounds["upper"])],
                      ["32/25", "36/25"]))
    return out


SUITES = {
    "klein-core": klein_core_checks,
    "wiman-core": wiman_core_checks,
    "char7": char7_checks,
}


def run_suite(name):
    if name == "all":
        checks = []
        for fn in SUITES.values():
            checks.extend(_guard(fn))
        return checks
    if name not in SUITES:
        from kleinwiman.errors import UsageError
        raise UsageError(f"unknown suite {name!r}")
    return _guard(SUITES[name])
