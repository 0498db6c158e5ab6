"""Reference-value suites: every check compares engine output against the
recorded value and reports one pass/fail line."""

from fractions import Fraction

from kleinwiman.fields import WIMAN_PRIME, preset_field


def _check(name, got, want):
    return {"name": name, "pass": got == want, "detail": f"got {got}, want {want}"}


def _check_true(name, got, detail=""):
    return {"name": name, "pass": bool(got), "detail": detail or f"got {got}"}


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
    from kleinwiman.fatideals import (PointSet, jacobian_minor_generators,
                                      membership, minimal_generators,
                                      power_piece, symbolic_piece,
                                      vanishes_to_order)
    from kleinwiman.groups import stabilizer_order
    from kleinwiman.invariants import (degree0_constant, klein_curve_local,
                                       klein_invariants, verify_klein_relation)
    from kleinwiman.poly import hessian_det
    from kleinwiman.series import SeriesSpec, dim_t, edim, series_dim

    out = []
    KE = preset_field("klein-exact")
    Kp = preset_field("klein-mod4733")
    cfg = build_klein(KE)
    out.append(_check("klein line count", cfg.num_lines, 21))
    out.append(_check("klein class sizes", cfg.class_sizes(), [21, 28]))
    out.append(_check("klein group order", cfg.group.order, 168))
    quad, trip = cfg.classes
    out.append(_check("quadruple stabilizer", stabilizer_order(cfg.group,
                                                               quad.representative), 8))
    out.append(_check("triple stabilizer", stabilizer_order(cfg.group,
                                                            trip.representative), 6))
    inv = klein_invariants(KE)
    out.append(_check_true("hessian normalization",
                           hessian_det(inv.phi[4]) == inv.phi[6].scale(KE.coerce(-54)),
                           "H of the quartic is -54 times the sextic"))
    p = (1, 1, 1)
    out.append(_check("invariant image of [1:1:1]",
                      [KE.fmt(inv.phi[d].evaluate(p)) for d in (4, 6, 14)],
                      ["3", "-2", "-48"]))
    rel = verify_klein_relation(inv)
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
    wb = waldschmidt_bounds("klein", Kp, curve_only=True)
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
                           sp8.dim == 3 and all(membership(m, sp8) for m in minors)))
    out.append(_check_true("line product in symbolic cube",
                           vanishes_to_order(invp.phi[21], ps, 3)))
    out.append(_check_true("line product outside the square",
                           not membership(invp.phi[21], power_piece(gens, 2, 21))))
    return out


def wiman_core_checks():
    from kleinwiman.configs import build_wiman
    from kleinwiman.divisors import (DivisorClass, line_class, self_int,
                                     verify_divisor_identity, waldschmidt_bounds,
                                     WIMAN_NEF_CANDIDATE)
    from kleinwiman.fatideals import (PointSet, jacobian_minor_generators,
                                      membership, minimal_generators,
                                      power_piece, symbolic_piece,
                                      vanishes_to_order)
    from kleinwiman.invariants import (stated_multiplicity_matrix,
                                       wiman_curve_local, wiman_invariants,
                                       wiman_multiplicity_matrix, wiman_phi45)
    from kleinwiman.series import SeriesSpec, dim_t, edim, series_dim

    out = []
    Wp = preset_field("modp", WIMAN_PRIME)
    cfg = build_wiman(Wp)
    out.append(_check("wiman line count", cfg.num_lines, 45))
    out.append(_check("wiman class sizes", cfg.class_sizes(), [36, 45, 60, 60]))
    out.append(_check("valentiner group order", cfg.group.order, 1080))
    out.append(_check("projective group order", cfg.group.projective_order, 360))
    inv = wiman_invariants(Wp)
    out.append(_check_true("degree-24 factorization",
                           inv.extra["upsilon12"] * inv.extra["upsilon12_bar"]
                           == inv.psi[24]))
    rows, s_used = wiman_multiplicity_matrix(inv)
    out.append(_check_true("multiplicity matrix matches",
                           rows == stated_multiplicity_matrix(Wp, s_used)))
    v = [Wp.coerce(c) for c in (4, -10, -20, 10, -5)]
    out.append(_check_true("matrix kernel vector",
                           all(Wp.is_zero(Wp.sum([Wp.mul(rows[i][j], v[j])
                                                  for j in range(5)]))
                               for i in range(5))))
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
    gens = minimal_generators(ps, 18)
    out.append(_check("minimal generators by degree",
                      {d: len(v) for d, v in gens.by_degree.items()}, {16: 3}))
    minors = jacobian_minor_generators(inv.phi[6], inv.phi[12])
    sp16 = symbolic_piece(ps, 1, 16)
    out.append(_check_true("minors span the degree-16 piece",
                           sp16.dim == 3 and all(membership(m, sp16)
                                                 for m in minors)))
    f45 = wiman_phi45(inv)
    gens29 = minimal_generators(ps, 29)
    out.append(_check_true("line product in symbolic cube",
                           vanishes_to_order(f45, ps, 3)))
    out.append(_check_true("line product outside the square",
                           not membership(f45, power_piece(gens29, 2, 45))))
    return out


def char7_checks():
    from kleinwiman.configs import build_klein_char7
    from kleinwiman.fatideals import (PointSet, alpha_symbolic,
                                      containment_report, line_product,
                                      membership, minimal_generators,
                                      power_piece, symbolic_piece,
                                      vanishes_to_order)

    out = []
    cfg = build_klein_char7()
    out.append(_check("char-7 line count", cfg.num_lines, 21))
    out.append(_check("char-7 class sizes", cfg.class_sizes(), [21, 28]))
    out.append(_check("conic point count", len(cfg.aux["conic_points"]), 8))
    ps = PointSet.from_config(cfg)
    out.append(_check("alpha of the ideal", alpha_symbolic(ps, 1), 8))
    gens = minimal_generators(ps, 13)
    out.append(_check("omega of the ideal", gens.omega, 9))
    F = line_product(cfg)
    out.append(_check_true("line product in symbolic cube",
                           vanishes_to_order(F, ps, 3)))
    out.append(_check_true("line product outside the square",
                           not membership(F, power_piece(gens, 2, 21))))
    rep23 = containment_report(ps, 2, 3, 20, gens=gens)
    out.append(_check("(2,3) failure witness degree", rep23.get("witness_degree"),
                      16))
    rep32 = containment_report(ps, 3, 2, 30, gens=gens)
    out.append(_check("(3,2) failure witness degree", rep32.get("witness_degree"),
                      21))
    a8 = alpha_symbolic(ps, 8, cap=55)
    out.append(_check("alpha of the 8th symbolic power", a8, 50))
    out.append(_check("asymptotic resurgence bounds",
                      [str(Fraction(8 * 8, 50)), str(Fraction(9 * 8, 50))],
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
