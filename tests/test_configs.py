import dataclasses
import hashlib

import numpy as np
import pytest

from kleinwiman import configs, groups
from kleinwiman.configs import (LineConfiguration, OrbitClass,
                                _pick_representative, build_config, build_klein,
                                build_wiman, line_coeffs, point_on_line,
                                projective_zero_locus, verify_orbit_decomposition)
from kleinwiman.errors import ConfigError, UsageError
from kleinwiman.fields import (WIMAN_PRIME, PrimeField, SimpleExtension,
                               preset_field)
from kleinwiman.groups import act_on_point
from kleinwiman.poly import Poly, normalize_point

# sha256 of the newline-joined texts of the 45 Wiman lines over Q(sqrt5, omega)
# in the order build_config returns them (the order of `config show`)
WIMAN_EXACT_LINES_SHA256 = (
    "7c5ff97fbae62f211270e0c518ac12975041cf182ea2e3abeabc812c2409c087")


@pytest.mark.parametrize("build, field, ngens, nlines", [
    (build_klein, ("klein-exact",), 3, 21),
    (build_klein, ("klein-mod4733",), 3, 21),
    (build_wiman, ("wiman-exact",), 4, 45),
    (build_wiman, ("modp", WIMAN_PRIME), 4, 45),
], ids=["klein-exact", "klein-modp", "wiman-exact", "wiman-modp"])
def test_build_closes_no_group(monkeypatch, build, field, ngens, nlines):
    """A build reads its group through the generators alone: with the closure
    made to fail, an uncached build still succeeds and audits clean."""
    def no_closure(*args, **kwargs):
        raise AssertionError("the build closed the group")

    monkeypatch.setattr(groups, "generate_group", no_closure)
    cfg = build.__wrapped__(preset_field(*field))
    assert len(cfg.gens) == ngens and cfg.num_lines == nlines
    assert verify_orbit_decomposition(cfg)["ok"]


def test_klein_counts(klein_config_exact):
    assert klein_config_exact.num_lines == 21
    assert klein_config_exact.class_sizes() == [21, 28]
    assert len(klein_config_exact.all_points()) == 49


def test_klein_triple_point_is_one_one_one(klein_config_exact):
    f = klein_config_exact.field
    one = f.one
    assert (one, one, one) in set(klein_config_exact.classes[1].points)


def test_klein_quad_rep_matches_chart_constants(klein_config_exact):
    f = klein_config_exact.field
    z = f.constant("zeta")
    expected = (f.add(f.pow(z, 4), f.one),
                f.neg(f.add(f.add(f.pow(z, 5), f.pow(z, 3)), z)),
                f.one)
    assert klein_config_exact.classes[0].representative == expected


def test_klein_requires_seventh_root():
    with pytest.raises(ConfigError) as err:
        build_klein(preset_field("modp", 11))
    assert "zeta" in str(err.value)


def test_wiman_counts(wiman_config_modp):
    assert wiman_config_modp.num_lines == 45
    assert wiman_config_modp.class_sizes() == [36, 45, 60, 60]
    assert len(wiman_config_modp.all_points()) == 201


def test_wiman_coordinate_points_are_quadruple(wiman_config_modp):
    f = wiman_config_modp.field
    quads = set(wiman_config_modp.class_by_label("E4").points)
    assert (f.one, f.zero, f.zero) in quads
    assert (f.zero, f.zero, f.one) in quads


def test_wiman_each_line_has_16_points(wiman_config_modp):
    f = wiman_config_modp.field
    for line in wiman_config_modp.lines:
        lc = line_coeffs(line)
        per_class = [sum(1 for p in c.points if point_on_line(f, p, lc))
                     for c in wiman_config_modp.classes]
        assert per_class == [4, 4, 4, 4]


def test_char7_structure(char7_config):
    cfg = char7_config
    assert cfg.num_lines == 21
    assert cfg.class_sizes() == [21, 28]
    assert len(cfg.aux["conic_points"]) == 8
    assert len(cfg.aux["tangent_forms"]) == 8
    # the triple points are exactly the pairwise intersections of the tangents
    f = cfg.field
    from kleinwiman.configs import line_intersection
    tangents = [line_coeffs(t) for t in cfg.aux["tangent_forms"]]
    star = set()
    for i in range(8):
        for j in range(i + 1, 8):
            star.add(line_intersection(f, tangents[i], tangents[j]))
    assert star == set(cfg.class_by_label("E3").points)


def test_multiplicity_audit_all_presets(klein_config_exact, wiman_config_modp,
                                        char7_config):
    for cfg in (klein_config_exact, wiman_config_modp, char7_config):
        rep = verify_orbit_decomposition(cfg)
        assert rep["ok"], rep
        assert rep["pairwise_coverage"]


def _with_classes(cfg, *point_lists, lines=None):
    """A copy of cfg whose classes hold these point lists, in order; each
    keeps the multiplicity and label of cfg's class at its place, or of the
    last class past the end."""
    classes = [dataclasses.replace(cfg.classes[min(i, len(cfg.classes) - 1)],
                                   points=pts)
               for i, pts in enumerate(point_lists)]
    return dataclasses.replace(cfg, classes=classes,
                               lines=cfg.lines if lines is None else lines)


def test_coverage_audit_reads_no_intersection(monkeypatch, klein_config_exact,
                                              wiman_config_modp, char7_config):
    """Coverage is counted from the incidences: with line_intersection made
    to fail, the audit of a built configuration still passes."""
    def no_intersection(*args, **kwargs):
        raise AssertionError("the audit intersected two lines")

    monkeypatch.setattr(configs, "line_intersection", no_intersection)
    for cfg in (klein_config_exact, wiman_config_modp, char7_config):
        rep = verify_orbit_decomposition(cfg)
        assert rep["ok"] and rep["pairwise_coverage"], rep


def test_coverage_fails_for_a_dropped_point(char7_config):
    """One triple point fewer: every multiplicity holds, but the pairs
    through the class points count 207 of the C(21, 2) = 210."""
    e4, e3 = (c.points for c in char7_config.classes)
    rep = verify_orbit_decomposition(_with_classes(char7_config, e4, e3[1:]))
    assert [c["multiplicity_audit"] for c in rep["classes"]] == ["ok", "ok"]
    assert not rep["pairwise_coverage"] and not rep["ok"]


def test_coverage_fails_for_a_duplicated_line(char7_config):
    """A line listed twice, once rescaled, is not a new line: the audit
    reports it instead of raising."""
    f = char7_config.field
    extra = char7_config.lines[0].scale(f.coerce(3))
    cfg = _with_classes(char7_config, *(c.points for c in char7_config.classes),
                        lines=char7_config.lines + [extra])
    rep = verify_orbit_decomposition(cfg)
    assert not rep["pairwise_coverage"] and not rep["ok"]
    # the lines x, y, 3x through [0:0:1]: the count C(3, 2) = 3 and the
    # multiplicity hold, the distinctness of the lines does not
    x, y = (Poly.variable(f, i) for i in range(2))
    point = (f.zero, f.zero, f.one)
    cfg = LineConfiguration("klein-char7", f, [x, y, x.scale(f.coerce(3))],
                            [OrbitClass(3, "P", [point], point, 2)])
    rep = verify_orbit_decomposition(cfg)
    assert rep["classes"][0]["multiplicity_audit"] == "ok"
    assert not rep["pairwise_coverage"] and not rep["ok"]


def test_coverage_fails_for_a_point_in_two_classes(char7_config):
    """The triple points split in two classes that share one point and miss
    another: the multiplicities and the count of pairs still hold, the
    distinctness of the points does not, also when the second copy is
    rescaled."""
    f = char7_config.field
    e4, e3 = (c.points for c in char7_config.classes)
    for copy in (e3[0], tuple(f.mul(3, c) for c in e3[0])):
        cfg = _with_classes(char7_config, e4, e3[:14], e3[14:-1] + [copy])
        rep = verify_orbit_decomposition(cfg)
        assert [c["multiplicity_audit"] for c in rep["classes"]] == ["ok"] * 3
        assert not rep["pairwise_coverage"] and not rep["ok"]


def test_coverage_fails_for_a_point_on_no_line(char7_config):
    """A conic point added to the triple points adds no pair to the count;
    that it lies on fewer than two lines is what fails."""
    e4, e3 = (c.points for c in char7_config.classes)
    extra = char7_config.aux["conic_points"][0]
    rep = verify_orbit_decomposition(
        _with_classes(char7_config, e4, e3 + [extra]))
    assert rep["classes"][1]["multiplicity_audit"] == \
        f"point {extra} lies on 0 lines"
    assert not rep["pairwise_coverage"] and not rep["ok"]


def test_multiplicity_audit_names_the_first_moved_point(char7_config):
    """Two triple points moved onto the conic, which no line meets: the
    audit names the first of them, in the same words as before."""
    e4, e3 = (c.points for c in char7_config.classes)
    conic = char7_config.aux["conic_points"]
    moved = list(e3)
    moved[5], moved[9] = conic[0], conic[1]
    rep = verify_orbit_decomposition(_with_classes(char7_config, e4, moved))
    assert rep["classes"][0]["multiplicity_audit"] == "ok"
    assert rep["classes"][1]["multiplicity_audit"] == \
        f"point {conic[0]} lies on 0 lines"
    assert not rep["pairwise_coverage"] and not rep["ok"]


def test_generators_permute_classes(klein_config_exact):
    g = klein_config_exact.gens[2]
    for cls in klein_config_exact.classes:
        pts = set(cls.points)
        assert {act_on_point(g, p) for p in pts} == pts


def test_special_orbits_klein():
    # rationality of the special orbits depends on the prime: the 56-point
    # orbit is not rational mod 4733, so the scan runs over 2311, which
    # splits both orbits
    cfg = build_klein(preset_field("modp", 2311))
    rep = verify_orbit_decomposition(cfg, check_special=True)
    assert rep["ok"], rep
    counts = {k: v["count"] for k, v in rep["special_orbits"].items()}
    assert counts == {"phi4^phi6": 24, "phi4^phi14": 56}


def test_special_orbit_scan_once_per_form(monkeypatch):
    """Both Klein pairs start from phi4: its zero locus is scanned once."""
    scanned = []

    def counting_scan(f):
        scanned.append(f.degree())
        return projective_zero_locus(f)

    monkeypatch.setattr(configs, "projective_zero_locus", counting_scan)
    rep = verify_orbit_decomposition(build_klein(preset_field("modp", 2311)),
                                     check_special=True)
    assert rep["ok"] and scanned == [4]


def test_special_orbits_wiman(wiman_config_modp):
    rep = verify_orbit_decomposition(wiman_config_modp, check_special=True)
    assert rep["ok"], rep
    assert rep["special_orbits"]["phi6^phi12"]["count"] == 72


def test_zero_locus_scan_counts(klein_inv_modp):
    # a smooth quartic over F_p has about p rational points; the scan must
    # agree with direct evaluation on a sample
    locus = projective_zero_locus(klein_inv_modp.phi[4])
    f = klein_inv_modp.field
    assert all(f.is_zero(klein_inv_modp.phi[4].evaluate(p)) for p in locus[:20])
    assert len(locus) > 4000


def test_representative_off_the_line_z0(klein_modp):
    """A class whose points all lie on z = 0 has no representative in the
    chart z = 1: an error, not a silent fallback to its first point."""
    assert _pick_representative(klein_modp, [(1, 0, 0), (2, 1, 1)]) == (2, 1, 1)
    with pytest.raises(ConfigError, match="off the line z = 0"):
        _pick_representative(klein_modp, [(1, 0, 0), (3, 1, 0)])


def test_build_config_dispatch():
    """build_config only dispatches: each call returns the object its
    builder keeps, so a set-up that builds a configuration warms it."""
    assert build_config("klein-char7").preset == "klein-char7"
    assert build_config("klein-char7") is build_config("klein-char7")
    assert (build_config("klein", preset_field("klein-exact"))
            is build_config("klein", preset_field("klein-exact"))
            is build_config("klein"))
    with pytest.raises(ConfigError):
        build_config("fermat")


def test_wiman_exact_line_order():
    """The orbit of lines is sorted by the field's sort_key on each
    coefficient, so the order does not depend on how elements are stored."""
    cfg = build_config("wiman", preset_field("wiman-exact"))
    text = "\n".join(line.text() for line in cfg.lines)
    assert hashlib.sha256(text.encode()).hexdigest() == WIMAN_EXACT_LINES_SHA256


# -- the residue route against the exact brute force -------------------------

def _brute_classes(field, lines):
    """Pairwise exact intersections grouped by the number of lines through
    them, each group sorted: the classification without residues."""
    coeffs = [line_coeffs(line) for line in lines]
    incidence = {}
    for i in range(len(coeffs)):
        for j in range(i + 1, len(coeffs)):
            point = configs.line_intersection(field, coeffs[i], coeffs[j])
            incidence.setdefault(point, set()).update((i, j))
    by_mult = {}
    for point, inc in incidence.items():
        by_mult.setdefault(len(inc), []).append(point)
    return {m: sorted(pts, key=lambda q: tuple(field.sort_key(c) for c in q))
            for m, pts in by_mult.items()}


def _brute_incidences(field, coeffs, points):
    return [[i for i, c in enumerate(coeffs) if point_on_line(field, q, c)]
            for q in points]


def _exact_route(monkeypatch):
    """Take every residue away: each incidence, class and orbit is then
    found by exact arithmetic alone."""
    monkeypatch.setattr(configs, "residues", lambda field, vectors: (
        None, np.zeros((len(vectors), 3), dtype=np.int64),
        np.zeros(len(vectors), dtype=bool)))


@pytest.mark.parametrize("preset, field", [
    ("klein", ("klein-exact",)),
    ("wiman", ("wiman-exact",)),
    ("klein", ("klein-mod4733",)),
    ("wiman", ("modp", WIMAN_PRIME)),
    ("klein-char7", ()),
], ids=["klein-exact", "wiman-exact", "klein-4733", "wiman-4951", "klein-char7"])
def test_residue_route_matches_brute_force(monkeypatch, preset, field):
    """Incidences, classes and orbits found mod p and confirmed exactly are
    the ones point_on_line on every pair, line_intersection on every pair
    of lines and groups.orbit give; each orbit is read by the walk alone."""
    cfg = build_config(preset, preset_field(*field) if field else None)
    f = cfg.field
    coeffs = [line_coeffs(line) for line in cfg.lines]
    points = cfg.all_points()
    assert configs.incident_lines(f, coeffs, points) == \
        _brute_incidences(f, coeffs, points)
    assert configs.classify_points(f, cfg.lines) == _brute_classes(f, cfg.lines)
    orbits = [set(groups.orbit(cfg.gens, cls.representative))
              for cls in cfg.classes] if cfg.gens else []
    monkeypatch.setattr(configs, "orbit", _no_orbit)
    for cls, expected in zip(cfg.classes, orbits):
        assert configs._orbit_in(cfg.gens, cls.representative, cls.points) \
            == expected == set(cls.points)


def _no_orbit(*args, **kwargs):
    raise AssertionError("the orbit was not read over the set's points")


def _congruent_copy(field, point):
    """A point in normal form that differs from `point` exactly and agrees
    with it at the partner prime: p added to its first coordinate."""
    p = field.partner_prime
    moved = (field.add(point[0], field.coerce(p)),) + tuple(point[1:])
    assert moved != point and point[2] == field.one
    assert [field.reduce(c) for c in moved] == [field.reduce(c) for c in point]
    return moved


def test_congruent_point_fails_the_audit(monkeypatch, klein_config_exact):
    """A quadruple point replaced by a point congruent to it mod 4733: its
    residues pair to zero with its four lines, and neither the incidence nor
    the orbit survives exact confirmation."""
    cfg = klein_config_exact
    f = cfg.field
    e4, e3 = (list(c.points) for c in cfg.classes)
    k = next(k for k, q in enumerate(e4) if q != cfg.classes[0].representative)
    e4[k] = _congruent_copy(f, e4[k])
    mutated = _with_classes(cfg, e4, e3)
    rep = verify_orbit_decomposition(mutated)
    assert rep["classes"][0]["multiplicity_audit"] != "ok"
    assert rep["classes"][0]["single_orbit"] is False and not rep["ok"]
    # no walk over the class confirms the moved point: groups.orbit answers
    monkeypatch.setattr(configs, "orbit", _no_orbit)
    with pytest.raises(AssertionError, match="not read over"):
        configs._orbit_in(cfg.gens, e4[0], e4)
    monkeypatch.setattr(configs, "orbit", groups.orbit)
    _exact_route(monkeypatch)
    assert verify_orbit_decomposition(mutated) == rep


def test_points_equal_mod_p_take_the_exact_route(monkeypatch, klein_config_exact):
    """Two class points that agree mod p, and two lines that do: the
    residue route gives the exact route's incidences, classes and
    verdicts."""
    cfg = klein_config_exact
    f = cfg.field
    e4, e3 = (list(c.points) for c in cfg.classes)
    extra = _congruent_copy(f, e3[3])
    coeffs = [line_coeffs(line) for line in cfg.lines]
    assert configs.incident_lines(f, coeffs, e3 + [extra]) == \
        _brute_incidences(f, coeffs, e3 + [extra])
    # the walk confirms e3[3] and never its copy: the orbit is the 28 points
    with monkeypatch.context() as m:
        m.setattr(configs, "orbit", _no_orbit)
        assert configs._orbit_in(cfg.gens, e3[0], e3 + [extra]) == set(e3)
    line = cfg.lines[0] + Poly.variable(f, 0).scale(f.coerce(f.partner_prime))
    lines = cfg.lines + [line]
    new_classes = configs.classify_points(f, lines)
    assert new_classes == _brute_classes(f, lines)
    mutated = [_with_classes(cfg, e4, e3 + [extra]),
               _with_classes(cfg, e4, e3, lines=lines)]
    reports = [verify_orbit_decomposition(m) for m in mutated]
    assert reports[0]["classes"][1]["single_orbit"] is False
    assert not reports[1]["pairwise_coverage"]
    _exact_route(monkeypatch)
    assert configs.classify_points(f, lines) == new_classes
    assert [verify_orbit_decomposition(m) for m in mutated] == reports


@pytest.mark.parametrize("config", ["klein_config_exact", "wiman_config_modp"])
def test_points_not_in_normal_form_keep_the_orbit_verdict(request, config):
    """A class point rescaled by 3, or over F_p with p added to a
    coordinate, is not in normal form: single_orbit is today's verdict, the
    orbit of the representative against the class as tuples."""
    cfg = request.getfixturevalue(config)
    f = cfg.field
    moves = [lambda q: tuple(f.mul(f.coerce(3), c) for c in q)]
    if isinstance(f, PrimeField):
        moves.append(lambda q: (q[0] + f.p,) + q[1:])
    for move in moves:
        for k in (0, 1):
            points = [list(c.points) for c in cfg.classes]
            points[-1][k] = move(points[-1][k])
            mutated = _with_classes(cfg, *points)
            cls = mutated.classes[-1]
            expected = (set(groups.orbit(cfg.gens, cls.representative))
                        == set(cls.points))
            rep = verify_orbit_decomposition(mutated)
            assert rep["classes"][-1]["single_orbit"] is expected is False


def test_exact_klein_audit_inverts_nothing(monkeypatch, klein_config_exact):
    """The exact Klein audit finds its incidences, orbits and distinct lines
    by residues and exact products: no SimpleExtension.inv call, so that a
    normalization per orbit image cannot come back unnoticed."""
    calls = []
    inv = SimpleExtension.inv

    def counting_inv(self, a):
        calls.append(a)
        return inv(self, a)

    monkeypatch.setattr(SimpleExtension, "inv", counting_inv)
    assert verify_orbit_decomposition(klein_config_exact)["ok"]
    assert len(calls) == 0


def test_special_orbit_with_no_rational_point_is_usage_error(klein_modp):
    """The 56 points of phi4 = phi14 = 0 are all rational mod p or none is;
    mod 4733 none is, which is a usage error naming the orbit and the
    prime."""
    with pytest.raises(UsageError, match=r"56-point orbit phi4\^phi14 has no "
                                         r"point over F4733 \(p = 4733\)"):
        verify_orbit_decomposition(build_klein(klein_modp), check_special=True)


def test_special_orbit_miscount_stays_a_failed_verification(monkeypatch):
    """A count that is neither 0 nor the expected one fails the audit."""
    monkeypatch.setitem(configs.SPECIAL_ORBITS, "klein", [(4, 6, 25)])
    rep = verify_orbit_decomposition(build_klein(preset_field("modp", 2311)),
                                     check_special=True)
    assert rep["special_orbits"] == {"phi4^phi6": {"count": 24, "expected": 25}}
    assert not rep["ok"]


@pytest.mark.parametrize("preset, p, degrees", [
    ("klein", 29, (4, 6, 14)), ("wiman", 19, (6, 12))])
def test_zero_locus_matches_evaluation(preset, p, degrees):
    """The Horner scan finds, in order, the zeros that evaluating the form
    at every point of P2(F_p) finds; at p = 29 the degree-14 form takes
    the reductions that keep its grid in int64."""
    from kleinwiman.invariants import invariant_set

    field = preset_field("modp", p)
    phi = invariant_set(preset, field).phi
    chart_z = [(x, y, 1) for x in range(p) for y in range(p)]
    chart_y = [(0, 1, 0)] + [(1, y, 0) for y in range(p)]
    for d in degrees:
        expected = [normalize_point(field, q) for q in chart_z + chart_y
                    if field.is_zero(phi[d].evaluate(q))]
        assert projective_zero_locus(phi[d]) == expected
