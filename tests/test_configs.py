import hashlib

import pytest

from kleinwiman import groups
from kleinwiman.configs import (_pick_representative, build_config, build_klein,
                                build_wiman, line_coeffs, point_on_line,
                                projective_zero_locus, verify_orbit_decomposition)
from kleinwiman.errors import ConfigError
from kleinwiman.fields import WIMAN_PRIME, preset_field
from kleinwiman.groups import act_on_point

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
    assert build_config("klein-char7").preset == "klein-char7"
    with pytest.raises(ConfigError):
        build_config("fermat")


def test_wiman_exact_line_order():
    """The orbit of lines is sorted by the field's sort_key on each
    coefficient, so the order does not depend on how elements are stored."""
    cfg = build_config("wiman", preset_field("wiman-exact"))
    text = "\n".join(line.text() for line in cfg.lines)
    assert hashlib.sha256(text.encode()).hexdigest() == WIMAN_EXACT_LINES_SHA256
