"""Line configurations: lines, classified singular points, intersection form."""

from dataclasses import dataclass, field as dc_field
from functools import lru_cache

from kleinwiman.errors import ConfigError
from kleinwiman.fields import PrimeField, hosting_problem, preset_field
from kleinwiman.groups import (act_on_poly, klein_generators, orbit,
                               orbit_of_poly, valentiner_generators)
from kleinwiman.poly import Poly, chart_for_point, normalize_point


def line_coeffs(line):
    """Coefficient vector (on x, y, z) of a linear form."""
    return tuple(line.coeff(tuple(1 if j == i else 0 for j in range(3)))
                 for i in range(3))


def line_intersection(field, u, v):
    """Projective intersection point of two lines given by coefficient vectors."""
    mul, sub = field.mul, field.sub
    w = (sub(mul(u[1], v[2]), mul(u[2], v[1])),
         sub(mul(u[2], v[0]), mul(u[0], v[2])),
         sub(mul(u[0], v[1]), mul(u[1], v[0])))
    if all(field.is_zero(c) for c in w):
        raise ConfigError("lines coincide")
    return normalize_point(field, w)


def point_on_line(field, point, coeffs):
    acc = field.zero
    for c, x in zip(coeffs, point):
        acc = field.add(acc, field.mul(c, x))
    return field.is_zero(acc)


def points_on_line(field, coeffs):
    """Two independent points of the line with these coefficients, plus
    their sum."""
    idx = next(i for i, c in enumerate(coeffs) if not field.is_zero(c))
    pts = []
    for o in (i for i in range(3) if i != idx):
        v = [field.zero] * 3
        v[o] = field.one
        v[idx] = field.neg(field.div(coeffs[o], coeffs[idx]))
        pts.append(tuple(v))
    pts.append(tuple(field.add(a, b) for a, b in zip(pts[0], pts[1])))
    return pts


@dataclass
class OrbitClass:
    multiplicity: int
    label: str
    points: list
    representative: tuple
    chart: int

    @property
    def size(self):
        return len(self.points)


@dataclass
class LineConfiguration:
    preset: str
    field: object
    lines: list                      # canonical linear Polys
    classes: list                    # OrbitClass, fixed order
    gens: list = dc_field(default_factory=list)   # group generators, if any
    aux: dict = dc_field(default_factory=dict)

    @property
    def num_lines(self):
        return len(self.lines)

    def class_sizes(self):
        return [c.size for c in self.classes]

    def all_points(self):
        out = []
        for cls in self.classes:
            out.extend(cls.points)
        return out

    def class_by_label(self, label):
        for cls in self.classes:
            if cls.label == label:
                return cls
        raise ConfigError(f"no orbit class {label!r}")


def classify_points(field, lines):
    """Pairwise intersections grouped by the number of incident lines."""
    coeffs = [line_coeffs(line) for line in lines]
    incidence = {}
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            p = line_intersection(field, coeffs[i], coeffs[j])
            incidence.setdefault(p, set()).update((i, j))
    by_mult = {}
    for p, inc in incidence.items():
        by_mult.setdefault(len(inc), []).append(p)
    for pts in by_mult.values():
        pts.sort(key=lambda p: tuple(field.sort_key(c) for c in p))
    return by_mult


def _pick_representative(field, points):
    """Smallest point with nonzero last coordinate, renormalized to z = 1."""
    for p in points:
        if not field.is_zero(p[2]):
            return p
    raise ConfigError("no point of the class lies off the line z = 0")


def _make_class(field, mult, label, points, rep=None):
    rep = rep if rep is not None else _pick_representative(field, points)
    if rep not in points:
        raise ConfigError(f"representative not in class {label}")
    return OrbitClass(mult, label, points, rep, chart_for_point(field, rep))


def _require_constants(field, preset):
    problem = hosting_problem(field, preset)
    if problem:
        raise ConfigError(problem)


@lru_cache(maxsize=None)
def build_klein(field):
    """The 21-line configuration with 21 quadruple and 28 triple points.

    Lines are the orbit of the pointwise-fixed line of the order-2 generator,
    obtained by symmetrizing x over that involution.
    """
    _require_constants(field, "klein")
    gens = klein_generators(field)
    x = Poly.variable(field, 0)
    line1 = (x + act_on_poly(gens[2], x)).canonical_scale()
    lines = orbit_of_poly(gens, line1)
    if len(lines) != 21:
        raise ConfigError(f"expected 21 lines, got {len(lines)}")
    by_mult = classify_points(field, lines)
    if sorted(by_mult) != [3, 4] or len(by_mult[4]) != 21 or len(by_mult[3]) != 28:
        raise ConfigError(f"unexpected singular point counts "
                          f"{ {m: len(v) for m, v in by_mult.items()} }")
    # the quadruple representative is the intersection of the symmetrized
    # line with its image under the diagonal generator; its affine chart is
    # the shift by (zeta^4 + 1, -(zeta^5 + zeta^3 + zeta))
    quad_rep = line_intersection(field, line_coeffs(line1),
                                 line_coeffs(act_on_poly(gens[0], line1)))
    z = field.constant("zeta")
    expected = normalize_point(field, (
        field.add(field.pow(z, 4), field.one),
        field.neg(field.add(field.add(field.pow(z, 5), field.pow(z, 3)), z)),
        field.one))
    if quad_rep != expected:
        raise ConfigError("quadruple representative disagrees with the chart constants")
    trip_rep = normalize_point(field, (1, 1, 1))
    classes = [_make_class(field, 4, "E4", by_mult[4], quad_rep),
               _make_class(field, 3, "E3", by_mult[3], trip_rep)]
    return LineConfiguration("klein", field, lines, classes, gens=gens)


@lru_cache(maxsize=None)
def build_wiman(field):
    """The 45-line configuration with 36 quintuple, 45 quadruple and two
    60-point orbits of triple points."""
    _require_constants(field, "wiman")
    gens = valentiner_generators(field)
    x = Poly.variable(field, 0)
    lines = orbit_of_poly(gens, x)
    if len(lines) != 45:
        raise ConfigError(f"expected 45 lines, got {len(lines)}")
    by_mult = classify_points(field, lines)
    counts = {m: len(v) for m, v in by_mult.items()}
    if counts != {5: 36, 4: 45, 3: 120}:
        raise ConfigError(f"unexpected singular point counts {counts}")
    # split the triple points into the two 60-point orbits
    first = orbit(gens, by_mult[3][0])
    orbit_a = [p for p in by_mult[3] if p in set(first)]
    orbit_b = [p for p in by_mult[3] if p not in set(first)]
    if len(orbit_a) != 60 or len(orbit_b) != 60:
        raise ConfigError("triple points do not split into two 60-point orbits")
    if orbit_b[0] < orbit_a[0]:
        orbit_a, orbit_b = orbit_b, orbit_a
    p4 = normalize_point(field, (0, 0, 1))
    if p4 not in set(by_mult[4]):
        raise ConfigError("[0:0:1] should be a quadruple point")
    classes = [_make_class(field, 5, "E5", by_mult[5]),
               _make_class(field, 4, "E4", by_mult[4], p4),
               _make_class(field, 3, "E3a", orbit_a),
               _make_class(field, 3, "E3b", orbit_b)]
    return LineConfiguration("wiman", field, lines, classes, gens=gens)


@lru_cache(maxsize=None)
def build_klein_char7():
    """The characteristic-7 model: lines of P2(F7) missing the conic
    x^2 + y^2 + z^2 = 0, with the same (21, 21, 28) combinatorics."""
    field = preset_field("klein-mod7")
    pts = _projective_points_f7(field)
    conic = [p for p in pts if (p[0] ** 2 + p[1] ** 2 + p[2] ** 2) % 7 == 0]
    if len(conic) != 8:
        raise ConfigError("the conic should have 8 rational points")
    lines = []
    for lc in pts:                         # lines are dual to points
        if not any(point_on_line(field, q, lc) for q in conic):
            lines.append(Poly.linear_form(field, lc).canonical_scale())
    if len(lines) != 21:
        raise ConfigError(f"expected 21 external lines, got {len(lines)}")
    # the conic's Gram matrix is the identity, so the tangent line at p has
    # coefficient vector p itself
    on_tangent = {q for t in conic for q in pts if point_on_line(field, q, t)}
    quad_pts = sorted((p for p in pts if p not in on_tangent))
    trip_pts = sorted((p for p in on_tangent if p not in set(conic)))
    if len(quad_pts) != 21 or len(trip_pts) != 28:
        raise ConfigError("unexpected quadruple/triple counts in characteristic 7")
    by_mult = classify_points(field, lines)
    if set(by_mult.get(4, [])) != set(quad_pts) or set(by_mult.get(3, [])) != set(trip_pts):
        raise ConfigError("tangent-based classification disagrees with incidences")
    classes = [_make_class(field, 4, "E4", by_mult[4]),
               _make_class(field, 3, "E3", by_mult[3])]
    aux = {
        "conic_points": conic,
        "tangent_forms": [Poly.linear_form(field, t).canonical_scale()
                          for t in conic],
    }
    return LineConfiguration("klein-char7", field, lines, classes, aux=aux)


def _projective_points_f7(field):
    pts = []
    p = field.p
    for y in range(p):
        for z in range(p):
            pts.append((1, y, z))
    for z in range(p):
        pts.append((0, 1, z))
    pts.append((0, 0, 1))
    return [normalize_point(field, q) for q in pts]


@lru_cache(maxsize=None)
def build_config(preset, field=None):
    if preset == "klein":
        return build_klein(field or preset_field("klein-exact"))
    if preset == "wiman":
        return build_wiman(field or preset_field("wiman-exact"))
    if preset == "klein-char7":
        return build_klein_char7()
    raise ConfigError(f"unknown configuration preset {preset!r}")


def verify_orbit_decomposition(config, check_special=False):
    """Audit the classification: multiplicities, pairwise coverage, orbit
    structure, and (over prime fields, on request) the special orbits cut out
    by pairs of fundamental invariants.  Coverage is counted from the
    multiplicity audit's incidences: two distinct lines meet in one point, so
    with distinct lines and distinct class points (as tuples, each scaled to
    last nonzero coordinate 1), each on two lines or more, the class points
    are the pairwise intersections iff sum C(n_p, 2) = C(L, 2)."""
    field = config.field
    report = {"preset": config.preset, "classes": [], "ok": True}
    coeffs = [line_coeffs(line) for line in config.lines]
    incidences = []                  # n_p, the lines through p, per point
    for cls in config.classes:
        entry = {"label": cls.label, "multiplicity": cls.multiplicity,
                 "size": cls.size, "multiplicity_audit": "ok"}
        counts = [sum(1 for c in coeffs if point_on_line(field, p, c))
                  for p in cls.points]
        incidences.extend(counts)
        for p, inc in zip(cls.points, counts):
            if inc != cls.multiplicity:
                entry["multiplicity_audit"] = f"point {p} lies on {inc} lines"
                report["ok"] = False
                break
        if config.gens:
            orb = orbit(config.gens, cls.representative)
            entry["single_orbit"] = (set(orb) == set(cls.points))
            if not entry["single_orbit"]:
                report["ok"] = False
        report["classes"].append(entry)
    points = config.all_points()
    num = len(coeffs)
    report["pairwise_coverage"] = (
        len({normalize_point(field, c) for c in coeffs}) == num
        and len(set(points)) == len(points)
        and all(p[chart_for_point(field, p)] == field.one for p in points)
        and min(incidences, default=0) >= 2
        and sum(n * (n - 1) // 2 for n in incidences) == num * (num - 1) // 2)
    report["ok"] = report["ok"] and report["pairwise_coverage"]
    if check_special:
        report["special_orbits"] = _special_orbit_counts(config)
        report["ok"] = report["ok"] and all(
            v["count"] == v["expected"] for v in report["special_orbits"].values())
    return report


# (degree of the form whose zeros are scanned, degree of the other, expected
# count of common zeros) per preset
SPECIAL_ORBITS = {"klein": [(4, 6, 24), (4, 14, 56)], "wiman": [(6, 12, 72)]}


def _special_orbit_counts(config):
    """Counts of common zeros of invariant pairs; prime fields only.

    The expected counts assume every point of the orbit is rational over the
    prime field, which depends on the prime (2311 splits all three recorded
    orbits; the 56-point orbit is not rational mod 4733).
    """
    from kleinwiman.invariants import invariant_set  # local import, no cycle

    field = config.field
    if not isinstance(field, PrimeField):
        raise ConfigError("special-orbit scan runs over prime-field presets only")
    if config.preset not in SPECIAL_ORBITS:
        raise ConfigError("no special orbits recorded for this preset")
    phi = invariant_set(config.preset, field).phi
    out, loci = {}, {}
    for a, b, expect in SPECIAL_ORBITS[config.preset]:
        if a not in loci:
            loci[a] = projective_zero_locus(phi[a])
        count = sum(1 for p in loci[a] if field.is_zero(phi[b].evaluate(p)))
        out[f"phi{a}^phi{b}"] = {"count": count, "expected": expect}
    return out


def projective_zero_locus(f):
    """All rational projective zeros of f over its prime field (numpy scan)."""
    import numpy as np

    field = f.field
    p = field.p
    terms = list(f.terms.items())
    out = []
    block = max(1, (1 << 21) // p)
    ys = np.arange(p, dtype=np.int64)
    ypow = {0: np.ones(p, dtype=np.int64)}

    def ypowers(k):
        if k not in ypow:
            ypow[k] = ypowers(k - 1) * ys % p
        return ypow[k]

    for x0 in range(0, p, block):
        xs = np.arange(x0, min(x0 + block, p), dtype=np.int64)
        acc = np.zeros((xs.size, p), dtype=np.int64)
        xpow = {0: np.ones_like(xs)}
        for (a, b, _c), coef in terms:   # chart z = 1
            if a not in xpow:
                base = xs.copy()
                cur = xpow[max(k for k in xpow)]
                for k in range(max(xpow) + 1, a + 1):
                    cur = cur * base % p
                    xpow[k] = cur
            acc = (acc + coef * xpow[a][:, None] * ypowers(b)[None, :]) % p
        for i, j in zip(*np.nonzero(acc == 0)):
            out.append(normalize_point(field, (int(xs[i]), int(ys[j]), 1)))
    # the line z = 0
    for q in [(0, 1, 0)] + [(1, y, 0) for y in range(p)]:
        acc = field.zero
        for (a, b, c), coef in terms:
            if c == 0:
                v = field.mul(coef, field.mul(field.pow(field.coerce(q[0]), a),
                                              field.pow(field.coerce(q[1]), b)))
                acc = field.add(acc, v)
        if field.is_zero(acc):
            out.append(normalize_point(field, q))
    return out
