"""Line configurations: lines, classified singular points, intersection form.

The incidences and orbits are found at a prime and confirmed exactly.  Over
F_p the residue map is the identity; over Q(zeta7) and Q(sqrt5, omega) it
is the partner map of the field (SimpleExtension.reduce), a ring
homomorphism on the elements it is defined on.  So a nonzero residue
proves a nonzero value: a line whose coefficients pair with a point to a
nonzero residue misses the point, two lines or points with different
normalized residues are different, and an image under a generator with no
residue among a set's points is not in the set.  A zero residue or a match
is only a candidate, and each is confirmed in the field itself
(point_on_line; proportionality to a point in normal form).  Whatever has
no residue (a denominator that vanishes at p, a field with no partner
prime) or cannot be confirmed takes the exact route alone, so every
classification and audit verdict is the one exact arithmetic gives.
"""

from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from itertools import combinations

import numpy as np

from kleinwiman.errors import ConfigError, FieldError, UsageError
from kleinwiman.fields import PrimeField, hosting_problem, preset_field
from kleinwiman.groups import (act_on_poly, klein_generators, orbit,
                               orbit_of_poly, valentiner_generators)
from kleinwiman.kernels import MAX_PRIME
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


# -- residues at a prime -----------------------------------------------------

def residues(field, vectors):
    """The coordinates of the vectors at the residue prime p of the field
    (Field.partner_prime, by Field.reduce): p, an int64 array with one row
    per vector, and a mask of the rows that have residues (a denominator
    may vanish at p).  p is None, and no row has residues, when the field
    has no partner prime or p is past MAX_PRIME (below it a sum of three
    products of residues is exact in int64)."""
    rows = np.zeros((len(vectors), 3), dtype=np.int64)
    ok = np.zeros(len(vectors), dtype=bool)
    p = field.partner_prime
    if p is None or p >= MAX_PRIME:
        return None, rows, ok
    for k, v in enumerate(vectors):
        try:
            rows[k] = [field.reduce(c) for c in v]
        except FieldError:
            continue
        ok[k] = True
    return p, rows, ok


def _projective_keys(p, rows):
    """Each row of residues scaled mod p to last nonzero entry 1 and coded
    as one int64, (k_0 p + k_1) p + k_2, and the mask of the nonzero rows
    (a zero row's key is 0)."""
    rows = rows % p
    lead = rows[:, 2].copy()                            # last nonzero entry
    for k in (1, 0):
        zero = lead == 0
        lead[zero] = rows[zero, k]
    inv, base, e = np.ones_like(lead), lead, p - 2     # lead^(p-2) = 1/lead
    while e:
        if e & 1:
            inv = inv * base % p
        base = base * base % p
        e >>= 1
    keys = rows * inv[:, None] % p
    return (keys[:, 0] * p + keys[:, 1]) * p + keys[:, 2], lead != 0


def _cross_mod(p, u, v):
    """Row-wise cross products of two arrays of residues, mod p."""
    return np.stack([u[:, 1] * v[:, 2] - u[:, 2] * v[:, 1],
                     u[:, 2] * v[:, 0] - u[:, 0] * v[:, 2],
                     u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]], axis=1) % p


def incident_lines(field, coeffs, points):
    """For each point, the indices of the lines (coefficient vectors)
    through it, in increasing order.

    Every pairing of a line with a point is taken mod p in one int64
    product; a nonzero residue proves the point off the line, and each
    zero, like each pair with no residues, is confirmed by point_on_line.
    """
    p, lines, lok = residues(field, coeffs)
    _, pts, pok = residues(field, points)
    candidate = ~(pok[:, None] & lok[None, :])
    if p is not None:
        candidate |= pts @ lines.T % p == 0
    out = [[] for _ in points]
    for j, i in zip(*np.nonzero(candidate)):
        if point_on_line(field, points[j], coeffs[i]):
            out[j].append(int(i))
    return out


def _distinct_lines(field, coeffs):
    """Whether no two coefficient vectors are proportional.  Vectors with
    different normalized residues are not; those that share one are
    compared exactly, and so is every vector when one has no nonzero
    residue."""
    p, rows, ok = residues(field, coeffs)
    groups = {None: coeffs}
    if p is not None and ok.all():
        keys, nonzero = _projective_keys(p, rows)
        if nonzero.all():
            groups = {}
            for c, key in zip(coeffs, keys.tolist()):
                groups.setdefault(key, []).append(c)
    return all(len({normalize_point(field, c) for c in group}) == len(group)
               for group in groups.values() if len(group) > 1)


def _in_normal_form(field, point):
    """Canonical coordinates, the last nonzero one equal to 1."""
    nonzero = [c for c in point if not field.is_zero(c)]
    return (bool(nonzero) and nonzero[-1] == field.one
            and all(field.coerce(c) == c for c in point))


def _proportional(field, v, s):
    """Whether the vector v is a multiple of the point s, which is in
    normal form: two products at most, no inverse."""
    c = chart_for_point(field, s)
    return (not field.is_zero(v[c])
            and all(field.is_zero(v[j]) for j in range(c + 1, 3))
            and all(v[i] == field.mul(v[c], s[i]) for i in range(c)))


def _orbit_in(gens, start, points):
    """The orbit of `start` under the group the matrices in gens generate,
    as a set of points in normal form.  When it lies in `points` it is read
    by a breadth-first walk over the set's own points: each image g q is
    looked up among them by its normalized residue, found from the residues
    of g and q, and confirmed exactly as proportional to the point found.
    When the walk cannot be confirmed (an image with no confirmed match, a
    point not in normal form, a coordinate with no residue) it is
    groups.orbit."""
    field = gens[0].field
    pts = list(dict.fromkeys(points))
    if not all(_in_normal_form(field, q) for q in pts):
        return set(orbit(gens, start))
    p, res, ok = residues(field, pts + [start])
    _, gres, gok = residues(field, [row for g in gens for row in g.m])
    if p is None or not (ok.all() and gok.all()):
        return set(orbit(gens, start))
    keys = _projective_keys(p, res)[0].tolist()
    index = {}
    for q, key in zip(pts, keys):
        index.setdefault(key, []).append(q)
    # images[g][k]: key of the image of point k under generator g
    mats = gres.reshape(len(gens), 3, 3)
    images = [_projective_keys(p, res[:-1] @ m.T)[0].tolist() for m in mats]
    position = {q: k for k, q in enumerate(pts)}

    def find(v, key):
        return next((s for s in index.get(key, ()) if _proportional(field, v, s)),
                    None)

    first = find(start, keys[-1])
    if first is None:
        return set(orbit(gens, start))
    seen, frontier = {first}, [first]
    while frontier:
        new = []
        for q in frontier:
            for g, image in zip(gens, images):
                s = find(g.matvec(q), image[position[q]])
                if s is None:
                    return set(orbit(gens, start))
                if s not in seen:
                    seen.add(s)
                    new.append(s)
        frontier = new
    return seen


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
    # generators of a diagonal subgroup D that fixes the points, each
    # (omega, (a, b, c)) for diag(omega^a, omega^b, omega^c), omega a root
    # of unity of the field
    diagonal: list = dc_field(default_factory=list)
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
    """Pairwise intersections grouped by the number of incident lines.

    The pairs of lines are grouped by their intersection mod p (the
    normalized cross product of their residues); pairs that meet in one
    point fall in one group.  Each group's point is intersected exactly
    once, from its first pair, and every line of the group is confirmed on
    it; then the group's lines are exactly the lines through the point (a
    pair meeting there with a nonzero cross product mod p has its key).  A
    group that fails, and a pair with no residue or a cross product zero
    mod p, are intersected pair by pair.
    """
    coeffs = [line_coeffs(line) for line in lines]
    first, second = np.array(list(combinations(range(len(coeffs)), 2)),
                             dtype=np.intp).reshape(-1, 2).T
    p, rows, ok = residues(field, coeffs)
    usable = np.zeros(len(first), dtype=bool)
    groups = {}                         # key -> its pairs, in increasing order
    if p is not None:
        keys, nonzero = _projective_keys(
            p, _cross_mod(p, rows[first], rows[second]))
        usable = ok[first] & ok[second] & nonzero
        pairs = np.flatnonzero(usable)
        for t, key in zip(pairs.tolist(), keys[pairs].tolist()):
            groups.setdefault(key, []).append(t)
    single = np.flatnonzero(~usable).tolist()   # pairs intersected one by one
    found = []                                  # (first pair, point, lines)
    for pairs in groups.values():
        i, j = int(first[pairs[0]]), int(second[pairs[0]])
        point = line_intersection(field, coeffs[i], coeffs[j])
        group = set(first[pairs].tolist()) | set(second[pairs].tolist())
        if all(point_on_line(field, point, coeffs[k])
               for k in group if k not in (i, j)):
            found.append((pairs[0], point, group))
        else:
            single.extend(pairs)
    for t in single:
        i, j = int(first[t]), int(second[t])
        found.append((t, line_intersection(field, coeffs[i], coeffs[j]), {i, j}))
    incidence = {}
    for _, point, group in sorted(found, key=lambda item: item[0]):
        incidence.setdefault(point, set()).update(group)
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
    return LineConfiguration("klein", field, lines, classes, gens=gens,
                             diagonal=[(z, (4, 2, 1))])


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
    first = _orbit_in(gens, by_mult[3][0], by_mult[3])
    orbit_a = [p for p in by_mult[3] if p in first]
    orbit_b = [p for p in by_mult[3] if p not in first]
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
    return LineConfiguration("wiman", field, lines, classes, gens=gens,
                             diagonal=_sign_changes(field))


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
    return LineConfiguration("klein-char7", field, lines, classes, aux=aux,
                             diagonal=_sign_changes(field))


def _sign_changes(field):
    """diag(1, -1, -1) and diag(-1, 1, -1), the sign changes up to scalars:
    Wiman's r2 and its conjugates by r1, and they fix the conic
    x^2 + y^2 + z^2 of the characteristic-7 model."""
    minus = field.neg(field.one)
    return [(minus, (0, 1, 1)), (minus, (1, 0, 1))]


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
    are the pairwise intersections iff sum C(n_p, 2) = C(L, 2).  The
    incidences are found mod p and confirmed exactly (incident_lines), and
    a class is one orbit when the orbit of its representative, read over
    the class's own points where it can be (_orbit_in), is the class."""
    field = config.field
    report = {"preset": config.preset, "classes": [], "ok": True}
    coeffs = [line_coeffs(line) for line in config.lines]
    points = config.all_points()
    incidences = [len(on) for on in incident_lines(field, coeffs, points)]
    start = 0
    for cls in config.classes:
        entry = {"label": cls.label, "multiplicity": cls.multiplicity,
                 "size": cls.size, "multiplicity_audit": "ok"}
        counts = incidences[start:start + cls.size]
        start += cls.size
        for p, inc in zip(cls.points, counts):
            if inc != cls.multiplicity:
                entry["multiplicity_audit"] = f"point {p} lies on {inc} lines"
                report["ok"] = False
                break
        if config.gens:
            entry["single_orbit"] = (_orbit_in(config.gens, cls.representative,
                                               cls.points) == set(cls.points))
            if not entry["single_orbit"]:
                report["ok"] = False
        report["classes"].append(entry)
    num = len(coeffs)
    report["pairwise_coverage"] = (
        _distinct_lines(field, coeffs)
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

    Each pair cuts out one orbit (its Bezout number of points, the expected
    count), and the group is defined over the prime field, so the orbit's
    points are all rational there or none is: 2311 splits all three
    recorded orbits, while the 56-point Klein orbit has no point mod 4733.
    A count of 0 is such a prime, a UsageError naming the orbit and the
    prime; any other count that differs is a failed verification.
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
        if count == 0:
            raise UsageError(
                f"--special: the {expect}-point orbit phi{a}^phi{b} has no "
                f"point over {field.name} (p = {field.p}); its points are "
                f"all rational over a prime field or none is, so choose a "
                f"prime that splits it")
        out[f"phi{a}^phi{b}"] = {"count": count, "expected": expect}
    return out


def projective_zero_locus(f):
    """All rational projective zeros of f over its prime field (numpy scan).

    In the chart z = 1, f = sum_b P_b(x) y^b: each P_b is evaluated once per
    block of x values, and f by Horner's rule in y over the block's grid,
    reduced mod p only where the next step could leave int64.
    """
    field = f.field
    p = field.p
    by_y = {}
    for (a, b, _c), coef in f.terms.items():     # chart z = 1
        by_y.setdefault(b, {})[a] = coef
    top = max(by_y)
    out = []
    block = max(1, (1 << 21) // p)
    ys = np.arange(p, dtype=np.int64)
    for x0 in range(0, p, block):
        xs = np.arange(x0, min(x0 + block, p), dtype=np.int64)
        columns = {}
        for b, coeffs in by_y.items():
            column = np.zeros_like(xs)
            for a in range(max(coeffs), -1, -1):
                column = (column * xs + coeffs.get(a, 0)) % p
            columns[b] = column[:, None]
        acc = np.repeat(columns[top], p, axis=1)
        bound = p - 1                            # acc <= bound entrywise
        for b in range(top - 1, -1, -1):
            if bound * p >= 1 << 63:
                acc %= p
                bound = p - 1
            acc *= ys
            if b in columns:
                acc += columns[b]
            bound = bound * (p - 1) + p - 1
        acc %= p
        for i, j in zip(*np.nonzero(acc == 0)):
            out.append(normalize_point(field, (int(xs[i]), int(ys[j]), 1)))
    # the line z = 0
    for q in [(0, 1, 0)] + [(1, y, 0) for y in range(p)]:
        acc = field.zero
        for (a, b, c), coef in f.terms.items():
            if c == 0:
                v = field.mul(coef, field.mul(field.pow(field.coerce(q[0]), a),
                                              field.pow(field.coerce(q[1]), b)))
                acc = field.add(acc, v)
        if field.is_zero(acc):
            out.append(normalize_point(field, q))
    return out
