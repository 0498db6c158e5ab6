"""Finite matrix groups acting on the projective plane and on polynomials."""

from kleinwiman.errors import FieldError, GroupError
from kleinwiman.poly import Poly, normalize_point


class GroupElement:
    """3x3 invertible matrix over a field, acting on points by matrix-vector
    product and on polynomials by substituting the rows into the variables."""

    __slots__ = ("field", "m")

    def __init__(self, field, entries):
        self.field = field
        self.m = tuple(tuple(field.coerce(v) for v in row) for row in entries)

    @classmethod
    def identity(cls, field):
        one, zero = field.one, field.zero
        return cls(field, ((one, zero, zero), (zero, one, zero), (zero, zero, one)))

    def key(self):
        return self.m

    def projective_key(self):
        """Entries scaled so the first nonzero entry is 1."""
        f = self.field
        flat = [v for row in self.m for v in row]
        for v in flat:
            if not f.is_zero(v):
                inv = f.inv(v)
                return tuple(f.mul(u, inv) for u in flat)
        raise GroupError("zero matrix")

    def matmul(self, other):
        f = self.field
        a, b = self.m, other.m
        rows = []
        for i in range(3):
            row = []
            for j in range(3):
                acc = f.mul(a[i][0], b[0][j])
                acc = f.add(acc, f.mul(a[i][1], b[1][j]))
                acc = f.add(acc, f.mul(a[i][2], b[2][j]))
                row.append(acc)
            rows.append(tuple(row))
        out = GroupElement.__new__(GroupElement)
        out.field = f
        out.m = tuple(rows)
        return out

    def matvec(self, v):
        f = self.field
        v = [f.coerce(c) for c in v]
        return tuple(
            f.add(f.add(f.mul(row[0], v[0]), f.mul(row[1], v[1])), f.mul(row[2], v[2]))
            for row in self.m)

    def adjugate(self):
        """det(self) times the inverse: the inverse as a projective map.
        Its columns are the cross products of the rows, cyclically."""
        f = self.field
        mul, sub = f.mul, f.sub
        r = self.m
        cols = [[sub(mul(r[i][1], r[j][2]), mul(r[i][2], r[j][1])),
                 sub(mul(r[i][2], r[j][0]), mul(r[i][0], r[j][2])),
                 sub(mul(r[i][0], r[j][1]), mul(r[i][1], r[j][0]))]
                for i, j in ((1, 2), (2, 0), (0, 1))]
        return GroupElement(f, tuple(zip(*cols)))

    def det(self):
        f = self.field
        m = self.m
        add, sub, mul = f.add, f.sub, f.mul
        return sub(add(add(mul(m[0][0], sub(mul(m[1][1], m[2][2]), mul(m[1][2], m[2][1]))),
                           mul(m[0][2], sub(mul(m[1][0], m[2][1]), mul(m[1][1], m[2][0])))),
                       f.zero),
                   mul(m[0][1], sub(mul(m[1][0], m[2][2]), mul(m[1][2], m[2][0]))))

    def __eq__(self, other):
        return isinstance(other, GroupElement) and self.m == other.m

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"<GroupElement over {self.field.name}>"


def act_on_poly(g, f):
    """Substitute the linear forms given by g's matrix rows into f."""
    return f.substitute([Poly.linear_form(g.field, row, f.var_names) for row in g.m])


def act_on_point(g, p):
    """Matrix-vector action with projective normalization."""
    return normalize_point(g.field, g.matvec(p))


class FiniteGroup:
    """Closure of a generator set, with optional projective identification
    (quotient by the scalar matrices the closure contains)."""

    def __init__(self, field, elements, gens, projective=False):
        self.field = field
        self.elements = elements
        self.gens = gens
        self.projective = projective
        self._proj_classes = None

    @property
    def order(self):
        return len(self.elements)

    @property
    def projective_order(self):
        if self._proj_classes is None:
            self._proj_classes = len({g.projective_key() for g in self.elements})
        return self._proj_classes

    @property
    def effective_order(self):
        """Order used for orbit-stabilizer bookkeeping on the plane."""
        return self.projective_order if self.projective else self.order

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)


def closure(start, gens, step, key=None, cap=None):
    """Breadth-first closure of start under x -> step(x, g) for g in gens:
    every object reached, deduplicated by key (default: the object itself).
    Raises GroupError once more than cap objects are reached."""
    seen = {start if key is None else key(start): start}
    frontier = [start]
    while frontier:
        new = []
        for a in frontier:
            for g in gens:
                b = step(a, g)
                k = b if key is None else key(b)
                if k not in seen:
                    seen[k] = b
                    new.append(b)
                    if cap is not None and len(seen) > cap:
                        raise GroupError(
                            f"closure exceeded cap {cap}; bad generators?")
        frontier = new
    return list(seen.values())


def generate_group(gens, expected_order=None, projective=False):
    """Breadth-first closure of the generators under multiplication.

    Raises GroupError when the closure exceeds 10x the expected order
    (100000 elements when none is declared) or does not match it.
    """
    if not gens:
        raise GroupError("need at least one generator")
    field = gens[0].field
    for g in gens:
        if field.is_zero(g.det()):
            raise GroupError("generator is not invertible")
    cap = 10 * expected_order if expected_order else 100000
    elements = sorted(closure(GroupElement.identity(field), gens, GroupElement.matmul,
                              GroupElement.key, cap),
                      key=lambda e: _elem_sort_key(field, e))
    if expected_order is not None and len(elements) != expected_order:
        raise GroupError(
            f"closure has order {len(elements)}, expected {expected_order}")
    return FiniteGroup(field, elements, list(gens), projective=projective)


def _elem_sort_key(field, e):
    return tuple(field.sort_key(v) for row in e.m for v in row)


def reynolds(group, f):
    """Group average of f; requires |G| invertible in the field.  The engine
    takes invariants from invariants.fixed_forms; this is their oracle."""
    n = group.order
    field = f.field
    try:
        inv_n = field.inv(field.coerce(n))
    except ZeroDivisionError:
        raise FieldError(
            f"group order {n} is not invertible in {field.name}") from None
    acc = Poly.zero(field, f.nvars, f.weights, f.var_names)
    for g in group:
        acc = acc + act_on_poly(g, f)
    return acc.scale(inv_n)


def orbit(gens, p):
    """Deduplicated projective orbit of a point under the group the matrices
    in gens generate, breadth-first over the generators alone."""
    field = gens[0].field
    points = closure(normalize_point(field, p), gens, lambda q, g: act_on_point(g, q))
    return sorted(points, key=lambda pt: tuple(field.sort_key(c) for c in pt))


def stabilizer_order(group, p):
    """|G| / |orbit|, using the projective order when the group is projective."""
    orb = orbit(group.gens, p)
    n = group.effective_order
    if n % len(orb):
        raise GroupError("orbit size does not divide the group order")
    return n // len(orb)


def stabilizer(gens, point, order):
    """The stabilizer of a projective point in the group the matrices in
    gens generate, as `order` matrices, one per projective map.

    A breadth-first orbit of the point gives t_q taking it to each orbit
    point q, built only on demand; every edge q -> r = g q outside that
    tree gives the Schreier generator t_r^-1 g t_q, which fixes the point
    (t_r^-1 up to a scalar: the adjugate).  These generate the stabilizer,
    so their closure, taken as each new one arrives, stops as soon as it
    reaches the stabilizer's order |G| / |orbit|, usually within the first
    few orbit points.  GroupError if it never does, or exceeds it.
    """
    field = gens[0].field
    start = normalize_point(field, point)
    ident = GroupElement.identity(field)
    tree = {start: None}        # orbit point -> (previous point, generator)
    words = {start: (ident, ident.projective_key())}
    found, elements = [], [ident]
    keys = {words[start][1]}

    def word(q):
        """t_q and its projective key."""
        if q not in words:
            prev, g = tree[q]
            t = g.matmul(word(prev)[0])
            words[q] = t, t.projective_key()
        return words[q]

    frontier = [start]
    while frontier and len(elements) < order:
        new = []
        for q in frontier:
            for g in gens:
                r = act_on_point(g, q)
                if r not in tree:
                    tree[r] = (q, g)
                    new.append(r)
                    continue
                t = g.matmul(word(q)[0])
                if t.projective_key() == word(r)[1]:
                    continue        # t_r^-1 g t_q is the identity
                s = word(r)[0].adjugate().matmul(t)
                if s.projective_key() in keys:
                    continue
                found.append(s)
                elements = closure(ident, found, GroupElement.matmul,
                                   GroupElement.projective_key, order)
                if len(elements) == order:
                    return elements
                keys = {e.projective_key() for e in elements}
        frontier = new
    if len(elements) != order:
        raise GroupError(f"stabilizer has order {len(elements)}, "
                         f"expected {order}")
    return elements


def orbit_of_poly(gens, f):
    """Orbit of a polynomial under the substitution action of the group the
    matrices in gens generate, breadth-first over the generators and
    deduplicated projectively (each image scaled to leading coefficient 1)."""
    polys = closure(f.canonical_scale(), gens,
                    lambda q, g: act_on_poly(g, q).canonical_scale(), Poly.key)
    field = f.field
    return sorted(polys, key=lambda poly: tuple(
        (e, field.sort_key(c)) for e, c in sorted(poly.terms.items())))


# -- shipped generator matrices ---------------------------------------------

def klein_generators(field):
    """The three generators of the 168-element group over a field containing
    a primitive 7th root of unity."""
    z = field.constant("zeta")
    zp = {k: field.pow(z, k) for k in range(7)}
    one, zero = field.one, field.zero
    g = GroupElement(field, ((zp[4], zero, zero),
                             (zero, zp[2], zero),
                             (zero, zero, zp[1])))
    h = GroupElement(field, ((zero, one, zero),
                             (zero, zero, one),
                             (one, zero, zero)))
    a = field.sub(zp[1], zp[6])
    b = field.sub(zp[2], zp[5])
    c = field.sub(zp[4], zp[3])
    # (a+b+c)/7 squares to -1/7, making the symmetric matrix an involution
    s = field.div(field.add(field.add(a, b), c), field.coerce(7))
    i = GroupElement(field, (
        (field.mul(s, a), field.mul(s, b), field.mul(s, c)),
        (field.mul(s, b), field.mul(s, c), field.mul(s, a)),
        (field.mul(s, c), field.mul(s, a), field.mul(s, b))))
    return [g, h, i]


def valentiner_generators(field):
    """The four generators of the 1080-element triple cover of A6 over a field
    containing sqrt(5) and a primitive cube root of unity."""
    delta = field.constant("delta")
    omega = field.constant("omega")
    mu1 = field.constant("mu1")
    mu2 = field.constant("mu2")
    one, zero = field.one, field.zero
    neg = field.neg
    half = field.inv(field.coerce(2))
    r1 = GroupElement(field, ((zero, zero, one),
                              (one, zero, zero),
                              (zero, one, zero)))
    r2 = GroupElement(field, ((one, zero, zero),
                              (zero, neg(one), zero),
                              (zero, zero, neg(one))))
    r3 = GroupElement(field, tuple(
        tuple(field.mul(half, v) for v in row)
        for row in ((neg(one), mu2, mu1),
                    (mu2, mu1, neg(one)),
                    (mu1, neg(one), mu2))))
    om2 = field.mul(omega, omega)
    r4 = GroupElement(field, ((neg(one), zero, zero),
                              (zero, zero, neg(om2)),
                              (zero, neg(omega), zero)))
    return [r1, r2, r3, r4]


# Order of the group each preset's generators induce on the plane: the
# Valentiner matrices include the scalars omega^k, so 1080 / 3.
PLANE_ORDERS = {"klein": 168, "wiman": 360}


def klein_group(field):
    """The closed group of order 168, for order audits; configurations and
    invariants use klein_generators alone."""
    return generate_group(klein_generators(field), expected_order=168)


def valentiner_group(field):
    """The closed group of order 1080 (360 projectively), for order audits;
    configurations and invariants use valentiner_generators alone."""
    return generate_group(valentiner_generators(field), expected_order=1080,
                          projective=True)
