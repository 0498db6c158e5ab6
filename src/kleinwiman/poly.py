"""Sparse multivariate polynomials over an exact field, with grading,
ring maps, differential determinants and truncated local expansions."""

from functools import lru_cache

from kleinwiman.errors import FieldError

DEFAULT_VARS = ("x", "y", "z")


def monomials_of_degree(nvars, d):
    """All exponent tuples of total degree d, lexicographically descending."""
    if nvars == 1:
        return [(d,)]
    out = []
    for e in range(d, -1, -1):
        out.extend((e,) + rest for rest in monomials_of_degree(nvars - 1, d - e))
    return out


@lru_cache(maxsize=None)
def weighted_basis(weights, d):
    """Exponent tuples with weight-dot equal to d, lexicographically
    descending, as a tuple (cached per weights tuple and degree).

    The order is the column order used by every series matrix, so it is part
    of the reproducibility contract.
    """
    if any(w <= 0 for w in weights):
        raise ValueError("weights must be positive")
    *head, last = weights
    out = []

    def rec(i, rem, prefix):
        if i == len(head):
            # the last exponent is solved, not searched
            if rem % last == 0:
                out.append(prefix + (rem // last,))
            return
        for e in range(rem // head[i], -1, -1):
            rec(i + 1, rem - e * head[i], prefix + (e,))

    rec(0, d, ())
    return tuple(out)


class Poly:
    """Immutable sparse polynomial; terms maps exponent tuple -> raw coefficient."""

    __slots__ = ("field", "nvars", "terms", "weights", "var_names")

    def __init__(self, field, terms, nvars=3, weights=None, var_names=None,
                 _normalized=False):
        self.field = field
        self.nvars = nvars
        self.weights = tuple(weights) if weights else (1,) * nvars
        self.var_names = tuple(var_names) if var_names else DEFAULT_VARS[:nvars]
        if _normalized:
            self.terms = terms
        else:
            clean = {}
            for e, c in terms.items():
                if not field.is_zero(c):
                    clean[tuple(e)] = c
            self.terms = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, field, nvars=3, weights=None, var_names=None):
        return cls(field, {}, nvars, weights, var_names, _normalized=True)

    @classmethod
    def constant(cls, field, c, nvars=3, weights=None, var_names=None):
        c = field.coerce(c)
        t = {} if field.is_zero(c) else {(0,) * nvars: c}
        return cls(field, t, nvars, weights, var_names, _normalized=True)

    @classmethod
    def variable(cls, field, i, nvars=3, weights=None, var_names=None):
        e = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(field, {e: field.one}, nvars, weights, var_names, _normalized=True)

    @classmethod
    def linear_form(cls, field, coeffs, var_names=None):
        t = {}
        for i, c in enumerate(coeffs):
            c = field.coerce(c)
            if not field.is_zero(c):
                e = tuple(1 if j == i else 0 for j in range(len(coeffs)))
                t[e] = c
        return cls(field, t, len(coeffs), None, var_names, _normalized=True)

    def _new(self, terms, normalized=False):
        return Poly(self.field, terms, self.nvars, self.weights, self.var_names,
                    _normalized=normalized)

    # -- basic structure ----------------------------------------------------

    def is_zero(self):
        return not self.terms

    def wdeg(self, e):
        return sum(w * k for w, k in zip(self.weights, e))

    def degree(self):
        """Weighted total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(self.wdeg(e) for e in self.terms)

    def is_homogeneous(self):
        degs = {self.wdeg(e) for e in self.terms}
        return len(degs) <= 1

    def sorted_terms(self):
        return sorted(self.terms.items(),
                      key=lambda item: (-self.wdeg(item[0]), tuple(-k for k in item[0])))

    def key(self):
        return tuple(sorted(self.terms.items()))

    def coeff(self, e):
        return self.terms.get(tuple(e), self.field.zero)

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.field == other.field
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.field.spec_key(), self.key()))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        return self._plus(other.terms)

    def _plus(self, terms):
        f = self.field
        out = dict(self.terms)
        for e, c in terms.items():
            if e in out:
                s = f.add(out[e], c)
                if f.is_zero(s):
                    del out[e]
                else:
                    out[e] = s
            else:
                out[e] = c
        return self._new(out, normalized=True)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        f = self.field
        return self._new({e: f.neg(c) for e, c in self.terms.items()}, normalized=True)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        self._check(other)
        f = self.field
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple([i + j for i, j in zip(e1, e2)])
                prod = f.mul(c1, c2)
                old = out.get(e)
                out[e] = prod if old is None else f.add(old, prod)
        return self._new({e: c for e, c in out.items() if not f.is_zero(c)},
                         normalized=True)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        f = self.field
        c = f.coerce(c)
        if f.is_zero(c):
            return self._new({}, normalized=True)
        return self._new({e: f.mul(v, c) for e, v in self.terms.items()},
                         normalized=True)

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative polynomial powers are not defined")
        acc = Poly.constant(self.field, self.field.one, self.nvars, self.weights,
                            self.var_names)
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base if n > 1 else base
            n >>= 1
        return acc

    def _check(self, other):
        if self.field != other.field:
            raise FieldError("mismatched field specs")
        if self.nvars != other.nvars:
            raise ValueError("mismatched variable arity")

    # -- calculus and evaluation --------------------------------------------

    def partial_derivative(self, var):
        f = self.field
        out = {}
        for e, c in self.terms.items():
            k = e[var]
            if k:
                e2 = e[:var] + (k - 1,) + e[var + 1:]
                d = f.mul(c, f.coerce(k))
                if f.is_zero(d):
                    continue
                out[e2] = f.add(out[e2], d) if e2 in out else d
        return self._new(out)

    def evaluate(self, point):
        f = self.field
        point = [f.coerce(c) for c in point]
        pows = [{0: f.one} for _ in range(self.nvars)]

        def pw(i, k):
            if k not in pows[i]:
                pows[i][k] = f.mul(pw(i, k - 1), point[i])
            return pows[i][k]

        acc = f.zero
        for e, c in self.terms.items():
            v = c
            for i, k in enumerate(e):
                if k:
                    v = f.mul(v, pw(i, k))
            acc = f.add(acc, v)
        return acc

    def substitute(self, images):
        """Ring map: send variable i to images[i] (a Poly), expanded by Horner's
        rule one variable at a time, so every product is by one image."""
        if len(images) != self.nvars:
            raise ValueError("need one image per variable")
        zero = images[0]._new({}, normalized=True)
        if zero.field != self.field:
            raise FieldError("substitution images live in a different field")

        def horner(terms, i):
            # terms maps the exponents of variables i, i + 1, ... to coefficients
            if i == self.nvars:
                return {(0,) * zero.nvars: terms[()]}
            slices = {}
            for e, c in terms.items():
                slices.setdefault(e[0], {})[e[1:]] = c
            acc = zero
            for k in range(max(slices, default=-1), -1, -1):
                acc = acc * images[i]
                if k in slices:
                    acc = acc._plus(horner(slices[k], i + 1))
            return acc.terms

        return zero._new(horner(self.terms, 0), normalized=True)

    # -- normal forms and text ----------------------------------------------

    def canonical_scale(self):
        """Scale so the graded-lex leading coefficient is 1 (zero stays zero)."""
        if not self.terms:
            return self
        lead = self.sorted_terms()[0][1]
        return self.scale(self.field.inv(lead))

    def coeff_vector(self, monomial_order):
        return [self.terms.get(e, self.field.zero) for e in monomial_order]

    @classmethod
    def from_coeff_vector(cls, field, vec, monomial_order, nvars=3, weights=None,
                          var_names=None):
        t = {}
        for e, c in zip(monomial_order, vec):
            c = field.coerce(c)
            if not field.is_zero(c):
                t[tuple(e)] = c
        return cls(field, t, nvars, weights, var_names, _normalized=True)

    def text(self):
        """Canonical text form: graded-lex sorted monomials, explicit coefficients."""
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                (n if k == 1 else f"{n}^{k}")
                for n, k in zip(self.var_names, e) if k)
            cs = self.field.fmt(c)
            if any(ch in cs[1:] for ch in "+-") or "/" in cs or "*" in cs:
                cs = f"({cs})"
            parts.append(f"{cs}*{mono}" if mono and cs not in ("1",) else (mono or cs))
        return " + ".join(parts)

    def __repr__(self):
        txt = self.text()
        return txt if len(txt) < 120 else f"<Poly {len(self.terms)} terms deg {self.degree()}>"


def poly_det(rows):
    """Determinant of a square matrix of Polys by cofactor expansion."""
    n = len(rows)
    field = rows[0][0].field
    proto = rows[0][0]

    def minor(row_ids, col_ids):
        if len(row_ids) == 1:
            return rows[row_ids[0]][col_ids[0]]
        acc = Poly.zero(field, proto.nvars, proto.weights, proto.var_names)
        r = row_ids[0]
        for k, c in enumerate(col_ids):
            entry = rows[r][c]
            if entry.is_zero():
                continue
            sub = minor(row_ids[1:], col_ids[:k] + col_ids[k + 1:])
            term = entry * sub
            acc = acc + (term if k % 2 == 0 else -term)
        return acc

    return minor(tuple(range(n)), tuple(range(n)))


def gradient(f):
    return [f.partial_derivative(i) for i in range(f.nvars)]


def hessian_det(f):
    """Determinant of the matrix of second partials (3 variables)."""
    grads = gradient(f)
    rows = [[grads[i].partial_derivative(j) for j in range(3)] for i in range(3)]
    return poly_det(rows)


def bordered_hessian_det(f, g):
    """4x4 determinant: second partials of f bordered by the gradient of g."""
    gf = gradient(f)
    gg = gradient(g)
    zero = Poly.zero(f.field, f.nvars, f.weights, f.var_names)
    rows = [[gf[i].partial_derivative(j) for j in range(3)] + [gg[i]]
            for i in range(3)]
    rows.append(gg + [zero])
    return poly_det(rows)


def jacobian_det(f, g, h):
    """Determinant of the Jacobian of (f, g, h)."""
    return poly_det([gradient(f), gradient(g), gradient(h)])


def local_monomials(m):
    """Exponents (i, j) of u^i v^j in k[u,v]/(u,v)^m, by total degree and
    then by decreasing i: the coefficient order of truncated expansions."""
    return [(i, s - i) for s in range(m) for i in range(s, -1, -1)]


class TruncPoly:
    """Element of k[u,v]/(u,v)^order: terms of total degree < order only."""

    __slots__ = ("field", "order", "terms")

    def __init__(self, field, order, terms=None):
        self.field = field
        self.order = order
        self.terms = {}
        if terms:
            for (i, j), c in terms.items():
                if i + j < order and not field.is_zero(c):
                    self.terms[(i, j)] = c

    def __add__(self, other):
        f = self.field
        out = TruncPoly(f, min(self.order, other.order))
        out.terms = {k: v for k, v in self.terms.items() if sum(k) < out.order}
        for k, v in other.terms.items():
            if sum(k) >= out.order:
                continue
            if k in out.terms:
                s = f.add(out.terms[k], v)
                if f.is_zero(s):
                    del out.terms[k]
                else:
                    out.terms[k] = s
            else:
                out.terms[k] = v
        return out

    def __neg__(self):
        out = TruncPoly(self.field, self.order)
        out.terms = {k: self.field.neg(v) for k, v in self.terms.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        f = self.field
        c = f.coerce(c)
        out = TruncPoly(f, self.order)
        if not f.is_zero(c):
            out.terms = {k: f.mul(v, c) for k, v in self.terms.items()}
        return out

    def __mul__(self, other):
        f = self.field
        order = min(self.order, other.order)
        out = TruncPoly(f, order)
        acc = out.terms
        for (i1, j1), c1 in self.terms.items():
            d1 = i1 + j1
            if d1 >= order:
                continue
            for (i2, j2), c2 in other.terms.items():
                if d1 + i2 + j2 >= order:
                    continue
                k = (i1 + i2, j1 + j2)
                prod = f.mul(c1, c2)
                if k in acc:
                    acc[k] = f.add(acc[k], prod)
                else:
                    acc[k] = prod
        out.terms = {k: v for k, v in acc.items() if not f.is_zero(v)}
        return out

    def __pow__(self, n):
        out = TruncPoly(self.field, self.order, {(0, 0): self.field.one})
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def is_zero(self):
        return not self.terms

    def order_of_vanishing(self):
        """Least total degree with a nonzero coefficient; None if zero mod truncation."""
        if not self.terms:
            return None
        return min(i + j for i, j in self.terms)

    def leading_form(self):
        """Terms of minimal total degree, as a dict; empty if zero."""
        k = self.order_of_vanishing()
        if k is None:
            return {}
        return {e: c for e, c in self.terms.items() if sum(e) == k}

    def coeff(self, i, j):
        return self.terms.get((i, j), self.field.zero)

    def __eq__(self, other):
        return (isinstance(other, TruncPoly) and self.order == other.order
                and self.terms == other.terms)

    def __repr__(self):
        return f"<TruncPoly order {self.order}: {len(self.terms)} terms>"


def normalize_point(field, point):
    """Scale a projective point so its last nonzero coordinate is 1."""
    point = [field.coerce(c) for c in point]
    for i in range(len(point) - 1, -1, -1):
        if not field.is_zero(point[i]):
            inv = field.inv(point[i])
            return tuple(field.mul(c, inv) for c in point)
    raise ValueError("zero vector is not a projective point")


def chart_for_point(field, point):
    """Index of the chart coordinate: last nonzero coordinate of the point."""
    for i in range(len(point) - 1, -1, -1):
        if not field.is_zero(point[i]):
            return i
    raise ValueError("zero vector is not a projective point")


def taylor_table(field, c, emax, m):
    """Coefficients of (c + u)^e below order m, for e = 0 .. emax.

    Row e holds C(e, i) * c^(e - i) at index i < m (zero for i > e).  The
    rows follow Pascal's rule, row_e[i] = row_(e-1)[i-1] + c * row_(e-1)[i],
    with field operations only; this is the one binomial expansion behind
    every local expansion and every fat-point condition.
    """
    row = [field.one if i == 0 else field.zero for i in range(m)]
    table = [row]
    for _ in range(emax):
        row = [field.add(row[i - 1], field.mul(c, row[i])) if i
               else field.mul(c, row[0]) for i in range(m)]
        table.append(row)
    return table


def local_expand(f, center, m, chart=None):
    """Recenter f at a projective point and truncate below total degree m.

    The chart coordinate (default: the last nonzero one) is set to 1 after
    recentering; the remaining two variables become the local coordinates, in
    their original order.  The order of vanishing of the result is the
    multiplicity of f at the point (for m large enough).
    """
    field = f.field
    if f.nvars != 3:
        raise ValueError("local expansion is for trivariate polynomials")
    pt = [field.coerce(c) for c in center]
    if chart is None:
        chart = chart_for_point(field, pt)
    if field.is_zero(pt[chart]):
        raise ValueError("center lies on the hyperplane excluded by the chart")
    inv = field.inv(pt[chart])
    lu, lv = (i for i in range(3) if i != chart)
    a, b = field.mul(pt[lu], inv), field.mul(pt[lv], inv)
    tu = taylor_table(field, a, max((e[lu] for e in f.terms), default=0), m)
    tv = taylor_table(field, b, max((e[lv] for e in f.terms), default=0), m)

    out = TruncPoly(field, m)
    acc = out.terms
    for e, c in f.terms.items():
        ru, rv = tu[e[lu]], tv[e[lv]]
        for i in range(min(e[lu], m - 1) + 1):
            if field.is_zero(ru[i]):
                continue
            cai = field.mul(c, ru[i])
            for j in range(min(e[lv], m - 1 - i) + 1):
                if field.is_zero(rv[j]):
                    continue
                v = field.mul(cai, rv[j])
                k = (i, j)
                if k in acc:
                    acc[k] = field.add(acc[k], v)
                else:
                    acc[k] = v
    out.terms = {k: v for k, v in acc.items() if not field.is_zero(v)}
    return out


def multiplicity_at(f, center, cap=None):
    """Order of vanishing of f at a projective point (None if f is 0 there
    beyond the cap)."""
    if cap is None:
        cap = f.degree() + 1 if f.degree() >= 0 else 1
    t = local_expand(f, center, cap + 1)
    return t.order_of_vanishing()
