"""Invariant linear series: expected dimension, exact dimension, exact basis.

A series is the space of weighted polynomials in the fundamental invariants
of a configuration whose expansions vanish to prescribed orders along the
orbit classes of singular points.  Conditions are imposed at a single
representative per orbit class (sufficient by invariance; cross-checked at
random orbit points in the test suite), as truncated local expansions whose
coefficients below the multiplicity must vanish.
"""

from dataclasses import dataclass

import numpy as np

from kleinwiman import kernels, linalg
from kleinwiman.errors import SeriesError
from kleinwiman.fields import PrimeField
from kleinwiman.invariants import invariant_set
from kleinwiman.poly import Poly, local_expand, local_monomials, weighted_basis


def cond(n, m):
    """Number of monomials of weighted degree < m in two variables of
    degrees 2 and n: the local conditions an invariant form must satisfy to
    be m-uple at a point of multiplicity n."""
    if n not in (3, 4, 5):
        raise SeriesError(f"multiplicity type {n} not supported")
    return sum(1 for b in range(m // n + 1) for a in range((m - n * b + 1) // 2)
               ) if m > 0 else 0


@dataclass(frozen=True)
class SeriesSpec:
    preset: str
    d: int
    m5: int = 0
    m4: int = 0
    m3: int = 0
    m3b: int = None  # Wiman only: untie the two triple orbits

    def __post_init__(self):
        if self.d < 0 or min(self.m5, self.m4, self.m3) < 0 \
                or (self.m3b is not None and self.m3b < 0):
            raise SeriesError("degrees and multiplicities must be nonnegative")
        if self.preset == "klein" and (self.m5 or self.m3b is not None):
            raise SeriesError("klein series take only m4 and m3")

    def class_multiplicities(self):
        """Multiplicity per orbit class, in configuration class order."""
        if self.preset == "klein":
            return (self.m4, self.m3)
        m3b = self.m3 if self.m3b is None else self.m3b
        return (self.m5, self.m4, self.m3, m3b)


def series_weights(preset):
    return (4, 6, 14) if preset == "klein" else (6, 12, 30)


def dim_t(preset, d):
    """Dimension of the degree-d piece of the invariant generator algebra."""
    return len(weighted_basis(series_weights(preset), d))


def edim(spec):
    """Expected dimension: dim of the ambient piece minus the local condition
    counts, floored at zero."""
    base = dim_t(spec.preset, spec.d)
    if spec.preset == "klein":
        used = cond(4, spec.m4) + cond(3, spec.m3)
    else:
        m3b = spec.m3 if spec.m3b is None else spec.m3b
        used = cond(5, spec.m5) + cond(4, spec.m4) + cond(3, spec.m3) + cond(3, m3b)
    return max(base - used, 0)


class _ModpLocalRing:
    """Truncated local arithmetic on dense int64 arrays through the kernels."""

    def __init__(self, field, order):
        self.field = field
        self.p = field.p
        self.order = order

    def from_trunc(self, t):
        a = np.zeros((self.order, self.order), dtype=np.int64)
        for (i, j), c in t.terms.items():
            if i + j < self.order:
                a[i, j] = c
        return a

    def one(self):
        a = np.zeros((self.order, self.order), dtype=np.int64)
        a[0, 0] = 1
        return a

    def mul(self, a, b):
        return kernels.trunc_mul_mod(a, b, self.p)

    def coeffs(self, a, monomials):
        ii = np.fromiter((i for i, _ in monomials), dtype=np.int64)
        jj = np.fromiter((j for _, j in monomials), dtype=np.int64)
        return a[ii, jj]

    def truncate(self, a, order):
        out = a[:order, :order].copy()
        for i in range(order):
            out[i, order - i:] = 0
        return out

    def matrix(self, cols):
        return np.array(cols, dtype=np.int64).T


class _ExactLocalRing:
    """The same interface over TruncPoly for exact fields."""

    def __init__(self, field, order):
        self.field = field
        self.order = order

    def from_trunc(self, t):
        return t.copy_truncated(self.order)

    def one(self):
        from kleinwiman.poly import TruncPoly
        return TruncPoly(self.field, self.order, {(0, 0): self.field.one})

    def mul(self, a, b):
        return a * b

    def coeffs(self, a, monomials):
        return [a.coeff(i, j) for i, j in monomials]

    def truncate(self, a, order):
        return a.copy_truncated(order)

    def matrix(self, cols):
        return [list(row) for row in zip(*cols)]


_POWER_CACHE = {}


def _generator_powers(preset, field, rep, gen_index, order, max_exp):
    """Truncated powers of a fundamental invariant at a representative.

    Cached per (field, preset, point, generator); the cache is regrown when a
    larger truncation order or exponent is requested, and sliced down
    otherwise (truncation of a product only ever needs the low-order part of
    the factors).  The entry keeps its local ring: the one place where this
    module decides between int64 arrays over F_p and exact TruncPoly.
    """
    key = (field.spec_key(), preset, rep, gen_index)
    entry = _POWER_CACHE.get(key)
    if entry is None or entry["order"] < order or len(entry["powers"]) <= max_exp:
        inv = invariant_set(preset, field)
        gens = [inv.phi[w] for w in series_weights(preset)]
        grow_order = max(order, entry["order"] if entry else 0)
        grow_exp = max(max_exp, len(entry["powers"]) - 1 if entry else 0)
        ring = (_ModpLocalRing(field, grow_order) if isinstance(field, PrimeField)
                else _ExactLocalRing(field, grow_order))
        base = ring.from_trunc(local_expand(gens[gen_index], rep, grow_order))
        powers = [ring.one()]
        for _ in range(grow_exp):
            powers.append(ring.mul(powers[-1], base))
        entry = {"order": grow_order, "powers": powers, "ring": ring}
        _POWER_CACHE[key] = entry
    return entry


def _condition_block(preset, field, rep, m, exps):
    """Rows of vanishing conditions (below order m) at one representative."""
    monomials = local_monomials(m)
    caches = [_generator_powers(preset, field, rep, i, m, max(e[i] for e in exps))
              for i in range(3)]
    ring = caches[0]["ring"]

    def power(i, e):
        return ring.truncate(caches[i]["powers"][e], m)

    cols = []
    for (a, b, c) in exps:
        prod = power(0, a)
        if b:
            prod = ring.mul(prod, power(1, b))
        if c:
            prod = ring.mul(prod, power(2, c))
        cols.append(ring.coeffs(prod, monomials))
    return ring.matrix(cols)


@dataclass
class SeriesBasis:
    spec: SeriesSpec
    field: object
    exponents: list       # weighted-monomial order of the coordinates
    vectors: list         # kernel basis from linalg.kernel (int64 rows over F_p)

    @property
    def dim(self):
        return len(self.vectors)

    def weighted_polys(self):
        """Basis elements as polynomials in the fundamental generators."""
        weights = series_weights(self.spec.preset)
        return [Poly.from_coeff_vector(self.field, v, self.exponents, 3, weights,
                                       ("v1", "v2", "v3"))
                for v in self.vectors]

    def expanded(self, i):
        """Basis element i, expanded into the coordinate ring."""
        inv = invariant_set(self.spec.preset, self.field)
        gens = [inv.phi[w] for w in series_weights(self.spec.preset)]
        return self.weighted_polys()[i].substitute(gens)


def series_basis(spec, field):
    """Exact basis of the invariant series; empty when the degree is not
    representable in the weighted generator algebra."""
    exps = weighted_basis(series_weights(spec.preset), spec.d)
    if not exps:
        return SeriesBasis(spec, field, [], [])
    config = invariant_set(spec.preset, field).config
    mults = spec.class_multiplicities()
    rows = []
    for cls, m in zip(config.classes, mults):
        if m > 0:
            rows.extend(_condition_block(spec.preset, field, cls.representative,
                                         m, exps))
    return SeriesBasis(spec, field, exps, linalg.kernel(rows, len(exps), field))


def series_dim(spec, field):
    return series_basis(spec, field).dim


def check_expected_dim(spec, field):
    """dim >= edim is a theorem; a violation means the engine is broken."""
    dim = series_dim(spec, field)
    e = edim(spec)
    if dim < e:
        raise SeriesError(
            f"series dimension {dim} fell below expected dimension {e} "
            f"for {spec}; this indicates a defect in the engine")
    return {"spec": spec, "dim": dim, "edim": e, "equal": dim == e}

