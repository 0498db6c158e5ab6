"""Invariant linear series: expected dimension, exact dimension, exact basis.

A series is the space of weighted polynomials in the fundamental invariants
of a configuration whose expansions vanish to prescribed orders along the
orbit classes of singular points.  Conditions are imposed at a single
representative per orbit class (sufficient by invariance; cross-checked at
random orbit points in the test suite).

The conditions are read on lines through the representative.  A form
vanishes to order m there exactly when each homogeneous part h_k (k < m)
of its local expansion in (u, v) is zero.  h_k(1, l) is the coefficient of
t^k on the line (u, v) = (t, l t), and a binary form of degree k is zero
once it vanishes at k + 1 distinct slopes.  A class representative P needs
fewer lines, because every column is a G-invariant form.  The stabilizer
G_P of P acts on the tangent directions at P, and the leading form h_k0 of
a form F of order k0 at P is semi-invariant under it, so the zeros of
h_k0 are a union of G_P-orbits.  The slopes are taken in turn from 0, 1,
2, ..., each skipped when it lies in the orbit of one already taken, until
L of them have orbits covering at least m directions.  Then the rows on
the first min(k + 1, L) lines for each k < m cut out the same kernel as
the m(m + 1)/2 rows on the slopes 0 .. m - 1: if F satisfies them and
k0 < m, h_k0 vanishes either at k0 + 1 distinct slopes or on orbits of at
least m > k0 directions, and is zero.  So the kernel and its canonical
basis are those of the coefficient rows.  The slope sequence is fixed per
point, so the lines for m are the first lines for any larger m.  A point
that is not a class representative is read on the slopes 0 .. m - 1.  On
a line every form is a polynomial in t alone, and products are
one-variable truncated products.  The slopes are distinct in F_p only
when m <= p: a larger multiplicity over F_p is a usage error.

Over F_p the line values of a generator at multiplicity m are an (L, m)
array (line, coefficient), and each representative keeps one table per
generator: its powers 0 .. E below t^M, an (E + 1, L, M) array for the L
lines that cover M directions, built by doubling in about log2(E) batched
products.  A block that needs a larger E extends it; one that needs a
larger M rebuilds it at twice its M (at least m, at most p).  A block at
m <= M reads the slice [:e + 1, :L, :m], L now the lines for m, and the
slice is exact: those are the first L lines, and the coefficients below
t^m of a product depend only on those of its factors below t^m.  The
columns P0[a] P1[b] P2[c] of a block are two batched products over chunks
of CHUNK_CELLS // (L m) columns, so no temporary grows past a few
(CHUNK_CELLS)-cell stacks, and the rows are one gather of the (line,
degree) pairs.  Other fields multiply TruncPoly lines one column at a
time.

The dimension of a series is a rank: its column count minus the rank of
its condition matrix (`series_dim`, through `linalg.rank`: over F_p the
forward-only `kernels.rank_mod`; over the number fields the column count
less the certified kernel).  The negative-curve search, the golden checks
and `series` without `--basis` need nothing more; the kernel basis
(`series_basis`) is built only on request, from the same matrix.
"""

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from kleinwiman import kernels, linalg
from kleinwiman.errors import SeriesError, UsageError
from kleinwiman.fields import PrimeField
from kleinwiman.groups import PLANE_ORDERS, stabilizer
from kleinwiman.invariants import KLEIN_WEIGHTS, WIMAN_WEIGHTS, invariant_set
from kleinwiman.poly import Poly, TruncPoly, local_expand, weighted_basis


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
    return KLEIN_WEIGHTS if preset == "klein" else WIMAN_WEIGHTS


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


@lru_cache(maxsize=None)
def _generator_expansion(preset, field, rep, i):
    """Complete local expansion of fundamental invariant i at a point."""
    w = series_weights(preset)[i]
    return local_expand(invariant_set(preset, field).phi[w], rep, w + 1)


def _tangent_maps(preset, field, rep):
    """The stabilizer of a class representative acting on its tangent
    directions: per element g, the 2 x 2 matrix (a, b, c, d) taking the
    direction (u, v) to (a u + b v, c u + d v), up to a scalar.  No maps
    for a point that is not a class representative."""
    config = invariant_set(preset, field).config
    cls = next((c for c in config.classes if c.representative == rep), None)
    if cls is None:
        return []
    mul, sub = field.mul, field.sub
    h = cls.chart
    i, j = (k for k in range(3) if k != h)
    # g (P + u e_i + v e_j) = lambda P + u g e_i + v g e_j, read in the chart
    return [tuple(sub(g.m[r][c], mul(rep[r], g.m[h][c]))
                  for r in (i, j) for c in (i, j))
            for g in stabilizer(config.gens, rep, PLANE_ORDERS[preset] // cls.size)]


class _Slopes:
    """The slopes of the lines (u, v) = (t, l t) through one point: 0, 1,
    2, ... in turn, each skipped when it lies in the orbit of one already
    taken.  The orbit of l is where the point's tangent maps send the
    direction (1, l): a slope, or None for (0, 1).  reach[n] counts the
    directions in the orbits of slopes[:n + 1]."""

    def __init__(self, field, maps):
        self.field, self.maps = field, maps
        self.slopes, self.reach, self.covered = [], [], set()
        self.next = 0

    def count(self, m):
        """How many of the slopes have orbits covering m directions;
        SeriesError over F_p once the slopes run out first."""
        f = self.field
        while not self.reach or self.reach[-1] < m:
            if isinstance(f, PrimeField) and self.next >= f.p:
                raise SeriesError(f"the slope orbits cover only {len(self.covered)} "
                                  f"directions over {f.name}, not {m}")
            slope = f.coerce(self.next)
            self.next += 1
            if slope in self.covered:
                continue
            orbit = {slope}
            for a, b, c, d in self.maps:
                den = f.add(a, f.mul(b, slope))
                orbit.add(None if f.is_zero(den) else
                          f.div(f.add(c, f.mul(d, slope)), den))
            self.slopes.append(slope)
            self.covered |= orbit
            self.reach.append(len(self.covered))
        return bisect_left(self.reach, m) + 1


@lru_cache(maxsize=None)
def _slopes(preset, field, rep):
    """The point's slope sequence, shared by all its blocks."""
    return _Slopes(field, _tangent_maps(preset, field, rep))


def _block_rows(n, m):
    """The (line, degree) pairs of a block on n lines: the t^k coefficient
    on the first min(k + 1, n) lines for each k < m."""
    return [(line, k) for k in range(m) for line in range(min(k + 1, n))]


def _line_values(field, expansion, slopes, m):
    """An expansion on the lines (u, v) = (t, l t), l in slopes, below t^m.

    Entry [l][k] is h_k(1, l), h_k the degree-k part of the expansion: an
    (L, m) int64 array over F_p, one TruncPoly in u alone per line otherwise.
    """
    terms = [(i + j, j, c) for (i, j), c in expansion.terms.items() if i + j < m]
    if isinstance(field, PrimeField):
        p = field.p
        slopes = np.array(slopes, dtype=np.int64)
        powers = np.ones((len(slopes), 1 + max((j for _, j, _ in terms), default=0)),
                         dtype=np.int64)
        for j in range(1, powers.shape[1]):
            powers[:, j] = powers[:, j - 1] * slopes % p
        diag = np.zeros((m, powers.shape[1]), dtype=np.int64)
        for k, j, c in terms:
            diag[k, j] = c
        return powers @ diag.T % p
    lines = []
    for slope in slopes:
        row = [field.zero] * m
        for k, j, c in terms:
            row[k] = field.add(row[k], field.mul(c, field.pow(slope, j)))
        lines.append(TruncPoly(field, m, {(k, 0): c for k, c in enumerate(row)}))
    return lines


# Over F_p, per (preset, field, representative, generator): the powers
# 0 .. E of the generator's values on the first L lines below t^M, one
# (E + 1, L, M) int64 array, L lines covering M directions, grown when a
# block needs a larger M or E (see the module docstring).
_power_tables = {}

# Cells of one (columns, L, m) stack of column products: chunks of columns
# keep every temporary of a batched product near this size.
CHUNK_CELLS = 1 << 15


def _power_table(preset, field, rep, i, m, e):
    """Powers 0 .. e (at least) of generator i's line values below t^M,
    M >= m, as the leading axis of an int64 array over F_p.

    A table too narrow for m is rebuilt from powers 0 and 1 at twice its M
    (at least m, at most p); one too short for e is extended by doubling:
    powers n + 1 .. n + k are powers 1 .. k times power n, one batched
    product each, in an array allocated first, within kernels.MAX_BYTES.
    """
    key = (preset, field, rep, i)
    tab = _power_tables.get(key)
    if tab is None or tab.shape[2] < m:
        size = m if tab is None else min(max(m, 2 * tab.shape[2]), field.p)
        lines = _slopes(preset, field, rep)
        base = _line_values(field, _generator_expansion(preset, field, rep, i),
                            lines.slopes[:lines.count(size)], size)
        one = np.zeros_like(base)
        one[:, 0] = 1
        tab = np.stack([one, base])
    n = len(tab) - 1
    if n < e:
        grown = kernels.empty((e + 1,) + tab.shape[1:])
        grown[:n + 1] = tab
        while n < e:
            k = min(n, e - n)
            grown[n + 1:n + k + 1] = kernels.trunc_mul_mod(grown[1:k + 1], grown[n],
                                                           field.p)
            n += k
        tab = grown
    _power_tables[key] = tab
    return tab


def _condition_block(preset, field, rep, m, exps, out=None):
    """Rows of vanishing conditions (below order m) at one representative:
    an int64 array over F_p, written into `out` when given (allocated
    within kernels.MAX_BYTES otherwise), a list of rows otherwise.

    For each k < m, the t^k coefficients on the first min(k + 1, L) lines,
    L lines covering m directions (see the module docstring).
    """
    lines = _slopes(preset, field, rep)
    n = lines.count(m)
    rows = _block_rows(n, m)
    if isinstance(field, PrimeField):
        at, degrees = np.array(rows).T
        if out is None:
            out = kernels.empty((len(rows), len(exps)))
        e = np.array(exps).T
        tabs = [_power_table(preset, field, rep, i, m, e[i].max())[:, :n, :m]
                for i in range(3)]
        step = max(1, CHUNK_CELLS // (n * m))
        for s in range(0, len(exps), step):
            a, b, c = e[:, s:s + step]
            cols = kernels.trunc_mul_mod(tabs[0][a], tabs[1][b], field.p)
            cols = kernels.trunc_mul_mod(cols, tabs[2][c], field.p)
            out[:, s:s + step] = cols[:, at, degrees].T
        return out

    def mul(a, b):
        return [x * y for x, y in zip(a, b)]

    slopes = lines.slopes[:n]
    one = _line_values(field, TruncPoly(field, m, {(0, 0): field.one}), slopes, m)
    powers = []
    for i in range(3):
        base = _line_values(field, _generator_expansion(preset, field, rep, i),
                            slopes, m)
        row = [one]
        for _ in range(max(e[i] for e in exps)):
            row.append(mul(row[-1], base))
        powers.append(row)

    def column(a, b, c):
        prod = powers[0][a]
        if b:
            prod = mul(prod, powers[1][b])
        if c:
            prod = mul(prod, powers[2][c])
        return prod

    cols = [column(*e) for e in exps]
    return [[col[line].coeff((k, 0)) for col in cols] for line, k in rows]


@dataclass
class SeriesBasis:
    spec: SeriesSpec
    field: object
    exponents: tuple      # weighted-monomial order of the coordinates
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


def _series_matrix(spec, field):
    """The column exponents of the series (its weighted monomials) and its
    condition matrix: an int64 array over F_p (within kernels.MAX_BYTES), a
    list of rows otherwise.

    A multiplicity above p is a usage error, raised before any row is built.
    """
    mults = spec.class_multiplicities()
    if isinstance(field, PrimeField) and max(mults) > field.p:
        raise UsageError(f"multiplicity {max(mults)} exceeds the characteristic "
                         f"{field.p}: the conditions need that many distinct "
                         "slopes in the field")
    exps = weighted_basis(series_weights(spec.preset), spec.d)
    if not exps:
        return exps, []
    config = invariant_set(spec.preset, field).config
    reps = [(cls.representative, m) for cls, m in zip(config.classes, mults) if m > 0]
    if isinstance(field, PrimeField):
        # one array, filled block by block, that linalg takes as it is
        counts = [len(_block_rows(_slopes(spec.preset, field, rep).count(m), m))
                  for rep, m in reps]
        rows = kernels.empty((sum(counts), len(exps)))
        start = 0
        for (rep, m), count in zip(reps, counts):
            end = start + count
            _condition_block(spec.preset, field, rep, m, exps, rows[start:end])
            start = end
    else:
        rows = [row for rep, m in reps
                for row in _condition_block(spec.preset, field, rep, m, exps)]
    return exps, rows


def series_basis(spec, field):
    """Exact basis of the invariant series; empty when the degree is not
    representable in the weighted generator algebra."""
    exps, rows = _series_matrix(spec, field)
    return SeriesBasis(spec, field, exps, linalg.kernel(rows, len(exps), field)
                       if exps else [])


def series_dim(spec, field):
    """Dimension of the invariant series: its column count minus the rank of
    its condition matrix, with no kernel basis built."""
    exps, rows = _series_matrix(spec, field)
    return len(exps) - linalg.rank(rows, len(exps), field)
