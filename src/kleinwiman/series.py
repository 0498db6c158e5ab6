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
once it vanishes at k + 1 distinct directions.  A class representative P
needs fewer lines, because every column is a G-invariant form.  The
stabilizer G_P of P acts on the tangent directions at P, and the leading
form h_k0 of a form F of order k0 at P is semi-invariant under it, so the
zeros of h_k0 are a union of G_P-orbits.  The slopes are taken in turn
from 0, 1, 2, ..., each skipped when it lies in the orbit of one already
taken; the first point.count(n) of them have orbits covering at least n
directions.  The rows of order k are the t^k coefficients on the first
point.count(k + 1) lines (`_block_rows`).  They cut out the same kernel as
the m(m + 1)/2 rows on the slopes 0 .. m - 1: if F satisfies them and has
order k0 < m, h_k0 vanishes on the orbits of lines covering more than k0
directions, and is zero.  So the kernel and its canonical basis are those
of the coefficient rows.  A point that is not a class representative has
no tangent maps, and reads order k on k + 1 lines.  The rows of each order
do not depend on m, and the rows are ordered by order, then line: the
block at m is exactly the row prefix of the block at any larger M.  On a
line every form is a polynomial in t alone, and products are one-variable
truncated products.  The slopes are distinct in F_p only when m <= p: a
larger multiplicity over F_p is a usage error.

Everything a block reads at one point is built once, on one object
(`_point`): the stabilizer's tangent maps, the slopes, the generators'
expansions and their line values, which field operations build over every
field: at multiplicity m an (L, m) array (line, coefficient) over F_p, L
TruncPoly lines otherwise.  Over F_p the point keeps one table per
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

The series of one degree share their blocks (`_series_matrices`): each
orbit class has one block, at the largest multiplicity that the series
read ask of it (none, and no point, when that is 0), and the matrix of a
series stacks its classes' row prefixes.  The negative-curve search reads
each degree's candidates this way (`series_dims`), and a single series is
the case of one.  A degree with more weighted monomials than the mod-p
kernels take columns (kernels.WIDEST; `dim_t` counts them without listing
them) is a usage error.

The dimension of a series is a rank: its column count minus the rank of
its condition matrix (`series_dims`, through `linalg.rank`: over F_p the
forward-only `kernels.rank_mod`; over the number fields the column count
less the certified kernel).  The negative-curve search, the golden checks
and `series` without `--basis` need nothing more; the kernel basis
(`series_basis`) is built only on request, from the same matrix.
"""

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, repeat
from math import gcd

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
    """Dimension of the degree-d piece of the invariant generator algebra:
    the exponents (a, b, c) with w0 a + w1 b + w2 c = d, counted without
    listing them.  For each c, the b in 0 .. r // w1 (r = d - w2 c) with
    w1 b = r mod w0 are those from the least one in steps of w0 / gcd."""
    w0, w1, w2 = series_weights(preset)
    step = w0 // gcd(w0, w1)
    count = 0
    for r in range(d, -1, -w2):
        top = r // w1
        first = next((b for b in range(min(step, top + 1))
                      if (r - w1 * b) % w0 == 0), None)
        if first is not None:
            count += (top - first) // step + 1
    return count


def check_width(preset, degrees):
    """A UsageError for the first of the degrees with more weighted
    monomials than the mod-p kernels take columns (kernels.WIDEST)."""
    for d in degrees:
        count = dim_t(preset, d)
        if count > kernels.WIDEST:
            raise UsageError(f"degree {d} has {count} weighted monomials, more "
                             f"than the {kernels.WIDEST} columns of the mod-p "
                             "kernels")


def check_search_width(preset, d_max):
    """check_width for every degree up to d_max, read on the top w0 of them:
    multiplication by the generator of the least weight w0 embeds the
    monomials of degree d - w0 in degree d."""
    w0 = series_weights(preset)[0]
    check_width(preset, range(max(d_max - w0 + 1, 0), d_max + 1))


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


class _Point:
    """The series data of one point, shared by all its blocks (`_point`).

    The slopes of the lines (u, v) = (t, l t) through it are 0, 1, 2, ...
    in turn, each skipped when it lies in the orbit of one already taken.
    The orbit of l is where the tangent maps send the direction (1, l): a
    slope, or None for (0, 1).  reach[n] counts the directions in the
    orbits of slopes[:n + 1].  The generators' expansions are built when
    first read, and over F_p `tables` holds each generator's power table.
    """

    def __init__(self, preset, field, rep, maps):
        self.preset, self.field, self.rep, self.maps = preset, field, rep, maps
        self.slopes, self.reach, self.covered, self.next = [], [], set(), 0
        self.expansions, self.tables = [None] * 3, [None] * 3

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

    def expansion(self, i):
        """Complete local expansion of fundamental invariant i at the point."""
        if self.expansions[i] is None:
            w = series_weights(self.preset)[i]
            self.expansions[i] = local_expand(
                invariant_set(self.preset, self.field).phi[w], self.rep, w + 1)
        return self.expansions[i]

    def line_values(self, i, m):
        """Generator i on the first count(m) lines below t^m, by field
        operations over every field: entry [l][k] is h_k(1, l), h_k the
        degree-k part of the expansion; an (L, m) int64 array over F_p, one
        TruncPoly in u alone per line otherwise."""
        f = self.field
        terms = [(a + b, b, c) for (a, b), c in self.expansion(i).terms.items()
                 if a + b < m]
        lines = []
        for slope in self.slopes[:self.count(m)]:
            powers = list(accumulate(repeat(slope, m - 1), f.mul, initial=f.one))
            row = [f.zero] * m
            for k, j, c in terms:
                row[k] = f.add(row[k], f.mul(c, powers[j]))
            lines.append(row)
        if isinstance(f, PrimeField):
            return np.array(lines, dtype=np.int64)
        return [TruncPoly(f, m, {(k, 0): c for k, c in enumerate(row)})
                for row in lines]

    def table(self, i, m, e):
        """Powers 0 .. e (at least) of generator i's line values below t^M,
        M >= m, as the leading axis of an int64 array over F_p.

        A table too narrow for m is rebuilt from powers 0 and 1 at twice its
        M (at least m, at most p); one too short for e is extended by
        doubling: powers n + 1 .. n + k are powers 1 .. k times power n, one
        batched product each, in an array allocated first, within
        kernels.MAX_BYTES.
        """
        p = self.field.p
        tab = self.tables[i]
        if tab is None or tab.shape[2] < m:
            base = self.line_values(i, m if tab is None else
                                    min(max(m, 2 * tab.shape[2]), p))
            one = np.zeros_like(base)
            one[:, 0] = 1
            tab = np.stack([one, base])
        n = len(tab) - 1
        if n < e:
            grown = kernels.empty((e + 1,) + tab.shape[1:])
            grown[:n + 1] = tab
            while n < e:
                k = min(n, e - n)
                grown[n + 1:n + k + 1] = kernels.trunc_mul_mod(grown[1:k + 1],
                                                               grown[n], p)
                n += k
            tab = grown
        self.tables[i] = tab
        return tab


@lru_cache(maxsize=None)
def _point(preset, field, rep):
    """The _Point of a point, built when a block first reads it."""
    return _Point(preset, field, rep, _tangent_maps(preset, field, rep))


def _block_rows(point, m):
    """The (line, degree) pairs of a block below order m: for each k < m,
    the t^k coefficient on the first point.count(k + 1) lines, those whose
    orbits cover k + 1 directions (k + 1 lines off a class representative).
    The pairs of each k do not depend on m, so the pairs for m are the first
    ones for any larger m."""
    return [(line, k) for k in range(m) for line in range(point.count(k + 1))]


# Cells of one (columns, L, m) stack of column products: chunks of columns
# keep every temporary of a batched product near this size.
CHUNK_CELLS = 1 << 15


def _condition_block(point, m, exps, out=None):
    """Rows of vanishing conditions (below order m) at one point: an int64
    array over F_p, written into `out` when given (allocated within
    kernels.MAX_BYTES otherwise), a list of rows otherwise.

    For each k < m, the t^k coefficients on the lines whose orbits cover
    k + 1 directions (see the module docstring): the block at m is the row
    prefix of the block at any larger m.
    """
    field = point.field
    n = point.count(m)
    rows = _block_rows(point, m)
    if isinstance(field, PrimeField):
        at, degrees = np.array(rows).T
        if out is None:
            out = kernels.empty((len(rows), len(exps)))
        e = np.array(exps).T
        tabs = [point.table(i, m, e[i].max())[:, :n, :m] for i in range(3)]
        step = max(1, CHUNK_CELLS // (n * m))
        for s in range(0, len(exps), step):
            a, b, c = e[:, s:s + step]
            cols = kernels.trunc_mul_mod(tabs[0][a], tabs[1][b], field.p)
            cols = kernels.trunc_mul_mod(cols, tabs[2][c], field.p)
            out[:, s:s + step] = cols[:, at, degrees].T
        return out

    def mul(a, b):
        return [x * y for x, y in zip(a, b)]

    one = [TruncPoly(field, m, {(0, 0): field.one})] * n
    powers = []
    for i in range(3):
        base = point.line_values(i, m)
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


def _series_matrices(specs, field, keep=None):
    """The column exponents and the condition matrix of each series in
    `specs` (one preset and degree, any multiplicities) that `keep` (by
    default every one) accepts at its turn: yields (spec, exponents, rows),
    rows an int64 array over F_p, a list of rows otherwise.

    Each orbit class has one block, built (through kernels.MAX_BYTES) at the
    first series read, at the largest multiplicity of the class among the
    specs, at most p over F_p; a series' matrix is the row prefixes of its
    classes' blocks, stacked, and a view when they are adjacent.  A degree
    with more columns than kernels.WIDEST is a usage error before any of
    them, and a multiplicity above p is one at its spec's turn, before any
    row of it is built.  The blocks go with the generator.
    """
    if not specs:
        return
    preset, d = specs[0].preset, specs[0].d
    check_width(preset, [d])
    exps = weighted_basis(series_weights(preset), d)
    config = invariant_set(preset, field).config
    reps = [cls.representative for cls in config.classes]
    prime = isinstance(field, PrimeField)
    top = [max((m for m in ms if not prime or m <= field.p), default=0)
           for ms in zip(*(spec.class_multiplicities() for spec in specs))]
    blocks = None
    for spec in specs:
        if keep is not None and not keep(spec):
            continue
        mults = spec.class_multiplicities()
        if prime and max(mults) > field.p:
            raise UsageError(f"multiplicity {max(mults)} exceeds the "
                             f"characteristic {field.p}: the conditions need "
                             "that many distinct slopes in the field")
        if not exps:
            yield spec, exps, []
            continue
        if blocks is None:
            # a point for each class that a block reads (no rows, and no
            # point, at m = 0), and per class the order of each row: a
            # prefix below m is bisected
            points = [_point(preset, field, rep) if m else None
                      for rep, m in zip(reps, top)]
            orders = [[k for _, k in _block_rows(point, m)]
                      for point, m in zip(points, top)]
            starts = list(accumulate(map(len, orders), initial=0))
            # one array, filled block by block, whose row slices linalg
            # takes as they are
            blocks = kernels.empty((starts[-1], len(exps))) if prime else []
            for i, (point, m) in enumerate(zip(points, top)):
                if not m:
                    continue
                if prime:
                    _condition_block(point, m, exps,
                                     blocks[starts[i]:starts[i + 1]])
                else:
                    blocks += _condition_block(point, m, exps)
        parts = [(start, start + bisect_left(ks, m))
                 for ks, m, start in zip(orders, mults, starts) if m]
        if all(a[1] == b[0] for a, b in zip(parts, parts[1:])):
            rows = blocks[parts[0][0]:parts[-1][1]] if parts else blocks[:0]
        elif prime:
            rows = np.concatenate([blocks[a:b] for a, b in parts])
        else:
            rows = [row for a, b in parts for row in blocks[a:b]]
        yield spec, exps, rows


def series_dims(specs, field, keep=None):
    """The dimension of each series in `specs` (one preset and degree) that
    `keep` accepts at its turn, from the shared blocks of _series_matrices:
    yields (spec, dim)."""
    for spec, exps, rows in _series_matrices(specs, field, keep):
        yield spec, len(exps) - linalg.rank(rows, len(exps), field)


def series_basis(spec, field):
    """Exact basis of the invariant series; empty when the degree is not
    representable in the weighted generator algebra."""
    _, exps, rows = next(_series_matrices([spec], field))
    return SeriesBasis(spec, field, exps, linalg.kernel(rows, len(exps), field)
                       if exps else [])


def series_dim(spec, field):
    """Dimension of the invariant series: its column count minus the rank of
    its condition matrix, with no kernel basis built."""
    return next(series_dims([spec], field))[1]
