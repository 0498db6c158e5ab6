"""Fat-point ideals of the configuration points: symbolic-power pieces,
minimal generators, ordinary-power pieces, containment experiments and
resurgence certificates.

Unlike the invariant series, symbolic powers impose vanishing conditions at
every point of the configuration (they are not spanned by invariants).  The
group still splits them: each configuration declares a diagonal subgroup D
of its group that fixes its points (PointSet.diagonal), every monomial is an
eigenform of D, and a form of one character that vanishes to order m at a
point P vanishes to order m on all of D P.  So a piece is the sum over the
characters of D of its forms of that character, and each is the kernel of
one block: the character's monomials as columns, the conditions at one
point per D-orbit as rows (symbolic_piece).

Every piece below a least degree is empty, and least_degree proves it once,
over F_p.  It first divides out the lines of the configuration that are
fixed components (_peel): on the blowup a line through the points P is
L = H - sum E_P, and D = dH - sum m_P E_P meets it in D.L = d - sum_(P on
L) m_P, so when that is negative L divides every form of the piece
(Bezout on the line).  What is left is a residual system of lower degree
and lower orders, one per point, read with one kernel per residue class of
degrees modulo deg g, where g is a unit form: a line or conic vanishing at
no point (unit_form).
Multiplying by g changes no vanishing order, so in the chain of g to a
degree D, whose columns are the monomials mu not divisible by the leading
monomial of g times g^((D - deg mu) / deg g), ordered by deg mu, the first
C(d + 2, 2) columns are the degree-d forms of the class times a power of g,
and every prefix has the rank of the monomial conditions of its degree.
The first free column of the chain's kernel is the least nonzero degree of
the class.  An exact point set runs its chains on its reduction at the
partner prime of its field (PointSet.reduced: Q(zeta7) at 4733, Q(sqrt5,
omega) at 4951); rank can only drop under reduction, so their empty
degrees are empty exactly.  The pieces from there on are kernels of their
conditions (symbolic_piece; linalg.kernel_certified over an extension).

Every product of forms is one row product (_times_form): coefficient rows
on the monomials of one degree times a form, each term moving each column
to a closed-form place.  It gives the chain's forms, alpha's piece times the
peeled lines, S_1 * I_(d-1) for the generators and the ordinary powers.

S_1 * I_(d-1) lies inside I_d, so the pivots of its RREF are among those of
I_d, and the rows of I_d's RREF at the other pivots span a complement: they
are the new generators of degree d (minimal_generators).  Any complement
gives the same ordinary powers, so nothing else depends on which one.
"""

from collections import Counter
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import cached_property
from itertools import combinations_with_replacement, count
from math import comb, prod

import numpy as np

from kleinwiman import kernels, linalg
from kleinwiman.configs import line_coeffs, residues
from kleinwiman.divisors import waldschmidt_bounds
from kleinwiman.errors import FatIdealError, UsageError
from kleinwiman.fields import PrimeField
from kleinwiman.groups import closure
from kleinwiman.poly import (Poly, chart_for_point, gradient, local_expand,
                             local_monomials, monomials_of_degree, normalize_point,
                             taylor_table)

# regularity data imported from the reference results, never computed here:
# reg(I^r) for r >= 2 is linear of the recorded shape, and the char-7 value
# reg(I) = 12 gives the linear bound 9r + 6
REGULARITY = {
    "klein": {"linear": (8, 6), "kind": "equality", "source": "reference-constant"},
    "wiman": {"linear": (16, 14), "kind": "equality", "source": "reference-constant"},
    "klein-char7": {"linear": (9, 6), "kind": "upper-bound",
                    "source": "reference-constant"},
}


# Widest degree of a piece: its C(d + 2, 2) monomials are the columns of
# the mod-p kernels, which take at most kernels.WIDEST.
MAX_DEGREE = next(d for d in count() if comb(d + 3, 2) > kernels.WIDEST)


def _check_degree(d):
    if d > MAX_DEGREE:
        raise UsageError(
            f"degree {d} has {comb(d + 2, 2)} monomials, more than the "
            f"{kernels.WIDEST} columns of the mod-p kernels: degrees go up to "
            f"{MAX_DEGREE}")


@dataclass
class PointSet:
    """Points of the plane with their charts, and what is built on them.

    A set from_config also holds the diagonal subgroup D its configuration
    declares (LineConfiguration.diagonal): (zeta; 4, 2, 1) for Klein, the
    sign changes (-1; 0, 1, 1) and (-1; 1, 0, 1) for Wiman and klein-char7.
    A reduced set or one built by hand has D trivial.  The pieces read D
    through representatives, one point per orbit, and characters, the
    monomials of a degree grouped by character."""

    preset: str
    field: object
    points: list          # normalized projective points
    charts: list          # chart coordinate per point
    # coefficient vectors (on x, y, z) of lines of the plane, the
    # configuration's lines for a set from_config: least_degree peels them
    lines: list = dc_field(default_factory=list)
    # the generators of D, each (omega, (a, b, c)) for diag(omega^a,
    # omega^b, omega^c)
    diagonal: list = dc_field(default_factory=list)
    # kept so that nothing is built twice for one point set: symbolic_piece's
    # pieces by (m, d), over F_p the Taylor tables of the conditions by
    # (coordinate, m), and least_degree's results by (m, top)
    pieces: dict = dc_field(default_factory=dict, compare=False, repr=False)
    taylor: dict = dc_field(default_factory=dict, compare=False, repr=False)
    least: dict = dc_field(default_factory=dict, compare=False, repr=False)

    @classmethod
    def from_config(cls, config):
        pts = config.all_points()
        charts = [chart_for_point(config.field, p) for p in pts]
        return cls(config.preset, config.field, pts, charts,
                   [line_coeffs(line) for line in config.lines], config.diagonal)

    def __len__(self):
        return len(self.points)

    @cached_property
    def _roots(self):
        """(omega^0, omega^1, ... below its order, weights) per generator."""
        return [(closure(self.field.one, [omega], self.field.mul), w)
                for omega, w in self.diagonal]

    def diagonal_elements(self, c):
        """The elements of D as diagonal entries scaled to 1 at entry c,
        each once, the identity first: the products of the generators'
        powers, the k-th power of a generator with weights w scaled to
        entries omega^(k (w_j - w_c)), no inverse taken."""
        mul = self.field.mul
        out = [(self.field.one,) * 3]
        for powers, w in self._roots:
            n = len(powers)
            out = [tuple(mul(s, powers[k * (a - w[c]) % n]) for s, a in zip(t, w))
                   for t in out for k in range(n)]
        return list(dict.fromkeys(out))

    @cached_property
    def representatives(self):
        """The first point of each D-orbit, in the order of the points, as
        a point set with no D that shares the Taylor tables; the set itself
        when D is trivial.  Each orbit is the images of its first point
        under the elements of D, each looked up among the points: an image
        outside the set is a FatIdealError, so the lookup is also the check
        that D fixes the set.  The image of a point with 1 at its chart c
        is the point times the element scaled to 1 at c, in normal form."""
        if not self.diagonal:
            return self
        index = {pt: n for n, pt in enumerate(self.points)}
        elements = {c: self.diagonal_elements(c) for c in set(self.charts)}
        covered, reps = set(), []
        for n, (pt, c) in enumerate(zip(self.points, self.charts)):
            if n in covered:
                continue
            reps.append(n)
            for t in elements[c][1:]:
                image = tuple(map(self.field.mul, t, pt))
                if image not in index:
                    raise FatIdealError(
                        f"the diagonal subgroup does not fix the {self.preset} "
                        f"points: point {n} has an image outside the set")
                covered.add(index[image])
        return PointSet(self.preset, self.field, [self.points[n] for n in reps],
                        [self.charts[n] for n in reps], taylor=self.taylor)

    def characters(self, cols):
        """The monomials cols of one degree grouped by their character
        under D, as index arrays into cols in order of first column; one
        block of every column when D is trivial.  Under a generator
        diag(omega^a, omega^b, omega^c) of D the monomial x^e takes
        omega^(a e_0 + b e_1 + c e_2), so its character is that integer
        modulo the order of omega, one per generator."""
        blocks = {}
        for c, e in enumerate(cols):
            key = tuple((a * e[0] + b * e[1] + r * e[2]) % len(powers)
                        for powers, (a, b, r) in self._roots)
            blocks.setdefault(key, []).append(c)
        return [np.array(b, dtype=np.intp) for b in blocks.values()]

    @cached_property
    def reduced(self):
        """The point set over F_p that the unit-form chains run on: the set
        itself over a prime field, otherwise the set at the partner prime
        of its field (configs.residues; same charts, so its condition
        matrices reduce these entry by entry), built once; None when the
        field has no partner prime or a coordinate's denominator vanishes
        there.  Its lines are the distinct reductions of the set's lines
        (two lines that meet mod p count once); it has none when a
        coefficient has no image, or when two points meet mod p, as the
        peel counts each point once."""
        if isinstance(self.field, PrimeField):
            return self
        p, pts, ok = residues(self.field, self.points)
        if p is None or not ok.all():
            return None
        pts = [tuple(pt) for pt in pts.tolist()]
        fp = PrimeField(p)
        _, lines, ok = residues(self.field, self.lines)
        lines = [normalize_point(fp, line) for line in lines.tolist()] \
            if ok.all() and len(set(pts)) == len(pts) else []
        return PointSet(self.preset, fp, pts, self.charts, list(dict.fromkeys(lines)))


def _taylor_array(pointset, c, d, m):
    """taylor_table over F_p for some degree e >= d, as an int64 array kept
    on the point set and rebuilt only when a larger degree is needed: its
    rows are a prefix of the table at any larger degree, and over F_7 a
    coordinate takes at most seven values."""
    key = (c, m)
    tab = pointset.taylor.get(key)
    if tab is None or len(tab) <= d:
        tab = pointset.taylor[key] = np.array(
            taylor_table(pointset.field, c, d, m), dtype=np.int64)
    return tab


def point_conditions_matrix(pointset, m, d):
    """Vanishing-to-order-m conditions at every point, on the degree-d
    monomial coefficients (columns ordered by monomials_of_degree).

    Each point contributes one row per local monomial u^i v^j (in
    local_monomials order): the coefficient of u^i v^j in the expansion of
    each column monomial, the product of the two coordinates' Taylor table
    entries.  Over F_p the result is one int64 array (within
    kernels.MAX_BYTES), each point's block gathered from the Taylor tables
    kept on the point set by one index array of column exponents, otherwise
    a list of rows.
    """
    field = pointset.field
    cols = monomials_of_degree(d)
    monos = local_monomials(m)
    exps = np.array(cols, dtype=np.intp).reshape(len(cols), 3)
    prime = isinstance(field, PrimeField)
    if prime:
        ii, jj = np.array(monos, dtype=np.intp).reshape(len(monos), 2).T
        out = kernels.empty((len(pointset) * len(monos), len(cols)))
    else:
        out = []
    for n, (pt, chart) in enumerate(zip(pointset.points, pointset.charts)):
        lu, lv = (k for k in range(3) if k != chart)
        au, av = exps[:, lu], exps[:, lv]
        if prime:
            tu, tv = (_taylor_array(pointset, pt[k], d, m).T for k in (lu, lv))
            np.remainder(tu[ii][:, au] * tv[jj][:, av], field.p,
                         out=out[n * len(monos):(n + 1) * len(monos)])
        else:
            tu, tv = (taylor_table(field, pt[k], d, m) for k in (lu, lv))
            out.extend([field.mul(tu[a][i], tv[b][j])
                        for a, b in zip(au.tolist(), av.tolist())] for i, j in monos)
    return out, cols


class GradedPiece:
    """A subspace of the degree-d forms, held as an RREF row space."""

    def __init__(self, degree, field, monomials, rows):
        self.degree = degree
        self.field = field
        self.monomials = monomials
        self.rows, self.pivots = linalg.rref(rows, len(monomials), field)

    @property
    def dim(self):
        return len(self.pivots)

    def contains_vector(self, vec):
        return linalg.in_rowspace(self.rows, self.pivots, vec, self.field)

    def contains_poly(self, f):
        if f.is_zero():
            return True
        if f.degree() != self.degree:
            raise FatIdealError(
                f"degree mismatch: piece has degree {self.degree}, "
                f"polynomial has degree {f.degree()}")
        return self.contains_vector(f.coeff_vector(self.monomials))

    def basis_poly(self, i):
        row = self.rows[i]
        if isinstance(row, np.ndarray):     # Python ints coerce fastest
            row = row.tolist()
        return Poly.from_coeff_vector(self.field, row, self.monomials)


def symbolic_piece(pointset, m, d):
    """Exact basis of the forms of degree d vanishing to order >= m at every
    point of the set (all of them for m <= 0: no conditions), built once per
    point set.  It is the sum of its parts of each character of D
    (PointSet.characters), each the kernel of the conditions at one point
    per D-orbit (PointSet.representatives) on that character's monomials,
    whose vectors are widened to every monomial by zeros.  Parts of
    different characters have disjoint supports, so the piece's RREF is the
    one the kernel of every condition on every monomial gives; the piece is
    the sum of its parts because D fixes the set, so the piece is
    D-stable, and distinct characters are linearly independent.  A degree
    above MAX_DEGREE is a UsageError."""
    _check_degree(d)
    key = (max(m, 0), d)
    if key not in pointset.pieces:
        field = pointset.field
        mat, cols = point_conditions_matrix(pointset.representatives, *key)
        rows = []
        for idx in pointset.characters(cols):
            rows.extend(_character_kernel(mat, idx, len(cols), field))
        pointset.pieces[key] = GradedPiece(d, field, cols, rows)
    return pointset.pieces[key]


def _character_kernel(mat, idx, ncols, field):
    """The kernel of the conditions mat on the columns idx, its vectors
    widened to all ncols columns by zeros: rows of an int64 array over F_p,
    lists otherwise."""
    if isinstance(mat, np.ndarray):
        basis = linalg.kernel(mat[:, idx], len(idx), field)
        out = np.zeros((len(basis), ncols), dtype=np.int64)
        out[:, idx] = basis
        return out
    basis = linalg.kernel([[row[c] for c in idx] for row in mat], len(idx), field)
    out = []
    for v in basis:
        row = [field.zero] * ncols
        for c, x in zip(idx.tolist(), v):
            row[c] = x
        out.append(row)
    return out


def _monomial_tables(pointset, idx, top, m):
    """For the points idx of a set over F_p: a function taking monomial
    exponents mus (an array, one row each, of degree at most top) to the
    expansions of their two chart factors below order m, (au, av), each of
    shape (len(idx), m, len(mus)): au[n, i, t] is the coefficient of u^i in
    the u factor of mus[t] at point idx[n].  Both are read from the Taylor
    tables kept on the point set, stacked once."""
    charts = np.array(pointset.charts, dtype=np.intp)[idx]
    lu, lv = (charts == 0).astype(np.intp), 2 - (charts == 2)
    tu, tv = (np.stack([_taylor_array(pointset, pointset.points[n][k], top, m)[:top + 1]
                        for n, k in zip(idx, ks.tolist())])
              for ks in (lu, lv))
    each = np.arange(len(idx))[:, None]

    def tables(mus):
        return (tu[each, mus.T[lu]].transpose(0, 2, 1),
                tv[each, mus.T[lv]].transpose(0, 2, 1))
    return tables


def vanishes_to_order(f, pointset, m):
    """Direct membership in the m-th symbolic power: the local expansion at
    every point has order >= m.  Equivalent to membership in the kernel of
    the condition matrix, with no elimination.  Over F_p the factors of the
    form's monomials are read from the Taylor tables (_monomial_tables),
    and one batched product gives the coefficient of u^i v^j at each point,
    for i, j < m: those with i + j < m must vanish."""
    field = pointset.field
    if not isinstance(field, PrimeField):
        for pt, chart in zip(pointset.points, pointset.charts):
            t = local_expand(f, pt, m, chart=chart)
            if not t.is_zero():
                return False
        return True
    if f.is_zero() or m < 1 or not len(pointset):
        return True
    p = field.p
    exps = np.array(list(f.terms), dtype=np.intp)
    coeffs = np.array(list(f.terms.values()), dtype=np.int64)
    au, av = _monomial_tables(pointset, range(len(pointset)), f.degree(), m)(exps)
    # each entry of the product is a sum of terms below p**2: exact in int64
    jets = (au * coeffs % p) @ av.transpose(0, 2, 1) % p
    ii, jj = np.array(local_monomials(m), dtype=np.intp).T
    return not jets[:, ii, jj].any()


# The candidate unit forms, in search order: the lines z, x, y and
# x + a y + b z, then the conics x^2 + a y^2 + b z^2, for 0 <= a, b < 8.
# Each has leading coefficient 1 on its lex-largest monomial (x > y > z).
UNIT_FORMS = ([{(0, 0, 1): 1}, {(1, 0, 0): 1}, {(0, 1, 0): 1}]
              + [{(1, 0, 0): 1, (0, 1, 0): a, (0, 0, 1): b}
                 for a in range(8) for b in range(8)]
              + [{(2, 0, 0): 1, (0, 2, 0): a, (0, 0, 2): b}
                 for a in range(8) for b in range(8)])

# The monomials of the candidates, and their coefficients there, one row
# per candidate.
UNIT_MONOMIALS = np.array(sorted({e for terms in UNIT_FORMS for e in terms}),
                          dtype=np.int64)
UNIT_COEFFS = np.array([[terms.get(tuple(e), 0) for e in UNIT_MONOMIALS.tolist()]
                        for terms in UNIT_FORMS], dtype=np.int64)


def unit_form(pointset):
    """The first of UNIT_FORMS that vanishes at no point of a set over F_p,
    found by evaluating every candidate at every point in one product; one
    with integer coefficients that is nonzero at the reduction of a point
    is nonzero at the point itself.  FatIdealError when every candidate
    vanishes somewhere."""
    field = pointset.field
    pts = np.array(pointset.points, dtype=np.int64).reshape(len(pointset), 3)
    values = np.prod(pts[:, None, :] ** UNIT_MONOMIALS, axis=2) % field.p
    nowhere = np.flatnonzero((UNIT_COEFFS @ values.T % field.p).all(axis=1))
    if not nowhere.size:
        raise FatIdealError(f"no unit form: each candidate line and conic "
                            f"vanishes at a point of the {pointset.preset} set")
    terms = UNIT_FORMS[nowhere[0]]
    return Poly(field, {e: field.coerce(c) for e, c in terms.items()})


def _chain_levels(g, top):
    """The columns of the chain of g to degree `top`, level by level: (s,
    mus) for s = top mod deg g, ..., top, with mus the exponents (an array,
    one row each, in monomials_of_degree order) of the degree-s monomials
    that the leading monomial of g does not divide.  Column mu stands for
    mu g^((top - s) / deg g); the first C(d + 2, 2) columns span the
    degree-d forms times a power of g."""
    lead, e = max(g.terms), g.degree()
    levels = []
    for s in range(top % e, top + 1, e):
        mus = np.array(monomials_of_degree(s), dtype=np.int64)
        levels.append((s, mus[(mus < lead).any(axis=1)]))
    return levels


def chain_matrix(pointset, g, orders, top):
    """Vanishing conditions at the points of a set over F_p, to order
    orders[n] at point n (no rows where it is 0 or less), on the chain of
    the unit form g to degree `top` (_chain_levels), as (matrix, levels);
    rows as in point_conditions_matrix, point by point in local_monomials
    order.  The points of one order are one batch (_chain_blocks), whose
    blocks are written to their rows level by level.  The matrix is
    allocated first, within kernels.MAX_BYTES."""
    levels = _chain_levels(g, top)
    orders = np.maximum(np.asarray(orders, dtype=np.intp), 0)
    sizes = orders * (orders + 1) // 2
    out = kernels.empty((int(sizes.sum()), comb(top + 2, 2)))
    first = np.cumsum(sizes) - sizes
    for m in sorted(set(orders.tolist()) - {0}):
        idx = np.flatnonzero(orders == m)
        rows = (first[idx, None] + np.arange(comb(m + 1, 2))).ravel()
        c = 0
        for block in _chain_blocks(pointset, idx, g, m, levels):
            out[rows, c:c + block.shape[2]] = block.reshape(len(rows), -1)
            c += block.shape[2]
    return out, levels


def _chain_blocks(pointset, idx, g, m, levels):
    """The conditions of order m at the points idx of a set over F_p on the
    chain's levels, one (len(idx), len(local_monomials(m)), len(mus)) block
    per level.

    A column's jet at a point is the jet of mu, read from the Taylor tables
    as in point_conditions_matrix, times the jet of g^k.  Each level is one
    batched product over the points, in float64: the multiplication
    matrices of the jets of g^k (the powers of the jet of g, reduced)
    against the gathered monomial jets, below p**2, so that a product's
    entries stay below len(local_monomials(m)) p**3 and exact (the jets are
    reduced first where that bound reaches 2**53).  The entries are left
    unreduced, congruent to the conditions: the mod-p kernels reduce their
    input.
    """
    top = levels[-1][0]
    monos = local_monomials(m)
    p, n, size = pointset.field.p, len(idx), len(monos)
    ii, jj = np.array(monos, dtype=np.intp).reshape(size, 2).T
    # the index of u^(i-k) v^(j-l) among monos, or size (a zero appended to
    # each jet) when it is no monomial: the multiplication matrix's pattern
    at = {ij: k for k, ij in enumerate(monos)}
    pattern = np.array([[at.get((i - k, j - l), size) for k, l in monos]
                        for i, j in monos], dtype=np.intp).reshape(size, size)
    tables = _monomial_tables(pointset, idx, max(top, g.degree()), m)

    def jets(mus):
        """The jets of the monomials mus at every point, below p**2."""
        au, av = tables(mus)
        return au[:, ii] * av[:, jj]

    def multiplication(jet):
        return np.concatenate([jet, np.zeros((n, 1), np.int64)], axis=1)[:, pattern]

    terms = np.array(list(g.terms), dtype=np.intp)
    coeffs = np.array(list(g.terms.values()), dtype=np.int64)
    times_g = multiplication(jets(terms) @ coeffs % p)
    power = np.zeros((n, size), dtype=np.int64)
    power[:, 0] = 1
    powers = [power]        # the jets of g^k, k = 0, 1, ...
    for _ in levels[1:]:
        powers.append(np.einsum("nrs,ns->nr", times_g, powers[-1]) % p)
    reduce_jets = size * (p - 1) ** 3 >= 2 ** 53
    for (s, mus), power in zip(levels, reversed(powers)):
        block = jets(mus)
        if s < top:
            if reduce_jets:
                block %= p
            block = (multiplication(power).astype(np.float64)
                     @ block.astype(np.float64))
        yield block


def _chain(pointset, g, orders, top):
    """One kernel of the chain of g to degree `top` at the per-point
    orders, read as (s, rank, columns, (rows, levels)): s is the least
    degree of top's class mod deg g with a nonzero piece (None when there
    is none through top), the degree of the first free column; rows are the
    kernel vectors whose free column lies in the degree-s prefix, cut to
    it, a basis of that piece in chain coordinates; levels are the
    prefix's."""
    mat, levels = chain_matrix(pointset, g, orders, top)
    ncols = comb(top + 2, 2)
    basis = linalg.kernel(mat, ncols, pointset.field)
    if not len(basis):
        return None, ncols, ncols, None
    # one past the last nonzero entry: a canonical kernel vector ends at
    # its free column
    ends = ncols - np.argmax(basis[:, ::-1] != 0, axis=1)
    c = 0
    for k, (s, mus) in enumerate(levels):
        c += len(mus)
        if ends[0] <= c:
            break
    # a copy, so that the basis is freed
    return s, ncols - len(basis), ncols, (basis[ends <= c, :c], levels[:k + 1])


def _times_form(rows, cols, g, field):
    """Forms of one degree d, coefficient rows on the monomials cols, times
    the form g, as rows on monomials_of_degree(d + deg g): an int64 array
    reduced mod p for an array of rows, lists otherwise.  A term c x^e of g
    moves column mu to the place of mu x^e; x^a y^b z^c of degree D is at
    (D - a)(D - a + 1)/2 + D - a - b.  Over F_p the sums stay below
    len(g.terms) p**2, exact in int64 (g has at most kernels.WIDEST terms
    and p < kernels.MAX_PRIME)."""
    exps = np.array(cols, dtype=np.intp).reshape(len(cols), 3)
    top = int(exps[0].sum()) + g.degree()
    terms = np.array(list(g.terms), dtype=np.intp).reshape(len(g.terms), 3)
    a = top - terms[:, :1] - exps[:, 0]
    places = a * (a + 1) // 2 + a - terms[:, 1:2] - exps[:, 1]
    if isinstance(rows, np.ndarray):
        out = np.zeros((len(rows), comb(top + 2, 2)), dtype=np.int64)
        for c, at in zip(g.terms.values(), places):
            out[:, at] += c * rows
        return out % field.p
    out = [[field.zero] * comb(top + 2, 2) for _ in rows]
    for c, at in zip(g.terms.values(), places):
        at = at.tolist()
        for row, new in zip(rows, out):
            for k, v in zip(at, row):
                if not field.is_zero(v):
                    v = v if c == field.one else field.mul(c, v)
                    new[k] = v if field.is_zero(new[k]) else field.add(new[k], v)
    return out


def _chain_forms(rows, levels, g, field):
    """The forms sum over the columns of v_mu mu g^((d - deg mu) / deg g),
    d the last level's degree, for chain vectors v over F_p, as coefficient
    rows in monomials_of_degree(d) order, by Horner's rule in g from the
    lowest level, each level's columns placed among the monomials of its
    degree by _times_form(..., 1): (rows, monomials)."""
    acc, c = None, 0
    for s, mus in levels:
        new = _times_form(rows[:, c:c + len(mus)], mus, Poly.constant(field, 1), field)
        if acc is not None:
            new = (_times_form(acc, cols, g, field) + new) % field.p
        acc, cols = new, monomials_of_degree(s)
        c += len(mus)
    return acc, cols


def _incidence(pointset):
    """Line-point incidence of a set over F_p, as a 0/1 (lines, points)
    array: one product of the lines' coefficient vectors by the points."""
    lines = np.array(pointset.lines, dtype=np.int64).reshape(len(pointset.lines), 3)
    pts = np.array(pointset.points, dtype=np.int64).reshape(len(pointset), 3)
    return (lines @ pts.T % pointset.field.p == 0).astype(np.intp)


def _peel(pointset, m, top):
    """The lines of a set over F_p that divide every form of degree at most
    `top` vanishing to order m at each point, as (peeled, orders): the
    indices of the lines peeled, in rounds, and per point the order that
    the quotient by their product must have there.

    A form of degree d that a line does not divide meets it in at most d
    points counted with multiplicity (Bezout), so a line whose points carry
    orders summing to more than d (each counted as at least 0) divides it.
    The lines of one round are distinct, so their product divides it too;
    the quotient has degree d less the number of lines, and the order at
    each point drops by the number of those lines through it, since the
    product of k distinct lines through a point has order k there.  The
    rounds go on while a line is forced, on the quotient, and a line may be
    peeled in several.  A line forced at degree d is forced at every lower
    degree, so the peel holds for every degree through top; when more
    lines are peeled than top, every piece through top is empty."""
    orders = np.full(len(pointset), m, dtype=np.intp)
    peeled = []
    if pointset.lines:
        on = _incidence(pointset)
        while len(peeled) <= top:
            forced = np.flatnonzero(on @ np.maximum(orders, 0) > top - len(peeled))
            if not forced.size:
                break
            peeled += forced.tolist()
            orders -= on[forced].sum(axis=0)
    return peeled, orders


def _peel_line(top, s, orders):
    left = Counter(o for o in orders.tolist() if o > 0)
    conditions = ", ".join(f"order {o} at {n} points" for o, n in sorted(left.items()))
    lines = f"{s} lines" if s > 1 else "1 line"
    return (f"the product of {lines} divides every form through degree "
            f"{top}: residual degree {top - s}, {conditions or 'no conditions'}")


def _chain_line(g, top, rank, ncols, s, shift):
    """A chain's progress line, in the degrees of the forms before the
    peeled lines (shift of them) were divided out."""
    line = (f"chain of {g.text()} to degree {top + shift}: rank {rank} of "
            f"{ncols} columns")
    if s is None:
        return f"{line}, empty through degree {top + shift}"
    if s >= g.degree():
        line += f", empty through degree {s - g.degree() + shift}"
    return f"{line}, nonzero at degree {s + shift}"


def _top(pointset, m, cap):
    """The highest degree least_degree reads: the least degree whose
    monomials outnumber the conditions, where the piece cannot be empty,
    or `cap` (None for none) or MAX_DEGREE when lower."""
    conditions = len(pointset) * comb(m + 1, 2)
    hi = m
    while comb(hi + 2, 2) <= conditions:
        hi += 1
    return min(hi, MAX_DEGREE if cap is None else cap, MAX_DEGREE)


def least_degree(pointset, m, cap=None, progress=None):
    """A degree below which every piece of the m-th symbolic power (m >= 1)
    is empty: alpha itself over F_p, a lower bound on it over an extension,
    and m (every nonzero form vanishing to order m has degree at least m)
    for a set with no reduction (PointSet.reduced).  Kept on the point set
    by (m, top), top = _top(pointset, m, cap).

    Everything runs on the reduced set.  First the lines are peeled
    (_peel): on the blowup, a line L through the points P of the set is
    H - sum E_P, and D = dH - sum m E_P meets it in D.L = d - sum_(P on L)
    m_P; when that is negative, L is a fixed component of |D|.  So every
    form through top is the product of the s peeled lines times a form of
    degree s less, with the orders left at the points (no matrix at all
    when s > top), and alpha is s plus the least degree of that residual
    system, read from its chains.

    The chains of a unit form g (unit_form: nonzero at every point) take
    one order per point (chain_matrix).  Multiplying by g changes no
    vanishing order, so for d = D mod deg g the degree-d forms sit in
    degree D as g^((D - d) / deg g) S_d, and they are the first
    C(d + 2, 2) columns of the chain of g to D, whose columns are
    mu g^((D - deg mu) / deg g), mu a monomial that the leading monomial of
    g does not divide, ordered by deg mu.  Every prefix therefore has the
    rank of the monomial conditions of its degree: the first free column of
    the chain's kernel gives the least nonzero degree of the class, every
    lower degree of the class being empty, and the kernel vectors whose
    free column lies in the least prefix, mapped back to monomials, span
    that degree's piece.  Over F_p that piece times the product of the
    peeled lines is alpha's, stored on the point set for certified_alpha,
    the containment loop and the generators.  The chains run to top - s,
    top - s - 1, ..., top - s - deg g + 1, each stopping below the least
    nonzero degree found so far, with one progress line each (in the
    degrees before the peel), after one for the peel when it divides out a
    line.  Over an extension rank can only drop under reduction, so the
    empty degrees at the prime are empty exactly.

    Nothing nonzero through top, or m above it, is a FatIdealError when top
    is `cap` and a UsageError when it is MAX_DEGREE (alpha lies above the
    widest degree), raised before any matrix is built when m > top or more
    lines than top are peeled.
    """
    top = _top(pointset, m, cap)
    if m > top:
        _nothing_through(top, cap)
    chained = pointset.reduced
    if chained is None:
        return m
    key = (m, top)
    if key not in pointset.least:
        peeled, orders = _peel(chained, m, top)
        s = len(peeled)
        if s > top:
            _nothing_through(top, cap)
        if s and progress is not None:
            progress(_peel_line(top, s, orders))
        g = unit_form(chained)
        alpha = None
        for d in range(top - s, max(top - s - g.degree(), -1), -1):
            # a class need not be read from alpha up: its chain stops below
            while alpha is not None and d >= alpha:
                d -= g.degree()
            if d < 0:
                continue
            least, rank, ncols, prefix = _chain(chained, g, orders, d)
            if progress is not None:
                progress(_chain_line(g, d, rank, ncols, least, s))
            if least is not None:
                alpha, (rows, levels) = least, prefix
        if alpha is None:
            _nothing_through(top, cap)
        if chained is pointset and (m, s + alpha) not in pointset.pieces:
            field = pointset.field
            forms, cols = _chain_forms(rows, levels, g, field)
            if s:
                lines = prod(Poly.linear_form(field, pointset.lines[i]) for i in peeled)
                forms = _times_form(forms, cols, lines, field)
            pointset.pieces[(m, s + alpha)] = GradedPiece(
                s + alpha, field, monomials_of_degree(s + alpha), forms)
        pointset.least[key] = s + alpha
    return pointset.least[key]


def certified_alpha(pointset, m, cap=120, progress=None):
    """Least degree alpha with a nonzero piece of the m-th symbolic power
    (m >= 1), with the two certificates that fix it:

    - "empty_below": the conditions have full column rank in degree alpha - 1;
    - "witness": a nonzero form of degree alpha, re-checked by local expansion
      to vanish to order m at every point.

    Every piece below least_degree is empty.  From there pieces are built
    upward (symbolic_piece, with a progress line for each one built) until
    one is nonzero, and that one is alpha's; over F_p it is the first,
    stored by least_degree.  No nonzero piece through `cap` is a
    FatIdealError, alpha above MAX_DEGREE a UsageError, and a witness that
    does not re-check a FatIdealError.
    """
    if m < 1:
        raise FatIdealError(f"alpha needs a multiplicity m >= 1, got {m}")
    alpha = least_degree(pointset, m, cap, progress)
    top = _top(pointset, m, cap)
    while True:
        built = (m, alpha) not in pointset.pieces
        piece = symbolic_piece(pointset, m, alpha)
        if built and progress is not None:
            ncols = len(piece.monomials)
            progress(f"degree {alpha}: rank {ncols - piece.dim} of {ncols} columns")
        if piece.dim:
            break
        alpha += 1
        if alpha > top:
            _nothing_through(top, cap)
    form = piece.basis_poly(0)
    if not vanishes_to_order(form, pointset, m):
        raise FatIdealError(
            f"no form of degree {alpha} vanishing to order {m} re-checks")
    ncols = comb(alpha + 1, 2)
    return {"alpha": alpha,
            "empty_below": {"degree": alpha - 1, "rank": ncols, "columns": ncols},
            "witness": {"degree": alpha, "order": m, "form": form,
                        "check": "local expansion at every point"}}


def _nothing_through(top, cap):
    if top == cap:
        raise FatIdealError(
            f"no element of the symbolic power found up to degree {cap}")
    raise UsageError(f"alpha lies above degree {MAX_DEGREE}, the widest the "
                     f"mod-p kernels take")


def alpha_symbolic(pointset, m, cap=120):
    """Least degree with a nonzero piece of the m-th symbolic power; see
    certified_alpha for the certificates checked on the way."""
    return certified_alpha(pointset, m, cap)["alpha"]


@dataclass
class GeneratorSet:
    pointset: PointSet
    by_degree: dict = dc_field(default_factory=dict)
    complete_through: int = 0

    @property
    def alpha(self):
        return min(self.by_degree) if self.by_degree else None

    @property
    def omega(self):
        return max(self.by_degree) if self.by_degree else None

    def all_generators(self):
        return [g for d in sorted(self.by_degree) for g in self.by_degree[d]]


def minimal_generators(pointset, up_to_degree):
    """Minimal generators of the point ideal, degree by degree from
    least_degree (every lower piece is empty): in degree d the new
    generators complete a basis of I_d modulo the degree-d part of
    S_1 * I_(d-1), the rows of I_(d-1) times x, y and z (_times_form): they
    are the rows of I_d's RREF at the pivots that this part's RREF lacks
    (see the module docstring), a FatIdealError when its pivots are not
    among I_d's."""
    field = pointset.field
    gens = GeneratorSet(pointset, complete_through=up_to_degree)
    products = []   # S_1 * I_(d-1)
    for d in range(least_degree(pointset, 1), up_to_degree + 1):
        piece = symbolic_piece(pointset, 1, d)
        cols = piece.monomials
        spanned = set(GradedPiece(d, field, cols, products).pivots)
        if not spanned <= set(piece.pivots):
            raise FatIdealError(f"S_1 I_(d-1) is not inside I_d at d = {d}")
        new = [piece.basis_poly(i) for i, c in enumerate(piece.pivots)
               if c not in spanned]
        if new:
            gens.by_degree[d] = new
        if d < up_to_degree:
            products = [row for v in range(3) for row in _times_form(
                piece.rows, cols, Poly.variable(field, v), field)]
    return gens


def jacobian_minor_generators(f, g):
    """The three 2x2 minors of the Jacobian matrix of (f, g), ordered by
    column pairs (xy, xz, yz)."""
    gf, gg = gradient(f), gradient(g)
    return [gf[0] * gg[1] - gf[1] * gg[0],
            gf[0] * gg[2] - gf[2] * gg[0],
            gf[1] * gg[2] - gf[2] * gg[1]]


def power_piece(gens, r, d):
    """Degree-d piece of the r-th ordinary power: the span of all r-fold
    products of generators times filling monomials, empty below r * alpha.
    Each product is one coefficient row, made factor by factor from 1."""
    field = gens.pointset.field
    alpha = gens.alpha
    if alpha is None:
        raise FatIdealError("empty generator set")
    if gens.complete_through < d - (r - 1) * alpha:
        raise FatIdealError(
            f"generators known only through degree {gens.complete_through}; "
            f"degree {d - (r - 1) * alpha} needed for (r={r}, d={d})")
    cols = monomials_of_degree(d)
    if r * alpha > d:
        return GradedPiece(d, field, cols, [])
    flat = gens.all_generators()
    rows, one = [], [[field.one]]
    if isinstance(field, PrimeField):
        one = np.array(one)
    for key in combinations_with_replacement(range(len(flat)), r):
        degsum = sum(flat[i].degree() for i in key)
        if degsum > d:
            continue
        product, top = one, 0
        for i in key:
            product = _times_form(product, monomials_of_degree(top), flat[i], field)
            top += flat[i].degree()
        above = monomials_of_degree(degsum)
        for e in monomials_of_degree(d - degsum):
            monomial = Poly(field, {e: field.one})
            rows.extend(_times_form(product, above, monomial, field))
    return GradedPiece(d, field, cols, rows)


def line_product(config):
    """Product of the configuration's linear forms."""
    return prod(config.lines).canonical_scale()


def containment_report(pointset, m, r, d_max, gens=None):
    """Two-route containment certificate for symbolic power m inside ordinary
    power r.

    Route (a): degreewise verification through d_max (certifies only those
    degrees unless d_max dominates the symbolic power's generator degrees).
    The loop starts from the alpha certificate's piece; every piece from
    there on is nonzero, and below r * alpha(I) the power's piece is empty.
    Route (b): the regularity inequality, using the recorded regularity
    constants together with this module's computed least degrees.
    """
    report = {"preset": pointset.preset, "m": m, "r": r, "d_max": d_max,
              "degree_cap_caveat": (
                  f"degreewise route certifies degrees <= {d_max} only")}
    try:
        a_m = alpha_symbolic(pointset, m, d_max)
    except FatIdealError:
        a_m = None
    report["alpha_symbolic"] = a_m
    witness = None
    checked = []
    if a_m is not None:
        if gens is None:
            # I^(m) lies in I, so alpha(I) <= a_m <= d_max
            a1 = alpha_symbolic(pointset, 1, cap=d_max)
            depth = max(a1 + 2, d_max - (r - 1) * a1)
            gens = minimal_generators(pointset, depth)
        for d in range(a_m, d_max + 1):
            sym = symbolic_piece(pointset, m, d)
            power = power_piece(gens, r, d)
            for i, row in enumerate(sym.rows):
                if not power.contains_vector(row):
                    witness = {"degree": d, "basis_index": i,
                               "element": sym.basis_poly(i)}
                    break
            checked.append(d)
            if witness:
                break
    report["degrees_checked"] = checked
    report["contained_degreewise"] = witness is None
    if witness is not None:
        report["witness_degree"] = witness["degree"]
        report["witness"] = witness["element"]
    reg = REGULARITY[pointset.preset]
    a, b = reg["linear"]
    reg_r = a * r + b
    report["regularity_route"] = {
        "reg_bound": reg_r, "reg_source": reg["source"], "kind": reg["kind"],
        "closes": a_m is not None and a_m >= reg_r,
        "note": "containment holds whenever the least symbolic degree reaches "
                "the regularity of the ordinary power",
    }
    return report


def containment_inequality_certificate(alpha_hat_lower, reg_linear, r_min):
    """Check (alpha_hat_lower * (3r+1)/2 >= a*r + b) for every integer
    r >= r_min; with integers m/r > 3/2 meaning 2m >= 3r+1 this closes
    containment for all such (m, r).  The left side minus the right side is
    linear in r, so positivity of the slope and of the value at r_min decide.
    """
    a, b = reg_linear
    alpha_hat_lower = Fraction(alpha_hat_lower)
    slope = alpha_hat_lower * Fraction(3, 2) - a
    value = alpha_hat_lower * Fraction(3 * r_min + 1, 2) - (a * r_min + b)
    return {"slope": slope, "value_at_rmin": value, "r_min": r_min,
            "holds": slope >= 0 and value >= 0}


def extreme_failure(pointset, gens, f):
    """The (3, 2) containment failure witnessed by the form f: it vanishes to
    order 3 at every point (local expansion) and lies outside the square of
    the ideal (membership in the degree-deg f piece of I^2)."""
    d = f.degree()
    return {"pair": [3, 2], "element_degree": d,
            "in_symbolic_cube": vanishes_to_order(f, pointset, 3),
            "in_square": power_piece(gens, 2, d).contains_poly(f)}


def resurgence_certificate(config, pointset, ledger_dmax=None):
    """The resurgence certificates of a preset, as (exit code, report):

    - the extreme containment failure (3, 2), witnessed by the product of the
      lines; exit code 1 when it does not re-check;
    - the linear inequality closing every ratio m/r > 3/2, from the lower
      bound on alpha_hat and the recorded regularity; FatIdealError when it
      fails;
    - the asymptotic bounds alpha/alpha_hat <= rho_hat <= omega/alpha_hat.

    Only the source of the alpha_hat bounds depends on the preset: in
    characteristic 7 both ends are alpha(I^(8))/8, and the inequality starts
    at r = 8; otherwise they are the nef certificates of
    divisors.waldschmidt_bounds, and with ledger_dmax the lower end is the
    larger of the curve and the ledger certificates.
    """
    preset, field = config.preset, config.field
    f = line_product(config)
    # the square of the ideal in degree d needs the generators through d - alpha
    gens = minimal_generators(pointset, f.degree() - alpha_symbolic(pointset, 1))
    certificates = {"extreme_failure": extreme_failure(pointset, gens, f)}
    if preset == "klein-char7":
        alpha8 = alpha_symbolic(pointset, 8, cap=60)
        lower = upper = Fraction(alpha8, 8)
        r_min = 8
        source = {"upper": f"computed (alpha of the 8th symbolic power is {alpha8})",
                  "lower": "reference-constant"}
        certificates["literal_small_failure"] = {
            "pair": [2, 3],
            "witness_degree": alpha_symbolic(pointset, 2),
            "note": "any symbolic-square element below the cube of the ideal "
                    "is a witness",
        }
        extra = {"alpha_symbolic_8": alpha8, "alpha_hat": lower,
                 "small_r_note": "ratios with 2 <= r <= 7 rely on degreewise "
                                 "checks; caps are recorded with each run"}
    else:
        w = waldschmidt_bounds(preset, field)
        lower, upper = w["lower"], w["upper"]
        if ledger_dmax is not None:
            lower = max(lower,
                        waldschmidt_bounds(preset, field, ledger_dmax)["lower"])
        r_min = 2
        source = {"lower": "computed (nef certificate)",
                  "upper": "computed (dimension count)"}
        extra = {"alpha_hat_bounds": {"lower": lower, "upper": upper}}
    ineq = containment_inequality_certificate(lower, REGULARITY[preset]["linear"],
                                              r_min)
    if not ineq["holds"]:
        raise FatIdealError("resurgence inequality certificate failed")
    report = {
        "preset": preset,
        "alpha": gens.alpha,
        "omega": gens.omega,
        "alpha_hat_lower": lower,
        "alpha_hat_source": source,
        "resurgence": Fraction(3, 2),
        "inequality_certificate": ineq,
        "r1_note": "ratios with r = 1 are closed by the trivial containment "
                   "of every symbolic power in the ideal itself",
        "certificates": certificates,
        "asymptotic_resurgence_bounds": asymptotic_resurgence_bounds(
            gens.alpha, gens.omega, lower, upper),
        **extra,
    }
    failure = certificates["extreme_failure"]
    ok = failure["in_symbolic_cube"] and not failure["in_square"]
    return (0 if ok else 1), report


def asymptotic_resurgence_bounds(alpha1, omega1, alpha_hat_lower, alpha_hat_upper):
    """alpha/alpha_hat <= rho_hat <= omega/alpha_hat, using whichever end of
    the Waldschmidt interval makes each side certified."""
    return {"lower": Fraction(alpha1) / Fraction(alpha_hat_upper),
            "upper": Fraction(omega1) / Fraction(alpha_hat_lower)}
