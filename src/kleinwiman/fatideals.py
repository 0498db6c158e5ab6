"""Fat-point ideals of the configuration points: symbolic-power pieces,
minimal generators, ordinary-power pieces, containment experiments and
resurgence certificates.

Unlike the invariant series, symbolic powers impose vanishing conditions at
every point of the configuration (they are not spanned by invariants), so
the matrices here have one block of rows per point.

Over an exact extension with a partner prime (Q(zeta7) at 4733, Q(sqrt5,
omega) at 4951), emptiness is settled at that prime first: the point set is
reduced there once (SimpleExtension.reduce), its conditions are built over
F_p, and full column rank there proves the exact piece empty, because rank
can only drop under reduction.  Such a piece forms no exact product; on
the Klein and Wiman point sets that is every piece below alpha (tested for
m = 1, 2).  Any other piece, or a point set with a coordinate whose
denominator vanishes at the prime, takes the exact route
(linalg.kernel_certified).
"""

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import cached_property
from itertools import combinations_with_replacement
from math import comb

import numpy as np

from kleinwiman import linalg
from kleinwiman.divisors import waldschmidt_bounds
from kleinwiman.errors import FatIdealError, FieldError
from kleinwiman.fields import PrimeField
from kleinwiman.poly import (Poly, chart_for_point, gradient, local_expand,
                             local_monomials, monomials_of_degree, taylor_table)

# regularity data imported from the reference results, never computed here:
# reg(I^r) for r >= 2 is linear of the recorded shape, and the char-7 value
# reg(I) = 12 gives the linear bound 9r + 6
REGULARITY = {
    "klein": {"linear": (8, 6), "kind": "equality", "source": "reference-constant"},
    "wiman": {"linear": (16, 14), "kind": "equality", "source": "reference-constant"},
    "klein-char7": {"linear": (9, 6), "kind": "upper-bound",
                    "source": "reference-constant"},
}


@dataclass
class PointSet:
    preset: str
    field: object
    points: list          # normalized projective points
    charts: list          # chart coordinate per point
    # kept so that nothing is built twice for one point set: symbolic_piece's
    # pieces by (m, d), and over F_p the Taylor tables of the conditions by
    # (coordinate, m)
    pieces: dict = dc_field(default_factory=dict, compare=False, repr=False)
    taylor: dict = dc_field(default_factory=dict, compare=False, repr=False)

    @classmethod
    def from_config(cls, config):
        pts = config.all_points()
        charts = [chart_for_point(config.field, p) for p in pts]
        return cls(config.preset, config.field, pts, charts)

    def __len__(self):
        return len(self.points)

    @cached_property
    def reduced(self):
        """The point set at the partner prime of its field (same charts, so
        its condition matrices reduce these entry by entry), built once;
        None when the field has no partner prime or a coordinate's
        denominator vanishes there."""
        p = getattr(self.field, "partner_prime", None)
        if p is None:
            return None
        try:
            pts = [tuple(self.field.reduce(c) for c in pt) for pt in self.points]
        except FieldError:
            return None
        return PointSet(self.preset, PrimeField(p), pts, self.charts)


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
    entries.  Over F_p the result is one int64 array, each point's block
    gathered from the Taylor tables kept on the point set by one index array
    of column exponents, otherwise a list of rows.
    """
    field = pointset.field
    cols = monomials_of_degree(3, d)
    monos = local_monomials(m)
    exps = np.array(cols, dtype=np.intp).reshape(len(cols), 3)
    prime = isinstance(field, PrimeField)
    if prime:
        ii, jj = np.array(monos, dtype=np.intp).reshape(len(monos), 2).T
        out = np.empty((len(pointset) * len(monos), len(cols)), dtype=np.int64)
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

    def basis_polys(self):
        return [self.basis_poly(i) for i in range(self.dim)]


def membership(f, piece):
    """Exact membership of a form in a graded piece."""
    return piece.contains_poly(f)


def _empty_at_partner(pointset, m, d):
    """Whether the degree-d conditions of order m have full column rank at
    the partner prime of the point set's field.  The reduced point set's
    matrix is the exact one reduced entry by entry, and rank can only drop
    under reduction, so full rank there proves the exact piece empty: the
    certificate linalg.kernel_certified closes, read before any exact
    product.  False without a reduced point set, and when the conditions
    are fewer than the columns."""
    reduced = pointset.reduced
    ncols = comb(d + 2, 2)
    if reduced is None or len(reduced) * comb(m + 1, 2) < ncols:
        return False
    mat, _ = point_conditions_matrix(reduced, m, d)
    return linalg.rank(mat, ncols, reduced.field) == ncols


def symbolic_piece(pointset, m, d):
    """Exact basis of the forms of degree d vanishing to order >= m at every
    point of the set (all of them for m <= 0: no conditions), built once
    per point set.  Over an extension with a partner prime, an empty piece
    is settled at that prime (_empty_at_partner); every other piece is the
    kernel of the exact conditions."""
    key = (max(m, 0), d)
    if key not in pointset.pieces:
        field = pointset.field
        if m >= 1 and _empty_at_partner(pointset, *key):
            cols, basis = monomials_of_degree(3, d), []
        else:
            mat, cols = point_conditions_matrix(pointset, *key)
            basis = linalg.kernel(mat, len(cols), field)
        pointset.pieces[key] = GradedPiece(d, field, cols, basis)
    return pointset.pieces[key]


def vanishes_to_order(f, pointset, m):
    """Direct membership in the m-th symbolic power: the local expansion at
    every point has order >= m.  Equivalent to membership in the kernel of
    the condition matrix, with no elimination."""
    for pt, chart in zip(pointset.points, pointset.charts):
        t = local_expand(f, pt, m, chart=chart)
        if not t.is_zero():
            return False
    return True


def certified_alpha(pointset, m, cap=120, progress=None):
    """Least degree alpha with a nonzero piece of the m-th symbolic power
    (m >= 1), with the two certificates that fix it:

    - "empty_below": the conditions have full column rank in degree alpha - 1;
    - "witness": a nonzero form of degree alpha, re-checked by local expansion
      to vanish to order m at every point.

    A nonzero piece stays nonzero one degree up (multiply by a linear form),
    so alpha is found by bisection on emptiness: each probe builds its piece,
    and dimension 0 is full column rank of the conditions.  The witness is
    the first basis form of the last nonempty probe.  The lower end m - 1 is
    empty without elimination (a nonzero form of degree d has order at most
    d at a point).  The upper end is the least degree whose monomials
    outnumber the conditions, where the piece cannot be empty; when that
    lies beyond `cap`, the upper end is `cap`, probed once.  Every piece
    is kept on the point set (symbolic_piece), so the containment loop and
    the generators read the pieces built here.
    A failed certificate raises FatIdealError.
    """
    if m < 1:
        raise FatIdealError(f"alpha needs a multiplicity m >= 1, got {m}")
    pieces = {}

    def empty(d):
        piece = pieces[d] = symbolic_piece(pointset, m, d)
        ncols = len(piece.monomials)
        if progress is not None:
            progress(f"degree {d}: rank {ncols - piece.dim} of {ncols} columns")
        return piece.dim == 0

    conditions = len(pointset) * comb(m + 1, 2)
    lo, hi = m - 1, m
    while comb(hi + 2, 2) <= conditions:
        hi += 1
    if hi > cap:
        hi = cap
        if empty(cap):
            raise FatIdealError(
                f"no element of the symbolic power found up to degree {cap}")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if empty(mid):
            lo = mid
        else:
            hi = mid
    if lo not in pieces:
        empty(lo)
    if pieces[lo].dim:
        raise FatIdealError(f"degree {lo} conditions lost full rank")
    piece = symbolic_piece(pointset, m, hi)
    form = piece.basis_poly(0) if piece.dim else None
    if form is None or not vanishes_to_order(form, pointset, m):
        raise FatIdealError(
            f"no form of degree {hi} vanishing to order {m} re-checks")
    ncols = len(pieces[lo].monomials)
    return {"alpha": hi,
            "empty_below": {"degree": lo, "rank": ncols, "columns": ncols},
            "witness": {"degree": hi, "order": m, "form": form,
                        "check": "local expansion at every point"}}


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
    """Minimal generators of the point ideal, degree by degree: in degree d
    the new generators complete a basis of I_d modulo the degree-d part of
    S_1 * I_(d-1)."""
    field = pointset.field
    gens = GeneratorSet(pointset)
    prev_basis = []  # basis polys of I_(d-1)
    for d in range(1, up_to_degree + 1):
        piece = symbolic_piece(pointset, 1, d)
        cols = piece.monomials
        products = []
        for f in prev_basis:
            for v in range(3):
                g = f * Poly.variable(field, v)
                products.append(g.coeff_vector(cols))
        span = GradedPiece(d, field, cols, products)
        basis = piece.basis_polys()
        new = []
        for f, vec in zip(basis, piece.rows):
            if not span.contains_vector(vec):
                new.append(f)
                span = GradedPiece(d, field, cols, list(span.rows) + [vec])
        if new:
            gens.by_degree[d] = new
        gens.complete_through = d
        prev_basis = basis
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
    products of generators times filling monomials."""
    field = gens.pointset.field
    alpha = gens.alpha
    if alpha is None:
        raise FatIdealError("empty generator set")
    if gens.complete_through < d - (r - 1) * alpha:
        raise FatIdealError(
            f"generators known only through degree {gens.complete_through}; "
            f"degree {d - (r - 1) * alpha} needed for (r={r}, d={d})")
    flat = gens.all_generators()
    cols = monomials_of_degree(3, d)
    rows = []
    products = {(): Poly.constant(field, field.one)}
    for key in combinations_with_replacement(range(len(flat)), r):
        degsum = sum(flat[i].degree() for i in key)
        if degsum > d:
            continue
        for j in range(1, len(key) + 1):
            sub = key[:j]
            if sub not in products:
                products[sub] = products[key[:j - 1]] * flat[key[j - 1]]
        prod = products[key]
        for e in monomials_of_degree(3, d - degsum):
            rows.append((prod * Poly(field, {e: field.one})).coeff_vector(cols))
    return GradedPiece(d, field, cols, rows)


def line_product(config):
    """Product of the configuration's linear forms."""
    field = config.field
    acc = Poly.constant(field, field.one)
    for line in config.lines:
        acc = acc * line
    return acc.canonical_scale()


def orbit_count_decompositions(sizes, total):
    """All ways to write `total` as a nonnegative combination of orbit sizes
    (brute force; the audit behind the generator identification)."""
    out = []

    def rec(i, left, acc):
        if i == len(sizes):
            if left == 0:
                out.append(tuple(acc))
            return
        k = 0
        while k * sizes[i] <= left:
            rec(i + 1, left - k * sizes[i], acc + [k])
            k += 1
    rec(0, total, [])
    return out


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
            "in_square": membership(f, power_piece(gens, 2, d))}


def resurgence_certificate(config, pointset, field, ledger_dmax=None):
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
    preset = config.preset
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
