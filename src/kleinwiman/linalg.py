"""Exact linear algebra: RREF and kernels over Q, generic fields, and
number-field matrices via a certified rational-kernel + mod-p-rank sandwich.

Everything here is deterministic: fixed pivot scan order, reduced row echelon
normal forms, kernel bases indexed by free columns in increasing order.
"""

from fractions import Fraction

import numpy as np

from kleinwiman import kernels
from kleinwiman.errors import FieldError
from kleinwiman.fields import PrimeField, RationalField, SimpleExtension


def rref_field(rows, field):
    """RREF of a list-of-lists matrix over `field`, returning (rows, pivots).

    Pivot rows are chosen by smallest support among candidate rows (ties by
    position), which keeps exact entries small on the sparse matrices this
    engine produces.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        best = None
        for i in range(r, nrows):
            if not field.is_zero(m[i][c]):
                support = sum(1 for v in m[i] if not field.is_zero(v))
                if best is None or support < best[0]:
                    best = (support, i)
        if best is None:
            continue
        i = best[1]
        if i != r:
            m[r], m[i] = m[i], m[r]
        inv = field.inv(m[r][c])
        m[r] = [field.mul(v, inv) for v in m[r]]
        for i in range(nrows):
            if i == r:
                continue
            f = m[i][c]
            if not field.is_zero(f):
                row_r = m[r]
                m[i] = [field.sub(v, field.mul(f, w)) for v, w in zip(m[i], row_r)]
        pivots.append(c)
        r += 1
    return m, pivots


def kernel_field(rows, ncols, field):
    """Right-kernel basis (list of row vectors) of a matrix over `field`."""
    if not rows:
        return [[field.one if j == f else field.zero for j in range(ncols)]
                for f in range(ncols)]
    m, pivots = rref_field(rows, field)
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    basis = []
    for f in free:
        v = [field.zero] * ncols
        v[f] = field.one
        for i, c in enumerate(pivots):
            v[c] = field.neg(m[i][f])
        basis.append(v)
    return basis


def rank_field(rows, field):
    if not rows:
        return 0
    return len(rref_field(rows, field)[1])


def reduce_against_rref(rref_rows, pivots, vec, field):
    """Residual of vec after reduction by an RREF row basis."""
    v = list(vec)
    for i, c in enumerate(pivots):
        f = v[c]
        if not field.is_zero(f):
            row = rref_rows[i]
            v = [field.sub(a, field.mul(f, b)) for a, b in zip(v, row)]
    return v


# -- number-field kernels with a certificate --------------------------------

def expand_extension_rows(rows, field):
    """Turn each row over a simple extension into deg(field) rational rows.

    A rational vector is in the kernel of the original matrix iff it is in
    the kernel of the expanded matrix.
    """
    out = []
    for row in rows:
        columns = [field.coerce(v) for v in row]
        for k in range(field.deg):
            out.append([c[k] for c in columns])
    return out


def reduce_matrix_mod_partner(rows, field):
    """Reduce an extension-field matrix modulo the field's partner prime.

    Returns (int matrix, p).  Raises FieldError when a denominator dies mod p
    (the certificate is then unavailable and callers fall back).
    """
    p = getattr(field, "partner_prime", None)
    g = getattr(field, "partner_gen_image", None)
    if p is None:
        raise FieldError(f"{field.name} has no partner prime")
    gp = PrimeField(p)
    gpow = [1]
    for _ in range(field.deg - 1):
        gpow.append(gpow[-1] * g % p)
    out = []
    for row in rows:
        outrow = []
        for v in row:
            v = field.coerce(v)
            acc = 0
            for c, gi in zip(v, gpow):
                if c:
                    acc = (acc + gp.embed_rational(c) * gi) % p
            outrow.append(acc)
        out.append(outrow)
    return out, p


def kernel_certified(rows, ncols, field):
    """Exact right kernel of a matrix over Q or a simple extension of Q.

    For extension fields the rank of the matrix reduced at the partner prime
    comes first: rank_p = ncols proves the kernel empty.  Otherwise the
    kernel is computed inside Q^n (fast) and certified complete by
    dim_Q(kernel over Q) <= dim(kernel) <= ncols - rank_p.  When the two
    ends meet, the rational basis spans the kernel.  Otherwise falls back to
    generic elimination over the extension field.

    Returns the basis rows, with entries in `field` (rational values when the
    certificate closed).
    """
    if isinstance(field, RationalField):
        return kernel_field(rows, ncols, field)
    if not isinstance(field, SimpleExtension):
        raise FieldError("kernel_certified expects Q or a simple extension")
    if not rows:
        return kernel_field(rows, ncols, field)
    # all-rational matrices need no certificate: a rational basis of the
    # kernel over Q is a basis over any extension
    if all(all(field.coerce(v)[1:] == (Fraction(0),) * (field.deg - 1) for v in row)
           for row in rows):
        qrows = [[field.coerce(v)[0] for v in row] for row in rows]
        basis = kernel_field(qrows, ncols, RationalField())
        return [[field.embed_rational(c) for c in v] for v in basis]
    try:
        reduced, p = reduce_matrix_mod_partner(rows, field)
        rank_p = kernels.rank_mod(reduced, p)
        if rank_p == ncols:
            # rank can only drop under reduction, so full rank at p is full
            # rank over the field: the kernel is empty
            return []
        expanded = expand_extension_rows(rows, field)
        qbasis = kernel_field(expanded, ncols, RationalField())
        if len(qbasis) == ncols - rank_p:
            return [[field.embed_rational(c) for c in v] for v in qbasis]
    except FieldError:
        pass
    return kernel_field(rows, ncols, field)


# -- the engine's entry points: each decides the field once ----------------
# F_p matrices are int64 arrays for `kernels`; over Q and its extensions they
# are lists of rows for the exact routines above.  No rows: rank 0, identity
# kernel.

def _mod_matrix(rows, ncols):
    return np.asarray(rows, dtype=np.int64).reshape(len(rows), ncols)


def kernel(rows, ncols, field):
    """Right-kernel basis: rows of an int64 array over F_p, a list of rows
    otherwise (certified, see kernel_certified)."""
    if isinstance(field, PrimeField):
        return kernels.kernel_mod(_mod_matrix(rows, ncols), field.p)
    return kernel_certified(rows, ncols, field)


def rank(rows, ncols, field):
    if isinstance(field, PrimeField):
        return kernels.rank_mod(_mod_matrix(rows, ncols), field.p)
    # the certified kernel ends early on full rank
    return ncols - len(kernel_certified(rows, ncols, field))


def rref(rows, ncols, field):
    """The nonzero rows of the RREF and the pivot columns."""
    if isinstance(field, PrimeField):
        reduced, pivots = kernels.rref_mod(_mod_matrix(rows, ncols), field.p)
    else:
        reduced, pivots = rref_field(rows, field)
    return reduced[:len(pivots)], pivots


def in_rowspace(rref_rows, pivots, vec, field):
    """Whether vec lies in the span of the rows returned by rref."""
    if isinstance(field, PrimeField):
        return kernels.in_rowspace_mod(rref_rows, pivots, vec, field.p)
    return all(field.is_zero(c) for c in reduce_against_rref(rref_rows, pivots,
                                                             vec, field))
