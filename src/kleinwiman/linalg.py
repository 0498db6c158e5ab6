"""Exact linear algebra: RREF and kernels over Q, generic fields, and
number-field matrices via a certified rational-kernel + mod-p-rank sandwich.

Kernels over Q are multimodular (`kernel_rational`): mod-p kernels at primes
below kernels.MAX_PRIME, combined by CRT, rationally reconstructed and
checked exactly in integers; no Fraction elimination.  A matrix over a
simple extension is read once, into integer rows of coordinates that serve
both the rank at the partner prime and the rational kernel
(`kernel_certified`).  Everything here is deterministic: fixed pivot scan
order, reduced row echelon normal forms, kernel bases indexed by free
columns in increasing order.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from kleinwiman import kernels
from kleinwiman.errors import FieldError
from kleinwiman.fields import (PrimeField, RationalField, SimpleExtension,
                               is_prime)


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
        row_r = m[r]
        # only the pivot row's nonzero columns change the other rows
        support = [j for j, v in enumerate(row_r) if not field.is_zero(v)]
        for j in support:
            row_r[j] = field.mul(row_r[j], inv)
        for i in range(nrows):
            if i == r:
                continue
            row = m[i]
            f = row[c]
            if not field.is_zero(f):
                for j in support:
                    row[j] = field.sub(row[j], field.mul(f, row_r[j]))
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


# -- kernels over Q by CRT and rational reconstruction ----------------------

def _primes_below(n):
    """The primes below n, counting down."""
    while n > 2:
        n -= 1
        if is_prime(n):
            yield n


def _cleared(xs):
    """(den, [den x for x in xs]): den is the lcm of the denominators."""
    den = math.lcm(*(x.denominator for x in xs))
    return den, [x.numerator * (den // x.denominator) for x in xs]


def _integer_rows(rows):
    """Each nonzero rational row scaled to coprime integers: the kernel is
    unchanged."""
    out = []
    for row in rows:
        ints = _cleared(row)[1]
        g = math.gcd(*ints)
        if g:
            out.append([v // g for v in ints])
    return out


def _prime_budget(a, ncols):
    """Primes that always suffice.  Every kernel entry is a ratio of two
    minors of order rank <= ncols, each at most H, the product of the ncols
    largest row norms (Hadamard).  Reconstruction needs a modulus above 2H^2,
    and a prime that changes the pivot set divides one nonzero minor, so at
    most log H / 19 primes (each above 2^19) are unlucky."""
    bits = sorted(((sum(v * v for v in row).bit_length() + 1) // 2 for row in a),
                  reverse=True)
    return (3 * sum(bits[:ncols]) + 1) // 19 + 2


def _rational_reconstruction(u, m, bound):
    """The n/d = u mod m with |n|, d <= bound (Wang's half extended Euclid),
    or None.  Unique when 2 bound^2 < m."""
    r0, r1, t0, t1 = m, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound or math.gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def _reconstruct(residues, m):
    bound = math.isqrt(m // 2)
    basis = []
    for row in residues.tolist():
        v = []
        for u in row:
            x = _rational_reconstruction(u, m, bound)
            if x is None:
                return None
            v.append(x)
        basis.append(v)
    return basis


def _annihilates(a, basis):
    """A v = 0 for every v in the basis, exactly in Python integers."""
    if not basis:
        return True
    scaled = [_cleared(v)[1] for v in basis]
    return not a.dot(np.array(scaled, dtype=object).T).any()


def kernel_rational(rows, ncols):
    """Right-kernel basis of a rational matrix: the basis kernel_field gives
    over Q, computed without Fraction elimination.

    The rows are cleared of denominators; at each prime below MAX_PRIME
    `kernels.kernel_mod` gives the canonical basis, whose free columns fix
    the pivot set.  Primes sharing the best pivot set (highest rank, then
    lexicographically smallest pivots) are combined by CRT, and a strictly
    better set restarts the combination.  Each combination is rationally
    reconstructed and returned once A v = 0 holds exactly.

    That check makes the answer kernel_field's: a mod-p basis vector v_f is 1
    at its free column f, 0 at the other free columns and nonzero elsewhere
    only at pivot columns c < f.  If A v_f = 0, column f is a combination of
    earlier columns, so every free column at p is free over Q; the kernel
    mod p is no smaller than over Q, so the free sets are equal, and the
    basis with that pattern is unique.  Raises FieldError when the prime
    budget runs out.
    """
    ints = _integer_rows(rows)
    if not ints:
        return [[Fraction(int(j == f)) for j in range(ncols)]
                for f in range(ncols)]
    a = np.array(ints, dtype=object)
    best = None
    budget = _prime_budget(ints, ncols)
    for p in itertools.islice(_primes_below(kernels.MAX_PRIME), budget):
        basis = kernels.kernel_mod((a % p).astype(np.int64), p)
        # each canonical basis vector ends at its free column
        free = {int(np.flatnonzero(v)[-1]) for v in basis}
        key = (len(free), [c for c in range(ncols) if c not in free])
        if best is None or key < best:
            best, residues, modulus = key, basis.astype(object), p
        elif key == best:
            step = (basis - (residues % p).astype(np.int64)) % p \
                * pow(modulus, -1, p) % p
            residues = residues + modulus * step.astype(object)
            modulus *= p
        else:
            continue
        candidate = _reconstruct(residues, modulus)
        if candidate is not None and _annihilates(a, candidate):
            return candidate
    raise FieldError("prime budget exhausted for the rational kernel")


# -- number-field kernels with a certificate --------------------------------

def kernel_certified(rows, ncols, field):
    """Exact right kernel of a matrix over Q or a simple extension of Q.

    Over Q this is kernel_rational.  Over an extension each row is scaled by
    the common denominator of its entries into deg integer rows, row k
    holding the g^k numerators of the entries' Coords.
    Those rows give the image at the partner prime p, sum_k g(p)^k row_k
    with the powers g(p)^k of the field's partner map (the map of
    SimpleExtension.reduce, read from its partner_powers), and rank_p =
    ncols there proves the kernel empty.  They are also the
    rational rows whose kernel inside Q^n is the rational part of the
    kernel, found by kernel_rational and certified complete by
    dim_Q(kernel over Q) <= dim(kernel) <= ncols - rank_p: when the two ends
    meet, the rational basis spans the kernel.  A rational matrix gets its
    basis the same way, its other coordinate rows being zero.  Otherwise, or
    when a denominator dies mod p or a prime budget runs out, falls back to
    generic elimination over the extension.

    Returns the basis rows, with entries in `field` (rational values when the
    certificate closed).
    """
    if isinstance(field, RationalField):
        return kernel_rational(rows, ncols)
    if not isinstance(field, SimpleExtension):
        raise FieldError("kernel_certified expects Q or a simple extension")
    p = field.partner_prime
    if rows and p is not None:
        try:
            deg = field.deg
            ints = []
            for row in rows:
                coords = [field.coerce(v) for v in row]
                den = math.lcm(*(v[deg] for v in coords))
                if den % p == 0:
                    raise FieldError(f"a denominator of the matrix vanishes mod {p}")
                scales = [den // v[deg] for v in coords]
                ints.extend([v[k] * s for v, s in zip(coords, scales)]
                            for k in range(deg))
            blocks = (np.array(ints, dtype=object) % p).astype(np.int64)
            image = np.einsum("ikj,k->ij", blocks.reshape(len(rows), deg, ncols),
                              np.array(field.partner_powers, dtype=np.int64)) % p
            rank_p = kernels.rank_mod(image, p)
            if rank_p == ncols:
                # rank can only drop under reduction, so full rank at p is
                # full rank over the field: the kernel is empty
                return []
            qbasis = kernel_rational(ints, ncols)
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
    # vec = sum_i vec[c_i] R_i, as the RREF is the identity on its pivots c_i:
    # one pass over the other columns, to the first where they differ
    pivset = set(pivots)
    terms = [(vec[c], row) for c, row in zip(pivots, rref_rows)
             if not field.is_zero(vec[c])]
    return all(field.is_zero(field.sub(x, field.sum(
        field.mul(f, row[j]) for f, row in terms if not field.is_zero(row[j]))))
        for j, x in enumerate(vec) if j not in pivset)
