"""Mod-p linear algebra and truncated polynomial kernels on int64 numpy arrays."""

import numpy as np

# m * p**2 (truncated products) and (NARROW + 1) * p**2 (the unblocked
# elimination loop) must stay below 2**63 for the int64 accumulation; every
# preset prime is tiny compared to this.
MAX_PRIME = 1 << 20

# Columns per panel of the blocked elimination.  Its trailing update is one
# float64 product over k <= PANEL pivots of operands reduced mod p, exact
# while k * (p - 1)**2 < 2**53: for every p < MAX_PRIME that allows k <= 8192.
PANEL = 32
assert PANEL <= 8192 and 8192 * (MAX_PRIME - 1) ** 2 < 2 ** 53

# Widest matrix reduced by the unblocked loop alone.  Measured on the
# matrices of the benchmark workloads and of the Klein search to degree 200
# (mod 4733 and mod 7): up to about three panels the per-panel overhead of
# the blocked route costs more than it saves; on the tall series matrices of
# 100 to 134 columns the blocked route is 10 to 40% faster.
NARROW = 3 * PANEL
assert (NARROW + 1) * MAX_PRIME ** 2 < 2 ** 63

# Rows per strip of the trailing update, so that no float64 copy of the
# whole matrix is ever made.
STRIP = 256

# Rows of A per product of the compressed rank's S A.  The BLAS packs both
# operands of a product into buffers of its own, one set per thread, so the
# strip sets what S A adds to the peak RSS: about 1 MB for the benchmark
# searches at 256 rows, nothing measurable at 64, with no measurable change
# in their time.  Each strip adds at most SKETCH_STRIP * (p - 1)**2 to
# entries already reduced below p, exact in float64 while that stays below
# 2**53.
SKETCH_STRIP = 64
assert SKETCH_STRIP * (MAX_PRIME - 1) ** 2 + MAX_PRIME < 2 ** 53

# Rows of the compressed rank's S beyond the column count.  For a uniformly
# random S and A of full column rank, S A is uniform, and it misses full
# rank with probability about p**-(SKETCH_EXTRA + 1): 2.5e-8 at p = 7.
SKETCH_EXTRA = 8


def _check_prime(p):
    if p >= MAX_PRIME:
        raise ValueError(f"prime {p} too large for the mod-p kernels")


def _rref_narrow(a, p, swaps=None, reduced=True):
    """Unblocked Gauss-Jordan of `a` (int64 2D array, entries in [0, p)) to
    reduced row echelon form mod p, in place, one pivot column at a time.

    Returns the list of pivot column indices.  Row exchanges are appended to
    `swaps` as (i, j) pairs when it is given.  With `reduced` false the loop
    runs forward only: each pivot updates the rows below it, in its own and
    the trailing columns, which leaves the same pivots and row exchanges but
    not the RREF.  Non-pivot rows accumulate unreduced values until the end:
    with at most NARROW pivots (the base case, a panel, or the inverse of a
    pivot block) their magnitudes stay below (NARROW + 1) * p**2.
    """
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.flatnonzero(a[r:, c] % p)
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
            if swaps is not None:
                swaps.append((r, i))
        # rows lo .. rows - 1 lose multiples of the pivot row, columns c0 on
        lo, c0 = (0, 0) if reduced else (r + 1, c)
        head = a[r, c0:]
        head %= p
        head *= pow(int(a[r, c]), p - 2, p)
        head %= p
        mult = a[lo:, c] % p
        if reduced:
            mult[r] = 0
        a[lo:, c0:] -= np.outer(mult, head)
        pivots.append(c)
        r += 1
    a %= p
    return pivots


def _inverse_mod(block, p):
    """Inverse mod p of an invertible k x k int64 block."""
    k = block.shape[0]
    aug = np.hstack([block, np.eye(k, dtype=np.int64)])
    _rref_narrow(aug, p)
    return aug[:, k:]


def _rref_inplace(a, p, reduced=True):
    """Blocked elimination of `a` (int64 2D array, entries in [0, p)) mod p,
    in place; returns the pivot columns, whose count is the rank.

    Panels of PANEL columns are factored by the unblocked loop, forward
    only, which gives the pivot columns J and the rows that hold them.
    Those k pivot rows become A^-1 times themselves, where A is their k x k
    block on J, and every other row x loses x[J] times them: one float64
    product per panel (the FFLAS-FFPACK scheme of Dumas, Giorgi and
    Pernet).  The forward pass updates only the rows below each panel's
    pivots, which is enough for the rank (`reduced` false).  The RREF then
    clears the rows above, panel by panel in the same order, the same
    operations on the same values as when interleaved; a matrix of full
    column rank needs none of that, since its RREF is the identity over zero
    rows.  A matrix no wider than NARROW columns is the base case: the
    unblocked loop alone, forward only as well when `reduced` is false.
    """
    rows, cols = a.shape
    if cols <= NARROW:
        return _rref_narrow(a, p, reduced=reduced)
    panels = []     # (first pivot row, first column, pivot columns in panel)
    r = 0
    for c0 in range(0, cols, PANEL):
        if r >= rows:
            break
        swaps = []
        found = _rref_narrow(a[r:, c0:c0 + PANEL].copy(), p, swaps,
                             reduced=False)
        if not found:
            continue
        for i, j in swaps:
            a[[r + i, r + j]] = a[[r + j, r + i]]
        k = len(found)
        head = a[r:r + k, c0:]
        inv = _inverse_mod(a[r:r + k, [c0 + c for c in found]], p)
        np.remainder((inv.astype(np.float64) @ head).astype(np.int64), p, out=head)
        _eliminate(a, p, r + k, rows, c0, found, head)
        panels.append((r, c0, found))
        r += k
    pivots = [c0 + c for _, c0, found in panels for c in found]
    if reduced and len(pivots) == cols:
        a[:cols] = 0
        np.fill_diagonal(a, 1)
    elif reduced:
        for r, c0, found in panels:
            _eliminate(a, p, 0, r, c0, found, a[r:r + len(found), c0:])
    return pivots


def _eliminate(a, p, start, stop, c0, found, pivot_rows):
    """Rows start .. stop - 1 of `a` lose x[J] times the normalized pivot
    rows of one panel (columns c0 on, pivot columns c0 + J), strip by strip."""
    pivot_rows = pivot_rows.astype(np.float64)
    for s in range(start, stop, STRIP):
        strip = a[s:min(s + STRIP, stop), c0:]
        t = strip[:, found].astype(np.float64) @ pivot_rows
        t = t.astype(np.int64)
        np.subtract(strip, t, out=t)
        np.remainder(t, p, out=strip)


def _reduced_copy(a, p):
    _check_prime(p)
    return np.ascontiguousarray(np.asarray(a, dtype=np.int64) % p)


def rref_mod(a, p):
    """RREF of a copy of `a` mod p. Returns (rref matrix, pivot columns)."""
    a = _reduced_copy(a, p)
    return a, (_rref_inplace(a, p) if a.size else [])


def _sketch(k, start, stop, p):
    """Columns start .. stop - 1 of the fixed k-row matrix S mod p, as
    float64: entry (i, j) is a 64-bit integer hash of (i, j) (the splitmix64
    finalizer), reduced mod p."""
    x = (np.arange(k, dtype=np.uint64)[:, None] << np.uint64(32)) \
        | np.arange(start, stop, dtype=np.uint64)
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        x ^= x >> np.uint64(shift)
        x *= np.uint64(mult)
    x ^= x >> np.uint64(31)
    return (x % np.uint64(p)).astype(np.float64)


def _compressed(a, p, k):
    """S A mod p for the fixed k-row S and `a` reduced mod p, as int64, one
    row strip of `a` at a time."""
    c = np.zeros((k, a.shape[1]))
    for s in range(0, a.shape[0], SKETCH_STRIP):
        strip = a[s:s + SKETCH_STRIP]
        c += _sketch(k, s, s + len(strip), p) @ strip.astype(np.float64)
        np.remainder(c, p, out=c)
    return c.astype(np.int64)


def rank_mod(a, p):
    """Rank of `a` mod p, by forward elimination only.

    A matrix with more than max(2 k, STRIP) rows, k = cols + SKETCH_EXTRA,
    is first compressed to C = S A, S a fixed k-row matrix whose entries
    are an integer hash of their indices (deterministic, no random state).
    Since rank(S A) <= rank(A) <= cols, a C of full column rank certifies
    that A has it, whatever S is; otherwise A itself is eliminated.  So the
    rank is always exact, and only the speed depends on S (a generic S
    keeps the rank of A with high probability: Cheung, Kwok and Lau,
    J. ACM 2013).  C is summed in float64 over strips of SKETCH_STRIP rows,
    each reduced mod p, exact by the bound asserted with SKETCH_STRIP.
    Shorter matrices are eliminated directly: below 2 k rows C costs about
    what A does, and below STRIP rows it gains nothing measurable.
    """
    a = _reduced_copy(a, p)
    if not a.size:
        return 0
    rows, cols = a.shape
    k = cols + SKETCH_EXTRA
    if rows > max(2 * k, STRIP) \
            and len(_rref_inplace(_compressed(a, p, k), p, reduced=False)) == cols:
        return cols
    return len(_rref_inplace(a, p, reduced=False))


def kernel_mod(a, p):
    """Basis of the right kernel of `a` mod p, as rows of a (k, cols) array.

    The basis is canonical: for each free column f the vector has 1 at f,
    the solved pivot entries elsewhere, and free columns are taken in
    increasing order.
    """
    r, pivots = rref_mod(a, p)
    free = np.ones(r.shape[1], dtype=bool)
    free[pivots] = False
    free = np.flatnonzero(free)
    basis = np.zeros((len(free), r.shape[1]), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = -r[:len(pivots), free].T % p
    return basis


def in_rowspace_mod(rref, pivots, v, p):
    """Whether row vector v lies in the span of an RREF row basis mod p."""
    v = np.asarray(v, dtype=np.int64) % p
    for i, c in enumerate(pivots):
        if v[c]:
            v = (v - v[c] * rref[i]) % p
    return not np.any(v)


def trunc_mul_mod(a, b, p):
    """Multiply truncated one-variable polynomials mod p, row by row.

    a, b are int64 arrays whose last axis holds the coefficients: entry
    [..., k] is the coefficient of t^k, below t^m for a last axis of length
    m.  The leading axes (lines, and any batch axes before them) broadcast
    against each other, so one call multiplies a whole stack of polynomial
    rows, or every row of a stack by one shared row set.  Returns the
    products truncated below t^m, in the broadcast shape.  Accumulates full
    int64 products, so m * p**2 must stay below 2**63.
    """
    _check_prime(p)
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    shape = np.broadcast_shapes(a.shape, b.shape)
    m = shape[-1]
    # shifted[..., k, n] = b[..., n - k], zero for n < k: a strided view of
    # b behind m - 1 zeros, stepping back one coefficient per k
    padded = np.zeros(shape[:-1] + (2 * m - 1,), dtype=np.int64)
    padded[..., m - 1:] = b
    step = padded.strides[-1]
    shifted = np.lib.stride_tricks.as_strided(
        padded[..., m - 1:], shape + (m,), padded.strides[:-1] + (-step, step),
        writeable=False)
    return np.einsum("...k,...kn->...n", a, shifted) % p
