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


def _check_prime(p):
    if p >= MAX_PRIME:
        raise ValueError(f"prime {p} too large for the mod-p kernels")


def _rref_narrow(a, p, swaps=None):
    """Unblocked Gauss-Jordan of `a` (int64 2D array, entries in [0, p)) to
    reduced row echelon form mod p, in place, one pivot column at a time.

    Returns the list of pivot column indices.  Row exchanges are appended to
    `swaps` as (i, j) pairs when it is given.  Non-pivot rows accumulate
    unreduced values until the end: with at most NARROW pivots (the base
    case, a panel, or the inverse of a pivot block) their magnitudes stay
    below (NARROW + 1) * p**2.
    """
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        col = a[r:, c] % p
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
            if swaps is not None:
                swaps.append((r, i))
        a[r] %= p
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = (a[r] * inv) % p
        mult = a[:, c] % p
        mult[r] = 0
        other = np.nonzero(mult)[0]
        if other.size:
            a[other] -= np.outer(mult[other], a[r])
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

    Panels of PANEL columns are factored by the unblocked loop, which gives
    the pivot columns J and the rows that hold them.  Those k pivot rows
    become A^-1 times themselves, where A is their k x k block on J, and
    every other row x loses x[J] times them: one float64 product per panel
    (the FFLAS-FFPACK scheme of Dumas, Giorgi and Pernet).  The forward
    pass updates only the rows below each panel's pivots, which is enough
    for the rank (`reduced` false).  The RREF then clears the rows above,
    panel by panel in the same order, the same operations on the same
    values as when interleaved; a matrix of full column rank needs none of
    that, since its RREF is the identity over zero rows.  A matrix no wider
    than NARROW columns is the base case: the unblocked loop alone.
    """
    rows, cols = a.shape
    if cols <= NARROW:
        return _rref_narrow(a, p)
    panels = []     # (first pivot row, first column, pivot columns in panel)
    r = 0
    for c0 in range(0, cols, PANEL):
        if r >= rows:
            break
        swaps = []
        found = _rref_narrow(a[r:, c0:c0 + PANEL].copy(), p, swaps)
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


def rank_mod(a, p):
    """Rank of `a` mod p, by forward elimination only."""
    a = _reduced_copy(a, p)
    return len(_rref_inplace(a, p, reduced=False)) if a.size else 0


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
