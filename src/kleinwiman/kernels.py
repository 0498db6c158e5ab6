"""Mod-p linear algebra and truncated polynomial kernels on numpy arrays.

The blocked elimination works on a floating-point copy of the matrix: exact
integers congruent mod p to its entries, reduced only where they are read
(the delayed modular reduction of FFLAS-FFPACK: Dumas, Giorgi and Pernet,
ACM TOMS 2008).  A reduction is a centring, r = x - p rint(x (1/p)), four
operations in place: for an integer |x| < 2**52 in float64, or 2**23 in
float32, x (1/p) is within 1/p of x / p (two roundings of relative error
2**-53, or 2**-24), so r is an integer congruent to x with |r| < p/2 + 1,
that is |r| <= (p + 1)/2, and 0 exactly when p divides x.  WIDEST keeps
every entry below 2**52, and below 2**23 for p <= SINGLE, where the copy is
float32 (as FFLAS-FFPACK keeps small moduli): every partial sum of a
product is then an integer below that bound, exact in any summation order,
and each product and centring moves half the bytes.  The unblocked loop
works in int64.

The products are hundreds of small float32 and float64 BLAS calls, and
numpy's OpenBLAS hands each of them to its worker threads.  On 2 cores that
hand-off made them intermittently 2 to 8 times slower (kernel_mod on the
231 x 300 mod-7 chain of klein-char7 m = 6: 58 to 72 ms against 7.7 to
8.6 ms), so this module sets the library numpy loaded to one thread, once,
at import, for the whole process.  BACKEND names numpy, the BLAS and the
thread count read back, or why nothing was pinned.
"""

import ctypes
import glob
import math
import os

import numpy as np

from kleinwiman.errors import UsageError

# m * p**2 (truncated products) must stay below 2**63 for the int64
# accumulation; every preset prime is tiny compared to this.
MAX_PRIME = 1 << 20

# Widest matrix reduced by the unblocked loop alone.  With one BLAS thread
# the blocked route took 1.4 times as long on the Klein search's 20 series
# matrices of 97 to 134 columns, past degree 170 (67 and 72 against 46 and
# 51 ms in two replays), and on the two 105-column RREFs of the
# characteristic-7 generators (3.6 against 2.6 ms); past 134 columns neither
# route won beyond the spread of the replays.
NARROW = 134

# Columns per panel of the blocked elimination; rows per strip of a copy.
PANEL = 64
STRIP = 256

# Rows per product: of the trailing block in an update.
# The BLAS packs the operands into per-thread buffers, so this sets what a
# product adds to the peak RSS: about 1 MB for the benchmark search at 256.
PRODUCT_ROWS = 64

# Widest matrix the eliminations accept.  The blocked route subtracts one
# product of centred operands, at most (p + 1)**2 / 4, per pivot, so its
# entries stay below p + WIDEST (p + 1)**2 / 4.  The unblocked loop adds at
# most (p - 1)**2 per term, over fewer terms.
WIDEST = 8192
assert MAX_PRIME + WIDEST * MAX_PRIME ** 2 // 4 < 2 ** 52 \
    and 4 * max(NARROW + 1, PRODUCT_ROWS) <= WIDEST and PANEL <= NARROW

# Largest prime whose blocked route works in float32: the bound above stays
# below 2**23 up to p = 63, and 67 exceeds it.
SINGLE = 61
assert SINGLE + WIDEST * (SINGLE + 1) ** 2 // 4 < 2 ** 23 \
    <= 67 + WIDEST * 68 ** 2 // 4

# Largest int64 array a matrix builder allocates, in bytes: 1 GiB.  It admits
# the chain of the Klein alpha(I^(19)) at full width (9,310 x 8,128, 0.6 GB)
# and the 804 class of the Klein search (3,625 x 1,982, 57 MB); an
# elimination then adds a floating-point copy of the same size.
MAX_BYTES = 1 << 30


def _openblas():
    """ctypes handle on the scipy-openblas library numpy has loaded, which
    numpy's wheels ship in numpy.libs; OSError when there is none."""
    paths = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                   "numpy.libs", "libscipy_openblas64_-*.so"))
    if len(paths) != 1:
        raise OSError(f"{len(paths)} libscipy_openblas64_ files in numpy.libs")
    return ctypes.CDLL(paths[0], mode=os.RTLD_NOLOAD)


def _pin_blas():
    """Set numpy's OpenBLAS to one thread; returns the BACKEND string."""
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    head = (f"numpy {np.__version__}, {blas['name']} "
            + ".".join(str(blas.get("version", "?")).split(".")[:3]))
    try:
        lib = _openblas()
        lib.scipy_openblas_set_num_threads64_(1)
        n = lib.scipy_openblas_get_num_threads64_()
    except (OSError, AttributeError) as e:
        return f"{head}, BLAS threads not pinned: {e}"
    return f"{head}, {n} BLAS thread{'s' * (n != 1)}"


BACKEND = _pin_blas()


def empty(shape):
    """np.empty(shape, int64) within MAX_BYTES, a UsageError naming the
    shape and size past it (raised before anything is allocated)."""
    size = 8 * math.prod(shape)
    if size > MAX_BYTES:
        raise UsageError(f"a {' x '.join(map(str, shape))} int64 matrix needs "
                         f"{size / 2 ** 30:.2f} GiB, past the "
                         f"{MAX_BYTES / 2 ** 30:g} GiB bound of one array")
    return np.empty(shape, dtype=np.int64)


def _check_prime(p):
    if p >= MAX_PRIME:
        raise ValueError(f"prime {p} too large for the mod-p kernels")


def _center(x, p):
    """x - p rint(x / p) in place (see the module docstring); returns x."""
    t = x * (1.0 / p)
    np.rint(t, out=t)
    t *= p
    x -= t
    return x


def _rref_narrow(a, p, swaps=None, reduced=True):
    """Unblocked Gauss-Jordan of `a` (int64, entries of magnitude at most
    p) mod p, in place, one pivot column at a time.

    Returns the pivot columns.  With `reduced` the rows end as the RREF, in
    [0, p); otherwise each pivot updates only the rows below it in the
    trailing columns: the same pivots and exchanges, with `a` left
    undefined unless `swaps` is given.  Then the row exchanges (i, j) are
    appended to it and move whole rows, so the first k rows of `a` on the
    k pivot columns hold, congruent mod p, the packed LU of A, their block
    there before elimination: A = L D^-1 U, L lower and U upper, both with
    D, the pivots, on the diagonal; below it L holds each pivot's column as
    the pivot met it, and above it U holds the pivot rows.
    """
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        lo = 0 if reduced else r        # the rows that lose the pivot row
        col = a[lo:, c] % p
        nz = col[r - lo:].nonzero()[0]
        if not nz.size:
            continue
        i = r + int(nz[0])
        # reduced before the scaling: a[i, c:] * inv overflows near MAX_PRIME
        head = a[i, c:] % p * pow(int(col[i - lo]), p - 2, p) % p
        if i != r:      # row r moves to i; row r is the pivot row from now on
            if swaps is None:
                a[i, c:] = a[r, c:]
            else:
                a[[r, i]] = a[[i, r]]
                swaps.append((r, i))
            col[i - lo] = col[r - lo]
        if reduced:
            a[r, c:] = head
            col[r] = 0
            a[:, c:] -= np.multiply.outer(col, head)
        else:
            a[r + 1:, c + 1:] -= np.multiply.outer(col[1:], head[1:])
        pivots.append(c)
        r += 1
    if reduced:
        a %= p
    return pivots


def _rref_inplace(a, p, reduced=True):
    """Elimination of `a` (entries in [0, p), as `_reduced_copy` gives
    them) mod p, in place; returns the pivot columns in row order: row i
    holds the pivot in column pivots[i].  With `reduced` the rows of `a`
    end congruent to those of the RREF, in that order.  Each panel of PANEL
    columns gives its pivot columns J and the k rows that hold them, which
    move up and become A^-1 times themselves, A their block on J; every
    other row x loses x[J] times them, one product per strip of rows (the
    FFLAS-FFPACK scheme).  Only what a panel reads is reduced: its own
    columns, on a copy, before the pivot search; its pivot rows, before and
    after the product by A^-1; the multipliers x[J], strip by strip.  The
    trailing block never is: each pivot adds at most (p + 1)**2 / 4 to an
    entry, exact up to WIDEST columns.  J is found on the copy by the
    unblocked loop, forward only, on a slice of at most 2 PANEL of its rows
    nonzero there, so the cost per pivot does not grow with the row count;
    the slice's row exchanges are applied at once, and the slice keeps the
    packed LU of its pivot block A, from which `_normalize` inverts A.
    Columns independent on some rows are independent on all, so these
    pivots belong to the column rank profile.  While other rows are still
    nonzero in the panel, they lose the slice's normalised pivot rows on
    the copy, and the next slice is factored: its pivots may lie left of
    the first ones, and its LU is that of the Schur complement S of the
    pivot rows found so far.  On `a` this is block Gauss-Jordan over the
    panel's pivot rows: the earlier pivot rows H are normalised; the next
    slice's rows x lose x[J] H, become S^-1 times themselves, and H loses
    H[J'] times them, J' their pivot columns.  The forward pass, enough for
    the rank, updates only the rows below each panel's pivots.  The RREF
    then clears the rows above, panel by panel, unless it is the identity
    over zero rows.  The rows stay in panel order, where a slice's pivots
    need not ascend.
    """
    rows, cols = a.shape
    if cols <= NARROW:
        return _rref_narrow(a, p, reduced=reduced)
    panels, r = [], 0   # (first pivot row, first column, pivots in panel)
    for c0 in range(0, cols, PANEL):
        if r >= rows:
            break
        panel = _center(a[r:, c0:c0 + PANEL].copy(), p)
        found, k = [], 0
        while True:
            live = (k + np.flatnonzero(panel[k:].any(axis=1))).tolist()
            if not live:
                break
            swaps = []
            lu = panel[live[:2 * PANEL]].astype(np.int64)
            new = _rref_narrow(lu, p, swaps, reduced=False)
            # the slice's exchanges, then those moving its pivot rows up to
            # k, k + 1, ... (live ascends), composed: row at[i] ends at i
            at = {}
            for i, j in [(live[i], live[j]) for i, j in swaps] + [
                    (k + t, live[t]) for t in range(len(new))]:
                at[i], at[j] = at.get(j, j), at.get(i, i)
            for x in (panel, a[r:, c0:]):
                x[list(at)] = x[list(at.values())]
            head = a[r + k:r + k + len(new), c0:]
            if k:
                _eliminate(a, p, r + k, r + k + len(new), c0, found,
                           a[r:r + k, c0:])
            _normalize(head, lu[:len(new), new], p)
            if k:
                _eliminate(a, p, r, r + k, c0, new, head)
                _center(a[r:r + k, c0:], p)
            found += new
            k += len(new)
            if len(live) <= 2 * PANEL or k == panel.shape[1]:
                break
            _eliminate(panel, p, k, len(panel), 0, new, head[:, :PANEL])
            _center(panel[k:], p)
        if not found:
            continue
        _eliminate(a, p, r + k, rows, c0, found, a[r:r + k, c0:])
        panels.append((r, c0, found))
        r += k
    pivots = [c0 + c for _, c0, found in panels for c in found]
    if reduced and len(pivots) == cols:
        a[:] = 0
        np.fill_diagonal(a, 1)
        pivots.sort()
    elif reduced:
        for r, c0, found in panels:
            _eliminate(a, p, 0, r, c0, found, a[r:r + len(found), c0:])
    return pivots


def _normalize(head, lu, p):
    """Pivot rows `head` become A^-1 times themselves, centred, in place,
    given the packed LU of A (A = L D^-1 U as `_rref_narrow` leaves it).
    A^-1 = U1^-1 D^-1 L1^-1 for the unit triangular L1 = L D^-1 and
    U1 = D^-1 U: D^-1 takes a modular inverse per pivot, and each
    (I + N)^-1 is the product (I - N)(I + N^2)(I + N^4)..., centred after
    every product: ceil(log2 k) - 1 doublings for both factors at once, U1
    transposed to lower.  This runs in float64, exact since
    k (p + 1)**2 / 4 <= PANEL 2**38 < 2**53."""
    k = len(lu)
    lu = lu % p
    d = np.array([pow(int(x), p - 2, p) for x in np.diagonal(lu)])
    n = _center(np.stack([np.tril(lu, -1) * d, np.tril(lu.T, -1) * d])
                .astype(np.float64), p)
    inv, power = np.eye(k) - n, n
    for _ in range(1, (k - 1).bit_length()):
        power = _center(power @ power, p)
        inv = _center(inv + inv @ power, p)
    inv = _center(_center(inv[1].T * d, p) @ inv[0], p)
    _center(head, p)
    head[:] = _center(inv.astype(head.dtype) @ head, p)


def _eliminate(a, p, start, stop, c0, found, pivot_rows):
    """Rows start .. stop - 1 of `a` lose x[J] times the normalized pivot
    rows of one panel (columns c0 on, pivot columns c0 + J), strip by
    strip; only the multipliers x[J] are reduced."""
    for s in range(start, stop, PRODUCT_ROWS):
        strip = a[s:min(s + PRODUCT_ROWS, stop), c0:]
        strip -= _center(strip[:, found], p) @ pivot_rows


def _reduced_copy(a, p):
    """`a` mod p in a new array, strip by strip: past NARROW columns float32
    for p <= SINGLE and float64 otherwise, else int64; ValueError for
    p >= MAX_PRIME or cols > WIDEST."""
    _check_prime(p)
    a = np.asarray(a, dtype=np.int64)
    if a.shape[-1] > WIDEST:
        raise ValueError(f"{a.shape[-1]} columns: too wide for the mod-p kernels")
    out = np.empty(a.shape, np.int64 if a.shape[-1] <= NARROW
                   else np.float32 if p <= SINGLE else np.float64)
    for s in range(0, len(a), STRIP):
        np.remainder(a[s:s + STRIP], p, out=out[s:s + STRIP])
    return out


def rref_mod(a, p):
    """RREF of a copy of `a` mod p. Returns (rref matrix, pivot columns)."""
    a = _reduced_copy(a, p)
    pivots = _rref_inplace(a, p) if a.size else []
    out = np.zeros(a.shape, np.int64)
    np.remainder(a[np.argsort(pivots)], p, out=out[:len(pivots)],
                 casting="unsafe")
    return out, sorted(pivots)


def rank_mod(a, p):
    """Rank of `a` mod p, by forward elimination only."""
    a = _reduced_copy(a, p)
    return len(_rref_inplace(a, p, reduced=False)) if a.size else 0


def kernel_mod(a, p):
    """Basis of the right kernel of `a` mod p, as rows of a (k, cols) int64
    array, read from the RREF's free columns without reducing the rest.

    The basis is canonical: for each free column f the vector has 1 at f,
    the solved pivot entries elsewhere, and free columns are taken in
    increasing order.
    """
    a = _reduced_copy(a, p)
    pivots = _rref_inplace(a, p) if a.size else []
    free = np.ones(a.shape[1], dtype=bool)
    free[pivots] = False
    free = np.flatnonzero(free)
    basis = np.zeros((len(free), a.shape[1]), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = np.remainder(-a[:len(pivots), free].T, p)
    return basis


def in_rowspace_mod(rref, pivots, v, p):
    """Whether row vector v lies in the span of an RREF row basis mod p."""
    # the RREF is the identity on its k pivot columns, so v lies in the span
    # exactly when v = v[pivots] rref: one product, below k p**2 in int64
    v = np.asarray(v, dtype=np.int64) % p
    return not ((v - v[pivots] @ rref[:len(pivots)]) % p).any()


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
