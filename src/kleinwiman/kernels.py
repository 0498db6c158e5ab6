"""Mod-p linear algebra and truncated polynomial kernels on int64 numpy arrays."""

import numpy as np

# p**2 * (matrix dimension or m**2) must stay below 2**63 for the int64
# accumulation; every preset prime is tiny compared to this.
MAX_PRIME = 1 << 20


def _check_prime(p):
    if p >= MAX_PRIME:
        raise ValueError(f"prime {p} too large for the mod-p kernels")


def _rref_inplace(a, p):
    """Reduce `a` (int64 2D array) to reduced row echelon form mod p, in place.

    Returns the list of pivot column indices; the rank is its length.
    Non-pivot rows accumulate unreduced values between periodic cleanups
    (sound for p < 2**20: magnitudes stay below 1024 * p**2 < 2**62).
    """
    rows, cols = a.shape
    pivots = []
    r = 0
    since_cleanup = 0
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
        since_cleanup += 1
        if since_cleanup >= 1024:
            since_cleanup = 0
            a %= p
    a %= p
    return pivots


def rref_mod(a, p):
    """RREF of a copy of `a` mod p. Returns (rref matrix, pivot columns)."""
    _check_prime(p)
    a = np.ascontiguousarray(np.asarray(a, dtype=np.int64) % p)
    if a.size == 0:
        return a, []
    return a, _rref_inplace(a, p)


def rank_mod(a, p):
    return len(rref_mod(a, p)[1])


def kernel_mod(a, p):
    """Basis of the right kernel of `a` mod p, as rows of a (k, cols) array.

    The basis is canonical: for each free column f the vector has 1 at f,
    the solved pivot entries elsewhere, and free columns are taken in
    increasing order.
    """
    a = np.asarray(a, dtype=np.int64)
    cols = a.shape[1]
    r, pivots = rref_mod(a, p)
    pivset = set(pivots)
    free = [c for c in range(cols) if c not in pivset]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for k, f in enumerate(free):
        basis[k, f] = 1
        for i, c in enumerate(pivots):
            basis[k, c] = (-r[i, f]) % p
    return basis


def reduce_mod(rref, pivots, v, p):
    """Reduce row vector v against an RREF row basis; returns the residual."""
    v = np.asarray(v, dtype=np.int64) % p
    for i, c in enumerate(pivots):
        if v[c]:
            v = (v - v[c] * rref[i]) % p
    return v


def in_rowspace_mod(rref, pivots, v, p):
    return not np.any(reduce_mod(rref, pivots, v, p))


def trunc_mul_mod(a, b, p):
    """Multiply truncated bivariate polynomials mod p.

    a, b are (m, m) int64 arrays; entry [i, j] is the coefficient of x^i y^j,
    zero whenever i + j >= m.  Returns the product truncated the same way.
    Accumulates full int64 products, so p**2 * m**2 must stay below 2**63.
    """
    _check_prime(p)
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    m = a.shape[0]
    out = np.zeros((m, m), dtype=np.int64)
    for i, j in zip(*np.nonzero(a)):
        out[i:, j:] += a[i, j] * b[: m - i, : m - j]
    out %= p
    for i in range(m):
        out[i, m - i:] = 0
    return out
