import random
from fractions import Fraction

import numpy as np
import pytest

from kleinwiman import kernels, linalg
from kleinwiman.errors import FieldError
from kleinwiman.fields import PrimeField, RationalField
from kleinwiman.linalg import (kernel_certified, kernel_field, kernel_rational,
                               rank_field, rref_field)
from kleinwiman.poly import TruncPoly


def test_rref_mod_matches_field_rref():
    """Pivots and reduced matrix agree with generic elimination over F_p."""
    rng = np.random.default_rng(42)
    for _ in range(40):
        p = int(rng.choice([7, 4733, 4951]))
        rows = int(rng.integers(1, 25))
        cols = int(rng.integers(1, 25))
        a = rng.integers(0, p, (rows, cols)).astype(np.int64)
        if rng.random() < 0.5:   # rank-deficient: repeat a combination of rows
            a[-1] = (3 * a[0] + 5 * a[rows // 2]) % p
        r, pivots = kernels.rref_mod(a, p)
        m, field_pivots = rref_field(a.tolist(), PrimeField(p))
        assert pivots == field_pivots
        assert np.array_equal(r, np.array(m, dtype=np.int64))


def _assert_matches_field_rref(a, p):
    r, pivots = kernels.rref_mod(a, p)
    m, field_pivots = rref_field(a.tolist(), PrimeField(p))
    assert pivots == field_pivots
    assert np.array_equal(r, np.array(m, dtype=np.int64).reshape(a.shape))
    assert kernels.rank_mod(a, p) == len(pivots)


def test_blocked_rref_matches_field_rref():
    """Matrices several panels wide, against generic elimination over F_p:
    a panel with no pivot, a rank-deficient panel, and rows that run out
    before the columns do."""
    rng = np.random.default_rng(46)
    w = kernels.PANEL
    for p in (7, 4733):
        a = rng.integers(0, p, (3 * w, 3 * w + 5)).astype(np.int64)
        _assert_matches_field_rref(a, p)
        zero_panel = a.copy()
        zero_panel[:, w:2 * w] = 0
        _assert_matches_field_rref(zero_panel, p)
        deficient = a.copy()   # rank 3 on the second panel
        deficient[:, w:2 * w] = (rng.integers(0, p, (3 * w, 3))
                                 @ rng.integers(0, p, (3, w))) % p
        _assert_matches_field_rref(deficient, p)
        _assert_matches_field_rref(a[: w // 2], p)
        low_rank = (rng.integers(0, p, (2 * w + 3, w + 1))
                    @ rng.integers(0, p, (w + 1, 4 * w))) % p
        _assert_matches_field_rref(low_rank, p)


def test_blocked_rref_largest_prime():
    """p = 1048573, the largest prime below MAX_PRIME, with full-width
    panels of entries near p: the float64 products sit closest to 2**53."""
    p = 1048573
    assert p < kernels.MAX_PRIME
    rng = np.random.default_rng(47)
    w = kernels.PANEL
    a = rng.integers(p - 50, p, (2 * w + 7, 3 * w)).astype(np.int64)
    _assert_matches_field_rref(a, p)
    # one panel past the unblocked loop's widest matrix, and that width
    # itself: NARROW pivots accumulate the largest unreduced values
    a = rng.integers(p - 50, p, (2 * w + 7, kernels.NARROW + w)).astype(np.int64)
    _assert_matches_field_rref(a, p)
    a = rng.integers(p - 50, p, (kernels.NARROW + 7, kernels.NARROW)).astype(np.int64)
    _assert_matches_field_rref(a, p)


def test_empty_matrices():
    for shape in ((0, 5), (5, 0), (0, 0), (0, 3 * kernels.PANEL)):
        a = np.zeros(shape, dtype=np.int64)
        r, pivots = kernels.rref_mod(a, 7)
        assert pivots == [] and r.shape == shape
        assert kernels.rank_mod(a, 7) == 0


def test_rank_mod_compressed():
    """rank_mod, compressed once rows > max(2 k, STRIP) for
    k = cols + SKETCH_EXTRA, against the pivot count of the RREF: tall
    matrices of full column rank and products of random factors of lower
    rank, with rows just below, at and above k and that bound and more
    than two strips, a zero column, and each of the blocked and the
    unblocked route for S A."""
    rng = np.random.default_rng(49)
    largest = 1048573
    assert largest < kernels.MAX_PRIME
    for p in (7, 4733, 4951, largest):
        for cols in (1, 6, 30, kernels.NARROW + 5):
            k = cols + kernels.SKETCH_EXTRA
            bound = max(2 * k, kernels.STRIP)
            for rows in (k - 1, k, k + 1, bound, bound + 1,
                         bound + kernels.STRIP + 3):
                cases = [rng.integers(0, p, (rows, cols))]
                for rank in {0, 1, cols // 2, cols - 1} - {cols}:
                    cases.append(rng.integers(0, p, (rows, rank))
                                 @ rng.integers(0, p, (rank, cols)) % p)
                zero_col = rng.integers(0, p, (rows, cols))
                zero_col[:, cols // 2] = 0
                cases.append(zero_col)
                for a in cases:
                    a = a.astype(np.int64)
                    want = len(kernels.rref_mod(a, p)[1])
                    assert kernels.rank_mod(a, p) == want, (p, rows, cols)
    # entries near p and enough rows that S A is exact only when each strip
    # is reduced (unreduced, its entries would reach about rows * p**2 / 2):
    # column 2 is the sum of columns 0 and 1, so the rank is 2
    p = largest
    a = rng.integers(p - 50, p, (40000, 3))
    a[:, 2] = (a[:, 0] + a[:, 1]) % p
    assert len(a) * p ** 2 // 2 > 2 ** 54
    assert kernels.rank_mod(a, p) == len(kernels.rref_mod(a, p)[1]) == 2


def test_rref_mod_periodic_cleanup():
    """More than 1024 pivots, across dozens of panels: a full-rank square
    matrix must reduce to the identity."""
    n, p = 1030, 4733
    a = np.random.default_rng(45).integers(0, p, (n, n)).astype(np.int64)
    r, pivots = kernels.rref_mod(a, p)
    assert pivots == list(range(n))
    assert np.array_equal(r, np.eye(n, dtype=np.int64))


def test_trunc_mul_mod_matches_truncpoly():
    """Row-wise products of one-variable polynomials against TruncPoly on
    (k, 0) terms; the first two shapes are a single line and m = 1."""
    rng = np.random.default_rng(43)
    shapes = [(1, 9), (6, 1)] + [(int(rng.integers(1, 12)), int(rng.integers(2, 16)))
                                 for _ in range(25)]
    for lines, m in shapes:
        p = int(rng.choice([7, 4733]))
        field = PrimeField(p)
        a = rng.integers(0, p, (lines, m)) * (rng.random((lines, m)) < 0.7)
        b = rng.integers(0, p, (lines, m)) * (rng.random((lines, m)) < 0.7)
        expected = np.zeros((lines, m), dtype=np.int64)
        for r in range(lines):
            product = (TruncPoly(field, m, _terms(a[r]))
                       * TruncPoly(field, m, _terms(b[r])))
            for (k, _), c in product.terms.items():
                expected[r, k] = c
        got = kernels.trunc_mul_mod(a.astype(np.int64), b.astype(np.int64), p)
        assert got.dtype == np.int64 and np.array_equal(got, expected)
    # leading batch axes, and operands that broadcast against each other
    pairs = [((4, 3, 6), (4, 3, 6)), ((5, 2, 7), (2, 7)), ((3, 7), (6, 3, 7)),
             ((2, 1, 4, 5), (3, 4, 5)), ((4, 1, 8), (1, 3, 8)), ((3, 2, 1), (2, 1))]
    for sa, sb in pairs:
        p = int(rng.choice([7, 4733]))
        field = PrimeField(p)
        a = rng.integers(0, p, sa) * (rng.random(sa) < 0.7)
        b = rng.integers(0, p, sb) * (rng.random(sb) < 0.7)
        got = kernels.trunc_mul_mod(a.astype(np.int64), b.astype(np.int64), p)
        shape = np.broadcast_shapes(sa, sb)
        assert got.dtype == np.int64 and got.shape == shape
        a, b = np.broadcast_to(a, shape), np.broadcast_to(b, shape)
        m = shape[-1]
        for idx in np.ndindex(shape[:-1]):
            product = (TruncPoly(field, m, _terms(a[idx]))
                       * TruncPoly(field, m, _terms(b[idx])))
            expected = np.zeros(m, dtype=np.int64)
            for (k, _), c in product.terms.items():
                expected[k] = c
            assert np.array_equal(got[idx], expected)


def _terms(row):
    return {(int(k), 0): int(row[k]) for k in np.flatnonzero(row)}


def test_kernel_mod_is_kernel():
    rng = np.random.default_rng(44)
    for _ in range(20):
        p = 4733
        a = rng.integers(0, p, (rng.integers(1, 20), rng.integers(1, 20)))
        a = a.astype(np.int64)
        k = kernels.kernel_mod(a, p)
        assert k.shape[0] == a.shape[1] - kernels.rank_mod(a, p)
        if k.size:
            assert not np.any(a @ k.T % p)


def test_rowspace_membership_mod():
    p = 7
    a = np.array([[1, 2, 3], [2, 4, 6], [0, 1, 1]], dtype=np.int64)
    r, piv = kernels.rref_mod(a, p)
    assert kernels.in_rowspace_mod(r, piv, np.array([1, 3, 4]), p)
    assert not kernels.in_rowspace_mod(r, piv, np.array([0, 0, 1]), p)


@pytest.mark.parametrize("p", [7, 4733])
def test_linalg_entry_points_prime_field(p):
    """linalg.kernel/rank/rref/in_rowspace over F_p against generic
    elimination over the same field: zero rows, zero columns, full rank and
    rank-deficient matrices, given as lists or as int64 arrays."""
    field = PrimeField(p)
    rng = np.random.default_rng(p)
    for nrows, ncols in ((0, 5), (4, 0), (0, 0), (6, 9), (9, 6), (12, 40)):
        for deficient in (False, True):
            a = rng.integers(0, p, (nrows, ncols)).astype(np.int64)
            if deficient and nrows >= 2:
                a[-1] = (2 * a[0] + 3 * a[1]) % p
            rows = a.tolist()
            oracle, oracle_pivots = rref_field(rows, field)
            for given in (rows, a):
                reduced, pivots = linalg.rref(given, ncols, field)
                assert pivots == oracle_pivots
                assert reduced.tolist() == oracle[:len(pivots)]
                assert linalg.rank(given, ncols, field) == len(pivots)
                assert linalg.kernel(given, ncols, field).tolist() \
                    == kernel_field(rows, ncols, field)
            inside = rng.integers(0, p, nrows) @ a % p
            outside = rng.integers(0, p, ncols)
            for vec in (inside, outside):
                expected = rank_field(rows + [vec.tolist()], field) == len(pivots)
                assert linalg.in_rowspace(reduced, pivots, vec, field) == expected
        if nrows == 0:
            assert linalg.kernel([], ncols, field).tolist() \
                == np.eye(ncols, dtype=np.int64).tolist()


def test_linalg_zero_rows_exact():
    q = RationalField()
    assert linalg.kernel([], 3, q) == [[q.one if i == j else q.zero
                                        for j in range(3)] for i in range(3)]
    assert linalg.rank([], 3, q) == 0
    assert linalg.rref([], 3, q) == ([], [])


def test_rational_rref_and_kernel():
    q = RationalField()
    rows = [[q.coerce(v) for v in row]
            for row in [[1, 2, 3], [4, 5, 6], [7, 8, 9]]]
    assert rank_field(rows, q) == 2
    k = kernel_field(rows, 3, q)
    assert len(k) == 1
    for row in rows:
        assert q.is_zero(q.sum([q.mul(a, b) for a, b in zip(row, k[0])]))


def test_certified_kernel_matches_direct(klein_exact):
    """Sandwich route equals direct elimination over the extension field."""
    f = klein_exact
    w = f.gen
    rows = [
        [f.one, w, f.coerce(2)],
        [f.mul(w, w), f.coerce(3), f.add(w, f.one)],
    ]
    certified = kernel_certified(rows, 3, f)
    direct = kernel_field(rows, 3, f)
    assert len(certified) == len(direct) == 1
    # both must satisfy the equations
    for v in certified + direct:
        for row in rows:
            assert f.is_zero(f.sum([f.mul(a, b) for a, b in zip(row, v)]))


def test_certified_kernel_full_rank(klein_exact):
    """Full rank at the partner prime ends the certified route early; the
    answer is the empty kernel, as by direct elimination."""
    f = klein_exact
    w = f.gen
    rows = [[f.one, w, f.coerce(2)],
            [f.mul(w, w), f.coerce(3), f.add(w, f.one)],
            [w, f.zero, f.coerce(5)]]
    assert kernel_certified(rows, 3, f) == kernel_field(rows, 3, f) == []


def test_certified_kernel_rational_matrix(klein_exact):
    f = klein_exact
    rows = [[f.coerce(1), f.coerce(2), f.coerce(3)]]
    basis = kernel_certified(rows, 3, f)
    assert len(basis) == 2
    assert basis == kernel_field(rows, 3, f)


def _fallbacks(monkeypatch):
    """Count the kernel_certified calls that fall back to kernel_field."""
    calls = []
    kernel_field_ = linalg.kernel_field

    def counting(rows, ncols, field):
        calls.append(len(rows))
        return kernel_field_(rows, ncols, field)

    monkeypatch.setattr(linalg, "kernel_field", counting)
    return calls


def test_certified_kernel_denominator_at_partner_prime(klein_exact, monkeypatch):
    """An entry whose denominator is the partner prime 4733 has no image
    there: kernel_certified falls back to elimination over the extension."""
    f = klein_exact
    w = f.gen
    rows = [[f.one, f.mul(w, f.coerce(Fraction(1, 4733))), f.coerce(2)],
            [f.coerce(Fraction(3, 4733)), f.coerce(3), f.add(w, f.one)]]
    expected = kernel_field(rows, 3, f)
    fallbacks = _fallbacks(monkeypatch)
    assert kernel_certified(rows, 3, f) == expected and len(expected) == 1
    assert fallbacks == [2]


def _random_extension_element(rng, field):
    """Fractional coordinates, some of them zero; never a rational element."""
    return field.coerce(tuple(
        Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
        if k == 1 or rng.random() < 0.6 else Fraction(0)
        for k in range(field.deg)))


def test_certified_kernel_random_wiman(wiman_exact, monkeypatch):
    """Seeded random matrices over Q(sqrt5, omega) with fractional
    coordinates.  Where some columns are rational combinations of the others
    the kernel has a rational basis and the certificate closes; a generic
    wide matrix has no rational kernel and falls back; a generic square one
    ends at full rank.  Each answer equals kernel_field."""
    f = wiman_exact
    rng = random.Random(50)
    fallbacks = _fallbacks(monkeypatch)
    for case in range(12):
        ncols = rng.randint(2, 6)
        kind = case % 3
        if kind == 0:    # rational kernel of dimension k
            k = rng.randint(1, ncols - 1)
            nrows = rng.randint(ncols - k, ncols + 1)
            rows = [[_random_extension_element(rng, f) for _ in range(ncols - k)]
                    for _ in range(nrows)]
            coeffs = [[Fraction(rng.randint(-5, 5), rng.randint(1, 5))
                       for _ in range(ncols - k)] for _ in range(k)]
            for row in rows:
                row += [f.sum([f.mul(f.embed_rational(c), x) for c, x in zip(cs, row)])
                        for cs in coeffs]
        else:            # generic: wide (no rational kernel) or square
            nrows = rng.randint(1, ncols - 1) if kind == 1 else ncols
            rows = [[_random_extension_element(rng, f) for _ in range(ncols)]
                    for _ in range(nrows)]
        expected = kernel_field(rows, ncols, f)
        before = len(fallbacks)
        assert kernel_certified(rows, ncols, f) == expected
        fell_back = len(fallbacks) > before
        if kind == 0:
            assert not fell_back and len(expected) == k
            assert all(f.coordinates(c)[1:] == f.coordinates(f.zero)[1:]
                       for v in expected for c in v)
        elif kind == 1:
            assert fell_back and len(expected) == ncols - nrows
        else:
            assert not fell_back and expected == []


def _random_rational_rows(rng, nrows, ncols, size):
    return [[Fraction(rng.randint(-size, size), rng.randint(1, size))
             if rng.random() < 0.7 else Fraction(0) for _ in range(ncols)]
            for _ in range(nrows)]


def _fractions(rows):
    return [[Fraction(x) for x in row] for row in rows]


def _primes_used(monkeypatch):
    """Record the prime of every kernels.kernel_mod call."""
    used = []
    kernel_mod = kernels.kernel_mod

    def recording(a, p):
        used.append(p)
        return kernel_mod(a, p)

    monkeypatch.setattr(kernels, "kernel_mod", recording)
    return used


def test_kernel_rational_matches_field():
    """The multimodular kernel equals Fraction Gauss-Jordan over Q on seeded
    random matrices: dependent rows, zero rows, an empty kernel (full
    column rank) and a full kernel (no rows, or only zero rows)."""
    q = RationalField()
    rng = random.Random(48)
    cases = [([], 4), (_fractions([[0] * 5] * 3), 5),
             (_fractions([[1, 2], [3, 4], [5, 7]]), 2)]
    for _ in range(40):
        nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
        rows = _random_rational_rows(rng, nrows, ncols, 9)
        if nrows >= 3 and rng.random() < 0.5:   # a dependent row
            rows[-1] = [2 * a - Fraction(1, 3) * b for a, b in zip(rows[0], rows[1])]
        if rng.random() < 0.3:
            rows.insert(rng.randint(0, nrows), [Fraction(0)] * ncols)
        cases.append((rows, ncols))
    kinds = set()
    for rows, ncols in cases:
        expected = kernel_field(rows, ncols, q)
        assert kernel_rational(rows, ncols) == expected
        assert linalg.kernel(rows, ncols, q) == expected
        kinds.add(0 if not expected else 2 if len(expected) == ncols else 1)
    assert kinds == {0, 1, 2}


def test_kernel_rational_several_primes(monkeypatch):
    """Kernel entries above 2^10 need more than one prime below MAX_PRIME.
    The first one-row case is built so that at the first prime alone the
    entry reconstructs to the wrong 3/5: the exact check rejects it."""
    used = _primes_used(monkeypatch)
    q = RationalField()
    p = next(linalg._primes_below(kernels.MAX_PRIME))
    d = 2 ** 15 + 3
    n = 3 * d * pow(5, -1, p) % p          # n/d = 3/5 mod p
    rng = random.Random(49)
    big = [_fractions([[d, -n]]), _random_rational_rows(rng, 4, 7, 2 ** 13)]
    for rows in big:
        del used[:]
        basis = kernel_rational(rows, len(rows[0]))
        assert basis == kernel_field(rows, len(rows[0]), q) and basis
        assert len(used) > 1 and used[0] == p
        assert any(abs(x.numerator) > 2 ** 10 and x.denominator > 2 ** 10
                   for v in basis for x in v)
    assert kernel_rational(big[0], 2) == [[Fraction(n, d), 1]] != [[Fraction(3, 5), 1]]


def test_kernel_rational_unlucky_first_prime(monkeypatch):
    """An entry equal to the first prime: modulo it the rank drops, or the
    pivots move right, and the next prime's better pivot set restarts the
    combination."""
    used = _primes_used(monkeypatch)
    q = RationalField()
    p = next(linalg._primes_below(kernels.MAX_PRIME))
    rank_drop = _fractions([[1, p, 1], [1, 0, 1]])
    pivots_move = _fractions([[p, 0, 1], [0, 1, 1]])
    assert kernels.rank_mod(np.array([[1, p, 1], [1, 0, 1]]), p) == 1 \
        < rank_field(rank_drop, q)
    for rows in (rank_drop, pivots_move):
        del used[:]
        assert kernel_rational(rows, 3) == kernel_field(rows, 3, q)
        assert used[0] == p and len(used) > 1
    assert kernel_rational(pivots_move, 3) == [[Fraction(-1, p), -1, 1]]


def test_kernel_rational_budget(monkeypatch, klein_exact):
    """With too few primes kernel_rational raises FieldError, and
    kernel_certified falls back to elimination over the extension."""
    monkeypatch.setattr(linalg, "_prime_budget", lambda a, ncols: 1)
    d, n = 2 ** 15 + 3, 2 ** 17 + 1
    with pytest.raises(FieldError):
        kernel_rational([[d, n]], 2)
    f = klein_exact
    rows = [[f.coerce(d), f.coerce(n)]]
    assert kernel_certified(rows, 2, f) == kernel_field(rows, 2, f) \
        == [[f.coerce(Fraction(-n, d)), f.one]]


def test_prime_cap():
    with pytest.raises(ValueError):
        kernels.rref_mod(np.zeros((1, 1), dtype=np.int64), 1 << 21)
