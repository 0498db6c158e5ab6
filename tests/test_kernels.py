import random
from fractions import Fraction

import numpy as np
import pytest

from kleinwiman import kernels, linalg
from kleinwiman.errors import FieldError
from kleinwiman.fields import PrimeField, RationalField
from kleinwiman.linalg import (kernel_certified, kernel_field, kernel_rational,
                               rref_field)
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
    """Matrices just wider than NARROW, so three panels, the last narrow,
    against generic elimination over F_p: a panel with no pivot, a
    rank-deficient panel, fewer rows than a slice, and rows that run out
    before the columns do."""
    rng = np.random.default_rng(46)
    w, n = kernels.PANEL, kernels.NARROW + 5
    for p in (7, 4733):
        a = rng.integers(0, p, (w + 8, n)).astype(np.int64)
        _assert_matches_field_rref(a, p)
        zero_panel = a.copy()
        zero_panel[:, :w] = 0
        _assert_matches_field_rref(zero_panel, p)
        deficient = a.copy()   # rank 3 on the first panel
        deficient[:, :w] = (rng.integers(0, p, (w + 8, 3))
                            @ rng.integers(0, p, (3, w))) % p
        _assert_matches_field_rref(deficient, p)
        _assert_matches_field_rref(a[: w // 2], p)
        low_rank = (rng.integers(0, p, (2 * w + 3, w // 2))
                    @ rng.integers(0, p, (w // 2, n))) % p
        _assert_matches_field_rref(low_rank, p)


def test_blocked_rref_slices():
    """Each panel's pivots are found on slices of at most 2 PANEL rows that
    are nonzero in it.  A slice that is rank-deficient on its panel while
    later rows complete it: the next slice adds pivots left of the first
    ones, and the RREF permutes its rows into pivot order.  A panel that is
    zero in its top rows but not below them: the slice is taken from below,
    and its rows move up."""
    rng = np.random.default_rng(51)
    w, n = kernels.PANEL, kernels.NARROW + 5
    for p in (7, 4733):
        basis = rng.integers(0, p, (4, n))
        basis[:, :3] = 0     # the first 2 PANEL rows leave columns 0 .. 2
        top = rng.integers(0, p, (2 * w, 4)) @ basis % p
        a = np.vstack([top, rng.integers(0, p, (5, n))]).astype(np.int64)
        _assert_matches_field_rref(a, p)
        assert kernels.rref_mod(a, p)[1][:3] == [0, 1, 2]
        low = np.zeros((2 * w + 6, n), dtype=np.int64)
        low[:, w:] = rng.integers(0, p, (2 * w + 6, n - w))
        low[-6:, :w] = rng.integers(0, p, (6, w))
        _assert_matches_field_rref(low, p)


def test_blocked_rref_largest_prime():
    """p = 1048573, the largest prime below MAX_PRIME, with a full-width
    panel of entries near p: the float64 products sit closest to 2**53,
    k (p - 1)**2 < 2**53 with k = PANEL pivots."""
    p = 1048573
    assert p < kernels.MAX_PRIME
    assert kernels.PANEL * (p - 1) ** 2 < 2 ** 53
    rng = np.random.default_rng(47)
    w = kernels.PANEL
    a = rng.integers(p - 50, p, (2 * w + 7, kernels.NARROW + 5)).astype(np.int64)
    _assert_matches_field_rref(a, p)
    # the unblocked loop's widest matrix: NARROW pivots accumulate the
    # largest unreduced values, and a panel (PANEL <= NARROW) no more
    a = rng.integers(p - 50, p, (kernels.NARROW + 7, kernels.NARROW)).astype(np.int64)
    _assert_matches_field_rref(a, p)


def test_blas_one_thread():
    """Importing kernels sets numpy's OpenBLAS to one thread, read back
    through the same library, or BACKEND says why nothing was pinned."""
    try:
        lib = kernels._openblas()
    except OSError as e:
        assert kernels.BACKEND.endswith(f"BLAS threads not pinned: {e}")
        return
    assert lib.scipy_openblas_get_num_threads64_() == 1
    assert kernels.BACKEND.endswith(", 1 BLAS thread")


@pytest.mark.parametrize("p", [7, 4733, 1048573])
def test_narrow_loop_matches_field_rref(p):
    """The unblocked loop against generic elimination over F_p, at p up to
    the largest prime below MAX_PRIME, on entries in (-p, p] whose top rows
    are multiples of p on the first columns, so that rows are exchanged, and
    a last row in the span of two others.  Reduced, the rows end as the RREF
    in [0, p).  Forward only, the pivots are the same, and after the
    recorded exchanges the first k rows hold, on the k pivot columns, the
    packed LU of their block A of the input: A = L D^-1 U mod p."""
    assert p < kernels.MAX_PRIME
    rng = np.random.default_rng(p)
    for rows, cols in ((9, 7), (30, 40), (60, kernels.NARROW)):
        a = rng.integers(1 - p, p + 1, (rows, cols))
        a[:rows // 2, :3] = p * rng.integers(-1, 2, (rows // 2, 3))
        a[-1] = (a[0] + 2 * a[-2]) % p
        m, pivots = rref_field((a % p).tolist(), PrimeField(p))
        r = a.copy()
        assert kernels._rref_narrow(r, p) == pivots
        assert np.array_equal(r, np.array(m, dtype=np.int64))
        assert kernels._rref_narrow(a.copy(), p, reduced=False) == pivots
        lu, swaps = a.copy(), []
        assert kernels._rref_narrow(lu, p, swaps, reduced=False) == pivots
        assert swaps and all(i < j for i, j in swaps)
        moved = a.copy()
        for i, j in swaps:
            moved[[i, j]] = moved[[j, i]]
        k = len(pivots)
        block = (lu[:k, pivots] % p).astype(object)
        d_inv = [pow(int(x), p - 2, p) for x in np.diagonal(block)]
        product = (np.tril(block) * d_inv) @ np.triu(block)
        assert not ((product - moved[:k, pivots].astype(object)) % p).any()


def test_empty_matrices():
    for shape in ((0, 5), (5, 0), (0, 0), (0, 3 * kernels.PANEL)):
        a = np.zeros(shape, dtype=np.int64)
        r, pivots = kernels.rref_mod(a, 7)
        assert pivots == [] and r.shape == shape
        assert kernels.rank_mod(a, 7) == 0


def test_rank_mod_tall():
    """rank_mod against the pivot count of the RREF: tall matrices of full
    column rank and products of random factors of lower rank, with rows
    from just below the column count to more than two strips, a zero
    column, and matrices up to NARROW columns wide and wider."""
    rng = np.random.default_rng(49)
    largest = 1048573
    assert largest < kernels.MAX_PRIME
    for p in (7, 4733, 4951, largest):
        for cols in (1, 6, 30, kernels.NARROW + 5):
            k = cols + 8
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
    # entries near p over many rows: column 2 is the sum of columns 0 and
    # 1, so the rank is 2
    p = largest
    a = rng.integers(p - 50, p, (40000, 3))
    a[:, 2] = (a[:, 0] + a[:, 1]) % p
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
                expected = len(rref_field(rows + [vec.tolist()], field)[1]) \
                    == len(pivots)
                assert linalg.in_rowspace(reduced, pivots, vec, field) == expected
        if nrows == 0:
            assert linalg.kernel([], ncols, field).tolist() \
                == np.eye(ncols, dtype=np.int64).tolist()


@pytest.mark.parametrize("fixture", ["klein_exact", "wiman_exact"])
def test_in_rowspace_exact(request, fixture):
    """linalg.in_rowspace over Q(zeta7) and Q(sqrt5, omega) against the rank
    of the stacked matrix: combinations of random rows, random vectors and
    the zero vector, for rank-deficient spans and the empty RREF, and a
    combination moved at one non-pivot column only, which leaves the span."""
    field = request.getfixturevalue(fixture)
    rng = random.Random(fixture)

    def element():
        if rng.random() < 0.4:
            return field.zero
        return field.coerce(tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                                  for _ in range(field.deg)))

    def combination(rows, ncols):
        out = [field.zero] * ncols
        for row in rows:
            c = element()
            out = [field.add(a, field.mul(c, b)) for a, b in zip(out, row)]
        return out

    for nrows, ncols in ((0, 4), (3, 7), (5, 5), (6, 10)):
        rows = [[element() for _ in range(ncols)] for _ in range(nrows)]
        if nrows >= 2:
            rows[-1] = combination(rows[:2], ncols)
        reduced, pivots = linalg.rref(rows, ncols, field)
        free = [j for j in range(ncols) if j not in pivots]
        inside = combination(rows, ncols)
        moved = list(inside)
        moved[free[-1]] = field.add(moved[free[-1]], field.one)
        zero = [field.zero] * ncols
        for vec in (inside, [element() for _ in range(ncols)], zero, moved):
            expected = linalg.rank(rows + [vec], ncols, field) == len(pivots)
            assert linalg.in_rowspace(reduced, pivots, vec, field) == expected
        assert linalg.in_rowspace(reduced, pivots, inside, field)
        assert linalg.in_rowspace(reduced, pivots, zero, field)
        assert not linalg.in_rowspace(reduced, pivots, moved, field)


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
    assert len(rref_field(rows, q)[1]) == 2
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
        < len(rref_field(rank_drop, q)[1])
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


def test_width_cap():
    """A matrix wider than WIDEST is refused before any work is done."""
    wide = np.zeros((1, kernels.WIDEST + 1), dtype=np.int64)
    for f in (kernels.rref_mod, kernels.rank_mod, kernels.kernel_mod):
        with pytest.raises(ValueError):
            f(wide, 7)
    assert kernels.rank_mod(wide[:, 1:] + 1, 7) == 1


def _center_values(p, top, limit):
    """Multiples of p, p +- 1, negative values, and values near `top`, the
    largest entry a bound allows, and near `limit`, the bound itself."""
    rng = random.Random(p)
    near = [top - i for i in range(50)] + [limit - 1 - i for i in range(50)]
    near += [rng.randrange(top - min(10 ** 9, top // 2), top) for _ in range(200)]
    multiples = [k * p for k in (0, 1, 2, 3, 10 ** 3, (limit - 1) // p,
                                 top // p, top // p - 1)]
    values = multiples + [p - 1, p + 1, 2 * p - 1, 2 * p + 1, (p - 1) // 2,
                          (p + 1) // 2, (p + 3) // 2] + near
    values += [m + (p - 1) // 2 + e for m in multiples for e in (0, 1)]
    return values + [-x for x in values]


@pytest.mark.parametrize("p", [7, 61, 4733, 1048573])
def test_center(p):
    """Centring returns an integer congruent to x with |r| <= (p + 1)/2, and
    0 exactly for multiples of p: multiples of p, p +- 1, negative values,
    and values near the largest entry the WIDEST bound allows; in float32
    for p <= SINGLE, up to the float32 bound 2**23."""
    top = kernels.MAX_PRIME + kernels.WIDEST * kernels.MAX_PRIME ** 2 // 4
    assert top < 2 ** 52
    cases = [(np.float64, _center_values(p, top, 2 ** 52))]
    if p <= kernels.SINGLE:
        top = kernels.SINGLE + kernels.WIDEST * (kernels.SINGLE + 1) ** 2 // 4
        assert top < 2 ** 23
        cases.append((np.float32, _center_values(p, top, 2 ** 23)))
    for dtype, values in cases:
        r = kernels._center(np.array(values, dtype=dtype), p)
        assert r.dtype == dtype
        for x, y in zip(values, r.tolist()):
            assert y == int(y) and (x - int(y)) % p == 0, (x, y)
            assert abs(y) <= (p + 1) // 2 and (y == 0) == (x % p == 0), (x, y)


def test_delayed_reduction_stress():
    """p = 1048573, entries near p, eleven panels and more than STRIP rows,
    at full column rank and at a known lower rank (a product of random
    factors).  Beyond the ranks: every kernel_mod row v has A v = 0 mod p in
    Python ints; rref_mod returns int64 entries in [0, p), zero below the
    rank, the identity on the pivot columns, and A is A[:, J] times it."""
    p = 1048573
    rng = np.random.default_rng(52)
    n = 10 * kernels.PANEL + 10
    assert n > kernels.NARROW and n + 40 > kernels.STRIP
    full = rng.integers(p - 50, p, (n + 40, n))
    rank = n - 12
    assert n * (p - 1) ** 2 < 2 ** 53     # float64 products below are exact

    def product(x, y):
        return (x.astype(np.float64) @ y.astype(np.float64) % p).astype(np.int64)

    low = product(rng.integers(p - 50, p, (n + 40, rank)),
                  rng.integers(p - 50, p, (rank, n)))
    for a, want in ((full, n), (low, rank)):
        assert kernels.rank_mod(a, p) == want
        r, pivots = kernels.rref_mod(a, p)
        assert len(pivots) == want and r.dtype == np.int64
        assert r.min() >= 0 and r.max() < p and not r[want:].any()
        assert np.array_equal(r[:want, pivots], np.eye(want, dtype=np.int64))
        assert np.array_equal(product(a[:, pivots], r[:want]), a)
        k = kernels.kernel_mod(a, p)
        assert k.shape == (n - want, n) and k.dtype == np.int64
        if len(k):
            assert not (a.astype(object) @ k.T.astype(object) % p).any()


@pytest.mark.parametrize("p", [61, 67])
def test_float32_stress(p):
    """p = 61, the largest prime with a float32 working copy, and p = 67, the
    first with a float64 one: several panels, more than 2 PANEL rows nonzero
    in each, the first 2 PANEL of rank 20, so that panels are factored in
    several slices; at full column rank and at a known lower rank.  Every
    kernel_mod row v has A v = 0 mod p in Python ints; rref_mod returns
    int64 entries in [0, p), and A is A[:, J] times its rows."""
    rng = np.random.default_rng(p)
    w, n = kernels.PANEL, 5 * kernels.PANEL + 10
    wide = np.zeros((1, n), dtype=np.int64)
    assert kernels._reduced_copy(wide, p).dtype \
        == (np.float32 if p <= kernels.SINGLE else np.float64)
    assert kernels._reduced_copy(wide[:, :kernels.NARROW], p).dtype == np.int64
    rank = n - 12
    # rows mix random rows of the factor; the first 2 PANEL + 5 only its
    # first 20
    left = rng.integers(0, p, (n + 2 * w + 40, n))
    left[:2 * w + 5, 20:] = 0
    full = (left @ rng.integers(0, p, (n, n)) % p)
    low = (left[:, :rank] @ rng.integers(0, p, (rank, n)) % p)
    for a, want in ((full, n), (low, rank)):
        assert kernels.rank_mod(a, p) == want
        r, pivots = kernels.rref_mod(a, p)
        assert len(pivots) == want and r.dtype == np.int64
        assert r.min() >= 0 and r.max() < p and not r[want:].any()
        assert np.array_equal(r[:want, pivots], np.eye(want, dtype=np.int64))
        assert not ((a[:, pivots] @ r[:want] - a) % p).any()
        k = kernels.kernel_mod(a, p)
        assert k.shape == (n - want, n) and k.dtype == np.int64
        if len(k):
            assert not (a.astype(object) @ k.T.astype(object) % p).any()


@pytest.mark.parametrize("p", [7, 4733, 1048573])
def test_lu_inverse(p):
    """_normalize inverts A from the packed LU the forward loop leaves:
    random A with nonzero leading minors, so no exchanges, k up to PANEL;
    A^-1 A = I mod p in Python ints, for the float32 rows of p <= SINGLE
    as for float64 ones."""
    rng = random.Random(p)
    for k in (1, 2, 33, kernels.PANEL):
        lower = [[int(i == j) if j >= i else rng.randrange(p)
                  for j in range(k)] for i in range(k)]
        upper = [[rng.randrange(1, p) if i == j else rng.randrange(p) * (i < j)
                  for j in range(k)] for i in range(k)]
        a = np.array(lower, dtype=object) @ np.array(upper, dtype=object) % p
        lu, swaps = a.astype(np.int64), []
        pivots = kernels._rref_narrow(lu, p, swaps, reduced=False)
        assert pivots == list(range(k)) and swaps == []
        dtypes = [np.float64] + [np.float32] * (p <= kernels.SINGLE)
        for dtype in dtypes:
            inv = np.eye(k, dtype=dtype)
            kernels._normalize(inv, lu, p)
            assert inv.dtype == dtype
            inv = inv.astype(np.int64).astype(object)
            assert not ((inv @ a - np.eye(k, dtype=np.int64)) % p).any()


def test_blocked_rref_several_slices(monkeypatch):
    """A panel factored in three slices, counted by a wrapper on the forward
    loop: the first 2 PANEL rows are of rank 4 on the panel, the next 2
    PANEL add four more, and the last 60 rows complete it; the second
    panel needs one slice, for what is left of them.  The RREF and then the
    rank each factor these four slices.  Against generic elimination over
    F_p, for a float32 and a float64 working copy."""
    slices = []
    narrow = kernels._rref_narrow

    def counting(a, p, swaps=None, reduced=True):
        pivots = narrow(a, p, swaps, reduced)
        if swaps is not None:
            slices.append(len(pivots))
        return pivots

    monkeypatch.setattr(kernels, "_rref_narrow", counting)
    rng = np.random.default_rng(54)
    w, n = kernels.PANEL, kernels.NARROW + 5
    for p in (7, 4733):
        basis = rng.integers(0, p, (8, n))
        top, mid = rng.integers(0, p, (2, 2 * w, 8))
        top[:, 4:] = 0
        top[:, 0] = mid[:, 4] = 1      # no row of either is zero
        a = np.vstack([top @ basis % p, mid @ basis % p,
                       rng.integers(0, p, (60, n))]).astype(np.int64)
        slices.clear()
        _assert_matches_field_rref(a, p)
        assert slices == [4, 4, w - 8, 4] * 2, slices


def test_inputs_unchanged():
    """rank_mod, rref_mod and kernel_mod work on copies: int64 input of
    either route (narrow and blocked), tall and wide, with entries outside
    [0, p), and a list of rows."""
    rng = np.random.default_rng(53)
    p = 4733
    shapes = [(30, 20), (400, 20), (200, kernels.NARROW + 40), (70, 3 * kernels.PANEL)]
    for shape in shapes:
        a = rng.integers(-3 * p, 3 * p, shape)
        rows = a.tolist()
        for f in (kernels.rank_mod, kernels.rref_mod, kernels.kernel_mod):
            for given in (a, rows):
                before = np.array(given, copy=True)
                f(given, p)
                assert np.array_equal(np.asarray(given), before)
