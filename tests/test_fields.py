import math
import random
from fractions import Fraction

import pytest

from kleinwiman.errors import FieldError
from kleinwiman.fields import (PrimeField, RationalField,
                               SimpleExtension, _check_constant_relations,
                               is_irreducible_monic_int, preset_field,
                               tonelli_sqrt)


def test_klein_exact_constants(klein_exact):
    f = klein_exact
    z = f.constant("zeta")
    two = f.coerce(2)
    c = f.sum([f.mul(two, f.pow(z, 4)), f.mul(two, f.pow(z, 2)),
               f.mul(two, z), f.one])
    assert f.mul(c, c) == f.coerce(-7)
    total = f.one
    for k in range(1, 7):
        total = f.add(total, f.pow(z, k))
    assert f.is_zero(total)


def test_mod4733_seventh_root():
    # modular exponentiation oracle for the shipped prime preset
    f = preset_field("klein-mod4733")
    w = f.constant("zeta")
    assert w == 7
    assert pow(7, 7, 4733) == 1
    assert all(pow(7, k, 4733) != 1 for k in range(1, 7))


def test_constant_relation_failure_is_field_error():
    """The named constants are checked by a FieldError, which python -O
    keeps: a zeta of order other than 7 is rejected."""
    f = PrimeField(4733)
    f.constants["zeta"] = 2
    assert pow(2, 7, 4733) != 1
    with pytest.raises(FieldError, match="zeta must have order 7"):
        _check_constant_relations(f)
    f.constants["zeta"] = 7
    _check_constant_relations(f)


def test_wiman_primitive_element_presentation(wiman_exact):
    """Re-derive the quartic presentation from the naive tower and check the
    frozen constants against it."""
    # multiplication table of Q(sqrt5, omega) on the basis (1, d, w, dw)
    def mul(a, b):
        out = [Fraction(0)] * 4
        table = {
            (0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1}, (0, 3): {3: 1},
            (1, 1): {0: 5}, (1, 2): {3: 1}, (1, 3): {2: 5},
            (2, 2): {0: -1, 2: -1}, (2, 3): {1: -1, 3: -1},
            (3, 3): {0: -5, 2: -5},
        }
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                if x and y:
                    for k, c in table[(min(i, j), max(i, j))].items():
                        out[k] += x * y * c
        return out

    t = [Fraction(0), Fraction(1), Fraction(1), Fraction(0)]  # delta + omega
    powers = [[Fraction(1), Fraction(0), Fraction(0), Fraction(0)]]
    for _ in range(4):
        powers.append(mul(powers[-1], t))
    # t^4 = -2 t^3 + 7 t^2 + 8 t - 31
    lhs = powers[4]
    rhs = [(-2) * a + 7 * b + 8 * c + (-31) * d
           for a, b, c, d in zip(powers[3], powers[2], powers[1], powers[0])]
    assert lhs == rhs
    # and the shipped expansions of delta and omega hold in the quotient
    f = wiman_exact
    d = f.constant("delta")
    w = f.constant("omega")
    assert f.mul(d, d) == f.coerce(5)
    assert f.is_zero(f.add(f.add(f.mul(w, w), w), f.one))
    assert f.add(d, w) == f.gen
    s = f.constant("s")
    assert f.mul(s, s) == f.coerce(-15)
    two = f.coerce(2)
    assert f.mul(f.constant("mu1"), two) == f.sub(d, f.one)
    assert f.mul(f.constant("mu2"), two) == f.neg(f.add(f.one, d))


@pytest.mark.parametrize("preset,p", [
    ("klein-exact", None), ("wiman-exact", None),
    ("klein-mod4733", None), ("modp", 4951), ("rational", None)])
def test_field_axioms_random(preset, p):
    f = preset_field(preset, p) if p else preset_field(preset)
    rng = random.Random(20240817)
    add, mul = f.add, f.mul
    vals = [f.coerce(rng.randrange(-20, 20)) for _ in range(12)]
    if f.kind == "extension":
        vals += [add(mul(f.gen, v), f.coerce(rng.randrange(1, 5)))
                 for v in vals[:4]]
    for _ in range(40):
        a, b, c = rng.sample(vals, 3)
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(a, mul(b, c)) == mul(mul(a, b), c)
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        assert add(a, b) == add(b, a) and mul(a, b) == mul(b, a)
        if not f.is_zero(b):
            assert mul(f.div(a, b), b) == a


def test_canonical_form_idempotent(klein_exact, wiman_exact):
    for f in (klein_exact, wiman_exact):
        x = f.coerce((3, 2, 1, 0) + (0,) * (f.deg - 4))
        assert f.coerce(x) == x
        # products reduce fully: degree below the extension degree
        y = f.mul(f.pow(f.gen, f.deg - 1), f.gen)
        assert len(f.coordinates(y)) == f.deg
        assert y == f.coerce(tuple(-c for c in f.minpoly[:-1]))


def test_division_errors(klein_modp, klein_exact, wiman_exact):
    with pytest.raises(ZeroDivisionError):
        klein_modp.div(klein_modp.one, klein_modp.zero)
    with pytest.raises(FieldError):
        klein_exact.coerce(wiman_exact.one)


def test_element_operators(klein_modp):
    f = klein_modp
    a, b = f.coerce(10), f.coerce(4)
    assert f.add(a, b) == 14
    assert f.sub(a, b) == 6
    assert f.mul(a, b) == 40
    assert f.div(a, b) == 10 * pow(4, 4731, 4733) % 4733
    assert f.sub(b, a) == 4733 - 6


def test_modp_missing_roots_reported():
    f = preset_field("modp", 11)  # 11 = 4 mod 7, no 7th root
    assert "zeta" not in f.constants
    with pytest.raises(FieldError):
        f.constant("zeta")


def test_irreducibility_trial_factorization():
    assert is_irreducible_monic_int((1, 1, 1, 1, 1, 1, 1))
    assert is_irreducible_monic_int((31, -8, -7, 2, 1))
    assert is_irreducible_monic_int((15, 0, 1))
    assert not is_irreducible_monic_int((1, 2, 1))          # (x+1)^2
    assert not is_irreducible_monic_int((-1, 0, 0, 0, 0, 0, 1))  # x^6 - 1
    with pytest.raises(FieldError):
        SimpleExtension((1, 2, 1))
    # irreducible over Q though reducible mod every prime
    assert is_irreducible_monic_int((1, 0, 0, 0, 1))            # x^4 + 1
    assert is_irreducible_monic_int((1, 0, -10, 0, 1))          # x^4 - 10x^2 + 1
    # (x^3 - 2)(x^3 - 3): no linear or quadratic factor
    assert not is_irreducible_monic_int((6, 0, 0, -5, 0, 0, 1))
    with pytest.raises(FieldError, match="reducible"):
        SimpleExtension((6, 0, 0, -5, 0, 0, 1))
    assert is_irreducible_monic_int((3, 0, 0, 0, 0, 0, 1))      # x^6 + 3


def _polymul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_irreducibility_against_constructed_families():
    """Answers known without the search: an Eisenstein polynomial at a prime
    is irreducible, and a product of two monic integer polynomials of
    positive degree is reducible."""
    rng = random.Random(13)
    for p in (2, 3, 5):
        for deg in range(2, 7):
            for _ in range(8):
                # p divides every lower coefficient, p^2 not the constant
                coeffs = [p * rng.choice([k for k in range(-4, 5) if k % p])]
                coeffs += [p * rng.randint(-3, 3) for _ in range(deg - 1)]
                assert is_irreducible_monic_int(coeffs + [1]), coeffs
    for _ in range(60):
        k = rng.randint(1, 5)
        g = [rng.randint(-9, 9) for _ in range(k)] + [1]
        h = [rng.randint(-9, 9) for _ in range(rng.randint(1, 6 - k))] + [1]
        assert not is_irreducible_monic_int(_polymul(g, h)), (g, h)


def test_tonelli():
    for p in (7, 4733, 4951, 10007):
        for n in (2, 3, 5, p - 1):
            r = tonelli_sqrt(n, p)
            if r is not None:
                assert r * r % p == n % p


def test_rational_field():
    q = RationalField()
    a = q.coerce(Fraction(2, 3))
    assert q.add(a, a) == Fraction(4, 3)
    assert q.div(a, a) == 1


def test_prime_field_embed_rational():
    f = PrimeField(7)
    assert f.embed_rational(Fraction(1, 2)) == 4
    with pytest.raises(FieldError):
        f.embed_rational(Fraction(1, 7))


def test_non_integral_minimal_polynomial_rejected():
    """x^2 + 1/2 is irreducible; it is refused for its coefficients, not
    reported as reducible."""
    with pytest.raises(FieldError, match="must be integers"):
        SimpleExtension((Fraction(1, 2), 0, 1))
    with pytest.raises(FieldError, match="must be integers"):
        is_irreducible_monic_int((Fraction(1, 2), 0, 1))


class _FractionTuples:
    """Reference arithmetic of Q[g]/(minpoly) on tuples of Fractions in the
    power basis: schoolbook products reduced by the table of g^k, inverses
    by the extended Euclidean algorithm over Q[x]."""

    def __init__(self, field):
        self.field = field
        self.deg = deg = field.deg
        self.minpoly = [Fraction(c) for c in field.minpoly]
        self.zero = (Fraction(0),) * deg
        self.one = (Fraction(1),) + (Fraction(0),) * (deg - 1)
        red = [[-c for c in self.minpoly[:-1]]]
        for _ in range(deg - 2):
            top = red[-1][-1]
            red.append([(red[-1][i - 1] if i else 0) + top * red[0][i]
                        for i in range(deg)])
        self.red = red

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def mul(self, a, b):
        deg = self.deg
        prod = [Fraction(0)] * (2 * deg - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        out = prod[:deg]
        for k in range(deg, 2 * deg - 1):
            for i in range(deg):
                out[i] += prod[k] * self.red[k - deg][i]
        return tuple(out)

    def inv(self, a):
        def trim(p):
            p = list(p)
            while p and p[-1] == 0:
                p.pop()
            return p

        def divmod_(num, den):
            num, quot = list(num), [Fraction(0)] * max(1, len(num) - len(den) + 1)
            for i in range(len(num) - len(den), -1, -1):
                c = num[i + len(den) - 1] / den[-1]
                quot[i] = c
                for j, d in enumerate(den):
                    num[i + j] -= c * d
            return quot, trim(num)

        def sub_mul(t0, q, t1):
            out = [Fraction(0)] * max(len(t0), len(q) + len(t1) - 1)
            for i, c in enumerate(t0):
                out[i] += c
            for i, x in enumerate(q):
                for j, y in enumerate(t1):
                    out[i + j] -= x * y
            return out

        r0, r1 = self.minpoly, trim(a)
        t0, t1 = [Fraction(0)], [Fraction(1)]
        while len(r1) > 1:
            q, r = divmod_(r0, r1)
            r0, r1, t0, t1 = r1, r, t1, sub_mul(t0, q, t1)
        out = [c / r1[0] for c in t1][:self.deg]
        return tuple(out + [Fraction(0)] * (self.deg - len(out)))

    def pow(self, a, n):
        if n < 0:
            a, n = self.inv(a), -n
        acc = self.one
        for _ in range(n):
            acc = self.mul(acc, a)
        return acc

    def fmt(self, a):
        name = self.field.gen_name
        terms = []
        for i in range(self.deg - 1, -1, -1):
            c = a[i]
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                g = name if i == 1 else f"{name}^{i}"
                terms.append(g if c == 1 else f"-{g}" if c == -1 else f"{c}*{g}")
        if not terms:
            return "0"
        return terms[0] + "".join(t if t.startswith("-") else "+" + t
                                  for t in terms[1:])


def _oracle_fields():
    return [preset_field("klein-exact"), preset_field("wiman-exact"),
            SimpleExtension((15, 0, 1), gen_name="s", name="Q(sqrt-15)")]


def _random_coordinates(rng, deg):
    return tuple(Fraction(rng.randint(-30, 30), rng.choice([1, 1, 2, 3, 7, 12]))
                 if rng.random() < 0.7 else Fraction(0) for _ in range(deg))


@pytest.mark.parametrize("index", range(3))
def test_integer_coordinates_match_fraction_reference(index):
    """Seeded random elements: every operation on the integer coordinates
    agrees with the Fraction-tuple reference, results are in canonical form
    (equal values give equal representations and hashes), and fmt and
    sort_key give what the reference gives."""
    f = _oracle_fields()[index]
    ref = _FractionTuples(f)
    rng = random.Random(20261018 + index)
    vals = [_random_coordinates(rng, f.deg) for _ in range(40)]
    vals += [(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),)
             + (Fraction(0),) * (f.deg - 1) for _ in range(8)]
    vals.append(ref.zero)

    def check(rep, expected):
        assert f.coordinates(rep) == expected
        assert f.coerce(expected) == rep
        assert rep[-1] > 0 and math.gcd(*rep) == 1
        assert f.fmt(rep) == ref.fmt(expected)
        assert f.sort_key(rep) == expected

    reps = [f.coerce(v) for v in vals]
    for r, v in zip(reps, vals):
        check(r, v)
        check(f.neg(r), ref.neg(v))
    for _ in range(700):
        i, j = rng.randrange(len(vals)), rng.randrange(len(vals))
        a, b, ra, rb = reps[i], reps[j], vals[i], vals[j]
        check(f.mul(a, b), ref.mul(ra, rb))
        check(f.add(a, b), ref.add(ra, rb))
        check(f.sub(a, b), ref.sub(ra, rb))
        # equal values reached along different routes: equal reps and hashes
        assert f.add(f.sub(a, b), b) == a
        assert hash(f.add(f.sub(a, b), b)) == hash(a)
    for r, v in zip(reps[:20], vals[:20]):
        if v == ref.zero:
            continue
        check(f.inv(r), ref.inv(v))
        n = rng.randint(-3, 6)
        check(f.pow(r, n), ref.pow(v, n))
        b = reps[rng.randrange(len(reps))]
        check(f.div(b, r), ref.mul(f.coordinates(b), ref.inv(v)))
        assert f.mul(f.div(b, r), r) == b
    with pytest.raises(ZeroDivisionError):
        f.inv(f.zero)
    assert f.spec_key() == ("extension", tuple(ref.minpoly))
    assert hash(f.spec_key()) == hash(("extension", tuple(ref.minpoly)))


@pytest.mark.parametrize("index", range(3))
def test_extension_coerce_inputs(index):
    f = _oracle_fields()[index]
    zeros = (Fraction(0),) * (f.deg - 1)
    for x in (0, 1, -7, 10 ** 30, Fraction(-3, 4), Fraction(6, 8)):
        rep = f.coerce(x)
        assert f.coordinates(rep) == (Fraction(x),) + zeros
        assert rep == f.embed_rational(x)
    coords = tuple(Fraction(k - 2, 2 * k + 1) for k in range(f.deg))
    rep = f.coerce(coords)
    assert f.coordinates(rep) == coords
    assert f.coerce(rep) is rep
    half = f.coerce(Fraction(1, 2))
    assert f.add(half, half) == f.one
    with pytest.raises(FieldError):
        f.coerce(coords + (Fraction(1),))
    with pytest.raises(FieldError):
        f.coerce(coords[:-1])
    other = next(g for g in _oracle_fields() if g.deg != f.deg)
    with pytest.raises(FieldError):
        f.coerce(other.one)


def _random_elements(field, seed, count=30):
    """Elements with small fractional coordinates (denominators below 10,
    so each has an image at the partner prime)."""
    rng = random.Random(seed)
    return [field.coerce(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                               for _ in range(field.deg)))
            for _ in range(count)]


def _reduces_homomorphically(field, elems):
    """Whether SimpleExtension.reduce commutes with sums, products and
    inverses on the given elements (an inverse whose own denominator has
    no image is skipped)."""
    p, red = field.partner_prime, field.reduce
    for a, b in zip(elems, elems[1:] + elems[:1]):
        if red(field.add(a, b)) != (red(a) + red(b)) % p:
            return False
        if red(field.mul(a, b)) != red(a) * red(b) % p:
            return False
        inv = field.inv(a)
        if inv[-1] % p and red(inv) * red(a) % p != 1:
            return False
    return True


@pytest.mark.parametrize("preset", ["klein-exact", "wiman-exact"])
def test_reduce_is_a_ring_homomorphism(preset):
    f = preset_field(preset)
    assert _reduces_homomorphically(f, _random_elements(f, 23))
    assert f.reduce(f.one) == 1 and f.reduce(f.zero) == 0
    assert f.reduce(Fraction(3, 5)) == 3 * pow(5, -1, f.partner_prime) \
        % f.partner_prime


def test_reduce_named_constants(klein_exact, wiman_exact, wiman_modp):
    """zeta goes to 7 mod 4733; delta and omega to the constants of
    modp:4951, and so do the constants built from them."""
    assert klein_exact.reduce(klein_exact.constant("zeta")) == 7
    assert klein_exact.partner_prime == 4733
    assert wiman_exact.partner_prime == wiman_modp.p
    for name in ("delta", "omega", "s", "mu1", "mu2"):
        assert wiman_exact.reduce(wiman_exact.constant(name)) \
            == wiman_modp.constant(name), name


def test_reduce_denominator_at_partner_prime(klein_exact, wiman_exact):
    for f in (klein_exact, wiman_exact):
        p = f.partner_prime
        with pytest.raises(FieldError):
            f.reduce(Fraction(1, p))
        with pytest.raises(FieldError):
            f.reduce(f.mul(f.gen, f.coerce(Fraction(2, 3 * p))))
    no_partner = SimpleExtension((15, 0, 1), gen_name="s")
    with pytest.raises(FieldError):
        no_partner.reduce(no_partner.gen)


def test_reduce_wrong_generator_image_fails(klein_exact, monkeypatch):
    """Mutation check of the homomorphism test: with g sent to 8, not a root
    of the cyclotomic polynomial mod 4733, products stop reducing."""
    p = klein_exact.partner_prime
    with pytest.raises(FieldError):
        klein_exact.set_partner(p, 8)
    assert klein_exact.partner_powers == tuple(pow(7, k, p) for k in range(6))
    monkeypatch.setattr(klein_exact, "partner_powers",
                        tuple(pow(8, k, p) for k in range(klein_exact.deg)))
    assert not _reduces_homomorphically(klein_exact,
                                        _random_elements(klein_exact, 23))
