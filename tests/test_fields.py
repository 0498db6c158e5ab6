import random
from fractions import Fraction

import pytest

from kleinwiman.errors import FieldError
from kleinwiman.fields import (PrimeField, RationalField,
                               SimpleExtension,
                               is_irreducible_monic_int, preset_field,
                               tonelli_sqrt)


def test_klein_exact_constants(klein_exact):
    z = klein_exact.element(klein_exact.constant("zeta"))
    c = 2 * z ** 4 + 2 * z ** 2 + 2 * z + 1
    assert c * c == -7
    total = klein_exact.element(1)
    for k in range(1, 7):
        total = total + z ** k
    assert total.is_zero()


def test_mod4733_seventh_root():
    # modular exponentiation oracle for the shipped prime preset
    f = preset_field("klein-mod4733")
    w = f.constant("zeta")
    assert w == 7
    assert pow(7, 7, 4733) == 1
    assert all(pow(7, k, 4733) != 1 for k in range(1, 7))


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
    vals = [f.element(rng.randrange(-20, 20)) for _ in range(12)]
    if f.kind == "extension":
        vals += [f.element(f.gen) * v + f.element(rng.randrange(1, 5))
                 for v in vals[:4]]
    for _ in range(40):
        a, b, c = rng.sample(vals, 3)
        assert (a + b) + c == a + (b + c)
        assert a * (b * c) == (a * b) * c
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a and a * b == b * a
        if not b.is_zero():
            assert (a / b) * b == a


def test_canonical_form_idempotent(klein_exact, wiman_exact):
    for f in (klein_exact, wiman_exact):
        x = f.coerce((3, 2, 1, 0) + (0,) * (f.deg - 4))
        assert f.coerce(x) == x
        # products reduce fully: degree below the extension degree
        y = f.mul(f.pow(f.gen, f.deg - 1), f.gen)
        assert len(y) == f.deg


def test_division_errors(klein_modp):
    one = klein_modp.element(1)
    zero = klein_modp.element(0)
    with pytest.raises(ZeroDivisionError):
        one / zero
    other = preset_field("klein-exact").element(1)
    with pytest.raises(FieldError):
        one + other


def test_element_operators(klein_modp):
    a, b = klein_modp.element(10), klein_modp.element(4)
    assert a + b == 14
    assert a - b == 6
    assert a * b == 40
    assert a / b == klein_modp.element(10 * pow(4, 4731, 4733))


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


def test_tonelli():
    for p in (7, 4733, 4951, 10007):
        for n in (2, 3, 5, p - 1):
            r = tonelli_sqrt(n, p)
            if r is not None:
                assert r * r % p == n % p


def test_rational_field():
    q = RationalField()
    a = q.element(Fraction(2, 3))
    assert a + a == Fraction(4, 3)
    assert (a / a) == 1


def test_prime_field_embed_rational():
    f = PrimeField(7)
    assert f.embed_rational(Fraction(1, 2)) == 4
    with pytest.raises(FieldError):
        f.embed_rational(Fraction(1, 7))
