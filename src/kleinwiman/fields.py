"""Exact coefficient fields: prime fields, the rationals, and simple extensions.

Elements are stored as lightweight raw representations (int mod p, Fraction,
or, in a simple extension, Coords: integer coordinates in the power basis of
the generator over one positive common denominator) and manipulated through
the owning Field object.
"""

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from kleinwiman.errors import FieldError, UsageError
from kleinwiman.kernels import MAX_PRIME

KLEIN_PRIME = 4733   # 7 has exact multiplicative order 7 mod 4733
WIMAN_PRIME = 4951   # smallest preset prime with sqrt(5), omega and sqrt(-15)


def is_prime(n):
    """Primality of an integer by trial division."""
    return n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))


def _integer_coefficients(coeffs, what):
    """The coefficients as ints; a FieldError names `what` when one is not an
    integer."""
    out = []
    for c in coeffs:
        fr = Fraction(c)
        if fr.denominator != 1:
            raise FieldError(f"{what} coefficients must be integers, got {fr}")
        out.append(fr.numerator)
    return out


def _divisors(n):
    """The positive and negative divisors of a nonzero integer."""
    n = abs(n)
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    pos = small + [n // d for d in reversed(small) if d * d != n]
    return [s * d for d in pos for s in (1, -1)]


def _divides_monic(g, f):
    """Whether the monic integer polynomial g divides f in Z[x]
    (little-endian coefficient lists)."""
    rem = list(f)
    k = len(g) - 1
    for i in range(len(rem) - 1, k - 1, -1):
        c = rem[i]
        if c:
            for j in range(k + 1):
                rem[i - k + j] -= c * g[j]
    return not any(rem[:k])


def _newton_monic(xs, vs):
    """The monic integer polynomial of degree len(xs) taking the values vs
    at the integer points xs, or None when it is not integral.  Its divided
    differences at integer points are integers (those of each power x^m
    are), and they are its Newton coefficients: with k = len(xs) the
    polynomial is c_0 + c_1 (x - x_0) + ... + (x - x_0) ... (x - x_(k-1))."""
    c = list(vs)
    for j in range(1, len(c)):
        for i in range(len(c) - 1, j - 1, -1):
            q, r = divmod(c[i] - c[i - 1], xs[i] - xs[i - j])
            if r:
                return None
            c[i] = q
    g = [1]
    for x, ci in zip(reversed(xs), reversed(c)):   # g <- g (x - x_i) + c_i
        g = [0] + g
        for t in range(len(g) - 1):
            g[t] -= x * g[t + 1]
        g[0] += ci
    return g


def is_irreducible_monic_int(coeffs):
    """Irreducibility over Q for a monic integer polynomial of degree <= 6
    (little-endian coefficients).

    By Gauss's lemma a reducible monic f has a monic integer factor g of
    degree k <= deg / 2.  Kronecker's search decides each k in finitely many
    steps: g(x) divides f(x) at every integer x, and a monic g of degree k
    is fixed by its values at k points.  f is evaluated at the first deg / 2
    of 0, 1, -1 (a zero there is a linear factor); every choice of divisors
    of those values that interpolates to a monic integer polynomial is tried
    by exact division.  No prime and no coefficient bound enters.
    """
    coeffs = _integer_coefficients(coeffs, "irreducibility test")
    deg = len(coeffs) - 1
    if coeffs[-1] != 1:
        raise FieldError("irreducibility test expects a monic integer polynomial")
    if deg > 6:
        raise FieldError("irreducibility test limited to degree <= 6")
    if deg <= 1:
        return True
    xs = [0, 1, -1][:deg // 2]
    values = [sum(c * x ** i for i, c in enumerate(coeffs)) for x in xs]
    if 0 in values:
        return False
    for k in range(1, deg // 2 + 1):
        for vs in itertools.product(*map(_divisors, values[:k])):
            g = _newton_monic(xs[:k], vs)
            if g is not None and _divides_monic(g, coeffs):
                return False
    return True


def tonelli_sqrt(n, p):
    """Square root of n mod an odd prime p, or None when n is a non-residue."""
    n %= p
    if n == 0:
        return 0
    if pow(n, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(n, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) == 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(n, q, p), pow(n, (q + 1) // 2, p)
    while t != 1:
        t2, i = t, 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


class Field:
    """Common surface of the concrete field classes."""

    kind = None
    name = None
    # the prime p of the residue map to F_p (reduce), None when there is none
    partner_prime = None

    def __init__(self):
        self.constants = {}

    def constant(self, name):
        if name not in self.constants:
            raise FieldError(f"field {self.name} has no constant {name!r}")
        return self.constants[name]

    def sum(self, reps):
        acc = self.zero
        for r in reps:
            acc = self.add(acc, r)
        return acc

    def div(self, a, b):
        if self.is_zero(b):
            raise ZeroDivisionError(f"division by zero in {self.name}")
        return self.mul(a, self.inv(b))

    def pow(self, a, n):
        if n < 0:
            return self.pow(self.inv(a), -n)
        acc, base = self.one, a
        while n:
            if n & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            n >>= 1
        return acc

    def is_zero(self, a):
        return a == self.zero

    def __eq__(self, other):
        return isinstance(other, Field) and self.spec_key() == other.spec_key()

    def __hash__(self):
        return hash(self.spec_key())

    def __repr__(self):
        return f"<Field {self.name}>"


class PrimeField(Field):
    kind = "prime"

    def __init__(self, p):
        super().__init__()
        if not is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = self.partner_prime = p
        self.name = f"F{p}"
        self.zero = 0
        self.one = 1

    def spec_key(self):
        return ("prime", self.p)

    def coerce(self, x):
        # plain ints first: Fraction is an ABC, so isinstance is slow on them
        if type(x) is int:
            return x % self.p
        if isinstance(x, Fraction):
            return self.embed_rational(x)
        return int(x) % self.p

    # the residue map of F_p is the identity on its elements
    reduce = coerce

    def embed_rational(self, fr):
        fr = Fraction(fr)
        if fr.denominator % self.p == 0:
            raise FieldError(f"denominator of {fr} vanishes mod {self.p}")
        return fr.numerator * pow(fr.denominator, self.p - 2, self.p) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"division by zero in {self.name}")
        return pow(a, self.p - 2, self.p)

    def sort_key(self, a):
        return a

    def fmt(self, a):
        return str(a)


class RationalField(Field):
    kind = "rational"

    def __init__(self):
        super().__init__()
        self.name = "Q"
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def spec_key(self):
        return ("rational",)

    def coerce(self, x):
        return Fraction(x)

    def embed_rational(self, fr):
        return Fraction(fr)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("division by zero in Q")
        return 1 / a

    def sort_key(self, a):
        return a

    def fmt(self, a):
        return str(a)


class Coords(tuple):
    """An element of a SimpleExtension of degree n: the integers
    (a_0, ..., a_{n-1}, den) standing for sum_i (a_i / den) g^i, in canonical
    form (den > 0 and gcd(a_0, ..., a_{n-1}, den) = 1), so that equal elements
    are equal tuples with equal hashes."""

    __slots__ = ()


def _canonical(nums):
    """Coords of integer numerators followed by a positive denominator,
    divided by their gcd."""
    if nums[-1] != 1:
        g = math.gcd(*nums)
        if g != 1:
            nums = [n // g for n in nums]
    return Coords(nums)


class SimpleExtension(Field):
    """Q[g]/(minpoly) for a monic irreducible integer minpoly of degree <= 6.

    Elements are Coords; products are integer convolutions reduced by the
    integer table of g^k, k = deg .. 2 deg - 2, and one gcd normalisation.
    """

    kind = "extension"

    def __init__(self, minpoly, gen_name="w", name=None):
        super().__init__()
        self.minpoly = tuple(_integer_coefficients(minpoly, "minimal polynomial"))
        if self.minpoly[-1] != 1:
            raise FieldError("minimal polynomial must be monic")
        if not is_irreducible_monic_int(self.minpoly):
            raise FieldError("minimal polynomial is reducible over Q")
        self.deg = deg = len(self.minpoly) - 1
        self.gen_name = gen_name
        self.name = name or f"Q({gen_name})"
        self.zero = Coords([0] * deg + [1])
        self.one = self.embed_rational(1)
        self.gen = Coords([int(i == 1) for i in range(deg)] + [1])
        # reduction table: g^k for k = deg .. 2 deg - 2 in the power basis,
        # kept as the (index, coefficient) pairs with a nonzero coefficient
        row = [-c for c in self.minpoly[:-1]]
        rows = [row]
        for _ in range(deg - 2):
            top = row[-1]
            row = [0] + row[:-1]
            row = [r + top * c for r, c in zip(row, rows[0])]
            rows.append(row)
        self._red = [[(i, c) for i, c in enumerate(r) if c] for r in rows]
        self.partner_powers = None

    def set_partner(self, p, gen_image):
        """Fix the partner map to F_p, g -> gen_image: a ring homomorphism on
        the elements whose denominators are prime to p, because gen_image is
        a root of the minimal polynomial mod p (a FieldError otherwise).
        partner_powers holds gen_image^k mod p for k < deg, the map on the
        power basis."""
        if sum(c * pow(gen_image, k, p) for k, c in enumerate(self.minpoly)) % p:
            raise FieldError(f"{gen_image} is not a root of the minimal "
                             f"polynomial mod {p}")
        self.partner_prime = p
        self.partner_powers = tuple(pow(gen_image, k, p) for k in range(self.deg))

    def reduce(self, x):
        """The image of x in F_p under the partner map, as an int mod p.
        A FieldError when x's denominator vanishes mod p or the field has
        no partner prime."""
        p = self.partner_prime
        if p is None:
            raise FieldError(f"{self.name} has no partner prime")
        x = self.coerce(x)
        if x[-1] % p == 0:
            raise FieldError(f"the denominator of {self.fmt(x)} vanishes mod {p}")
        num = sum(a * g for a, g in zip(x, self.partner_powers))
        return num * pow(x[-1], -1, p) % p

    def spec_key(self):
        return ("extension", self.minpoly)

    def coerce(self, x):
        if type(x) is Coords:
            if len(x) != self.deg + 1:
                raise FieldError("element from a different field")
            return x
        if isinstance(x, tuple):
            if len(x) != self.deg:
                raise FieldError("wrong coefficient vector length")
            coords = [Fraction(c) for c in x]
            den = math.lcm(*(c.denominator for c in coords))
            return _canonical([c.numerator * (den // c.denominator)
                               for c in coords] + [den])
        return self.embed_rational(x)

    def embed_rational(self, fr):
        fr = Fraction(fr)
        return Coords([fr.numerator] + [0] * (self.deg - 1) + [fr.denominator])

    def add(self, a, b):
        da, db = a[-1], b[-1]
        if da == db:
            nums = [x + y for x, y in zip(a, b)]
            nums[-1] = da
        else:
            g = math.gcd(da, db)
            sa, sb = db // g, da // g
            nums = [x * sa + y * sb for x, y in zip(a, b)]
            nums[-1] = da * sa
        return _canonical(nums)

    def sub(self, a, b):
        da, db = a[-1], b[-1]
        if da == db:
            nums = [x - y for x, y in zip(a, b)]
            nums[-1] = da
        else:
            g = math.gcd(da, db)
            sa, sb = db // g, da // g
            nums = [x * sa - y * sb for x, y in zip(a, b)]
            nums[-1] = da * sa
        return _canonical(nums)

    def neg(self, a):
        nums = [-x for x in a]
        nums[-1] = a[-1]
        return Coords(nums)

    def mul(self, a, b):
        deg = self.deg
        prod = [0] * (2 * deg - 1)
        terms = [(j, y) for j, y in enumerate(b[:deg]) if y]
        for i in range(deg):
            x = a[i]
            if x:
                for j, y in terms:
                    prod[i + j] += x * y
        for k in range(deg, 2 * deg - 1):
            c = prod[k]
            if c:
                for i, r in self._red[k - deg]:
                    prod[i] += c * r
        del prod[deg:]
        prod.append(a[deg] * b[deg])
        return _canonical(prod)

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError(f"division by zero in {self.name}")
        # a = b / den with b integral: solve M x = e_0 for the matrix M of
        # multiplication by b (column j holds b g^j) by fraction-free
        # Gauss-Jordan elimination, which ends at D I | D x with D = +-det M;
        # then 1/a = den x
        deg = self.deg
        col = list(a[:deg])
        cols = [col]
        for _ in range(deg - 1):
            top = col[-1]
            col = [-top * c for c in self.minpoly[:1]] + [
                x - top * c for x, c in zip(col, self.minpoly[1:-1])]
            cols.append(col)
        rows = [[c[i] for c in cols] + [int(i == 0)] for i in range(deg)]
        prev = 1
        for k in range(deg):
            p = next(i for i in range(k, deg) if rows[i][k])
            rows[k], rows[p] = rows[p], rows[k]
            pivot = rows[k]
            pk = pivot[k]
            for i in range(deg):
                if i != k:
                    row = rows[i]
                    f = row[k]
                    rows[i] = [(pk * x - f * y) // prev for x, y in zip(row, pivot)]
            prev = pk
        den = a[deg] if prev > 0 else -a[deg]
        return _canonical([den * row[deg] for row in rows] + [abs(prev)])

    def coordinates(self, a):
        """The rational coordinates of `a` in the power basis."""
        return tuple(Fraction(n, a[-1]) for n in a[:-1])

    def sort_key(self, a):
        return self.coordinates(a)

    def fmt(self, a):
        coords = self.coordinates(a)
        terms = []
        for i in range(self.deg - 1, -1, -1):
            c = coords[i]
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                g = self.gen_name if i == 1 else f"{self.gen_name}^{i}"
                if c == 1:
                    terms.append(g)
                elif c == -1:
                    terms.append(f"-{g}")
                else:
                    terms.append(f"{c}*{g}")
        if not terms:
            return "0"
        s = terms[0]
        for t in terms[1:]:
            s += t if t.startswith("-") else "+" + t
        return s


def _attach_prime_constants(field):
    """Compute the named constants that exist in a prime field."""
    p = field.p
    if p % 7 == 1:
        c = 2
        while True:
            r = pow(c, (p - 1) // 7, p)
            if r != 1:
                break
            c += 1
        field.constants["zeta"] = min(pow(r, k, p) for k in range(1, 7))
    d = tonelli_sqrt(5, p)
    if d is not None:
        field.constants["delta"] = min(d, p - d)
    m3 = tonelli_sqrt(-3, p)
    if m3 is not None:
        half = pow(2, p - 2, p)
        om = (m3 - 1) * half % p
        field.constants["omega"] = min(om, (-1 - om) % p)
    s = tonelli_sqrt(-15, p)
    if s is not None:
        field.constants["s"] = min(s, p - s)
    if "delta" in field.constants:
        half = pow(2, p - 2, p)
        delta = field.constants["delta"]
        field.constants["mu1"] = (delta - 1) * half % p
        field.constants["mu2"] = (-1 - delta) * half % p
    return field


def _check_constant_relations(f):
    """FieldError unless each named constant of f satisfies its relation."""
    c = f.constants
    two = f.coerce(2)
    relations = {
        "zeta": ("zeta must have order 7",
                 lambda z: f.pow(z, 7) == f.one and z != f.one),
        "delta": ("delta^2 != 5", lambda d: f.mul(d, d) == f.coerce(5)),
        "omega": ("omega^2 + omega + 1 != 0",
                  lambda om: f.is_zero(f.add(f.add(f.mul(om, om), om), f.one))),
        "s": ("s^2 != -15", lambda s: f.mul(s, s) == f.coerce(-15)),
        "mu1": ("2 mu1 != delta - 1",
                lambda mu: f.mul(mu, two) == f.sub(c["delta"], f.one)),
        "mu2": ("2 mu2 != -1 - delta",
                lambda mu: f.mul(mu, two) == f.neg(f.add(f.one, c["delta"]))),
    }
    for name, (message, holds) in relations.items():
        if name in c and not holds(c[name]):
            raise FieldError(f"{f.name}: {message}")


# frozen presentation of Q(sqrt5, omega) by the primitive element t = delta+omega;
# the expansions of delta and omega are rechecked against their defining
# relations every time the preset is built
WIMAN_MINPOLY = (31, -8, -7, 2, 1)
_W23 = Fraction(1, 23)
WIMAN_DELTA = (14 * _W23, 27 * _W23, -3 * _W23, -2 * _W23)


@lru_cache(maxsize=None)
def preset_field(name, p=None):
    """Build one of the shipped field presets.

    Names: rational | klein-exact | wiman-exact | klein-mod4733 | klein-mod7
    | modp (with p=...).
    """
    if name == "rational":
        return RationalField()
    if name == "klein-exact":
        f = SimpleExtension((1, 1, 1, 1, 1, 1, 1), gen_name="w", name="Q(zeta7)")
        f.constants["zeta"] = f.gen
        f.set_partner(KLEIN_PRIME, 7)
        _check_constant_relations(f)
        return f
    if name == "wiman-exact":
        f = SimpleExtension(WIMAN_MINPOLY, gen_name="t", name="Q(sqrt5,omega)")
        delta = f.coerce(WIMAN_DELTA)
        omega = f.sub(f.gen, delta)
        f.constants["delta"] = delta
        f.constants["omega"] = omega
        two_inv = f.inv(f.coerce(2))
        f.constants["mu1"] = f.mul(f.sub(delta, f.one), two_inv)
        f.constants["mu2"] = f.neg(f.mul(f.add(delta, f.one), two_inv))
        # s^2 = -15 holds inside the field already: (2*omega+1)^2 = -3
        f.constants["s"] = f.mul(f.add(f.add(omega, omega), f.one), delta)
        p0 = WIMAN_PRIME
        fp = preset_field("modp", p0)
        t0 = (fp.constants["delta"] + fp.constants["omega"]) % p0
        f.set_partner(p0, t0)
        _check_constant_relations(f)
        return f
    if name == "klein-mod4733":
        f = PrimeField(KLEIN_PRIME)
        f.constants["zeta"] = 7
        _check_constant_relations(f)
        return f
    if name == "klein-mod7":
        return PrimeField(7)
    if name == "modp":
        if p is None:
            raise FieldError("modp preset needs p")
        if p == 2:   # the square roots and halves below need p odd
            raise FieldError("modp preset needs an odd prime")
        f = _attach_prime_constants(PrimeField(p))
        _check_constant_relations(f)
        return f
    raise FieldError(f"unknown field preset {name!r}")


# the named constants each line configuration is built from
PRESET_CONSTANTS = {"klein": ("zeta",), "wiman": ("delta", "omega")}


def hosting_problem(field, preset):
    """Why `field` cannot host the `preset` configuration (a constant it is
    built from is missing), or None."""
    missing = [n for n in PRESET_CONSTANTS.get(preset, ())
               if n not in field.constants]
    if not missing:
        return None
    return (f"field {field.name} cannot host the {preset} configuration: "
            f"missing constants {', '.join(missing)}")


def parse_field_flag(text, preset):
    """Resolve a CLI --field value ('exact', 'mod4733' or 'modp:<p>') for a
    preset family.  A malformed value, a p that is not an odd prime below
    the mod-p kernels' MAX_PRIME, or a field that lacks a constant the
    preset is built from, is a UsageError.  The klein-char7 model lives over
    F_7 alone: there 'exact' and 'modp:7' both resolve to F_7, and any other
    field is a UsageError."""
    if text in (None, "exact"):
        if preset == "klein-char7":
            return preset_field("klein-mod7")
        return preset_field("wiman-exact" if preset == "wiman" else "klein-exact")
    if text == "mod4733":
        field = preset_field("klein-mod4733")
    else:
        kind, _, digits = text.partition(":")
        if kind != "modp" or not digits.isdigit():
            raise UsageError(f"unrecognized field flag {text!r}")
        p = int(digits)
        if p >= MAX_PRIME:
            raise UsageError(f"prime {p} too large for the mod-p kernels")
        try:
            field = preset_field("modp", p)
        except FieldError as e:
            raise UsageError(str(e)) from None
    if preset == "klein-char7":
        if field.p != 7:
            raise UsageError(f"the klein-char7 configuration is defined over "
                             f"F7, not {field.name}")
        return preset_field("klein-mod7")
    problem = hosting_problem(field, preset)
    if problem:
        raise UsageError(problem)
    return field
