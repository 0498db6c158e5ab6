"""Exact coefficient fields: prime fields, the rationals, and simple extensions.

Elements are stored as lightweight raw representations (int mod p, Fraction,
or tuple of Fractions in the power basis of the generator) and manipulated
through the owning Field object; FieldElement is a thin operator wrapper for
callers who want infix arithmetic.
"""

from fractions import Fraction
from functools import lru_cache

from kleinwiman.errors import FieldError, UsageError
from kleinwiman.kernels import MAX_PRIME

KLEIN_PRIME = 4733   # 7 has exact multiplicative order 7 mod 4733
WIMAN_PRIME = 4951   # smallest preset prime with sqrt(5), omega and sqrt(-15)


def _poly_divmod(num, den):
    """Divide coefficient lists (little-endian, Fraction) over Q."""
    num = list(num)
    deg_d = len(den) - 1
    lead = den[-1]
    quot = [Fraction(0)] * max(0, len(num) - deg_d)
    for i in range(len(num) - 1, deg_d - 1, -1):
        c = num[i] / lead
        quot[i - deg_d] = c
        if c:
            for j, d in enumerate(den):
                num[i - deg_d + j] -= c * d
    rem = num[:deg_d]
    while rem and rem[-1] == 0:
        rem.pop()
    return quot, rem


def _polymul_mod(a, b, f, p):
    """Product of coefficient lists mod (f, p), f monic."""
    n = len(f) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
    for k in range(len(prod) - 1, n - 1, -1):
        c = prod[k]
        if c:
            prod[k] = 0
            for i in range(n):
                prod[k - n + i] = (prod[k - n + i] - c * f[i]) % p
    out = prod[:n]
    out += [0] * (n - len(out))
    return out


def _poly_gcd_mod(a, b, p):
    a = [c % p for c in a]
    b = [c % p for c in b]
    while any(b):
        while b and b[-1] % p == 0:
            b.pop()
        if not b:
            break
        inv = pow(b[-1], p - 2, p)
        for i in range(len(a) - 1, len(b) - 2, -1):
            c = a[i] * inv % p
            if c:
                for j in range(len(b)):
                    a[i - len(b) + 1 + j] = (a[i - len(b) + 1 + j] - c * b[j]) % p
        a, b = b, a[: len(b) - 1]
    while a and a[-1] % p == 0:
        a.pop()
    return a


def _is_irreducible_mod(coeffs, p):
    """Rabin test for a monic polynomial over F_p."""
    f = [c % p for c in coeffs]
    n = len(f) - 1
    if f[-1] != 1:
        return False

    def frob(e, times):
        # e -> e^(p^times) mod f by repeated powering
        for _ in range(times):
            acc = [1]
            base = list(e)
            k = p
            while k:
                if k & 1:
                    acc = _polymul_mod(acc, base, f, p)
                base = _polymul_mod(base, base, f, p)
                k >>= 1
            e = acc
        return e

    def minus_x(e):
        h = list(e) + [0] * max(0, 2 - len(e))
        h[1] = (h[1] - 1) % p
        return h

    x = [0, 1]
    primes = {q for q in range(2, n + 1) if n % q == 0 and
              all(q % r for r in range(2, q))}
    for q in primes:
        g = _poly_gcd_mod(minus_x(frob(x, n // q)), f, p)
        if len(g) != 1:
            return False
    return not any(minus_x(frob(x, n)))


def is_irreducible_monic_int(coeffs):
    """Irreducibility over Q for a monic integer polynomial of degree <= 6.

    Tries a mod-p certificate first (irreducible mod p with p not dividing
    the discriminant data implies irreducible over Q); falls back to a finite
    trial factorization, valid because monic rational factors are integral
    with constant term dividing the input's constant term and coefficients
    within the Mignotte bound.
    """
    coeffs = [int(c) for c in coeffs]
    deg = len(coeffs) - 1
    if coeffs[-1] != 1:
        raise FieldError("irreducibility test expects a monic integer polynomial")
    if deg > 6:
        raise FieldError("irreducibility test limited to degree <= 6")
    if deg == 1:
        return True
    a0 = coeffs[0]
    if a0 == 0:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
        if _is_irreducible_mod(coeffs, p):
            return True
    bound = 2 ** deg * (deg + 1) * max(abs(c) for c in coeffs)
    divisors = [d for d in range(1, abs(a0) + 1) if a0 % d == 0]
    divisors = [s * d for d in divisors for s in (1, -1)]

    def divides(factor):
        _, rem = _poly_divmod([Fraction(c) for c in coeffs],
                              [Fraction(c) for c in factor])
        return not rem

    for r in divisors:
        if divides([-r, 1]):
            return False
    for k in range(2, deg // 2 + 1):
        def search(prefix):
            if len(prefix) == k - 1:
                return any(divides([v] + prefix + [1]) for v in divisors)
            return any(search([u] + prefix) for u in range(-bound, bound + 1))
        if search([]):
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

    def __init__(self):
        self.constants = {}

    def element(self, x):
        return FieldElement(self, self.coerce(x))

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
        if p < 2 or any(p % k == 0 for k in range(2, int(p ** 0.5) + 1)):
            raise FieldError(f"{p} is not prime")
        self.p = p
        self.name = f"F{p}"
        self.zero = 0
        self.one = 1

    def spec_key(self):
        return ("prime", self.p)

    def coerce(self, x):
        if isinstance(x, FieldElement):
            if x.field != self:
                raise FieldError("element from a different field")
            return x.rep
        if isinstance(x, Fraction):
            return self.embed_rational(x)
        return int(x) % self.p

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
        if isinstance(x, FieldElement):
            if x.field != self:
                raise FieldError("element from a different field")
            return x.rep
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


class SimpleExtension(Field):
    """Q[g]/(minpoly) for a monic irreducible minpoly of degree <= 6."""

    kind = "extension"

    def __init__(self, minpoly, gen_name="w", name=None):
        super().__init__()
        self.minpoly = tuple(Fraction(c) for c in minpoly)
        if self.minpoly[-1] != 1:
            raise FieldError("minimal polynomial must be monic")
        if not is_irreducible_monic_int(self.minpoly):
            raise FieldError("minimal polynomial is reducible over Q")
        self.deg = len(self.minpoly) - 1
        self.gen_name = gen_name
        self.name = name or f"Q({gen_name})"
        self.zero = (Fraction(0),) * self.deg
        self.one = tuple([Fraction(1)] + [Fraction(0)] * (self.deg - 1))
        self.gen = tuple(Fraction(1 if i == 1 else 0) for i in range(self.deg))
        # reduction table: g^k for k = deg .. 2 deg - 2 in the power basis
        self._red = []
        row = [-c for c in self.minpoly[:-1]]
        self._red.append(tuple(row))
        for _ in range(self.deg - 2):
            row = [Fraction(0)] + row[:-1]
            for i in range(self.deg):
                row[i] += self._red[-1][-1] * self._red[0][i]
            row = row[: self.deg]
            self._red.append(tuple(row))

    def spec_key(self):
        return ("extension", self.minpoly)

    def coerce(self, x):
        if isinstance(x, FieldElement):
            if x.field != self:
                raise FieldError("element from a different field")
            return x.rep
        if isinstance(x, tuple):
            if len(x) != self.deg:
                raise FieldError("wrong coefficient vector length")
            return tuple(Fraction(c) for c in x)
        return self.embed_rational(Fraction(x))

    def embed_rational(self, fr):
        return tuple([Fraction(fr)] + [Fraction(0)] * (self.deg - 1))

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
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        out = prod[:deg]
        for k in range(deg, 2 * deg - 1):
            c = prod[k]
            if c:
                red = self._red[k - deg]
                for i in range(deg):
                    if red[i]:
                        out[i] += c * red[i]
        return tuple(out)

    def inv(self, a):
        if all(c == 0 for c in a):
            raise ZeroDivisionError(f"division by zero in {self.name}")
        # extended euclid on (minpoly, a) over Q[x]
        r0, r1 = list(self.minpoly), list(a)
        while r1 and r1[-1] == 0:
            r1.pop()
        t0, t1 = [Fraction(0)], [Fraction(1)]
        while len(r1) > 1:
            q, r = _poly_divmod(r0, r1)
            qt = [Fraction(0)] * (len(q) + len(t1) - 1)
            for i, qc in enumerate(q):
                if qc:
                    for j, tc in enumerate(t1):
                        qt[i + j] += qc * tc
            t2 = [x - y for x, y in
                  zip(t0 + [Fraction(0)] * max(0, len(qt) - len(t0)),
                      qt + [Fraction(0)] * max(0, len(t0) - len(qt)))]
            r0, r1, t0, t1 = r1, r, t1, t2
        if not r1:
            raise ZeroDivisionError("element is not invertible")
        scale = 1 / r1[0]
        out = [c * scale for c in t1][: self.deg]
        out += [Fraction(0)] * (self.deg - len(out))
        return tuple(out)

    def sort_key(self, a):
        return tuple(a)

    def fmt(self, a):
        terms = []
        for i in range(self.deg - 1, -1, -1):
            c = a[i]
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


class FieldElement:
    """Operator wrapper around a raw field representation."""

    __slots__ = ("field", "rep")

    def __init__(self, field, rep):
        self.field = field
        self.rep = rep

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise FieldError("mismatched field specs")
            return other.rep
        return self.field.coerce(other)

    def __add__(self, other):
        return FieldElement(self.field, self.field.add(self.rep, self._coerce(other)))

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        return FieldElement(self.field, self.field.sub(self.rep, self._coerce(other)))

    def __rsub__(self, other):
        return FieldElement(self.field, self.field.sub(self._coerce(other), self.rep))

    def __mul__(self, other):
        return FieldElement(self.field, self.field.mul(self.rep, self._coerce(other)))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        return FieldElement(self.field, self.field.div(self.rep, self._coerce(other)))

    def __rtruediv__(self, other):
        return FieldElement(self.field, self.field.div(self._coerce(other), self.rep))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.rep))

    def __pow__(self, n):
        return FieldElement(self.field, self.field.pow(self.rep, n))

    def __eq__(self, other):
        try:
            return self.rep == self._coerce(other)
        except (FieldError, TypeError, ValueError):
            return NotImplemented

    def __hash__(self):
        return hash((self.field.spec_key(), self.rep))

    def is_zero(self):
        return self.field.is_zero(self.rep)

    def __repr__(self):
        return self.field.fmt(self.rep)


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


def _check_partner_embedding(f):
    """The partner-prime reduction is a ring hom only if the generator image
    is a root of the minimal polynomial mod p."""
    p, g = f.partner_prime, f.partner_gen_image
    acc, gp = 0, 1
    for c in f.minpoly:
        fr = Fraction(c)
        acc = (acc + fr.numerator * pow(fr.denominator, p - 2, p) * gp) % p
        gp = gp * g % p
    assert acc == 0, "partner generator image is not a root mod p"


def _check_constant_relations(f):
    c = f.constants
    if "zeta" in c:
        z = c["zeta"]
        assert f.pow(z, 7) == f.one and z != f.one, "zeta must have order 7"
    if "delta" in c:
        assert f.mul(c["delta"], c["delta"]) == f.coerce(5), "delta^2 != 5"
    if "omega" in c:
        om = c["omega"]
        assert f.is_zero(f.add(f.add(f.mul(om, om), om), f.one)), "omega relation fails"
    if "s" in c:
        assert f.mul(c["s"], c["s"]) == f.coerce(-15), "s^2 != -15"
    if "mu1" in c:
        two = f.coerce(2)
        assert f.mul(c["mu1"], two) == f.sub(c["delta"], f.one)
        assert f.mul(c["mu2"], two) == f.neg(f.add(f.one, c["delta"]))


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
        f.partner_prime = KLEIN_PRIME
        f.partner_gen_image = 7
        _check_partner_embedding(f)
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
        f.partner_prime = p0
        f.partner_gen_image = t0
        _check_partner_embedding(f)
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
    F_7 alone, so any other field is a UsageError there too."""
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
