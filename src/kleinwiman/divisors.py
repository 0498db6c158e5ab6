"""Divisor classes on the blowups: intersection numbers, the negative-curve
search, and Waldschmidt-constant certificates."""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import isqrt

from kleinwiman.errors import EngineError
from kleinwiman.series import SeriesSpec, series_dim

# orbit sizes per class, fixing the intersection form H^2 = 1,
# E_class^2 = -(orbit size)
CLASS_SIZES = {
    "klein": (21, 28),
    "wiman": (36, 45, 120),
    "klein-char7": (21, 28),
}
CLASS_LABELS = {
    "klein": ("E4", "E3"),
    "wiman": ("E5", "E4", "E3"),
    "klein-char7": ("E4", "E3"),
}


@dataclass(frozen=True)
class DivisorClass:
    preset: str
    degree: Fraction
    mults: tuple

    @staticmethod
    def make(preset, degree, *mults):
        if len(mults) != len(CLASS_SIZES[preset]):
            raise EngineError(f"{preset} classes take {len(CLASS_SIZES[preset])} "
                              "multiplicities")
        return DivisorClass(preset, Fraction(degree),
                            tuple(Fraction(m) for m in mults))

    def scaled(self, c):
        c = Fraction(c)
        return DivisorClass(self.preset, self.degree * c,
                            tuple(m * c for m in self.mults))

    def plus(self, other):
        self._check(other)
        return DivisorClass(self.preset, self.degree + other.degree,
                            tuple(a + b for a, b in zip(self.mults, other.mults)))

    def _check(self, other):
        if self.preset != other.preset:
            raise EngineError("divisor classes live on different blowups")

    def as_text(self):
        parts = [f"{self.degree}H"]
        for m, lbl in zip(self.mults, CLASS_LABELS[self.preset]):
            if m:
                parts.append(f"{m}{lbl}")
        return " - ".join(parts) if len(parts) > 1 else parts[0]


def intersect(c, d):
    """d_C d_D - sum of (orbit size) m_C m_D over the orbit classes."""
    c._check(d)
    sizes = CLASS_SIZES[c.preset]
    acc = c.degree * d.degree
    for s, a, b in zip(sizes, c.mults, d.mults):
        acc -= s * a * b
    return acc


def self_int(c):
    return intersect(c, c)


def line_class(preset):
    """Class of the sum of the configuration lines."""
    if preset == "klein" or preset == "klein-char7":
        return DivisorClass.make(preset, 21, 4, 3)
    if preset == "wiman":
        return DivisorClass.make(preset, 45, 5, 4, 3)
    raise EngineError(f"unknown preset {preset!r}")


def combine(terms):
    """Formal sum of (coefficient, DivisorClass) pairs."""
    acc = None
    for coef, cls in terms:
        part = cls.scaled(coef)
        acc = part if acc is None else acc.plus(part)
    return acc


def verify_divisor_identity(lhs, rhs):
    """Coefficient-wise equality of two formal sums of divisor classes."""
    return combine(lhs) == combine(rhs)


def klein_dk(k):
    """The pencil (28k+2)H - 2k E4 - 5k E3 of classes behind the lower bounds."""
    k = Fraction(k)
    return DivisorClass.make("klein", 28 * k + 2, 2 * k, 5 * k)


WIMAN_NEF_CANDIDATE = DivisorClass.make("wiman", 36, 1, 2, 3)
KLEIN_CURVE_42 = DivisorClass.make("klein", 42, 0, 8)
WIMAN_CURVE_90 = DivisorClass.make("wiman", 90, 0, 4, 8)

# negative classes of degree > 200 recorded from the reference search ledger;
# they are reported, never recomputed at desk scale
RECORDED_EXTENDED_LEDGER = [
    (804, 28, 150),
    (2706, 100, 504),
    (7728, 288, 1439),
    (40992, 1534, 7632),
    (135786, 5088, 25280),
    (386880, 14500, 72027),
    (2049732, 76828, 381606),
    (6787218, 254404, 1263600),
]


# Per preset: first degree, degree step, and per orbit class (class order)
# either q, iterating that multiplicity over 0 .. d // q, or None for the one
# multiplicity solved as the least value that makes the class negative.
# Wiman ties its two triple orbits and has no reference ledger.
SEARCH_PLANS = {
    "klein": (4, 2, (None, 4)),
    "wiman": (6, 6, (5, None, 3)),
}


def solved_multiplicity(r, s):
    """The least m >= 0 with r - s m^2 < 0: the search's solved multiplicity,
    where r is the square of the class with that multiplicity 0."""
    return isqrt(r // s) + 1 if r >= 0 else 0


def negative_curve_search(preset, field, d_max, log=None, progress=None):
    """Effective invariant classes of negative self-intersection meeting all
    previously found ones nonnegatively.

    Replicates the reference loop exactly: degrees ascending, iterated
    multiplicities ascending (first class outermost), the solved multiplicity
    minimal, pruning of classes still negative with an iterated multiplicity
    one lower, then an exact series computation; a nonempty series appends
    the class to the ledger.  The iteration order is normative: changing it
    would change which candidates get series computations.  Candidates are
    integer tuples (d, m_1, ..., m_n) with the intersection form on ints; a
    DivisorClass is made only for a class that enters the ledger.
    """
    if preset not in SEARCH_PLANS:
        raise EngineError(f"no negative-curve search plan for preset {preset!r}")
    start, step, bounds = SEARCH_PLANS[preset]
    sizes = CLASS_SIZES[preset]
    solved = bounds.index(None)
    iterated = [i for i, q in enumerate(bounds) if q is not None]
    keys = ["m" + label[1:] for label in CLASS_LABELS[preset]]
    ledger = [line_class(preset)]
    found = [(int(c.degree), *map(int, c.mults)) for c in ledger]

    def meet(d, mults, old):
        return d * old[0] - sum(s * a * b for s, a, b in zip(sizes, mults, old[1:]))

    for d in range(start, d_max + 1, step):
        for values in product(*(range(d // q + 1) for q in bounds if q)):
            mults = list(values)
            r = d * d - sum(sizes[i] * m * m for i, m in zip(iterated, mults))
            mults.insert(solved, solved_multiplicity(r, sizes[solved]))
            if any(meet(d, mults, old) < 0 for old in found):
                continue
            square = r - sizes[solved] * mults[solved] ** 2
            # m_i one lower adds s_i (2 m_i - 1) to the square
            if any(square + sizes[i] * (2 * mults[i] - 1) < 0
                   for i in iterated if mults[i]):
                continue
            dim = series_dim(SeriesSpec(preset, d, **dict(zip(keys, mults))), field)
            if log is not None:
                log.append({"candidate": (d, *mults), "dim": dim})
            if progress is not None:
                progress(f"candidate ({','.join(map(str, (d, *mults)))}) dim {dim}")
            if dim > 0:
                ledger.append(DivisorClass.make(preset, d, *mults))
                found.append((d, *mults))
    return ledger


def _virtual_dim(c):
    """C(d + 2, 2) minus (orbit size) C(m + 1, 2) over the orbit classes."""
    count = (c.degree + 2) * (c.degree + 1) / 2
    for size, m in zip(CLASS_SIZES[c.preset], c.mults):
        count -= size * (m + 1) * m / 2
    return count


# Both sides of each count below have degree at most 2 in k, so agreement at
# k = 0, 1, 2 proves it for every k.

def klein_upper_bound_identity():
    """The dimension count behind the 13/2 upper bound: the virtual dimension
    of |D_k| = |(28k+2)H - 2k E4 - 5k E3| is 7k+6."""
    return all(_virtual_dim(klein_dk(k)) == 7 * k + 6 for k in range(3))


def wiman_upper_bound_identity():
    """The analogous count for the 45-line configuration: the class
    (36k+6)H - k E5 - 2k E4 - 3k E3 has virtual dimension 27k+28."""
    return all(_virtual_dim(DivisorClass.make("wiman", 36 * k + 6, k, 2 * k,
                                              3 * k)) == 27 * k + 28
               for k in range(3))


def klein_lower_bound(k):
    """(91k+24)/(14k+4): the bound certified by nefness of D_k."""
    k = Fraction(k)
    return (91 * k + 24) / (14 * k + 4)


# the ledger certifies D_k for the k with 28k + 2 <= its horizon, and k >= 1
# needs a horizon of at least 30
KLEIN_LEDGER_MIN_DMAX = 30


def waldschmidt_bounds(preset, field, ledger_dmax=None):
    """Certified bounds on the Waldschmidt constant of the singular points.

    Klein: the upper bound 13/2 comes from the dimension count; the lower
    bound is (91k+24)/(14k+4) for the largest k whose nef certificate closes:
    k = 16/7 from the effectivity of the degree-42 curve, or, with
    ledger_dmax, the integer k with 28k+2 <= ledger_dmax, checked against the
    ledger of the negative-curve search to that horizon.  Wiman: exactly 27/2.
    """
    report = {"preset": preset, "certificates": {}}
    if preset == "klein":
        if not klein_upper_bound_identity():
            raise EngineError("upper-bound dimension count failed")
        report["upper"] = Fraction(13, 2)
        report["certificates"]["upper"] = "virtual dimension of D_k is 7k+6 > 0"
        if ledger_dmax is None:
            a, b = line_class("klein"), KLEIN_CURVE_42
            dim = series_dim(SeriesSpec("klein", 42, m3=8), field)
            if dim < 1:
                raise EngineError("degree-42 curve not effective?")
            report["certificates"]["curve_dim"] = dim
            k = Fraction(16, 7)
            dk = klein_dk(k)
            identity = verify_divisor_identity([(8, a), (7, b)], [(7, dk)])
            positive = intersect(a, dk) > 0 and intersect(b, dk) > 0
            if not (identity and positive):
                raise EngineError("nef certificate for D_{16/7} failed")
            report["lower"] = klein_lower_bound(k)
            report["certificates"]["lower"] = {
                "k": k, "identity": "8A + 7B = 7D_k",
                "intersections_positive": True,
                "irreducibility": "reference-constant",
            }
        else:
            ledger = negative_curve_search("klein", field, ledger_dmax)
            k = (ledger_dmax - 2) // 28
            while k > 0 and any(intersect(klein_dk(k), c) < 0 for c in ledger):
                k -= 1
            if k <= 0:
                raise EngineError("no certified k in the ledger horizon")
            report["lower"] = klein_lower_bound(k)
            report["certificates"]["lower"] = {
                "k": k,
                "ledger": [c.as_text() for c in ledger],
                "ledger_horizon": ledger_dmax,
                "completeness": "reference-constant",
            }
        return report
    if preset == "wiman":
        if not wiman_upper_bound_identity():
            raise EngineError("upper-bound dimension count failed")
        a = line_class("wiman")
        b = WIMAN_CURVE_90
        d = WIMAN_NEF_CANDIDATE
        identity = verify_divisor_identity([(2, a), (3, b)], [(10, d)])
        orthogonal = (intersect(d, a) == 0 and intersect(d, b) == 0
                      and self_int(d) == 0)
        if not (identity and orthogonal):
            raise EngineError("nef certificate for the 36H class failed")
        dim = series_dim(SeriesSpec("wiman", 90, m4=4, m3=8), field)
        if dim < 1:
            raise EngineError("degree-90 curve not effective?")
        report["certificates"]["curve_dim"] = dim
        report["lower"] = Fraction(27, 2)
        report["upper"] = Fraction(27, 2)
        report["exact"] = Fraction(27, 2)
        report["certificates"]["identity"] = "2A + 3B = 10D, D.A = D.B = D^2 = 0"
        report["certificates"]["irreducibility"] = "reference-constant"
        return report
    raise EngineError(f"no Waldschmidt certificates for preset {preset!r}")
