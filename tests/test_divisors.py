import hashlib
import random
from fractions import Fraction

import pytest

from kleinwiman.divisors import (CLASS_SIZES, DivisorClass, KLEIN_CURVE_42,
                                 SEARCH_PLANS, WIMAN_CURVE_90,
                                 WIMAN_NEF_CANDIDATE, _virtual_dim, combine,
                                 intersect, klein_dk, klein_lower_bound,
                                 klein_upper_bound_identity, line_class,
                                 negative_curve_search, self_int,
                                 solved_multiplicity, verify_divisor_identity,
                                 waldschmidt_bounds, wiman_upper_bound_identity)
from kleinwiman.errors import EngineError
from kleinwiman.fields import preset_field
from kleinwiman.series import SeriesSpec, series_basis


def test_intersection_examples():
    assert self_int(line_class("klein")) == -147
    assert self_int(DivisorClass.make("klein", 42, 0, 8)) == -28
    assert self_int(DivisorClass.make("wiman", 90, 0, 4, 8)) == -300
    assert self_int(WIMAN_NEF_CANDIDATE) == 0
    assert intersect(WIMAN_NEF_CANDIDATE, line_class("wiman")) == 0
    assert self_int(line_class("wiman")) == 45 ** 2 - 25 * 36 - 16 * 45 - 9 * 120


def test_bilinearity_and_symmetry():
    rng = random.Random(2)
    for _ in range(25):
        a, b, c = (DivisorClass.make("klein", rng.randrange(-9, 10),
                                     Fraction(rng.randrange(-9, 10), rng.randrange(1, 4)),
                                     rng.randrange(-9, 10))
                   for _ in range(3))
        lam = Fraction(rng.randrange(-5, 6), rng.randrange(1, 5))
        assert intersect(a, b) == intersect(b, a)
        assert intersect(combine([(1, a), (lam, b)]), c) \
            == intersect(a, c) + lam * intersect(b, c)


def test_limit_class_orthogonal_to_lines():
    limit = DivisorClass.make("klein", 28, 2, 5)
    assert intersect(limit, line_class("klein")) == 0
    for k in (1, 2, Fraction(16, 7), 7):
        assert intersect(klein_dk(k), line_class("klein")) > 0


def test_divisor_identities():
    a = line_class("klein")
    assert verify_divisor_identity([(8, a), (7, KLEIN_CURVE_42)],
                                   [(7, klein_dk(Fraction(16, 7)))])
    aw = line_class("wiman")
    assert verify_divisor_identity([(2, aw), (3, WIMAN_CURVE_90)],
                                   [(10, WIMAN_NEF_CANDIDATE)])
    assert verify_divisor_identity([(1, a)], [(1, a)])
    assert not verify_divisor_identity([(1, a)], [(2, a)])
    assert klein_upper_bound_identity() and wiman_upper_bound_identity()


def test_mismatched_configurations():
    with pytest.raises(EngineError):
        intersect(line_class("klein"), line_class("wiman"))


def test_negsearch_trivial_cap(klein_modp):
    assert [c.as_text() for c in negative_curve_search("klein", klein_modp, 2)] \
        == ["21H - 4E4 - 3E3"]


def test_negsearch_needs_a_plan():
    """klein-char7 has no search plan; it used to run the Wiman loop."""
    with pytest.raises(EngineError, match="no negative-curve search plan"):
        negative_curve_search("klein-char7", preset_field("klein-mod7"), 12)


@pytest.mark.parametrize("preset, edge_cases", [
    ("klein", [(7, 1), (14, 2), (4, 1)]),
    ("wiman", [(9, 1, 0), (6, 1, 0), (6, 0, 1)]),
], ids=["klein", "wiman"])
def test_search_closed_form(preset, edge_cases):
    """The search's closed forms against self_int, at random degrees up to 804
    and random iterated multiplicities in the search's ranges, plus the edge
    cases r = s k^2, r = 0 and r < 0 (r: the square at m = 0): the solved
    multiplicity is the least with a negative square, found by a brute loop,
    and square + s_i (2 m_i - 1) is the square of each class with m_i one
    lower."""
    _, _, bounds = SEARCH_PLANS[preset]
    sizes = CLASS_SIZES[preset]
    solved = bounds.index(None)
    rng = random.Random(804)
    cases = [(d, *(rng.randint(0, d // q) for q in bounds if q))
             for d in (rng.randint(1, 804) for _ in range(40))]
    for d, *values in edge_cases + cases:
        mults = list(values)
        mults.insert(solved, 0)
        m = solved_multiplicity(self_int(DivisorClass.make(preset, d, *mults)),
                                sizes[solved])
        while self_int(DivisorClass.make(preset, d, *mults)) >= 0:
            mults[solved] += 1
        assert m == mults[solved], (d, values)
        square = self_int(DivisorClass.make(preset, d, *mults))
        for i, mi in enumerate(mults):
            lowered = DivisorClass.make(preset, d, *(mj - (j == i)
                                                     for j, mj in enumerate(mults)))
            assert square + sizes[i] * (2 * mi - 1) == self_int(lowered)


def test_negsearch_to_60(klein_modp):
    led = negative_curve_search("klein", klein_modp, 60)
    assert [c.as_text() for c in led] \
        == ["21H - 4E4 - 3E3", "18H - 4E4", "42H - 8E3"]


# sha256 of the search logs, one "(d, m...) dim" line per candidate, as
# computed with Fraction classes and per-column series products
SEARCH_LOG_SHA256 = {
    ("klein", 200): (98, "c4830e66e7c93880f3b709258de652d5"
                         "a85fb7534607df928d60fd7df1568d15"),
    ("wiman", 90): (139, "0a2ba8c222c502241b725f120e44edf5"
                         "53b467a28d2394a68f6c77b57b5ca4cb"),
}


@pytest.mark.parametrize("preset, d_max", list(SEARCH_LOG_SHA256))
def test_search_log_pinned(preset, d_max, klein_modp, wiman_modp):
    """The candidates, their order, their dimensions and the progress lines
    of the Klein search to 200 and the Wiman search to 90 stay as pinned."""
    field = klein_modp if preset == "klein" else wiman_modp
    log, lines = [], []
    negative_curve_search(preset, field, d_max, log=log, progress=lines.append)
    text = "".join(f"{e['candidate']} {e['dim']}\n" for e in log)
    count, digest = SEARCH_LOG_SHA256[preset, d_max]
    assert len(log) == count
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert lines == [f"candidate ({','.join(map(str, e['candidate']))}) "
                     f"dim {e['dim']}" for e in log]


@pytest.mark.parametrize("preset, exact, modp, d_max, tried", [
    ("klein", "klein_exact", "klein_modp", 24, 16),
    ("wiman", "wiman_exact", "wiman_modp", 12, 5),
], ids=["klein", "wiman"])
def test_search_over_number_field_matches_prime_field(preset, exact, modp, d_max,
                                                      tried, request):
    """Over Q(zeta7) and Q(sqrt5, omega) each degree's blocks are lists of
    rows, and a candidate's matrix their stacked prefixes: the search logs
    equal those over F_4733 and F_4951, a nonempty series included."""
    logs = []
    for fixture in (exact, modp):
        log = []
        negative_curve_search(preset, request.getfixturevalue(fixture), d_max,
                              log=log)
        logs.append(log)
    assert logs[0] == logs[1] and len(logs[0]) == tried
    assert any(entry["dim"] for entry in logs[0])


def test_ledger_entries_postconditions(klein_modp):
    """Every found class has negative self-intersection, meets earlier entries
    nonnegatively, and has a nonempty series."""
    led = negative_curve_search("klein", klein_modp, 60)
    for i, c in enumerate(led):
        assert self_int(c) < 0
        for prev in led[:i]:
            assert intersect(c, prev) >= 0
        if i > 0:  # the line class itself is not a series member
            spec = SeriesSpec("klein", int(c.degree), m4=int(c.mults[0]),
                              m3=int(c.mults[1]))
            assert series_basis(spec, klein_modp).dim > 0


def test_waldschmidt_klein(klein_modp):
    rep = waldschmidt_bounds("klein", klein_modp)
    assert rep["lower"] == Fraction(58, 9)
    assert rep["upper"] == Fraction(13, 2)
    rep2 = waldschmidt_bounds("klein", klein_modp, 60)
    assert rep2["lower"] == klein_lower_bound(2) == Fraction(206, 32)


def test_waldschmidt_ledger_is_the_search(klein_modp):
    """With a horizon the bounds read the ledger of the search to it."""
    rep = waldschmidt_bounds("klein", klein_modp, 60)
    led = negative_curve_search("klein", klein_modp, 60)
    assert rep["certificates"]["lower"]["ledger"] == [c.as_text() for c in led]


def test_virtual_dim_beyond_evaluation_points():
    """The counts 7k+6 and 27k+28, proved from k = 0, 1, 2, hold further on."""
    for k in range(3, 13):
        assert _virtual_dim(klein_dk(k)) == 7 * k + 6
        wiman = DivisorClass.make("wiman", 36 * k + 6, k, 2 * k, 3 * k)
        assert _virtual_dim(wiman) == 27 * k + 28


def test_waldschmidt_wiman(wiman_modp):
    rep = waldschmidt_bounds("wiman", wiman_modp)
    assert rep["exact"] == Fraction(27, 2)


def test_klein_lower_bound_values():
    assert klein_lower_bound(7) == Fraction(661, 102)
    assert klein_lower_bound(Fraction(16, 7)) == Fraction(58, 9)
