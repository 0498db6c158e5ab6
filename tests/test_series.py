import random
from functools import lru_cache

import numpy as np
import pytest

from kleinwiman import kernels, linalg, series
from kleinwiman.cli import dispatch
from kleinwiman.divisors import negative_curve_search
from kleinwiman.errors import EngineError, SeriesError, UsageError
from kleinwiman.fields import preset_field
from kleinwiman.groups import PLANE_ORDERS, act_on_point, stabilizer
from kleinwiman.invariants import invariant_set
from kleinwiman.poly import local_expand, local_monomials, weighted_basis
from kleinwiman.series import (SeriesSpec, _condition_block, cond, dim_t, edim,
                               series_basis, series_dim, series_weights)


def expanded(basis, i):
    """Basis element i, expanded into the coordinate ring."""
    inv = invariant_set(basis.spec.preset, basis.field)
    gens = [inv.phi[w] for w in series_weights(basis.spec.preset)]
    return basis.weighted_polys()[i].substitute(gens)


COND_TABLE = {  # multiplicities 1..8 for the three point types
    3: [1, 1, 2, 3, 4, 5, 7, 8],
    4: [1, 1, 2, 2, 4, 4, 6, 6],
    5: [1, 1, 2, 2, 3, 4, 5, 6],
}


def test_cond_table_full():
    for n, row in COND_TABLE.items():
        assert [cond(n, m) for m in range(1, 9)] == row
    assert cond(3, 0) == cond(4, 0) == cond(5, 0) == 0


def test_cond_matches_series_expansion_oracle():
    # cond(n, m) is the t^m coefficient of t/((1-t)(1-t^2)(1-t^n))
    for n in (3, 4, 5):
        dmax = 40
        series = [0] * (dmax + 1)
        series[1] = 1
        for w in (1, 2, n):
            out = list(series)
            for d in range(w, dmax + 1):
                out[d] += out[d - w]
            series = out
        for m in range(dmax + 1):
            assert cond(n, m) == series[m]


def test_edim_examples():
    assert edim(SeriesSpec("klein", 42, m3=8)) == 1
    assert edim(SeriesSpec("wiman", 90, m4=4, m3=8)) == 0
    assert edim(SeriesSpec("klein", 42, m4=8, m3=6)) == 0
    assert edim(SeriesSpec("klein", 18, m4=4)) == 1


def test_dim_t_values():
    assert dim_t("klein", 18) == 3
    assert dim_t("klein", 42) == 9
    assert dim_t("wiman", 90) == 18


def test_dim_t_counts_the_weighted_basis():
    """dim_t counts the weighted monomials without listing them: the same
    count as weighted_basis.  The first degrees past kernels.WIDEST are 1648
    (Klein) and 2406 (Wiman): times the generator of least weight w0, no
    degree below has more monomials than one of the w0 just below."""
    for preset, first in (("klein", 1648), ("wiman", 2406)):
        weights = series_weights(preset)
        assert all(dim_t(preset, d) == len(weighted_basis(weights, d))
                   for d in range(300))
        assert dim_t(preset, first) > kernels.WIDEST >= max(
            dim_t(preset, d) for d in range(first - weights[0], first))
    assert dim_t("klein", 20000) == 1191905


def test_series_dims_klein(klein_modp):
    assert series_dim(SeriesSpec("klein", 18, m4=4), klein_modp) == 1
    assert series_dim(SeriesSpec("klein", 42, m3=8), klein_modp) == 1
    assert edim(SeriesSpec("klein", 42, m3=8)) == 1


def test_series_dim_wiman_unexpected(wiman_modp):
    spec = SeriesSpec("wiman", 90, m4=4, m3=8)
    assert series_dim(spec, wiman_modp) == 1 and edim(spec) == 0


def test_series_no_conditions_full_basis(klein_modp):
    b = series_basis(SeriesSpec("klein", 42), klein_modp)
    assert b.dim == dim_t("klein", 42) == 9


def test_unrepresentable_degree_empty(klein_modp):
    assert series_dim(SeriesSpec("klein", 5, m3=1), klein_modp) == 0
    assert series_dim(SeriesSpec("klein", 2), klein_modp) == 0


def test_exact_field_agrees_with_prime_field(klein_exact, klein_modp):
    golden = [SeriesSpec("klein", 18, m4=4), SeriesSpec("klein", 42, m3=8),
              SeriesSpec("klein", 24, m4=2, m3=2), SeriesSpec("klein", 28, m3=4),
              SeriesSpec("klein", 36, m4=4, m3=4)]
    for spec in golden:
        assert series_dim(spec, klein_exact) == series_dim(spec, klein_modp)


def test_multiplicity_exact_at_quadruple_points(klein_modp):
    # the generator of the degree-18 series has multiplicity exactly 4
    from kleinwiman.configs import build_klein
    b = series_basis(SeriesSpec("klein", 18, m4=4), klein_modp)
    f = expanded(b, 0)
    quad = build_klein(klein_modp).classes[0].representative
    t = local_expand(f, quad, 6)
    assert t.order_of_vanishing() == 4


def test_basis_multiplicity_at_random_orbit_point(klein_modp):
    """Invariance cross-check: conditions are imposed at one representative,
    so verify the expanded basis element at a different orbit point."""
    from kleinwiman.configs import build_klein
    cfg = build_klein(klein_modp)
    rng = random.Random(99)
    b = series_basis(SeriesSpec("klein", 42, m3=8), klein_modp)
    f = expanded(b, 0)
    field = klein_modp
    trips = cfg.classes[1].points
    rep = cfg.classes[1].representative
    others = [p for p in trips if p != rep and not field.is_zero(p[2])]
    pt = others[rng.randrange(len(others))]
    assert local_expand(f, pt, 9).order_of_vanishing() >= 8
    quads = [p for p in cfg.classes[0].points if not field.is_zero(p[2])]
    pt4 = quads[rng.randrange(len(quads))]
    b18 = series_basis(SeriesSpec("klein", 18, m4=4), klein_modp)
    assert local_expand(expanded(b18, 0), pt4, 6).order_of_vanishing() >= 4


def test_dim_at_least_edim_on_random_specs(klein_modp):
    rng = random.Random(20240818)
    for _ in range(50):
        d = 2 * rng.randrange(2, 31)  # even degrees up to 60
        m4 = rng.randrange(0, d // 4 + 1)
        m3 = rng.randrange(0, d // 4 + 1)
        spec = SeriesSpec("klein", d, m4=m4, m3=m3)
        assert series_dim(spec, klein_modp) >= edim(spec)


def test_multiplicity_jump_parity(klein_modp):
    # imposing a simple point forces a double point for invariant series
    for d in (12, 18, 24, 30):
        for kw in ({"m4": 1}, {"m3": 1}):
            kw2 = {k: 2 for k in kw}
            assert series_dim(SeriesSpec("klein", d, **kw), klein_modp) \
                == series_dim(SeriesSpec("klein", d, **kw2), klein_modp)


def test_spec_validation():
    with pytest.raises(SeriesError):
        SeriesSpec("klein", -1)
    with pytest.raises(SeriesError):
        SeriesSpec("klein", 10, m5=1)
    with pytest.raises(SeriesError):
        cond(6, 3)


def test_wiman_90_exact_field_matches_prime(wiman_exact, wiman_modp):
    """Full exact-field kernel over the quartic presentation: dimension 1 and
    the kernel line is the recorded combination."""
    from kleinwiman.invariants import wiman_curve_in_generators, wiman_invariants
    spec = SeriesSpec("wiman", 90, m4=4, m3=8)
    b = series_basis(spec, wiman_exact)
    assert b.dim == series_dim(spec, wiman_modp) == 1
    curve = wiman_curve_in_generators(wiman_invariants(wiman_exact))
    vec = curve.coeff_vector(b.exponents)
    f = wiman_exact
    k = next(i for i, c in enumerate(vec) if not f.is_zero(c))
    ratio = f.div(vec[k], b.vectors[0][k])
    assert all(f.mul(ratio, bc) == vc for bc, vc in zip(b.vectors[0], vec))


def test_wiman_split_triple_multiplicities(wiman_modp):
    tied = series_dim(SeriesSpec("wiman", 90, m4=4, m3=8), wiman_modp)
    split = series_dim(SeriesSpec("wiman", 90, m4=4, m3=8, m3b=8), wiman_modp)
    assert tied == split == 1
    # asymmetric multiplicities are allowed behind the flag
    asym = series_dim(SeriesSpec("wiman", 90, m4=4, m3=8, m3b=0), wiman_modp)
    assert asym >= 1


def _bivariate_rows(preset, field, rep, m, exps):
    """Coefficient rows of the local expansions of the weighted monomials,
    in local_monomials(m) order: the conditions the line rows replace."""
    inv = invariant_set(preset, field)
    gens = [local_expand(inv.phi[w], rep, m) for w in series_weights(preset)]
    cols = []
    for exp in exps:
        prod = gens[0] ** exp[0] * gens[1] ** exp[1] * gens[2] ** exp[2]
        cols.append([prod.coeff((i, j)) for i, j in local_monomials(m)])
    return [list(row) for row in zip(*cols)]


LINE_ROW_CASES = [
    ("klein", "klein_modp", 0, 18, 4),
    ("klein", "klein_modp", 1, 42, 8),
    ("klein", "klein_modp", 1, 60, 10),
    ("klein", "klein_modp", (2, 3, 1), 60, 5),
    ("wiman", "wiman_modp", 1, 90, 4),
    ("wiman", "wiman_modp", 2, 90, 8),
    ("wiman", "wiman_modp", 0, 60, 7),
    ("wiman", "wiman_modp", 3, 84, 7),
    ("wiman", "wiman_modp", (5, 7, 1), 84, 5),
    ("klein", "klein_exact", 0, 18, 4),
    ("klein", "klein_exact", 1, 42, 8),
    ("klein", "klein_exact", (1, 2, 1), 48, 4),
]


@pytest.mark.parametrize(
    "preset, fixture, where, d, m", LINE_ROW_CASES,
    ids=[f"{fx.replace('_', '-')}-{'class%d' % w if isinstance(w, int) else 'general'}"
         f"-d{d}-m{m}" for _, fx, w, d, m in LINE_ROW_CASES])
def test_line_rows_match_bivariate_rows(preset, fixture, where, d, m, request):
    """Rows on lines through a point cut out the same kernel as the
    coefficient rows of the local expansion: equal rank and the same
    canonical kernel.  `where` is an orbit class, whose representative
    reads its rows on fewer than m lines (their stabilizer orbits cover m
    tangent directions), or a general point, read on all m lines."""
    field = request.getfixturevalue(fixture)
    config = invariant_set(preset, field).config
    rep = config.classes[where].representative if isinstance(where, int) \
        else tuple(field.coerce(c) for c in where)
    exps = weighted_basis(series_weights(preset), d)
    point = series._point(preset, field, rep)
    lines = _condition_block(point, m, exps)
    ref = _bivariate_rows(preset, field, rep, m, exps)
    count = point.count(m)
    assert count < m if isinstance(where, int) else count == m
    assert len(lines) == sum(point.count(k + 1) for k in range(m))
    assert len(ref) == m * (m + 1) // 2
    n = len(exps)
    assert linalg.rank(lines, n, field) == linalg.rank(ref, n, field)
    k_lines, k_ref = linalg.kernel(lines, n, field), linalg.kernel(ref, n, field)
    assert 0 < len(k_ref) < n
    assert np.array_equal(k_lines, k_ref) if isinstance(k_ref, np.ndarray) \
        else k_lines == k_ref


# (preset, field, degree, multiplicities): at every class representative
PREFIX_CASES = [
    ("klein", "klein_modp", 60, (2, 4, 9, 13)),
    ("wiman", "wiman_modp", 90, (3, 8, 12)),
    ("klein", "klein_exact", 42, (3, 8)),
]


@pytest.mark.parametrize("preset, fixture, d, mults", PREFIX_CASES,
                         ids=[fx.replace("_", "-") for _, fx, _, _ in PREFIX_CASES])
def test_block_is_row_prefix_of_larger_block(preset, fixture, d, mults, request):
    """A representative's block at m is the first len(_block_rows(point, m))
    rows of its block at any larger M: the rows of each order do not depend
    on the multiplicity."""
    field = request.getfixturevalue(fixture)
    exps = weighted_basis(series_weights(preset), d)
    for cls in invariant_set(preset, field).config.classes:
        point = series._point(preset, field, cls.representative)
        top = _condition_block(point, mults[-1], exps)
        for m in mults[:-1]:
            block = _condition_block(point, m, exps)
            n = len(series._block_rows(point, m))
            assert len(block) == n < len(top)
            assert np.array_equal(block, top[:n]) if isinstance(top, np.ndarray) \
                else block == top[:n], (cls.label, m)


def _column_by_column(point, m, exps):
    """The condition block over F_p one column at a time: each generator's
    powers by repeated (lines, m) products, then two products per column."""
    p = point.field.p
    rows = series._block_rows(point, m)
    one = np.zeros((point.count(m), m), dtype=np.int64)
    one[:, 0] = 1
    powers = []
    for i in range(3):
        base = point.line_values(i, m)
        row = [one]
        for _ in range(max(e[i] for e in exps)):
            row.append(kernels.trunc_mul_mod(row[-1], base, p))
        powers.append(row)
    out = np.empty((len(rows), len(exps)), dtype=np.int64)
    for n, (a, b, c) in enumerate(exps):
        col = kernels.trunc_mul_mod(powers[0][a], powers[1][b], p)
        col = kernels.trunc_mul_mod(col, powers[2][c], p)
        out[:, n] = [col[line, k] for line, k in rows]
    return out


# (preset, field, class, m, d): per representative, blocks whose m and
# largest exponent both rise and fall, so that a shuffled order builds cold
# tables, grows them in m or in the exponent, and slices larger ones
POWER_TABLE_BLOCKS = [
    ("klein", "klein-mod4733", 0, 4, 18), ("klein", "klein-mod4733", 0, 9, 60),
    ("klein", "klein-mod4733", 0, 6, 90), ("klein", "klein-mod4733", 0, 12, 42),
    ("klein", "klein-mod4733", 1, 8, 42), ("klein", "klein-mod4733", 1, 3, 120),
    ("klein", "klein-mod4733", 1, 14, 84), ("klein", "klein-mod4733", 1, 10, 30),
    ("wiman", "wiman-mod4951", 0, 7, 60), ("wiman", "wiman-mod4951", 0, 3, 90),
    ("wiman", "wiman-mod4951", 1, 4, 90), ("wiman", "wiman-mod4951", 1, 9, 42),
    ("wiman", "wiman-mod4951", 2, 8, 90), ("wiman", "wiman-mod4951", 2, 5, 36),
    ("klein", "mod29", 1, 29, 60), ("klein", "mod29", 1, 12, 84),
    ("klein", "mod29", 0, 20, 30), ("klein", "mod29", 0, 29, 48),
]


def test_power_tables_match_column_by_column(klein_modp, wiman_modp):
    """Blocks read from the shared power tables equal the column-by-column
    products, whatever order the tables were built, grown and sliced in;
    m = p over F_29 is the most a table grows to."""
    fields = {"klein-mod4733": klein_modp, "wiman-mod4951": wiman_modp,
              "mod29": preset_field("modp", 29)}
    seen = set()
    for seed in range(3):
        fresh = lru_cache(maxsize=None)(series._point.__wrapped__)  # no tables yet
        blocks = list(POWER_TABLE_BLOCKS)
        random.Random(seed).shuffle(blocks)
        for preset, name, cls, m, d in blocks:
            field = fields[name]
            rep = invariant_set(preset, field).config.classes[cls].representative
            point = fresh(preset, field, rep)
            exps = weighted_basis(series_weights(preset), d)
            for i, tab in enumerate(point.tables):
                e = max(x[i] for x in exps)
                seen.add("cold" if tab is None else "grown" if tab.shape[2] < m
                         or len(tab) <= e else "sliced")
            got = _condition_block(point, m, exps)
            assert np.array_equal(got, _column_by_column(point, m, exps))
    assert seen == {"cold", "grown", "sliced"}


def test_power_table_and_block_allocations_are_bounded(klein_modp, monkeypatch):
    """A power table grown past kernels.MAX_BYTES, and a condition block
    allocated by _condition_block itself, are a UsageError naming the shape
    before anything is allocated; the table held stays as it was."""
    rep = invariant_set("klein", klein_modp).config.classes[0].representative
    point = series._point.__wrapped__("klein", klein_modp, rep)
    tab = point.table(0, 4, 3)
    monkeypatch.setattr(kernels, "MAX_BYTES", 2 * tab.nbytes)
    with pytest.raises(UsageError, match=r"a 21 x \d+ x \d+ int64 matrix"):
        point.table(0, 4, 20)
    assert point.tables[0] is tab
    exps = weighted_basis(series_weights("klein"), 48)
    monkeypatch.setattr(kernels, "MAX_BYTES", 8 * len(exps))
    with pytest.raises(UsageError, match=rf"a \d+ x {len(exps)} int64 matrix"):
        _condition_block(point, 2, exps)


# (preset, field, degrees, multiplicities): blocks at every class
# representative, with kernels from everything down to nothing
ORBIT_LINE_CASES = [
    ("klein", "klein-mod4733", (42, 60, 144), (4, 8, 13, 27)),
    ("klein", "klein-exact", (42, 48), (4, 8)),
    ("wiman", "wiman-mod4951", (60, 90), (5, 8, 12)),
    ("wiman", "wiman-exact", (30,), (3, 4)),
    ("klein", "mod29", (168, 240), (14, 22, 29)),
    ("wiman", "mod19", (90, 120), (11, 19)),
]


def test_orbit_lines_cut_out_the_kernel_of_all_lines(klein_modp, wiman_modp,
                                                     klein_exact, wiman_exact):
    """At every class representative, the block read on the lines whose
    stabilizer orbits cover m tangent directions has the canonical kernel
    of the block read on all m slopes 0 .. m - 1, the block of the same
    point with no tangent maps; each stabilizer element fixes its point,
    and there are |G| / |orbit| of them."""
    fields = {"klein-mod4733": klein_modp, "wiman-mod4951": wiman_modp,
              "klein-exact": klein_exact, "wiman-exact": wiman_exact,
              "mod29": preset_field("modp", 29), "mod19": preset_field("modp", 19)}
    proper = set()
    for preset, name, degrees, mults in ORBIT_LINE_CASES:
        field = fields[name]
        config = invariant_set(preset, field).config
        for cls in config.classes:
            rep = cls.representative
            order = PLANE_ORDERS[preset] // cls.size
            elements = stabilizer(config.gens, rep, order)
            assert len({g.projective_key() for g in elements}) == order
            assert all(act_on_point(g, rep) == rep for g in elements)
            point = series._point(preset, field, rep)
            for d in degrees:
                exps = weighted_basis(series_weights(preset), d)
                for m in mults:
                    lines = _condition_block(point, m, exps)
                    assert point.count(m) < m
                    every = _condition_block(
                        series._Point(preset, field, rep, []), m, exps)
                    assert len(every) == m * (m + 1) // 2
                    n = len(exps)
                    got, want = (linalg.kernel(lines, n, field),
                                 linalg.kernel(every, n, field))
                    assert np.array_equal(got, want) \
                        if isinstance(want, np.ndarray) else got == want, \
                        (preset, name, cls.label, d, m)
                    if 0 < len(want) < n:
                        proper.add(name)
    assert proper == set(fields)
    # slopes run out over F_p once m exceeds the p + 1 tangent directions
    rep = invariant_set("klein", fields["mod29"]).config.classes[1].representative
    with pytest.raises(EngineError):
        series._point.__wrapped__("klein", fields["mod29"], rep).count(31)


def test_multiplicity_above_characteristic_is_usage_error(monkeypatch):
    """The conditions need m distinct slopes: over F_p, m <= p.  A larger
    multiplicity is a usage error before its condition rows are built,
    through series_basis, series_dim, the negative-curve search and the CLI
    (exit 2, no report)."""
    f29 = preset_field("modp", 29)
    built = []
    block = series._condition_block

    def recording_block(point, m, exps, out=None):
        built.append(m)
        return block(point, m, exps, out)

    monkeypatch.setattr(series, "_condition_block", recording_block)
    with pytest.raises(UsageError):
        series_basis(SeriesSpec("klein", 12, m3=30), f29)
    with pytest.raises(UsageError):
        series_dim(SeriesSpec("klein", 12, m3=30), f29)
    assert built == []
    assert series_dim(SeriesSpec("klein", 12, m3=29), f29) == 0
    assert built == [29]
    with pytest.raises(UsageError):
        series_basis(SeriesSpec("klein", 12, m4=30, m3=2), f29)
    with pytest.raises(UsageError):
        series_dim(SeriesSpec("klein", 12, m4=30, m3=2), f29)
    assert built == [29]
    # over F_19 the Wiman search reaches m5 = 20 at its candidate (126; 20, 6, 0)
    built.clear()
    with pytest.raises(UsageError):
        negative_curve_search("wiman", preset_field("modp", 19), 126)
    assert len(built) > 1 and max(built) == 19
    argv = ["series", "--preset", "klein", "--d", "12", "--m3", "30",
            "--field", "modp:29"]
    assert dispatch(argv) == (2, None)
    assert dispatch(argv + ["--basis"]) == (2, None)
    assert dispatch(["negsearch", "--preset", "wiman", "--field", "modp:19",
                     "--dmax", "126"]) == (2, None)
    assert max(built) == 19


def test_series_dim_matches_basis(klein_modp, wiman_modp, klein_exact):
    """series_dim, a rank, equals the size of the kernel basis: random Klein
    and Wiman specs over F_p, an untied m3b, no conditions, unrepresentable
    degrees, and one exact-field spec."""
    rng = random.Random(15)
    cases = [(SeriesSpec("klein", 42), klein_modp),
             (SeriesSpec("klein", 43, m3=2), klein_modp),
             (SeriesSpec("wiman", 92, m4=2), wiman_modp),
             (SeriesSpec("wiman", 60, m5=5, m4=4, m3=3, m3b=1), wiman_modp),
             (SeriesSpec("wiman", 90, m4=4, m3=8, m3b=7), wiman_modp),
             (SeriesSpec("klein", 42, m3=8), klein_exact),
             # the paper's curves, dim 1
             (SeriesSpec("wiman", 90, m4=4, m3=8), wiman_modp),
             (SeriesSpec("klein", 144, m4=4, m3=27), klein_modp)]
    for _ in range(10):
        # near the search's candidates: the least negative m4, or one or two less
        d = rng.randrange(100, 171, 2)
        m3 = rng.randint(0, d // 6)
        m4 = 0
        while d * d - 21 * m4 * m4 - 28 * m3 * m3 >= 0:
            m4 += 1
        m4 = max(0, m4 - rng.randint(0, 2))
        cases.append((SeriesSpec("klein", d, m4=m4, m3=m3), klein_modp))
    for _ in range(8):
        d = rng.randrange(12, 91, 6)
        m5, m4, m3 = (rng.randint(0, d // k) for k in (9, 8, 7))
        cases.append((SeriesSpec("wiman", d, m5=m5, m4=m4, m3=m3,
                                 m3b=rng.choice([None, rng.randint(0, d // 7)])),
                      wiman_modp))
    dims = []
    for spec, field in cases:
        dims.append(series_dim(spec, field))
        assert dims[-1] == series_basis(spec, field).dim, spec
    assert dims[:3] == [dim_t("klein", 42), 0, 0] and dims[6:8] == [1, 1]
    assert any(dims[8:]) and not all(dims[8:])
