"""Discrepancy engines against hand values, brute force, and each other."""

import itertools
import math
import re
import tracemalloc
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extdisc import (
    CHUNK,
    BudgetExceededError,
    InternalConsistencyError,
    InvalidInputError,
    Method,
    PointSet,
    WeightKind,
    WeightSet,
    classify_weights,
    duality_gap_mc,
    engines,
    equal_weights,
    extreme_l2_exact,
    extreme_linf_exact,
    extreme_linf_lower_mc,
    extreme_lp_exact_even_p,
    extreme_lp_mc,
    substream,
)
from extdisc import core
from extdisc.engines import CellDecomposition
from extdisc.generators import GeneratorKind, GeneratorSpec, generate


def empty(d):
    return PointSet(np.empty((0, d))), WeightSet(np.empty(0), WeightKind.NONNEG)


def random_instance(rng, d, nmax=8, kind=WeightKind.NONNEG):
    n = int(rng.integers(1, nmax + 1))
    ps = PointSet(rng.random((n, d)))
    if kind is WeightKind.QMC:
        return ps, equal_weights(n)
    vals = rng.random(n) * 2.0
    if kind is WeightKind.GENERAL:
        vals = vals - 1.0
    return ps, WeightSet(vals, kind)


def brute_force_lp_1d(ps, ws, p, cells=2000):
    """Midpoint Riemann sum of |Delta|^p over the triangle {a <= b}, d=1."""
    mids = (np.arange(cells) + 0.5) / cells
    a, b = np.meshgrid(mids, mids, indexing="ij")
    counts = np.zeros_like(a)
    for x, c in zip(ps.coords[:, 0], ws.values):
        counts += c * ((a <= x) & (x < b))
    integrand = np.abs(counts - (b - a)) ** p
    return (np.sum(integrand[a <= b]) / cells**2) ** (1.0 / p)


def count_tensor(weights, mats):
    """Weighted counts over the product of per-axis pair sets.

    mats[j][i, k] is 1.0 when point k meets axis j's condition of pair i.
    """
    if len(mats) == 1:
        return mats[0] @ weights
    if len(mats) == 2:
        return np.einsum("ak,bk,k->ab", mats[0], mats[1], weights, optimize=True)
    return np.stack([count_tensor(weights * row, mats[1:]) for row in mats[0]])


def reference_even_p(ps, ws, p):
    """Even-p value from dense (cell pairs x n) membership matrices."""
    cd = CellDecomposition.from_points(ps)
    moments, members = [], []
    for g, pos in zip(cd.gammas, cd.pos):
        s, t = np.triu_indices(len(g) - 1)
        a0, a1, b0, b1 = g[s], g[s + 1], g[t], g[t + 1]
        m = np.empty((p + 1, len(s)))
        for i in range(p + 1):
            k, den = i + 2, (i + 1) * (i + 2)
            rect = ((b1 - a0) ** k - (b1 - a1) ** k - (b0 - a0) ** k + (b0 - a1) ** k) / den
            m[i] = np.where(s == t, (a1 - a0) ** k / den, rect)
        moments.append(m)
        # the cell (s, t) holds the points on grid lines s+1 .. t
        members.append(((s[:, None] < pos) & (pos <= t[:, None])).astype(np.float64))
    coeffs = [math.comb(p, i) * (-1) ** i for i in range(p + 1)]
    parts = []
    if ps.d == 1:
        counts = members[0] @ ws.values
        for i in range(p + 1):
            parts.append(coeffs[i] * float(np.sum(counts ** (p - i) * moments[0][i])))
    else:
        rest = [reduce(np.multiply.outer, [m[i] for m in moments[1:]]) for i in range(p + 1)]
        for a in range(members[0].shape[0]):
            counts = count_tensor(ws.values * members[0][a], members[1:])
            for i in range(p + 1):
                parts.append(
                    coeffs[i] * moments[0][i][a] * float(np.sum(counts ** (p - i) * rest[i]))
                )
    return max(math.fsum(parts), 0.0) ** (1.0 / p)


def reference_linf(ps, ws):
    """Sup-norm value from dense (grid pairs x n) closed and open memberships."""
    cd = CellDecomposition.from_points(ps)
    sides, closed, opened = [], [], []
    for g, pos in zip(cd.gammas, cd.pos):
        u, v = np.triu_indices(len(g))
        sides.append(g[v] - g[u])
        closed.append(((u[:, None] <= pos) & (pos <= v[:, None])).astype(np.float64))
        opened.append(((u[:, None] < pos) & (pos < v[:, None])).astype(np.float64))
    if ps.d == 1:
        pos_side = closed[0] @ ws.values - sides[0]
        neg_side = sides[0] - opened[0] @ ws.values
        return max(float(pos_side.max()), float(neg_side.max()))
    best = 0.0
    rest_side = reduce(np.multiply.outer, sides[1:])
    for a in range(len(sides[0])):
        vol = sides[0][a] * rest_side
        pos_side = count_tensor(ws.values * closed[0][a], closed[1:]) - vol
        neg_side = vol - count_tensor(ws.values * opened[0][a], opened[1:])
        best = max(best, float(pos_side.max()), float(neg_side.max()))
    return best


def reference_slab_linf(ps, ws):
    """Sup-norm value from every grid box, axis 0 differenced in slabs.

    This is the engine's previous scan: per side, the prefix table is
    differenced over axes 1.., and every ordered axis-0 pair (u, v) is
    evaluated as sign * (counts - (g_v - g_u) R), O(grid pairs) per column.
    """
    cd = CellDecomposition.from_points(ps)
    pairs = [np.triu_indices(len(g)) for g in cd.gammas]
    sides = [g[v] - g[u] for g, (u, v) in zip(cd.gammas, pairs)]
    rest_side = np.ravel(reduce(np.multiply.outer, sides[1:], 1.0))
    prefix = cd.prefix_weights(ws.values)
    closed = [(u, v + 1) for u, v in pairs]
    opened = [(u + 1, np.maximum(v, u + 1)) for u, v in pairs]
    best = 0.0
    for sign, bounds in ((1.0, closed), (-1.0, opened)):
        table = prefix
        for axis in range(1, prefix.ndim):
            lo, hi = bounds[axis]
            diff = np.take(table, hi, axis=axis)
            diff -= np.take(table, lo, axis=axis)
            table = diff
        table = table.reshape(len(table), -1)
        lo, hi = bounds[0]
        step = max(1, (1 << 16) // table.shape[1])
        for start in range(0, len(lo), step):
            rows = slice(start, start + step)
            counts = table[hi[rows]] - table[lo[rows]]
            vol = sides[0][rows, None] * rest_side
            best = max(best, float((sign * (counts - vol)).max()))
    return best


def reference_full_l2(ps, ws):
    """(pair, cross, 12^-d) of the closed-form L2^2 = pair - 2 cross + 12^-d.

    This is the engine's previous kernel: each row block of about 2^16
    entries meets every column, so each pair of points is evaluated twice,
    once per order.
    """
    n, d = ps.n, ps.d
    w, cols = ws.values, np.ascontiguousarray(ps.coords.T)
    kw = np.empty(n)
    step = max(1, (1 << 16) // max(n, 1))
    for start in range(0, n, step):
        rows = slice(start, start + step)
        block = 1.0
        for a, b in zip(cols[:, rows, None], cols):
            mix = np.minimum(a, b)
            mix -= a * b
            block *= mix
        kw[rows] = block @ w
    g = (1.0 - ps.coords**3 - (1.0 - ps.coords) ** 3) / 6.0
    return float(w @ kw), float(w @ np.prod(g, axis=1)), 12.0**-d


def rational_l2_power(ps, ws):
    """The closed-form L2^2 in exact rational arithmetic, over all ordered pairs."""
    xs = [[Fraction(float(v)) for v in row] for row in ps.coords]
    cs = [Fraction(float(c)) for c in ws.values]
    pair = sum(
        cj * ck * math.prod(min(a, b) - a * b for a, b in zip(xj, xk))
        for xj, cj in zip(xs, cs)
        for xk, ck in zip(xs, cs)
    )
    cross = sum(c * math.prod((1 - a**3 - (1 - a) ** 3) / 6 for a in x) for x, c in zip(xs, cs))
    return pair - 2 * cross + Fraction(1, 12**ps.d)


def vdc_1d(n):
    return generate(GeneratorSpec(GeneratorKind.VDC_HAMMERSLEY, n, 1))


def rational_lp_power(ps, ws, p):
    """Exact integral of |Delta|^p over {0 <= a <= b <= 1} for d = 1.

    Cells are products of grid intervals; on the rectangle [a0, a1] x [b0, b1]
    with count C the integrand (C - b + a)^p is the mixed derivative of
    -(C - b + a)^(p+2) / ((p+1)(p+2)).  A diagonal cell of side L has C = 0
    and contributes L^(p+2) / ((p+1)(p+2)).  Everything is scaled to
    integers by the common denominator of the binary64 inputs.
    """
    xs = [Fraction(float(x)) for x in ps.coords[:, 0]]
    cs = [Fraction(float(c)) for c in ws.values]
    den = math.lcm(1, *(f.denominator for f in xs + cs))
    grid = sorted({0, den, *(int(x * den) for x in xs)})
    line = {g: i for i, g in enumerate(grid)}
    on_line = [0] * len(grid)
    for x, c in zip(xs, cs):
        on_line[line[int(x * den)]] += int(c * den)
    k = p + 2
    total = 0
    for s in range(len(grid) - 1):
        a0, a1 = grid[s], grid[s + 1]
        total += (a1 - a0) ** k
        count = 0
        for t in range(s + 1, len(grid) - 1):
            b0, b1 = grid[t], grid[t + 1]
            count += on_line[t]
            total -= (
                (count - b1 + a1) ** k
                - (count - b0 + a1) ** k
                - (count - b1 + a0) ** k
                + (count - b0 + a0) ** k
            )
    return Fraction(total, (p + 1) * (p + 2) * den**k)


def rational_cell_sum(ps, ws, p):
    """Exact integral of |Delta|^p over the anchor domain in any d, by cells.

    On the cell of grid interval pairs (s_j, t_j) the count C is constant,
    and (C - prod_j (b_j - a_j))^p expands by the binomial theorem into
    products of per-axis moments of (b - a)^i; in rational arithmetic the
    terms cancel without loss.  The cell (s, t) of an axis holds the points
    on grid lines s+1 .. t.
    """
    axes = []
    for x in ps.coords.T:
        xs = [Fraction(float(v)) for v in x]
        g = sorted({Fraction(0), Fraction(1), *xs})
        pos = [g.index(v) for v in xs]
        pairs = []
        for s in range(len(g) - 1):
            for t in range(s, len(g) - 1):
                a0, a1, b0, b1 = g[s], g[s + 1], g[t], g[t + 1]
                moments = []
                for i in range(p + 1):
                    k = i + 2
                    if s == t:
                        m = (a1 - a0) ** k
                    else:
                        m = (b1 - a0) ** k - (b1 - a1) ** k - (b0 - a0) ** k + (b0 - a1) ** k
                    moments.append(m / ((i + 1) * (i + 2)))
                pairs.append((moments, {q for q, r in enumerate(pos) if s < r <= t}))
        axes.append(pairs)
    cs = [Fraction(float(c)) for c in ws.values]
    coeffs = [math.comb(p, i) * (-1) ** i for i in range(p + 1)]
    total = Fraction(0)
    for cell in itertools.product(*axes):
        count = sum(cs[q] for q in set.intersection(*(inside for _, inside in cell)))
        for i in range(p + 1):
            total += coeffs[i] * count ** (p - i) * math.prod(m[i] for m, _ in cell)
    return total


def cell_sum_error(ps, ws, p, exact):
    """(error bound, actual relative error) of the even-p engine's p-th power total.

    The bound is the one the engine checks, read from `engines._even_p_sum`
    also where the engine raises; a total <= 0 has an infinite bound.
    """
    total, size = engines._even_p_sum(CellDecomposition.from_points(ps), ws, p)
    bound = np.finfo(np.float64).eps * size / total if total > 0.0 else math.inf
    return bound, float(abs(Fraction(total) - exact) / exact)


class TestEmptyRule:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_l2(self, d):
        ps, ws = empty(d)
        assert extreme_l2_exact(ps, ws).value == pytest.approx(12.0 ** (-d / 2), abs=1e-14)

    @pytest.mark.parametrize("p", [2, 4])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_even(self, p, d):
        ps, ws = empty(d)
        expect = ((p + 1) * (p + 2)) ** (-d / p)
        assert extreme_lp_exact_even_p(ps, ws, p).value == pytest.approx(expect, abs=1e-13)

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_linf_is_one(self, d):
        ps, ws = empty(d)
        assert extreme_linf_exact(ps, ws).value == 1.0

    def test_mc_agrees(self):
        ps, ws = empty(2)
        res = extreme_lp_mc(ps, ws, 3.0, 200_000, seed=42)
        expect = 20.0 ** (-2 / 3)
        assert abs(res.value - expect) < 3 * res.stderr
        assert res.stderr < 1e-3


class TestHandValues:
    def test_one_center_l2(self):
        # single midpoint with weight 1: pair term 1/4, cross term 1/4, so
        # the squared value collapses back to 1/12
        ps = PointSet([[0.5]])
        res = extreme_l2_exact(ps, equal_weights(1))
        assert res.value == pytest.approx(12.0**-0.5, abs=1e-15)
        assert res.method is Method.L2_EXACT

    def test_two_point_linf_exact_half(self):
        ps = PointSet([[0.25], [0.75]])
        assert extreme_linf_exact(ps, equal_weights(2)).value == 0.5

    def test_cluster_negative_side(self):
        # five near-zero points; boxes just inside (0.05, 1) miss them all,
        # so the negative side reaches 0.95, only visible with open counts
        ps = PointSet([[0.01], [0.02], [0.03], [0.04], [0.05]])
        ws = WeightSet(np.full(5, 0.1), WeightKind.NONNEG)
        assert extreme_linf_exact(ps, ws).value == pytest.approx(0.95, abs=1e-15)

    def test_full_weight_point_linf(self):
        # shrinking boxes onto the point keep count 1 with vanishing volume
        ps = PointSet([[0.5, 0.5]])
        assert extreme_linf_exact(ps, equal_weights(1)).value == 1.0


class TestCrossEngine:
    def test_even_p_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for p in (2, 4):
            ps, ws = random_instance(rng, 1, nmax=5)
            exact = extreme_lp_exact_even_p(ps, ws, p).value
            brute = brute_force_lp_1d(ps, ws, p)
            assert exact == pytest.approx(brute, abs=2e-3)

    @pytest.mark.parametrize("kind", list(WeightKind))
    def test_l2_matches_even_engine(self, kind):
        rng = np.random.default_rng(11)
        for _ in range(10):
            d = int(rng.integers(1, 3))
            ps, ws = random_instance(rng, d, kind=kind)
            a = extreme_l2_exact(ps, ws).value
            b = extreme_lp_exact_even_p(ps, ws, 2).value
            assert abs(a - b) < 1e-10
        assert extreme_lp_exact_even_p(ps, ws, 4.0) == extreme_lp_exact_even_p(ps, ws, 4)

    def test_mc_matches_exact(self):
        rng = np.random.default_rng(29)
        ps, ws = random_instance(rng, 2)
        exact = extreme_lp_exact_even_p(ps, ws, 4).value
        res = extreme_lp_mc(ps, ws, 4.0, 300_000, seed=8)
        assert abs(res.value - exact) < 4 * res.stderr

    def test_raw_power_monotone_in_p(self):
        # equal-weight rules have |Delta| <= 1, so raw p-th power integrals
        # decrease as p grows
        rng = np.random.default_rng(17)
        for _ in range(5):
            ps, ws = random_instance(rng, 2, kind=WeightKind.QMC)
            raw2 = extreme_lp_exact_even_p(ps, ws, 2).value ** 2
            raw4 = extreme_lp_exact_even_p(ps, ws, 4).value ** 4
            raw6 = extreme_lp_exact_even_p(ps, ws, 6).value ** 6
            assert raw4 <= raw2 + 1e-14
            assert raw6 <= raw4 + 1e-14

    def test_sampled_linf_below_exact(self):
        rng = np.random.default_rng(31)
        for trial in range(10):
            ps, ws = random_instance(rng, int(rng.integers(1, 3)))
            exact = extreme_linf_exact(ps, ws).value
            lower = extreme_linf_lower_mc(ps, ws, 20_000, seed=trial).value
            assert lower <= exact + 1e-12


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_engines_property(data):
    d = data.draw(st.integers(1, 2))
    n = data.draw(st.integers(1, 5))
    coords = data.draw(
        st.lists(
            st.lists(st.floats(0.0, 0.999), min_size=d, max_size=d),
            min_size=n,
            max_size=n,
        )
    )
    weights = data.draw(st.lists(st.floats(0.0, 1.5), min_size=n, max_size=n))
    ps = PointSet(np.array(coords))
    ws = WeightSet(np.array(weights), WeightKind.NONNEG)
    a = extreme_l2_exact(ps, ws).value
    b = extreme_lp_exact_even_p(ps, ws, 2).value
    assert abs(a - b) < 1e-10
    exact = extreme_linf_exact(ps, ws).value
    lower = extreme_linf_lower_mc(ps, ws, 2_000, seed=0).value
    assert lower <= exact + 1e-12


@given(
    n=st.integers(0, 7),
    d=st.integers(1, 3),
    grid=st.sampled_from([2, 4, 1 << 30]),
    shared=st.booleans(),
    dyadic=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_exact_engines_match_membership_reference(n, d, grid, shared, dyadic, seed):
    # coarse grids give duplicate coordinates and coordinate 0.0; `shared`
    # puts the last point on the first point's grid lines in every axis but one
    rng = np.random.default_rng(seed)
    coords = rng.integers(0, grid, (n, d)) / grid
    if shared and n >= 2:
        coords[-1, 1:] = coords[0, 1:]
    if dyadic:
        weights = rng.integers(-64, 65, n) / 64.0
    else:
        weights = rng.standard_normal(n) / math.sqrt(max(n, 1))
    ps = PointSet(coords.reshape(n, d))
    ws = WeightSet(weights, classify_weights(weights))
    scale = max(1.0, float(np.sum(np.abs(weights))))
    got, want = extreme_linf_exact(ps, ws).value, reference_linf(ps, ws)
    if dyadic:
        assert got == want
    else:
        assert abs(got - want) <= 1e-12 * scale
    for p in (2, 4):
        got, want = extreme_lp_exact_even_p(ps, ws, p).value, reference_even_p(ps, ws, p)
        if dyadic and d >= 2:
            assert got == want
        else:
            # d = 1 sums one part per cell instead of one per binomial term
            assert abs(got**p - want**p) <= 1e-12 * scale**p


@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_linf_matches_slab_reference_bit_for_bit(data, seed):
    # the running-minimum scan re-evaluates its candidates with the slab
    # engine's arithmetic, and skips only columns whose bound is below the
    # best box by more than the rounding, so the two agree exactly for any
    # weights
    d = data.draw(st.integers(1, 4), label="d")
    n = data.draw(st.integers(0, {1: 40, 2: 40, 3: 14, 4: 6}[d]), label="n")
    grid = data.draw(st.sampled_from([2, 4, 10, 97, 1 << 30]), label="grid")
    kind = data.draw(
        st.sampled_from(["dyadic", "gaussian", "signed", "equal", "cancelling"]), label="kind"
    )
    repeat = data.draw(st.sampled_from(["none", "shared", "duplicated"]), label="repeat")
    rng = np.random.default_rng(seed)
    coords = rng.integers(0, grid, (n, d)) / grid
    if n >= 2 and repeat == "shared":
        coords[-1, 1:] = coords[0, 1:]
    elif n >= 2 and repeat == "duplicated":
        coords[n // 2 :] = coords[: n - n // 2]
    weights = {
        "dyadic": lambda: rng.integers(-64, 65, n) / 64.0,
        "gaussian": lambda: rng.standard_normal(n) / math.sqrt(max(n, 1)),
        "signed": lambda: (1.0 + 0.5 * rng.standard_normal(n)) / max(n, 1),
        "equal": lambda: np.full(n, 1.0 / max(n, 1)),
        # +-K: the columns' negative weights C- are far above every |prefix
        # entry|, so the pruning margin is exercised
        "cancelling": lambda: data.draw(st.sampled_from([1.0, 1e3, 1e8, 1e15]), label="K")
        * (1.0 + 1e-3 * rng.standard_normal(n))
        * np.where(np.arange(n) % 2, -1.0, 1.0),
    }[kind]()
    ps, ws = PointSet(coords.reshape(n, d)), WeightSet(weights, classify_weights(weights))
    assert extreme_linf_exact(ps, ws).value == reference_slab_linf(ps, ws)


# float.hex of extreme_linf_exact as the slab scan computed it.  signed60x2
# has negative weights.  In tenths25x1 the closed boxes [0.2, 0.3] and
# [0.2, 0.9] both have value 0.22; the second one's direct value is 1 ulp
# larger and its running-minimum value 1 ulp smaller, so a scan that
# re-evaluated only its own maximum (tau = 0) would return 1 ulp too little.
PINNED_LINF = {
    "vdc100x2": "0x1.6d70a3d70a410p-5",
    "vdc20x3": "0x1.1555555555558p-2",
    "vdc64x2": "0x1.1700000000000p-4",
    "vdc10x4": "0x1.e353f7ced9169p-2",
    "signed60x2": "0x1.d92e2d2470fc6p-3",
    "tenths25x1": "0x1.c28f5c28f5c2cp-3",
}


@pytest.mark.parametrize("rule", sorted(PINNED_LINF))
def test_linf_outputs_are_pinned(rule):
    if rule.startswith("vdc"):
        n, d = map(int, rule[3:].split("x"))
        ps, ws = generate(GeneratorSpec(GeneratorKind.VDC_HAMMERSLEY, n, d))
    elif rule == "signed60x2":
        ps, ws = signed_rule(60, 2, seed=3)
    else:
        lines = [0.0, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
        ps = PointSet(np.repeat(lines, [2, 5, 3, 2, 2, 2, 3, 3, 3])[:, None])
        ws = WeightSet(np.full(25, 0.04), WeightKind.NONNEG)
    got = extreme_linf_exact(ps, ws).value
    assert got.hex() == PINNED_LINF[rule]
    assert got == reference_slab_linf(ps, ws)


@pytest.mark.parametrize(
    "point, want",
    [((0.5, 0.05), 0.95), ((0.5, 0.0), 1.0), ((0.5, 0.05, 0.5), 0.95), ((0.5, 0.5, 0.0), 1.0)],
)
def test_linf_widest_gap_is_the_answer(point, want):
    # the best box is an open range with no grid line inside on one axis
    # >= 1: the gap (0.05, 1) holds no point, and an axis whose only lines
    # are 0 and 1 has no interior line, so the whole (0, 1) is empty there
    ps = PointSet(np.array([point]))
    ws = WeightSet(np.array([0.5]), WeightKind.NONNEG)
    assert extreme_linf_exact(ps, ws).value == want == reference_slab_linf(ps, ws)


@pytest.mark.parametrize(
    "d, signed", [(1, False), (2, False), (4, False), (2, True)], ids=["1", "2", "4", "signed2"]
)
def test_linf_differences_the_table_once(d, signed, monkeypatch):
    # both sides read one table: the open range (u - 1, v + 1) on an axis
    # >= 1 holds the points of the closed range (u, v).  It is never built
    # whole: its head, differenced over axes 1 .. d-2 (at d = 1 the prefix
    # itself), is built once, and the last axis is differenced per slab.
    # Row -1 of the table is one row, and a rule with a negative weight
    # adds one more, its columns' negative weights C-
    shapes = []
    difference_rest = engines._difference_rest

    def recording(*args):
        table = difference_rest(*args)
        shapes.append(table.shape)
        return table

    monkeypatch.setattr(engines, "_difference_rest", recording)
    ps, ws = named_rule(f"signed6x{d}" if signed else f"vdc6x{d}")
    assert (ws.values.min() < 0.0) == signed
    extreme_linf_exact(ps, ws)
    lines = [len(g) for g in CellDecomposition.from_points(ps).gammas]
    columns = math.prod(k * (k + 1) // 2 for k in lines[1:])
    head = math.prod(k * (k + 1) // 2 for k in lines[1:-1]) * (lines[-1] + 1) if d > 1 else 1
    assert shapes == [(lines[0] + 1, head)] + [(1, columns)] * (2 if signed else 1)
    assert d == 1 or head < columns


@pytest.mark.parametrize("rule, share", [("vdc20x3", 0.3), ("vdc10x4", 0.05)])
def test_linf_scans_only_columns_that_can_beat_the_best(rule, share, monkeypatch):
    # no box of a column beats its bound, C+ on the closed side and R + C-
    # on the open side; against the best box found, that rules out most
    # columns of these rules (measured: 75% of vdc20x3's, 98% of vdc10x4's)
    scanned = []
    linf_side = engines._linf_side

    def counting(table, g, side, cols, *args):
        scanned.append(len(cols))
        return linf_side(table, g, side, cols, *args)

    monkeypatch.setattr(engines, "_linf_side", counting)
    ps, ws = named_rule(rule)
    extreme_linf_exact(ps, ws)
    lines = [len(g) for g in CellDecomposition.from_points(ps).gammas[1:]]
    closed = math.prod(k * (k + 1) // 2 for k in lines)
    opened = math.prod((k - 2) * (k - 1) // 2 for k in lines)
    assert sum(scanned) <= share * (closed + opened)


@pytest.mark.parametrize("n, p", [(16, 2), (16, 4), (32, 2), (32, 4), (64, 2), (64, 4), (512, 2)])
def test_even_p_matches_rational_oracle(n, p):
    ps, ws = vdc_1d(n)
    exact = float(rational_lp_power(ps, ws, p)) ** (1.0 / p)
    assert extreme_lp_exact_even_p(ps, ws, p).value == pytest.approx(exact, rel=1e-9)


def test_rational_cell_sum_matches_d1_reference():
    for (ps, ws), p in ((vdc_1d(16), 4), ((PointSet([[0.5], [0.25]]), equal_weights(2)), 6)):
        assert rational_cell_sum(ps, ws, p) == rational_lp_power(ps, ws, p)


@pytest.mark.parametrize("p", [4, 6, 8])
@pytest.mark.parametrize("n", [16, 32, 64])
def test_even_p_error_bound_covers_d1_error(n, p):
    # measured: the bound is 10 to 1000 times the actual error here (vdc32x1
    # p = 8: 6.2e-2 against 4.7e-3); vdc64x1 p = 8 sums to a total <= 0
    ps, ws = vdc_1d(n)
    bound, error = cell_sum_error(ps, ws, p, rational_lp_power(ps, ws, p))
    assert error <= bound


@pytest.mark.parametrize(
    "rule, p",
    [
        ("vdc8x2", 4),
        ("vdc8x2", 8),
        ("vdc8x2", 12),
        ("signed6x2", 4),
        ("signed6x2", 6),
        # weights 1/12 and 1/6 are not dyadic: rounding leaves counts of
        # -1e-16, which the engine does not sum apart as negative counts
        ("vdc12x2", 4),
        ("vdc12x2", 6),
        ("vdc6x3", 4),
    ],
)
def test_even_p_error_bound_covers_d2_error(rule, p):
    # signed6x2 has a negative weight, so some counts are negative and the
    # odd powers' sizes are summed apart from their parts
    ps, ws = named_rule(rule)
    assert (ws.values.min() < 0.0) == rule.startswith("signed")
    bound, error = cell_sum_error(ps, ws, p, rational_cell_sum(ps, ws, p))
    assert error <= bound


@pytest.mark.parametrize(
    "rule, p",
    [
        ("vdc32x2", 8),
        ("vdc32x2", 12),
        ("vdc64x2", 8),
        # an over-flag: bound 2.1e-6, actual error 2.2e-8
        ("vdc8x2", 12),
        # 0.59166, 0.67248 and 0.79131 were printed against exact 0.59148,
        # 0.61364 and 0.62987, under the bound S 2^(-d/p) of every rule
        ("two-point", 32),
        ("two-point", 40),
        ("two-point", 48),
        # 0.99158, 1.81588 and 1.90151 were printed against exact 0.65223,
        # 0.73111 and 0.73953, over that bound; the error bound reads 6.6, 10
        # and 29
        ("two-point", 64),
        ("two-point", 512),
        ("two-point", 1028),
    ],
)
def test_cancelled_even_p_sum_raises(rule, p):
    if rule == "two-point":
        ps, ws = PointSet([[0.5], [0.25]]), equal_weights(2)
    else:
        n, d = map(int, rule[3:].split("x"))
        ps, ws = generate(GeneratorSpec(GeneratorKind.VDC_HAMMERSLEY, n, d))
    with pytest.raises(InternalConsistencyError, match=f"relative error bound .* at p = {p}$"):
        extreme_lp_exact_even_p(ps, ws, p)


@given(
    d=st.integers(1, 2),
    n=st.integers(1, 6),
    p=st.integers(1, 128).map(lambda h: 2 * h),
    weights=st.sampled_from(["equal", "positive", "signed"]),
    dyadic=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_even_p_values_meet_every_rules_bound(d, n, p, weights, dyadic, seed):
    # every box has |delta| <= S = max(sum w+, 1 + sum |w-|) on an anchor
    # domain of measure 2^-d, so no rule's L_p exceeds S 2^(-d/p).  The engine
    # does not test this: a cell sum cancelled past it must raise on its own
    # error bound.  Dyadic coordinates share grid lines
    rng = np.random.default_rng(seed)
    coords = rng.integers(0, 8, (n, d)) / 8.0 if dyadic else rng.random((n, d))
    w = {
        "equal": np.full(n, 1.0 / n),
        "positive": 2.0 * rng.random(n) / n,
        "signed": (1.0 + rng.standard_normal(n)) / n,
    }[weights]
    ps, ws = PointSet(coords), WeightSet(w, classify_weights(w))
    try:
        value = extreme_lp_exact_even_p(ps, ws, p).value
    except (InternalConsistencyError, InvalidInputError):
        return
    s = max(w[w > 0].sum(), 1.0 - w[w < 0].sum())
    assert value <= s * 2.0 ** (-d / p) * (1.0 + 1e-12)


# extreme_lp_exact_even_p as `counts ** (p - i)` computed it.  Running powers
# are exact on the dyadic counts of vdc64; vdc12x3 has weights 1/12 and may
# move by 2e-15 relative.
PINNED_EVEN_P = {
    ("vdc64x2", 4): 0.00967177726546471,
    ("vdc64x2", 2): 0.005126266837230876,
    ("vdc64x1", 4): 0.006676359474747185,
    ("vdc512x1", 2): 0.000563818622254995,
    ("vdc12x3", 4): 0.03442744419419595,
}


@pytest.mark.parametrize("rule, p", sorted(PINNED_EVEN_P))
def test_even_p_outputs_are_pinned(rule, p):
    n, d = map(int, rule[3:].split("x"))
    ps, ws = generate(GeneratorSpec(GeneratorKind.VDC_HAMMERSLEY, n, d))
    res = extreme_lp_exact_even_p(ps, ws, p)
    if rule == "vdc12x3":
        assert res.value == pytest.approx(PINNED_EVEN_P[rule, p], rel=2e-15)
    else:
        assert res.value == PINNED_EVEN_P[rule, p]
    assert 0.0 < res.error_bound <= 1e-6
    assert "error_bound" not in res.to_json_dict("disc", d, n)


@pytest.mark.parametrize(
    "engine, rule, mib",
    [
        (extreme_l2_exact, "vdc4096x8", 64),
        (lambda ps, ws: extreme_lp_exact_even_p(ps, ws, 2), "vdc512x1", 64),
        (extreme_linf_exact, "vdc100x2", 4),
        (extreme_linf_exact, "vdc20x3", 6),
        (extreme_linf_exact, "vdc10x4", 15),
        (extreme_linf_exact, "signed20x3", 7),
        (extreme_linf_exact, "center1x9", 100),
    ],
    ids=[
        "l2-4096x8",
        "even2-512x1",
        "linf-100x2",
        "linf-20x3",
        "linf-10x4",
        "linf-signed20x3",
        "linf-center1x9",
    ],
)
def test_exact_memory_is_bounded(engine, rule, mib):
    # dense forms need an n x n kernel (128 MiB per array at n = 4096) or a
    # (cells x n) membership matrix (540 MB at n = 512, d = 1).  The sup norm
    # never holds its whole differenced table (measured peaks with it: 8.2,
    # 18.9, 57.6, 23.6 and 138.7 MiB), only the head differenced over axes
    # 1 .. d-2, its bound rows and one slab of columns (measured: 2.6, 4.4,
    # 11.1, 5.3 and 93.1 MiB, the last while building the head)
    ps, ws = named_rule(rule)
    tracemalloc.start()
    try:
        engine(ps, ws)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= mib << 20


def signed_rule(n, d, seed):
    """Uniform points with weights (1 + N(0, 1/4)) / n, a few of them negative."""
    ps = PointSet(substream(seed, 0).random((n, d)))
    w = (1.0 + 0.5 * substream(seed, 1).standard_normal(n)) / n
    return ps, WeightSet(w, classify_weights(w))


def named_rule(name):
    """vdcNxD, the van der Corput rule, signedNxD, `signed_rule` with seed 3, or
    centerNxD, n equal weights on the center of the cube."""
    kind, n, d = re.fullmatch(r"(vdc|signed|center)(\d+)x(\d+)", name).groups()
    if kind == "vdc":
        return generate(GeneratorSpec(GeneratorKind.VDC_HAMMERSLEY, int(n), int(d)))
    if kind == "center":
        return PointSet(np.full((int(n), int(d)), 0.5)), equal_weights(int(n))
    return signed_rule(int(n), int(d), seed=3)


@pytest.mark.parametrize("d", [1, 2, 8])
@pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 300, 4097])
def test_l2_matches_full_kernel_reference(n, d):
    # the engine takes 65536 // n rows per block: n = 256 is one full block,
    # 257, 300 and 4097 leave a partial last block.  The second half of the
    # points repeats the first half, and a few weights are negative.
    ps, ws = signed_rule(n, d, seed=n + d)
    coords = ps.coords.copy()
    coords[n // 2 :] = coords[: n - n // 2]
    ps = PointSet(coords)
    pair, cross, const = reference_full_l2(ps, ws)
    # both sums round within a few eps of the terms' magnitudes (measured:
    # at most 0.9 eps * scale apart on these rules)
    scale = abs(pair) + 2.0 * abs(cross) + const
    got = extreme_l2_exact(ps, ws).value ** 2
    assert abs(got - (pair - 2.0 * cross + const)) <= 8.0 * np.finfo(float).eps * scale


@pytest.mark.parametrize("seed", range(16))
def test_l2_matches_rational_closed_form(seed):
    # even seeds: dyadic points and weights in [-1, 1], duplicates likely;
    # odd seeds: uniform points with signed weights (1 + N(0, 1/4)) / n
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(0, 9)), int(rng.integers(1, 5))
    if seed % 2 == 0:
        coords = rng.integers(0, 8, (n, d)) / 8.0
        weights = rng.integers(-64, 65, n) / 64.0
    else:
        coords = rng.random((n, d))
        weights = (1.0 + 0.5 * rng.standard_normal(n)) / max(n, 1)
    ps, ws = PointSet(coords.reshape(n, d)), WeightSet(weights, classify_weights(weights))
    exact = math.sqrt(rational_l2_power(ps, ws))
    assert extreme_l2_exact(ps, ws).value == pytest.approx(exact, rel=1e-12)


# float.hex of extreme_lp_mc (value, stderr), extreme_linf_lower_mc value and
# duality_gap_mc (pairing, qnorm_pow) at p = 3, 2^16 + 1000 samples, seed 5.
# The audit entries come from the L_p sampler's integral of |delta|^p divided
# by norm^(p-1) (and by norm once more for qnorm_pow).  Earlier versions
# summed c* delta and |c*|^q per box, rounding each term apart; their audit
# entries differ from these by at most 1 ulp.  The rules' bitsets take 8, 32,
# 64, 128 and 512 bytes, so both of the kernel's byte sums are pinned: the
# column sum up to 64 bytes, `sum(axis=1)` above.  The vdc rules' weights are
# dyadic, so their sums are exact in any order; signedNxD, `signed_rule(N, D,
# seed=7)`, is not, so signed56x2 (8 bytes) and signed256x4 (32 bytes) pin the
# column sum's order: adding its eight accumulators left to right changes 2
# and 1 of their fields.
PINNED = {
    "vdc64x2": (
        "0x1.f33dbffa0efe5p-8",
        "0x1.7bb1784d7cab7p-16",
        "0x1.6be36f9105238p-5",
        "0x1.f5bd20096fb44p-8",
        "0x1.01ec66abd701cp+0",
    ),
    "vdc256x4": (
        "0x1.dc37a59c1286bp-10",
        "0x1.396fcac548896p-17",
        "0x1.90cf353e0c3b0p-6",
        "0x1.e8da2a5c2ab3dp-10",
        "0x1.0a41647900102p+0",
    ),
    "signed56x2": (
        "0x1.09556a4dd0d74p-5",
        "0x1.31043e6984852p-13",
        "0x1.08b24a3d59c67p-2",
        "0x1.09a25cfdd1862p-5",
        "0x1.006f64b0f4e54p+0",
    ),
    "signed256x4": (
        "0x1.02f2e3e5551bdp-8",
        "0x1.2440829ee9de7p-15",
        "0x1.525f0f32ac160p-4",
        "0x1.00a2e186eca33p-8",
        "0x1.f9281f6acf718p-1",
    ),
    "signed512x8": (
        "0x1.78a8ed3387977p-13",
        "0x1.2cc4c45914ad3p-18",
        "0x1.0278d7d73f984p-6",
        "0x1.62001e200aa9dp-13",
        "0x1.d28001bb61de6p-1",
    ),
    "signed1024x3": (
        "0x1.fa610f4a6bdbap-9",
        "0x1.64abe15e47384p-16",
        "0x1.6505e3711aab8p-5",
        "0x1.f4b3c0b015088p-9",
        "0x1.f76a07e98fa07p-1",
    ),
    "signed4096x2": (
        "0x1.f8e4854ce84e7p-9",
        "0x1.f0e86b85a180cp-17",
        "0x1.a23cf9727b030p-6",
        "0x1.016fa06b1023fp-8",
        "0x1.07a0975f24cefp+0",
    ),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("rule", sorted(PINNED))
def test_sampled_outputs_are_pinned(rule, workers):
    # README "Determinism": sampled outputs are a pure function of
    # (rule, p, samples, seed), for any worker count
    kind, n, d = re.fullmatch(r"(vdc|signed)(\d+)x(\d+)", rule).groups()
    if kind == "vdc":
        ps, ws = generate(GeneratorSpec(GeneratorKind.VDC_HAMMERSLEY, int(n), int(d)))
    else:
        ps, ws = signed_rule(int(n), int(d), seed=7)
    samples = (1 << 16) + 1000
    lp = extreme_lp_mc(ps, ws, 3.0, samples, seed=5, workers=workers)
    linf = extreme_linf_lower_mc(ps, ws, samples, seed=5, workers=workers)
    dual = duality_gap_mc(ps, ws, 3.0, samples, seed=5, workers=workers)
    got = (lp.value, lp.stderr, linf.value, dual.pairing, dual.qnorm_pow)
    assert tuple(v.hex() for v in got) == PINNED[rule]


def record_pools(monkeypatch) -> list:
    """Replace the sampler's thread pool by a stub that records its size
    and maps in the calling thread."""
    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(engines, "ThreadPoolExecutor", RecordingPool)
    return pools


class TestMonteCarloContract:
    def test_worker_count_is_output_neutral(self):
        rng = np.random.default_rng(101)
        ps, ws = random_instance(rng, 2)
        # sample count straddles several chunks plus a partial one
        samples = 3 * 65536 + 1234
        r1 = extreme_lp_mc(ps, ws, 2.5, samples, seed=9, workers=1)
        r4 = extreme_lp_mc(ps, ws, 2.5, samples, seed=9, workers=4)
        assert r1.value == r4.value and r1.stderr == r4.stderr
        s1 = extreme_linf_lower_mc(ps, ws, samples, seed=9, workers=1)
        s4 = extreme_linf_lower_mc(ps, ws, samples, seed=9, workers=4)
        assert s1.value == s4.value

    def test_worker_count_is_output_neutral_across_blocks(self):
        # 5000 points span two membership blocks; the second chunk is partial
        rng = np.random.default_rng(5000)
        ps = PointSet(rng.random((5000, 3)))
        ws = WeightSet(rng.standard_normal(5000) / 5000, WeightKind.GENERAL)
        samples = 65536 + 1000
        r1 = extreme_lp_mc(ps, ws, 3.0, samples, seed=11, workers=1)
        r2 = extreme_lp_mc(ps, ws, 3.0, samples, seed=11, workers=2)
        assert r1.value == r2.value and r1.stderr == r2.stderr
        s1 = extreme_linf_lower_mc(ps, ws, samples, seed=11, workers=1)
        s2 = extreme_linf_lower_mc(ps, ws, samples, seed=11, workers=2)
        assert s1.value == s2.value

    def test_pool_is_capped_by_chunks_and_cpus(self, monkeypatch):
        pools = record_pools(monkeypatch)
        monkeypatch.setattr(engines.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        monkeypatch.setattr(engines.os, "cpu_count", lambda: 5)  # the machine's, not ours
        ps, ws = PointSet([[0.3, 0.6]]), equal_weights(1)
        for chunks, workers, pool in [(3, 10**6, 3), (6, 10**6, 4), (6, 2, 2), (1, 8, None)]:
            pools.clear()
            samples = chunks * 65536
            one = extreme_lp_mc(ps, ws, 3.0, samples, seed=7, workers=1)
            many = extreme_lp_mc(ps, ws, 3.0, samples, seed=7, workers=workers)
            assert pools == ([] if pool is None else [pool])
            assert one.value == many.value and one.stderr == many.stderr
        # without an affinity mask the pool counts the machine's CPUs
        monkeypatch.delattr(engines.os, "sched_getaffinity", raising=False)
        extreme_linf_lower_mc(ps, ws, 6 * 65536, seed=7, workers=10**6)
        assert pools[-1] == 5
        pools.clear()
        monkeypatch.setattr(engines.os, "cpu_count", lambda: None)  # unknown: one thread
        extreme_linf_lower_mc(ps, ws, 3 * 65536, seed=7, workers=4)
        assert pools == []

    def test_one_allowed_cpu_starts_no_pool(self, monkeypatch):
        # under taskset or a one-CPU cpuset, cpu_count still counts the
        # machine; two threads on the one CPU would only take turns
        ps, ws = signed_rule(64, 3, seed=2)
        samples = 2 * 65536 + 10
        want = extreme_lp_mc(ps, ws, 3.0, samples, seed=7, workers=1)
        pools = record_pools(monkeypatch)
        monkeypatch.setattr(engines.os, "sched_getaffinity", lambda pid: {5}, raising=False)
        monkeypatch.setattr(engines.os, "cpu_count", lambda: 4)
        got = extreme_lp_mc(ps, ws, 3.0, samples, seed=7, workers=2)
        assert pools == []
        assert got.value.hex() == want.value.hex() and got.stderr.hex() == want.stderr.hex()

    def test_seed_changes_result(self):
        ps = PointSet([[0.3]])
        ws = equal_weights(1)
        a = extreme_lp_mc(ps, ws, 2.0, 10_000, seed=1).value
        b = extreme_lp_mc(ps, ws, 2.0, 10_000, seed=2).value
        assert a != b

    def test_result_metadata(self):
        ps = PointSet([[0.3]])
        res = extreme_lp_mc(ps, equal_weights(1), 1.0, 5_000, seed=3)
        assert res.method is Method.MC
        assert res.samples == 5_000 and res.seed == 3 and res.stderr > 0
        low = extreme_linf_lower_mc(ps, equal_weights(1), 1_000, seed=3)
        assert low.method is Method.LINF_SAMPLED and low.stderr == 0.0


def count_block_builds(monkeypatch, block):
    """Shrink the kernel's blocks to `block` points and record each block
    table build by its point count."""
    builds = []
    build = core._block_tables

    def counted(coords, weights):
        builds.append(len(coords))
        return build(coords, weights)

    monkeypatch.setattr(core, "_BLOCK", block)
    monkeypatch.setattr(core, "_block_tables", counted)
    return builds


def run_samplers(ps, ws, workers):
    # 3 chunks and a remainder; at p = 3 the audit samples the norm too
    samples = 3 * CHUNK + 1000
    return (
        extreme_lp_mc(ps, ws, 3.0, samples, seed=4, workers=workers),
        extreme_linf_lower_mc(ps, ws, samples, seed=4, workers=workers),
        duality_gap_mc(ps, ws, 3.0, samples, seed=4, workers=workers),
    )


@pytest.mark.parametrize("workers", [1, 2])
def test_samplers_build_each_block_once(workers, monkeypatch):
    ps, ws = signed_rule(200, 3, seed=9)
    builds = count_block_builds(monkeypatch, 64)
    got = run_samplers(ps, ws, workers)
    # four blocks (64, 64, 64, 8) per sampling pass: lp, linf, and the
    # audit's norm and pairing
    assert builds == [64, 64, 64, 8] * 4
    # with no room for tables each of the 4 chunks of the 4 passes builds
    # the 4 blocks, as the kernel does without them; the same bits come out
    builds.clear()
    monkeypatch.setattr(core, "_TABLE_BYTES", 0)
    assert run_samplers(ps, ws, workers) == got
    assert len(builds) == 4 * 4 * 4


@pytest.mark.parametrize("workers", [1, 2])
def test_blocks_past_the_table_cap_are_built_per_chunk(workers, monkeypatch):
    ps, ws = signed_rule(200, 3, seed=9)
    builds = count_block_builds(monkeypatch, 64)
    samples = 3 * CHUNK + 1000
    want = extreme_lp_mc(ps, ws, 3.0, samples, seed=4, workers=workers)
    assert builds == [64, 64, 64, 8]
    builds.clear()
    monkeypatch.setattr(core, "_TABLE_BYTES", core._table_bytes_bound(200, 3) - 1)
    got = extreme_lp_mc(ps, ws, 3.0, samples, seed=4, workers=workers)
    # the tables could pass the cap, so the run holds none and each of the
    # 4 chunks builds all four blocks for itself
    assert sorted(builds) == [8] * 4 + [64] * 12
    assert got == want


@pytest.mark.parametrize("n", [4096, 20000])
def test_sampler_chunk_memory_is_as_without_tables(n):
    # one 65536-box chunk in d = 8 peaked at 33.2 MiB when every call built
    # its own tables one block at a time.  At n = 4096 the run holds the one
    # block's tables, which the chunk's call built and held anyway; at
    # n = 20000 they could pass the cap and the call builds them as before
    ps = PointSet(substream(n, 0).random((n, 8)))
    ws = equal_weights(n)
    tracemalloc.start()
    try:
        extreme_lp_mc(ps, ws, 3.0, CHUNK, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= int(33.5 * 2**20)


class TestNoZeroResults:
    """A finite rule misses boxes of positive volume, so no engine reports 0.0."""

    @pytest.mark.parametrize(
        "n, d, p", [(64, 2, 12), (32, 1, 12), (64, 1, 8), (64, 1, 12), (512, 1, 6), (512, 1, 8)]
    )
    def test_cancelled_even_p_total_raises(self, n, d, p):
        # the binomial terms cancel to a total <= 0 (ROADMAP item 2)
        ps, ws = generate(GeneratorSpec(GeneratorKind.VDC_HAMMERSLEY, n, d))
        with pytest.raises(InternalConsistencyError, match="p-th power total .* is not positive"):
            extreme_lp_exact_even_p(ps, ws, p)

    @pytest.mark.parametrize("d, p", [(96, 4), (128, 4), (200, 4), (100, 8)])
    def test_sampled_underflow_raises(self, d, p):
        # the squares of |delta|^p underflow, and at d = 200 |delta|^p itself
        ps, ws = generate(GeneratorSpec(GeneratorKind.RANDOM, 32, d, seed=1))
        with pytest.raises(InvalidInputError, match=f"underflows at p = {float(p)}, d = {d}"):
            extreme_lp_mc(ps, ws, p, 20_000, seed=1)

    def test_sampled_value_before_underflow(self):
        ps, ws = generate(GeneratorSpec(GeneratorKind.RANDOM, 32, 64, seed=1))
        res = extreme_lp_mc(ps, ws, 4.0, 20_000, seed=1)
        assert res.value > 0.0 and res.stderr > 0.0

    def test_audit_underflow_raises(self):
        # p = 2: the exact norm is positive and the sampled pairing underflows
        ps, ws = generate(GeneratorSpec(GeneratorKind.RANDOM, 32, 200, seed=1))
        assert extreme_l2_exact(ps, ws).value > 0.0
        with pytest.raises(InvalidInputError, match="underflows at p = 2.0, d = 200"):
            duality_gap_mc(ps, ws, 2.0, 20_000, seed=1)
        # p = 4: the sampled norm underflows first, through the same reduction
        ps, ws = generate(GeneratorSpec(GeneratorKind.RANDOM, 32, 96, seed=1))
        with pytest.raises(InvalidInputError, match="underflows at p = 4.0, d = 96"):
            duality_gap_mc(ps, ws, 4.0, 20_000, seed=1)


class TestOverflow:
    """A sum past the float maximum is an InvalidInputError naming p, never inf or NaN."""

    @pytest.mark.parametrize(
        "points, weights, p",
        [
            # the central binomial coefficient of 1030 passes the float maximum
            ([[0.5], [0.25]], [0.5, 0.5], 1030),
            # the count 3 to the power 700 does
            ([[0.5]], [3.0], 700),
            # so does C(p, p/2) >= 2^(p/2), which is not built
            ([[0.5]], [1.0], 10**6),
        ],
    )
    def test_even_p_terms_overflow(self, points, weights, p):
        ps, ws = PointSet(points), WeightSet(np.array(weights), WeightKind.NONNEG)
        with pytest.raises(InvalidInputError, match=f"overflow binary64 at p = {p}$"):
            extreme_lp_exact_even_p(ps, ws, p)

    def test_even_p_below_overflow(self):
        # at p = 100 the terms stay finite but cancel: the engine gave 2.79598245
        # against an exact 2.79598260, 5.3e-6 off in L^p, under a bound of 1.2e-3
        ps, ws = PointSet([[0.5]]), WeightSet(np.array([3.0]), WeightKind.NONNEG)
        exact = float(rational_lp_power(ps, ws, 8)) ** (1.0 / 8)
        assert extreme_lp_exact_even_p(ps, ws, 8).value == pytest.approx(exact, rel=1e-15)
        with pytest.raises(InternalConsistencyError, match="relative error bound .* at p = 100$"):
            extreme_lp_exact_even_p(ps, ws, 100)

    @pytest.mark.parametrize(
        "points, weights",
        [
            # sum |w| passes the float maximum: the sup norm returned 0.0 and
            # 1e308 here, and L2 inf
            ([[0.5], [0.25], [0.75]], [1.7e308, 1.7e308, 1e-300]),
            ([[0.5, 0.5], [0.25, 0.75], [0.75, 0.25]], [1e308, 1e308, -1e308]),
        ],
        ids=["d1", "d2"],
    )
    def test_exact_weight_sums_overflow(self, points, weights):
        ps, w = PointSet(points), np.array(weights)
        ws = WeightSet(w, classify_weights(w))
        d = ps.d
        with pytest.raises(InvalidInputError, match=f"sup-norm table can overflow .* d = {d}:"):
            extreme_linf_exact(ps, ws)
        with pytest.raises(InvalidInputError, match=f"L2 kernel sum can overflow .* d = {d}:"):
            extreme_l2_exact(ps, ws)

    def test_exact_weights_below_overflow(self):
        # one point at the center: the sup norm is its weight (the closed box
        # of zero volume on it), and L2^2 = w^2 / 4 - w / 4 + 1/12 at d = 1
        ps = PointSet([[0.5]])
        ws = WeightSet(np.array([1e307]), WeightKind.NONNEG)
        assert extreme_linf_exact(ps, ws).value == 1e307
        ws = WeightSet(np.array([1e154]), WeightKind.NONNEG)
        assert extreme_l2_exact(ps, ws).value == pytest.approx(0.5e154, rel=1e-15)

    @pytest.mark.parametrize("p", [321.0, 350.0, 700.0])
    def test_sampled_overflow_raises(self, p):
        # at p = 321 the squares still sum to a finite value, but the square
        # of the sum that the variance needs does not (the stderr read 0.0)
        ps, ws = PointSet([[0.5]]), WeightSet(np.array([3.0]), WeightKind.NONNEG)
        with pytest.raises(InvalidInputError, match=f"overflows at p = {p}, d = 1"):
            extreme_lp_mc(ps, ws, p, 70_000, seed=1)
        with pytest.raises(InvalidInputError, match=f"overflows at p = {p + 1}, d = 1"):
            duality_gap_mc(ps, ws, p + 1, 70_000, seed=1)

    def test_sampled_value_before_overflow(self):
        ps, ws = PointSet([[0.5]]), WeightSet(np.array([3.0]), WeightKind.NONNEG)
        res = extreme_lp_mc(ps, ws, 320.0, 70_000, seed=1)
        assert 2.9 < res.value < 3.0 and 0.0 < res.stderr < 0.01

    def test_chunk_sums_whose_total_overflows(self):
        # each of the two chunks' sums of squares is finite, and their fsum is not
        ps, ws = PointSet([[0.5]]), WeightSet(np.array([3.0]), WeightKind.NONNEG)
        with pytest.raises(InvalidInputError, match="overflows at p = 322.4, d = 1"):
            extreme_lp_mc(ps, ws, 322.4, 2 * CHUNK, seed=1)


class TestGuards:
    def test_odd_or_bad_p_rejected(self):
        ps = PointSet([[0.5]])
        ws = equal_weights(1)
        for bad in (1, 3, 0, -2, 2.5):
            with pytest.raises(InvalidInputError):
                extreme_lp_exact_even_p(ps, ws, bad)
        with pytest.raises(InvalidInputError):
            extreme_lp_mc(ps, ws, math.inf, 100, seed=0)
        with pytest.raises(InvalidInputError):
            extreme_lp_mc(ps, ws, 0.5, 100, seed=0)

    def test_budgets(self):
        rng = np.random.default_rng(2)
        ps = PointSet(rng.random((30, 2)))
        ws = equal_weights(30)
        with pytest.raises(BudgetExceededError, match="extreme_lp_mc"):
            extreme_lp_exact_even_p(ps, ws, 2, cell_budget=100)
        # 31 intervals per axis: the table has 33 rows of 496 columns
        with pytest.raises(BudgetExceededError, match="a 130944-byte differenced table"):
            extreme_lp_exact_even_p(ps, ws, 2, cell_budget=100)
        with pytest.raises(BudgetExceededError, match="extreme_linf_lower_mc"):
            extreme_linf_exact(ps, ws, box_budget=100)
        # 32 grid lines per axis: the sup norm's head is the prefix, 33 x 33 entries
        with pytest.raises(BudgetExceededError, match="a 8712-byte table head"):
            extreme_linf_exact(ps, ws, box_budget=100)

    def test_huge_even_p_exceeds_budget(self):
        # p + 1 binomial terms per cell: p alone can exceed the budget
        ps, ws = PointSet([[0.5]]), equal_weights(1)
        with pytest.raises(BudgetExceededError, match=r"p = 1000000000000000019884624838656"):
            extreme_lp_exact_even_p(ps, ws, 1e30)
        with pytest.raises(BudgetExceededError, match="p = 10 "):
            extreme_lp_exact_even_p(ps, ws, 10, cell_budget=10)
        assert extreme_lp_exact_even_p(ps, ws, 8, cell_budget=9).value > 0.0
        # the audit falls back to sampling on any budget, and the sampled powers underflow
        with pytest.raises(InvalidInputError, match=r"underflows at p = 1e\+30, d = 1"):
            duality_gap_mc(ps, ws, 1e30, 100, seed=1)

    @pytest.mark.parametrize("budget", [0, -5, math.nan, math.inf, 2.5, "5"])
    def test_budget_below_one_rejected(self, budget):
        # only an int or numpy integer >= 1 is a budget: a NaN or infinite
        # one would switch the cap off, and 2.5 or "5" are not counts
        ps = PointSet([[0.5]])
        ws = equal_weights(1)
        with pytest.raises(InvalidInputError, match="budget"):
            extreme_lp_exact_even_p(ps, ws, 2, cell_budget=budget)
        with pytest.raises(InvalidInputError, match="budget"):
            extreme_linf_exact(ps, ws, box_budget=budget)

    def test_cell_counts(self):
        ps = PointSet([[0.25, 0.5], [0.75, 0.5]])
        cd = CellDecomposition.from_points(ps)
        # axis 1 has breakpoints {0, .25, .75, 1}: 3 intervals, 6 pairs;
        # axis 2 has {0, .5, 1}: 2 intervals, 3 pairs
        assert cd._pair_counts(1) == [6, 3]
        assert cd._pair_counts(0) == [10, 6]

    def test_tiny_sample_counts_rejected(self):
        ps = PointSet([[0.5]])
        with pytest.raises(InvalidInputError):
            extreme_lp_mc(ps, equal_weights(1), 2.0, 1, seed=0)
        with pytest.raises(InvalidInputError):
            extreme_linf_lower_mc(ps, equal_weights(1), 0, seed=0)
        # non-integral counts are rejected too; numpy ints are accepted
        for sampler in (extreme_lp_mc, duality_gap_mc):
            with pytest.raises(InvalidInputError, match="integer"):
                sampler(ps, equal_weights(1), 3.0, 1e5, 1)
        with pytest.raises(InvalidInputError, match="integer"):
            extreme_linf_lower_mc(ps, equal_weights(1), 1e5, seed=1)
        assert extreme_lp_mc(ps, equal_weights(1), 3.0, np.int64(3), seed=0).samples == 3

    @pytest.mark.parametrize(
        "workers, seed",
        [(math.nan, 1), (2.5, 1), ("2", 1), (0, 1), (np.int64(0), 1), (1, 1.5), (1, math.nan)],
    )
    def test_non_integer_workers_or_seed_rejected(self, workers, seed):
        # a NaN pool size would start no thread and hang; a float seed would
        # silently draw the boxes of its integer part
        ps, ws = PointSet([[0.5]]), equal_weights(1)
        name = "seed" if workers == 1 else "workers"
        with pytest.raises(InvalidInputError, match=f"{name} must be an integer"):
            extreme_lp_mc(ps, ws, 3.0, 100, seed, workers)
        with pytest.raises(InvalidInputError, match=f"{name} must be an integer"):
            extreme_linf_lower_mc(ps, ws, 100, seed, workers)
        with pytest.raises(InvalidInputError, match=f"{name} must be an integer"):
            duality_gap_mc(ps, ws, 3.0, 100, seed, workers)

    def test_numpy_integer_workers_and_seed_accepted(self):
        ps, ws = PointSet([[0.5]]), equal_weights(1)
        plain = extreme_lp_mc(ps, ws, 3.0, 100, 4, 2)
        numpy = extreme_lp_mc(ps, ws, 3.0, 100, np.int64(4), np.int32(2))
        assert (numpy.value, numpy.stderr) == (plain.value, plain.stderr)
        assert extreme_linf_lower_mc(ps, ws, 100, np.uint8(4), np.int64(2)).value > 0.0
        assert duality_gap_mc(ps, ws, 3.0, 100, np.int64(4), np.int64(2)).pairing > 0.0

    def test_numpy_integer_budgets_accepted(self):
        ps = PointSet([[0.25, 0.5], [0.75, 0.125]])
        ws = equal_weights(2)
        for budget in (np.int64(10**6), np.uint32(10**6)):
            assert extreme_lp_exact_even_p(ps, ws, 4, budget) == extreme_lp_exact_even_p(
                ps, ws, 4, 10**6
            )
            assert extreme_linf_exact(ps, ws, budget) == extreme_linf_exact(ps, ws, 10**6)
        with pytest.raises(BudgetExceededError):
            extreme_linf_exact(ps, ws, np.int64(10))
