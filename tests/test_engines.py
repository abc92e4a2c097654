"""Discrepancy engines against hand values, brute force, and each other."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extdisc import (
    BudgetExceededError,
    InvalidInputError,
    Method,
    PointSet,
    WeightKind,
    WeightSet,
    equal_weights,
    extreme_l2_exact,
    extreme_linf_exact,
    extreme_linf_lower_mc,
    extreme_lp_exact_even_p,
    extreme_lp_mc,
)
from extdisc.engines import CellDecomposition


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
        with pytest.raises(BudgetExceededError, match="extreme_linf_lower_mc"):
            extreme_linf_exact(ps, ws, box_budget=100)

    def test_cell_counts(self):
        ps = PointSet([[0.25, 0.5], [0.75, 0.5]])
        cd = CellDecomposition.from_points(ps)
        # axis 1 has breakpoints {0, .25, .75, 1}: 3 intervals, 6 pairs;
        # axis 2 has {0, .5, 1}: 2 intervals, 3 pairs
        assert cd.interval_pair_count() == 6 * 3
        assert cd.grid_pair_count() == 10 * 6

    def test_tiny_sample_counts_rejected(self):
        ps = PointSet([[0.5]])
        with pytest.raises(InvalidInputError):
            extreme_lp_mc(ps, equal_weights(1), 2.0, 1, seed=0)
        with pytest.raises(InvalidInputError):
            extreme_linf_lower_mc(ps, equal_weights(1), 0, seed=0)
