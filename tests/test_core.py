"""Core model: local discrepancy, sampling, point file round trips."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from extdisc import (
    BoxPair,
    DiscrepancyResult,
    InvalidInputError,
    Method,
    PointSet,
    WeightKind,
    WeightSet,
    classify_weights,
    equal_weights,
    load_points,
    local_discrepancy,
    sample_box_pair,
    sample_box_pairs,
    save_points,
    substream,
)
from extdisc.core import _BLOCK, _MAX_SCAN, _rank_table, local_discrepancy_batch


def box(lo, hi):
    return BoxPair(np.atleast_1d(lo), np.atleast_1d(hi))


def definition_batch(coords, weights, lower, upper):
    """Reference for the batch kernel: membership broadcast over (m, n, d)."""
    inside = np.all(
        (lower[:, None, :] <= coords[None, :, :]) & (coords[None, :, :] < upper[:, None, :]),
        axis=2,
    )
    return inside.astype(np.float64) @ weights - np.prod(upper - lower, axis=1)


class TestLocalDiscrepancy:
    def setup_method(self):
        self.ps = PointSet([[0.25], [0.75]])
        self.ws = equal_weights(2)

    def test_balanced_boxes_cancel(self):
        # hand counts: [0, 0.5) holds one of two points, volume 0.5
        assert local_discrepancy(self.ps, self.ws, box(0.0, 0.5)) == 0.0
        assert local_discrepancy(self.ps, self.ws, box(0.25, 0.75)) == 0.0
        assert local_discrepancy(self.ps, self.ws, box(0.0, 1.0)) == 0.0

    def test_unbalanced_box(self):
        # [0, 0.75) holds only 0.25: count 0.5 minus volume 0.75
        assert local_discrepancy(self.ps, self.ws, box(0.0, 0.75)) == -0.25

    def test_half_open_membership(self):
        # lower edge included, upper edge excluded
        assert local_discrepancy(self.ps, self.ws, box(0.25, 0.7)) == pytest.approx(0.05)
        only_upper = PointSet([[0.7]])
        assert local_discrepancy(only_upper, equal_weights(1), box(0.25, 0.7)) == pytest.approx(
            -0.45
        )

    def test_degenerate_box(self):
        assert local_discrepancy(self.ps, self.ws, box(0.25, 0.25)) == 0.0

    def test_two_dims_hand_count(self):
        ps = PointSet([[0.25, 0.25], [0.75, 0.75]])
        ws = equal_weights(2)
        b = BoxPair(np.array([0.0, 0.0]), np.array([0.5, 0.5]))
        assert local_discrepancy(ps, ws, b) == 0.5 - 0.25

    def test_signed_weights(self):
        ps = PointSet([[0.2], [0.6]])
        ws = WeightSet(np.array([1.0, -0.5]), WeightKind.GENERAL)
        assert local_discrepancy(ps, ws, box(0.0, 0.7)) == pytest.approx(0.5 - 0.7)
        assert local_discrepancy(ps, ws, box(0.0, 0.5)) == pytest.approx(1.0 - 0.5)

    def test_empty_rule_is_minus_volume(self):
        ps = PointSet(np.empty((0, 2)))
        ws = WeightSet(np.empty(0), WeightKind.NONNEG)
        b = BoxPair(np.array([0.1, 0.1]), np.array([0.6, 0.9]))
        assert local_discrepancy(ps, ws, b) == pytest.approx(-0.4)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(5)
        lo, hi = sample_box_pairs(rng, 50, 1)
        batch = local_discrepancy_batch(self.ps.coords, self.ws.values, lo, hi)
        for i in range(50):
            one = local_discrepancy(self.ps, self.ws, BoxPair(lo[i], hi[i]))
            assert batch[i] == one

    def test_batch_rejects_bad_shapes(self):
        coords, weights = self.ps.coords, self.ws.values
        anchors = np.zeros((3, 1))
        cases = [
            (np.zeros((3, 2)), np.ones((3, 2)), weights),  # more anchor columns than d
            (anchors, np.ones((4, 1)), weights),  # lower and upper differ in m
            (np.zeros(3), np.ones(3), weights),  # anchors not 2-d
            (anchors, np.ones((3, 1)), np.ones(3)),  # one weight too many
            (np.full((3, 1), np.nan), np.ones((3, 1)), weights),  # NaN anchor
            (anchors, np.full((3, 1), np.inf), weights),  # infinite anchor
            (np.full((3, 1), -np.inf), np.ones((3, 1)), weights),
        ]
        for lo, hi, w in cases:
            with pytest.raises(InvalidInputError):
                local_discrepancy_batch(coords, w, lo, hi)
        for bad in (-0.25, 1.0, np.nan, np.inf):
            with pytest.raises(InvalidInputError):
                local_discrepancy_batch(np.array([[0.25], [bad]]), weights, anchors, anchors + 1)
        # finite anchors outside [0, 1] are boxes like any other
        lo, hi = np.array([[-0.5], [0.5], [-2.0]]), np.array([[0.5], [1.5], [3.0]])
        got = local_discrepancy_batch(coords, weights, lo, hi)
        assert np.array_equal(got, [0.5 - 1.0, 0.5 - 1.0, 1.0 - 5.0])

    def test_size_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            local_discrepancy(self.ps, equal_weights(3), box(0.0, 1.0))
        with pytest.raises(InvalidInputError):
            local_discrepancy(self.ps, self.ws, BoxPair(np.zeros(2), np.ones(2)))


@given(
    coords=st.lists(st.floats(0.0, 0.999), min_size=1, max_size=6),
    raw_weights=st.lists(st.floats(0.0, 2.0), min_size=6, max_size=6),
    anchors=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
)
@settings(max_examples=80, deadline=None)
def test_nonneg_bound_property(coords, raw_weights, anchors):
    # for nonnegative rules |Delta| <= max(total weight, 1)
    n = len(coords)
    ps = PointSet(np.array(coords)[:, None])
    ws = WeightSet(np.array(raw_weights[:n]), WeightKind.NONNEG)
    lo, hi = min(anchors), max(anchors)
    delta = local_discrepancy(ps, ws, box(lo, hi))
    assert abs(delta) <= max(float(np.sum(ws.values)), 1.0) + 1e-12


@given(
    coords=st.lists(st.floats(0.0, 0.999), min_size=1, max_size=6),
    raw_weights=st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6),
    anchors=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
)
@settings(max_examples=80, deadline=None)
def test_general_bound_property(coords, raw_weights, anchors):
    # signed rules only satisfy the weaker bound sum|c| + 1
    n = len(coords)
    ps = PointSet(np.array(coords)[:, None])
    ws = WeightSet(np.array(raw_weights[:n]), WeightKind.GENERAL)
    lo, hi = min(anchors), max(anchors)
    delta = local_discrepancy(ps, ws, box(lo, hi))
    assert abs(delta) <= float(np.sum(np.abs(ws.values))) + 1.0 + 1e-12


@given(
    n=st.sampled_from([0, 1, 7, 63, 64, 65, 4097]),
    d=st.integers(1, 3),
    grid=st.sampled_from([4, 16, 1 << 30, 0]),
    dyadic=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_batch_kernel_matches_definition(n, d, grid, dyadic, seed):
    # n crosses the byte, word and block boundaries of the bitsets; coarse
    # grids put several points on one coordinate; grid 0 puts up to n
    # distinct coordinates 1e-12 apart into one bucket of the rank tables
    rng = np.random.default_rng(seed)
    if grid:
        coords = rng.integers(0, grid, (n, d)) / grid
    else:
        coords = 0.3 + rng.integers(0, n, (n, d)) * 1e-12
        block = np.sort(coords[:_BLOCK], axis=0)
        if len(np.unique(block[:, 0])) > _MAX_SCAN:
            assert _rank_table(block[:, 0]) is None  # binary search fallback
    if dyadic:
        weights = rng.integers(-64, 65, n) / 64.0
    else:
        weights = rng.standard_normal(n) / math.sqrt(max(n, 1))
    m = 96
    lo, hi = sample_box_pairs(rng, m, d)
    q = m // 8
    groups = [slice(k * q, (k + 1) * q) for k in range(8)]
    if n:

        def point_anchors():
            return coords[rng.integers(0, n, (q, d)), np.arange(d)]

        # anchors on point coordinates, so points sit on box faces
        a, b = point_anchors(), point_anchors()
        lo[groups[0]], hi[groups[0]] = np.minimum(a, b), np.maximum(a, b)
        # and one ulp to either side of them
        toward = rng.choice([-np.inf, np.inf], (2, q, d))
        a, b = np.nextafter(point_anchors(), toward[0]), np.nextafter(point_anchors(), toward[1])
        lo[groups[1]], hi[groups[1]] = np.minimum(a, b), np.maximum(a, b)
    step = grid or 1 << 30
    lo[groups[2]] = np.floor(lo[groups[2]] * step) / step
    hi[groups[2]] = np.ceil(hi[groups[2]] * step) / step
    # bucket edges k / 2^e of rank tables with 2^e buckets
    scale = 2.0 ** rng.integers(3, 16, (2, q, d))
    edges = np.floor(rng.random((2, q, d)) * (scale + 1)) / scale
    lo[groups[3]], hi[groups[3]] = edges.min(axis=0), edges.max(axis=0)
    # anchors at exactly 0.0 and 1.0, and finite anchors outside [0, 1]
    lo[groups[4]] = np.where(rng.random((q, d)) < 0.5, 0.0, lo[groups[4]])
    hi[groups[4]] = np.where(rng.random((q, d)) < 0.5, 1.0, hi[groups[4]])
    lo[groups[5]] -= rng.integers(0, 2, (q, d)) * rng.random((q, d)) * 3.0
    hi[groups[5]] += rng.integers(0, 2, (q, d)) * rng.random((q, d)) * 3.0
    hi[groups[6]] = lo[groups[6]]  # empty boxes lo == hi
    # lo > hi holds nothing
    lo[groups[7]], hi[groups[7]] = hi[groups[7]].copy(), lo[groups[7]].copy()
    got = local_discrepancy_batch(coords, weights, lo, hi)
    want = definition_batch(coords, weights, lo, hi)
    if dyadic:
        assert np.array_equal(got, want)
    else:
        tol = 1e-14 * max(1.0, float(np.sum(np.abs(weights))))
        assert np.max(np.abs(got - want), initial=0.0) <= tol


@pytest.mark.parametrize("n", [1024, 8192])
def test_batch_memory_is_bounded(n):
    # the broadcast definition allocates 2^16 * n * 8 bytes per mask
    rng = np.random.default_rng(n)
    coords = rng.random((n, 8))
    weights = rng.standard_normal(n) / n
    lo, hi = sample_box_pairs(rng, 1 << 16, 8)
    tracemalloc.start()
    try:
        local_discrepancy_batch(coords, weights, lo, hi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 96 << 20


class TestSampler:
    def test_ordered_and_in_range(self):
        lo, hi = sample_box_pairs(substream(11, 0), 10_000, 3)
        assert np.all(lo <= hi)
        assert lo.min() >= 0.0 and hi.max() < 1.0

    def test_marginals(self):
        # joint density 2 on {a <= b}: P(a <= t) = 2t - t^2, P(b <= t) = t^2
        lo, hi = sample_box_pairs(substream(123, 0), 100_000, 1)
        p_lo = stats.kstest(lo[:, 0], lambda t: 2 * t - t * t).pvalue
        p_hi = stats.kstest(hi[:, 0], lambda t: t * t).pvalue
        assert p_lo > 1e-3 and p_hi > 1e-3

    def test_degenerate_stream(self):
        class Fixed:
            def random(self, shape):
                return np.full(shape, 0.5)

        b = sample_box_pair(Fixed(), 4)
        assert np.all(b.lower == 0.5) and np.all(b.upper == 0.5)

    def test_substream_determinism(self):
        a = substream(7, 3).random(5)
        b = substream(7, 3).random(5)
        c = substream(7, 4).random(5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestValidation:
    def test_points_outside_unit_cube(self):
        with pytest.raises(InvalidInputError):
            PointSet([[1.0]])
        with pytest.raises(InvalidInputError):
            PointSet([[-0.1]])
        with pytest.raises(InvalidInputError):
            PointSet([0.5])

    def test_points_are_frozen(self):
        ps = PointSet([[0.5]])
        with pytest.raises(ValueError):
            ps.coords[0, 0] = 0.1

    def test_qmc_weights_must_be_equal(self):
        with pytest.raises(InvalidInputError):
            WeightSet(np.array([0.5, 0.4]), WeightKind.QMC)
        with pytest.raises(InvalidInputError):
            WeightSet(np.empty(0), WeightKind.QMC)
        WeightSet(np.array([0.5, 0.5]), WeightKind.QMC)

    def test_nonneg_rejects_negatives(self):
        with pytest.raises(InvalidInputError):
            WeightSet(np.array([-0.1]), WeightKind.NONNEG)

    def test_classify(self):
        assert classify_weights(np.array([0.5, 0.5])) is WeightKind.QMC
        assert classify_weights(np.array([0.3, 0.7])) is WeightKind.NONNEG
        assert classify_weights(np.array([1.5, -0.5])) is WeightKind.GENERAL
        assert classify_weights(np.empty(0)) is WeightKind.NONNEG

    def test_box_ordering(self):
        with pytest.raises(InvalidInputError):
            BoxPair(np.array([0.6]), np.array([0.4]))
        with pytest.raises(InvalidInputError):
            BoxPair(np.array([0.0]), np.array([1.1]))

    def test_result_field_invariants(self):
        DiscrepancyResult(0.1, 2.0, Method.L2_EXACT)
        with pytest.raises(InvalidInputError):
            DiscrepancyResult(0.1, 2.0, Method.MC)  # missing stderr/samples/seed
        with pytest.raises(InvalidInputError):
            DiscrepancyResult(0.1, 2.0, Method.L2_EXACT, stderr=0.01)
        DiscrepancyResult(0.1, 2.0, Method.MC, stderr=0.01, samples=10, seed=1)

    def test_result_json_fields(self):
        r = DiscrepancyResult(0.5, math.inf, Method.LINF_EXACT)
        d = r.to_json_dict("disc", 2, 4)
        assert d == {
            "task": "disc",
            "p": "inf",
            "d": 2,
            "n": 4,
            "method": "linf-exact",
            "value": 0.5,
        }


class TestPointFiles:
    def test_round_trip_qmc(self, tmp_path):
        ps = PointSet([[1 / 3, 0.1], [0.7, 2 / 3]])
        ws = equal_weights(2)
        f = tmp_path / "pts.csv"
        save_points(f, ps, ws)
        ps2, ws2 = load_points(f)
        assert np.array_equal(ps.coords, ps2.coords)
        assert np.array_equal(ws.values, ws2.values)
        assert ws2.kind is WeightKind.QMC

    def test_round_trip_weighted(self, tmp_path):
        ps = PointSet([[0.2], [0.9]])
        for vals, kind in [
            (np.array([0.3, 0.7]), WeightKind.NONNEG),
            (np.array([1.5, -0.5]), WeightKind.GENERAL),
        ]:
            f = tmp_path / "w.csv"
            save_points(f, ps, WeightSet(vals, kind))
            ps2, ws2 = load_points(f)
            assert np.array_equal(ps.coords, ps2.coords)
            assert np.array_equal(vals, ws2.values)
            assert ws2.kind is kind

    def test_explicit_equal_weights_classify_qmc(self, tmp_path):
        f = tmp_path / "q.csv"
        f.write_text("x1,weight\n0.25,0.5\n0.75,0.5\n")
        _, ws = load_points(f)
        assert ws.kind is WeightKind.QMC

    def test_headerless_and_comments(self, tmp_path):
        f = tmp_path / "h.csv"
        f.write_text("# comment\n0.25,0.5\n\n0.75,0.25\n")
        ps, ws = load_points(f)
        assert ps.d == 2 and ps.n == 2
        assert ws.kind is WeightKind.QMC

    def test_empty_file_needs_dimension(self, tmp_path):
        f = tmp_path / "e.csv"
        f.write_text("# nothing\n")
        with pytest.raises(InvalidInputError):
            load_points(f)
        ps, ws = load_points(f, d=3)
        assert ps.n == 0 and ps.d == 3
        assert ws.kind is WeightKind.NONNEG

    def test_ragged_row_reports_line(self, tmp_path):
        f = tmp_path / "r.csv"
        f.write_text("0.1,0.2\n0.3\n")
        with pytest.raises(InvalidInputError, match="line 2"):
            load_points(f)

    def test_out_of_range_reports_position(self, tmp_path):
        f = tmp_path / "o.csv"
        f.write_text("x1,x2\n0.1,0.2\n0.3,1.2\n")
        with pytest.raises(InvalidInputError, match="line 3, column 2"):
            load_points(f)

    def test_bad_number_reports_position(self, tmp_path):
        f = tmp_path / "b.csv"
        f.write_text("x1\n0.1\nnope\n")
        with pytest.raises(InvalidInputError, match="line 3"):
            load_points(f)

    def test_bad_header_rejected(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("x1,y2\n0.1,0.2\n")
        with pytest.raises(InvalidInputError, match="header"):
            load_points(f)

    def test_dimension_cross_check(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("x1,x2\n0.1,0.2\n")
        with pytest.raises(InvalidInputError, match="dimension"):
            load_points(f, d=3)
