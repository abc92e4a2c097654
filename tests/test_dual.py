"""Worst-case integrands, splines, representers, and the duality audit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extdisc import (
    InvalidInputError,
    PointSet,
    conjugate_exponent,
    duality_gap_mc,
    equal_weights,
    initial_error,
    representer_value,
    spline_norm,
    worst_case_1d,
)
from extdisc.dual import _NORM_STREAM_OFFSET
from extdisc.engines import (
    CellDecomposition,
    _lp_moment,
    extreme_lp_exact_even_p,
    extreme_lp_mc,
)
from extdisc.generators import GeneratorKind, GeneratorSpec, generate

from dual_checks import (
    box_operator_1d,
    envelope,
    envelope_tilde,
    extremal_representer,
    spline_eval,
    spline_integral,
)

P_GRID = [1.5, 2.0, 3.0, 5.0]


def gauss_integral(f, lo, hi, order=40):
    nodes, wts = np.polynomial.legendre.leggauss(order)
    half = 0.5 * (hi - lo)
    return half * float(wts @ f(0.5 * (lo + hi) + half * nodes))


class TestConjugate:
    def test_pairs(self):
        assert conjugate_exponent(1.0) == math.inf
        assert conjugate_exponent(math.inf) == 1.0
        assert conjugate_exponent(2.0) == 2.0
        assert conjugate_exponent(4.0) == pytest.approx(4.0 / 3.0)

    def test_involution(self):
        for p in [1.0, 1.5, 2.0, 7.0, math.inf]:
            assert conjugate_exponent(conjugate_exponent(p)) == pytest.approx(p)

    def test_holder_pair(self):
        # the pair (p, q) is the same from either side
        assert conjugate_exponent(1.5) == pytest.approx(3.0)
        assert conjugate_exponent(3.0) == pytest.approx(1.5)

    def test_below_one_rejected(self):
        with pytest.raises(InvalidInputError):
            conjugate_exponent(0.9)

    @pytest.mark.parametrize("p", [math.nan, -math.inf, -1.0])
    def test_nan_and_minus_inf_rejected(self, p):
        # -inf is infinite but not the p = inf of the 1 <-> inf pair
        with pytest.raises(InvalidInputError):
            conjugate_exponent(p)


class TestWorstCase:
    def test_hand_values(self):
        # p=2: scale 2/sqrt(12), value at 1/2 is (3/2) scale = sqrt(3)/4
        assert worst_case_1d(2.0, 0.5) == pytest.approx(math.sqrt(3) / 4, abs=1e-15)
        # p=1: profile reduces to x(1-x)
        for x in (0.1, 0.3, 0.5, 0.9):
            assert worst_case_1d(1.0, x) == pytest.approx(x * (1 - x), abs=1e-15)

    def test_vanishes_at_edges(self):
        for p in P_GRID:
            assert worst_case_1d(p, 0.0) == pytest.approx(0.0, abs=1e-15)
            assert worst_case_1d(p, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_maximum_at_half(self):
        xs = np.linspace(0.0, 1.0, 1001)
        for p in P_GRID:
            vals = worst_case_1d(p, xs)
            assert np.argmax(vals) == 500
            assert np.all(vals <= vals[500] + 1e-15)

    @pytest.mark.parametrize("p", P_GRID)
    def test_integral_equals_initial_error(self, p):
        # the zero algorithm errs on the worst-case integrand by exactly
        # the empty-rule discrepancy
        val = gauss_integral(lambda x: worst_case_1d(p, x), 0.0, 1.0)
        assert val == pytest.approx(initial_error(p, 1), abs=1e-12)

    def test_initial_error_values(self):
        assert initial_error(2, 1) == pytest.approx(12**-0.5, abs=1e-15)
        assert initial_error(1, 3) == pytest.approx(6.0**-3, abs=1e-15)
        assert initial_error(3, 2) == pytest.approx(20.0 ** (-2 / 3), abs=1e-15)
        assert initial_error(math.inf, 7) == 1.0

    def test_domain_checks(self):
        with pytest.raises(InvalidInputError):
            worst_case_1d(2.0, 1.5)
        with pytest.raises(InvalidInputError):
            initial_error(2.0, 0)
        with pytest.raises(InvalidInputError, match="dimension must be at least 1"):
            initial_error(2, math.nan)
        assert initial_error(2, 2.5) == 12.0**-1.25  # a real dimension is allowed
        with pytest.raises(InvalidInputError):
            worst_case_1d(math.inf, 0.5)

    @pytest.mark.parametrize("p", [math.nan, -math.inf, 0.5])
    def test_initial_error_rejects_p_outside_domain(self, p):
        with pytest.raises(InvalidInputError):
            initial_error(p, 2)


@pytest.mark.parametrize("arg", [math.nan, [0.5, math.nan]], ids=["scalar", "array"])
@pytest.mark.parametrize(
    "f",
    [
        worst_case_1d,
        lambda p, x: spline_eval(p, 0.3, x),
        lambda p, y: spline_eval(p, y, 0.5),
        spline_norm,
        spline_integral,
        envelope,
        envelope_tilde,
        lambda p, x: box_operator_1d(lambda a, b: a * b, x),
    ],
    ids=[
        "worst_case_1d",
        "spline_eval_x",
        "spline_eval_y",
        "spline_norm",
        "spline_integral",
        "envelope",
        "envelope_tilde",
        "box_operator_1d",
    ],
)
def test_nan_argument_rejected(f, arg):
    with pytest.raises(InvalidInputError):
        f(2.0, arg)


@pytest.mark.parametrize("arg", [[0.3, 0.4], np.array([0.3, 0.5]), [0.3]])
@pytest.mark.parametrize(
    "f, name",
    [
        (spline_integral, "node"),
        (lambda p, y: spline_eval(p, y, 0.5), "node"),
        (lambda p, x: box_operator_1d(lambda a, b: a * b, x), "x"),
    ],
    ids=["spline_integral", "spline_eval_y", "box_operator_1d"],
)
def test_scalar_argument_takes_one_value(f, name, arg):
    # every entry is in range, but the argument is not one value
    with pytest.raises(InvalidInputError, match=f"{name} must be a single value"):
        f(2.0, arg)


class TestSpline:
    @pytest.mark.parametrize("p", P_GRID)
    def test_interpolates_at_node(self, p):
        for y in np.linspace(0.01, 0.99, 99):
            assert abs(spline_eval(p, y, y) - worst_case_1d(p, y)) < 1e-13

    def test_hand_value(self):
        assert spline_eval(2.0, 0.5, 0.25) == pytest.approx(math.sqrt(3) / 8, abs=1e-15)

    def test_vanishes_at_edges_and_degenerate_nodes(self):
        assert spline_eval(2.0, 0.3, 0.0) == 0.0
        assert spline_eval(2.0, 0.3, 1.0) == pytest.approx(0.0, abs=1e-16)
        assert spline_eval(2.0, 0.0, 0.4) == 0.0
        assert spline_eval(2.0, 1.0, 0.4) == 0.0

    def test_piecewise_linear_with_kink(self):
        p, y = 3.0, 0.4
        left = spline_eval(p, y, np.array([0.1, 0.2, 0.3]))
        # linear on [0, y]: second differences vanish
        assert abs(left[2] - 2 * left[1] + left[0]) < 1e-14
        right = spline_eval(p, y, np.array([0.5, 0.6, 0.7]))
        assert abs(right[2] - 2 * right[1] + right[0]) < 1e-14
        slope_l = (left[1] - left[0]) / 0.1
        slope_r = (right[1] - right[0]) / 0.1
        assert slope_l > 0 > slope_r

    @pytest.mark.parametrize("p", P_GRID)
    def test_integral_closed_form(self, p):
        for y in (0.1, 0.37, 0.5, 0.81):
            # split the quadrature at the kink so it is exact
            num = gauss_integral(lambda x: spline_eval(p, y, x), 0.0, y) + gauss_integral(
                lambda x: spline_eval(p, y, x), y, 1.0
            )
            assert num == pytest.approx(spline_integral(p, y), abs=1e-12)
            assert spline_integral(p, y) == pytest.approx(
                0.5 * worst_case_1d(p, y), abs=1e-15
            )

    def test_norm_values(self):
        assert spline_norm(2.0, 0.5) == pytest.approx(math.sqrt(3) / 2, abs=1e-15)
        assert spline_norm(2.0, 0.0) == 0.0
        assert spline_norm(2.0, 1.0) == 0.0

    @pytest.mark.parametrize("p", P_GRID)
    def test_norm_symmetric_and_below_node_limit(self, p):
        ys = np.linspace(0.01, 0.99, 50)
        vals = spline_norm(p, ys)
        assert np.allclose(vals, vals[::-1], atol=1e-13)
        # the spline never beats the unit worst-case norm by much more
        # than the profile maximum
        assert np.max(vals) < 1.0


class TestBoxOperator:
    def test_constant_coefficient(self):
        # integral of 1 over [0,x] x [x,1] is x(1-x)
        for x in (0.2, 0.5, 0.9):
            v = box_operator_1d(lambda a, b: np.ones(np.broadcast(a, b).shape), x)
            assert v == pytest.approx(x * (1 - x), abs=1e-14)

    def test_indicator_recovers_kernel(self):
        # coefficient 1(a <= y <= b) integrates to min(x,y) - x y
        for x, y in [(0.3, 0.6), (0.7, 0.2), (0.5, 0.5)]:
            v = box_operator_1d(
                lambda a, b: ((a <= y) & (y <= b)).astype(float), x, breakpoints=[y]
            )
            assert v == pytest.approx(min(x, y) - x * y, abs=1e-12)

    def test_spline_is_operator_applied_to_its_coefficient(self):
        rng = np.random.default_rng(77)
        p = 2.0
        for _ in range(5):
            y, x = rng.uniform(0.05, 0.95, size=2)
            scale = worst_case_1d(p, y) / (y * (1 - y))
            v = box_operator_1d(
                lambda a, b: scale * ((a <= y) & (y <= b)).astype(float),
                x,
                breakpoints=[y],
            )
            assert v == pytest.approx(spline_eval(p, y, x), abs=1e-10)

    def test_edge_arguments(self):
        assert box_operator_1d(lambda a, b: np.ones(np.broadcast(a, b).shape), 0.0) == 0.0
        assert box_operator_1d(lambda a, b: np.ones(np.broadcast(a, b).shape), 1.0) == 0.0


class TestRepresenter:
    def test_p2_is_scaled_delta(self):
        norm = 0.25
        for delta in (-0.3, 0.0, 0.4):
            assert representer_value(2.0, delta, norm) == pytest.approx(delta / norm)

    def test_p1_is_sign(self):
        assert representer_value(1.0, -0.2, 1.0) == -1.0
        assert representer_value(1.0, 0.7, 1.0) == 1.0
        assert representer_value(1.0, 0.0, 1.0) == 0.0
        # p = 1 takes the general formula: sign(delta) bit for bit, any norm
        delta = np.array([-0.0, 0.0, 1e-310, -1e-310, math.inf, -2.0, math.nan])
        for norm in (1.0, 0.0, math.nan):
            v = representer_value(1.0, delta, norm)
            assert v.tobytes() == np.sign(delta).tobytes()

    def test_zero_delta_maps_to_zero(self):
        for p in (1.5, 2.0, 3.0):
            assert representer_value(p, 0.0, 0.5) == 0.0

    def test_odd_symmetry_and_power(self):
        v = representer_value(3.0, 0.2, 0.5)
        assert representer_value(3.0, -0.2, 0.5) == pytest.approx(-v)
        assert v == pytest.approx(0.2**2 / 0.5**2)

    def test_at_box(self):
        ps = PointSet([[0.5]])
        ws = equal_weights(1)
        # box [0, 0.75) holds the point: delta = 1 - 0.75
        v = extremal_representer(ps, ws, 2.0, 0.5, [0.0], [0.75])
        assert v == pytest.approx(0.25 / 0.5)

    def test_box_checked_against_rule(self):
        ps = PointSet([[0.5]])
        ws = equal_weights(1)
        with pytest.raises(InvalidInputError):
            extremal_representer(ps, ws, 2.0, 0.5, [0.0, 0.0], [0.75, 0.75])
        with pytest.raises(InvalidInputError):
            extremal_representer(ps, ws, 2.0, 0.5, [0.75], [0.0])


@given(
    x=st.floats(0.0, 1.0),
    y=st.floats(0.0, 1.0),
)
@settings(max_examples=100, deadline=None)
def test_kernel_bounds_property(x, y):
    k = min(x, y) - x * y
    assert -1e-12 <= k <= 0.25 + 1e-12
    # symmetry under swapping arguments and under reflection
    k_swap = min(y, x) - y * x
    k_reflect = min(1 - x, 1 - y) - (1 - x) * (1 - y)
    assert k == pytest.approx(k_swap, abs=1e-15)
    assert k == pytest.approx(k_reflect, abs=1e-12)


class TestDualityAudit:
    def test_one_center_p2(self):
        ps = PointSet([[0.5]])
        chk = duality_gap_mc(ps, equal_weights(1), 2.0, 200_000, seed=20)
        assert chk.norm == pytest.approx(12**-0.5, abs=1e-15)
        assert chk.norm_method == "l2-exact"
        assert abs(chk.pairing_z) <= 3.0
        assert abs(chk.qnorm_z) <= 3.0
        assert chk.q == 2.0

    def test_even_p_path(self):
        ps = PointSet([[0.3], [0.8]])
        chk = duality_gap_mc(ps, equal_weights(2), 4.0, 150_000, seed=6)
        assert chk.norm_method == "even-exact"
        assert abs(chk.pairing_z) <= 3.5
        assert abs(chk.qnorm_z) <= 3.5

    def test_even_p_norm_over_cell_budget_is_sampled(self):
        # vdc256x4 has 1.2e18 cells at p = 4; vdc64x2 has 4.5e6, within budget
        ps, ws = generate(GeneratorSpec(GeneratorKind.VDC_HAMMERSLEY, 256, 4))
        chk = duality_gap_mc(ps, ws, 4.0, 70_000, seed=3)
        assert chk.norm_method == "mc"
        assert chk.norm == extreme_lp_mc(ps, ws, 4.0, 70_000, seed=3 + _NORM_STREAM_OFFSET).value
        ps, ws = generate(GeneratorSpec(GeneratorKind.VDC_HAMMERSLEY, 64, 2))
        chk = duality_gap_mc(ps, ws, 4, 1000, seed=3)
        assert chk.norm_method == "even-exact"
        assert chk.norm == extreme_lp_exact_even_p(ps, ws, 4).value

    @pytest.mark.parametrize("p, builds", [(2.0, 0), (3.0, 0), (4.0, 1)])
    def test_grid_built_once(self, p, builds, monkeypatch):
        # the even-p engine reuses the decomposition built for the cell-count test
        calls = []
        original = CellDecomposition.from_points.__func__

        def counted(cls, ps):
            calls.append(ps)
            return original(cls, ps)

        monkeypatch.setattr(CellDecomposition, "from_points", classmethod(counted))
        ps, ws = generate(GeneratorSpec(GeneratorKind.VDC_HAMMERSLEY, 64, 2))
        duality_gap_mc(ps, ws, p, 1000, seed=3)
        assert len(calls) == builds

    def test_mc_norm_path_uses_disjoint_streams(self):
        ps = PointSet([[0.3], [0.8]])
        chk = duality_gap_mc(ps, equal_weights(2), 2.5, 100_000, seed=6)
        assert chk.norm_method == "mc"
        assert abs(chk.pairing_z) <= 3.0

    @pytest.mark.parametrize("p", [2.0, 2.5, 4.0])
    def test_one_sampled_integral(self, p):
        # pointwise c* delta = |delta|^p / norm^(p-1) and |c*|^q = |delta|^p / norm^p:
        # the audit reports the L_p sampler's integral of |delta|^p, scaled
        ps, ws = generate(GeneratorSpec(GeneratorKind.VDC_HAMMERSLEY, 16, 2))
        chk = duality_gap_mc(ps, ws, p, 70_000, seed=4)
        moment, moment_se = _lp_moment(ps, ws, p, 70_000, 4, 1)
        assert chk.pairing == moment / chk.norm ** (p - 1.0)
        assert chk.pairing_stderr == moment_se / chk.norm ** (p - 1.0)
        assert extreme_lp_mc(ps, ws, p, 70_000, seed=4).value == moment ** (1.0 / p)
        assert chk.qnorm_pow == chk.pairing / chk.norm
        # the sampled norm at p = 2.5 adds its own error; an exact one none
        se = math.hypot(chk.pairing_stderr, p * chk.norm_stderr)
        assert chk.qnorm_stderr == se / chk.norm
        if chk.norm_method != "mc":
            assert chk.qnorm_stderr == chk.pairing_stderr / chk.norm
        assert chk.qnorm_z == chk.pairing_z

    def test_norm_stderr(self):
        # the sampled norm's stderr enters the z-score; an exact norm has none,
        # and then the z-score is the pairing's alone, to the bit
        ps, ws = generate(GeneratorSpec(GeneratorKind.VDC_HAMMERSLEY, 16, 2))
        chk = duality_gap_mc(ps, ws, 3.0, 4096, seed=2)
        norm = extreme_lp_mc(ps, ws, 3.0, 4096, seed=2 + _NORM_STREAM_OFFSET)
        assert (chk.norm_method, chk.norm_stderr) == ("mc", norm.stderr)
        se = math.hypot(chk.pairing_stderr, 3.0 * chk.norm_stderr)
        assert chk.pairing_z == (chk.pairing - chk.norm) / se
        chk = duality_gap_mc(ps, ws, 4.0, 4096, seed=2)
        assert (chk.norm_method, chk.norm_stderr) == ("even-exact", 0.0)
        assert chk.pairing_z == (chk.pairing - chk.norm) / chk.pairing_stderr

    @pytest.mark.parametrize("p, method", [(1.5, "mc"), (3.0, "mc"), (4.0, "even-exact")])
    def test_z_is_calibrated(self, p, method):
        # a sampled norm is a second estimate of the pairing's integral, so z
        # counts both errors; counting the pairing's alone read z std 1.31-1.51
        ps, ws = generate(GeneratorSpec(GeneratorKind.VDC_HAMMERSLEY, 16, 2))
        checks = [duality_gap_mc(ps, ws, p, 4096, seed) for seed in range(1, 201)]
        assert {chk.norm_method for chk in checks} == {method}
        z = np.array([chk.pairing_z for chk in checks])
        assert 0.85 <= z.std(ddof=1) <= 1.15

    @pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
    def test_qnorm_stderr_is_calibrated(self, p):
        # qnorm_pow = m1 / m2 varies with both sampled integrals when the
        # norm is sampled; counting the pairing's error alone read 1.35 at
        # p = 1.5 and 1.33 at p = 3
        ps, ws = generate(GeneratorSpec(GeneratorKind.VDC_HAMMERSLEY, 16, 2))
        checks = [duality_gap_mc(ps, ws, p, 4096, seed) for seed in range(1, 201)]
        spread = np.std([chk.qnorm_pow for chk in checks], ddof=1)
        assert 0.85 <= spread / np.median([chk.qnorm_stderr for chk in checks]) <= 1.15

    def test_z_scores_agree_near_p_one(self):
        # q = 1e11 here: a separate |c*|^q statistic would amplify rounding
        # by q, and its z would drift from the pairing's
        chk = duality_gap_mc(PointSet([[0.5, 0.5]]), equal_weights(1), 1.00000000001, 100_000, 1)
        assert chk.qnorm_z == chk.pairing_z
        assert abs(chk.pairing_z) <= 3.0

    def test_worker_neutral(self):
        ps = PointSet([[0.4, 0.6]])
        a = duality_gap_mc(ps, equal_weights(1), 2.0, 70_000, seed=5, workers=1)
        b = duality_gap_mc(ps, equal_weights(1), 2.0, 70_000, seed=5, workers=3)
        assert a == b

    def test_workers_below_one_rejected(self):
        ps = PointSet([[0.5]])
        with pytest.raises(InvalidInputError):
            duality_gap_mc(ps, equal_weights(1), 2.0, 1000, seed=0, workers=0)

    def test_p_one_rejected(self):
        ps = PointSet([[0.5]])
        with pytest.raises(InvalidInputError):
            duality_gap_mc(ps, equal_weights(1), 1.0, 1000, seed=0)


@pytest.mark.parametrize("norm_p", [0.0, math.nan])
def test_representer_needs_positive_norm(norm_p):
    with pytest.raises(InvalidInputError, match="norm_p must be positive for p > 1"):
        representer_value(2.0, 0.1, norm_p)
