"""Curse constants, certified bounds, and the large-p diagnostics."""

import math
import subprocess
import sys

import numpy as np
import pytest

from extdisc import (
    BMethod,
    InvalidInputError,
    PointSet,
    certificate_lower_bound,
    curse_base,
    curse_constants,
    equal_weights,
    error_lower_bound,
    extreme_l2_exact,
    gnewuch_linf_upper,
    initial_error,
    integral_ratio_max,
    min_points_lower_bound,
    norm_ratio_max,
    nw10_l2_lower,
    spline_norm,
)
from extdisc.bounds import _norm_ratio_max_numeric, _scan_grid
from extdisc.generators import GeneratorKind, GeneratorSpec, generate

from dual_checks import (
    curse_base_closed_form,
    envelope,
    envelope_stationary_point,
    envelope_tilde,
    envelope_tilde_peak,
    log_curvature_at_half,
    ratio_diagnostics,
)


class TestIntegralRatio:
    def test_exact_values(self):
        assert integral_ratio_max(2.0) == 0.75
        assert integral_ratio_max(1.0) == 0.75
        assert integral_ratio_max(3.0) == pytest.approx(5.0 / 6.0 * 7.0 / 8.0, abs=1e-15)

    def test_large_p_limit(self):
        assert integral_ratio_max(1e4) == pytest.approx(0.5, abs=1e-3)


class TestNormRatio:
    def test_closed_form_at_two(self):
        b, y_star, method = norm_ratio_max(2.0)
        assert b == pytest.approx(math.sqrt(3) / 2, abs=1e-12)
        assert y_star == 0.5
        assert method is BMethod.CLOSED_FORM_HALF

    @pytest.mark.parametrize("p", [1.5, 3.0, 5.0, 8.0])
    def test_numeric_matches_closed_form(self, p):
        b_closed, _, _ = norm_ratio_max(p)
        b_num, y_num = _norm_ratio_max_numeric(p)
        assert b_num == pytest.approx(b_closed, abs=1e-9)
        assert y_num == pytest.approx(0.5, abs=1e-5)

    def test_maximizer_migrates_for_large_p(self):
        b11, y11, m11 = norm_ratio_max(11.0)
        b20, y20, m20 = norm_ratio_max(20.0)
        b50, y50, m50 = norm_ratio_max(50.0)
        assert m11 is m20 is m50 is BMethod.NUMERIC
        assert y11 == pytest.approx(0.336, abs=2e-3)
        assert y20 == pytest.approx(0.2144, abs=2e-3)
        assert y50 == pytest.approx(0.1088, abs=2e-3)
        # off-center maximum strictly beats the center value
        for p, b in [(11.0, b11), (20.0, b20), (50.0, b50)]:
            assert b > float(spline_norm(p, 0.5)) + 1e-4

    def test_scan_grid_is_built_once_and_read_only(self):
        # every p > 8 shares one grid; a caller writing to it would change the others
        grid = _scan_grid()
        assert grid is _scan_grid()
        assert not grid.flags.writeable

    def test_ratio_identity_when_centered(self):
        # with y* = 1/2, B_p/A_p collapses to 2 (4/((p+1)(p+2)))^(1/p)
        for p in np.linspace(1.1, 8.0, 30):
            b, _, _ = norm_ratio_max(p)
            a = integral_ratio_max(p)
            expect = 2.0 * (4.0 / ((p + 1) * (p + 2))) ** (1.0 / p)
            assert b / a == pytest.approx(expect, abs=1e-10)


class TestCurseBase:
    def test_value_at_two(self):
        assert curse_base(2.0) == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-12)

    def test_value_at_four(self):
        # high-precision recomputation of the closed form
        assert curse_base(4.0) == pytest.approx(1.1768003269855549, abs=1e-12)

    def test_closed_form_matches_min_form(self):
        for p in np.linspace(1.05, 8.0, 40):
            assert curse_base_closed_form(p) == pytest.approx(curse_base(p), abs=1e-10)

    def test_closed_form_domain(self):
        with pytest.raises(InvalidInputError):
            curse_base_closed_form(1.0)
        with pytest.raises(InvalidInputError):
            curse_base_closed_form(8.5)

    def test_exceeds_one_and_approaches_one(self):
        c105 = curse_base(1.05)
        c15 = curse_base(1.5)
        c20 = curse_base(20.0)
        c200 = curse_base(200.0)
        for c in (c105, c15, c20, c200):
            assert c > 1.0
        # the excess shrinks toward both ends of the exponent range
        assert c105 - 1.0 < c15 - 1.0
        assert c200 - 1.0 < c20 - 1.0
        assert c105 - 1.0 < 0.05 and c200 - 1.0 < 0.05

    def test_constants_record(self):
        cc = curse_constants(2.0)
        assert (cc.p, cc.a_p, cc.y_star) == (2.0, 0.75, 0.5)
        assert cc.c_p == pytest.approx(1.0 / cc.b_p, abs=1e-15)
        assert cc.b_method is BMethod.CLOSED_FORM_HALF


class TestPointAndErrorBounds:
    def test_min_points_examples(self):
        assert min_points_lower_bound(2.0, 10, 0.0) == pytest.approx(
            1024.0 / 243.0, abs=1e-9
        )
        assert min_points_lower_bound(2.0, 3, 0.5) == 0.0
        assert min_points_lower_bound(2.0, 3, 0.9) == 0.0

    def test_past_the_float_maximum(self):
        # C_2^6000 and (9/4)^1000 overflow: both raised OverflowError, and the
        # factor 0 must still give 0
        assert min_points_lower_bound(2.0, 6000, 0.1) == math.inf
        assert min_points_lower_bound(2.0, 6000, 0.5) == 0.0
        assert nw10_l2_lower(0.1, 1000) == math.inf
        assert nw10_l2_lower(1.0, 1000) == 0.0

    def test_min_points_grows_exponentially(self):
        vals = [min_points_lower_bound(2.0, d, 0.1) for d in (5, 10, 15)]
        assert vals[1] / vals[0] == pytest.approx(vals[2] / vals[1], rel=1e-9)
        assert vals[2] > vals[1] > vals[0]

    def test_error_lower_examples(self):
        # d=1, n=1 at p=2: (1 - 3/4) e0 / 2 = e0 / 8
        assert error_lower_bound(2.0, 1, 1) == pytest.approx(12**-0.5 / 8.0, abs=1e-12)
        assert error_lower_bound(2.0, 2, 0) == pytest.approx(initial_error(2.0, 2) / 2.0)

    def test_error_lower_monotone_in_n(self):
        vals = [error_lower_bound(2.0, 2, n) for n in range(0, 12)]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_error_lower_vanishes_for_large_n(self):
        assert error_lower_bound(2.0, 1, 10**6) == 0.0

    def test_error_lower_below_actual_rule(self):
        ps, ws = generate(GeneratorSpec(GeneratorKind.VDC_HAMMERSLEY, 4, 1))
        actual = extreme_l2_exact(ps, ws).value
        assert error_lower_bound(2.0, 1, 4) <= actual

    def test_input_guards(self):
        with pytest.raises(InvalidInputError):
            min_points_lower_bound(2.0, 0, 0.1)
        with pytest.raises(InvalidInputError):
            error_lower_bound(2.0, 1, -1)


class TestHugeP:
    """(p + 1)(p + 2) overflows binary64 above p of about 1.34e154."""

    def test_values_continue_across_the_overflow(self):
        for p in (1e154, 1e155, 1e300):
            assert initial_error(p, 2) == 1.0
            assert float(spline_norm(p, 0.5)) == 1.0
        assert initial_error(1e155, 2) == initial_error(1e154, 2)

    def test_curse_constants(self):
        cc = curse_constants(1e200)
        assert cc.a_p == 0.5 and cc.b_p == 1.0 and cc.c_p == 1.0
        assert cc.b_method is BMethod.NUMERIC

    def test_certificate_terms(self):
        cert = certificate_lower_bound(PointSet([[0.5, 0.5]]), 1e300)
        assert (cert.initial_term, cert.interp_term, cert.norm_sum) == (1.0, 0.25, 1.0)


_IMPORT_GUARD = """
import contextlib, io, sys
import numpy
before = set(sys.modules)
import extdisc
from extdisc import cli
extdisc.curse_constants(20.0)
extdisc.norm_ratio_max(1e6)
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["constants", "--p-min", "9", "--p-max", "50", "--count", "3"])
    cli.main(["bounds", "--p", "20", "--d-max", "3", "--eps", "0.1"])
tops = {name.partition(".")[0] for name in set(sys.modules) - before}
print(sorted(tops - {"extdisc", "numpy"} - sys.stdlib_module_names))
"""


def test_package_loads_only_numpy_and_stdlib():
    # a fresh interpreter, so modules that other tests loaded do not hide an import;
    # the p > 8 B_p search and the CLI's bounds paths run too
    proc = subprocess.run([sys.executable, "-c", _IMPORT_GUARD], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


class TestCertificate:
    def test_empty_set_is_half_initial(self):
        cert = certificate_lower_bound(PointSet(np.empty((0, 3))), 2.0)
        assert cert.value == initial_error(2.0, 3) / 2.0
        assert cert.interp_term == 0.0 and cert.norm_sum == 0.0

    def test_one_center_components(self):
        cert = certificate_lower_bound(PointSet([[0.5]]), 2.0)
        assert cert.initial_term == pytest.approx(12**-0.5, abs=1e-15)
        assert cert.interp_term == pytest.approx(math.sqrt(3) / 8, abs=1e-15)
        assert cert.norm_sum == pytest.approx(math.sqrt(3) / 2, abs=1e-15)
        assert cert.value == pytest.approx(0.0360844, abs=1e-7)

    def test_boundary_node_contributes_nothing(self):
        plain = certificate_lower_bound(PointSet(np.empty((0, 1))), 3.0)
        pinned = certificate_lower_bound(PointSet([[0.0]]), 3.0)
        assert pinned.value == plain.value

    def test_certificate_below_actual_l2(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            n, d = int(rng.integers(1, 7)), int(rng.integers(1, 3))
            ps = PointSet(rng.random((n, d)))
            cert = certificate_lower_bound(ps, 2.0)
            actual = extreme_l2_exact(ps, equal_weights(n)).value
            assert cert.value <= actual + 1e-12

    def test_needs_p_above_one(self):
        with pytest.raises(InvalidInputError):
            certificate_lower_bound(PointSet([[0.5]]), 1.0)
        with pytest.raises(InvalidInputError):
            certificate_lower_bound(PointSet([[0.5]]), math.inf)


class TestLiteratureBounds:
    def test_gnewuch_example(self):
        assert gnewuch_linf_upper(0.5, 2) == 134

    def test_gnewuch_monotone(self):
        assert gnewuch_linf_upper(0.5, 5) > gnewuch_linf_upper(0.5, 2)
        assert gnewuch_linf_upper(0.25, 2) > gnewuch_linf_upper(0.5, 2)

    def test_gnewuch_linear_in_d(self):
        g = [gnewuch_linf_upper(0.5, d) for d in (10, 20, 30, 40)]
        assert abs((g[3] - g[1]) - (g[2] - g[0])) <= 2  # ceil noise only

    def test_gnewuch_guards(self):
        with pytest.raises(InvalidInputError):
            gnewuch_linf_upper(0.5, 1)
        with pytest.raises(InvalidInputError):
            gnewuch_linf_upper(0.0, 2)

    def test_nw10_values(self):
        assert nw10_l2_lower(0.0, 1) == 2.25
        assert nw10_l2_lower(0.5, 3) == pytest.approx(0.75 * 2.25**3, abs=1e-12)
        assert nw10_l2_lower(1.0, 4) == 0.0


class TestDiagnostics:
    def test_curvature_hand_values(self):
        assert log_curvature_at_half(2.0) == pytest.approx(-4.0, abs=1e-13)
        assert log_curvature_at_half(8.0) == pytest.approx(-0.129411764705882, abs=1e-12)

    def test_curvature_sign_change(self):
        for p in np.linspace(1.05, 8.0, 40):
            assert log_curvature_at_half(p) < 0.0
        assert log_curvature_at_half(9.0) > 0.0
        assert log_curvature_at_half(20.0) > 0.0

    @pytest.mark.parametrize("p", [8.5, 9.0, 10.0, 10.9, 11.0, 15.0, 20.0, 50.0])
    def test_stationary_point_residual(self, p):
        a = envelope_stationary_point(p)
        assert abs(1.0 - math.exp(2 * a) + 2 * a * p) <= 1e-9
        assert a > 0.5 * math.log(p)

    @pytest.mark.parametrize("p", [11.0, 15.0, 20.0, 50.0])
    def test_envelope_below_one(self, p):
        grid = np.concatenate(
            [np.geomspace(1e-6, (p + 1) / 2, 1500), np.linspace(1e-4, (p + 1) / 2, 1500)]
        )
        assert np.all(envelope(p, grid) < 1.0)

    @pytest.mark.parametrize("p", [8.5, 9.0, 10.0, 10.9])
    def test_tilde_peak_below_one(self, p):
        loc, val = envelope_tilde_peak(p)
        assert val < 1.0
        assert val == pytest.approx(float(envelope_tilde(p, loc)), abs=1e-13)
        # stationarity: neighbors are lower
        assert float(envelope_tilde(p, loc * 0.99)) < val
        assert float(envelope_tilde(p, loc * 1.01)) < val

    def test_envelopes_agree_at_stationary_point(self):
        for p in (9.0, 12.0, 30.0):
            a = envelope_stationary_point(p)
            assert float(envelope(p, a)) == pytest.approx(
                float(envelope_tilde(p, a)), abs=1e-12
            )

    @pytest.mark.parametrize("p", [8.0, 11.0, 20.0])
    def test_profile_below_envelope(self, p):
        ys = np.concatenate([np.geomspace(1e-8, 0.5, 300), np.linspace(1e-3, 0.5, 300)])
        f = spline_norm(p, ys)
        g = envelope(p, (p + 1.0) * ys)
        assert np.all(f <= g + 1e-12)

    def test_diagnostics_record(self):
        diag = ratio_diagnostics(20.0)
        assert diag.p == 20.0
        assert diag.curvature_at_half > 0.0
        assert diag.a_star_residual <= 1e-9
        assert diag.envelope_at_a_star < 1.0
        assert diag.tilde_peak_location == pytest.approx(19.0 / 40.0)

    @pytest.mark.parametrize("p", [355.0, 356.0, 1e3, 1e10, 1e100, 1e150, 1e200, 1e300])
    def test_stationary_point_at_large_p(self, p):
        # e^(2p), the parent's upper bracket end, overflows from p = 356 on
        a = envelope_stationary_point(p)
        growth = math.exp(2 * a)
        assert abs(1.0 - growth + 2 * a * p) <= 1e-13 * growth
        assert a > 0.5 * math.log(p)
        assert ratio_diagnostics(p).a_star == a

    @pytest.mark.parametrize("p", [1e155, 1e200, 1e300])
    def test_diagnostics_at_huge_p(self, p):
        # (p+1)(p+2) and (p-1)(p+2) overflow above p ~ 1.34e154; the limits
        # are 8/p for the curvature and 1 for the rational envelope's peak
        diag = ratio_diagnostics(p)
        assert diag.curvature_at_half == pytest.approx(8.0 / p, rel=1e-15)
        assert diag.tilde_peak_value == pytest.approx(1.0, abs=1e-15)
        assert envelope_tilde_peak(p) == (0.5, diag.tilde_peak_value)

    def test_diagnostics_below_overflow_are_unchanged(self):
        # the closed forms as written before the overflow guards, bit for bit
        ps = np.concatenate(
            (np.linspace(1.0001, 30.0, 2000), np.geomspace(30.0, 1e150, 2000), [1.34e154])
        )
        for p in ps.tolist():
            curvature = -p * (p + 1.0) * 2.0 ** (2.0 - p) / (1.0 - 2.0**-p) + 8.0 / p
            peak = ((p - 1.0) * (p + 2.0) / p) ** (1.0 - 1.0 / p) * 4.0 ** (1.0 / p) / p
            assert log_curvature_at_half(p) == curvature
            assert envelope_tilde_peak(p)[1] == peak

    @pytest.mark.parametrize(
        "p, a_star, rel",  # roots computed to 20 digits in 50-digit arithmetic
        [
            # near p = 1 the root a* ~ p - 1 is ill-conditioned in binary64
            (1.0001, 9.9993333888827511339e-05, 2e-14),
            (1.5, 0.38134428042516949102, 1e-15),
            (9.0, 1.7370097384831772527, 1e-15),
        ],
    )
    def test_stationary_point_accuracy(self, p, a_star, rel):
        assert envelope_stationary_point(p) == pytest.approx(a_star, rel=rel, abs=0.0)

    def test_stationary_point_overflow_is_an_input_error(self):
        with pytest.raises(InvalidInputError, match="overflows binary64"):
            envelope_stationary_point(1e306)

    def test_guards(self):
        with pytest.raises(InvalidInputError):
            envelope(2.0, 0.0)
        with pytest.raises(InvalidInputError):
            envelope_stationary_point(1.0)
        with pytest.raises(InvalidInputError):
            log_curvature_at_half(1.0)


@pytest.mark.parametrize(
    "fn, args, message",
    [
        (min_points_lower_bound, (2.0, 3, -0.1), "eps must be >= 0"),
        (min_points_lower_bound, (2.0, 3, math.nan), "eps must be >= 0"),
        (min_points_lower_bound, (2.0, 0, 0.1), "dimension must be at least 1"),
        (error_lower_bound, (2.0, 0, 4), "dimension must be at least 1"),
        (error_lower_bound, (2.0, 3, -1), "n must be >= 0"),
        (nw10_l2_lower, (0.1, 0), "dimension must be at least 1"),
        (nw10_l2_lower, (2.0, 3), r"eps must lie in \[0, 1\]"),
        (nw10_l2_lower, (math.nan, 3), r"eps must lie in \[0, 1\]"),
        (min_points_lower_bound, (2.0, math.nan, 0.1), "dimension must be at least 1"),
        (error_lower_bound, (2.0, math.nan, 4), "dimension must be at least 1"),
        (error_lower_bound, (2.0, 3, math.nan), "n must be >= 0"),
        (nw10_l2_lower, (0.1, math.nan), "dimension must be at least 1"),
        (gnewuch_linf_upper, (0.1, 1), "sup-norm upper bound needs d >= 2"),
        (gnewuch_linf_upper, (0.1, math.nan), "sup-norm upper bound needs d >= 2"),
    ],
)
def test_bound_arguments_checked(fn, args, message):
    with pytest.raises(InvalidInputError, match=message):
        fn(*args)
