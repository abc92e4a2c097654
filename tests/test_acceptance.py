"""Acceptance gate: one test per shipping criterion, pinned tolerances.

Each test prints a single PASS line when its criterion holds; run with
`pytest -v tests/test_acceptance.py` to see one line per criterion.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from extdisc import (
    GeneratorKind,
    GeneratorSpec,
    PointSet,
    WeightKind,
    WeightSet,
    certificate_lower_bound,
    curse_base,
    curse_constants,
    equal_weights,
    error_lower_bound,
    extreme_l2_exact,
    extreme_linf_exact,
    extreme_linf_lower_mc,
    extreme_lp_exact_even_p,
    extreme_lp_mc,
    generate,
    gnewuch_linf_upper,
    initial_error,
    integral_ratio_max,
    min_points_lower_bound,
    norm_ratio_max,
    nw10_l2_lower,
    save_points,
    spline_norm,
    worst_case_1d,
)

from dual_checks import (
    box_operator_1d,
    curse_base_closed_form,
    envelope,
    envelope_stationary_point,
    envelope_tilde_peak,
    log_curvature_at_half,
    spline_eval,
    spline_integral,
)


def cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "extdisc.cli", *map(str, args)],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def empty_rule(d):
    return PointSet(np.empty((0, d))), WeightSet(np.empty(0), WeightKind.NONNEG)


def make_instances(count=100, master_seed=20240601):
    """Fixed random NONNEG instances, d in {1, 2}, n <= 8."""
    rng = np.random.default_rng(master_seed)
    out = []
    for _ in range(count):
        d = int(rng.integers(1, 3))
        n = int(rng.integers(1, 9))
        ps = PointSet(rng.random((n, d)))
        ws = WeightSet(rng.random(n) * (2.0 / n), WeightKind.NONNEG)
        out.append((ps, ws, int(rng.integers(0, 2**31))))
    return out


def test_criterion_1_initial_discrepancy():
    start = time.monotonic()
    for d in range(1, 6):
        ps, ws = empty_rule(d)
        for p in (1, 2, 3, 4):
            expect = ((p + 1) * (p + 2)) ** (-d / p)
            if p == 2:
                assert abs(extreme_l2_exact(ps, ws).value - expect) <= 1e-12
            if p in (2, 4):
                assert abs(extreme_lp_exact_even_p(ps, ws, p).value - expect) <= 1e-12
            res = extreme_lp_mc(ps, ws, float(p), 2_000_000, seed=1000 + 10 * d + p)
            assert abs(res.value - expect) <= 3.0 * res.stderr
        assert extreme_linf_exact(ps, ws).value == 1.0
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"ACCEPTANCE CRITERION 1: PASS (empty-rule values, {elapsed:.1f}s)")


def test_criterion_2_engine_cross_checks():
    instances = make_instances()
    for ps, ws, seed in instances:
        l2 = extreme_l2_exact(ps, ws).value
        even = extreme_lp_exact_even_p(ps, ws, 2).value
        assert abs(l2 - even) <= 1e-10
        mc = extreme_lp_mc(ps, ws, 2.0, 200_000, seed=seed)
        assert abs(mc.value - l2) <= 4.0 * mc.stderr
        linf = extreme_linf_exact(ps, ws).value
        sampled = extreme_linf_lower_mc(ps, ws, 20_000, seed=seed).value
        assert sampled <= linf
    two = PointSet([[0.25], [0.75]])
    assert extreme_linf_exact(two, equal_weights(2)).value == 0.5
    print("ACCEPTANCE CRITERION 2: PASS (100 instances, L2==even-p, MC, sup-norm order)")


def test_criterion_3_spline_identities():
    nodes = np.linspace(0.01, 0.99, 99)
    gauss_x, gauss_w = np.polynomial.legendre.leggauss(40)

    def split_integral(p, y):
        total = 0.0
        for lo, hi in ((0.0, y), (y, 1.0)):
            half = 0.5 * (hi - lo)
            xs = 0.5 * (lo + hi) + half * gauss_x
            total += half * float(gauss_w @ spline_eval(p, y, xs))
        return total

    rng = np.random.default_rng(99)
    for p in (1.5, 2.0, 3.0, 5.0):
        for y in nodes:
            assert abs(spline_eval(p, y, y) - worst_case_1d(p, y)) <= 1e-12
            assert abs(split_integral(p, y) - 0.5 * worst_case_1d(p, y)) <= 1e-9
            assert spline_integral(p, y) == pytest.approx(0.5 * worst_case_1d(p, y))
        for _ in range(20):
            y, x = rng.uniform(0.02, 0.98, size=2)
            scale = worst_case_1d(p, y) / (y * (1.0 - y))
            via_operator = box_operator_1d(
                lambda a, b: scale * ((a <= y) & (y <= b)).astype(float),
                x,
                breakpoints=[y],
            )
            assert abs(via_operator - spline_eval(p, y, x)) <= 1e-8
    print("ACCEPTANCE CRITERION 3: PASS (spline interpolation, integral, operator match)")


def test_criterion_4_curse_constants():
    start = time.monotonic()
    assert integral_ratio_max(2.0) == 0.75
    b2, y2, _ = norm_ratio_max(2.0)
    assert abs(b2 - 0.8660254) <= 1e-6 and y2 == 0.5
    assert abs(curse_base(2.0) - 1.1547005) <= 1e-6
    for p in np.linspace(1.05, 8.0, 50):
        assert abs(curse_base_closed_form(p) - curse_base(p)) <= 1e-6
    code, out, _ = cli("constants", "--p-min", "1.05", "--p-max", "20", "--count", "50")
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[2:]]
    assert len(rows) == 50
    assert all(float(row[3]) > 1.0 for row in rows)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"ACCEPTANCE CRITERION 4: PASS (constants and CSV, {elapsed:.1f}s)")


def test_criterion_5_large_p_diagnostics():
    for p in np.linspace(1.01, 8.0, 40):
        assert log_curvature_at_half(p) < 0.0
    for p in (8.5, 9.0, 10.0, 10.9, 11.0, 15.0, 20.0, 50.0):
        a = envelope_stationary_point(p)
        assert abs(1.0 - math.exp(2.0 * a) + 2.0 * a * p) <= 1e-9
    for p in (11.0, 15.0, 20.0, 50.0):
        grid = np.concatenate(
            [np.geomspace(1e-6, (p + 1) / 2, 2000), np.linspace(1e-4, (p + 1) / 2, 2000)]
        )
        assert np.all(envelope(p, grid) < 1.0)
    for p in (8.5, 9.0, 10.0, 10.9):
        _, peak = envelope_tilde_peak(p)
        assert peak < 1.0
    for p in (8.0, 11.0, 20.0):
        ys = np.concatenate([np.geomspace(1e-8, 0.5, 500), np.linspace(1e-3, 0.5, 500)])
        assert np.all(spline_norm(p, ys) <= envelope(p, (p + 1.0) * ys) + 1e-12)
    print("ACCEPTANCE CRITERION 5: PASS (curvature, stationary points, envelopes)")


def test_criterion_6_lower_bounds_below_reality():
    for d in (1, 2, 3):
        for n in range(1, 17):
            specs = [GeneratorSpec(GeneratorKind.RANDOM, n, d, seed=300 + n)]
            specs.append(GeneratorSpec(GeneratorKind.VDC_HAMMERSLEY, n, d))
            if round(n ** (1.0 / d)) ** d == n:
                specs.append(GeneratorSpec(GeneratorKind.GRID, n, d))
            for spec in specs:
                ps, ws = generate(spec)
                actual = extreme_l2_exact(ps, ws).value
                assert error_lower_bound(2.0, d, n) <= actual + 1e-12
    for ps, ws, _ in make_instances():
        cert = certificate_lower_bound(ps, 2.0)
        actual = extreme_l2_exact(ps, ws).value
        assert cert.value <= actual + 1e-12
    for d in (1, 2, 4):
        cert = certificate_lower_bound(PointSet(np.empty((0, d))), 3.0)
        assert cert.value == initial_error(3.0, d) / 2.0
    print("ACCEPTANCE CRITERION 6: PASS (aggregate and certified bounds hold)")


def test_criterion_7_literature_values():
    assert gnewuch_linf_upper(0.5, 2) == 134
    assert nw10_l2_lower(0.0, 1) == 2.25
    # independent closed form: (2/sqrt(3))^10 = 1024/243
    assert abs(min_points_lower_bound(2.0, 10, 0.0) - 1024.0 / 243.0) <= 1e-6
    print("ACCEPTANCE CRITERION 7: PASS (named bound values)")


def test_criterion_8_cli_duality_determinism(tmp_path):
    f = tmp_path / "one_center.csv"
    save_points(f, PointSet([[0.5]]), equal_weights(1))
    args = ("duality-check", "--input", f, "--p", "2", "--samples", "1000000", "--seed", "424242")
    code1, out1, _ = cli(*args, "--workers", "1")
    code4, out4, _ = cli(*args, "--workers", "4")
    assert code1 == code4 == 0
    assert out1 == out4
    obj = json.loads(out1)
    assert abs(obj["pairing_z"]) <= 3.0
    assert abs(obj["qnorm_z"]) <= 3.0
    print("ACCEPTANCE CRITERION 8: PASS (duality audit, worker-count determinism)")
