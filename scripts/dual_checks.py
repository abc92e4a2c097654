"""Numeric checks of the paper's dual and curse-bound arguments.

Two checks that no engine needs, kept beside the package:

* the p > 8 regime of the norm-ratio profile: the log-curvature at
  y = 1/2, the stationary point a* of the exponential envelope, and the
  peak of its rational variant, in the rescaled variable a = (p+1) y;
* the 1-d coefficient-to-integrand operator: applied to the scaled
  indicator of the boxes covering a node y, it reproduces the node-y
  spline, the minimal-norm interpolant of the worst-case profile.

Writes two CSV tables to stdout, separated by a blank line: one row of
diagnostics per --p value, then one operator row per (p, y, x).

Usage:
    python3 scripts/dual_checks.py --p 9 10 20 50 \
        --op-p 2 3 --op-y 0.3 0.6 --op-x 0.2 0.5
"""

import argparse
import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from extdisc.bounds import CLOSED_FORM_P_MAX
from extdisc.core import BoxPair, InvalidInputError, PointSet, WeightSet, local_discrepancy
from extdisc.dual import (
    _check_all,
    _check_finite_p,
    _check_p_over_1,
    _in_unit,
    representer_value,
    worst_case_1d,
)

# ---------------------------------------------------------------------------
# closed form of the curse base below the p > 8 regime


def curse_base_closed_form(p: float) -> float:
    """Closed form of C_p valid for 1 < p <= 8, where B_p dominates:

    C_p = p/(p+2) * 2^p/(2^p - 1) * ((p+1)(p+2)/4)^(1/p).
    """
    p = _check_finite_p(p)
    if not (1.0 < p <= CLOSED_FORM_P_MAX):
        raise InvalidInputError("closed form only valid for 1 < p <= 8")
    return (
        p / (p + 2.0) * 2.0**p / (2.0**p - 1.0) * ((p + 1.0) * (p + 2.0) / 4.0) ** (1.0 / p)
    )


# ---------------------------------------------------------------------------
# diagnostics for the p > 8 regime, in the rescaled variable a = (p+1) y


def log_curvature_at_half(p: float) -> float:
    """Second derivative of log spline_norm at y = 1/2:

    -p (p+1) 2^(2-p) / (1 - 2^-p) + 8/p.

    Negative on 1 < p <= 8 (1/2 is a local max), positive for large p.
    """
    p = _check_p_over_1(p, "curvature diagnostic needs p > 1")
    scale, lead = 2.0 ** (2.0 - p), -p * (p + 1.0)
    # p (p+1) overflows above p ~ 1.3e154, where 2^(2-p) is already 0:
    # scaling before the factor p + 1 there gives the limit 8/p, not NaN
    term = lead * scale if lead > -math.inf else -p * scale * (p + 1.0)
    return term / (1.0 - 2.0**-p) + 8.0 / p


def envelope(p: float, a):
    """Upper envelope of the norm-ratio profile in a = (p+1) y:

    G_p(a) = ((p+2)/p) (1 - e^(-2a)) (2 / ((p+2) a))^(1/p),  a > 0.

    spline_norm(p, y) <= envelope(p, (p+1) y) for y in (0, 1/2]; showing
    the envelope stays below 1 certifies B_p < 1.
    """
    p = _check_finite_p(p)
    a = _check_all(a, lambda a: a > 0.0, "rescaled variable must be positive")
    v = (p + 2.0) / p * (1.0 - np.exp(-2.0 * a)) * (2.0 / ((p + 2.0) * a)) ** (1.0 / p)
    return float(v) if v.ndim == 0 else v


def envelope_tilde(p: float, a):
    """Rational variant of the envelope:

    Gt_p(a) = ((p+2)/p) (2 a p / (1 + 2 a p)) (2 / ((p+2) a))^(1/p).

    At the stationary point a* of the exponential envelope the two agree
    exactly (the stationarity condition says 1 - e^(-2a*) equals the
    rational factor), so the single interior peak of Gt dominates the
    maximum of G.  That peak has a closed form, see `envelope_tilde_peak`.
    """
    p = _check_finite_p(p)
    a = _check_all(a, lambda a: a > 0.0, "rescaled variable must be positive")
    v = (
        (p + 2.0)
        / p
        * (2.0 * a * p / (1.0 + 2.0 * a * p))
        * (2.0 / ((p + 2.0) * a)) ** (1.0 / p)
    )
    return float(v) if v.ndim == 0 else v


def envelope_tilde_peak(p: float) -> tuple[float, float]:
    """Stationary point of the rational envelope and its value:

    a = (p-1)/(2p),  Gt_p = ((p-1)(p+2)/p)^(1-1/p) 4^(1/p) / p.

    The value is below 1 for 8 < p < 11, covering the gap between the
    closed-form regime and the exponential envelope regime.
    """
    p = _check_p_over_1(p, "peak diagnostic needs p > 1")
    a_peak = (p - 1.0) / (2.0 * p)
    e, prod = 1.0 - 1.0 / p, (p - 1.0) * (p + 2.0)
    # factor by factor where the product overflows (p > ~1.3e154); the value tends to 1
    base = (prod / p) ** e if prod < math.inf else (p - 1.0) ** e * ((p + 2.0) / p) ** e
    return a_peak, base * 4.0 ** (1.0 / p) / p


def envelope_stationary_point(p: float) -> float:
    """Root a* of g(a) = 1 - e^(2a) + 2 a p = 0, the unique positive
    stationary point of the exponential envelope.  With L = ln p it is
    bracketed by g(L/2) = 1 - p + p L > 0 and g(max(1, (L + ln L + 1)/2))
    < 0 (for p >= e, e^(2a) = e p L there); p whose upper end overflows
    e^(2a), above about 1e305, raise."""
    p = _check_p_over_1(p, "stationary point needs p > 1")

    def g(a: float) -> float:  # expm1 keeps g accurate where a* is near 0 (p near 1)
        return 2.0 * a * p - math.expm1(2.0 * a)

    log_p = math.log(p)
    hi = max(1.0, 0.5 * (log_p + math.log(log_p) + 1.0))
    if 2.0 * hi >= np.log(np.finfo(np.float64).max):
        raise InvalidInputError(f"stationary point at p = {p} overflows binary64")
    # a* > 0, so only the relative tolerance should stop the search
    return float(brentq(g, 0.5 * log_p, hi, xtol=1e-300, rtol=8.9e-16))


@dataclass(frozen=True)
class RatioDiagnostics:
    """Everything needed to audit B_p < 1 outside the closed-form regime."""

    p: float
    curvature_at_half: float
    a_star: float
    a_star_residual: float
    envelope_at_a_star: float
    tilde_peak_location: float
    tilde_peak_value: float


def ratio_diagnostics(p: float) -> RatioDiagnostics:
    p = _check_p_over_1(p, "diagnostics need p > 1")
    a_star = envelope_stationary_point(p)
    residual = abs(1.0 - math.exp(2.0 * a_star) + 2.0 * a_star * p)
    peak_loc, peak_val = envelope_tilde_peak(p)
    return RatioDiagnostics(
        p=p,
        curvature_at_half=log_curvature_at_half(p),
        a_star=a_star,
        a_star_residual=residual,
        envelope_at_a_star=float(envelope(p, a_star)),
        tilde_peak_location=peak_loc,
        tilde_peak_value=peak_val,
    )


# ---------------------------------------------------------------------------
# minimal-norm interpolating spline at one node


def _check_unit_value(x, name: str) -> float:
    """x as one float in [0, 1]; raises naming `name` otherwise (NaN included)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim:
        raise InvalidInputError(f"{name} must be a single value")
    return float(_check_all(x, _in_unit, f"{name} must lie in [0, 1]"))


def _mix_kernel(x, y):
    """min(x, y) - x y, the mass of boxes covering both x and y."""
    return np.minimum(x, y) - x * y


def spline_eval(p: float, y: float, x):
    """Minimal-norm interpolant of the worst-case profile at node y.

    s_y(x) = h(y) (min(x, y) - x y) / (y (1 - y)); it matches h at y, is
    piecewise linear with a kink at y, and vanishes at the cube edges.
    For y in {0, 1} the spline degenerates to zero.
    """
    p = _check_finite_p(p)
    y = _check_unit_value(y, "node")
    x = _check_all(x, _in_unit, "arguments must lie in [0, 1]")
    if y == 0.0 or y == 1.0:
        v = np.zeros_like(x)
    else:
        v = worst_case_1d(p, y) * _mix_kernel(x, y) / (y * (1.0 - y))
    return float(v) if v.ndim == 0 else v


def spline_integral(p: float, y: float) -> float:
    """Integral over [0, 1] of the node-y spline, h(y) / 2."""
    p = _check_finite_p(p)
    y = _check_unit_value(y, "node")
    return 0.5 * worst_case_1d(p, y)


def extremal_representer(
    ps: PointSet, ws: WeightSet, p: float, norm_p: float, lower, upper
) -> float:
    """Extremal coefficient of a rule, evaluated at one box pair."""
    delta = local_discrepancy(ps, ws, BoxPair(lower, upper))
    return float(representer_value(p, delta, norm_p))


# ---------------------------------------------------------------------------
# numeric coefficient-to-integrand operator (1-d)


# Gauss-Legendre panels per segment of `box_operator_1d`, and nodes per panel
_PANELS, _ORDER = 8, 16


def box_operator_1d(c, x: float, breakpoints=()) -> float:
    """Numeric value at x of the integrand with box coefficient c.

    Integrates c(a, b) over a in [0, x], b in [x, 1], the set of boxes
    covering x.  Tensor Gauss-Legendre panels; pass the locations where c
    jumps through `breakpoints` so panel edges align with them, otherwise
    the rule converges slowly.  c must accept numpy array arguments.
    """
    x = _check_unit_value(x, "x")
    nodes, wts = np.polynomial.legendre.leggauss(_ORDER)

    def segment_nodes(lo: float, hi: float):
        cuts = [lo] + sorted(b for b in breakpoints if lo < b < hi) + [hi]
        xs, ws_ = [], []
        for s0, s1 in zip(cuts[:-1], cuts[1:]):
            edges = np.linspace(s0, s1, _PANELS + 1)
            for e0, e1 in zip(edges[:-1], edges[1:]):
                half = 0.5 * (e1 - e0)
                xs.append(0.5 * (e0 + e1) + half * nodes)
                ws_.append(half * wts)
        return np.concatenate(xs), np.concatenate(ws_)

    if x == 0.0 or x == 1.0:
        # one side of the anchor domain degenerates to a point
        return 0.0
    a_nodes, a_wts = segment_nodes(0.0, x)
    b_nodes, b_wts = segment_nodes(x, 1.0)
    vals = c(a_nodes[:, None], b_nodes[None, :])
    return float(a_wts @ vals @ b_wts)


def spline_via_operator(p: float, y: float, x: float) -> float:
    """box_operator_1d at x of the coefficient h(y) / (y (1-y)) 1(a <= y <= b)."""
    scale = worst_case_1d(p, y) / (y * (1.0 - y))
    return box_operator_1d(
        lambda a, b: scale * ((a <= y) & (y <= b)).astype(float), x, breakpoints=[y]
    )


# ---------------------------------------------------------------------------
# command line


def build_rows(cfg: argparse.Namespace):
    header = ["p", "curvature_at_half", "a_star", "a_star_residual",
              "envelope_at_a_star", "tilde_peak_location", "tilde_peak_value"]
    diag = [header]
    for p in cfg.p:
        r = ratio_diagnostics(p)
        diag.append([repr(r.p), repr(r.curvature_at_half), repr(r.a_star),
                     repr(r.a_star_residual), repr(r.envelope_at_a_star),
                     repr(r.tilde_peak_location), repr(r.tilde_peak_value)])
    op = [["p", "y", "x", "operator", "spline", "abs_diff"]]
    for p in cfg.op_p:
        for y in cfg.op_y:
            for x in cfg.op_x:
                via, direct = spline_via_operator(p, y, x), float(spline_eval(p, y, x))
                op.append([repr(float(p)), repr(float(y)), repr(float(x)),
                           repr(via), repr(direct), repr(abs(via - direct))])
    return diag, op


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--p", type=float, nargs="+", default=[9.0, 10.0, 11.0, 20.0, 50.0])
    parser.add_argument("--op-p", type=float, nargs="+", default=[1.5, 2.0, 3.0])
    parser.add_argument("--op-y", type=float, nargs="+", default=[0.25, 0.5, 0.8])
    parser.add_argument("--op-x", type=float, nargs="+", default=[0.1, 0.5, 0.9])
    cfg = parser.parse_args(argv)
    if not all(0.0 < y < 1.0 for y in cfg.op_y):
        parser.error("--op-y values must lie in (0, 1)")
    try:
        diag, op = build_rows(cfg)
    except InvalidInputError as exc:
        parser.error(str(exc))
    sys.stdout.write("\n".join(",".join(r) for r in diag) + "\n\n")
    sys.stdout.write("\n".join(",".join(r) for r in op) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
