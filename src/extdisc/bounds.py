"""Dimension-dependence constants and bound calculators.

The spline machinery of `dual` yields two y-independent constants per
exponent p:

* A_p, the largest ratio (integral of node-y spline) / (integral of the
  worst-case integrand) over nodes y; it has the closed form
  (p+2)/(2p) (1 - 2^-p).
* B_p, the largest ratio of spline norm to worst-case norm, the maximum
  over y of the profile `norm_ratio`.  For p <= 8 the profile peaks at
  y = 1/2 and B_p is closed form; for larger p the peak moves toward the
  edges and is located numerically.

C_p = min(1/A_p, 1/B_p) exceeds 1 for every finite p > 1, which forces the
number of points needed to beat the empty rule to grow like C_p^d.  The
diagnostics at the bottom certify the p > 8 regime with explicit envelope
functions of the rescaled variable a = (p+1) y.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import InvalidInputError, PointSet
from .dual import (
    _check_all,
    _check_finite_p,
    _check_p_over_1,
    initial_error,
    spline_norm,
    worst_case_1d,
)

# past this exponent the norm-ratio profile is no longer maximized at 1/2
CLOSED_FORM_P_MAX = 8.0

_SCAN_POINTS = 10_000
_REFINE_XATOL = 1e-12


class BMethod(enum.Enum):
    CLOSED_FORM_HALF = "closed-form-half"
    NUMERIC = "numeric"


@dataclass(frozen=True)
class CurseConstants:
    p: float
    a_p: float
    b_p: float
    c_p: float
    y_star: float
    b_method: BMethod


def integral_ratio_max(p: float) -> float:
    """A_p = (p+2)/(2p) (1 - 2^-p), the spline-vs-worst-case integral ratio.

    Attained in the limit y -> 1/2; tends to 1/2 as p -> inf.
    """
    p = _check_finite_p(p)
    return (p + 2.0) / (2.0 * p) * (1.0 - 2.0**-p)


# ratio of the node-y spline norm to the worst-case norm, which is one; kept
# as its own name since the bounds only use it as a ratio
norm_ratio = spline_norm


def _norm_ratio_at_half(p: float) -> float:
    # h(1/2) / (1/4)^(1/p) with h the unit worst-case profile
    return float(worst_case_1d(p, 0.5)) * 4.0 ** (1.0 / p)


def _scan_grid() -> np.ndarray:
    # half the budget spaced evenly on (0, 1/2], half log-spaced toward 0
    # to track maximizers that drift to the edge for large p
    lin = np.linspace(0.5 / (_SCAN_POINTS // 2), 0.5, _SCAN_POINTS // 2)
    logp = np.geomspace(1e-8, 0.5, _SCAN_POINTS - _SCAN_POINTS // 2)
    return np.unique(np.concatenate((lin, logp)))


def _norm_ratio_max_numeric(p: float) -> tuple[float, float]:
    """Scan-plus-refine maximum of the norm-ratio profile over (0, 1/2]."""
    from scipy.optimize import minimize_scalar  # scipy loads only for p > 8

    grid = _scan_grid()
    vals = norm_ratio(p, grid)
    k = int(np.argmax(vals))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, len(grid) - 1)]
    res = minimize_scalar(
        lambda y: -norm_ratio(p, y),
        bounds=(lo, hi),
        method="bounded",
        options={"xatol": _REFINE_XATOL},
    )
    y_star = float(res.x)
    best = float(norm_ratio(p, y_star))
    if vals[k] > best:
        best, y_star = float(vals[k]), float(grid[k])
    return best, y_star


def norm_ratio_max(p: float) -> tuple[float, float, BMethod]:
    """B_p with its maximizer y* in (0, 1/2] and how it was obtained.

    The profile is symmetric about 1/2, so the search is restricted to
    (0, 1/2].  For p <= 8 the maximum sits at 1/2 in closed form; beyond
    that a dense scan plus bounded scalar refinement locates it.
    """
    p = _check_finite_p(p)
    if p <= CLOSED_FORM_P_MAX:
        return _norm_ratio_at_half(p), 0.5, BMethod.CLOSED_FORM_HALF
    best, y_star = _norm_ratio_max_numeric(p)
    return best, y_star, BMethod.NUMERIC


def curse_base(p: float) -> float:
    """C_p = min(1/A_p, 1/B_p), the exponential base of the point lower bound."""
    return curse_constants(p).c_p


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


def curse_constants(p: float) -> CurseConstants:
    p = _check_finite_p(p)
    a_p = integral_ratio_max(p)
    b_p, y_star, b_method = norm_ratio_max(p)
    c_p = min(1.0 / a_p, 1.0 / b_p)
    return CurseConstants(p=p, a_p=a_p, b_p=b_p, c_p=c_p, y_star=y_star, b_method=b_method)


# ---------------------------------------------------------------------------
# lower and upper bounds on points / error


def min_points_lower_bound(p: float, d: int, eps: float) -> float:
    """Fewest points any nonneg-weight rule needs for relative error eps.

    Value C_p^d (1 - 2 eps), clipped at 0; exponential in d whenever
    eps < 1/2 since C_p > 1.
    """
    _check_all(d, lambda d: d >= 1, "dimension must be at least 1")
    if not (0.0 <= eps):
        raise InvalidInputError("eps must be >= 0")
    return curse_base(p) ** d * max(1.0 - 2.0 * eps, 0.0)


def error_lower_bound(p: float, d: int, n: int) -> float:
    """Least extreme L_p discrepancy any n-point nonneg rule can reach.

    e0 (1 - n A_p^d)_+ / (2 max(1, n B_p^d)) with e0 the empty-rule value.
    """
    _check_all(d, lambda d: d >= 1, "dimension must be at least 1")
    _check_all(n, lambda n: n >= 0, "n must be >= 0")
    cc = curse_constants(p)
    e0 = initial_error(p, d)
    num = max(1.0 - n * cc.a_p**d, 0.0)
    den = 2.0 * max(1.0, n * cc.b_p**d)
    return e0 * num / den


@dataclass(frozen=True)
class Certificate:
    """Per-node-set certified lower bound on the extreme L_p discrepancy.

    Valid for every nonnegative weighting of the given nodes.  value is
    (initial_term - interp_term)_+ / (2 max(1, norm_sum)) where
    initial_term integrates the worst-case integrand, interp_term
    integrates its best spline interpolant on the nodes, and norm_sum adds
    the per-node spline norms.
    """

    value: float
    initial_term: float
    interp_term: float
    norm_sum: float
    p: float
    d: int
    n: int


def certificate_lower_bound(ps: PointSet, p: float) -> Certificate:
    """Certified lower bound for all nonneg rules on the nodes of ps.

    Nodes with a coordinate at 0 contribute nothing to either sum: the
    spline pinned there is identically zero.
    """
    p = _check_p_over_1(p, "certificate needs p > 1")
    e0 = initial_error(p, ps.d)
    halves = 0.5 * worst_case_1d(p, ps.coords)  # (n, d) node-wise spline integrals
    interp = float(np.sum(np.prod(halves, axis=1)))
    norm_sum = float(np.sum(np.prod(spline_norm(p, ps.coords), axis=1)))
    value = max(e0 - interp, 0.0) / (2.0 * max(1.0, norm_sum))
    return Certificate(
        value=value,
        initial_term=e0,
        interp_term=interp,
        norm_sum=norm_sum,
        p=p,
        d=ps.d,
        n=ps.n,
    )


def gnewuch_linf_upper(eps: float, d: int) -> int:
    """Points sufficient for absolute error eps in the sup-norm setting.

    ceil(2 eps^-2 (2 d ln(10 e / eps) + ln 2)), valid for d >= 2; the
    sup-norm problem is only polynomially hard in d.
    """
    _check_all(d, lambda d: d >= 2, "sup-norm upper bound needs d >= 2")
    if not (0.0 < eps < 1.0):
        raise InvalidInputError("eps must lie in (0, 1)")
    return math.ceil(2.0 * eps**-2 * (2.0 * d * math.log(10.0 * math.e / eps) + math.log(2.0)))


def nw10_l2_lower(eps: float, d: int) -> float:
    """Points needed at p = 2 for GENERAL weights: (1 - eps^2) (9/4)^d."""
    _check_all(d, lambda d: d >= 1, "dimension must be at least 1")
    if not (0.0 <= eps <= 1.0):
        raise InvalidInputError("eps must lie in [0, 1]")
    return (1.0 - eps**2) * 2.25**d


# ---------------------------------------------------------------------------
# diagnostics for the p > 8 regime, in the rescaled variable a = (p+1) y


def log_curvature_at_half(p: float) -> float:
    """Second derivative of log norm_ratio at y = 1/2:

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

    norm_ratio(p, y) <= envelope(p, (p+1) y) for y in (0, 1/2]; showing
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
    from scipy.optimize import brentq

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
