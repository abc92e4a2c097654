"""Dimension-dependence constants and bound calculators.

The spline machinery of `dual` yields two y-independent constants per
exponent p:

* A_p, the largest ratio (integral of node-y spline) / (integral of the
  worst-case integrand) over nodes y; it has the closed form
  (p+2)/(2p) (1 - 2^-p).
* B_p, the largest ratio of spline norm to worst-case norm, the maximum
  over y of the profile `spline_norm`.  For p <= 8 the profile peaks at
  y = 1/2 and B_p is closed form; for larger p the peak moves toward the
  edges and is located by a dense numpy scan, refined by rescanning the
  bracket around its best point.

C_p = min(1/A_p, 1/B_p) exceeds 1 for every finite p > 1, which forces the
number of points needed to beat the empty rule to grow like C_p^d.
"""

from __future__ import annotations

import enum
import functools
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
_RESCAN_POINTS = 201
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


def _norm_ratio_at_half(p: float) -> float:
    # h(1/2) / (1/4)^(1/p) with h the unit worst-case profile
    return float(worst_case_1d(p, 0.5)) * 4.0 ** (1.0 / p)


@functools.cache
def _scan_grid() -> np.ndarray:
    # half the budget spaced evenly on (0, 1/2], half log-spaced toward 0
    # to track maximizers that drift to the edge for large p; built on first
    # use and shared by every p, so read-only
    lin = np.linspace(0.5 / (_SCAN_POINTS // 2), 0.5, _SCAN_POINTS // 2)
    logp = np.geomspace(1e-8, 0.5, _SCAN_POINTS - _SCAN_POINTS // 2)
    grid = np.unique(np.concatenate((lin, logp)))
    grid.flags.writeable = False
    return grid


def _norm_ratio_max_numeric(p: float) -> tuple[float, float]:
    """Scan-plus-rescan maximum over (0, 1/2]: the two steps around the best
    point are rescanned until they span under `_REFINE_XATOL` or stop
    shrinking, and only a strictly larger value moves the maximizer."""
    grid = _scan_grid()
    best, y_star, width = -math.inf, 0.0, math.inf
    while True:
        vals = spline_norm(p, grid)
        k = int(np.argmax(vals))
        if vals[k] > best:
            best, y_star = float(vals[k]), float(grid[k])
        lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]
        if not _REFINE_XATOL <= hi - lo < width:
            return best, y_star
        width = hi - lo
        grid = np.linspace(lo, hi, _RESCAN_POINTS)


def norm_ratio_max(p: float) -> tuple[float, float, BMethod]:
    """B_p with its maximizer y* in (0, 1/2] and how it was obtained.

    The profile is symmetric about 1/2, so the search is restricted to
    (0, 1/2].  For p <= 8 the maximum sits at 1/2 in closed form; beyond
    that a dense scan, refined by rescans, locates it.
    """
    p = _check_finite_p(p)
    if p <= CLOSED_FORM_P_MAX:
        return _norm_ratio_at_half(p), 0.5, BMethod.CLOSED_FORM_HALF
    best, y_star = _norm_ratio_max_numeric(p)
    return best, y_star, BMethod.NUMERIC


def curse_base(p: float) -> float:
    """C_p = min(1/A_p, 1/B_p), the exponential base of the point lower bound."""
    return curse_constants(p).c_p


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
