"""Closed forms for the integration problem dual to the extreme discrepancy.

The quadrature error of a weighted rule over the unit ball of the associated
box-integrand space equals the extreme L_p discrepancy of its nodes.  This
module provides the pieces of that correspondence that admit closed forms:

* the unit-norm worst-case integrand h (product of a fixed 1-d profile),
* the norm of the minimal-norm spline interpolating h at a single node y,
* the extremal coefficient function c* saturating the error bound,
* a Monte Carlo audit of the duality identities for one rule.

Finite p is the discrepancy exponent; q = p/(p-1) is the conjugate
exponent measuring coefficient norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import InternalConsistencyError, InvalidInputError, PointSet, WeightSet
from .engines import _check_sampling, _evaluate, _lp_moment


def conjugate_exponent(p: float) -> float:
    """Hölder conjugate q with 1/p + 1/q = 1; maps 1 <-> inf."""
    p = float(p)
    if not p >= 1.0:  # NaN and -inf included
        raise InvalidInputError("exponent must satisfy p >= 1")
    if p == math.inf:
        return 1.0
    if p == 1.0:
        return math.inf
    return p / (p - 1.0)


def _check_finite_p(p: float) -> float:
    p = float(p)
    if not (1.0 <= p < math.inf):
        raise InvalidInputError("need a finite exponent p in [1, inf)")
    return p


def _check_p_over_1(p: float, message: str) -> float:
    p = _check_finite_p(p)
    if p == 1.0:
        raise InvalidInputError(message)
    return p


def _check_all(x, ok, message: str) -> np.ndarray:
    """x as a float array; raises `message` unless ok(x) holds everywhere (NaN fails)."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all(ok(x)):
        raise InvalidInputError(message)
    return x


def _in_unit(x):
    return (0.0 <= x) & (x <= 1.0)


def _pair_power(p: float, e):
    """((p+1)(p+2))^e, factor by factor where the product overflows (p > ~1.3e154)."""
    prod = (p + 1.0) * (p + 2.0)
    return prod**e if prod < math.inf else (p + 1.0) ** e * (p + 2.0) ** e


def _profile_scale(p: float) -> float:
    """Leading factor of the 1-d worst-case profile."""
    return (p + 2.0) / p * _pair_power(p, -1.0 / p)


def initial_error(p: float, d: int) -> float:
    """Extreme L_p discrepancy of the empty rule, ((p+1)(p+2))^(-d/p).

    This is also the integral of the d-dim worst-case integrand, i.e. the
    error the zero algorithm makes on it.  For p = inf the value is 1.
    """
    _check_all(d, lambda d: d >= 1, "dimension must be at least 1")
    p = float(p)
    if p == math.inf:
        return 1.0
    _check_finite_p(p)
    return _pair_power(p, -d / p)


def worst_case_1d(p: float, x):
    """Unit-norm 1-d worst-case integrand, vanishing at 0 and 1.

    h(x) = ((p+2)/p) ((p+1)(p+2))^(-1/p) (1 - x^(p+1) - (1-x)^(p+1)),
    maximized at x = 1/2.
    """
    p = _check_finite_p(p)
    x = _check_all(x, _in_unit, "arguments must lie in [0, 1]")
    v = _profile_scale(p) * (1.0 - x ** (p + 1.0) - (1.0 - x) ** (p + 1.0))
    return float(v) if v.ndim == 0 else v


# ---------------------------------------------------------------------------
# norm of the minimal-norm interpolating spline at one node


def spline_norm(p: float, y):
    """Norm of the node-y spline: h(y) / (y (1 - y))^(1/p), 0 at the edges.

    This equals the ratio of the spline's norm to the (unit) worst-case
    norm, the quantity whose maximum over y drives the curse bounds.
    """
    p = _check_finite_p(p)
    y = _check_all(y, _in_unit, "nodes must lie in [0, 1]")
    interior = (y > 0.0) & (y < 1.0)
    mass = np.where(interior, y * (1.0 - y), 1.0)
    v = np.where(interior, worst_case_1d(p, y) * mass ** (-1.0 / p), 0.0)
    return float(v) if v.ndim == 0 else v


# ---------------------------------------------------------------------------
# extremal coefficient function


def representer_value(p: float, delta, norm_p: float):
    """Pointwise extremal coefficient |delta|^(p-2) delta / norm^(p-1).

    Pairing it against the local discrepancy integrates to +norm, and its
    conjugate-norm is 1.  For p = 1 the limit is sign(delta); zero local
    discrepancy maps to zero.
    """
    p = _check_finite_p(p)
    delta = np.asarray(delta, dtype=np.float64)
    if p > 1.0 and not norm_p > 0.0:
        raise InvalidInputError("norm_p must be positive for p > 1")
    # |delta|^(p-2) delta written as sign(delta) |delta|^(p-1) so that
    # delta = 0 evaluates to 0 for every p >= 1 without special-casing
    v = np.sign(delta) * np.abs(delta) ** (p - 1.0) / norm_p ** (p - 1.0)
    return float(v) if v.ndim == 0 else v


# ---------------------------------------------------------------------------
# Monte Carlo duality check


@dataclass(frozen=True)
class DualityCheck:
    """Sampled verification that the extremal coefficient saturates duality.

    pairing estimates the integral of c* times the local discrepancy and
    should match norm; qnorm_pow estimates the q-th power of the conjugate
    norm of c* and should match 1.  Pointwise c* delta = |delta|^p /
    norm^(p-1) and |c*|^q = |delta|^p / norm^p, so both are the one sampled
    integral of |delta|^p, scaled: qnorm_pow is pairing / norm and the two
    z-scores are equal.  A sampled norm is a second estimate of that
    integral, m2 = norm^p with stderr p norm^(p-1) norm_stderr (delta
    method; norm_stderr is 0.0 when exact), and pairing - norm is
    (m1 - m2) / norm^(p-1): z divides by hypot(pairing_stderr, p norm_stderr),
    and qnorm_stderr is that over norm, so that qnorm_z = (qnorm_pow - 1) /
    qnorm_stderr.  With an exact norm both are the pairing's alone.
    """

    p: float
    q: float
    norm: float
    norm_method: str
    norm_stderr: float
    pairing: float
    pairing_stderr: float
    samples: int
    seed: int

    @property
    def qnorm_pow(self) -> float:
        return self.pairing / self.norm

    @property
    def qnorm_stderr(self) -> float:
        return self._gap_stderr / self.norm

    @property
    def pairing_z(self) -> float:
        return _zscore(self.pairing, self.norm, self._gap_stderr)

    @property
    def _gap_stderr(self) -> float:
        return math.hypot(self.pairing_stderr, self.p * self.norm_stderr)

    @property
    def qnorm_z(self) -> float:
        return self.pairing_z


def _zscore(est: float, target: float, se: float) -> float:
    if se == 0.0:
        return 0.0 if est == target else math.inf
    return (est - target) / se


# the MC norm is extreme_lp_mc at seed + this offset: the norm stream of seed s
# is the pairing stream of seed s + 2^32; within one call the two are independent
_NORM_STREAM_OFFSET = 1 << 32


def duality_gap_mc(
    ps: PointSet,
    ws: WeightSet,
    p: float,
    samples: int,
    seed: int,
    workers: int = 1,
) -> DualityCheck:
    """Monte Carlo audit of the duality identities for one rule.

    The norm comes from `engines._evaluate`, through the engine calls of
    `disc`: exact when p is 2, or an even integer within the default cell
    budget, and from an independent Monte Carlo stream otherwise;
    `norm_method` names the engine that ran.  The pairing then comes from
    fresh sampled boxes: it is the L_p sampler's integral of |delta|^p at
    `seed`, over norm^(p-1).  Its target is norm, reported with a
    z-score that counts both estimates' errors.  When both fail, the
    pairing's overflow or underflow is raised before a norm engine's
    `InternalConsistencyError`.
    """
    p = _check_p_over_1(p, "duality audit needs p > 1 (q finite)")
    _check_sampling(ps, ws, samples, seed, workers, least=2)
    norm_error = None
    try:
        res = _evaluate(ps, ws, p, samples, seed + _NORM_STREAM_OFFSET, workers)
    except InternalConsistencyError as exc:
        norm_error = exc
    # a pairing past binary64 is this p's limit for any engine: it is reported first
    moment, moment_se = _lp_moment(ps, ws, p, samples, seed, workers)
    if norm_error is not None:
        raise norm_error
    norm = res.value
    if norm <= 0.0:
        raise InvalidInputError("rule has zero discrepancy, nothing to audit")
    pairing_scale = norm ** (p - 1.0)
    return DualityCheck(
        p=p,
        q=conjugate_exponent(p),
        norm=norm,
        norm_method=res.method.value,
        norm_stderr=res.stderr or 0.0,
        pairing=moment / pairing_scale,
        pairing_stderr=moment_se / pairing_scale,
        samples=samples,
        seed=seed,
    )
