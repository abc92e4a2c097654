"""Exact and Monte Carlo evaluators of the extreme L_p discrepancy.

All evaluators return the unnormalized value

    L_p = ( integral over {a <= b} of |local_discrepancy(a, b)|^p )^(1/p)

and its p = infinity analogue, the essential supremum.  Exact finite-p
evaluation is supported for p = 2 (closed form) and all even integers
(piecewise-polynomial cell integration); other finite p go through Monte
Carlo.  The sup norm has an exact grid enumeration and a sampled hard
lower bound.  One table, `_EXPONENT_RULES`, holds the exponents each
`Method` accepts, for the engines and the CLI alike.  Every sampler,
`dual.duality_gap_mc` included, runs on one chunked core, `_sample`, and
reduces its per-chunk sums in chunk order with `_mean_stderr`; the L_p
sampler and the duality audit share one statistic, the sampled integral
of |delta|^p (`_lp_moment`).

The grid engines never build a point-by-box membership matrix: every
weighted count is a difference of one cumulative weighted histogram over
the breakpoint grid (`CellDecomposition.prefix_weights`), differenced over
axes 1.. once (`_difference_rest`).  The even-p engine then differences
axis 0 in slabs of about `_SLAB` counts.  The sup-norm engine scans axis 0
of slabs of about `_SLAB` table entries with a running minimum, O(grid
lines) per column instead of O(grid pairs), and re-evaluates the few
boxes within a rounding bound of the best directly, so its result is the
same float as a direct maximum over all grid boxes.  The L2 engine builds
its pair kernel in row blocks of about `_SLAB` entries.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import reduce
from itertools import chain

import numpy as np

from .core import (
    CHUNK,
    BudgetExceededError,
    DiscrepancyResult,
    InternalConsistencyError,
    InvalidInputError,
    Method,
    PointSet,
    WeightSet,
    _check_pair,
    local_discrepancy_batch,
    sample_box_pairs,
    substream,
)

DEFAULT_CELL_BUDGET = 10**7
DEFAULT_BOX_BUDGET = 10**8

# output entries per slab of the exact engines' counts and L2 kernel
_SLAB = 1 << 16

# squared-total clamp for the closed-form L2 path; anything more negative
# indicates a real inconsistency, not roundoff
_L2_NEG_TOL = 1e-12


# (accepted exponents, test) per method, shared by the engines, dual and the CLI
_EXPONENT_RULES = {
    Method.L2_EXACT: ("p = 2", lambda p: p == 2),
    Method.EVEN_P_EXACT: ("an even integer p >= 2", lambda p: 2 <= p < math.inf and p % 2 == 0),
    Method.MC: ("1 <= p < inf", lambda p: 1 <= p < math.inf),
    Method.LINF_EXACT: ("p = inf", lambda p: p == math.inf),
    Method.LINF_SAMPLED: ("p = inf", lambda p: p == math.inf),
}


def _accepts(method: Method, p) -> bool:
    return _EXPONENT_RULES[method][1](p)


def _check_exponent(method: Method, p) -> None:
    if not _accepts(method, p):
        text = _EXPONENT_RULES[method][0]
        raise InvalidInputError(f"{method.value} requires {text}, got p = {p}")


def _check_budget(budget: int) -> None:
    if budget < 1:
        raise InvalidInputError(f"budget must be >= 1, got {budget}")


# ---------------------------------------------------------------------------
# cell decomposition shared by the exact engines


@dataclass
class CellDecomposition:
    """Per-dimension breakpoint grids induced by a point set.

    gammas[j] is the sorted union of {0, 1} and the j-th coordinates; the
    local discrepancy restricted to boxes whose anchors stay inside one
    cell of the induced product partition has a constant weighted count.
    pos[j][k] is the index of point k's j-th coordinate inside gammas[j].
    """

    gammas: list[np.ndarray]
    pos: list[np.ndarray]

    @classmethod
    def from_points(cls, ps: PointSet) -> "CellDecomposition":
        gammas, pos = [], []
        for j in range(ps.d):
            g = np.unique(np.concatenate(([0.0, 1.0], ps.coords[:, j])))
            gammas.append(g)
            pos.append(np.searchsorted(g, ps.coords[:, j]))
        return cls(gammas, pos)

    def interval_pair_count(self) -> int:
        """Cells for finite-p integration: ordered interval pairs per axis."""
        total = 1
        for g in self.gammas:
            m = len(g) - 1
            total *= m * (m + 1) // 2
        return total

    def grid_pair_count(self) -> int:
        """Candidate boxes for sup-norm enumeration: ordered grid pairs."""
        total = 1
        for g in self.gammas:
            b = len(g)
            total *= b * (b + 1) // 2
        return total

    def prefix_weights(self, weights: np.ndarray) -> np.ndarray:
        """Cumulative weighted histogram over the breakpoint grids.

        Axis j has length len(gammas[j]) + 1, and entry [r_0, ..., r_{d-1}]
        is the total weight of the points with pos[j] < r_j on every axis.
        The weight of the points with lo_j <= pos[j] < hi_j on every axis is
        then a 2^d-corner difference of this table.
        """
        table = np.zeros(tuple(len(g) + 1 for g in self.gammas))
        np.add.at(table, tuple(p + 1 for p in self.pos), weights)
        for axis in range(table.ndim):
            np.cumsum(table, axis=axis, out=table)
        return table


def _difference_rest(prefix: np.ndarray, rest_bounds: list[tuple[np.ndarray, np.ndarray]]):
    """The prefix table differenced over axes 1.., flattened to 2-D.

    rest_bounds[j - 1] = (lo, hi) lists the ranges of axis j >= 1: range i
    holds the points with lo[i] <= pos[j] < hi[i] (lo <= hi).  Entry
    [r, c] of the result is the weight of the points with pos[0] < r that
    lie in range combination c of axes 1.., numbered in C order; with
    d = 1 there is one combination.
    """
    table = prefix
    for axis, (lo, hi) in enumerate(rest_bounds, start=1):
        diff = np.take(table, hi, axis=axis)
        diff -= np.take(table, lo, axis=axis)
        table = diff
    return table.reshape(len(table), -1)


def _box_counts(prefix: np.ndarray, bounds: list[tuple[np.ndarray, np.ndarray]]):
    """Weighted counts of a product of per-axis index ranges, in slabs.

    bounds[j] = (lo, hi) lists the ranges of axis j, as in
    `_difference_rest`.  The differences over axes 1.. are taken once; then
    each slab of about _SLAB counts is one gather and one subtract over
    axis 0.  Yields (rows, counts) with rows a slice of axis-0 ranges and
    counts of shape (rows, ranges of axes 1..), the latter flattened in C
    order.
    """
    table = _difference_rest(prefix, bounds[1:])
    lo, hi = bounds[0]
    step = max(1, _SLAB // table.shape[1])
    for start in range(0, len(lo), step):
        rows = slice(start, start + step)
        yield rows, table[hi[rows]] - table[lo[rows]]


# ---------------------------------------------------------------------------
# exact L2 (closed form)


def extreme_l2_exact(ps: PointSet, ws: WeightSet) -> DiscrepancyResult:
    """Closed-form L2 value in O(n^2 d) operations and O(n d) memory.

    Squaring the local discrepancy and integrating each term over the
    anchor domain gives a pairwise kernel sum, a one-body cross term and
    the constant 12^-d:

        L2^2 = sum_jk c_j c_k prod_i (min(x_ji, x_ki) - x_ji x_ki)
             - 2 sum_k c_k prod_i (1 - x_ki^3 - (1 - x_ki)^3) / 6
             + 12^-d
    """
    _check_pair(ps, ws)
    n, d = ps.n, ps.d
    w, cols = ws.values, np.ascontiguousarray(ps.coords.T)
    kw = np.empty(n)
    step = max(1, _SLAB // max(n, 1))
    for start in range(0, n, step):
        rows = slice(start, start + step)
        block = 1.0
        for a, b in zip(cols[:, rows, None], cols):
            mix = np.minimum(a, b)
            mix -= a * b
            block *= mix
        kw[rows] = block @ w
    pair_term = float(w @ kw)
    g = (1.0 - ps.coords**3 - (1.0 - ps.coords) ** 3) / 6.0
    cross_term = float(w @ np.prod(g, axis=1))
    sq = pair_term - 2.0 * cross_term + 12.0**-d
    if sq < -_L2_NEG_TOL:
        raise InternalConsistencyError(f"squared L2 total {sq} is negative")
    return DiscrepancyResult(math.sqrt(max(sq, 0.0)), 2.0, Method.L2_EXACT)


# ---------------------------------------------------------------------------
# exact even p


def _interval_integrals(g: np.ndarray, s: np.ndarray, t: np.ndarray, p: int) -> np.ndarray:
    """Moments of one axis of the even-p cell sum, shape (p + 1, pairs).

    For the ordered interval pair (s, t) the anchor constraint is
    a in [g_s, g_{s+1}], b in [g_t, g_{t+1}], a <= b; entry [i, q] is the
    integral of (b - a)^i over pair q's anchor region.
    """
    a0, a1, b0, b1 = g[s], g[s + 1], g[t], g[t + 1]
    tri = s == t
    integrals = np.empty((p + 1, len(s)))
    for i in range(p + 1):
        k = i + 2
        den = (i + 1) * (i + 2)
        rect = ((b1 - a0) ** k - (b1 - a1) ** k - (b0 - a0) ** k + (b0 - a1) ** k) / den
        integrals[i] = np.where(tri, (a1 - a0) ** k / den, rect)
    return integrals


def extreme_lp_exact_even_p(
    ps: PointSet, ws: WeightSet, p: int, cell_budget: int = DEFAULT_CELL_BUDGET
) -> DiscrepancyResult:
    """Exact L_p for even integer p by cell-wise polynomial integration.

    On each cell the weighted count C is constant, so the binomial theorem
    reduces the cell integral of (C - vol)^p to 1-d moments of (b - a)^i
    which tensorize across dimensions.  The cell (s, t) of an axis holds
    the points on grid lines s+1 .. t, so every C is a difference of
    `CellDecomposition.prefix_weights`.  Work grows with the product over
    axes of the interval pair counts; `cell_budget` caps that product.
    """
    _check_pair(ps, ws)
    _check_exponent(Method.EVEN_P_EXACT, p)
    _check_budget(cell_budget)
    p = int(p)
    if p + 1 > cell_budget:  # the work is at least p + 1 binomial terms
        raise BudgetExceededError(
            f"p = {p} needs {p + 1} terms per cell, over budget {cell_budget}; use extreme_lp_mc"
        )
    cd = CellDecomposition.from_points(ps)
    if cd.interval_pair_count() > cell_budget:
        raise BudgetExceededError(
            f"{cd.interval_pair_count()} cells exceed budget {cell_budget}; "
            "use extreme_lp_mc instead"
        )
    # ordered interval pairs (s, t), s <= t, lexicographic on every axis
    pairs = [np.triu_indices(len(g) - 1) for g in cd.gammas]
    moments = [_interval_integrals(g, s, t, p) for g, (s, t) in zip(cd.gammas, pairs)]
    rest = [
        np.ravel(reduce(np.multiply.outer, [m[i] for m in moments[1:]], 1.0))
        for i in range(p + 1)
    ]
    coeffs = [math.comb(p, i) * (-1) ** i for i in range(p + 1)]
    # the i = p term has counts^0 = 1, so its row sums are all one constant
    rest_total = np.sum(rest[p])
    # one part per (axis-0 pair, binomial term); the terms alternate in
    # sign and cancel, so they are summed exactly by fsum
    parts: list[np.ndarray] = []
    bounds = [(s + 1, t + 1) for s, t in pairs]
    for rows, counts in _box_counts(cd.prefix_weights(ws.values), bounds):
        for i in range(p + 1):
            if i == p:
                sums = rest_total
            else:
                power = counts if i == p - 1 else counts ** (p - i)
                sums = np.sum(power * rest[i], axis=1)
            parts.append(coeffs[i] * moments[0][i][rows] * sums)
    total = math.fsum(chain.from_iterable(parts))
    if total < -_L2_NEG_TOL:
        raise InternalConsistencyError(f"p-th power total {total} is negative")
    return DiscrepancyResult(max(total, 0.0) ** (1.0 / p), float(p), Method.EVEN_P_EXACT)


# ---------------------------------------------------------------------------
# exact sup norm


def extreme_linf_exact(
    ps: PointSet, ws: WeightSet, box_budget: int = DEFAULT_BOX_BUDGET
) -> DiscrepancyResult:
    """Exact sup-norm discrepancy over the breakpoint-grid boxes.

    The supremum over all boxes of +-(count - volume) is attained in the
    limit at boxes whose closures have all faces on the per-axis grids, so
    taking every ordered grid pair (u, v) with closed counts
    g_u <= x <= g_v (positive side) and open counts g_u < x < g_v
    (negative side: boxes shrink onto a cell closure from inside) is exact
    for any real weights.  `_linf_side` finds each side's maximum in
    O(grid lines) per range of axes 1.. instead of O(grid pairs);
    `box_budget` still caps the number of grid pairs.
    """
    _check_pair(ps, ws)
    _check_budget(box_budget)
    cd = CellDecomposition.from_points(ps)
    nboxes = cd.grid_pair_count()
    if nboxes > box_budget:
        columns = math.prod(len(g) * (len(g) + 1) // 2 for g in cd.gammas[1:])
        nbytes = 8 * (len(cd.gammas[0]) + 1) * columns
        raise BudgetExceededError(
            f"{nboxes} boxes exceed budget {box_budget} (a {nbytes}-byte differenced "
            "table); use extreme_linf_lower_mc instead"
        )
    # ordered grid pairs (u, v), u <= v, lexicographic on axes 1..
    pairs = [np.triu_indices(len(g)) for g in cd.gammas[1:]]
    sides = [g[v] - g[u] for g, (u, v) in zip(cd.gammas[1:], pairs)]
    rest_side = np.ravel(reduce(np.multiply.outer, sides, 1.0))
    prefix = cd.prefix_weights(ws.values)
    closed = [(u, v + 1) for u, v in pairs]
    # an open range with v <= u + 1 is empty: hi = max(v, u + 1) makes it so
    opened = [(u + 1, np.maximum(v, u + 1)) for u, v in pairs]
    # 0.0 is the value of the open boxes with u = v on axis 0, which are
    # empty, have volume 0 and are skipped by _linf_side
    best = 0.0
    for sign, rest_bounds in ((1.0, closed), (-1.0, opened)):
        best = max(best, _linf_side(prefix, rest_bounds, cd.gammas[0], rest_side, sign))
    return DiscrepancyResult(best, math.inf, Method.LINF_EXACT)


def _linf_side(prefix, rest_bounds, g, rest_side, sign: float) -> float:
    """Largest sign * (count - volume) over one side's grid boxes.

    With T column c of the table differenced over axes 1.. and R its
    side product, the value of axis-0 pair (u, v) splits as A[v] - B[u]:
    closed (u <= v) A[v] = T[v+1] - g_v R, B[u] = T[u] - g_u R; open
    (u < v) A[v] = g_v R - T[v], B[u] = g_u R - T[u+1].  A running minimum
    of B gives M[v] = max over u of A[v] - B[u] in O(grid lines) per
    column.  M is rounded differently from the direct box value
    sign * ((T[hi] - T[lo]) - (g_v - g_u) R), but within tau of it, so the
    argmax box is among the (v, c) with M >= (largest M so far) - 2 tau;
    `_recheck_linf` evaluates those directly over every u, which makes the
    result the same float as the largest direct value over all boxes.
    """
    # each entry of the table is a +- sum of 2^(d-1) prefix entries, so
    # |T| <= big, and |g R| <= 1; the two roundings of a box value differ by
    # at most (8 big + 9) eps, and tau leaves a factor 2 for the rest
    big = 2.0 ** (prefix.ndim - 1) * max(float(prefix.max()), -float(prefix.min()))
    tau = 16.0 * np.finfo(np.float64).eps * (big + 1.0)
    table = _difference_rest(prefix, rest_bounds)
    top = best = -math.inf
    step = max(1, _SLAB // len(table))
    for start in range(0, table.shape[1], step):
        cols = slice(start, start + step)
        t, r = table[:, cols], rest_side[cols]
        gr = np.multiply.outer(g, r)
        if sign > 0:
            low, m = t[:-1] - gr, t[1:] - gr
        else:
            # row i of low is u = i and row i of m is v = i + 1
            low, m = gr[:-1] - t[1:-1], gr[1:] - t[1:-1]
        # a row loop: np.minimum.accumulate(axis=0) is about 10x slower
        for i in range(1, len(low)):
            np.minimum(low[i - 1], low[i], out=low[i])
        m -= low
        peak = float(m.max())
        top = max(top, peak)
        if peak >= top - 2.0 * tau:
            v, c = np.nonzero(m >= top - 2.0 * tau)
            if sign < 0:
                v += 1
            best = max(best, _recheck_linf(table, g, rest_side, sign, v, c + start))
    return best


def _recheck_linf(table, g, rest_side, sign: float, v, c) -> float:
    """Largest direct value over u of the boxes (u, v[i], column c[i]).

    The direct value is sign * ((T[hi] - T[lo]) - (g_v - g_u) R), as in
    `_linf_side`; the candidates are evaluated in pieces of about _SLAB
    boxes.
    """
    best = -math.inf
    u = np.arange(len(g))
    step = max(1, _SLAB // len(g))
    for start in range(0, len(v), step):
        vv, cc = v[start : start + step, None], c[start : start + step, None]
        if sign > 0:
            counts, keep = table[vv + 1, cc] - table[u, cc], u <= vv
        else:
            counts, keep = table[vv, cc] - table[u + 1, cc], u < vv
        vals = sign * (counts - (g[vv] - g[u]) * rest_side[cc])
        best = max(best, float(np.max(vals, where=keep, initial=-math.inf)))
    return best


# ---------------------------------------------------------------------------
# Monte Carlo


def _check_sampling(ps: PointSet, ws: WeightSet, samples, workers: int, least: int) -> None:
    _check_pair(ps, ws)
    if not (isinstance(samples, (int, np.integer)) and samples >= least):
        raise InvalidInputError(f"samples must be an integer >= {least}, got {samples!r}")
    if workers < 1:
        raise InvalidInputError("workers must be >= 1")


def _sample(ps: PointSet, ws: WeightSet, samples: int, seed: int, workers: int, per_chunk) -> list:
    """per_chunk(delta) for each chunk of sampled local discrepancies, in chunk order.

    Chunk i holds CHUNK boxes, the last one the remainder, drawn from
    substream(seed, i), so the list does not depend on the worker count.
    Each thread holds one chunk's boxes and kernel temporaries, so the pool
    never outnumbers the chunks or the CPUs.  Callers check their arguments
    with _check_sampling first.
    """
    full, rem = divmod(samples, CHUNK)
    sizes = [CHUNK] * full + ([rem] if rem else [])

    def run_chunk(i: int):
        lo, hi = sample_box_pairs(substream(seed, i), sizes[i], ps.d)
        return per_chunk(local_discrepancy_batch(ps.coords, ws.values, lo, hi))

    workers = min(workers, len(sizes), os.cpu_count() or 1)
    if workers == 1:
        return [run_chunk(i) for i in range(len(sizes))]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_chunk, range(len(sizes))))


def _sums(y: np.ndarray) -> tuple[float, float]:
    return float(np.sum(y)), float(np.sum(y * y))


def _mean_stderr(sums: list[tuple[float, float]], samples: int) -> tuple[float, float]:
    """Sample mean and its standard error from per-chunk (sum y, sum y^2)."""
    total = math.fsum(s[0] for s in sums)
    total_sq = math.fsum(s[1] for s in sums)
    var = max(total_sq - total * total / samples, 0.0) / (samples - 1)
    return total / samples, math.sqrt(var / samples)


def _lp_moment(
    ps: PointSet, ws: WeightSet, p: float, samples: int, seed: int, workers: int
) -> tuple[float, float]:
    """Sampled integral of |delta|^p over the box pairs, and its stderr.

    Both are 2^-d times the sample mean and its stderr; a power-of-two
    scale is exact, so where it is applied does not change a bit.
    """
    sums = _sample(ps, ws, samples, seed, workers, lambda delta: _sums(np.abs(delta) ** p))
    mean, se_mean = _mean_stderr(sums, samples)
    scale = 2.0**-ps.d
    return scale * mean, scale * se_mean


def extreme_lp_mc(
    ps: PointSet,
    ws: WeightSet,
    p: float,
    samples: int,
    seed: int,
    workers: int = 1,
) -> DiscrepancyResult:
    """Monte Carlo estimate of the finite-p extreme discrepancy.

    Boxes are drawn from the triangle sampler in fixed chunks keyed by the
    seed and chunk index; partial sums reduce in chunk order, so the result
    is bit-identical for any worker count.  The standard error of the root
    is propagated from the mean of |delta|^p by the delta method.
    """
    p = float(p)
    _check_exponent(Method.MC, p)
    _check_sampling(ps, ws, samples, workers, least=2)
    raw, se_raw = _lp_moment(ps, ws, p, samples, seed, workers)
    if raw > 0.0:
        value = raw ** (1.0 / p)
        stderr = (1.0 / p) * raw ** (1.0 / p - 1.0) * se_raw
    else:
        # degenerate sample: report the raw-mean stderr, the delta method
        # has no finite slope at zero
        value = 0.0
        stderr = se_raw
    return DiscrepancyResult(value, p, Method.MC, stderr=stderr, samples=samples, seed=seed)


def extreme_linf_lower_mc(
    ps: PointSet,
    ws: WeightSet,
    samples: int,
    seed: int,
    workers: int = 1,
) -> DiscrepancyResult:
    """Sampled hard lower bound of the sup-norm discrepancy.

    The maximum of |delta| over sampled boxes never exceeds the essential
    supremum, so the reported value is a certified lower bound; stderr is
    0.0 by convention since a sample maximum carries no error estimate.
    """
    _check_sampling(ps, ws, samples, workers, least=1)
    maxima = _sample(ps, ws, samples, seed, workers, lambda delta: float(np.max(np.abs(delta))))
    return DiscrepancyResult(
        max(maxima), math.inf, Method.LINF_SAMPLED, stderr=0.0, samples=samples, seed=seed
    )
