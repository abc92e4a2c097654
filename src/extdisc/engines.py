"""Exact and Monte Carlo evaluators of the extreme L_p discrepancy.

All evaluators return the unnormalized value

    L_p = ( integral over {a <= b} of |local_discrepancy(a, b)|^p )^(1/p)

and its p = infinity analogue, the essential supremum.  Exact finite-p
evaluation is supported for p = 2 (closed form) and all even integers
(piecewise-polynomial cell integration); other finite p go through Monte
Carlo.  The sup norm has an exact grid enumeration and a sampled hard
lower bound.  One table, `_METHODS`, holds each `Method`'s exponents and
engine call, run by `disc` and by `_evaluate`, the duality audit's norm
engine choice.  Every sampler, `dual.duality_gap_mc` included, runs on one
chunked core, `_sample`; the L_p sampler and the audit share one
statistic, the sampled integral of |delta|^p (`_lp_moment`).  A finite
rule misses boxes of positive volume, so a total that is not positive is
an error, never 0; so is a sum past the float maximum (for the L2 and
sup-norm engines, one that sum |w| does not rule out).  The even-p cell
sum cancels as p grows; in the same pass it sums the sizes of its parts,
and it raises when eps times that sum over the total, its relative error
bound (`DiscrepancyResult.error_bound`), passes `_CANCEL_TOL` = 1e-6.

The grid engines never build a point-by-box membership matrix: every
weighted count is a difference of one cumulative weighted histogram over
the breakpoint grid (`CellDecomposition.prefix_weights`) over axes 1..
(`_difference_rest`).  The even-p engine differences axes 1.. once, then
axis 0 in slabs of about `_SLAB` counts, and raises each slab of counts to
the powers 1 .. p by running products.  The sup-norm engine differences
axes 1 .. d-2 once and the last axis per slab of about `_SLAB` table
entries, for the columns it scans only, with the same bits as the whole
table.  It scans axis 0 of each slab with a running minimum, O(grid
lines) per column instead of O(grid pairs), and re-evaluates the few
boxes within a rounding bound of the best directly.  It skips the columns
whose bound, their positive weight C+ or their side product plus their
negative weight C-, is below the best box found by more than a rounding
margin.  So its result is the same float as a direct maximum over all
grid boxes.  The L2 engine
evaluates the n(n+1)/2 entries of its symmetric pair kernel on and above
the diagonal, in row blocks of about `_SLAB` entries.
"""

from __future__ import annotations

import math
import os
import sys
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
    _check_count,
    _check_pair,
    _prepare,
    local_discrepancy_batch,
    sample_box_pairs,
    substream,
)

DEFAULT_CELL_BUDGET = 10**7
DEFAULT_BOX_BUDGET = 10**8

# output entries per slab of the exact engines' counts and L2 kernel
_SLAB = 1 << 16

# the even-p engine raises past this relative error bound on its p-th power total
_CANCEL_TOL = 1e-6


# method -> (accepted p, test, p implied when none is given, engine call), for the
# engines, dual and CLI.  A call takes (ps, ws, p, budget: () or (budget,),
# sampling: (samples, seed, workers)) and looks its engine up by module-global
# name when it runs, so a wrapper set on that name (bench/tracing.py) sees it.
_METHODS = {
    Method.L2_EXACT: (
        "p = 2", lambda p: p == 2, 2.0, lambda ps, ws, p, b, s: extreme_l2_exact(ps, ws)),
    Method.EVEN_P_EXACT: (
        "an even integer p >= 2", lambda p: 2 <= p < math.inf and p % 2 == 0, None,
        lambda ps, ws, p, b, s: extreme_lp_exact_even_p(ps, ws, p, *b)),
    Method.MC: (
        "1 <= p < inf", lambda p: 1 <= p < math.inf, None,
        lambda ps, ws, p, b, s: extreme_lp_mc(ps, ws, p, *s)),
    Method.LINF_EXACT: (
        "p = inf", lambda p: p == math.inf, math.inf,
        lambda ps, ws, p, b, s: extreme_linf_exact(ps, ws, *b)),
    Method.LINF_SAMPLED: (
        "p = inf", lambda p: p == math.inf, math.inf,
        lambda ps, ws, p, b, s: extreme_linf_lower_mc(ps, ws, *s)),
}


def _accepts(method: Method, p) -> bool:
    return _METHODS[method][1](p)


def _check_exponent(method: Method, p) -> None:
    if not _accepts(method, p):
        raise InvalidInputError(f"{method.value} requires {_METHODS[method][0]}, got p = {p}")


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

    def _pair_counts(self, drop: int) -> list[int]:
        """Ordered pairs k(k+1)/2 per axis, k = grid lines - drop (1: intervals, 0: lines)."""
        return [k * (k + 1) // 2 for k in (len(g) - drop for g in self.gammas)]

    def _check_budget(
        self, drop: int, budget: int, noun: str, fallback: str, head: bool = False
    ) -> None:
        """Raise unless the pair count for `drop` fits budget, naming the table's bytes.

        That table is the prefix differenced over axes 1.. (`_difference_rest`),
        or with head, over axes 1 .. d-2 only (`extreme_linf_exact`'s head).
        """
        counts = self._pair_counts(drop)
        if math.prod(counts) > budget:
            cut = max(1, len(counts) - 1) if head else len(counts)
            lengths = [len(g) + 1 for g in self.gammas]
            nbytes = 8 * lengths[0] * math.prod(counts[1:cut]) * math.prod(lengths[cut:])
            table = "table head" if head else "differenced table"
            raise BudgetExceededError(
                f"{math.prod(counts)} {noun} exceed budget {budget} (a {nbytes}-byte "
                f"{table}); use {fallback} instead"
            )

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


def _abs_sum(w: np.ndarray) -> float:
    """sum |w|, inf where it passes the float maximum."""
    with np.errstate(over="ignore"):
        return float(np.abs(w).sum())


def _difference_rest(prefix: np.ndarray, rest_bounds: list[tuple[np.ndarray, np.ndarray]]):
    """The prefix table differenced over axes 1.., flattened to 2-D.

    rest_bounds[j - 1] = (lo, hi) lists the ranges of axis j >= 1: range i
    holds the points with lo[i] <= pos[j] < hi[i] (lo <= hi).  Entry
    [r, c] of the result is the weight of the points with pos[0] < r that
    lie in range combination c of axes 1.., numbered in C order; with
    d = 1 there is one combination.  Axes past the last of rest_bounds
    stay undifferenced, their prefix index numbered in C order after the
    range combination.
    """
    table = prefix
    for axis, (lo, hi) in enumerate(rest_bounds, start=1):
        diff = np.take(table, hi, axis=axis)
        diff -= np.take(table, lo, axis=axis)
        table = diff
    return table.reshape(len(table), -1)


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
    # the kernel entries are in [0, 1/4] and the g products in [0, 1/8], so
    # for S = sum |w|, |kw| <= S / 4, the pair term is at most S^2 / 2 and the
    # cross term S / 8 in size: below S^2 <= max no sum overflows
    total = _abs_sum(w)
    if not total * total <= sys.float_info.max:
        raise InvalidInputError(
            f"the L2 kernel sum can overflow binary64 at d = {d}: sum |w| = {total:g}"
        )
    kw = np.empty(n)
    step = max(1, _SLAB // max(n, 1))
    # the kernel is symmetric, so row block [start, stop) meets only the
    # columns from start on: of its first stop - start columns the mask keeps
    # those right of the diagonal and halves the diagonal, and the pair sum
    # is doubled at the end (x 1/2 and x 2 are exact)
    size = min(step, n)
    mask = np.triu(np.ones((size, size)), 1) + 0.5 * np.eye(size)
    for start in range(0, n, step):
        stop = min(start + step, n)
        block = 1.0
        for a, b in zip(cols[:, start:stop, None], cols[:, start:]):
            mix = np.minimum(a, b)
            mix -= a * b
            block *= mix
        block[:, : stop - start] *= mask[: stop - start, : stop - start]
        kw[start:stop] = block @ w[start:]
    pair_term = 2.0 * float(w @ kw)
    g = (1.0 - ps.coords**3 - (1.0 - ps.coords) ** 3) / 6.0
    cross_term = float(w @ np.prod(g, axis=1))
    sq = pair_term - 2.0 * cross_term + 12.0**-d
    if not sq > 0.0:
        raise InternalConsistencyError(f"squared L2 total {sq} is not positive")
    return DiscrepancyResult(math.sqrt(sq), 2.0, Method.L2_EXACT)


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
    axes of the interval pair counts; `cell_budget` caps that product, and
    also the p + 1 binomial terms of one cell.

    Past the checks on the total, the result carries error_bound, eps times
    the sum of the parts' sizes over the total (`_even_p_sum`): each part
    is rounded relative to its own size and fsum adds the parts exactly, so
    where they cancel, the total keeps about -log10(error_bound) digits.
    Over `_CANCEL_TOL` this raises instead of returning a value.
    """
    _check_pair(ps, ws)
    _check_exponent(Method.EVEN_P_EXACT, p)
    _check_count("cell_budget", cell_budget, 1)
    p = int(p)
    if p + 1 > cell_budget:
        raise BudgetExceededError(
            f"p = {p} needs {p + 1} terms per cell, over budget {cell_budget}; use extreme_lp_mc"
        )
    cd = CellDecomposition.from_points(ps)
    cd._check_budget(1, cell_budget, "cells", "extreme_lp_mc")
    total, size = _even_p_sum(cd, ws, p)
    if not total > 0.0:
        raise InternalConsistencyError(f"p-th power total {total} is not positive")
    value = total ** (1.0 / p)
    error_bound = sys.float_info.epsilon * size / total
    if not error_bound <= _CANCEL_TOL:  # also when the sizes overflowed to inf or NaN
        raise InternalConsistencyError(
            f"even-p cell sum cancelled: relative error bound {error_bound:.2g} of the "
            f"p-th power total exceeds {_CANCEL_TOL:g} at p = {p}"
        )
    return DiscrepancyResult(value, float(p), Method.EVEN_P_EXACT, error_bound=error_bound)


def _even_p_sum(cd, ws: WeightSet, p: int) -> tuple[float, float]:
    """The p-th power total of the even-p cell sum, and the sum of its parts' sizes.

    The total has one part per (binomial term i, axis-0 pair q):
    (-1)^i C(p, i) times q's axis-0 moment of order i times the sum over
    the columns of counts^(p - i) rest[i].  A part's size is the same
    product with every factor in absolute value.  The moments and rest are
    >= 0, so the parts of one term share a sign and their sizes sum to
    |sum of the parts|, except at an odd power of a negative count: where
    the rule has a negative weight, the odd terms also sum
    |counts^(p - i)| rest[i].
    The powers are running products, one multiply per term.
    """
    overflow = f"the terms of the even-p cell sum overflow binary64 at p = {p}"
    # the largest binomial coefficient passes the float maximum from p = 1030 on;
    # it is at least 2^(p/2), so past 2 max_exp it is not built to see that
    if p >= 2 * sys.float_info.max_exp or math.comb(p, p // 2) > sys.float_info.max:
        raise InvalidInputError(overflow)
    # ordered interval pairs (s, t), s <= t, lexicographic on every axis
    pairs = [np.triu_indices(len(g) - 1) for g in cd.gammas]
    moments = [_interval_integrals(g, s, t, p) for g, (s, t) in zip(cd.gammas, pairs)]
    rest = [
        np.ravel(reduce(np.multiply.outer, [m[i] for m in moments[1:]], 1.0))
        for i in range(p + 1)
    ]
    # scale[i, q] = (-1)^i C(p, i) times pair q's axis-0 moment of order i
    scale = moments[0]
    scale *= np.array([math.comb(p, i) * (-1) ** i for i in range(p + 1)], dtype=float)[:, None]
    parts = np.empty_like(scale)
    # the i = p term has counts^0 = 1, so its row sums are all one constant
    parts[p] = scale[p] * np.sum(rest[p])
    # the counts: the table differenced over axes 1.., then per slab of
    # about _SLAB counts one gather and one subtract over axis 0
    table = _difference_rest(cd.prefix_weights(ws.values), [(s + 1, t + 1) for s, t in pairs[1:]])
    lo, hi = pairs[0][0] + 1, pairs[0][1] + 1
    step = max(1, _SLAB // table.shape[1])
    # a rule without negative weights has counts >= 0 but for rounding residues
    # (-1e-16 in every slab of vdc12x3), whose powers eps * sum of sizes covers
    signed = bool((ws.values < 0).any())
    odd_sizes = np.zeros(p + 1)
    # a count power or product past the float maximum becomes inf or NaN,
    # and the check below turns it into one error
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(lo), step):
            rows = slice(start, start + step)
            counts = table[hi[rows]]
            counts -= table[lo[rows]]
            power = counts
            for i in range(p - 1, -1, -1):  # power = counts^(p - i)
                if i == p - 2:
                    power = np.square(counts)
                elif i < p - 2:
                    power *= counts
                # no temporary outlives its line: a fourth slab-sized array
                # alive made the p = 2 loop 20% slower
                np.multiply(scale[i, rows], np.sum(power * rest[i], axis=1), out=parts[i, rows])
                if signed and i % 2:
                    odd_sizes[i] += scale[i, rows] @ np.sum(np.abs(power) * rest[i], axis=1)
        sizes = np.sum(parts, axis=1)
        if signed:
            sizes[1::2] = odd_sizes[1::2]
        size = float(np.sum(np.abs(sizes)))
    if not np.isfinite(parts).all():
        raise InvalidInputError(overflow)
    # the parts alternate in sign and cancel, so they are summed exactly by
    # fsum; it reads Python floats faster than numpy scalars, and takes them
    # 4096 at a time so that they hold little memory
    flat = parts.ravel()
    chunks = (flat[k : k + 4096].tolist() for k in range(0, len(flat), 4096))
    return math.fsum(chain.from_iterable(chunks)), size


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
    for any real weights.  Both sides read the columns of one table, the
    prefix differenced over axes 1..; it is never built whole.  The head,
    the prefix differenced over axes 1 .. d-2, is built once, and the last
    axis is differenced per slab for the columns scanned only
    (`_table_columns`).  `_linf_side` finds the best box of a set of
    columns in O(grid lines) per column instead of O(grid pairs).  No box
    of column c beats C+_c, its positive weight, on the closed side, or
    R_c + C-_c, its open side product plus its negative weight, on the
    open side, so each side scans first the highest-bound column of each
    _SLAB of them, then only the columns whose bound can still beat the
    best box found; `box_budget` caps the grid pairs.
    """
    _check_pair(ps, ws)
    _check_count("box_budget", box_budget, 1)
    cd = CellDecomposition.from_points(ps)
    cd._check_budget(0, box_budget, "boxes", "extreme_linf_lower_mc", head=True)
    w, d = ws.values, ps.d
    # each entry of the table is a +- sum of 2^(d-1) prefix entries, and a
    # prefix entry is a sum of weights, so |T| <= scale (1 + n eps) with
    # scale = 2^(d-1) sum |w|.  A box value subtracts two entries of a column
    # and a volume <= 1, and a column bound adds two entries, so below
    # 4 scale <= max every table entry, box value and bound is finite
    scale = 2.0 ** (d - 1) * _abs_sum(w)
    if not 4.0 * scale <= sys.float_info.max:
        raise InvalidInputError(
            f"the sup-norm table can overflow binary64 at d = {d}: 2^(d-1) sum |w| = {scale:g}"
        )
    prefix = cd.prefix_weights(w)
    # column c of the table holds the points in closed range combination c
    # of axes 1.. (grid pairs u <= v, lexicographic); where 0 < u and
    # v < B - 1 on every axis, the open ranges (u - 1, v + 1) hold the same
    pairs = [np.triu_indices(len(g)) for g in cd.gammas[1:]]
    ranges = [(u, v + 1) for u, v in pairs]
    head = _difference_rest(prefix, ranges[:-1])
    table = (head, ranges[-1] if d > 1 else None, prefix.shape[-1])
    # row -1 of the table covers all of axis 0, so T[-1, c] = C+_c - C-_c,
    # with C-_c the column's negative weight; each is one row differenced
    # like the table, so it keeps the table's bits
    tlast = _difference_rest(prefix[-1:], ranges)[0]
    neg = np.maximum(-w, 0.0)
    cneg = _difference_rest(cd.prefix_weights(neg)[-1:], ranges)[0] if neg.any() else None
    eps = np.finfo(np.float64).eps
    # |g R| <= 1, so the two roundings of a box value differ by at most
    # (8 big + 9) eps, and tau leaves a factor 2 for the rest
    big = 2.0 ** (d - 1) * max(float(prefix.max()), -float(prefix.min()))
    tau = 16.0 * eps * (big + 1.0)
    # the column bounds hold for the exact tables T and C-.  A computed entry
    # of either passes each weight through at most n + sum(grid lines) + d - 2
    # roundings, in 2^(d-1) prefix entries, so it is within
    # err = K eps 2^(d-1) sum |w| of the exact one; K = n + sum(grid lines) + 2d
    # leaves room for the rounding of the bound's own sum.  A box's computed
    # value is within tau of sign ((U - L) - (hi - lo) R) on the computed
    # table, which is at most U - L (closed) or R + L - U (open, hi - lo <= 1);
    # U - L is within 2 err of the exact count, and T[-1] and C- within err
    # each of theirs.  So a column whose computed bound is below
    # best - (2 tau + 4 err) holds no box whose computed value reaches best.
    K = len(w) + sum(len(g) for g in cd.gammas) + 2 * d
    margin = 2.0 * tau + 4.0 * K * eps * scale
    inner = [(0 < u) & (v < len(g) - 1) for g, (u, v) in zip(cd.gammas[1:], pairs)]
    closed = [g[v] - g[u] for g, (u, v) in zip(cd.gammas[1:], pairs)]
    opened = [g[v[k] + 1] - g[u[k] - 1] for g, (u, v), k in zip(cd.gammas[1:], pairs, inner)]
    open_cols = np.flatnonzero(reduce(np.logical_and.outer, inner, True))
    # an open range with no grid line inside holds no point, so the best
    # such box is the widest gap of an axis >= 1 times 1 on the others
    best = max((float(np.diff(g).max()) for g in cd.gammas[1:]), default=0.0)
    g = cd.gammas[0]
    for side, lengths, cols in (
        ((1.0, slice(None, -1), slice(None), slice(1, None), slice(None)), closed, None),
        ((-1.0, slice(1, -1), slice(None, -1), slice(1, -1), slice(1, None)), opened, open_cols),
    ):
        rest = np.ravel(reduce(np.multiply.outer, lengths, 1.0))
        # the side's k-th column is k on the closed side, open_cols[k] on the
        # open one; its bound is C+ = T[-1] + C- (closed) or R + C- (open)
        pick = (lambda k: k) if cols is None else cols.__getitem__
        lead = tlast if cols is None else rest

        def bound(k):
            return lead[k] if cneg is None else lead[k] + cneg[pick(k)]

        # pass 1 scans the highest-bound column of each _SLAB, and pass 2
        # the other columns whose bound can still beat the best box
        starts = range(0, len(rest), _SLAB)
        first = np.array([s + np.argmax(bound(slice(s, s + _SLAB))) for s in starts], np.intp)
        best = _linf_side(table, g, side, pick(first), rest[first], tau, best)
        for s, f in zip(starts, first):
            keep = np.flatnonzero(bound(slice(s, s + _SLAB)) >= best - margin) + s
            keep = keep[keep != f]
            best = _linf_side(table, g, side, pick(keep), rest[keep], tau, best)
    return DiscrepancyResult(best, math.inf, Method.LINF_EXACT)


def _table_columns(head, last, width: int, cols, out, spare) -> None:
    """Write columns cols of the prefix table differenced over axes 1.. to out.

    head is the prefix differenced over axes 1 .. d-2 (`_difference_rest`),
    last = (lo, hi) the ranges of axis d - 1 (None at d = 1, where the
    table is the head) and width that axis's prefix length.  Column c is
    range combination a of the head's axes and range b of the last axis,
    (a, b) = divmod(c, len(lo)); it is `_difference_rest`'s last step for
    those columns only, the same subtraction of the same entries, so it
    has the same bits.  spare is a buffer of out's shape.
    """
    # mode="clip" lets take write to out unbuffered; every column is in range
    if last is None:
        np.take(head, cols, axis=1, out=out, mode="clip")
        return
    lo, hi = last
    a, b = np.divmod(cols, len(lo))
    a *= width
    np.take(head, a + hi[b], axis=1, out=out, mode="clip")
    np.take(head, a + lo[b], axis=1, out=spare, mode="clip")
    out -= spare


def _linf_side(table, g, side, cols, rest_side, tau: float, best: float) -> float:
    """The larger of best and the best box of table columns cols on one side.

    table = (head, last, width) builds the table's columns
    (`_table_columns`), len(g) + 1 rows each.  side = (sign, lrows, lgrid,
    urows, ugrid) slices rows L = T[lrows] and U = T[urows] of the table
    and their axis-0 grid lines lo = g[lgrid] and hi = g[ugrid];
    R = rest_side[k] is the side product of column cols[k].  A box
    (i <= j, k) has value
    sign ((U[j] - L[i]) - (hi[j] - lo[i]) R) = A[j] - B[i], with
    A = sign (U - hi R) and B = sign (L - lo R), and a running minimum of
    B gives M[j] = max over i of A[j] - B[i] in O(grid lines) per column;
    each slab of columns is built once, and the sign is folded into the
    subtraction (fl(x - y) = -fl(y - x)).  M is rounded differently from
    the direct value, but within tau of it, so a box beating best is among
    the (j, k) with M >= max(best, largest M so far) - 2 tau;
    `_recheck_linf` evaluates those directly over every i on the slab,
    which makes the result the same float as the largest direct value.
    """
    sign, lrows, lgrid, urows, ugrid = side
    lo, hi = g[lgrid], g[ugrid]
    top = best
    height = len(g) + 1
    step = max(1, _SLAB // height)
    # four buffers serve every slab: fresh slab arrays each time raised the
    # peak RSS of vdc100x2 then vdc20x3 by 1.3 MB
    bufs = [np.empty(height * min(step, len(cols))) for _ in range(4)]
    for start in range(0, len(cols), step):
        c, r = cols[start : start + step], rest_side[start : start + step]
        s, spare, gr, b = (buf[: height * len(c)].reshape(height, len(c)) for buf in bufs)
        _table_columns(*table, c, s, spare)
        # one product per slab; B, then A in spare, whose lo gather s has
        # read, so the slab stays whole for the recheck
        gr = np.multiply.outer(g, r, out=gr[:-1])
        b, m = b[lrows], spare[urows]
        if sign > 0.0:
            np.subtract(s[lrows], gr[lgrid], out=b)
            np.subtract(s[urows], gr[ugrid], out=m)
        else:
            np.subtract(gr[lgrid], s[lrows], out=b)
            np.subtract(gr[ugrid], s[urows], out=m)
        # a row loop: np.minimum.accumulate(axis=0) is about 3x slower
        rows = list(b)
        for prev, row in zip(rows, rows[1:]):
            np.minimum(prev, row, out=row)
        m -= b
        peak = float(m.max())
        top = max(top, peak)
        if peak >= top - 2.0 * tau:
            j, k = np.nonzero(m >= top - 2.0 * tau)
            best = max(best, _recheck_linf((s[lrows], lo), (s[urows], hi), r, sign, j, k))
    return best


def _recheck_linf(low, high, rest_side, sign: float, j, k) -> float:
    """Largest direct value over i <= j[q] of the boxes (i, j[q], column k[q]).

    low = (L, lo) and high = (U, hi) are a slab's rows and grid lines as in
    `_linf_side`, and rest_side its columns' side products.  The direct
    value is the one `_linf_side` maximises; the candidates are evaluated
    in pieces of about _SLAB boxes.
    """
    (lower, lo), (upper, hi) = low, high
    best = -math.inf
    i = np.arange(len(lo))
    step = max(1, _SLAB // len(lo))
    for start in range(0, len(j), step):
        jj, kk = j[start : start + step, None], k[start : start + step, None]
        counts = upper[jj, kk] - lower[i, kk]
        vals = sign * (counts - (hi[jj] - lo[i]) * rest_side[kk])
        best = max(best, float(np.max(vals, where=i <= jj, initial=-math.inf)))
    return best


# ---------------------------------------------------------------------------
# Monte Carlo


def _check_sampling(ps: PointSet, ws: WeightSet, samples, seed, workers, least: int) -> None:
    _check_pair(ps, ws)
    _check_count("samples", samples, least)
    _check_count("workers", workers, 1)
    _check_count("seed", seed)


def _sample(ps: PointSet, ws: WeightSet, samples: int, seed: int, workers: int, per_chunk) -> list:
    """per_chunk(delta) for each chunk of sampled local discrepancies, in chunk order.

    Chunk i holds CHUNK boxes, the last one the remainder, drawn from
    substream(seed, i), so the list does not depend on the worker count.
    The kernel's block tables are built once, before the pool starts, and
    every chunk and thread reads the same ones; points whose tables could
    pass `core._TABLE_BYTES` get none, and each chunk builds its own, one
    block at a time.  Each thread holds one chunk's boxes and kernel
    temporaries, so the pool never outnumbers the chunks or the CPUs this
    process may run on (two threads on one CPU only hand the GIL back and
    forth).
    Callers check their arguments with _check_sampling first.
    """
    full, rem = divmod(samples, CHUNK)
    sizes = [CHUNK] * full + ([rem] if rem else [])
    tables = _prepare(ps.coords, ws.values)

    def run_chunk(i: int):
        lo, hi = sample_box_pairs(substream(seed, i), sizes[i], ps.d)
        return per_chunk(local_discrepancy_batch(ps.coords, ws.values, lo, hi, tables=tables))

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(workers, len(sizes), cpus or 1)
    if workers == 1:
        return [run_chunk(i) for i in range(len(sizes))]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_chunk, range(len(sizes))))


def _power_sums(delta: np.ndarray, p: float) -> tuple[float, float]:
    """(sum y, sum y^2) of y = |delta|^p; past the float maximum a sum is inf."""
    with np.errstate(over="ignore"):
        y = np.abs(delta) ** p
        return float(np.sum(y)), float(np.sum(y * y))


def _lp_moment(
    ps: PointSet, ws: WeightSet, p: float, samples: int, seed: int, workers: int
) -> tuple[float, float]:
    """Sampled integral of |delta|^p over the box pairs, and its stderr.

    Both are 2^-d times the sample mean and its stderr, from the per-chunk
    (sum y, sum y^2) of y = |delta|^p summed in chunk order; a power-of-two
    scale is exact, so where it is applied does not change a bit.  When
    the square of the sum passes the float maximum, or the squares sum
    below the smallest normal float, the sample holds no usable estimate
    (the variance needs both), and this raises.
    """
    sums = _sample(ps, ws, samples, seed, workers, lambda delta: _power_sums(delta, p))
    try:
        total = math.fsum(s[0] for s in sums)
        total_sq = math.fsum(s[1] for s in sums)
    except OverflowError:  # finite chunk sums whose total passes the float maximum
        total = math.inf
    # for y >= 0, (sum y)^2 >= sum y^2: this also catches an overflow of the squares
    if not total * total < math.inf:
        raise InvalidInputError(
            f"sampled |delta|^p overflows at p = {p}, d = {ps.d}: no estimate in binary64"
        )
    if total_sq < sys.float_info.min:
        raise InvalidInputError(
            f"sampled |delta|^p underflows at p = {p}, d = {ps.d}: no estimate in binary64"
        )
    var = max(total_sq - total * total / samples, 0.0) / (samples - 1)
    scale = 2.0**-ps.d
    return scale * (total / samples), scale * math.sqrt(var / samples)


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
    _check_sampling(ps, ws, samples, seed, workers, least=2)
    raw, se_raw = _lp_moment(ps, ws, p, samples, seed, workers)
    value = raw ** (1.0 / p)
    stderr = (1.0 / p) * raw ** (1.0 / p - 1.0) * se_raw
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
    _check_sampling(ps, ws, samples, seed, workers, least=1)
    maxima = _sample(ps, ws, samples, seed, workers, lambda delta: float(np.max(np.abs(delta))))
    return DiscrepancyResult(
        max(maxima), math.inf, Method.LINF_SAMPLED, stderr=0.0, samples=samples, seed=seed
    )


def _evaluate(ps: PointSet, ws: WeightSet, p, samples, seed, workers) -> DiscrepancyResult:
    """The audit's L_p, from the first l2-exact, even-exact or mc row that takes p.

    An exact row takes p when its `_METHODS` test accepts p and its engine, at its
    default budget, does not raise `BudgetExceededError`: an even p whose cells or
    binomial terms pass the cell budget is sampled.  Every other error propagates.
    """
    sampling = (samples, seed, workers)
    for method in (Method.L2_EXACT, Method.EVEN_P_EXACT):
        if _accepts(method, p):
            try:
                return _METHODS[method][3](ps, ws, p, (), sampling)
            except BudgetExceededError:
                pass
    return _METHODS[Method.MC][3](ps, ws, p, (), sampling)
