"""Point sets, weights, box pairs, and the local discrepancy function.

Conventions used throughout the package:

* Points live in the half-open cube [0, 1)^d.
* A box pair (a, b) with a <= b coordinatewise names the half-open box
  [a, b); membership is a_j <= x_j < b_j in every coordinate.
* The collection of box pairs is a subset of [0,1]^{2d} with Lebesgue mass
  2^-d.  It is deliberately left unnormalized: an integral over it equals
  2^-d times the expectation under the triangle sampler `sample_box_pairs`.
* All floating point work is binary64.

Box membership for batches of boxes runs on rank tables: within a block of
at most `_BLOCK` points, the points below the r-th distinct coordinate on
axis j form a prefix bitset P_j[r], so the points inside [lower, upper) are
the AND over the axes of P_j[rank(upper_j)] ^ P_j[rank(lower_j)], with
ranks among the distinct coordinates.  Ranks are gathers from a bucket
table over a dyadic grid, exact for every finite anchor, plus a branchless
binary search inside one bucket.  The block's axes share one stacked table,
so one search ranks both anchors of a tile's boxes on every axis: a few
numpy calls on large arrays, not a dozen small ones per axis, which keeps
the time threads spend holding the GIL between calls short.  Weighted
counts of a bitset read an 8-bit table of partial weight sums per byte,
and add a box's lookups in numpy's pairwise order, the order of
`sum(axis=1)`: up to 64 bytes per bitset column by column over all the
tile's boxes at once (`_column_sum`), above that with `sum(axis=1)`
itself, so either way the counts have the same bits.
Queries are tiled over boxes, so the temporaries of one call stay bounded
for any n.  A caller that queries the same points many times builds the
block tables once (`_prepare`, up to `_TABLE_BYTES`) and passes them to
every call.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass
from functools import reduce
from pathlib import Path

import numpy as np

# Samples per RNG substream.  Monte Carlo estimators draw chunk i from the
# counter-based stream keyed by (seed, i) and reduce the per-chunk partials
# in index order, so results do not depend on how chunks are scheduled.
CHUNK = 1 << 16

# Points per bitset block of the membership kernel.  A block's bitsets take
# (L + 1) * _BLOCK / 8 bytes on an axis with L distinct coordinates, at most
# 16 MiB at d = 8.
_BLOCK = 4096

# Bytes of float64 weight lookups per query tile, or of its rank search's
# arrays (anchors, ranks and two work arrays: 8d numbers per box) when d is
# large and the block small.  The int64 index array is as large as the
# lookups, the search reuses both, and the tile's other temporaries are
# smaller, so this and one block's tables cap the kernel's working memory
# per call for any n.
_TILE_BYTES = 1 << 21

# Bytes of block tables that `_prepare` builds once per sampler run and the
# run's chunks and threads share.  A d = 8 block of 4096 points takes about
# 19 MiB when every coordinate is distinct; points whose tables could take
# more get none, and each call builds its blocks one at a time.
_TABLE_BYTES = 32 << 20

# Bytes of box sides per tile of `_volumes`, small enough to stay in cache.
_VOLUME_TILE_BYTES = 1 << 18

# Packed bitsets are little-endian uint64 words, so byte k of a bitset
# holds points 8k..8k+7 on any host.
_WORD = np.dtype("<u8")
_BIT = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64)).astype(_WORD)


class InvalidInputError(ValueError):
    """Bad user input: malformed files, out-of-range values, wrong exponents."""


class BudgetExceededError(RuntimeError):
    """An exact enumeration would exceed its configured work budget."""


class InternalConsistencyError(RuntimeError):
    """A quantity violated an internal invariant beyond numerical noise."""


class WeightKind(enum.Enum):
    GENERAL = "general"
    NONNEG = "nonneg"
    QMC = "qmc"


class Method(enum.Enum):
    """Evaluation method tags; values double as CLI tokens."""

    L2_EXACT = "l2-exact"
    EVEN_P_EXACT = "even-exact"
    MC = "mc"
    LINF_EXACT = "linf-exact"
    LINF_SAMPLED = "linf-mc"


_RANDOMIZED = frozenset({Method.MC, Method.LINF_SAMPLED})


@dataclass(frozen=True)
class PointSet:
    """An ordered list of points in [0, 1)^d, immutable after construction."""

    coords: np.ndarray

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(np.asarray(self.coords, dtype=np.float64))
        if arr.ndim != 2:
            raise InvalidInputError("coords must be a 2-d array of shape (n, d)")
        if arr.shape[1] < 1:
            raise InvalidInputError("dimension must be at least 1")
        if arr.size and (not np.all(np.isfinite(arr)) or arr.min() < 0.0 or arr.max() >= 1.0):
            raise InvalidInputError("coordinates must lie in [0, 1)")
        arr.flags.writeable = False
        object.__setattr__(self, "coords", arr)

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @property
    def d(self) -> int:
        return self.coords.shape[1]


@dataclass(frozen=True)
class WeightSet:
    """Per-point quadrature weights together with their sign class.

    QMC means every weight equals 1/n exactly; NONNEG means all weights are
    >= 0; GENERAL places no sign restriction.  The kind is part of the value
    because several bounds are only valid for nonnegative rules.
    """

    values: np.ndarray
    kind: WeightKind

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if arr.ndim != 1:
            raise InvalidInputError("weights must be a 1-d array")
        if arr.size and not np.all(np.isfinite(arr)):
            raise InvalidInputError("weights must be finite")
        if self.kind is WeightKind.QMC:
            if arr.size == 0:
                raise InvalidInputError("QMC weights need at least one point")
            if not np.all(arr == 1.0 / arr.size):
                raise InvalidInputError("QMC weights must all equal 1/n exactly")
        elif self.kind is WeightKind.NONNEG:
            if arr.size and arr.min() < 0.0:
                raise InvalidInputError("NONNEG weights must be >= 0")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.shape[0]


def classify_weights(values: np.ndarray) -> WeightKind:
    """Most specific kind the given weight vector satisfies."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size and np.all(arr == 1.0 / arr.size):
        return WeightKind.QMC
    if arr.size == 0 or arr.min() >= 0.0:
        return WeightKind.NONNEG
    return WeightKind.GENERAL


def equal_weights(n: int) -> WeightSet:
    _check_count("n", n)
    if n < 1:
        raise InvalidInputError("equal weights need n >= 1")
    return WeightSet(np.full(n, 1.0 / n), WeightKind.QMC)


@dataclass(frozen=True)
class BoxPair:
    """Anchors (lower, upper) of a half-open box [lower, upper)."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        lo = np.ascontiguousarray(np.asarray(self.lower, dtype=np.float64))
        hi = np.ascontiguousarray(np.asarray(self.upper, dtype=np.float64))
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise InvalidInputError("box anchors must be 1-d arrays of equal length")
        if lo.size < 1:
            raise InvalidInputError("box dimension must be at least 1")
        ok = np.all(lo >= 0.0) and np.all(hi <= 1.0) and np.all(lo <= hi)
        if not (ok and np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise InvalidInputError("need 0 <= lower <= upper <= 1 coordinatewise")
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def d(self) -> int:
        return self.lower.shape[0]

    def volume(self) -> float:
        return float(np.prod(self.upper - self.lower))


@dataclass(frozen=True)
class DiscrepancyResult:
    """Outcome of a discrepancy evaluation.

    stderr/samples/seed are present exactly for the randomized methods.  For
    LINF_SAMPLED the value is a hard lower bound of the sup norm, so stderr
    is reported as 0.0.  error_bound is the even-p engine's bound on the
    relative error of value^p, and None for every other engine; it is not
    printed.
    """

    value: float
    p: float
    method: Method
    stderr: float | None = None
    samples: int | None = None
    seed: int | None = None
    error_bound: float | None = None

    def __post_init__(self) -> None:
        if not (self.value >= 0.0):
            raise InternalConsistencyError(f"negative discrepancy value {self.value}")
        randomized = self.method in _RANDOMIZED
        have = (self.stderr is not None, self.samples is not None, self.seed is not None)
        if randomized and not all(have):
            raise InvalidInputError("randomized results need stderr, samples and seed")
        if not randomized and any(have):
            raise InvalidInputError("exact results must not carry stderr, samples or seed")

    def to_json_dict(self, task: str, d: int, n: int) -> dict:
        out: dict = {
            "task": task,
            "p": "inf" if math.isinf(self.p) else self.p,
            "d": d,
            "n": n,
            "method": self.method.value,
            "value": self.value,
        }
        if self.stderr is not None:
            out["stderr"] = self.stderr
        if self.samples is not None:
            out["samples"] = int(self.samples)
        if self.seed is not None:
            out["seed"] = int(self.seed)
        return out


# ---------------------------------------------------------------------------
# local discrepancy


def _check_pair(ps: PointSet, ws: WeightSet) -> None:
    if ws.n != ps.n:
        raise InvalidInputError("point set and weight set sizes differ")


def _check_count(name: str, value, low: int | None = None) -> None:
    """Raise unless value is an int or numpy integer, and >= low if given (2.5, NaN, "5" fail)."""
    if not (isinstance(value, (int, np.integer)) and (low is None or value >= low)):
        bound = "" if low is None else f" >= {low}"
        raise InvalidInputError(f"{name} must be an integer{bound}, got {value!r}")


def local_discrepancy(ps: PointSet, ws: WeightSet, box: BoxPair) -> float:
    """Weighted count of points in [lower, upper) minus the box volume.

    One box is evaluated straight from the definition in O(n d); the tables
    of `local_discrepancy_batch` only pay off over many boxes.
    """
    _check_pair(ps, ws)
    if box.d != ps.d:
        raise InvalidInputError("box dimension does not match point set")
    inside = np.all((box.lower <= ps.coords) & (ps.coords < box.upper), axis=1)
    return float(ws.values @ inside - np.prod(box.upper - box.lower))


def local_discrepancy_batch(
    coords: np.ndarray,
    weights: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    *,
    tables: list | None = None,
) -> np.ndarray:
    """Vectorized local discrepancy for a batch of boxes, shape (m,).

    `coords` is (n, d) in [0, 1), `weights` (n,), and `lower`, `upper` are
    (m, d) and finite; anchors outside [0, 1] are allowed.  Each box's
    value depends only on the points and its own anchors, so results are
    bitwise independent of how boxes are split into batches.  `tables`,
    from `_prepare(coords, weights)`, holds block tables built once for
    many calls on the same points; without them each block is built for
    this call, one at a time.
    """
    coords = np.asarray(coords, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    lower = np.asarray(lower, dtype=np.float64)
    upper = np.asarray(upper, dtype=np.float64)
    if coords.ndim != 2 or coords.shape[1] < 1:
        raise InvalidInputError("coords must be a 2-d array of shape (n, d) with d >= 1")
    n, d = coords.shape
    if weights.shape != (n,):
        raise InvalidInputError(f"weights must have shape ({n},), got {weights.shape}")
    if lower.ndim != 2 or lower.shape[1] != d or upper.shape != lower.shape:
        raise InvalidInputError(
            f"lower and upper must both have shape (m, {d}), got {lower.shape} and {upper.shape}"
        )
    if not np.all(np.isfinite(coords)) or np.any(coords < 0.0) or np.any(coords >= 1.0):
        raise InvalidInputError("coordinates must lie in [0, 1)")
    if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
        raise InvalidInputError("box anchors must be finite")
    starts = range(0, n, _BLOCK)
    if tables is not None and len(tables) != len(starts):
        raise InvalidInputError(f"tables hold {len(tables)} blocks, the points {len(starts)}")
    counts = np.zeros(lower.shape[0])
    for i, s in enumerate(starts):
        if tables is not None:
            counts += _block_counts(tables[i], lower, upper)
        else:  # left unnamed, a block is freed before the next one is built
            part = slice(s, s + _BLOCK)
            counts += _block_counts(_block_tables(coords[part], weights[part]), lower, upper)
    return counts - _volumes(lower, upper)


def _volumes(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """np.prod(upper - lower, axis=1), bit for bit: the same left-to-right
    product, taken one column at a time over tiles of boxes that stay in
    cache (a reduction over a short axis costs about 26 ns per row)."""
    m, d = lower.shape
    volumes = np.empty(m)
    rows = max(1, _VOLUME_TILE_BYTES // (8 * d))
    for start in range(0, m, rows):
        sides = upper[start : start + rows] - lower[start : start + rows]
        out = volumes[start : start + rows]
        np.copyto(out, sides[:, 0])
        for j in range(1, d):
            out *= sides[:, j]
    return volumes


def _rank_table(distinct: list, offsets: np.ndarray) -> tuple:
    """Bucket table giving offsets[j] + searchsorted(distinct[j], x, "left")
    on every axis j at once, by gathers.

    Axis j's sorted distinct values u fall into K = 2^(ceil(log2 len(u)) + 3)
    buckets [k/K, (k+1)/K), and its base[k] counts the u below k/K.  For a
    query x in [0, 1] and k = floor(x K), every u below k/K is below x
    and every u of a later bucket is at least (k+1)/K > x, so the rank of x
    is base[k] plus the u of bucket k below x, found by a binary search of
    `steps` halvings, enough for the fullest bucket of any axis.  K is a
    power of two, so x K and k/K are exact.  The axes are stacked: `padded`
    holds each axis's u followed by 2^steps infinities, and `base` each
    axis's base shifted to where its u start in `padded`, so one search
    serves every axis and reads no other axis's values: a later bucket and
    the padding hold none below x.
    """
    buckets = [1 << ((len(u) - 1).bit_length() + 3) for u in distinct]
    bases = [np.searchsorted(u, np.arange(k + 1) / k, "left") for u, k in zip(distinct, buckets)]
    steps = max(int(np.diff(b).max()).bit_length() for b in bases)
    pad = np.full(1 << steps, np.inf)
    padded = np.concatenate([part for u in distinct for part in (u, pad)])
    starts = np.cumsum([0] + [len(u) + len(pad) for u in distinct[:-1]])
    base = np.concatenate([b + s for b, s in zip(bases, starts)])
    base_starts = np.cumsum([0] + [k + 1 for k in buckets[:-1]])
    # per-axis constants as (d, 1) columns, to broadcast over queries (d, q)
    scale = np.array(buckets, dtype=np.float64)[:, None]
    shift = (np.asarray(offsets) - starts)[:, None]
    return scale, base_starts[:, None], base, padded, steps, shift


def _ranks(table, x: np.ndarray, out: np.ndarray, scratch: np.ndarray, floats: np.ndarray):
    """out[j] = offsets[j] + searchsorted(distinct[j], x[j], "left") for x
    in [0, 1] of shape (d, q), via `_rank_table`.  `scratch` (intp) and
    `floats` are work arrays of x's shape.  As coordinates lie in [0, 1), a
    finite anchor outside [0, 1] has the rank of its clip to [0, 1]."""
    scale, base_starts, base, padded, steps, shift = table
    np.multiply(x, scale, out=floats)
    scratch[...] = floats  # truncates to the bucket k
    scratch += base_starts
    # indices are in range by construction; mode="wrap" skips the buffered
    # copy that take's default mode makes for `out`
    base.take(scratch, out=out, mode="wrap")
    for s in reversed(range(steps)):
        # padded[r : r + 2^s] is sorted, so it is all below x iff its last is
        padded[(1 << s) - 1 :].take(out, out=floats, mode="wrap")
        np.less(floats, x, out=scratch)
        scratch <<= s
        out += scratch
    out += shift
    return out


def _block_tables(coords: np.ndarray, weights: np.ndarray) -> tuple:
    """Tables of one block of points: the prefix bitsets of every axis,
    stacked, their rank table, and the byte table of partial weight sums."""
    b, d = coords.shape
    words = -(-b // 64)
    point = np.arange(b)
    columns = [np.unique(column, return_inverse=True) for column in coords.T]
    # axis j's prefix bitsets start at row offsets[j]
    offsets = np.cumsum([0] + [len(distinct) + 1 for distinct, _ in columns])
    # prefix[offsets[j] + r]: bitset of the points below the r-th distinct
    # coordinate on axis j
    prefix = np.zeros((offsets[-1], words), dtype=_WORD)
    bits = _BIT[point & 63]
    for (distinct, inverse), row in zip(columns, offsets):
        axis = prefix[row : row + len(distinct) + 1]
        cell = (inverse + 1, point >> 6)
        # points of one row and word collide in the store, and ufunc.at ORs
        # them all in; the store first writes the fresh pages, which ufunc.at
        # alone would fault in twice, once to read and once to write
        axis[cell] = bits
        np.bitwise_or.at(axis, cell, bits)
        np.bitwise_or.accumulate(axis, axis=0, out=axis)
    ranks = _rank_table([distinct for distinct, _ in columns], offsets[:-1])
    # table[k, v]: sum of the weights of points 8k + i over the set bits i of v
    bytes_per_set = 8 * words
    padded = np.zeros(8 * bytes_per_set)
    padded[:b] = weights
    padded = padded.reshape(bytes_per_set, 8)
    table = np.zeros((bytes_per_set, 256))
    for i in range(8):
        table[:, 1 << i : 2 << i] = table[:, : 1 << i] + padded[:, i : i + 1]
    return prefix, ranks, table.ravel()


def _table_bytes_bound(n: int, d: int) -> int:
    """Bytes that `_block_tables` can take over all blocks of n points in d
    dimensions, as a block of b points has at most b distinct coordinates
    per axis."""
    total = 0
    for start in range(0, n, _BLOCK):
        b = min(_BLOCK, n - start)
        words = -(-b // 64)
        buckets = 1 << ((b - 1).bit_length() + 3)
        # the byte table, and per axis the prefix bitsets, the bucket bases,
        # the distinct coordinates with at most 2b of padding and the rank
        # table's three constants
        total += 8 * (2048 * words + d * ((b + 1) * words + buckets + 1 + 3 * b + 3))
    return total


def _prepare(coords: np.ndarray, weights: np.ndarray) -> list | None:
    """Block tables for many `local_discrepancy_batch` calls on these points,
    or None when they could take more than `_TABLE_BYTES`.  The tables are
    only read, so threads may share them.
    """
    n, d = coords.shape
    if _table_bytes_bound(n, d) > _TABLE_BYTES:
        return None
    return [
        _block_tables(coords[s : s + _BLOCK], weights[s : s + _BLOCK]) for s in range(0, n, _BLOCK)
    ]


def _block_counts(block, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Weighted counts of one block's points in each box [lower, upper)."""
    prefix, ranks, table = block
    words = prefix.shape[1]
    bytes_per_set = table.size // 256
    # byte k of a bitset indexes row k of the byte table.  Up to 64 bytes
    # per set the lookups are laid out (bytes, boxes) and `_column_sum`
    # adds them a whole row of boxes per call; wider sets are laid out
    # (boxes, bytes) and summed by `sum(axis=1)`.  Both add in numpy's
    # pairwise order, so the counts have the same bits either way.  The
    # gather and sum of 5000 boxes took 70 against 171 us at 8 bytes and
    # 717 against 778 us at 64; from 128 bytes on, reading the bytes
    # transposed costs more than the column sum saves
    by_column = bytes_per_set <= 64
    row_offset = np.arange(0, table.size, 256)
    if by_column:
        row_offset = row_offset[:, None]
    m, d = lower.shape
    counts = np.zeros(m)
    rows = max(1, _TILE_BYTES // (8 * max(bytes_per_set, 8 * d)))
    tile = min(rows, m)
    # the byte-table step's index and values arrays are reused within each
    # tile: index first holds the 2d ranks per box and their search's work
    # array, values the search's floats, then the two bitsets per box of
    # the axis being gathered, then the occupied boxes' bitsets, which the
    # byte indices are made of before the lookups overwrite them.  Each use
    # is done with before the next writes.
    index = np.empty(tile * max(bytes_per_set, 4 * d), dtype=np.intp)
    values = np.empty(tile * max(bytes_per_set, 2 * d))
    spare = values.view(_WORD)
    anchors = np.empty(2 * d * tile)
    sets = np.empty((tile, words), dtype=_WORD)
    for start in range(0, m, rows):
        k = min(rows, m - start)
        q = 2 * k
        # x[j] holds a tile's lower and upper anchors on axis j, clipped to
        # [0, 1] for `_ranks`, as two contiguous halves; in lower and upper
        # they lie d floats apart
        x = anchors[: d * q].reshape(d, 2, k)
        np.clip(lower[start : start + k].T, 0.0, 1.0, out=x[:, 0])
        np.clip(upper[start : start + k].T, 0.0, 1.0, out=x[:, 1])
        r = index[: d * q].reshape(d, 2, k)
        work = index[d * q : 2 * d * q].reshape(d, q)
        _ranks(ranks, x.reshape(d, q), r.reshape(d, q), work, values[: d * q].reshape(d, q))
        np.maximum(r[:, 1], r[:, 0], out=r[:, 1])  # lo > hi holds no point
        inside = sets[:k]
        pair = spare[: 2 * k * words].reshape(2, k, words)
        for j in range(d):
            # lo_j <= x < hi_j is the rank interval [rank(lo_j), rank(hi_j)),
            # whose points are P_j[rank(hi_j)] ^ P_j[rank(lo_j)]
            prefix.take(r[j], axis=0, out=pair, mode="wrap")
            if j:
                np.bitwise_xor(pair[1], pair[0], out=pair[1])
                inside &= pair[1]
            else:
                np.bitwise_xor(pair[1], pair[0], out=inside)
        # a box whose bitset is all zero holds no point and keeps the 0.0
        # its bytes sum to, so only the other boxes read the byte table (in
        # high d most sampled boxes are empty).  The word columns are ORed,
        # as `any` over a row of a few words costs about 26 ns
        occupied = reduce(np.bitwise_or, inside.T) != 0
        hit = np.flatnonzero(occupied)
        n_hit = len(hit)
        # take is about 2.7 times as fast as inside[hit] here
        hit_bytes = inside.take(hit, axis=0, out=pair[0, :n_hit], mode="wrap").view(np.uint8)
        if by_column:
            hit_bytes = hit_bytes.T
        hit_index = index[: hit_bytes.size].reshape(hit_bytes.shape)
        hit_values = values[: hit_bytes.size].reshape(hit_bytes.shape)
        np.copyto(hit_index, hit_bytes)
        hit_index += row_offset
        table.take(hit_index, out=hit_values, mode="wrap")
        counts[start + hit] = _column_sum(hit_values) if by_column else hit_values.sum(axis=1)
    return counts


def _column_sum(values: np.ndarray) -> np.ndarray:
    """The column sums of values, of shape (b, k) with b a positive multiple
    of 8, bit for bit as `sum(axis=1)` sums the same floats laid out (k, b)
    in C order; summed in place into the returned row 0.

    numpy sums a row of b floats pairwise: up to 128 of them in eight
    accumulators, r_i adding the floats i, i + 8, ... in turn, combined as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)); a longer row splits at
    b/2 rounded down to a multiple of 8 and adds its halves' sums.  A
    reduction adds the total to its start 0.0, which turns -0.0 into 0.0;
    adding it to both halves' sums of a split row as well changes no bit.
    Here each step is one call over whole rows of k floats.
    """
    b = len(values)
    if b > 128:
        half = b // 2 - b // 2 % 8
        total = _column_sum(values[:half])
        total += _column_sum(values[half:])
        return total
    acc = values[:8]
    for i in range(8, b, 8):
        acc += values[i : i + 8]
    acc[::2] += acc[1::2]
    acc[::4] += acc[2::4]
    acc[0] += acc[4]
    acc[0] += 0.0
    return acc[0]


# ---------------------------------------------------------------------------
# box sampling


def substream(seed: int, index: int) -> np.random.Generator:
    """Counter-based generator for chunk `index` of the stream named `seed`.

    Streams for distinct (seed mod 2^64, index) pairs are independent,
    and reconstructing a stream is O(1), so chunks can be evaluated in any
    order or on any worker with identical output.
    """
    _check_count("seed", seed)
    _check_count("substream index", index)
    if index < 0:
        raise InvalidInputError("substream index must be >= 0")
    key = np.array([int(seed) % 2**64, int(index) % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_box_pairs(rng, m: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw m box pairs uniformly from the ordered-anchor domain.

    Per coordinate, two independent uniforms are drawn and sorted; the joint
    density of (lower, upper) is then 2^d on the set lower <= upper.
    """
    _check_count("m", m, 0)
    _check_count("d", d, 1)
    # two (m, d) draws give the values of one (2, m, d) draw but free the second
    a, b = rng.random((m, d)), rng.random((m, d))
    hi = np.maximum(a, b)
    return np.minimum(a, b, out=a), hi


# ---------------------------------------------------------------------------
# CSV point file format
#
# Lines starting with '#' are comments.  An optional header row must read
# x1,...,xd or x1,...,xd,weight; the first line is a header when its first
# field is not a number.  Without a header every column is a coordinate and
# the rule is an equal-weight (QMC) rule; a weight column is recognized only
# through the header.  Numbers, in the header test too, go through numpy's
# text reader: ASCII, no digit underscores, and bit exact for repr output.
# Errors name the line and column.

_HEADER_COORD = re.compile(r"x(\d+)$")


def _split(line: str) -> list[str]:
    return [f.strip() for f in line.split(",")]


def _parse_header(fields: list[str], lineno: int) -> tuple[int, bool]:
    has_weight = fields[-1].lower() == "weight"
    coord_fields = fields[:-1] if has_weight else fields
    if not coord_fields:
        raise InvalidInputError(f"line {lineno}: header has no coordinate columns")
    for i, f in enumerate(coord_fields):
        m = _HEADER_COORD.match(f.lower())
        if not m or int(m.group(1)) != i + 1:
            raise InvalidInputError(
                f"line {lineno}: header column {i + 1} is {f!r}, expected x{i + 1}"
            )
    return len(coord_fields), has_weight


def _read_lines(path: str | Path) -> list[str]:
    """The file's lines, split as universal-newline text mode splits them.

    One leading byte-order mark, as spreadsheet "CSV UTF-8" exports write,
    is dropped.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        return text.removeprefix("\ufeff").split("\n")
    except UnicodeDecodeError as exc:  # exc.object holds the whole file's bytes
        lineno = len((exc.object[: exc.start] + b".").splitlines())
        raise InvalidInputError(f"{path}: line {lineno} is not UTF-8 text") from None


def _loadtxt(lines: list[str]) -> np.ndarray | None:
    """Parse nonblank comma-separated lines; None when numpy rejects them."""
    try:
        return np.loadtxt(lines, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
    except ValueError:
        return None


def _not_number(field: str) -> bool:
    return not field or _loadtxt([field]) is None


def _parse_rows(lines: list[str], linenos: list[int], width: int, d: int) -> np.ndarray:
    """Parse data rows in one call; on failure, halve to the first bad row."""
    table = _loadtxt(lines)
    if table is not None and table.shape[1] == width:
        bad = ~((table[:, :d] >= 0.0) & (table[:, :d] < 1.0))
        if not bad.any():
            return table
        r, c = divmod(int(bad.argmax()), d)
        raise InvalidInputError(
            f"line {linenos[r]}, column {c + 1}: coordinate {float(table[r, c])} outside [0, 1)"
        )
    if h := len(lines) // 2:
        head = _parse_rows(lines[:h], linenos[:h], width, d)
        return np.vstack((head, _parse_rows(lines[h:], linenos[h:], width, d)))
    fields = _split(lines[0])
    if len(fields) != width:
        raise InvalidInputError(f"line {linenos[0]}: expected {width} fields, found {len(fields)}")
    c = next(c for c, f in enumerate(fields) if _not_number(f))
    if c:  # a coordinate out of range before the bad field is reported first
        _parse_rows([",".join(fields[:c])], linenos, c, min(c, d))
    raise InvalidInputError(f"line {linenos[0]}, column {c + 1}: {fields[c]!r} is not a number")


def load_points(path: str | Path, d: int | None = None) -> tuple[PointSet, WeightSet]:
    """Read a CSV point file; returns the points and classified weights.

    `d` is only needed to fix the dimension of files with no header and no
    data rows; otherwise it cross-checks the file.
    """
    lines, linenos, header = [], [], None
    for lineno, raw in enumerate(_read_lines(path), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not lines and header is None and _not_number(_split(line)[0]):
            header = _parse_header(_split(line), lineno)
            continue
        lines.append(line)
        linenos.append(lineno)

    if header is not None:
        file_d, has_weight = header
    elif lines:
        file_d, has_weight = len(_split(lines[0])), False
    elif d is not None:
        file_d, has_weight = d, False
    else:
        raise InvalidInputError(f"{path}: empty file and no dimension given")
    if d is not None and d != file_d:
        raise InvalidInputError(f"{path}: file dimension {file_d} but d={d} requested")

    width = file_d + (1 if has_weight else 0)
    table = _parse_rows(lines, linenos, width, file_d) if lines else np.empty((0, width))
    ps = PointSet(table[:, :file_d])
    if not has_weight:
        if ps.n == 0:
            # no 1/n weights exist for n = 0; the empty rule is vacuously nonneg
            return ps, WeightSet(np.empty(0), WeightKind.NONNEG)
        return ps, equal_weights(ps.n)
    return ps, WeightSet(table[:, file_d], classify_weights(table[:, file_d]))


def points_csv(ps: PointSet, ws: WeightSet) -> str:
    """Render the CSV point format; QMC rules omit the weight column."""
    _check_pair(ps, ws)
    with_weight = ws.kind is not WeightKind.QMC
    head = [f"x{j + 1}" for j in range(ps.d)] + ["weight"] * with_weight
    table = np.column_stack((ps.coords, ws.values)) if with_weight else ps.coords
    return "\n".join([",".join(head)] + [",".join(map(repr, r)) for r in table.tolist()]) + "\n"


def save_points(path: str | Path, ps: PointSet, ws: WeightSet) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(points_csv(ps, ws))
