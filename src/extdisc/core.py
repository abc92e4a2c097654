"""Point sets, weights, box pairs, and the local discrepancy function.

Conventions used throughout the package:

* Points live in the half-open cube [0, 1)^d.
* A box pair (a, b) with a <= b coordinatewise names the half-open box
  [a, b); membership is a_j <= x_j < b_j in every coordinate.
* The collection of box pairs is a subset of [0,1]^{2d} with Lebesgue mass
  2^-d.  It is deliberately left unnormalized: an integral over it equals
  2^-d times the expectation under the triangle sampler `sample_box_pairs`.
* All floating point work is binary64.

Box membership for batches of boxes runs on per-axis rank tables: within a
block of at most `_BLOCK` points, the points below the r-th distinct
coordinate on axis j form a prefix bitset P_j[r], so the points inside
[lower, upper) are the AND over the axes of P_j[rank(upper_j)] ^
P_j[rank(lower_j)], with ranks among the distinct coordinates.  Ranks are
gathers from a bucket table over a dyadic grid, exact for every finite
anchor, plus a branchless binary search inside one bucket.  Weighted counts
of a bitset read an 8-bit table of partial weight sums per byte.  Queries
are tiled over boxes, so the temporaries of one call stay bounded for any n.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass
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

# Bytes of float64 weight lookups per query tile.  Their int64 index array
# is as large and the tile's other temporaries are smaller, so this and one
# block's tables cap the kernel's working memory per call for any n.
_TILE_BYTES = 1 << 21

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
    is reported as 0.0.
    """

    value: float
    p: float
    method: Method
    stderr: float | None = None
    samples: int | None = None
    seed: int | None = None

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
    coords: np.ndarray, weights: np.ndarray, lower: np.ndarray, upper: np.ndarray
) -> np.ndarray:
    """Vectorized local discrepancy for a batch of boxes, shape (m,).

    `coords` is (n, d) in [0, 1), `weights` (n,), and `lower`, `upper` are
    (m, d) and finite; anchors outside [0, 1] are allowed.  Each box's
    value depends only on the points and its own anchors, so results are
    bitwise independent of how boxes are split into batches.
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
    counts = np.zeros(lower.shape[0])
    for start in range(0, n, _BLOCK):
        counts += _block_counts(
            coords[start : start + _BLOCK], weights[start : start + _BLOCK], lower, upper
        )
    return counts - np.prod(upper - lower, axis=1)


def _rank_table(distinct: np.ndarray):
    """Bucket table giving searchsorted(distinct, x, "left") by gathers.

    The sorted distinct values u fall into K = 2^(ceil(log2 len(u)) + 3)
    buckets [k/K, (k+1)/K), and base[k] counts the u below k/K.  For a
    finite query x and k = clip(x K, 0, K), every u below k/K is below x
    and every u of a later bucket is at least (k+1)/K > x, so the rank of x
    is base[k] plus the u of bucket k below x, found by a binary search of
    `steps` halvings, enough for the fullest bucket.  K is a power of two,
    so x K and k/K are exact.
    """
    buckets = 1 << ((len(distinct) - 1).bit_length() + 3)
    base = np.searchsorted(distinct, np.arange(buckets + 1) / buckets, "left")
    steps = int(np.diff(base).max()).bit_length()
    return buckets, base, np.append(distinct, np.full(1 << steps, np.inf)), steps


def _ranks(table, x: np.ndarray) -> np.ndarray:
    """searchsorted(distinct, x, "left") for finite x, via `_rank_table`."""
    buckets, base, padded, steps = table
    r = base.take((np.clip(x, 0.0, 1.0) * buckets).astype(np.intp))
    for s in reversed(range(steps)):
        # padded[r : r + 2^s] is sorted, so it is all below x iff its last is
        r += (padded[(1 << s) - 1 :].take(r) < x) << s
    return r


def _block_counts(
    coords: np.ndarray, weights: np.ndarray, lower: np.ndarray, upper: np.ndarray
) -> np.ndarray:
    """Weighted counts of one block of points in each box [lower, upper)."""
    b, d = coords.shape
    words = -(-b // 64)
    point = np.arange(b)
    axes = []
    for j in range(d):
        distinct, inverse = np.unique(coords[:, j], return_inverse=True)
        # prefix[r]: bitset of the points below the r-th distinct coordinate
        prefix = np.zeros((len(distinct) + 1, words), dtype=_WORD)
        cell, bits = (inverse + 1, point >> 6), _BIT[point & 63]
        # points of one row and word collide in the store, and ufunc.at ORs
        # them all in; the store first writes the fresh pages, which ufunc.at
        # alone would fault in twice, once to read and once to write
        prefix[cell] = bits
        np.bitwise_or.at(prefix, cell, bits)
        np.bitwise_or.accumulate(prefix, axis=0, out=prefix)
        axes.append((prefix, _rank_table(distinct)))
    # table[k, v]: sum of the weights of points 8k + i over the set bits i of v
    bytes_per_set = 8 * words
    padded = np.zeros(8 * bytes_per_set)
    padded[:b] = weights
    padded = padded.reshape(bytes_per_set, 8)
    table = np.zeros((bytes_per_set, 256))
    for i in range(8):
        table[:, 1 << i : 2 << i] = table[:, : 1 << i] + padded[:, i : i + 1]
    table = table.ravel()
    row_offset = np.arange(0, 256 * bytes_per_set, 256)

    m = lower.shape[0]
    counts = np.empty(m)
    rows = max(1, _TILE_BYTES // (8 * bytes_per_set))
    index = np.empty((min(rows, m), bytes_per_set), dtype=np.intp)
    values = np.empty(index.shape)
    for start in range(0, m, rows):
        lo = lower[start : start + rows]
        hi = upper[start : start + rows]
        inside = None
        for j, (prefix, rank_table) in enumerate(axes):
            # lo_j <= x < hi_j is the rank interval [rank(lo_j), rank(hi_j))
            r_lo, r_hi = _ranks(rank_table, np.stack((lo[:, j], hi[:, j])))
            np.maximum(r_hi, r_lo, out=r_hi)  # lo > hi holds no point
            axis_in = prefix.take(r_hi, axis=0)
            axis_in ^= prefix.take(r_lo, axis=0)
            if inside is None:
                inside = axis_in
            else:
                inside &= axis_in
        tile = len(inside)
        # indices are in range by construction; mode="wrap" skips the
        # buffered copy that take's default mode makes for `out`
        np.add(inside.view(np.uint8), row_offset, out=index[:tile])
        table.take(index[:tile], out=values[:tile], mode="wrap")
        counts[start : start + tile] = values[:tile].sum(axis=1)
    return counts


# ---------------------------------------------------------------------------
# box sampling


def substream(seed: int, index: int) -> np.random.Generator:
    """Counter-based generator for chunk `index` of the stream named `seed`.

    Streams for distinct (seed mod 2^64, index) pairs are independent,
    and reconstructing a stream is O(1), so chunks can be evaluated in any
    order or on any worker with identical output.
    """
    if index < 0:
        raise InvalidInputError("substream index must be >= 0")
    key = np.array([int(seed) % 2**64, int(index) % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_box_pairs(rng, m: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw m box pairs uniformly from the ordered-anchor domain.

    Per coordinate, two independent uniforms are drawn and sorted; the joint
    density of (lower, upper) is then 2^d on the set lower <= upper.
    """
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
    """The file's lines, split as universal-newline text mode splits them."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().split("\n")
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
