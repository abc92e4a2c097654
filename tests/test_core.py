"""Core model: local discrepancy, sampling, point file round trips."""

import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from extdisc import (
    BoxPair,
    DiscrepancyResult,
    InternalConsistencyError,
    InvalidInputError,
    Method,
    PointSet,
    WeightKind,
    WeightSet,
    classify_weights,
    equal_weights,
    extreme_lp_mc,
    load_points,
    local_discrepancy,
    sample_box_pairs,
    save_points,
    substream,
)
from extdisc import core
from extdisc.core import (
    _BIT,
    _BLOCK,
    _TILE_BYTES,
    _TABLE_BYTES,
    _WORD,
    _block_tables,
    _column_sum,
    _parse_header,
    _prepare,
    _rank_table,
    _ranks,
    _split,
    _table_bytes_bound,
    local_discrepancy_batch,
    points_csv,
)
from extdisc.generators import GeneratorKind, GeneratorSpec, generate


def box(lo, hi):
    return BoxPair(np.atleast_1d(lo), np.atleast_1d(hi))


def definition_batch(coords, weights, lower, upper):
    """Reference for the batch kernel: membership broadcast over (m, n, d)."""
    inside = np.all(
        (lower[:, None, :] <= coords[None, :, :]) & (coords[None, :, :] < upper[:, None, :]),
        axis=2,
    )
    return inside.astype(np.float64) @ weights - np.prod(upper - lower, axis=1)


class TestLocalDiscrepancy:
    def setup_method(self):
        self.ps = PointSet([[0.25], [0.75]])
        self.ws = equal_weights(2)

    def test_balanced_boxes_cancel(self):
        # hand counts: [0, 0.5) holds one of two points, volume 0.5
        assert local_discrepancy(self.ps, self.ws, box(0.0, 0.5)) == 0.0
        assert local_discrepancy(self.ps, self.ws, box(0.25, 0.75)) == 0.0
        assert local_discrepancy(self.ps, self.ws, box(0.0, 1.0)) == 0.0

    def test_unbalanced_box(self):
        # [0, 0.75) holds only 0.25: count 0.5 minus volume 0.75
        assert local_discrepancy(self.ps, self.ws, box(0.0, 0.75)) == -0.25

    def test_half_open_membership(self):
        # lower edge included, upper edge excluded
        assert local_discrepancy(self.ps, self.ws, box(0.25, 0.7)) == pytest.approx(0.05)
        only_upper = PointSet([[0.7]])
        assert local_discrepancy(only_upper, equal_weights(1), box(0.25, 0.7)) == pytest.approx(
            -0.45
        )

    def test_degenerate_box(self):
        assert local_discrepancy(self.ps, self.ws, box(0.25, 0.25)) == 0.0

    def test_two_dims_hand_count(self):
        ps = PointSet([[0.25, 0.25], [0.75, 0.75]])
        ws = equal_weights(2)
        b = BoxPair(np.array([0.0, 0.0]), np.array([0.5, 0.5]))
        assert local_discrepancy(ps, ws, b) == 0.5 - 0.25

    def test_signed_weights(self):
        ps = PointSet([[0.2], [0.6]])
        ws = WeightSet(np.array([1.0, -0.5]), WeightKind.GENERAL)
        assert local_discrepancy(ps, ws, box(0.0, 0.7)) == pytest.approx(0.5 - 0.7)
        assert local_discrepancy(ps, ws, box(0.0, 0.5)) == pytest.approx(1.0 - 0.5)

    def test_empty_rule_is_minus_volume(self):
        ps = PointSet(np.empty((0, 2)))
        ws = WeightSet(np.empty(0), WeightKind.NONNEG)
        b = BoxPair(np.array([0.1, 0.1]), np.array([0.6, 0.9]))
        assert local_discrepancy(ps, ws, b) == pytest.approx(-0.4)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(5)
        lo, hi = sample_box_pairs(rng, 50, 1)
        batch = local_discrepancy_batch(self.ps.coords, self.ws.values, lo, hi)
        for i in range(50):
            one = local_discrepancy(self.ps, self.ws, BoxPair(lo[i], hi[i]))
            assert batch[i] == one

    def test_batch_rejects_bad_shapes(self):
        coords, weights = self.ps.coords, self.ws.values
        anchors = np.zeros((3, 1))
        cases = [
            (np.zeros((3, 2)), np.ones((3, 2)), weights),  # more anchor columns than d
            (anchors, np.ones((4, 1)), weights),  # lower and upper differ in m
            (np.zeros(3), np.ones(3), weights),  # anchors not 2-d
            (anchors, np.ones((3, 1)), np.ones(3)),  # one weight too many
            (np.full((3, 1), np.nan), np.ones((3, 1)), weights),  # NaN anchor
            (anchors, np.full((3, 1), np.inf), weights),  # infinite anchor
            (np.full((3, 1), -np.inf), np.ones((3, 1)), weights),
        ]
        for lo, hi, w in cases:
            with pytest.raises(InvalidInputError):
                local_discrepancy_batch(coords, w, lo, hi)
        for bad in (-0.25, 1.0, np.nan, np.inf):
            with pytest.raises(InvalidInputError):
                local_discrepancy_batch(np.array([[0.25], [bad]]), weights, anchors, anchors + 1)
        # finite anchors outside [0, 1] are boxes like any other
        lo, hi = np.array([[-0.5], [0.5], [-2.0]]), np.array([[0.5], [1.5], [3.0]])
        got = local_discrepancy_batch(coords, weights, lo, hi)
        assert np.array_equal(got, [0.5 - 1.0, 0.5 - 1.0, 1.0 - 5.0])

    def test_size_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            local_discrepancy(self.ps, equal_weights(3), box(0.0, 1.0))
        with pytest.raises(InvalidInputError):
            local_discrepancy(self.ps, self.ws, BoxPair(np.zeros(2), np.ones(2)))


@given(
    coords=st.lists(st.floats(0.0, 0.999), min_size=1, max_size=6),
    raw_weights=st.lists(st.floats(0.0, 2.0), min_size=6, max_size=6),
    anchors=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
)
@settings(max_examples=80, deadline=None)
def test_nonneg_bound_property(coords, raw_weights, anchors):
    # for nonnegative rules |Delta| <= max(total weight, 1)
    n = len(coords)
    ps = PointSet(np.array(coords)[:, None])
    ws = WeightSet(np.array(raw_weights[:n]), WeightKind.NONNEG)
    lo, hi = min(anchors), max(anchors)
    delta = local_discrepancy(ps, ws, box(lo, hi))
    assert abs(delta) <= max(float(np.sum(ws.values)), 1.0) + 1e-12


@given(
    coords=st.lists(st.floats(0.0, 0.999), min_size=1, max_size=6),
    raw_weights=st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6),
    anchors=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
)
@settings(max_examples=80, deadline=None)
def test_general_bound_property(coords, raw_weights, anchors):
    # signed rules only satisfy the weaker bound sum|c| + 1
    n = len(coords)
    ps = PointSet(np.array(coords)[:, None])
    ws = WeightSet(np.array(raw_weights[:n]), WeightKind.GENERAL)
    lo, hi = min(anchors), max(anchors)
    delta = local_discrepancy(ps, ws, box(lo, hi))
    assert abs(delta) <= float(np.sum(np.abs(ws.values))) + 1.0 + 1e-12


@given(
    n=st.sampled_from([0, 1, 7, 63, 64, 65, 4097]),
    d=st.integers(1, 3),
    grid=st.sampled_from([4, 16, 1 << 30, 0]),
    dyadic=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_batch_kernel_matches_definition(n, d, grid, dyadic, seed):
    # n crosses the byte, word and block boundaries of the bitsets; coarse
    # grids put several points on one coordinate; grid 0 puts up to n
    # distinct coordinates 1e-12 apart into one bucket of the rank tables
    rng = np.random.default_rng(seed)
    if grid:
        coords = rng.integers(0, grid, (n, d)) / grid
    else:
        coords = 0.3 + rng.integers(0, n, (n, d)) * 1e-12
    if dyadic:
        weights = rng.integers(-64, 65, n) / 64.0
    else:
        weights = rng.standard_normal(n) / math.sqrt(max(n, 1))
    m = 96
    lo, hi = sample_box_pairs(rng, m, d)
    q = m // 8
    groups = [slice(k * q, (k + 1) * q) for k in range(8)]
    if n:

        def point_anchors():
            return coords[rng.integers(0, n, (q, d)), np.arange(d)]

        # anchors on point coordinates, so points sit on box faces
        a, b = point_anchors(), point_anchors()
        lo[groups[0]], hi[groups[0]] = np.minimum(a, b), np.maximum(a, b)
        # and one ulp to either side of them
        toward = rng.choice([-np.inf, np.inf], (2, q, d))
        a, b = np.nextafter(point_anchors(), toward[0]), np.nextafter(point_anchors(), toward[1])
        lo[groups[1]], hi[groups[1]] = np.minimum(a, b), np.maximum(a, b)
    step = grid or 1 << 30
    lo[groups[2]] = np.floor(lo[groups[2]] * step) / step
    hi[groups[2]] = np.ceil(hi[groups[2]] * step) / step
    # bucket edges k / 2^e of rank tables with 2^e buckets
    scale = 2.0 ** rng.integers(3, 16, (2, q, d))
    edges = np.floor(rng.random((2, q, d)) * (scale + 1)) / scale
    lo[groups[3]], hi[groups[3]] = edges.min(axis=0), edges.max(axis=0)
    # anchors at exactly 0.0 and 1.0, and finite anchors outside [0, 1]
    lo[groups[4]] = np.where(rng.random((q, d)) < 0.5, 0.0, lo[groups[4]])
    hi[groups[4]] = np.where(rng.random((q, d)) < 0.5, 1.0, hi[groups[4]])
    lo[groups[5]] -= rng.integers(0, 2, (q, d)) * rng.random((q, d)) * 3.0
    hi[groups[5]] += rng.integers(0, 2, (q, d)) * rng.random((q, d)) * 3.0
    hi[groups[6]] = lo[groups[6]]  # empty boxes lo == hi
    # lo > hi holds nothing
    lo[groups[7]], hi[groups[7]] = hi[groups[7]].copy(), lo[groups[7]].copy()
    got = local_discrepancy_batch(coords, weights, lo, hi)
    want = definition_batch(coords, weights, lo, hi)
    if dyadic:
        assert np.array_equal(got, want)
    else:
        tol = 1e-14 * max(1.0, float(np.sum(np.abs(weights))))
        assert np.max(np.abs(got - want), initial=0.0) <= tol


def reference_block_counts(coords, weights, lower, upper):
    """The kernel as it was before its tables were built once per sampler run:
    every call builds one block's tables and queries them tile by tile."""
    b, d = coords.shape
    words = -(-b // 64)
    point = np.arange(b)
    axes = []
    for j in range(d):
        distinct, inverse = np.unique(coords[:, j], return_inverse=True)
        prefix = np.zeros((len(distinct) + 1, words), dtype=_WORD)
        cell, bits = (inverse + 1, point >> 6), _BIT[point & 63]
        prefix[cell] = bits
        np.bitwise_or.at(prefix, cell, bits)
        np.bitwise_or.accumulate(prefix, axis=0, out=prefix)
        axes.append((prefix, distinct))
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
    counts = np.zeros(m)
    rows = max(1, _TILE_BYTES // (8 * bytes_per_set))
    index = np.empty((min(rows, m), bytes_per_set), dtype=np.intp)
    values = np.empty(index.shape)
    for start in range(0, m, rows):
        lo = lower[start : start + rows]
        hi = upper[start : start + rows]
        inside = None
        for j, (prefix, distinct) in enumerate(axes):
            # searchsorted gives the ranks the kernel's rank tables give
            r_lo, r_hi = np.searchsorted(distinct, np.stack((lo[:, j], hi[:, j])), "left")
            np.maximum(r_hi, r_lo, out=r_hi)
            axis_in = prefix.take(r_hi, axis=0)
            axis_in ^= prefix.take(r_lo, axis=0)
            if inside is None:
                inside = axis_in
            else:
                inside &= axis_in
        hit = np.flatnonzero(inside.any(axis=1))
        k = len(hit)
        np.add(inside[hit].view(np.uint8), row_offset, out=index[:k])
        table.take(index[:k], out=values[:k], mode="wrap")
        counts[start + hit] = values[:k].sum(axis=1)
    return counts


def reference_batch(coords, weights, lower, upper):
    counts = np.zeros(lower.shape[0])
    for start in range(0, len(coords), _BLOCK):
        block = slice(start, start + _BLOCK)
        counts += reference_block_counts(coords[block], weights[block], lower, upper)
    return counts - np.prod(upper - lower, axis=1)


@given(
    n=st.sampled_from([0, 1, 5, 64, 65, 300, 4097, 9000]),
    d=st.integers(1, 8),
    grid=st.booleans(),
    duplicates=st.booleans(),
    qmc=st.booleans(),
    m=st.sampled_from([1, 97, 1500, 40000]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_batch_kernel_matches_parent_reference(n, d, grid, duplicates, qmc, m, seed):
    # the kernel with and without tables built once for many calls is bit
    # for bit the kernel that built its tables per call.
    # n = 4097 and 9000 cross _BLOCK; a tile holds 2^18 / max(8 words, 8d)
    # rows (32768 / d at n <= 64), so the larger box counts end in a partial tile
    if m == 40000 and n > 300:
        m = 1500  # keeps the reference's cost down; a tile there holds 512 rows
    rng = np.random.default_rng(seed)
    coords = rng.random((n, d))
    if grid:
        coords = np.floor(coords * 16) / 16
    if duplicates and n:
        coords[rng.integers(0, n, n // 2)] = coords[rng.integers(0, n, n // 2)]
    weights = np.full(n, 1.0 / max(n, 1)) if qmc else rng.standard_normal(n) / max(n, 1)
    lo = rng.uniform(-0.2, 1.2, (m, d))
    hi = rng.uniform(-0.2, 1.2, (m, d))
    ordered = rng.random(m) < 0.75  # the other rows keep lo > hi on some axes
    lo[ordered], hi[ordered] = np.minimum(lo, hi)[ordered], np.maximum(lo, hi)[ordered]
    if n:  # anchors on point coordinates, so points sit on box faces
        faces = rng.random((m, d)) < 0.3
        lo[faces] = coords[rng.integers(0, n, (m, d)), np.arange(d)][faces]
    want = reference_batch(coords, weights, lo, hi)
    # the blocks `_prepare` returns when they fit its cap, as they may not
    tables = [
        _block_tables(coords[s : s + _BLOCK], weights[s : s + _BLOCK]) for s in range(0, n, _BLOCK)
    ]
    assert sum(map(table_bytes, tables)) <= _table_bytes_bound(n, d)
    assert np.array_equal(local_discrepancy_batch(coords, weights, lo, hi), want)
    assert np.array_equal(local_discrepancy_batch(coords, weights, lo, hi, tables=tables), want)


@given(
    k=st.integers(1, 5),
    zeros=st.sampled_from([0.0, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_column_sum_is_numpy_row_sum(k, zeros, seed):
    # the kernel's column sum of (bytes, boxes) lookups is sum(axis=1) of
    # (boxes, bytes), bit for bit, at every width 8 .. 128 bytes it takes:
    # numpy adds a row of up to 128 floats in eight accumulators.  Magnitudes
    # 1e-8, 1 and 1e8 mix, so the order of the adds shows in the low bits;
    # rows of -0.0 sum to numpy's 0.0
    rng = np.random.default_rng(seed)
    rows = rng.uniform(-1.0, 1.0, (k, 128)) * rng.choice([1e-8, 1.0, 1e8], (k, 128))
    rows[rng.random((k, 128)) < zeros] = -0.0
    for width in range(8, 129, 8):
        want = rows[:, :width].sum(axis=1)
        got = _column_sum(np.ascontiguousarray(rows[:, :width].T))
        assert got.tobytes() == want.tobytes(), width


def table_bytes(block):
    prefix, ranks, table = block
    arrays = [a for a in ranks if isinstance(a, np.ndarray)]
    return prefix.nbytes + table.nbytes + sum(a.nbytes for a in arrays)


@pytest.mark.parametrize(
    "n, d, blocks",
    [(0, 8, 0), (512, 8, 1), (4096, 8, 1), (5000, 3, 2), (5000, 8, 2), (8192, 8, None)],
)
def test_prepare_holds_all_tables_or_none(n, d, blocks):
    # random points have n distinct coordinates per axis, the most a block
    # can have, so their tables come close to the bound
    coords = substream(n, d).random((n, d))
    tables = _prepare(coords, np.ones(n))
    if blocks is None:
        assert tables is None and _table_bytes_bound(n, d) > _TABLE_BYTES
    else:
        held = sum(map(table_bytes, tables))
        assert len(tables) == blocks and held <= _table_bytes_bound(n, d) <= _TABLE_BYTES
        assert _table_bytes_bound(n, d) <= 1.1 * held + (1 << 16)


def test_batch_rejects_tables_of_other_points():
    coords, weights = np.full((5000, 1), 0.5), np.ones(5000)
    lo, hi = np.zeros((1, 1)), np.ones((1, 1))
    with pytest.raises(InvalidInputError, match="tables hold 1 blocks, the points 2"):
        local_discrepancy_batch(coords, weights, lo, hi, tables=_prepare(coords[:10], weights[:10]))


@pytest.mark.parametrize("fullest", [1, 2, 3, 4, 7, 8, 15, 16, 17, 4096])
def test_ranks_match_searchsorted(fullest):
    # axis 1 holds `fullest` values 2^-42 apart just above the bucket edge
    # 5/16, and the 16 others at the midpoints of (k/16, (k+1)/16); axes 0
    # and 2 hold one value per bucket, axis 2 fewer than axis 0.  The
    # search takes the steps of axis 1's fullest bucket on every axis
    cluster = 5 / 16 + 2.0**-30 + np.arange(fullest) * 2.0**-42
    midpoints = (np.arange(16) + 0.5) / 16
    distinct = [
        (np.arange(64) + 0.5) / 64,
        np.sort(np.concatenate((cluster, midpoints))),
        midpoints[::3],
    ]
    offsets = np.array([7, 1000, 3])
    table = _rank_table(distinct, offsets)
    scale, base_starts, base, steps = table[0], table[1], table[2], table[4]
    assert steps == fullest.bit_length()
    big = np.finfo(np.float64).max
    queries = []
    for u, buckets in zip(distinct, scale[:, 0]):
        edges = np.arange(buckets + 1) / buckets
        queries += [u, np.nextafter(u, -np.inf), np.nextafter(u, np.inf), edges]
    queries.append([0.0, 1.0, -0.0, -1e-300, -3.0, 1.5, 1e300, -big, big])
    x = np.concatenate(queries)
    # each axis is queried at every value and bucket edge of all three; the
    # kernel passes anchors clipped to [0, 1], which keeps their ranks
    clipped = np.stack([np.clip(x, 0.0, 1.0)] * 3)
    ints = np.empty((2, *clipped.shape), dtype=np.intp)
    got = _ranks(table, clipped, ints[0], ints[1], np.empty(clipped.shape))
    for j, u in enumerate(distinct):
        assert np.array_equal(got[j] - offsets[j], np.searchsorted(u, x, "left"))
    # and each axis's bucket bases count its own values only
    for j, u in enumerate(distinct):
        edges = np.arange(scale[j, 0] + 1) / scale[j, 0]
        own = base[base_starts[j, 0] : base_starts[j, 0] + len(edges)]
        assert np.array_equal(np.diff(own), np.diff(np.searchsorted(u, edges, "left")))
    assert np.diff(base[base_starts[1, 0] : base_starts[2, 0]]).max() == fullest


def test_block_counts_search_ranks_once_per_tile(monkeypatch):
    # one rank search per tile covers all d axes and both anchors
    n, d = 512, 8
    coords = substream(11, 0).random((n, d))
    weights = substream(11, 1).standard_normal(n) / n
    tables = _prepare(coords, weights)
    rows = _TILE_BYTES // (8 * max(8 * (-(-n // 64)), 8 * d))
    m = 3 * rows + 100
    lo, hi = sample_box_pairs(substream(11, 2), m, d)
    want = local_discrepancy_batch(coords, weights, lo, hi, tables=tables)
    searched = []
    search = core._ranks

    def counted(table, x, *work):
        searched.append(x.shape)
        return search(table, x, *work)

    monkeypatch.setattr(core, "_ranks", counted)
    got = local_discrepancy_batch(coords, weights, lo, hi, tables=tables)
    assert searched == [(d, 2 * rows)] * 3 + [(d, 200)]
    assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "n, levels, bound",
    [
        pytest.param(1024, None, 96 << 20, id="1024"),
        pytest.param(8192, None, 96 << 20, id="8192"),
        # a block's prefix bitsets have one row per distinct coordinate
        pytest.param(8192, 16, 12 << 20, id="8192-grid16"),
    ],
)
def test_batch_memory_is_bounded(n, levels, bound):
    # the broadcast definition allocates 2^16 * n * 8 bytes per mask
    rng = np.random.default_rng(n)
    coords = rng.random((n, 8))
    if levels:
        coords = np.floor(coords * levels) / levels
    weights = rng.standard_normal(n) / n
    lo, hi = sample_box_pairs(rng, 1 << 16, 8)
    tracemalloc.start()
    try:
        local_discrepancy_batch(coords, weights, lo, hi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound


@pytest.mark.parametrize(
    "rule, bound",
    [
        # one rank search per axis peaked at 8.13 and 6.32 MiB; one per
        # tile at 3.97 and 5.89 MiB
        pytest.param("vdc64x2", 4.5, id="vdc64x2"),
        pytest.param("signed512x8", 6.25, id="signed512x8"),
    ],
)
def test_prepared_chunk_memory(rule, bound):
    # one sampler chunk's kernel call on the tables `_prepare` built: the
    # tile's ranks share the byte-table step's arrays, so the search adds
    # no tile-sized arrays of its own
    if rule == "vdc64x2":
        ps, ws = generate(GeneratorSpec(GeneratorKind.VDC_HAMMERSLEY, 64, 2))
        coords, weights = ps.coords, ws.values
    else:
        coords = substream(7, 0).random((512, 8))
        weights = (1.0 + 0.5 * substream(7, 1).standard_normal(512)) / 512
    tables = _prepare(coords, weights)
    lo, hi = sample_box_pairs(substream(7, 2), 1 << 16, coords.shape[1])
    tracemalloc.start()
    try:
        local_discrepancy_batch(coords, weights, lo, hi, tables=tables)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound * 2**20


def test_box_pairs_memory():
    # one draw of both anchors plus the upper anchors: 3 * 4 MiB at 2^16 x 8;
    # afterwards only the two returned arrays stay alive
    tracemalloc.start()
    try:
        lo, hi = sample_box_pairs(substream(3, 0), 1 << 16, 8)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 13 << 20
    assert held <= (8 << 20) + (64 << 10)
    assert np.all(lo <= hi)


class TestSampler:
    def test_ordered_and_in_range(self):
        lo, hi = sample_box_pairs(substream(11, 0), 10_000, 3)
        assert np.all(lo <= hi)
        assert lo.min() >= 0.0 and hi.max() < 1.0

    def test_marginals(self):
        # joint density 2 on {a <= b}: P(a <= t) = 2t - t^2, P(b <= t) = t^2
        lo, hi = sample_box_pairs(substream(123, 0), 100_000, 1)
        p_lo = stats.kstest(lo[:, 0], lambda t: 2 * t - t * t).pvalue
        p_hi = stats.kstest(hi[:, 0], lambda t: t * t).pvalue
        assert p_lo > 1e-3 and p_hi > 1e-3

    def test_degenerate_stream(self):
        class Fixed:
            def random(self, shape):
                return np.full(shape, 0.5)

        lo, hi = sample_box_pairs(Fixed(), 1, 4)
        assert lo.shape == hi.shape == (1, 4)
        assert np.all(lo == 0.5) and np.all(hi == 0.5)

    def test_substream_determinism(self):
        a = substream(7, 3).random(5)
        b = substream(7, 3).random(5)
        c = substream(7, 4).random(5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_substream_seed_is_reduced_mod_2_64(self):
        key = substream(-1, 0).bit_generator.state["state"]["key"]
        assert key.tolist() == [2**64 - 1, 0]
        assert np.array_equal(substream(-1, 2).random(4), substream(2**64 - 1, 2).random(4))
        for s, t in ((2**63, 2**63 + 1), (-1, 0), (2**64 - 2048, 2**64 - 2047)):
            a = sample_box_pairs(substream(s, 0), 4, 2)[0]
            b = sample_box_pairs(substream(t, 0), 4, 2)[0]
            assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [1.5, math.nan, "1"])
    def test_substream_rejects_non_integer_seed(self, seed):
        # a float seed once drew the stream of its integer part
        with pytest.raises(InvalidInputError, match="seed must be an integer"):
            substream(seed, 0)

    def test_substream_accepts_numpy_integer_seed(self):
        assert np.array_equal(substream(np.int64(5), 1).random(4), substream(5, 1).random(4))

    @pytest.mark.parametrize("index", [2.5, math.nan, "1"])
    def test_substream_rejects_non_integer_index(self, index):
        # 2.5 once drew the stream of index 2, and NaN raised a raw ValueError
        with pytest.raises(InvalidInputError, match="substream index must be an integer"):
            substream(1, index)

    @pytest.mark.parametrize(
        "m, d, message",
        [
            (3, 0, "d must be an integer >= 1, got 0"),  # once two (3, 0) arrays
            (2.5, 2, "m must be an integer >= 0, got 2.5"),
            (-1, 2, "m must be an integer >= 0, got -1"),
            (2, 1.0, "d must be an integer >= 1, got 1.0"),
        ],
    )
    def test_sample_box_pairs_rejects_bad_counts(self, m, d, message):
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            sample_box_pairs(substream(1, 0), m, d)


class TestValidation:
    def test_points_outside_unit_cube(self):
        with pytest.raises(InvalidInputError):
            PointSet([[1.0]])
        with pytest.raises(InvalidInputError):
            PointSet([[-0.1]])
        with pytest.raises(InvalidInputError):
            PointSet([0.5])

    def test_points_are_frozen(self):
        ps = PointSet([[0.5]])
        with pytest.raises(ValueError):
            ps.coords[0, 0] = 0.1

    def test_qmc_weights_must_be_equal(self):
        with pytest.raises(InvalidInputError):
            WeightSet(np.array([0.5, 0.4]), WeightKind.QMC)
        with pytest.raises(InvalidInputError):
            WeightSet(np.empty(0), WeightKind.QMC)
        WeightSet(np.array([0.5, 0.5]), WeightKind.QMC)

    def test_nonneg_rejects_negatives(self):
        with pytest.raises(InvalidInputError):
            WeightSet(np.array([-0.1]), WeightKind.NONNEG)

    def test_classify(self):
        assert classify_weights(np.array([0.5, 0.5])) is WeightKind.QMC
        assert classify_weights(np.array([0.3, 0.7])) is WeightKind.NONNEG
        assert classify_weights(np.array([1.5, -0.5])) is WeightKind.GENERAL
        assert classify_weights(np.empty(0)) is WeightKind.NONNEG

    def test_box_ordering(self):
        with pytest.raises(InvalidInputError):
            BoxPair(np.array([0.6]), np.array([0.4]))
        with pytest.raises(InvalidInputError):
            BoxPair(np.array([0.0]), np.array([1.1]))

    def test_result_field_invariants(self):
        DiscrepancyResult(0.1, 2.0, Method.L2_EXACT)
        with pytest.raises(InvalidInputError):
            DiscrepancyResult(0.1, 2.0, Method.MC)  # missing stderr/samples/seed
        with pytest.raises(InvalidInputError):
            DiscrepancyResult(0.1, 2.0, Method.L2_EXACT, stderr=0.01)
        DiscrepancyResult(0.1, 2.0, Method.MC, stderr=0.01, samples=10, seed=1)

    def test_result_json_takes_numpy_ints(self):
        ps, ws = PointSet([[0.25, 0.5], [0.75, 0.125]]), equal_weights(2)
        res = extreme_lp_mc(ps, ws, 3.0, np.int64(1000), seed=np.int64(0))
        out = json.loads(json.dumps(res.to_json_dict("disc", 2, 2)))
        assert (out["samples"], out["seed"]) == (1000, 0)
        assert type(res.to_json_dict("disc", 2, 2)["samples"]) is int

    def test_result_json_fields(self):
        r = DiscrepancyResult(0.5, math.inf, Method.LINF_EXACT)
        d = r.to_json_dict("disc", 2, 4)
        assert d == {
            "task": "disc",
            "p": "inf",
            "d": 2,
            "n": 4,
            "method": "linf-exact",
            "value": 0.5,
        }


def reference_load_points(path, d=None):
    """Reference for `load_points`: the per-field float() parser it replaced."""

    def is_float(s):
        try:
            float(s)
        except ValueError:
            return False
        return True

    rows, header, seen_data = [], None, False
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = _split(line)
            if not seen_data and header is None and not is_float(fields[0]):
                header = _parse_header(fields, lineno)
                continue
            seen_data = True
            rows.append((lineno, fields))
    if header is not None:
        file_d, has_weight = header
    elif rows:
        file_d, has_weight = len(rows[0][1]), False
    elif d is not None:
        file_d, has_weight = d, False
    else:
        raise InvalidInputError(f"{path}: empty file and no dimension given")
    if d is not None and d != file_d:
        raise InvalidInputError(f"{path}: file dimension {file_d} but d={d} requested")
    width = file_d + (1 if has_weight else 0)
    coords, weights = np.empty((len(rows), file_d)), np.empty(len(rows))
    for r, (lineno, fields) in enumerate(rows):
        if len(fields) != width:
            raise InvalidInputError(f"line {lineno}: expected {width} fields, found {len(fields)}")
        for c, f in enumerate(fields):
            try:
                v = float(f)
            except ValueError:
                raise InvalidInputError(
                    f"line {lineno}, column {c + 1}: {f!r} is not a number"
                ) from None
            if c < file_d:
                if not (0.0 <= v < 1.0):
                    raise InvalidInputError(
                        f"line {lineno}, column {c + 1}: coordinate {v} outside [0, 1)"
                    )
                coords[r, c] = v
            else:
                weights[r] = v
    ps = PointSet(coords)
    if not has_weight:
        if ps.n == 0:
            return ps, WeightSet(np.empty(0), WeightKind.NONNEG)
        return ps, equal_weights(ps.n)
    return ps, WeightSet(weights, classify_weights(weights))


def reference_points_csv(ps, ws):
    """Reference for `points_csv`: the per-value writer it replaced."""
    with_weight = ws.kind is not WeightKind.QMC
    head = [f"x{j + 1}" for j in range(ps.d)]
    if with_weight:
        head.append("weight")
    lines = [",".join(head)]
    for k in range(ps.n):
        fields = [repr(float(v)) for v in ps.coords[k]]
        if with_weight:
            fields.append(repr(float(ws.values[k])))
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


def load_outcome(loader, path, d=None):
    """The loaded bytes and weight kind, or the InvalidInputError message."""
    try:
        ps, ws = loader(path, d)
    except InvalidInputError as exc:
        return str(exc)
    return ps.coords.shape, ps.coords.tobytes(), ws.values.tobytes(), ws.kind


# Strings on which float() and numpy's reader agree.  Both grammars accept
# these the same way; only digit underscores and non-ASCII digits differ.
_SPECIAL_FIELDS = (
    "0", "-0.0", "1", "1.0", "0.9999999999999999", "1e-5", "1E-5", ".5", "5.", "+0.25",
    "5e-324", "2.2250738585072014e-308", "1e400", "-1e400", "nan", "-nan", "inf", "-inf",
    "Infinity", "NaN", "-2.5", "7", "", "abc", "x1", "weight", "1.2.3", "--1", "0x10",
    "1e", "e3", ".", "nan(1)", "1d5", "'0.5'", '"0.5"', "1,5", "#1",
)


@st.composite
def csv_fields(draw, wild_pct, weight):
    if draw(st.integers(0, 99)) >= wild_pct:  # a coordinate or weight written by repr
        text = repr(draw(st.floats(-2.0, 2.0) if weight else st.floats(0.0, 1.0, exclude_max=True)))
    elif draw(st.booleans()):  # any float in the three printf styles
        v = draw(st.floats(allow_nan=True, allow_infinity=True, width=64))
        text = draw(st.sampled_from(["%r", "%.25g", "%.3f"])) % v
    else:
        text = draw(st.sampled_from(_SPECIAL_FIELDS))
    pad = st.sampled_from(["", "", " ", "  ", "\t"])
    return draw(pad) + text + draw(pad)


@st.composite
def point_files(draw):
    """A CSV text and a `d` argument; some files are clean, most have a defect."""
    d = draw(st.integers(1, 3))
    weighted = draw(st.booleans())
    width = d + weighted
    wild_pct = draw(st.sampled_from([0, 0, 5, 25]))
    lines = []
    header = draw(st.sampled_from(["none", "plain", "plain", "bad"]))
    if header == "plain":
        lines.append(",".join([f"x{j + 1}" for j in range(d)] + ["Weight"] * weighted))
    elif header == "bad":
        lines.append(",".join(["x1", "y2", "weight"][:width]))
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.integers(0, 19))
        if kind < 2:
            lines.append(draw(st.sampled_from(["", "   ", "# comment", "  # x1,x2", "#"])))
            continue
        n_fields = width
        if kind == 2 and width > 1 and wild_pct:  # a ragged row
            n_fields += draw(st.sampled_from([-1, 1]))
        fields = [csv_fields(wild_pct, weighted and header == "plain" and c == d) for c in range(n_fields)]
        lines.append(",".join(draw(st.tuples(*fields))))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(lines) + draw(st.sampled_from(["", newline]))
    return text, draw(st.sampled_from([None, None, None, d, d % 3 + 1]))


class TestPointFiles:
    def test_round_trip_qmc(self, tmp_path):
        ps = PointSet([[1 / 3, 0.1], [0.7, 2 / 3]])
        ws = equal_weights(2)
        f = tmp_path / "pts.csv"
        save_points(f, ps, ws)
        ps2, ws2 = load_points(f)
        assert np.array_equal(ps.coords, ps2.coords)
        assert np.array_equal(ws.values, ws2.values)
        assert ws2.kind is WeightKind.QMC

    def test_round_trip_weighted(self, tmp_path):
        ps = PointSet([[0.2], [0.9]])
        for vals, kind in [
            (np.array([0.3, 0.7]), WeightKind.NONNEG),
            (np.array([1.5, -0.5]), WeightKind.GENERAL),
        ]:
            f = tmp_path / "w.csv"
            save_points(f, ps, WeightSet(vals, kind))
            ps2, ws2 = load_points(f)
            assert np.array_equal(ps.coords, ps2.coords)
            assert np.array_equal(vals, ws2.values)
            assert ws2.kind is kind

    def test_explicit_equal_weights_classify_qmc(self, tmp_path):
        f = tmp_path / "q.csv"
        f.write_text("x1,weight\n0.25,0.5\n0.75,0.5\n")
        _, ws = load_points(f)
        assert ws.kind is WeightKind.QMC

    def test_headerless_and_comments(self, tmp_path):
        f = tmp_path / "h.csv"
        f.write_text("# comment\n0.25,0.5\n\n0.75,0.25\n")
        ps, ws = load_points(f)
        assert ps.d == 2 and ps.n == 2
        assert ws.kind is WeightKind.QMC

    def test_empty_file_needs_dimension(self, tmp_path):
        f = tmp_path / "e.csv"
        f.write_text("# nothing\n")
        with pytest.raises(InvalidInputError):
            load_points(f)
        ps, ws = load_points(f, d=3)
        assert ps.n == 0 and ps.d == 3
        assert ws.kind is WeightKind.NONNEG

    def test_ragged_row_reports_line(self, tmp_path):
        f = tmp_path / "r.csv"
        f.write_text("0.1,0.2\n0.3\n")
        with pytest.raises(InvalidInputError, match="line 2"):
            load_points(f)

    def test_out_of_range_reports_position(self, tmp_path):
        f = tmp_path / "o.csv"
        f.write_text("x1,x2\n0.1,0.2\n0.3,1.2\n")
        with pytest.raises(InvalidInputError, match="line 3, column 2"):
            load_points(f)

    def test_bad_number_reports_position(self, tmp_path):
        f = tmp_path / "b.csv"
        f.write_text("x1\n0.1\nnope\n")
        with pytest.raises(InvalidInputError, match="line 3"):
            load_points(f)

    def test_bad_header_rejected(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("x1,y2\n0.1,0.2\n")
        with pytest.raises(InvalidInputError, match="header"):
            load_points(f)

    def test_dimension_cross_check(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("x1,x2\n0.1,0.2\n")
        with pytest.raises(InvalidInputError, match="dimension"):
            load_points(f, d=3)

    @pytest.mark.parametrize(
        "text",
        ["x1,x2\n0.5,0.25\n0.75,0.5\n", "0.5,0.25\n0.75,0.5\n"],
        ids=["header", "headerless"],
    )
    def test_byte_order_mark_is_dropped(self, tmp_path, text):
        # spreadsheet "CSV UTF-8" exports start with U+FEFF
        f = tmp_path / "bom.csv"
        f.write_text("\ufeff" + text, encoding="utf-8")
        ps, ws = load_points(f)
        assert np.array_equal(ps.coords, [[0.5, 0.25], [0.75, 0.5]])
        assert ws.kind is WeightKind.QMC
        f.write_text("\ufeff" + text + "0.3,1.2\n", encoding="utf-8")
        line = len(text.splitlines()) + 1
        with pytest.raises(InvalidInputError, match=f"line {line}, column 2"):
            load_points(f)

    def test_non_utf8_file_names_the_line(self, tmp_path):
        f = tmp_path / "u.csv"
        f.write_bytes(b"x1\r\n0.5\r\n# caf\xc3\xa9\r\n0.7\xff\n")
        with pytest.raises(InvalidInputError, match=r"u\.csv: line 4 is not UTF-8"):
            load_points(f)
        f.write_bytes(b"x1\n" + b"0.5\n" * 30000 + b"0.\xff\n")
        with pytest.raises(InvalidInputError, match="line 30002 is not UTF-8"):
            load_points(f)

    @given(point_files())
    @settings(max_examples=300, deadline=None)
    def test_reader_matches_reference(self, tmp_path_factory, case):
        text, d = case
        f = tmp_path_factory.mktemp("files") / "p.csv"
        f.write_bytes(text.encode())
        assert load_outcome(load_points, f, d) == load_outcome(reference_load_points, f, d)

    def test_first_bad_row_deep_in_a_large_file(self, tmp_path):
        # several defects far apart: the earliest row decides, and within a
        # row the earliest field, whatever the kinds of the defects
        rows = [f"{(k % 997) / 997!r},{(k % 13) / 13!r}" for k in range(5000)]
        f = tmp_path / "big.csv"
        for edits in (
            {4321: "0.5", 4400: "1.5,0.5", 4999: "0.5,nope"},
            {1234: "1.5,x", 3000: "0.5"},
            {2047: "0.25,0.5,0.75", 2048: "-1,0.5"},
            {0: "0.5,", 1: "0.5,1.0"},
            {4999: "0.5,0.25", 4998: "1e9,1_0"},
        ):
            f.write_text("\n".join(edits.get(k, r) for k, r in enumerate(rows)) + "\n")
            got = load_outcome(load_points, f)
            assert isinstance(got, str) and got == load_outcome(reference_load_points, f)

    def test_digit_underscores_are_not_numbers(self, tmp_path):
        # float() reads 1_0 as 10.0; numpy's reader rejects it.  A first line
        # whose first field is a number is data, so its bad field is named
        f = tmp_path / "u.csv"
        f.write_text("x1,x2\n0.5,0.25\n0.5,1_0\n")
        with pytest.raises(InvalidInputError, match=r"line 3, column 2: '1_0' is not a number"):
            load_points(f)
        f.write_text("0.5,1_0\n0.5,0.25\n")
        with pytest.raises(InvalidInputError, match=r"line 1, column 2: '1_0' is not a number"):
            load_points(f)

    def test_writer_matches_reference(self, tmp_path):
        vals = np.array([0.0, 5e-324, 1e-5, 0.1, 1 / 3, np.nextafter(1.0, 0.0)])
        for ps in (PointSet(vals[:, None]), PointSet(vals[None, :]), PointSet(np.empty((0, 2)))):
            n = ps.n
            rules = [WeightSet(vals[:n], WeightKind.NONNEG), WeightSet(-vals[:n], WeightKind.GENERAL)]
            if n:
                rules.append(equal_weights(n))
            for ws in rules:
                text = points_csv(ps, ws)
                assert text == reference_points_csv(ps, ws)
                save_points(tmp_path / "w.csv", ps, ws)
                ps2, ws2 = load_points(tmp_path / "w.csv")
                assert ps2.coords.tobytes() == ps.coords.tobytes()
                assert ws2.values.tobytes() == ws.values.tobytes()


def _header_only_weight(tmp):
    f = tmp / "h.csv"
    f.write_text("weight\n0.5\n")
    return load_points(f)


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda tmp: PointSet(np.empty((2, 0))), InvalidInputError, "dimension must be at least 1"),
        (lambda tmp: WeightSet(np.ones((2, 1)), WeightKind.GENERAL), InvalidInputError, "1-d array"),
        (lambda tmp: WeightSet([0.5, np.nan], WeightKind.GENERAL), InvalidInputError, "finite"),
        (lambda tmp: WeightSet([0.5, np.inf], WeightKind.GENERAL), InvalidInputError, "finite"),
        (lambda tmp: equal_weights(0), InvalidInputError, "equal weights need n >= 1"),
        # 2.5 once raised a raw TypeError from np.full
        (lambda tmp: equal_weights(2.5), InvalidInputError, "n must be an integer, got 2.5"),
        (lambda tmp: BoxPair([0.1], [0.2, 0.3]), InvalidInputError, "1-d arrays of equal length"),
        (lambda tmp: BoxPair([], []), InvalidInputError, "box dimension must be at least 1"),
        (
            lambda tmp: DiscrepancyResult(-1.0, 2.0, Method.L2_EXACT),
            InternalConsistencyError,
            "negative discrepancy value -1.0",
        ),
        (
            lambda tmp: DiscrepancyResult(math.nan, 2.0, Method.L2_EXACT),
            InternalConsistencyError,
            "negative discrepancy value nan",
        ),
        (
            lambda tmp: local_discrepancy_batch([0.5], [1.0], [[0.0]], [[1.0]]),
            InvalidInputError,
            r"coords must be a 2-d array of shape \(n, d\)",
        ),
        (lambda tmp: substream(1, -1), InvalidInputError, "substream index must be >= 0"),
        (_header_only_weight, InvalidInputError, "line 1: header has no coordinate columns"),
    ],
)
def test_constructor_and_argument_checks(tmp_path, make, error, message):
    with pytest.raises(error, match=message):
        make(tmp_path)
