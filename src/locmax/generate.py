"""Synthetic input families: uniform random graphs and random geometric graphs."""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .graph import Graph

RGG_THRESHOLD_FACTOR = 0.55


def gen_random(n: int, alpha: int, seed: int) -> Graph:
    """Uniform simple graph with exactly alpha*n edges and U[0,1) weights.

    Edges are drawn uniformly without replacement among the n*(n-1)/2
    unordered pairs, by batched rejection sampling; the result is a
    deterministic function of the seed.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if alpha < 1:
        raise ValueError("alpha must be a positive integer")
    m = alpha * n
    capacity = n * (n - 1) // 2
    if m > capacity:
        raise ValueError(
            f"density infeasible: requested {m} edges but only {capacity} pairs exist for n={n}"
        )
    rng = np.random.default_rng(seed)
    if 2 * m > capacity:
        # dense request: rejection would thrash, sample pair indices directly
        lo, hi = np.triu_indices(n, k=1)
        pick = rng.choice(capacity, size=m, replace=False)
        return Graph(n, lo[pick], hi[pick], rng.random(m))
    chosen = np.empty(0, dtype=np.int64)
    while chosen.size < m:
        need = m - chosen.size
        batch = need + need // 8 + 16
        a = rng.integers(0, n, size=batch, dtype=np.int64)
        b = rng.integers(0, n, size=batch, dtype=np.int64)
        ok = a != b
        lo = np.minimum(a[ok], b[ok])
        hi = np.maximum(a[ok], b[ok])
        packed = lo * n + hi
        # dedup within the batch, keeping first-draw order
        _, first = np.unique(packed, return_index=True)
        packed = packed[np.sort(first)]
        packed = packed[~np.isin(packed, chosen)]
        chosen = np.concatenate([chosen, packed[:need]])
    lo = chosen // n
    chosen -= lo * n
    return Graph(n, lo, chosen, rng.random(m))


def rgg_threshold(n: int) -> float:
    """Connection radius for the geometric family: 0.55 * sqrt(ln n / n)."""
    return RGG_THRESHOLD_FACTOR * math.sqrt(math.log(n) / n)


def _morton_order(points: np.ndarray) -> np.ndarray:
    """Order point indices along a z-order curve (16 bits per coordinate)."""
    q = np.clip((points * 65536.0).astype(np.uint32), 0, 65535).astype(np.uint64)

    def spread(b: np.ndarray) -> np.ndarray:
        b = (b | (b << np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
        b = (b | (b << np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
        b = (b | (b << np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
        b = (b | (b << np.uint64(2))) & np.uint64(0x3333333333333333)
        b = (b | (b << np.uint64(1))) & np.uint64(0x5555555555555555)
        return b

    key = spread(q[:, 0]) | (spread(q[:, 1]) << np.uint64(1))
    return np.argsort(key, kind="stable")


def gen_rgg(x: int, seed: int, weight_mode: str = "euclidean") -> Graph:
    """Random geometric graph on 2^x uniform points in the unit square.

    Vertices u, v are adjacent iff their Euclidean distance is strictly
    below the threshold radius (points exactly at the radius are NOT
    connected). Weights are either the Euclidean distances or fresh U[0,1)
    draws, per ``weight_mode``. Candidate pairs come from a uniform grid
    with cell width equal to the radius, and each candidate pair is
    examined once (see :func:`radius_edges_grid`), so generation is
    expected O(n + m) rather than quadratic; one sort of the found pairs
    puts the edges in the grid's fixed order.

    Vertices are numbered along a space-filling (z-order) curve of their
    positions: geometric instances normally reach a partitioner with a
    spatially coherent numbering, and contiguous-range partitions of this
    family are expected to have few cut edges.
    """
    if x < 2:
        raise ValueError("x must be >= 2")
    if weight_mode not in ("euclidean", "random"):
        raise ValueError(f"weight_mode must be euclidean or random, got {weight_mode!r}")
    n = 1 << x
    rng = np.random.default_rng(seed)
    points = rng.random((n, 2))
    points = points[_morton_order(points)]
    radius = rgg_threshold(n)
    eu, ev, dist = radius_edges_grid(points, radius)
    weights = dist if weight_mode == "euclidean" else rng.random(eu.size)
    return Graph(n, eu, ev, weights)


# Owners per pass of radius_edges_grid: keeps its candidate arrays within a
# few hundred kB at rgg densities.
_GRID_CHUNK = 1 << 12
# Cells per side at most, so that cell ids (below side**2) fit in int64.
_MAX_SIDE = 1 << 31


def radius_edges_grid(points: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All pairs at Euclidean distance < radius, via a uniform spatial hash.

    Returns (u, v, distance) arrays with u < v. Exact (not approximate): any
    pair within the radius lies in the same or an adjacent grid cell because
    cells are at least the radius wide. Points are sorted by cell, column by
    column, then by index, and each pair is examined once, from its earlier
    sorted position: that point's forward neighbourhood is the rest of its
    column up to the end of the cell above it, plus the three touching
    cells of the next column, two runs of consecutive sorted positions.
    Pairs are ordered by the sorted position of u, then by the sorted
    position of v, which one sort of packed (position, position) keys gives.
    """
    n = points.shape[0]
    if n == 0 or radius <= 0:
        e = np.empty(0, dtype=np.int64)
        return e, e.copy(), np.empty(0, dtype=np.float64)
    side = max(1, int(math.floor(min(1.0 / radius, _MAX_SIDE))))  # cells are >= radius wide
    cx = np.minimum((points[:, 0] / (1.0 / side)).astype(np.int64), side - 1)
    cy = np.minimum((points[:, 1] / (1.0 / side)).astype(np.int64), side - 1)
    cell = cx * side + cy
    order = np.argsort(cell, kind="stable")
    cell = cell[order]
    xs, ys = points[order, 0], points[order, 1]

    # Per occupied cell, the forward runs [lo, hi) of sorted positions: its
    # column through the cell above, and the three touching cells of the
    # next column (past the last column those queries exceed every cell id).
    cells, sizes = np.unique(cell, return_counts=True)
    col = cells // side
    row = cells - col * side
    up = np.minimum(row + 1, side - 1)
    own_hi = np.searchsorted(cell, col * side + up, "right")
    next_lo = np.searchsorted(cell, (col + 1) * side + np.maximum(row - 1, 0))
    next_hi = np.searchsorted(cell, (col + 1) * side + up, "right")
    runs = ((np.arange(1, n + 1), np.repeat(own_hi, sizes)),
            (np.repeat(next_lo, sizes), np.repeat(next_hi, sizes)))
    r2 = radius * radius
    keys: list[np.ndarray] = []
    for a in range(0, n, _GRID_CHUNK):
        b = min(a + _GRID_CHUNK, n)
        for lo, hi in runs:
            c = hi[a:b] - lo[a:b]
            own = np.repeat(np.arange(a, b), c)
            other = np.arange(own.size) + np.repeat(lo[a:b] - (np.cumsum(c) - c), c)
            dx = np.repeat(xs[a:b], c) - xs[other]
            dy = np.repeat(ys[a:b], c) - ys[other]
            near = np.flatnonzero(dx * dx + dy * dy < r2)
            own, other = own[near], other[near]
            # key the pair by u's position: u is the point with the smaller index
            first = np.where(order[own] < order[other], own, other)
            keys.append(first * n + (own + other - first))
    second = np.sort(np.concatenate(keys))
    first = second // n
    second -= first * n
    dx, dy = xs[first] - xs[second], ys[first] - ys[second]
    return order[first], order[second], np.sqrt(dx * dx + dy * dy)


def with_unit_weights(g: Graph) -> Graph:
    """The graph with every weight forced to 1.0 (cardinality runs), sharing
    the endpoint columns."""
    return dataclasses.replace(g, edge_weight=np.ones(g.num_edges))
