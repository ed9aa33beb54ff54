"""Reference implementations kept as test oracles.

These are the loop-based versions of the graph builder, the file readers,
the grid neighbour search, the generators and the matching validator that
the array-based code in ``locmax`` replaced, the rank-based PRAM, BSP
and red-blue engines that sorted every round's keys before the staged
(weight, salt, id) maximum replaced the sort, the edge-scan greedy,
per-vertex HEM and union-find GPA that the chunked greedy scan and
the path-end tables replaced, pram's ``reduceat`` vertex totals and the
one-pass SplitMix64 finalizer that a scatter-max and a blocked mix
replaced, and the brute-force oracle as it was before its bookkeeping was
trimmed. The tests check the package against them
array for array; nothing under ``src/`` imports this module.
The scalar tie key (``TieKey``, ``tie_key``) lives here too, as the
independent statement of the key order, and so do ``incident_edges``,
which only tests read, the eager layout ``assemble`` that the lazy
adjacency arrays replaced, and ``laid_out``, which gives a graph a
hand-made layout.

Deliberate differences from the original loops, which the package shares:
``read_matrix_market`` rejects NaN and infinite entries at their line, and
a size line with a negative count; ``bsp_local_max`` counts the first
barrier's records once per (vertex, receiving worker), whichever side of
its cut edges the vertex is stored on.
"""

from __future__ import annotations

import math
import re
import time
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from locmax import Graph, Matching, MatchingCheck, assert_graph_invariants, matching_from_edge_ids
from locmax.bsp import CANDIDATE_RECORD_BYTES, RoundMessages, partition_graph
from locmax.generate import _morton_order, rgg_threshold
from locmax.matchers import PhaseTrace, RbmDidNotConverge, RoundStats
from locmax.oracle import OracleResult
from locmax.pram import WriteLog
from locmax.tiebreak import edge_salts, key_ranks, round_seed, vertex_coins

_MM_FIELDS = ("real", "integer", "pattern")
_WEIGHT_REGIMES = ("uniform", "few_values", "all_equal", "powers")
ORACLE_EDGE_CAP = 24


def build_graph(
    edge_list: Iterable[tuple[int, int, float]],
    num_vertices: int | None = None,
) -> Graph:
    """Build an adjacency-array graph from (u, v, weight) triples.

    Self-loops are dropped. Among parallel edges only the heaviest is kept
    (ties resolved toward the earlier input position). Vertex ids must lie
    in [0, num_vertices); when ``num_vertices`` is omitted it is inferred as
    max id + 1.

    Raises ValueError for out-of-range ids and NaN, infinite or negative
    weights, naming the offending input position.
    """
    kept: dict[tuple[int, int], int] = {}
    us: list[int] = []
    vs: list[int] = []
    ws: list[float] = []
    max_id = -1
    for pos, (u, v, w) in enumerate(edge_list):
        ui, vi = int(u), int(v)
        if ui < 0 or vi < 0:
            raise ValueError(f"edge {pos}: negative vertex id ({ui}, {vi})")
        if num_vertices is not None and (ui >= num_vertices or vi >= num_vertices):
            raise ValueError(
                f"edge {pos}: vertex id out of range for n={num_vertices}: ({ui}, {vi})"
            )
        wf = float(w)
        if math.isnan(wf) or math.isinf(wf) or wf < 0.0:
            raise ValueError(f"edge {pos}: weight must be finite and >= 0, got {w!r}")
        if ui == vi:
            continue  # self-loops can never be matched
        max_id = max(max_id, ui, vi)
        pair = (ui, vi) if ui < vi else (vi, ui)
        at = kept.get(pair)
        if at is None:
            kept[pair] = len(us)
            us.append(ui)
            vs.append(vi)
            ws.append(wf)
        elif wf > ws[at]:
            us[at], vs[at], ws[at] = ui, vi, wf

    n = num_vertices if num_vertices is not None else max_id + 1
    m = len(us)
    edge_u = np.asarray(us, dtype=np.int64)
    edge_v = np.asarray(vs, dtype=np.int64)
    edge_weight = np.asarray(ws, dtype=np.float64)

    slot_vertex = np.concatenate([edge_u, edge_v]) if m else np.empty(0, dtype=np.int64)
    slot_eid = np.concatenate([np.arange(m), np.arange(m)]).astype(np.int64)
    order = np.lexsort((slot_eid, slot_vertex))
    slot_vertex = slot_vertex[order]
    slot_eid = slot_eid[order]

    degrees = np.bincount(slot_vertex, minlength=n).astype(np.int64)
    offsets = np.concatenate([[0], np.cumsum(degrees)]).astype(np.int64)

    return laid_out(n, offsets, slot_vertex, slot_eid, edge_u, edge_v, edge_weight)


def laid_out(n: int, offsets, slot_vertex, slot_edge, edge_u, edge_v, edge_weight) -> Graph:
    """A graph whose adjacency arrays are the given ones, cached read-only
    in place of the layout it would compute from its edges on first read
    (so they may be inconsistent with the edges, or with each other)."""
    g = Graph(n, np.asarray(edge_u), np.asarray(edge_v), np.asarray(edge_weight))
    offsets, slot_vertex, slot_edge = (np.array(a) for a in (offsets, slot_vertex, slot_edge))
    for a in (offsets, slot_vertex, slot_edge):
        a.setflags(write=False)
    vars(g).update(offsets=offsets, _slots=(slot_vertex, slot_edge))  # Graph's cache
    return g


def assemble(u: np.ndarray, v: np.ndarray, w: np.ndarray, n: int) -> Graph:
    """The layout reference: a graph of valid, deduplicated edges with its
    adjacency arrays laid out eagerly, as the package did before they were
    computed on first read. Each vertex's slots list its edges in ascending
    id order."""
    m = u.size
    eid = np.arange(m, dtype=np.int64)
    # one sort of (vertex, edge id) packed into a single key
    d = max(m, 1)
    slot_edge = np.concatenate([u, v]) * d + np.concatenate([eid, eid])
    slot_edge.sort()
    slot_vertex = slot_edge // d
    slot_edge -= slot_vertex * d
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(slot_vertex, minlength=n), out=offsets[1:])
    return laid_out(n, offsets, slot_vertex, slot_edge, u, v, w)


def read_matrix_market(path: str | Path) -> Graph:
    """Read a symmetric MatrixMarket coordinate file as a weighted graph.

    One undirected edge per off-diagonal stored entry, weighted by the
    absolute value of the entry (1.0 for pattern files). Diagonal entries
    are dropped, duplicates collapse to the largest absolute value, and
    explicit zero entries are discarded: a zero-weight edge can never beat a
    positive one and would only pollute quality ratios. Indices are 1-based
    in the file and 0-based in the result.
    """
    path = Path(path)
    with path.open("r", encoding="ascii", errors="replace") as fh:
        header = fh.readline()
        tokens = header.strip().split()
        if len(tokens) != 5 or tokens[0] != "%%MatrixMarket":
            raise ValueError(f"{path}: malformed MatrixMarket banner: {header.strip()!r}")
        _, obj, fmt, field, symmetry = (t.lower() for t in tokens)
        if obj != "matrix" or fmt != "coordinate":
            raise ValueError(f"{path}: expected 'matrix coordinate', got '{obj} {fmt}'")
        if field not in _MM_FIELDS:
            raise ValueError(f"{path}: unsupported field {field!r} (want real/integer/pattern)")
        if symmetry != "symmetric":
            raise ValueError(f"{path}: symmetry must be 'symmetric', got {symmetry!r}")

        size_line = None
        lineno = 1
        for line in fh:
            lineno += 1
            s = line.strip()
            if not s or s.startswith("%"):
                continue
            size_line = s
            break
        if size_line is None:
            raise ValueError(f"{path}: missing size line")
        parts = size_line.split()
        if len(parts) != 3:
            raise ValueError(f"{path}:{lineno}: malformed size line {size_line!r}")
        try:
            rows, cols, nnz = (int(p) for p in parts)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: malformed size line {size_line!r}") from exc
        if min(rows, cols, nnz) < 0:
            raise ValueError(f"{path}:{lineno}: malformed size line {size_line!r}")
        if rows != cols:
            raise ValueError(f"{path}: symmetric matrix must be square, got {rows}x{cols}")

        want_value = field != "pattern"
        best: dict[tuple[int, int], float] = {}
        seen = 0
        for line in fh:
            lineno += 1
            s = line.strip()
            if not s or s.startswith("%"):
                continue
            parts = s.split()
            if len(parts) != (3 if want_value else 2):
                raise ValueError(f"{path}:{lineno}: malformed entry {s!r}")
            try:
                i, j = int(parts[0]), int(parts[1])
                value = float(parts[2]) if want_value else 1.0
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: malformed entry {s!r}") from exc
            if not (1 <= i <= rows and 1 <= j <= cols):
                raise ValueError(
                    f"{path}:{lineno}: entry ({i},{j}) out of bounds for {rows}x{cols}"
                )
            if not math.isfinite(value):
                raise ValueError(f"{path}:{lineno}: entry value must be finite, got {value!r}")
            seen += 1
            if i == j:
                continue
            w = abs(value)
            if w == 0.0:
                continue
            pair = (i - 1, j - 1) if i < j else (j - 1, i - 1)
            if w > best.get(pair, -1.0):
                best[pair] = w
        if seen != nnz:
            raise ValueError(f"{path}: header declares {nnz} entries, found {seen}")
    return build_graph(((u, v, w) for (u, v), w in best.items()), num_vertices=rows)


_NLINE = re.compile(r"#\s*n\s*=\s*(\d+)")


def read_edge_list(path: str | Path) -> Graph:
    """Read a whitespace-separated "u v w" edge list.

    Lines starting with '#' are comments; a "# n=<N>" comment fixes the
    vertex count (otherwise it is inferred as max id + 1, 0 for an empty
    file). Parse failures report the offending line number.
    """
    path = Path(path)
    n_override: int | None = None
    edges: list[tuple[int, int, float]] = []
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            s = line.strip()
            if not s:
                continue
            if s.startswith("#"):
                m = _NLINE.search(s)
                if m:
                    n_override = int(m.group(1))
                continue
            parts = s.split()
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected 'u v w', got {s!r}")
            try:
                edges.append((int(parts[0]), int(parts[1]), float(parts[2])))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: cannot parse {s!r}") from exc
    return build_graph(edges, num_vertices=n_override)


def gen_random(n: int, alpha: int, seed: int) -> Graph:
    """Uniform simple graph with exactly alpha*n edges and U[0,1) weights.

    Edges are drawn uniformly without replacement among the n*(n-1)/2
    unordered pairs, by batched rejection sampling; the result is a
    deterministic function of the seed.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
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
        chosen = lo[pick] * n + hi[pick]
        weights = rng.random(m)
        edges = zip((chosen // n).tolist(), (chosen % n).tolist(), weights.tolist())
        return build_graph(edges, num_vertices=n)
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
    weights = rng.random(m)
    edges = zip((chosen // n).tolist(), (chosen % n).tolist(), weights.tolist())
    return build_graph(edges, num_vertices=n)


def gen_rgg(x: int, seed: int, weight_mode: str = "euclidean") -> Graph:
    """Random geometric graph on 2^x uniform points in the unit square.

    Vertices u, v are adjacent iff their Euclidean distance is strictly
    below the threshold radius (points exactly at the radius are NOT
    connected). Weights are either the Euclidean distances or fresh U[0,1)
    draws, per ``weight_mode``. Candidate pairs come from a uniform grid
    with cell width equal to the radius, so generation is expected
    O(n + m) rather than quadratic.

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
    if weight_mode == "euclidean":
        weights = dist
    else:
        weights = rng.random(eu.size)
    edges = zip(eu.tolist(), ev.tolist(), weights.tolist())
    return build_graph(edges, num_vertices=n)


def radius_edges_grid(points: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All pairs at Euclidean distance < radius, via a uniform spatial hash.

    Returns (u, v, distance) arrays with u < v, ordered deterministically.
    Exact (not approximate): any pair within the radius lies in the same or
    an adjacent grid cell because the cell width equals the radius.
    """
    n = points.shape[0]
    if n == 0 or radius <= 0:
        e = np.empty(0, dtype=np.int64)
        return e, e.copy(), np.empty(0, dtype=np.float64)
    side = max(1, int(math.floor(1.0 / radius)))  # cells are >= radius wide
    cx = np.minimum((points[:, 0] / (1.0 / side)).astype(np.int64), side - 1)
    cy = np.minimum((points[:, 1] / (1.0 / side)).astype(np.int64), side - 1)
    cell = cx * side + cy
    order = np.lexsort((np.arange(n), cell))
    sorted_cell = cell[order]
    uniq, starts = np.unique(sorted_cell, return_index=True)
    starts = np.concatenate([starts, [n]])
    cell_slice = {int(c): (int(starts[i]), int(starts[i + 1])) for i, c in enumerate(uniq)}

    us: list[np.ndarray] = []
    vs: list[np.ndarray] = []
    ds: list[np.ndarray] = []
    r2 = radius * radius
    for i, c in enumerate(uniq):
        px, py = int(c) // side, int(c) % side
        own = order[starts[i]:starts[i + 1]]
        cand_parts = []
        for dx in (-1, 0, 1):
            qx = px + dx
            if not 0 <= qx < side:
                continue
            for dy in (-1, 0, 1):
                qy = py + dy
                if not 0 <= qy < side:
                    continue
                sl = cell_slice.get(qx * side + qy)
                if sl is not None:
                    cand_parts.append(order[sl[0]:sl[1]])
        cand = np.concatenate(cand_parts)
        diff = points[own][:, None, :] - points[cand][None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        pi, qi = np.nonzero((d2 < r2) & (own[:, None] < cand[None, :]))
        if pi.size:
            us.append(own[pi])
            vs.append(cand[qi])
            ds.append(np.sqrt(d2[pi, qi]))
    if not us:
        e = np.empty(0, dtype=np.int64)
        return e, e.copy(), np.empty(0, dtype=np.float64)
    return np.concatenate(us), np.concatenate(vs), np.concatenate(ds)


def with_unit_weights(g: Graph) -> Graph:
    """Copy of the graph with every weight forced to 1.0 (cardinality runs)."""
    edges = zip(g.edge_u.tolist(), g.edge_v.tolist(), [1.0] * g.num_edges)
    return build_graph(edges, num_vertices=g.num_vertices)


def random_audit_instance(rng: np.random.Generator, max_edges: int = ORACLE_EDGE_CAP) -> Graph:
    """Small random graph in mixed weight regimes, ties included on purpose."""
    n = int(rng.integers(2, 13))
    cap = min(max_edges, n * (n - 1) // 2)
    m = int(rng.integers(0, cap + 1))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    idx = rng.choice(len(pairs), size=m, replace=False) if m else []
    regime = _WEIGHT_REGIMES[int(rng.integers(0, len(_WEIGHT_REGIMES)))]
    edges = []
    for i in idx:
        u, v = pairs[int(i)]
        if regime == "uniform":
            w = float(rng.random())
        elif regime == "few_values":
            w = float(rng.integers(1, 5)) / 4.0
        elif regime == "all_equal":
            w = 1.0
        else:
            w = float(2 ** rng.integers(0, 5))
        edges.append((u, v, w))
    return build_graph(edges, num_vertices=n)


def max_weight_matching_bruteforce(g: Graph, max_edges: int = ORACLE_EDGE_CAP) -> OracleResult:
    """The oracle's include/exclude search with per-node numpy reads and a
    sorted edge tuple built at every new incumbent."""
    m = g.num_edges
    if m > max_edges:
        raise ValueError(f"instance too large for the oracle: m={m} > {max_edges}")
    order = sorted(range(m), key=lambda k: -g.edge_weight[k])
    w = [float(g.edge_weight[k]) for k in order]
    uu = [int(g.edge_u[k]) for k in order]
    vv = [int(g.edge_v[k]) for k in order]
    suffix = [0.0] * (m + 1)
    for i in range(m - 1, -1, -1):
        suffix[i] = suffix[i + 1] + w[i]

    best_weight = -1.0
    best_edges: tuple[int, ...] = ()
    nodes = 0
    chosen: list[int] = []

    def walk(i: int, used: int, total: float) -> None:
        nonlocal best_weight, best_edges, nodes
        nodes += 1
        if total > best_weight:
            best_weight = total
            best_edges = tuple(sorted(order[j] for j in chosen))
        if i == m or total + suffix[i] <= best_weight:
            return
        bit = (1 << uu[i]) | (1 << vv[i])
        if not used & bit:
            chosen.append(i)
            walk(i + 1, used | bit, total + w[i])
            chosen.pop()
        walk(i + 1, used, total)

    walk(0, 0, 0.0)
    return OracleResult(max(best_weight, 0.0), best_edges, nodes)


def validate_matching(g: Graph, m: Matching) -> MatchingCheck:
    """Diagnostic validation; never raises.

    ``valid`` holds when the edge set is pairwise vertex-disjoint and the
    mate table is exactly the one induced by it. ``maximal`` additionally
    requires that no remaining edge has both endpoints unmatched.
    """
    n = g.num_vertices
    if m.mate.shape != (n,):
        return MatchingCheck(False, False, "mate table has wrong length")
    seen = np.zeros(n, dtype=bool)
    for k in m.edges:
        if not 0 <= k < g.num_edges:
            return MatchingCheck(False, False, f"edge id {k} out of range")
        u, v = g.endpoints(k)
        if seen[u] or seen[v]:
            return MatchingCheck(False, False, f"vertex shared by two matched edges (edge {k})")
        seen[u] = seen[v] = True
        if m.mate[u] != v or m.mate[v] != u:
            return MatchingCheck(False, False, f"mate table disagrees with matched edge {k}")
    if np.any(m.mate[~seen] != -1):
        return MatchingCheck(False, False, "mate entry set for an unmatched vertex")
    unmatched_u = m.mate[g.edge_u] == -1
    unmatched_v = m.mate[g.edge_v] == -1
    addable = bool(np.any(unmatched_u & unmatched_v))
    return MatchingCheck(True, not addable, "")


class TieKey(NamedTuple):
    """Strict-total-order key for a single edge; compares lexicographically."""

    weight: float
    salt: int
    edge_id: int


#: Orders below every real edge; stands in for the uninitialized candidate.
DUMMY_KEY = TieKey(float("-inf"), 0, -1)


def mix64(x) -> np.ndarray:
    """The SplitMix64 finalizer in one pass over a uint64 copy of ``x``, each
    step over the whole array, as ``tiebreak`` mixed before it blocked."""
    x = np.array(x, dtype=np.uint64)
    x += np.uint64(0x9E3779B97F4A7C15)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def tie_key(edge_id: int, weight: float, round_seed_value: int) -> TieKey:
    """The tie-breaking key of one edge under a given per-round seed."""
    salt = int(edge_salts(round_seed_value, np.array([edge_id], dtype=np.uint64))[0])
    return TieKey(float(weight), salt, int(edge_id))


def compaction_addresses(delete_flags: np.ndarray) -> np.ndarray:
    """New address of every entry after deleting the flagged ones.

    The inclusive prefix sum d of the flags counts deletions at or before
    each index, and index - d is where a surviving entry lands; addresses
    of deleted entries are meaningless and never used.
    """
    return np.arange(len(delete_flags), dtype=np.int64) - np.cumsum(delete_flags, dtype=np.int64)


def vertex_totals(g: Graph):
    """The segment layout (the vertices with live slots, where their segments
    start) as a function taking the maximum of a per-slot value over each
    vertex's segment by one ``np.maximum.reduceat``, which lands at the
    vertex; other vertices hold 0. The reference's own segmented reduction,
    sharing no code with the package's kernel."""
    busy = np.flatnonzero(g.offsets[1:] != g.offsets[:-1])
    starts = g.offsets[busy]

    def totals(slot_value: np.ndarray) -> np.ndarray:
        total = np.zeros(g.num_vertices, dtype=slot_value.dtype)
        total[busy] = np.maximum.reduceat(slot_value, starts)
        return total
    return totals


def pram_phase(g: Graph, edge_orig: np.ndarray, round_seed_value: int,
               log: WriteLog | None = None):
    """One parallel local max phase with the keys encoded as dense ranks:
    the matched input edge ids, the compacted graph and its input edge ids.

    Wins and the matched flags reach the edges through per-vertex totals
    read at both endpoints."""
    m = g.num_edges
    if m == 0:
        return np.empty(0, dtype=np.int64), g, edge_orig
    totals = vertex_totals(g)

    salts = edge_salts(round_seed_value, edge_orig)
    ranks = key_ranks(g.edge_weight, salts, edge_orig)
    best = totals(ranks[g.slot_edge])
    wins = (best[g.edge_u] == ranks) & (best[g.edge_v] == ranks)
    flags = np.zeros(m, dtype=np.int64)
    matched_edges = np.flatnonzero(wins)
    flags[matched_edges] = 1
    if log is not None:
        # the marks that the matched edges write at their endpoints
        log.record(np.concatenate((g.edge_u[matched_edges], g.edge_v[matched_edges])))

    spread = totals(flags[g.slot_edge])
    dead_edge = (spread[g.edge_u] | spread[g.edge_v]).astype(bool)

    new_edge_index = compaction_addresses(dead_edge)
    keep_e = ~dead_edge
    keep_s = ~dead_edge[g.slot_edge]
    slot_vertex = g.slot_vertex[keep_s]
    surviving_deg = np.bincount(slot_vertex, minlength=g.num_vertices)
    rest = laid_out(g.num_vertices, np.concatenate([[0], np.cumsum(surviving_deg)]).astype(np.int64),
                    slot_vertex, new_edge_index[g.slot_edge[keep_s]],
                    g.edge_u[keep_e], g.edge_v[keep_e], g.edge_weight[keep_e])
    return edge_orig[matched_edges], rest, edge_orig[keep_e]


def check_progress(round_index: int, before: int, matched: np.ndarray, m: int) -> None:
    """The package's guard on a phase loop: a phase with live edges that
    matches nothing, or more phases than the m input edges, is a defect,
    which raises instead of looping."""
    if not matched.size:
        raise RuntimeError(f"pram: round {round_index} matched none of {before} live edges")
    if round_index >= m:
        raise RuntimeError(f"pram: more than {m} phases on {m} edges")


def pram_local_max(g: Graph, seed: int, checked: bool = False, rerandomize: bool = True):
    """The PRAM engine driving the rank-based :func:`pram_phase`."""
    t0 = time.perf_counter()
    m = g.num_edges
    orig = np.arange(m, dtype=np.int64)
    log = WriteLog() if checked else None
    trace = PhaseTrace(write_log=log)
    slot_ops = g.num_vertices + 3 * m
    if checked:
        assert_graph_invariants(g)
    matched_parts: list[np.ndarray] = []
    round_index = 0
    live = g
    while live.num_edges:
        before = live.num_edges
        slot_ops += live.num_edges + live.slot_edge.size
        rs = round_seed(seed, round_index, rerandomize)
        matched, live, orig = pram_phase(live, orig, rs, log)
        check_progress(round_index, before, matched, m)
        if checked:
            assert_graph_invariants(live)
        matched_parts.append(matched)
        trace.rounds.append(RoundStats(before, matched.size, before - live.num_edges))
        round_index += 1
    all_matched = (
        np.concatenate(matched_parts) if matched_parts else np.empty(0, dtype=np.int64)
    )
    trace.slot_ops = int(slot_ops)
    trace.wall_millis = (time.perf_counter() - t0) * 1000.0
    return matching_from_edge_ids(g, all_matched), trace


def bsp_local_max(g: Graph, p: int, seed: int, rerandomize: bool = True):
    """Bulk-synchronous local max comparing per-round dense key ranks."""
    t0 = time.perf_counter()
    part = partition_graph(g, p)
    owner = part.owner
    n, m = g.num_vertices, g.num_edges
    trace = PhaseTrace(messages=[])

    cand = np.full(n, -1, dtype=np.int64)
    vertex_matched = np.zeros(n, dtype=bool)
    rank_of = np.full(m, -1, dtype=np.int64)
    is_cut = np.zeros(m, dtype=bool)
    is_cut[part.cut_edges] = True

    local_live = local_edges(g, part)
    matched_ever = np.zeros(m, dtype=bool)
    live_union = np.arange(m, dtype=np.int64)
    round_index = 0
    while live_union.size:
        rs = round_seed(seed, round_index, rerandomize)
        rank_of[live_union] = key_ranks(
            g.edge_weight[live_union], edge_salts(rs, live_union), live_union
        )
        # other workers own no endpoint of a live edge, so their lists are empty
        active = np.union1d(owner[g.edge_u[live_union]], owner[g.edge_v[live_union]]).tolist()
        for w in active:
            el = local_live[w]
            us, vs = g.edge_u[el], g.edge_v[el]
            r = rank_of[el]
            mine_u = owner[us] == w
            mine_v = owner[vs] == w
            np.maximum.at(cand, us[mine_u], r[mine_u])
            np.maximum.at(cand, vs[mine_v], r[mine_v])

        cut_live = live_union[is_cut[live_union]]
        cu, cv = g.edge_u[cut_live], g.edge_v[cut_live]
        records = int(np.unique(np.concatenate([cu * np.int64(p) + owner[cv],
                                                cv * np.int64(p) + owner[cu]])).size)

        for w in active:
            el = local_live[w]
            us, vs = g.edge_u[el], g.edge_v[el]
            r = rank_of[el]
            won = (cand[us] == r) & (cand[vs] == r)
            matched_ever[el[won]] = True
            mine_u = owner[us] == w
            mine_v = owner[vs] == w
            vertex_matched[us[won & mine_u]] = True
            vertex_matched[vs[won & mine_v]] = True

        status_records = 2 * int(cut_live.size)

        for w in active:
            el = local_live[w]
            us, vs = g.edge_u[el], g.edge_v[el]
            alive = ~(vertex_matched[us] | vertex_matched[vs])
            mine_u = owner[us] == w
            mine_v = owner[vs] == w
            cand[us[alive & mine_u]] = -1
            cand[vs[alive & mine_v]] = -1
            local_live[w] = el[alive]

        newly_matched = int(matched_ever[live_union].sum())
        still = ~(
            vertex_matched[g.edge_u[live_union]] | vertex_matched[g.edge_v[live_union]]
        )
        survivors = live_union[still]
        trace.rounds.append(
            RoundStats(live_union.size, newly_matched, live_union.size - survivors.size)
        )
        trace.messages.append(
            RoundMessages(
                round_index,
                records,
                records * CANDIDATE_RECORD_BYTES,
                int(cut_live.size),
                status_records,
            )
        )
        live_union = survivors
        round_index += 1

    matched = np.nonzero(matched_ever)[0]
    trace.wall_millis = (time.perf_counter() - t0) * 1000.0
    return matching_from_edge_ids(g, matched), trace


def rbm(g: Graph, seed: int):
    """Red-blue matching with proposals and acceptances compared as dense ranks."""
    t0 = time.perf_counter()
    n = g.num_vertices
    trace = PhaseTrace()
    prop = np.full(n, -1, dtype=np.int64)
    acc = np.full(n, -1, dtype=np.int64)
    vertex_matched = np.zeros(n, dtype=bool)
    live = np.arange(g.num_edges, dtype=np.int64)
    matched_parts: list[np.ndarray] = []
    round_index = 0
    max_rounds = 10_000
    while live.size:
        if round_index >= max_rounds:
            raise RbmDidNotConverge(f"no progress after {max_rounds} rounds")
        rs = round_seed(seed, round_index, rerandomize=True)
        ranks = key_ranks(g.edge_weight[live], edge_salts(rs, live), live)
        us = g.edge_u[live]
        vs = g.edge_v[live]
        blue_u = vertex_coins(rs, us)
        blue_v = vertex_coins(rs, vs)
        fwd = blue_u & ~blue_v
        bwd = blue_v & ~blue_u
        np.maximum.at(prop, us[fwd], ranks[fwd])
        np.maximum.at(prop, vs[bwd], ranks[bwd])
        prop_fwd = fwd & (prop[us] == ranks)
        prop_bwd = bwd & (prop[vs] == ranks)
        np.maximum.at(acc, vs[prop_fwd], ranks[prop_fwd])
        np.maximum.at(acc, us[prop_bwd], ranks[prop_bwd])
        won = (prop_fwd & (acc[vs] == ranks)) | (prop_bwd & (acc[us] == ranks))
        new_edges = live[won]
        matched_parts.append(new_edges)
        vertex_matched[us[won]] = True
        vertex_matched[vs[won]] = True
        alive = ~(vertex_matched[us] | vertex_matched[vs])
        prop[us[alive]] = -1
        prop[vs[alive]] = -1
        acc[us[alive]] = -1
        acc[vs[alive]] = -1
        survivors = live[alive]
        trace.rounds.append(RoundStats(live.size, new_edges.size, live.size - survivors.size))
        live = survivors
        round_index += 1
    matched = np.concatenate(matched_parts) if matched_parts else np.empty(0, dtype=np.int64)
    trace.wall_millis = (time.perf_counter() - t0) * 1000.0
    return matching_from_edge_ids(g, matched), trace


def incident_edges(g: Graph, v: int) -> np.ndarray:
    """Edge ids incident to v, in ascending edge-id order."""
    return g.slot_edge[g.offsets[v]:g.offsets[v + 1]]


def local_edges(g: Graph, part) -> list[np.ndarray]:
    """Per worker of ``part``: the ids of the edges with an owned endpoint."""
    owner_u = part.owner[g.edge_u]
    owner_v = part.owner[g.edge_v]
    edge_ids = np.arange(g.num_edges, dtype=np.int64)
    local = [edge_ids[:0]] * part.num_workers
    for w in np.union1d(owner_u, owner_v).tolist():
        local[w] = edge_ids[(owner_u == w) | (owner_v == w)]
    return local


def descending_key_order(g: Graph, seed: int) -> np.ndarray:
    """Edge ids by decreasing round-0 (weight, salt, id) key."""
    ids = np.arange(g.num_edges, dtype=np.int64)
    salts = edge_salts(round_seed(seed, 0), ids)
    return np.lexsort((ids, salts, g.edge_weight))[::-1]


def greedy(g: Graph, seed: int):
    """Scan edges by decreasing key, matching those with both endpoints free."""
    t0 = time.perf_counter()
    mate = [-1] * g.num_vertices
    eu = g.edge_u.tolist()
    ev = g.edge_v.tolist()
    matched: list[int] = []
    for k in descending_key_order(g, seed).tolist():
        u, v = eu[k], ev[k]
        if mate[u] == -1 and mate[v] == -1:
            mate[u] = v
            mate[v] = u
            matched.append(k)
    trace = PhaseTrace([RoundStats(g.num_edges, len(matched), g.num_edges)])
    trace.wall_millis = (time.perf_counter() - t0) * 1000.0
    return matching_from_edge_ids(g, matched), trace


def hem(g: Graph, seed: int):
    """Heavy edge matching: visit the vertices in input order, each free one
    grabbing its heaviest free incident edge by (weight, salt, id) key."""
    return _hem(g, seed, range(g.num_vertices))


def hem_random(g: Graph, seed: int):
    """HEM visiting the vertices in seeded random order."""
    return _hem(g, seed, np.random.default_rng(seed).permutation(g.num_vertices).tolist())


def _hem(g: Graph, seed: int, order):
    t0 = time.perf_counter()
    n = g.num_vertices
    ids = np.arange(g.num_edges, dtype=np.int64)
    salts = edge_salts(round_seed(seed, 0), ids).tolist()
    ew = g.edge_weight.tolist()
    eu = g.edge_u.tolist()
    ev = g.edge_v.tolist()
    slot_edge = g.slot_edge.tolist()
    offsets = g.offsets.tolist()
    mate = [-1] * n
    matched: list[int] = []
    for v in order:
        if mate[v] != -1:
            continue
        best_key = None
        best_edge = -1
        for s in range(offsets[v], offsets[v + 1]):
            k = slot_edge[s]
            u = ev[k] if eu[k] == v else eu[k]
            if mate[u] != -1:
                continue
            key = (ew[k], salts[k], k)
            if best_key is None or key > best_key:
                best_key = key
                best_edge = k
        if best_edge >= 0:
            u = ev[best_edge] if eu[best_edge] == v else eu[best_edge]
            mate[v] = u
            mate[u] = v
            matched.append(best_edge)
    trace = PhaseTrace([RoundStats(g.num_edges, len(matched), g.num_edges)])
    trace.wall_millis = (time.perf_counter() - t0) * 1000.0
    return matching_from_edge_ids(g, matched), trace


class ParityUnionFind:
    """Union-find tracking each vertex's path parity to its root.

    parity(u) xor parity(v) is the parity of the u-v path inside the
    degree-<=2 forest, which is all that is needed to tell an odd cycle
    (same parity) from an even one (different parity).

    This is the union-find the package's GPA used, with one fix: ``find``
    returns the parity of ``x`` itself. The original returned the parity
    of the last node that path compression re-linked.
    """

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.parity = [0] * n
        self.rank = [0] * n

    def find(self, x: int) -> tuple[int, int]:
        root = x
        par = 0
        while self.parent[root] != root:
            par ^= self.parity[root]
            root = self.parent[root]
        parity_of_x = par
        # path compression, re-anchoring parities at the root
        while self.parent[x] != root:
            nxt = self.parent[x]
            nxt_par = par ^ self.parity[x]
            self.parent[x] = root
            self.parity[x] = par
            x = nxt
            par = nxt_par
        return root, parity_of_x

    def union(self, x: int, y: int) -> None:
        rx, px = self.find(x)
        ry, py = self.find(y)
        if rx == ry:
            return
        if self.rank[rx] < self.rank[ry]:
            rx, ry = ry, rx
            px, py = py, px
        self.parent[ry] = rx
        self.parity[ry] = px ^ py ^ 1  # the new edge flips parity
        if self.rank[rx] == self.rank[ry]:
            self.rank[rx] += 1


def path_dp(edge_seq: list[int], weights: list[float]) -> tuple[float, list[int]]:
    """Max-weight matching of a path given its edges in order."""
    k = len(edge_seq)
    best = [0.0] * (k + 1)
    take = [False] * (k + 1)
    for i in range(1, k + 1):
        with_edge = (best[i - 2] if i >= 2 else 0.0) + weights[i - 1]
        if with_edge > best[i - 1]:
            best[i] = with_edge
            take[i] = True
        else:
            best[i] = best[i - 1]
    chosen = []
    i = k
    while i > 0:
        if take[i]:
            chosen.append(edge_seq[i - 1])
            i -= 2
        else:
            i -= 1
    return best[k], chosen


def gpa_accepted(g: Graph, seed: int) -> list[int]:
    """The edges GPA's scan accepts, in acceptance order: by decreasing key,
    keeping maximum degree two and no odd cycle (parity union-find)."""
    n = g.num_vertices
    eu = g.edge_u.tolist()
    ev = g.edge_v.tolist()
    uf = ParityUnionFind(n)
    deg = [0] * n
    accepted: list[int] = []
    for k in descending_key_order(g, seed).tolist():
        u, v = eu[k], ev[k]
        if deg[u] >= 2 or deg[v] >= 2:
            continue
        ru, pu = uf.find(u)
        rv, pv = uf.find(v)
        if ru == rv and pu == pv:
            continue  # would close an odd cycle
        uf.union(u, v)
        deg[u] += 1
        deg[v] += 1
        accepted.append(k)
    return accepted


def gpa(g: Graph, seed: int):
    """Global path algorithm with a union-find scan and edge-consuming walks."""
    t0 = time.perf_counter()
    n = g.num_vertices
    eu = g.edge_u.tolist()
    ev = g.edge_v.tolist()
    ew = g.edge_weight.tolist()
    deg = [0] * n
    adj: list[list[int]] = [[] for _ in range(n)]  # accepted edges, <= 2 per vertex
    for k in gpa_accepted(g, seed):
        for x in (eu[k], ev[k]):
            deg[x] += 1
            adj[x].append(k)

    # decompose the degree-<=2 subgraph into open paths and (even) cycles
    consumed = [False] * g.num_edges
    mate = [-1] * n
    matched: list[int] = []

    def walk_from(v0: int) -> list[int]:
        seq = []
        v = v0
        while True:
            nxt = next((k for k in adj[v] if not consumed[k]), None)
            if nxt is None:
                return seq
            consumed[nxt] = True
            seq.append(nxt)
            v = ev[nxt] if eu[nxt] == v else eu[nxt]

    def commit(edge_ids: list[int]) -> None:
        for k in edge_ids:
            mate[eu[k]] = ev[k]
            mate[ev[k]] = eu[k]
            matched.append(k)

    def solve(edge_seq: list[int]) -> tuple[float, list[int]]:
        return path_dp(edge_seq, [ew[k] for k in edge_seq])

    for v in range(n):
        if deg[v] == 1 and any(not consumed[k] for k in adj[v]):
            commit(solve(walk_from(v))[1])
    for v in range(n):
        if deg[v] == 2 and any(not consumed[k] for k in adj[v]):
            cyc = walk_from(v)
            # delete one of two adjacent edges; every cycle matching misses one
            opt_a = solve(cyc[1:])
            opt_b = solve(cyc[2:] + cyc[:1])
            commit(opt_a[1] if opt_a[0] >= opt_b[0] else opt_b[1])

    # maximality sweep: the path/cycle optimum may leave addable edges behind
    for k in descending_key_order(g, seed).tolist():
        u, v = eu[k], ev[k]
        if mate[u] == -1 and mate[v] == -1:
            mate[u] = v
            mate[v] = u
            matched.append(k)

    trace = PhaseTrace([RoundStats(g.num_edges, len(matched), g.num_edges)])
    trace.wall_millis = (time.perf_counter() - t0) * 1000.0
    return matching_from_edge_ids(g, matched), trace
