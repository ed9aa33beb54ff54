"""Immutable adjacency-array graph representation and matching containers.

A graph is its edge columns (endpoints and weights). Its adjacency arrays,
computed on first read, give each vertex a contiguous range of incidence
slots, each slot recording (owning vertex, edge id) and each edge owning one
slot per endpoint: the layout the PRAM model's segmented operations use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph with nonnegative real edge weights.

    Owns the int64 endpoint and float64 weight columns of valid, deduplicated
    edges, made read-only; the adjacency arrays are computed on first read,
    cached and read-only. Safe to share: racing first reads compute equal arrays.
    """

    num_vertices: int
    edge_u: np.ndarray       # (m,) int64
    edge_v: np.ndarray       # (m,) int64
    edge_weight: np.ndarray  # (m,) float64

    def __post_init__(self) -> None:
        for column in (self.edge_u, self.edge_v, self.edge_weight):
            column.setflags(write=False)

    @cached_property
    def offsets(self) -> np.ndarray:
        """(n+1,) int64; offsets[v]..offsets[v+1] are v's slots (degree prefix sums)."""
        n = self.num_vertices
        degree = np.bincount(self.edge_u, minlength=n) + np.bincount(self.edge_v, minlength=n)
        return _frozen(np.concatenate(([0], np.cumsum(degree))))

    @property
    def slot_vertex(self) -> np.ndarray:
        """(2m,) int64; the owning vertex of each slot, ascending."""
        return self._slots[0]

    @property
    def slot_edge(self) -> np.ndarray:
        """(2m,) int64; the edge id of each slot, ascending within a vertex's slots."""
        return self._slots[1]

    @cached_property
    def _slots(self) -> tuple[np.ndarray, np.ndarray]:
        # one sort of (vertex, edge id) packed into a single key, then the key's
        # quotient and, in place, its remainder (faster than np.divmod)
        d, eid = max(self.num_edges, 1), np.arange(self.num_edges, dtype=np.int64)
        slot_edge = np.concatenate([self.edge_u, self.edge_v]) * d + np.concatenate([eid, eid])
        slot_edge.sort()
        slot_vertex = slot_edge // d
        slot_edge -= slot_vertex * d
        return _frozen(slot_vertex), _frozen(slot_edge)

    @property
    def num_edges(self) -> int:
        return int(self.edge_u.size)

    def endpoints(self, edge_id: int) -> tuple[int, int]:
        return int(self.edge_u[edge_id]), int(self.edge_v[edge_id])


def build_graph(
    edge_list: Iterable[tuple[int, int, float]],
    num_vertices: int | None = None,
) -> Graph:
    """Build an adjacency-array graph from (u, v, weight) triples.

    Same rules and errors as :func:`build_graph_arrays`, which it calls.
    """
    triples = list(edge_list)
    u, v, w = zip(*triples) if triples else ((), (), ())
    return build_graph_arrays(u, v, w, num_vertices)


# The largest pair key is n*n - 1 and the largest slot key n*m - 1, so both
# fit in int64 while n*n and n*m are at most 2**63.
_KEY_LIMIT = 2**63


def build_graph_arrays(u, v, w, num_vertices: int | None = None) -> Graph:
    """Build an adjacency-array graph from parallel endpoint and weight arrays.

    Self-loops are dropped. Among parallel edges only the heaviest is kept
    (ties resolved toward the earlier input position), with the orientation
    of the kept entry; edges are numbered by first occurrence of their pair.
    Vertex ids must lie in [0, num_vertices); when ``num_vertices`` is
    omitted it is inferred as max id + 1 over the non-loop edges.

    Raises ValueError for negative or out-of-range ids and NaN, infinite or
    negative weights, naming the first offending input position, and for a
    vertex or edge count whose int64 sort keys (n*n for vertex pairs, n*m
    for slots) would overflow; that check precedes every n-length array.
    """
    u = np.array(u, dtype=np.int64)
    v = np.array(v, dtype=np.int64)
    w = np.array(w, dtype=np.float64)
    if u.ndim != 1 or u.shape != v.shape or u.shape != w.shape:
        raise ValueError("u, v and w must be 1-d arrays of equal length")
    bad = (u < 0) | (v < 0) | ~(w >= 0.0) | (w == np.inf)
    if num_vertices is not None:
        bad |= (u >= num_vertices) | (v >= num_vertices)
    if bad.any():
        _raise_bad_edge(int(np.argmax(bad)), u, v, w, num_vertices)
    loop = u == v
    if loop.any():  # self-loops can never be matched
        u, v, w = u[~loop], v[~loop], w[~loop]
    if num_vertices is not None:
        n = int(num_vertices)  # a Python int, so the key checks below cannot wrap
    else:
        n = int(max(u.max(), v.max())) + 1 if u.size else 0
    if n * n > _KEY_LIMIT:
        raise ValueError(f"n={n} vertices is too many: vertex-pair keys need n*n <= 2**63")

    # Group the entries by vertex pair; the stable sort keeps each group in
    # input order, so its first entry is the pair's first occurrence.
    pair = np.minimum(u, v) * n + np.maximum(u, v)
    order = np.argsort(pair, kind="stable")
    pair = pair[order]
    head = np.flatnonzero(np.concatenate(([True], pair[1:] != pair[:-1])))
    if head.size < order.size:
        sizes = np.diff(np.append(head, order.size))
        group = np.repeat(np.arange(head.size), sizes)
        ws = w[order]
        heaviest = np.flatnonzero(ws == np.maximum.reduceat(ws, head)[group])
        # the earliest heaviest entry of each group wins
        firsts = heaviest[np.concatenate(([True], group[heaviest[1:]] != group[heaviest[:-1]]))]
        # number the winners by their group's first occurrence
        by_first = np.full(u.size, -1, dtype=np.int64)
        by_first[order[head]] = order[firsts]
        keep = by_first.compress(by_first >= 0)
        u, v, w = u[keep], v[keep], w[keep]
    if n * u.size > _KEY_LIMIT:
        raise ValueError(f"n={n} vertices and m={u.size} edges are too many: "
                         "slot keys need n*m <= 2**63")
    return Graph(n, u, v, w)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _raise_bad_edge(pos: int, u: np.ndarray, v: np.ndarray, w: np.ndarray,
                    num_vertices: int | None) -> None:
    ui, vi, wf = int(u[pos]), int(v[pos]), float(w[pos])
    if ui < 0 or vi < 0:
        raise ValueError(f"edge {pos}: negative vertex id ({ui}, {vi})")
    if num_vertices is not None and (ui >= num_vertices or vi >= num_vertices):
        raise ValueError(
            f"edge {pos}: vertex id out of range for n={num_vertices}: ({ui}, {vi})"
        )
    raise ValueError(f"edge {pos}: weight must be finite and >= 0, got {wf!r}")


def assert_graph_invariants(g: Graph) -> None:
    """Raise ValueError unless the adjacency-array layout is fully consistent.

    Checks the offset monotonicity, the slot/edge cross-referencing (each
    edge id in exactly two slots, whose lowest and highest owners, by
    per-edge min and max reductions, are its endpoints), simplicity and the
    weight domain, reading (so computing) the layout. Used by tests and by
    the PRAM engine's checked mode on its input.
    """
    n, m = g.num_vertices, g.num_edges
    if g.offsets.shape != (n + 1,):
        raise ValueError("offsets must have length n+1")
    if g.offsets[0] != 0 or g.offsets[-1] != 2 * m:
        raise ValueError("offsets must start at 0 and end at 2m")
    if np.any(np.diff(g.offsets) < 0):
        raise ValueError("offsets must be nondecreasing")
    if g.slot_vertex.shape != (2 * m,) or g.slot_edge.shape != (2 * m,):
        raise ValueError("slot arrays must have length 2m")
    expect_owner = np.repeat(np.arange(n, dtype=np.int64), np.diff(g.offsets))
    if not np.array_equal(g.slot_vertex, expect_owner):
        raise ValueError("slot_vertex disagrees with the offsets segmentation")
    if m:
        if g.slot_edge.min() < 0 or g.slot_edge.max() >= m:
            raise ValueError("slot_edge references an edge id out of range")
        counts = np.bincount(g.slot_edge, minlength=m)
        if not np.all(counts == 2):
            raise ValueError("every edge id must appear in exactly two slots")
        low, high = np.full(m, n, dtype=np.int64), np.full(m, -1, dtype=np.int64)
        np.minimum.at(low, g.slot_edge, g.slot_vertex)
        np.maximum.at(high, g.slot_edge, g.slot_vertex)
        if not (np.array_equal(low, np.minimum(g.edge_u, g.edge_v))
                and np.array_equal(high, np.maximum(g.edge_u, g.edge_v))):
            raise ValueError("slot owners disagree with edge endpoints")
        # the owners lie in [0, n), so now the endpoints do too
        if np.any(g.edge_u == g.edge_v):
            raise ValueError("self-loop present")
        packed = low * n + high
        if np.unique(packed).size != m:
            raise ValueError("duplicate edge pair present")
        if np.any(~np.isfinite(g.edge_weight)) or np.any(g.edge_weight < 0):
            raise ValueError("weights must be finite and >= 0")


@dataclass(frozen=True, eq=False)
class Matching:
    """Matched edge ids with the induced per-vertex mate table.

    ``edges`` is stored as an ascending, read-only int64 array, whatever
    order the ids are given in. ``mate[v]`` is the partner vertex of v, or
    -1 when v is unmatched.
    """

    edges: np.ndarray  # (|M|,) int64, ascending
    mate: np.ndarray   # (n,) int64

    def __post_init__(self) -> None:
        edges = np.sort(np.asarray(self.edges, dtype=np.int64))
        object.__setattr__(self, "edges", _frozen(edges))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matching):
            return NotImplemented
        return np.array_equal(self.edges, other.edges) and np.array_equal(self.mate, other.mate)

    def __hash__(self) -> int:
        return hash(self.edges.tobytes())

    @property
    def size(self) -> int:
        return int(self.edges.size)

    def weight(self, g: Graph) -> float:
        """The matched weight, added in ascending edge id order."""
        return float(g.edge_weight[self.edges].sum())


def matching_from_edge_ids(g: Graph, edge_ids) -> Matching:
    """Assemble a Matching from an array of edge ids assumed pairwise
    vertex-disjoint."""
    ids = np.asarray(edge_ids, dtype=np.int64)
    return Matching(ids, _frozen(_induced_mate(g, ids)))


def _induced_mate(g: Graph, ids: np.ndarray) -> np.ndarray:
    mate = np.full(g.num_vertices, -1, dtype=np.int64)
    u, v = g.edge_u[ids], g.edge_v[ids]
    mate[u] = v
    mate[v] = u
    return mate


class MatchingCheck(NamedTuple):
    valid: bool
    maximal: bool
    detail: str


def validate_matching(g: Graph, m: Matching) -> MatchingCheck:
    """Diagnostic validation; never raises.

    ``valid`` holds when the edge set is pairwise vertex-disjoint and the
    mate table is exactly the one induced by it. ``maximal`` additionally
    requires that no remaining edge has both endpoints unmatched. The
    detail of an invalid matching names its first failing edge, in
    ascending id order.
    """
    n = g.num_vertices
    if m.mate.shape != (n,):
        return MatchingCheck(False, False, "mate table has wrong length")
    ids = m.edges
    if ids.size == 0 or (ids[0] >= 0 and ids[-1] < g.num_edges):
        induced = _induced_mate(g, ids)
        free = induced < 0
        # disjoint edges cover exactly two vertices each
        if n - np.count_nonzero(free) == 2 * ids.size and np.array_equal(induced, m.mate):
            return MatchingCheck(True, not np.any(free[g.edge_u] & free[g.edge_v]), "")
    return MatchingCheck(False, False, _first_fault(g, m.mate, ids))


def undominated_edges(g: Graph, m: Matching) -> int:
    """Count the edges heavier than the matched edge at both their endpoints
    (weight 0 at an unmatched endpoint). 0 means the matching is locally
    dominant: the matched weight at each vertex is then a feasible dual of
    the fractional matching LP with value 2 w(M), which certifies
    w(M) >= OPT/2 (Preis 1999). Shares no code with any matcher."""
    at = np.zeros(g.num_vertices)
    ids = m.edges
    at[g.edge_u[ids]] = at[g.edge_v[ids]] = g.edge_weight[ids]
    w = g.edge_weight
    return int(np.count_nonzero((w > at[g.edge_u]) & (w > at[g.edge_v])))


def _first_fault(g: Graph, mate: np.ndarray, ids: np.ndarray) -> str:
    """Describe what makes ``ids`` with ``mate`` an invalid matching, checking
    edge by edge (id range, shared vertex, mate entries) and then the mate
    entries of unmatched vertices."""
    out_of_range = (ids < 0) | (ids >= g.num_edges)
    stop = int(np.argmax(out_of_range)) if out_of_range.any() else ids.size
    u, v = g.edge_u[ids[:stop]], g.edge_v[ids[:stop]]
    ends = np.stack([u, v], axis=1).ravel()
    # the first position holding a vertex's second appearance
    by_vertex = np.argsort(ends, kind="stable")
    reused = by_vertex[1:][ends[by_vertex[1:]] == ends[by_vertex[:-1]]]
    shared_at = int(reused.min()) // 2 if reused.size else stop
    disagree = (mate[u] != v) | (mate[v] != u)
    mate_at = int(np.argmax(disagree)) if disagree.any() else stop
    first = min(stop, shared_at, mate_at)
    if first == ids.size:
        return "mate entry set for an unmatched vertex"
    k = int(ids[first])
    if first == stop:
        return f"edge id {k} out of range"
    if first == shared_at:
        return f"vertex shared by two matched edges (edge {k})"
    return f"mate table disagrees with matched edge {k}"
