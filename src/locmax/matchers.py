"""Sequential matchers: local max, greedy, GPA, HEM and red-blue (RBM).

Every matcher returns a (Matching, PhaseTrace) pair and produces a maximal
matching. All tie breaking goes through the shared (weight, salt, id) key
order from :mod:`locmax.tiebreak`, which is what makes the PRAM and
bulk-synchronous engines reproduce the sequential local max result exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .graph import Graph, Matching, matching_from_edge_ids
from .tiebreak import _new_candidates, _raise_candidates, _reset_candidates
from .tiebreak import edge_salts, round_seed, vertex_coins, weight_bits


@dataclass(frozen=True)
class RoundStats:
    edges_before: int
    edges_matched: int
    edges_removed: int


@dataclass
class PhaseTrace:
    """Per-round bookkeeping common to all engines.

    ``messages`` is filled by the bulk-synchronous engine, ``slot_ops`` and
    ``write_log`` by the PRAM engine; they stay None elsewhere.
    """

    rounds: list[RoundStats] = field(default_factory=list)
    wall_millis: float = 0.0
    messages: list | None = None
    slot_ops: int | None = None
    write_log: object | None = None

    @property
    def total_rounds(self) -> int:
        return len(self.rounds)

    def removed_fractions(self) -> list[float]:
        return [r.edges_removed / r.edges_before for r in self.rounds if r.edges_before]

    def survivor_fractions(self) -> list[float]:
        return [
            (r.edges_before - r.edges_removed) / r.edges_before
            for r in self.rounds
            if r.edges_before
        ]

    def mean_removed_fraction(self) -> float:
        fr = self.removed_fractions()
        return sum(fr) / len(fr) if fr else 0.0


def local_max_seq(g: Graph, seed: int, rerandomize: bool = True) -> tuple[Matching, PhaseTrace]:
    """Repeatedly match every edge that is heaviest at both its endpoints.

    Each round makes three passes over the surviving edges: pass 1 raises
    per-vertex candidates to the heaviest incident edge, pass 2 matches
    edges that are the candidate of both endpoints, pass 3 drops edges with
    a matched endpoint and resets the candidates of surviving endpoints to
    the dummy. Candidates are allocated once up front; rounds touch only
    surviving edges (no sorting, no vertex scans), so total work stays
    linear under geometric shrinkage.

    Pass 1 is the staged (weight, salt, id) maximum of
    :func:`_raise_candidates`, so pass 2 is an id comparison at both
    endpoints.
    """
    t0 = time.perf_counter()
    trace = PhaseTrace()
    cand = _new_candidates(g.num_vertices)
    vertex_matched = np.zeros(g.num_vertices, dtype=bool)
    live = np.arange(g.num_edges, dtype=np.int64)
    matched_parts: list[np.ndarray] = []
    round_index = 0
    while live.size:
        rs = round_seed(seed, round_index, rerandomize)
        wbits = weight_bits(g.edge_weight[live])
        salts = edge_salts(rs, live)
        us = g.edge_u[live]
        vs = g.edge_v[live]
        # pass 1: lexicographic max per endpoint
        cand_id = _raise_candidates(cand, ((us, wbits, salts, live), (vs, wbits, salts, live)))
        # pass 2: an edge wins iff it is the candidate at both endpoints
        won = (cand_id[us] == live) & (cand_id[vs] == live)
        new_edges = live[won]
        matched_parts.append(new_edges)
        vertex_matched[us[won]] = True
        vertex_matched[vs[won]] = True
        # pass 3: drop edges with a matched endpoint, reset survivors' candidates
        alive = ~(vertex_matched[us] | vertex_matched[vs])
        _reset_candidates(cand, us[alive], vs[alive])
        survivors = live[alive]
        trace.rounds.append(RoundStats(live.size, new_edges.size, live.size - survivors.size))
        live = survivors
        round_index += 1
    matched = np.concatenate(matched_parts) if matched_parts else np.empty(0, dtype=np.int64)
    trace.wall_millis = (time.perf_counter() - t0) * 1000.0
    return matching_from_edge_ids(g, matched), trace


def _descending_key_order(g: Graph, seed: int) -> np.ndarray:
    ids = np.arange(g.num_edges, dtype=np.int64)
    salts = edge_salts(round_seed(seed, 0), ids)
    return np.lexsort((ids, salts, g.edge_weight))[::-1]


def greedy(g: Graph, seed: int) -> tuple[Matching, PhaseTrace]:
    """Scan edges by decreasing key, matching those with both endpoints free."""
    t0 = time.perf_counter()
    mate = [-1] * g.num_vertices
    eu = g.edge_u.tolist()
    ev = g.edge_v.tolist()
    matched: list[int] = []
    for k in _descending_key_order(g, seed).tolist():
        u, v = eu[k], ev[k]
        if mate[u] == -1 and mate[v] == -1:
            mate[u] = v
            mate[v] = u
            matched.append(k)
    trace = PhaseTrace([RoundStats(g.num_edges, len(matched), g.num_edges)])
    trace.wall_millis = (time.perf_counter() - t0) * 1000.0
    return matching_from_edge_ids(g, matched), trace


class _ParityUnionFind:
    """Union-find tracking each vertex's path parity to its root.

    parity(u) xor parity(v) is the parity of the u-v path inside the
    degree-<=2 forest, which is all that is needed to tell an odd cycle
    (same parity) from an even one (different parity).
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
        # path compression, re-anchoring parities at the root
        while self.parent[x] != root:
            nxt = self.parent[x]
            nxt_par = par ^ self.parity[x]
            self.parent[x] = root
            self.parity[x] = par
            x = nxt
            par = nxt_par
        return root, par

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


def _path_dp(edge_seq: list[int], weights: list[float]) -> tuple[float, list[int]]:
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


def gpa(g: Graph, seed: int) -> tuple[Matching, PhaseTrace]:
    """Global path algorithm: grow paths and even cycles, then solve them.

    Edges are scanned by decreasing key and accepted into an auxiliary
    subgraph while it keeps maximum degree two and no odd cycle (parity
    union-find); paths are solved by the classic skip/take recurrence and
    even cycles by the better of the two paths obtained by deleting either
    of two adjacent edges. A final greedy sweep over the remaining edges
    restores maximality, which the path solving alone does not guarantee.
    """
    t0 = time.perf_counter()
    n = g.num_vertices
    order = _descending_key_order(g, seed)
    eu = g.edge_u.tolist()
    ev = g.edge_v.tolist()
    ew = g.edge_weight.tolist()

    uf = _ParityUnionFind(n)
    deg = [0] * n
    adj: list[list[int]] = [[] for _ in range(n)]  # accepted edges, <= 2 per vertex
    accepted: list[int] = []
    for k in order.tolist():
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
        adj[u].append(k)
        adj[v].append(k)
        accepted.append(k)

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

    for v in range(n):
        if deg[v] == 1 and any(not consumed[k] for k in adj[v]):
            _, chosen = _path_dp(*_with_weights(walk_from(v), ew))
            commit(chosen)
    for v in range(n):
        if deg[v] == 2 and any(not consumed[k] for k in adj[v]):
            cyc = walk_from(v)
            # delete one of two adjacent edges; every cycle matching misses one
            opt_a = _path_dp(*_with_weights(cyc[1:], ew))
            opt_b = _path_dp(*_with_weights(cyc[2:] + cyc[:1], ew))
            commit(opt_a[1] if opt_a[0] >= opt_b[0] else opt_b[1])

    # maximality sweep: the path/cycle optimum may leave addable edges behind
    for k in order.tolist():
        u, v = eu[k], ev[k]
        if mate[u] == -1 and mate[v] == -1:
            mate[u] = v
            mate[v] = u
            matched.append(k)

    trace = PhaseTrace([RoundStats(g.num_edges, len(matched), g.num_edges)])
    trace.wall_millis = (time.perf_counter() - t0) * 1000.0
    return matching_from_edge_ids(g, matched), trace


def _with_weights(edge_seq: list[int], ew: list[float]) -> tuple[list[int], list[float]]:
    return edge_seq, [ew[k] for k in edge_seq]


def hem(g: Graph, seed: int, randomize_order: bool = False) -> tuple[Matching, PhaseTrace]:
    """Heavy edge matching: one pass over vertices, each grabbing its
    heaviest free incident edge.

    Vertices are visited in input order, or in a seeded shuffle when
    ``randomize_order`` is set.
    """
    t0 = time.perf_counter()
    n = g.num_vertices
    if randomize_order:
        order = np.random.default_rng(seed).permutation(n).tolist()
    else:
        order = range(n)
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


def hem_random(g: Graph, seed: int) -> tuple[Matching, PhaseTrace]:
    """HEM visiting the vertices in seeded random order."""
    return hem(g, seed, randomize_order=True)


class RbmDidNotConverge(RuntimeError):
    pass


def rbm(g: Graph, seed: int) -> tuple[Matching, PhaseTrace]:
    """Red-blue matching: randomized propose/accept rounds.

    Each round every live vertex flips a fair coin; blue vertices propose
    along their heaviest edge to a red neighbour, red vertices accept their
    heaviest incoming proposal, accepted pairs are matched and their edges
    removed. Coins and salts are renewed every round. This is an
    interpretation of the red-blue scheme (the original is specified
    elsewhere); quality numbers are indicative, not a reference.
    """
    t0 = time.perf_counter()
    n = g.num_vertices
    trace = PhaseTrace()
    prop = _new_candidates(n)   # heaviest outgoing proposal per blue vertex
    acc = _new_candidates(n)    # heaviest incoming proposal per red vertex
    vertex_matched = np.zeros(n, dtype=bool)
    live = np.arange(g.num_edges, dtype=np.int64)
    matched_parts: list[np.ndarray] = []
    round_index = 0
    max_rounds = 10_000
    while live.size:
        if round_index >= max_rounds:
            raise RbmDidNotConverge(f"no progress after {max_rounds} rounds")
        rs = round_seed(seed, round_index, rerandomize=True)
        wbits = weight_bits(g.edge_weight[live])
        salts = edge_salts(rs, live)
        us = g.edge_u[live]
        vs = g.edge_v[live]
        blue_u = vertex_coins(rs, us)
        blue_v = vertex_coins(rs, vs)
        fwd = blue_u & ~blue_v   # u may propose along this edge
        bwd = blue_v & ~blue_u

        def offer(*sides):  # each side: the vertex column and the edges it offers
            return [(ends[sel], wbits[sel], salts[sel], live[sel]) for ends, sel in sides]

        prop_id = _raise_candidates(prop, offer((us, fwd), (vs, bwd)))
        prop_fwd = fwd & (prop_id[us] == live)
        prop_bwd = bwd & (prop_id[vs] == live)
        acc_id = _raise_candidates(acc, offer((vs, prop_fwd), (us, prop_bwd)))
        won = (prop_fwd & (acc_id[vs] == live)) | (prop_bwd & (acc_id[us] == live))
        new_edges = live[won]
        matched_parts.append(new_edges)
        vertex_matched[us[won]] = True
        vertex_matched[vs[won]] = True
        alive = ~(vertex_matched[us] | vertex_matched[vs])
        for cand in (prop, acc):
            _reset_candidates(cand, us[alive], vs[alive])
        survivors = live[alive]
        trace.rounds.append(RoundStats(live.size, new_edges.size, live.size - survivors.size))
        live = survivors
        round_index += 1
    matched = np.concatenate(matched_parts) if matched_parts else np.empty(0, dtype=np.int64)
    trace.wall_millis = (time.perf_counter() - t0) * 1000.0
    return matching_from_edge_ids(g, matched), trace


MATCHERS: dict[str, Callable[[Graph, int], tuple[Matching, PhaseTrace]]] = {
    "localmax": local_max_seq,
    "greedy": greedy,
    "gpa": gpa,
    "hem": hem,
    "hem-random": hem_random,
    "rbm": rbm,
}
