"""Sequential matchers: local max, greedy, GPA, HEM and red-blue (RBM).

Every matcher returns a (Matching, PhaseTrace) pair and produces a maximal
matching. Each one, and each engine of :mod:`locmax.pram` and
:mod:`locmax.bsp`, is a generator of rounds that :func:`_drive` runs. All
tie breaking goes through the shared (weight, salt, id) key order from
:mod:`locmax.tiebreak`, which is what makes the PRAM and bulk-synchronous
engines reproduce the sequential local max result exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .graph import Graph, Matching, matching_from_edge_ids
from .tiebreak import _new_candidates, _raise_candidates, _reset_candidates
from .tiebreak import edge_salts, round_seed, vertex_coins, weight_bits

#: One round of an engine: live edges before it, the edge ids it matched,
#: and live edges after it.
Rounds = Iterator[tuple[int, np.ndarray, int]]


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

    def mean_removed_fraction(self) -> float:
        fr = self.removed_fractions()
        return sum(fr) / len(fr) if fr else 0.0


def _drive(g: Graph, rounds: Rounds,
           trace: PhaseTrace | None = None) -> tuple[Matching, PhaseTrace]:
    """Run an engine to completion: the round driver of every matcher.

    ``rounds`` is the engine's generator. Its body runs only as the driver
    draws rounds, so the engine's set-up falls inside the timed span. One
    ``RoundStats`` is appended to ``trace`` per round, and the matched ids
    of all rounds make the Matching.
    """
    trace = PhaseTrace() if trace is None else trace
    t0 = time.perf_counter()
    parts = [np.empty(0, dtype=np.int64)]
    for before, new_edges, after in rounds:
        parts.append(new_edges)
        trace.rounds.append(RoundStats(before, new_edges.size, before - after))
    trace.wall_millis = (time.perf_counter() - t0) * 1000.0
    return matching_from_edge_ids(g, np.concatenate(parts)), trace


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
    live = np.arange(g.num_edges, dtype=np.int64)
    return _drive(g, _local_max_rounds(g, live, seed, rerandomize))


def _local_max_rounds(g: Graph, live: np.ndarray, seed: int, rerandomize: bool) -> Rounds:
    """Local max on the edges ``live`` of ``g``.

    Weight bits are gathered once and filtered with the live set, and so
    are the salts unless ``rerandomize`` draws new ones every round.
    """
    cand = _new_candidates(g.num_vertices)
    vertex_matched = np.zeros(g.num_vertices, dtype=bool)
    wbits = weight_bits(g.edge_weight[live])
    salts = edge_salts(round_seed(seed, 0), live)
    round_index = 0
    while live.size:
        us = g.edge_u[live]
        vs = g.edge_v[live]
        # pass 1: lexicographic max per endpoint
        cand_id = _raise_candidates(cand, ((us, wbits, salts, live), (vs, wbits, salts, live)))
        # pass 2: an edge wins iff it is the candidate at both endpoints
        won = (cand_id[us] == live) & (cand_id[vs] == live)
        vertex_matched[us[won]] = True
        vertex_matched[vs[won]] = True
        # pass 3: drop edges with a matched endpoint, reset survivors' candidates
        alive = ~(vertex_matched[us] | vertex_matched[vs])
        _reset_candidates(cand, us[alive], vs[alive])
        yield live.size, live[won], int(np.count_nonzero(alive))
        live, wbits = live[alive], wbits[alive]
        round_index += 1
        salts = edge_salts(round_seed(seed, round_index), live) if rerandomize else salts[alive]


def _fixed_key_matching(g: Graph, live: np.ndarray, seed: int) -> np.ndarray:
    """Greedy matching of the edges ``live``, as local max with fixed keys.

    An edge heaviest at both endpoints under the round-0 (weight, salt, id)
    order is taken by the descending-key scan too (locally dominant edges,
    Preis 1999), so the rounds match exactly the edges the scan would.
    """
    parts = [new for _, new, _ in _local_max_rounds(g, live, seed, False)]
    return np.concatenate([np.empty(0, dtype=np.int64), *parts])


def greedy(g: Graph, seed: int) -> tuple[Matching, PhaseTrace]:
    """Match edges by decreasing round-0 key whenever both endpoints are free.

    Computed as local max with fixed keys; the trace reports it as one pass
    over all edges.
    """
    return _drive(g, _greedy_pass(g, seed))


def _greedy_pass(g: Graph, seed: int) -> Rounds:
    all_edges = np.arange(g.num_edges, dtype=np.int64)
    yield g.num_edges, _fixed_key_matching(g, all_edges, seed), 0


def _descending_key_order(g: Graph, seed: int) -> np.ndarray:
    """Edge ids by decreasing round-0 (weight, salt, id) key: a weight sort
    in which only the runs of equal weights are sorted again by full key."""
    w = g.edge_weight
    order = np.argsort(w)
    tie = w[order[1:]] == w[order[:-1]]
    in_run = np.zeros(w.size, dtype=bool)
    in_run[1:] = tie
    in_run[:-1] |= tie
    at = np.flatnonzero(in_run)
    ids = order[at]
    order[at] = ids[np.lexsort((ids, edge_salts(round_seed(seed, 0), ids), w[ids]))]
    return order[::-1]


def _path_dp(edge_seq: list[int], ew: list[float]) -> tuple[float, list[int]]:
    """Max-weight matching of a path given its edges in order."""
    k = len(edge_seq)
    best = [0.0] * (k + 1)
    take = [False] * (k + 1)
    for i in range(1, k + 1):
        with_edge = (best[i - 2] if i >= 2 else 0.0) + ew[edge_seq[i - 1]]
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
    subgraph while it keeps maximum degree two and no odd cycle. Every
    component of that subgraph is a path or a cycle, so the only table
    needed is, at each path end, the other end and the parity of the path
    length: an edge joining the two ends of one path closes a cycle, which
    is even iff the path is odd. Paths are solved by the classic skip/take
    recurrence and even cycles by the better of the two paths obtained by
    deleting either of two adjacent edges. A final greedy sweep over the
    edges with both endpoints still free restores maximality, which the
    path solving alone does not guarantee. The trace reports one pass.
    """
    return _drive(g, _gpa_pass(g, seed))


def _gpa_pass(g: Graph, seed: int) -> Rounds:
    n = g.num_vertices
    order = _descending_key_order(g, seed)
    ends = (g.edge_u ^ g.edge_v).tolist()  # ends[k] ^ v is the far end of edge k at v
    ew = g.edge_weight.tolist()

    deg = [0] * n
    slot = [-1] * (2 * n)  # accepted edges of v at 2v and 2v+1, in acceptance order
    end = list(range(n))  # at a path end: the other end of its path
    odd = [0] * n  # at a path end: the parity of its path's length
    for k, u, v in zip(order.tolist(), g.edge_u[order].tolist(), g.edge_v[order].tolist()):
        du, dv = deg[u], deg[v]
        if du == 2 or dv == 2:
            continue
        a = end[u]
        if a == v:  # closes a cycle of length |path| + 1
            if not odd[u]:
                continue
        else:
            b = end[v]
            end[a] = b
            end[b] = a
            odd[a] = odd[b] = odd[u] ^ odd[v] ^ 1
        slot[2 * u + du] = k
        slot[2 * v + dv] = k
        deg[u] = du + 1
        deg[v] = dv + 1

    # decompose into open paths and (even) cycles, each walked from its
    # smallest vertex along that vertex's first accepted edge
    seen = [False] * n
    matched: list[int] = []

    def walk(v: int) -> list[int]:
        start, k, seq = v, slot[2 * v], []
        seen[v] = True
        while True:
            seq.append(k)
            v = ends[k] ^ v
            seen[v] = True
            if deg[v] == 1 or v == start:
                return seq
            k = slot[2 * v + 1] if slot[2 * v] == k else slot[2 * v]

    for v in range(n):
        if deg[v] == 1 and not seen[v]:
            matched += _path_dp(walk(v), ew)[1]
    for v in range(n):
        if deg[v] == 2 and not seen[v]:
            cyc = walk(v)
            # delete one of two adjacent edges; every cycle matching misses one
            opt_a = _path_dp(cyc[1:], ew)
            opt_b = _path_dp(cyc[2:] + cyc[:1], ew)
            matched += opt_a[1] if opt_a[0] >= opt_b[0] else opt_b[1]

    # maximality sweep: the path/cycle optimum may leave addable edges behind
    solved = np.array(matched, dtype=np.int64)
    covered = np.zeros(n, dtype=bool)
    covered[g.edge_u[solved]] = True
    covered[g.edge_v[solved]] = True
    free = np.flatnonzero(~(covered[g.edge_u] | covered[g.edge_v]))
    yield g.num_edges, np.concatenate([solved, _fixed_key_matching(g, free, seed)]), 0


def hem(g: Graph, seed: int) -> tuple[Matching, PhaseTrace]:
    """Heavy edge matching: one pass over the vertices in input order, each
    grabbing its heaviest free incident edge."""
    return _drive(g, _hem_pass(g, seed, range(g.num_vertices)))


def hem_random(g: Graph, seed: int) -> tuple[Matching, PhaseTrace]:
    """HEM visiting the vertices in seeded random order."""
    order = np.random.default_rng(seed).permutation(g.num_vertices).tolist()
    return _drive(g, _hem_pass(g, seed, order))


def _hem_pass(g: Graph, seed: int, order) -> Rounds:
    """HEM's one pass, visiting the vertices in ``order``."""
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
    yield g.num_edges, np.array(matched, dtype=np.int64), 0


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
    return _drive(g, _rbm_rounds(g, seed))


def _rbm_rounds(g: Graph, seed: int) -> Rounds:
    n = g.num_vertices
    prop = _new_candidates(n)   # heaviest outgoing proposal per blue vertex
    acc = _new_candidates(n)    # heaviest incoming proposal per red vertex
    vertex_matched = np.zeros(n, dtype=bool)
    live = np.arange(g.num_edges, dtype=np.int64)
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
        vertex_matched[us[won]] = True
        vertex_matched[vs[won]] = True
        alive = ~(vertex_matched[us] | vertex_matched[vs])
        for cand in (prop, acc):
            _reset_candidates(cand, us[alive], vs[alive])
        yield live.size, live[won], int(np.count_nonzero(alive))
        live = live[alive]
        round_index += 1


MATCHERS: dict[str, Callable[[Graph, int], tuple[Matching, PhaseTrace]]] = {
    "localmax": local_max_seq,
    "greedy": greedy,
    "gpa": gpa,
    "hem": hem,
    "hem-random": hem_random,
    "rbm": rbm,
}
