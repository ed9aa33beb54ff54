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
import weakref
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator

import numpy as np

from .graph import Graph, Matching, matching_from_edge_ids
from .tiebreak import _deciding_bits, _new_candidates, _raise_candidates, _reset_candidates
from .tiebreak import edge_salts, round_seed, vertex_coins

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

    def mean_removed_fraction(self) -> float:
        fr = [r.edges_removed / r.edges_before for r in self.rounds if r.edges_before]
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
    edges that are the candidate of both endpoints (both are
    :func:`_local_max_round`, pram's round too), pass 3 drops edges with a
    matched endpoint and resets the candidates of surviving endpoints to
    the dummy. Candidates are allocated once up front; rounds touch only
    surviving edges (no sorting, no vertex scans), so total work stays
    linear under geometric shrinkage.
    """
    return _drive(g, _local_max_rounds(g, seed, rerandomize))


def _local_max_round(cand, vertex_matched, us, vs, wbits, salts):
    """The round of seq, bsp and pram over the live edges ``(us, vs)``: the
    edges that :func:`_raise_candidates` returns as winners at both ends,
    whose endpoints it marks in ``vertex_matched``, and the mask of the
    edges with a matched endpoint."""
    won = _raise_candidates(cand, (us, vs), wbits, salts)
    vertex_matched[us[won]] = True
    vertex_matched[vs[won]] = True
    return won, vertex_matched[us] | vertex_matched[vs]


def _local_max_rounds(g: Graph, seed: int, rerandomize: bool) -> Rounds:
    """Local max on all edges of ``g``: the rounds of both ``local_max_seq``
    and ``bsp_local_max``, which adds its message ledger around them.

    Endpoints and weight bits are gathered once and filtered with the live
    set, and so are the salts unless ``rerandomize`` draws new ones every
    round. Each round is :func:`_local_max_round` on the survivors; when
    all weights are equal, no round runs the kernel's weight stage. Round 1
    runs on all edges, whose positions are their input ids, so it needs no
    id array; ``live``, the survivors' input ids, starts after it.
    """
    live = None  # the input numbering
    before = g.num_edges
    us, vs = g.edge_u, g.edge_v
    cand = _new_candidates(g.num_vertices)
    vertex_matched = np.zeros(g.num_vertices, dtype=bool)
    wbits = _deciding_bits(g.edge_weight)
    salts = edge_salts(round_seed(seed, 0), np.arange(before))
    round_index = 0
    while before:
        won, dead = _local_max_round(cand, vertex_matched, us, vs, wbits, salts)
        if not won.size:
            raise RuntimeError(f"seq: round {round_index} matched none of {before} live edges")
        # pass 3: drop edges with a matched endpoint, reset survivors' candidates
        alive = np.flatnonzero(~dead)
        yield before, won if live is None else live[won], alive.size
        if not alive.size:
            return
        live = alive if live is None else live[alive]
        us, vs, wbits, before = us[alive], vs[alive], _take(wbits, alive), alive.size
        _reset_candidates(cand, us, vs)
        round_index += 1
        salts = edge_salts(round_seed(seed, round_index), live) if rerandomize else salts[alive]


def _take(wbits: np.ndarray | None, at: np.ndarray) -> np.ndarray | None:
    """``wbits[at]``, where None (a single weight) stays None."""
    return None if wbits is None else wbits[at]


#: The greedy kernel's rounds give way to its scan once a round matches
#: fewer than this share of the live edges.
_SCAN_FRACTION = 1 / 128
#: Edges per chunk of a Python scan; each chunk first drops the edges that
#: an earlier chunk has ruled out, with one array test.
_CHUNK = 4096


def _greedy_matching(g: Graph, order: np.ndarray) -> np.ndarray:
    """The edges of ``order`` that a first-to-last scan matches, taking each
    edge whose endpoints are both free.

    Runs local max rounds on the fixed priority of each edge's position in
    ``order``: an edge first at both its endpoints among the live edges is
    one the scan takes (Preis 1999), and with a random order few rounds
    suffice (Blelloch, Fineman and Shun 2012). Orders with a long
    dependency chain, such as rising weights along a path, would need a
    round per matched edge, so once a round matches fewer than
    ``_SCAN_FRACTION`` of the live edges, or the survivors fit one ``_CHUNK``
    (a small input runs no round), they are scanned in order. That finish
    is exact: they are the edges with both endpoints free, in order.
    """
    n, size = g.num_vertices, order.size
    us, vs = g.edge_u[order], g.edge_v[order]
    pos = np.arange(size)
    flags = bytearray(n)  # matched vertices, as the scan reads them
    matched = np.frombuffer(flags, dtype=bool)  # the same flags, as the rounds do
    parts = [np.empty(0, dtype=np.int64)]
    while pos.size > _CHUNK:
        first = np.full(n, size)  # per vertex: its first live position
        np.minimum.at(first, us, pos)
        np.minimum.at(first, vs, pos)
        won = np.flatnonzero((first[us] == pos) & (first[vs] == pos))
        matched[us[won]] = True
        matched[vs[won]] = True
        alive = np.flatnonzero(~(matched[us] | matched[vs]))
        parts.append(pos[won])
        few = won.size < _SCAN_FRACTION * pos.size
        # one array at a time, so each old array is freed before the next gather
        pos = pos[alive]
        us = us[alive]
        vs = vs[alive]
        if few:
            break
    for at in range(0, pos.size, _CHUNK):
        cu, cv, cp = us[at:at + _CHUNK], vs[at:at + _CHUNK], pos[at:at + _CHUNK]
        keep = ~(matched[cu] | matched[cv])
        new = []
        for u, v, p in zip(cu[keep].tolist(), cv[keep].tolist(), cp[keep].tolist()):
            if not (flags[u] or flags[v]):
                flags[u] = flags[v] = 1
                new.append(p)
        parts.append(np.array(new, dtype=np.int64))
    return order[np.concatenate(parts)]


def greedy(g: Graph, seed: int) -> tuple[Matching, PhaseTrace]:
    """Match edges by decreasing round-0 key whenever both endpoints are free.

    Computed by the fixed-order kernel :func:`_greedy_matching`; the trace
    reports it as one pass over all edges.
    """
    return _drive(g, _greedy_pass(g, seed))


def _greedy_pass(g: Graph, seed: int) -> Rounds:
    yield g.num_edges, _greedy_matching(g, _descending_key_order(g, seed)), 0


# The last key order computed, as (weak reference to its graph, salt seed,
# order): a bench cell runs GPA, greedy and HEM on one graph and seed.
_last_key_order: tuple = (lambda: None, None, None)


def _descending_key_order(g: Graph, seed: int) -> np.ndarray:
    """Edge ids by decreasing round-0 (weight, salt, id) key: a weight sort
    in which only the runs of equal weights are sorted again by full key.

    The result is read-only, and the last one is reused while it is asked
    for again with the same graph object and seed.
    """
    global _last_key_order
    salt_seed = round_seed(seed, 0)
    last_graph, last_seed, last_order = _last_key_order
    if last_graph() is g and last_seed == salt_seed:
        return last_order
    w = g.edge_weight
    order = np.argsort(w)
    tie = w[order[1:]] == w[order[:-1]]
    in_run = np.zeros(w.size, dtype=bool)
    in_run[1:] = tie
    in_run[:-1] |= tie
    at = np.flatnonzero(in_run)
    ids = order[at]
    order[at] = ids[np.lexsort((ids, edge_salts(salt_seed, ids), w[ids]))]
    order = order[::-1]
    order.setflags(write=False)
    _last_key_order = (weakref.ref(g), salt_seed, order)
    return order


def gpa(g: Graph, seed: int) -> tuple[Matching, PhaseTrace]:
    """Global path algorithm: grow paths and even cycles, then solve them.

    Edges are scanned by decreasing key and accepted into an auxiliary
    subgraph while it keeps maximum degree two and no odd cycle. Every
    component of that subgraph is a path or a cycle, so the only table
    needed is, at each path end, the other end and the parity of the path
    length: an edge joining the two ends of one path closes a cycle, which
    is even iff the path is odd. Paths are solved by the classic skip/take
    recurrence and even cycles by the better of the two paths obtained by
    deleting either of two adjacent edges; the paths are independent, so
    all are walked and solved together, one edge per step. A final greedy
    sweep over the edges with both endpoints still free restores
    maximality, which the path solving alone does not guarantee. The trace
    reports one pass.
    """
    return _drive(g, _gpa_pass(g, seed))


def _gpa_pass(g: Graph, seed: int) -> Rounds:
    n = g.num_vertices
    order = _descending_key_order(g, seed)
    ou, ov = g.edge_u[order], g.edge_v[order]

    deg = bytearray(n)
    degree = np.frombuffer(deg, dtype=np.uint8)  # the same degrees, as arrays read them
    end = list(range(n))  # at a path end: the other end of its path
    odd = [0] * n  # at a path end: the parity of its path's length
    closing = []  # a vertex of each cycle
    accepted = []
    for at in range(0, order.size, _CHUNK):
        cu, cv = ou[at:at + _CHUNK], ov[at:at + _CHUNK]
        keep = (degree[cu] < 2) & (degree[cv] < 2)  # the loop rejects the others too
        for k, u, v in zip(order[at:at + _CHUNK].compress(keep).tolist(),
                           cu.compress(keep).tolist(), cv.compress(keep).tolist()):
            du, dv = deg[u], deg[v]
            if du == 2 or dv == 2:
                continue
            a = end[u]
            if a == v:  # closes a cycle of length |path| + 1
                if not odd[u]:
                    continue
                closing.append(u)
            else:
                b = end[v]
                end[a] = b
                end[b] = a
                odd[a] = odd[b] = odd[u] ^ odd[v] ^ 1
            deg[u] = du + 1
            deg[v] = dv + 1
            accepted.append(k)

    # slot[2v] and slot[2v + 1]: the accepted edges of v in acceptance order;
    # among the accepted edges' endpoints in that order, v's first entry is
    # its first edge
    accepted = np.array(accepted, dtype=np.int64)
    ends = np.column_stack([g.edge_u[accepted], g.edge_v[accepted]]).ravel()
    pos = np.arange(ends.size)
    first = np.full(n, ends.size)
    np.minimum.at(first, ends, pos)
    slot = np.full(2 * n, -1, dtype=np.int64)
    slot[2 * ends + (first[ends] != pos)] = accepted[pos >> 1]

    # decompose into open paths and (even) cycles, each walked from its
    # smallest vertex along that vertex's first accepted edge; a first walk
    # round each cycle, from where it closed, finds that vertex
    walks = partial(_walks, far=g.edge_u ^ g.edge_v, slot=slot, slot_list=slot.tolist(),
                    deg=deg)
    paths, path_base, path_len = walks(
        np.flatnonzero((degree == 1) & (np.array(end) > np.arange(n))))
    around, around_base, _ = walks(np.array(closing, dtype=np.int64))
    lowest = np.minimum(g.edge_u[around], g.edge_v[around])
    cycles, cycle_base, cycle_len = walks(
        np.minimum.reduceat(lowest, around_base) if around.size else around)

    # A cycle walk lists its first edge again at the end, so the two paths
    # left by deleting either of two adjacent edges are runs of it; every
    # cycle matching misses one of them.
    p, c = path_len.size, cycle_len.size
    walked = np.concatenate([paths, cycles])
    cycle_base += paths.size
    best, chosen_path, chosen_at = _solve_paths(
        walked, np.concatenate([path_base, cycle_base + 1, cycle_base + 2]),
        np.concatenate([path_len, cycle_len - 2, cycle_len - 2]), g.edge_weight)
    first_wins = best[p:p + c] >= best[p + c:]
    kept = np.concatenate([np.ones(p, dtype=bool), first_wins, ~first_wins])
    solved = walked[chosen_at[kept[chosen_path]]]

    # maximality sweep: the path/cycle optimum may leave addable edges behind
    covered = np.zeros(n, dtype=bool)
    covered[g.edge_u[solved]] = True
    covered[g.edge_v[solved]] = True
    free = ~(covered[g.edge_u] | covered[g.edge_v])
    yield g.num_edges, np.concatenate([solved, _greedy_matching(g, order[free[order]])]), 0


#: Walks and path solutions advance together, one edge per numpy step,
#: while at least this many are unfinished; the rest finish one at a time
#: in Python, so a long path costs no numpy step per edge.
_LOCKSTEP_MIN = 64


def _walks(starts: np.ndarray, far: np.ndarray, slot: np.ndarray, slot_list: list[int],
           deg: bytearray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Walks through GPA's accepted subgraph of maximum degree two.

    ``far[k] ^ v`` is the other end of edge k at v. ``slot[2v]`` and
    ``slot[2v + 1]`` (also as the list ``slot_list``) are the accepted edges
    of v in acceptance order, and ``deg[v]`` counts them. Each walk leaves
    its start by the start's first edge and stops on reaching a vertex of
    degree one, or on coming round to its first edge again, which it then
    lists twice. Returns the edges walk after walk, where each walk begins
    among them, and its number of edges.
    """
    degree = np.frombuffer(deg, dtype=np.uint8)
    walk, v, k = np.arange(starts.size), starts, slot[2 * starts]
    k0 = k
    empty = np.empty(0, dtype=np.int64)
    steps = [(empty, empty, empty)]  # (walk, position, edge) columns
    at = 0
    while walk.size >= _LOCKSTEP_MIN:
        steps.append((walk, np.full(walk.size, at), k))
        v = far[k] ^ v
        go = (degree[v] == 2) & ((k != k0) | (at == 0))
        walk, v, k, k0 = walk[go], v[go], k[go], k0[go]
        first, second = slot[2 * v], slot[2 * v + 1]
        k = np.where(first == k, second, first)
        at += 1
    for w, v, k, k0 in zip(walk.tolist(), v.tolist(), k.tolist(), k0.tolist()):
        tail = [k]
        while True:
            v ^= int(far[k])
            if deg[v] != 2 or (k == k0 and at + len(tail) > 1):
                break
            k = slot_list[2 * v + 1] if slot_list[2 * v] == k else slot_list[2 * v]
            tail.append(k)
        steps.append((np.full(len(tail), w), np.arange(at, at + len(tail)), np.array(tail)))
    ids, pos, edges = (np.concatenate(col) for col in zip(*steps))
    length = np.bincount(ids, minlength=starts.size)
    base = np.cumsum(length) - length
    walked = np.empty(edges.size, dtype=np.int64)
    walked[base[ids] + pos] = edges
    return walked, base, length


def _solve_paths(edges: np.ndarray, base: np.ndarray, length: np.ndarray,
                 weight: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Max-weight matchings of the paths ``edges[base[i]:base[i] + length[i]]``
    by the skip/take recurrence, solved position by position across all
    paths at once.

    Returns each path's best weight, and for every edge taken its path and
    its index in ``edges``. Paths longer than all but fewer than
    ``_LOCKSTEP_MIN`` others are solved one at a time in Python. Each path
    adds the same floats in the same order either way.
    """
    best = np.zeros(length.size)
    parts = [(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))]
    by_len = np.argsort(-length, kind="stable")
    lens = length[by_len]
    alone = (lens.size if lens.size < _LOCKSTEP_MIN
             else np.count_nonzero(lens > lens[_LOCKSTEP_MIN - 1]))
    for p in by_len[:alone].tolist():
        b, size = int(base[p]), int(length[p])
        w = weight[edges[b:b + size]].tolist()
        val = [0.0] * (size + 1)
        take = [False] * (size + 1)
        for i in range(1, size + 1):
            with_edge = (val[i - 2] if i >= 2 else 0.0) + w[i - 1]
            take[i] = with_edge > val[i - 1]
            val[i] = with_edge if take[i] else val[i - 1]
        best[p] = val[size]
        at, i = [], size
        while i > 0:
            if take[i]:
                at.append(b + i - 1)
            i -= 2 if take[i] else 1
        parts.append((np.full(len(at), p), np.array(at, dtype=np.int64)))

    short, lens = by_len[alone:], lens[alone:]
    start = base[short]
    active = np.searchsorted(-lens, -np.arange(lens[0] if lens.size else 0))  # paths longer than j
    val, prev = np.zeros(short.size), np.zeros(short.size)
    takes = []
    for j, c in enumerate(active.tolist()):
        with_edge = prev[:c] + weight[edges[start[:c] + j]]
        take = with_edge > val[:c]
        prev[:c], val[:c] = val[:c], np.where(take, with_edge, val[:c])
        takes.append(take)
    best[short] = val
    nxt = lens - 1  # per path: the next position the backtrack reads
    for j in range(len(takes) - 1, -1, -1):
        c = active[j]
        hit = nxt[:c] == j
        took = np.flatnonzero(hit & takes[j])
        parts.append((short[took], start[took] + j))
        nxt[:c] -= hit * (1 + takes[j])
    return best, *(np.concatenate(col) for col in zip(*parts))


def hem(g: Graph, seed: int) -> tuple[Matching, PhaseTrace]:
    """Heavy edge matching: one pass over the vertices in input order, each
    grabbing its heaviest free incident edge."""
    return _drive(g, _hem_pass(g, seed, np.arange(g.num_vertices)))


def hem_random(g: Graph, seed: int) -> tuple[Matching, PhaseTrace]:
    """HEM visiting the vertices in seeded random order."""
    return _drive(g, _hem_pass(g, seed, np.random.default_rng(seed).permutation(g.num_vertices)))


def _hem_pass(g: Graph, seed: int, visits: np.ndarray) -> Rounds:
    """HEM's one pass, visiting the vertices in the order ``visits``.

    When HEM visits a free vertex, each neighbour visited earlier is
    matched already (it would have taken the edge otherwise). So HEM is the
    greedy scan of the edges by the visit rank of their earlier endpoint,
    then by decreasing (weight, salt, id) key, which one sort of the packed
    (rank, key position) pairs gives.
    """
    n, m = g.num_vertices, g.num_edges
    rank = np.empty(n, dtype=np.int64)
    rank[visits] = np.arange(n)
    by_key = _descending_key_order(g, seed)
    earlier = np.minimum(rank[g.edge_u[by_key]], rank[g.edge_v[by_key]])
    packed = np.sort(earlier * m + np.arange(m))
    yield m, _greedy_matching(g, by_key[packed % m]), 0


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
    """The rounds of :func:`rbm`. Only a bichromatic edge can carry a
    proposal, so each round keeps just those, each oriented once from its
    blue proposer to its red receiver. With fair coins, 64 rounds in a row
    without one (chance 2^-64) mean broken coins, and the run raises. A
    round with one matches an edge, as each blue proposer sends one offer
    and each red receiver of an offer takes one, so it raises if none is."""
    n = g.num_vertices
    # a blue vertex's heaviest outgoing proposal and a red one's heaviest
    # incoming one share a table: a round's blue and red vertices are disjoint
    cand = _new_candidates(n)
    vertex_matched = np.zeros(n, dtype=bool)
    live = np.arange(g.num_edges, dtype=np.int64)
    us, vs, wbits = g.edge_u, g.edge_v, _deciding_bits(g.edge_weight)
    round_index = idle = 0
    while live.size:
        rs = round_seed(seed, round_index, rerandomize=True)
        blue_u = vertex_coins(rs, us)
        bi = np.flatnonzero(blue_u != vertex_coins(rs, vs))
        idle = 0 if bi.size else idle + 1
        if idle == 64:
            raise RbmDidNotConverge(f"no bichromatic live edge in {idle} rounds in a row")
        u_blue = blue_u[bi]
        blue = np.where(u_blue, us[bi], vs[bi])
        red = np.where(u_blue, vs[bi], us[bi])
        ids, wb = live[bi], _take(wbits, bi)
        salts = edge_salts(rs, ids)
        sent = _raise_candidates(cand, (blue,), wb, salts)
        to, sent_ids = red[sent], ids[sent]
        took = _raise_candidates(cand, (to,), _take(wb, sent), salts[sent])
        if bi.size and not took.size:
            raise RuntimeError(f"rbm: round {round_index} matched none of {live.size} live edges")
        vertex_matched[blue[sent[took]]] = True
        vertex_matched[to[took]] = True
        # every red receiver took an offer and is matched, so its entry is never read again
        _reset_candidates(cand, blue)
        alive = np.flatnonzero(~(vertex_matched[us] | vertex_matched[vs]))
        yield live.size, sent_ids[took], alive.size
        live, us, vs, wbits = live[alive], us[alive], vs[alive], _take(wbits, alive)
        round_index += 1


MATCHERS: dict[str, Callable[[Graph, int], tuple[Matching, PhaseTrace]]] = {
    "localmax": local_max_seq,
    "greedy": greedy,
    "gpa": gpa,
    "hem": hem,
    "hem-random": hem_random,
    "rbm": rbm,
}
