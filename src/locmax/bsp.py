"""Partitioned bulk-synchronous local max with boundary-message accounting.

Vertices are assigned to workers in contiguous ranges (balanced by degree
sums), and each holds its vertices' slice of the slot array: every edge is
stored at both endpoint owners, so a worker settles the candidate of any
vertex it owns from local data alone, by the staged (weight, salt) maximum
the sequential engine uses, and records the winning edge. What crosses the
network per round is (a) candidate records for the endpoints of surviving
cut edges, exchanged at the first barrier so both owners of a cut edge
reach the same match verdict, and (b) matched-status flags for cut-edge
endpoints at the second barrier so both owners agree which edges die. The
matching is identical to the sequential result for every worker count,
because all decisions flow from the shared key order.

Workers here are logical: the supersteps are simulated sequentially, worker
by worker, each writing only to vertices it owns. The message accounting
always reflects the requested partition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, Matching
from .matchers import PhaseTrace, Rounds, _drive
from .tiebreak import _new_candidates, _raise_candidates, _reset_candidates
from .tiebreak import edge_salts, round_seed, weight_bits

#: Bytes per candidate record: vertex id, weight, salt, edge id.
CANDIDATE_RECORD_BYTES = 32


@dataclass(frozen=True)
class RoundMessages:
    """Candidate records exchanged across partition boundaries in one round."""

    round_index: int
    candidate_records: int
    bytes_estimate: int
    cut_edges_surviving: int
    status_records: int  # matched-status flags at the second barrier


@dataclass(frozen=True)
class Partition:
    num_workers: int
    bounds: np.ndarray          # (p+1,) range starts; worker i owns [bounds[i], bounds[i+1])
    owner: np.ndarray           # (n,) worker of each vertex
    cut_edges: np.ndarray       # edge ids whose endpoints have different owners
    cut_fraction: float         # cut edges over all edges
    degree_imbalance: float     # max worker degree-sum over the ideal 2m/p


def partition_graph(g: Graph, p: int) -> Partition:
    """Split vertices into p contiguous ranges with near-equal degree sums.

    The split greedily sweeps the degree prefix sums (the offsets array),
    cutting as close as possible to each multiple of 2m/p, and reports the
    worst per-worker degree sum relative to the ideal share.
    """
    n = g.num_vertices
    if p < 1:
        raise ValueError("p must be >= 1")
    if p > n:
        raise ValueError(f"p={p} exceeds the vertex count {n}")
    two_m = 2 * g.num_edges
    targets = (np.arange(1, p, dtype=np.float64) * two_m) / p
    cuts = np.searchsorted(g.offsets, targets, side="left").astype(np.int64)
    if cuts.size:
        # every worker owns at least one vertex: force strictly increasing
        # cuts, then cap so enough vertices remain for the workers after it
        steps = np.arange(1, p, dtype=np.int64)
        cuts = np.maximum.accumulate(cuts - steps) + steps
        cuts = np.minimum(np.maximum(cuts, steps), n - p + steps)
        bounds = np.concatenate([[0], cuts, [n]]).astype(np.int64)
    else:
        bounds = np.array([0, n], dtype=np.int64)
    owner = np.repeat(np.arange(p, dtype=np.int64), np.diff(bounds))

    cut = np.flatnonzero(owner[g.edge_u] != owner[g.edge_v])

    if two_m:
        share = two_m / p
        sums = [float(g.offsets[bounds[w + 1]] - g.offsets[bounds[w]]) for w in range(p)]
        imbalance = max(sums) / share
    else:
        imbalance = 1.0
    cut_fraction = cut.size / g.num_edges if g.num_edges else 0.0
    return Partition(p, bounds, owner, cut, cut_fraction, imbalance)


def _distinct_count(keys: np.ndarray) -> int:
    """Number of distinct values: sort, then count the steps between neighbours."""
    k = np.sort(keys)
    return int(k.size and 1 + np.count_nonzero(k[1:] != k[:-1]))


def bsp_local_max(
    g: Graph,
    p: int,
    seed: int,
    rerandomize: bool = True,
) -> tuple[Matching, PhaseTrace]:
    """Bulk-synchronous local max over a p-way contiguous partition.

    Per round and per worker: settle the candidates of owned vertices from
    their live incidences; after the first barrier (candidate exchange for
    cut edges) every owner of an edge reaches the same match verdict; after
    the second barrier (matched-status exchange) dead local edges are
    dropped and surviving candidates reset. The returned matching equals
    ``local_max_seq(g, seed)`` for every p, and ``trace.messages`` holds
    one :class:`RoundMessages` per round.
    """
    trace = PhaseTrace(messages=[])
    return _drive(g, _bsp_rounds(g, p, seed, rerandomize, trace.messages), trace)


def _bsp_rounds(g: Graph, p: int, seed: int, rerandomize: bool,
                messages: list[RoundMessages]) -> Rounds:
    part = partition_graph(g, p)
    owner = part.owner
    n, m = g.num_vertices, g.num_edges

    cand = _new_candidates(n)
    cand_id = np.full(n, -1, dtype=np.int64)  # each live vertex's winning edge, set every round
    vertex_matched = np.zeros(n, dtype=bool)
    is_cut = np.zeros(m, dtype=bool)
    is_cut[part.cut_edges] = True

    # per worker: the live incidences of its owned vertices (its slice of
    # the slot array) with the far endpoint, the edge and its weight bits;
    # filtered together as edges die
    local = []
    for w in range(p):
        lo, hi = g.offsets[part.bounds[w]], g.offsets[part.bounds[w + 1]]
        ends, el = g.slot_vertex[lo:hi], g.slot_edge[lo:hi]
        far = g.edge_u[el] ^ g.edge_v[el] ^ ends
        local.append((ends, far, el, weight_bits(g.edge_weight[el])))
    matched_ever = np.zeros(m, dtype=bool)
    live_union = np.arange(m, dtype=np.int64)
    round_index = 0
    while live_union.size:
        rs = round_seed(seed, round_index, rerandomize)

        # superstep 1: each worker raises candidates for its owned vertices
        for ends, _, el, wbits in local:
            top = np.flatnonzero(_raise_candidates(cand, ((ends, wbits, edge_salts(rs, el)),))[0])
            cand_id[ends[top]] = el[top]

        # barrier 1: candidate records for surviving cut-edge endpoints,
        # deduplicated per (vertex, receiving worker) over both edge sides
        cut_live = live_union[is_cut[live_union]]
        cu, cv = g.edge_u[cut_live], g.edge_v[cut_live]
        records = _distinct_count(np.concatenate([cu * np.int64(p) + owner[cv],
                                                  cv * np.int64(p) + owner[cu]]))

        # superstep 2: with reconciled candidates, every owner of an edge
        # reaches the same verdict; owners mark their matched vertices
        for ends, far, el, _ in local:
            won = (cand_id[ends] == el) & (cand_id[far] == el)
            matched_ever[el[won]] = True
            vertex_matched[ends[won]] = True

        # barrier 2: matched-status flags for cut-edge endpoints
        status_records = 2 * int(cut_live.size)

        # superstep 3: drop edges with a matched endpoint, reset survivors
        for w, (ends, far, _, _) in enumerate(local):
            alive = ~(vertex_matched[ends] | vertex_matched[far])
            _reset_candidates(cand, ends[alive])
            local[w] = tuple(a[alive] for a in local[w])

        messages.append(RoundMessages(round_index, records, records * CANDIDATE_RECORD_BYTES,
                                      int(cut_live.size), status_records))
        newly = live_union[matched_ever[live_union]]
        if not newly.size:
            raise RuntimeError(
                f"bsp: round {round_index} matched none of {live_union.size} live edges")
        still = ~(vertex_matched[g.edge_u[live_union]] | vertex_matched[g.edge_v[live_union]])
        yield live_union.size, newly, int(np.count_nonzero(still))
        live_union = live_union[still]
        round_index += 1
