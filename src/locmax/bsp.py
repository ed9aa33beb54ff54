"""Partitioned bulk-synchronous local max with boundary-message accounting.

Vertices are assigned to workers in contiguous ranges (balanced by degree
sums), and every edge is stored at both endpoint owners: each worker holds
one slot per owned endpoint of each live edge, so it settles the candidate
of any vertex it owns from local data alone, by the staged (weight, salt)
maximum the sequential engine uses. What crosses the network per round is
(a) candidate records for the endpoints of surviving cut edges, exchanged
at the first barrier so both owners of a cut edge reach the same match
verdict, and (b) matched-status flags for cut-edge endpoints at the second
barrier so both owners agree which edges die. The matching is identical to
the sequential result for every worker count, because all decisions flow
from the shared key order.

Workers here are logical. The round state is kept per live edge: its id,
endpoints, their owners and weight bits. The u-side and v-side slots of
the live edges, taken together, are the live slot array, and every
superstep is simulated as one pass over both sides in which each slot
writes only to its own vertex: what its owner computes alone. The message
accounting always reflects the requested partition.
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
        imbalance = float(np.diff(g.offsets[bounds]).max()) / share
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
    owner = partition_graph(g, p).owner
    cand = _new_candidates(g.num_vertices)
    vertex_matched = np.zeros(g.num_vertices, dtype=bool)

    # the live edges, filtered together as edges die: ids, endpoints, the
    # endpoints' owners and weight bits. The u-side slots sit at ``ou``,
    # the v-side slots at ``ov``; an edge is cut when those differ
    live = np.arange(g.num_edges, dtype=np.int64)
    us, vs = g.edge_u, g.edge_v
    ou, ov = owner[us], owner[vs]
    wbits = weight_bits(g.edge_weight)
    round_index = 0
    while live.size:
        # superstep 1: each slot raises its own vertex's candidate, so a
        # worker settles its owned vertices from its own slots
        salts = edge_salts(round_seed(seed, round_index, rerandomize), live)
        top_u, top_v = _raise_candidates(cand, ((us, wbits, salts), (vs, wbits, salts)))
        del salts  # not read again this round

        # barrier 1: candidate records for the endpoints of live cut edges,
        # one per (vertex, receiving worker), from both sides of each edge
        cut = np.flatnonzero(ou != ov)
        records = _distinct_count(np.concatenate((us[cut] * p + ov[cut], vs[cut] * p + ou[cut])))

        # superstep 2: an edge wins iff it holds the candidate at both
        # endpoints; the owner of each side learns the far flag through
        # the record of a cut edge
        won = top_u & top_v
        if not won.any():
            raise RuntimeError(
                f"bsp: round {round_index} matched none of {live.size} live edges")
        vertex_matched[us[won]] = True
        vertex_matched[vs[won]] = True

        # barrier 2: a matched-status flag per live cut slot; superstep 3:
        # drop edges with a matched endpoint, reset survivors' candidates
        messages.append(RoundMessages(round_index, records, records * CANDIDATE_RECORD_BYTES,
                                      cut.size, 2 * cut.size))
        alive = np.flatnonzero(~(vertex_matched[us] | vertex_matched[vs]))
        _reset_candidates(cand, us[alive], vs[alive])
        yield live.size, live[won], alive.size
        live, us, vs = live[alive], us[alive], vs[alive]
        ou, ov, wbits = ou[alive], ov[alive], wbits[alive]
        round_index += 1
