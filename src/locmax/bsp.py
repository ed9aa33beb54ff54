"""Partitioned bulk-synchronous local max with boundary-message accounting.

Vertices are assigned to workers in contiguous ranges (balanced by degree
sums), and every edge is stored at both endpoint owners, so a worker
settles the candidate of any vertex it owns from local data alone. A BSP
round is therefore a round of the sequential engine: the same staged
(weight, salt) maximum, the same win rule and the same survivors, and the
matching is identical for every worker count. The engine runs those rounds
(:func:`locmax.matchers._local_max_rounds`) and adds a ledger of what
would cross the network between the p workers in each round: (a) candidate
records for the endpoints of surviving cut edges, exchanged at the first
barrier so both owners of a cut edge reach the same match verdict, and
(b) matched-status flags for cut-edge endpoints at the second barrier so
both owners agree which edges die.

Workers here are logical. The ledger is computed once per run from the
round in which each vertex was matched: a cut edge survives into every
round up to the earlier of its endpoints' match rounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, Matching
from .matchers import PhaseTrace, Rounds, _drive, _local_max_rounds

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
    owner: np.ndarray           # (n,) worker of each vertex, the smallest signed int that holds p
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
    owner = np.repeat(np.arange(p, dtype=np.min_scalar_type(-p)), np.diff(bounds))

    cut = np.flatnonzero(owner[g.edge_u] != owner[g.edge_v])

    if two_m:
        share = two_m / p
        imbalance = float(np.diff(g.offsets[bounds]).max()) / share
    else:
        imbalance = 1.0
    cut_fraction = cut.size / g.num_edges if g.num_edges else 0.0
    return Partition(p, bounds, owner, cut, cut_fraction, imbalance)


def bsp_local_max(
    g: Graph,
    p: int,
    seed: int,
    rerandomize: bool = True,
) -> tuple[Matching, PhaseTrace]:
    """Bulk-synchronous local max over a p-way contiguous partition.

    The rounds are those of ``local_max_seq(g, seed, rerandomize)``, so the
    matching and ``trace.rounds`` equal seq's for every p; ``trace.messages``
    holds one :class:`RoundMessages` per round, the records that cross the
    partition's boundaries at the two barriers of that round.
    """
    trace = PhaseTrace(messages=[])
    return _drive(g, _bsp_rounds(g, p, seed, rerandomize, trace.messages), trace)


def _bsp_rounds(g: Graph, p: int, seed: int, rerandomize: bool,
                messages: list[RoundMessages]) -> Rounds:
    """Seq's rounds, passed through unchanged, then the run's message ledger."""
    part = partition_graph(g, p)
    # an unmatched vertex keeps n, later than any round
    matched_round = np.full(g.num_vertices, g.num_vertices, dtype=np.int64)
    rounds = 0
    for before, won, after in _local_max_rounds(g, seed, rerandomize):
        matched_round[g.edge_u[won]] = rounds
        matched_round[g.edge_v[won]] = rounds
        yield before, won, after
        rounds += 1
    messages.extend(_round_messages(g, part, matched_round, rounds))


def _round_messages(g: Graph, part: Partition, matched_round: np.ndarray,
                    rounds: int) -> list[RoundMessages]:
    """The records each round sends across the partition's boundaries.

    A cut edge is live up to the earlier match round of its endpoints
    (finite, as the matching is maximal). At barrier 1 each live cut edge
    sends a candidate record to the far owner of each endpoint, one per
    (vertex, receiving worker) key, so a key is live as long as its
    longest-lived cut edge; barrier 2 sends a status flag per live cut slot.
    """
    owner, cut, p = part.owner, part.cut_edges, part.num_workers
    us, vs = g.edge_u[cut], g.edge_v[cut]
    # every life is below rounds, so clipping the unmatched vertices' n
    # changes none, and a life fits the smallest type that holds rounds
    matched_round = np.minimum(matched_round, rounds).astype(np.min_scalar_type(rounds))
    life = np.minimum(matched_round[us], matched_round[vs])
    # one sort of the keys, each packed above the life of its edge: the
    # last entry of a key's run holds the key's life. Both halves are built
    # in the one buffer, int32 when the keys fit
    shift = rounds.bit_length()
    fits = (g.num_vertices * p) << shift < 2**31
    packed = np.empty(2 * cut.size, dtype=np.int32 if fits else np.int64)
    for half, a, b in ((packed[:cut.size], us, vs), (packed[cut.size:], vs, us)):
        np.multiply(a, p, out=half, casting="unsafe")
        half += owner[b]
        half <<= shift
        half |= life
    packed.sort()
    # an entry ends its key's run iff the next one differs above the life bits
    last = np.ones(packed.size, dtype=bool)
    np.greater_equal(packed[1:] ^ packed[:-1], 1 << shift, out=last[:-1])
    key_life = packed.compress(last) & ((1 << shift) - 1)
    records, edges = (np.bincount(lives, minlength=rounds)[::-1].cumsum()[::-1].tolist()
                      for lives in (key_life, life))
    return [RoundMessages(r, rec, rec * CANDIDATE_RECORD_BYTES, e, 2 * e)
            for r, (rec, e) in enumerate(zip(records, edges))]
