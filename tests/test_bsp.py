"""Partitioning and the bulk-synchronous engine."""

from __future__ import annotations

import numpy as np
import pytest

from locmax import (
    bsp_local_max,
    build_graph,
    build_graph_arrays,
    gen_random,
    gen_rgg,
    local_max_seq,
    partition_graph,
    validate_matching,
)
from locmax.matchers import RoundStats
import reference as ref
from reference import local_edges


def test_single_worker_owns_everything(path4):
    part = partition_graph(path4, 1)
    assert part.bounds.tolist() == [0, 4]
    assert part.cut_edges.size == 0
    assert local_edges(path4, part)[0].size == path4.num_edges


def test_path_splits_in_half_with_one_cut(path4):
    part = partition_graph(path4, 2)
    assert part.bounds.tolist() == [0, 2, 4]
    assert part.cut_edges.tolist() == [1]  # only the middle edge crosses
    assert part.owner.tolist() == [0, 0, 1, 1]


def test_partition_rejects_too_many_workers(path4):
    with pytest.raises(ValueError, match="exceeds"):
        partition_graph(path4, 5)


@pytest.mark.parametrize("p", [0, -2])
def test_partition_rejects_fewer_than_one_worker(path4, p):
    with pytest.raises(ValueError, match="^p must be >= 1$"):
        partition_graph(path4, p)


def test_partition_balances_degree_sums():
    g = gen_rgg(12, 3)
    part = partition_graph(g, 8)
    assert part.degree_imbalance <= 1.25
    # every vertex owned exactly once, contiguously
    assert part.owner.size == g.num_vertices
    assert np.all(np.diff(part.owner) >= 0)


@pytest.mark.parametrize("p", [1, 4, 128, 129, 256])
def test_owner_is_the_smallest_signed_type_that_holds_p(p):
    # signed, so that np.diff of a decreasing owner is negative and never
    # wraps; p = 256 is n
    g = gen_random(256, 4, seed=3)
    assert g.num_vertices == 256
    part = partition_graph(g, p)
    assert part.owner.dtype == (np.int8 if p <= 128 else np.int16)
    assert np.array_equal(part.owner, np.repeat(np.arange(p), np.diff(part.bounds)))


def test_cut_edges_live_at_both_owners():
    g = gen_random(128, 4, seed=5)
    part = partition_graph(g, 4)
    local = local_edges(g, part)
    # cut edges are stored at both owners, every other edge at one
    assert sum(e.size for e in local) == g.num_edges + part.cut_edges.size
    assert part.cut_fraction == part.cut_edges.size / g.num_edges
    for k in part.cut_edges.tolist():
        owners = {
            int(part.owner[g.edge_u[k]]),
            int(part.owner[g.edge_v[k]]),
        }
        holders = {w for w in range(4) if k in local[w]}
        assert holders == owners and len(owners) == 2


def test_p1_equals_sequential_with_zero_messages():
    g = gen_random(256, 4, seed=2)
    base, _ = local_max_seq(g, 9)
    matching, trace = bsp_local_max(g, 1, 9)
    assert matching == base
    assert all(rm.candidate_records == 0 for rm in trace.messages)
    assert all(rm.bytes_estimate == 0 for rm in trace.messages)


@pytest.mark.parametrize("p", [2, 4, 8])
def test_matching_invariant_over_worker_count(p):
    g = gen_rgg(12, 4)
    base, _ = local_max_seq(g, 7)
    matching, trace = bsp_local_max(g, p, 7)
    assert matching == base
    check = validate_matching(g, matching)
    assert check.valid and check.maximal


def test_all_equal_weights_invariant_over_p():
    g = gen_random(256, 4, seed=6)
    unit = build_graph(
        [(u, v, 1.0) for u, v in zip(g.edge_u.tolist(), g.edge_v.tolist())],
        num_vertices=g.num_vertices,
    )
    base, _ = local_max_seq(unit, 3)
    for p in (1, 2, 4, 8):
        matching, _ = bsp_local_max(unit, p, 3)
        assert matching == base


def test_messages_bounded_by_surviving_cut_edges():
    g = gen_random(512, 4, seed=8)
    _, trace = bsp_local_max(g, 8, 1)
    for rm in trace.messages:
        assert rm.candidate_records <= 2 * rm.cut_edges_surviving
        assert rm.bytes_estimate == rm.candidate_records * 32
    # surviving cut edges shrink alongside the graph
    cuts = [rm.cut_edges_surviving for rm in trace.messages]
    assert cuts == sorted(cuts, reverse=True)


def test_geometric_locality_beats_random():
    g_rgg = gen_rgg(12, 5)
    m = g_rgg.num_edges
    alpha = max(1, round(m / 4096))
    g_rand = gen_random(4096, alpha, seed=5)
    cut_rgg = partition_graph(g_rgg, 8).cut_fraction
    cut_rand = partition_graph(g_rand, 8).cut_fraction
    assert cut_rgg < cut_rand


def test_one_worker_per_vertex(path4):
    # p == n: every vertex its own worker, every edge a cut edge
    part = partition_graph(path4, 4)
    assert np.diff(part.bounds).tolist() == [1, 1, 1, 1]
    assert part.cut_edges.size == path4.num_edges
    base, _ = local_max_seq(path4, 2)
    matching, trace = bsp_local_max(path4, 4, 2)
    assert matching == base
    assert trace.messages[0].candidate_records <= 2 * path4.num_edges


def test_rerandomize_flag_respected():
    g = gen_rgg(10, 1)
    for flag in (True, False):
        a, _ = local_max_seq(g, 4, rerandomize=flag)
        b, _ = bsp_local_max(g, 4, 4, rerandomize=flag)
        assert a == b


def test_messages_invariant_under_edge_orientation():
    # storing half the edges as (v, u) keeps every edge id and slot, so the
    # round records must not move; barrier 1 dedups per (vertex, receiver)
    # over both sides of the cut edges
    g = gen_random(1 << 10, 4, seed=1)
    flip = np.arange(g.num_edges) % 2 == 1
    u = np.where(flip, g.edge_v, g.edge_u)
    v = np.where(flip, g.edge_u, g.edge_v)
    flipped = build_graph_arrays(u, v, g.edge_weight, g.num_vertices)
    assert np.array_equal(flipped.slot_edge, g.slot_edge)
    for p in (2, 4, 8):
        matching, trace = bsp_local_max(g, p, 1)
        matching_f, trace_f = bsp_local_max(flipped, p, 1)
        assert trace_f.messages == trace.messages
        assert trace_f.rounds == trace.rounds
        assert matching_f.edges.tolist() == matching.edges.tolist()


def test_barrier_records_of_a_hand_computed_run():
    # workers own {0..3} and {4..7} (degree sums 8 and 8). Cut edges:
    # (2,5) and (2,6), two from vertex 2 to worker 1; (7,3) and (4,3), whose
    # worker-0 vertex 3 is on the v side. Distinct weights fix the rounds:
    # round 0 matches (0,1) and (4,5); (2,6) and (7,3) survive and match
    # in round 1, and (6,7) dies
    g = build_graph_arrays(
        np.array([0, 2, 2, 7, 4, 6, 1, 4]),
        np.array([1, 5, 6, 3, 5, 7, 2, 3]),
        np.array([9.0, 2.0, 3.0, 4.0, 8.0, 1.0, 5.0, 6.0]),
        8,
    )
    assert partition_graph(g, 2).bounds.tolist() == [0, 4, 8]
    for seed in (0, 1):
        matching, trace = bsp_local_max(g, 2, seed)
        assert matching.edges.tolist() == [0, 2, 3, 4]
        assert trace.rounds == [RoundStats(8, 2, 5), RoundStats(3, 2, 3)]
        # round 0: 8 (vertex, receiver) keys over 4 cut edges, of which
        # (2, w1) and (3, w1) come twice: 6 records; round 1: (2, w1),
        # (6, w0), (7, w0) and (3, w1). A status flag per cut slot
        assert [(rm.candidate_records, rm.bytes_estimate, rm.cut_edges_surviving,
                 rm.status_records) for rm in trace.messages] == [(6, 192, 4, 8), (4, 128, 2, 4)]
        assert [rm.round_index for rm in trace.messages] == [0, 1]


def test_ledger_keys_wider_than_32_bits():
    # p = n = 2^16 puts every vertex in its own worker and the packed
    # (vertex, receiving worker) keys past 2^31, so the ledger sorts them as
    # int64 (the other bsp tests take the int32 path). The keys of 5 and
    # 5 + 2^15 towards worker 7 differ by exactly 2^31, so shifted in 32 bits
    # they would collide. Rising weights match (5 + 2^15, 9) in round 0 and
    # (5, 7) in round 1
    n, far = 1 << 16, 5 + (1 << 15)
    g = build_graph_arrays(np.array([5, 7, far]), np.array([7, far, 9]),
                           np.array([1.0, 2.0, 3.0]), n)
    matching, trace = bsp_local_max(g, n, 0)
    ref_matching, ref_trace = ref.bsp_local_max(g, n, 0)
    assert (n * n) << len(trace.rounds).bit_length() >= 2**31
    assert matching == ref_matching and matching.edges.tolist() == [0, 2]
    assert trace.rounds == ref_trace.rounds == [RoundStats(3, 1, 2), RoundStats(1, 1, 1)]
    assert trace.messages == ref_trace.messages
    assert [rm.candidate_records for rm in trace.messages] == [6, 2]


def _rising_path(n):
    return build_graph_arrays(np.arange(n - 1), np.arange(1, n), np.arange(1.0, n), n)


@pytest.mark.parametrize("g, p, rounds, last_cut_round", [
    # rising weights match one edge per round from the top, so 512 rounds.
    # The cut edge (256, 257) dies in round 383: the ledger's lives need two
    # bytes (all lives of a 2^9-vertex path fit one)
    (_rising_path(1 << 10), 4, 512, 383),
    (_rising_path(1 << 10), 1, 512, None),  # no cut edge: every record is 0
    (build_graph_arrays(np.array([], dtype=np.int64), np.array([], dtype=np.int64),
                        np.array([]), 8), 4, 0, None),  # edgeless: no round, no message
])
def test_ledger_equals_reference(g, p, rounds, last_cut_round):
    matching, trace = bsp_local_max(g, p, 1)
    ref_matching, ref_trace = ref.bsp_local_max(g, p, 1)
    assert matching == ref_matching
    assert trace.rounds == ref_trace.rounds and len(trace.rounds) == rounds
    assert trace.messages == ref_trace.messages and len(trace.messages) == rounds
    assert max((rm.round_index for rm in trace.messages if rm.cut_edges_surviving),
               default=None) == last_cut_round
