"""Parallel-phase engine: write log, compaction, equivalence."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locmax import (
    assert_graph_invariants,
    build_graph,
    gen_random,
    local_max_seq,
    pram_local_max,
)
from locmax.pram import WriteLog, pram_phase
from locmax.tiebreak import round_seed

from reference import assemble, check_progress, laid_out
from test_equivalence import tie_graphs
from test_graph import CACHED, LAYOUT

GRAPH_ARRAYS = ("offsets", "slot_vertex", "slot_edge", "edge_u", "edge_v", "edge_weight")


# ---------------------------------------------------------------- write log

def _checked_run(g):
    return pram_local_max(g, 0, checked=True)[1].write_log


def _checked_phase(g):
    log = WriteLog()
    pram_phase(g, np.arange(g.num_edges), round_seed(0, 0), log)
    return log


def _every_offer(cand, ends, wbits, salts):
    """A broken kernel that returns every offer as a winner."""
    return np.arange(len(salts))


# one record per phase: the marks its matched edges write at their endpoints
@pytest.mark.parametrize("edges, run, figures", [
    # the weight-3 edge marks 2 vertices
    ([(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)], _checked_run, (1, 2, 0)),
    # phase 1: both weight-5 ends mark 4 vertices; phase 2: the weight-1
    # middle edge marks 2
    ([(0, 1, 5.0), (1, 2, 4.0), (2, 3, 1.0), (3, 4, 4.0), (4, 5, 5.0)], _checked_run, (2, 6, 0)),
    # a phase with no edges records its empty set of marks
    ([], _checked_phase, (1, 0, 0)),
], ids=["triangle", "path", "edgeless-phase"])
def test_checked_write_log_figures(edges, run, figures):
    log = run(build_graph(edges))
    assert (log.steps, log.writes, log.conflicts) == figures


def test_checked_log_counts_matched_edges_that_share_a_vertex(monkeypatch, star9):
    # the broken kernel lets all 8 edges at the centre win: 16 marks, of
    # which 7 land again on the centre
    monkeypatch.setattr("locmax.matchers._raise_candidates", _every_offer)
    log = pram_local_max(star9, 0, checked=True)[1].write_log
    assert (log.steps, log.writes, log.conflicts) == (1, 16, 7)


def test_checked_phase_rejects_slots_that_do_not_compact_to_the_survivors_layout():
    # on the path 0-1-2-3-4-5 the weight-9 edge 2 wins and edges 0 and 4,
    # each a vertex's only slot, survive as edges 0 and 1 of the rest
    g = build_graph([(0, 1, 1.0), (1, 2, 2.0), (2, 3, 9.0), (3, 4, 2.0), (4, 5, 1.0)])
    seed = round_seed(0, 0)
    rest = pram_phase(g, np.arange(5), seed, WriteLog())[1]
    assert rest.slot_edge.tolist() == [0, 0, 1, 1]
    # the same graph with the edge ids of slots 0 and 9 swapped: its slots
    # would compact to [1, 0, 1, 0]
    slot_edge = g.slot_edge.copy()
    slot_edge[[0, 9]] = slot_edge[[9, 0]]
    bad = laid_out(g.num_vertices, g.offsets, g.slot_vertex, slot_edge,
                   g.edge_u, g.edge_v, g.edge_weight)
    assert pram_phase(bad, np.arange(5), seed)[1].slot_edge.tolist() == [0, 0, 1, 1]
    with pytest.raises(RuntimeError, match="^pram: the compacted slots differ from the "
                                           "survivors' layout$"):
        pram_phase(bad, np.arange(5), seed, WriteLog())


def test_write_log_counts_conflicts_when_present():
    log = WriteLog()
    log.record(np.array([3, 4, 3, 3]))
    assert log.conflicts == 2  # three writers on cell 3 -> two too many


# ------------------------------------------------------------------ phases

def test_phase_on_an_edgeless_state_matches_nothing():
    g = build_graph([], num_vertices=3)
    matched, rest, rest_orig = pram_phase(g, np.arange(0), round_seed(0, 0), WriteLog())
    assert matched.dtype == np.int64 and matched.size == 0 and rest_orig.size == 0
    assert (rest.num_vertices, rest.num_edges, rest.offsets.tolist()) == (3, 0, [0, 0, 0, 0])
    assert_graph_invariants(rest)


def test_phase_on_triangle_clears_graph(triangle):
    matched, rest, rest_orig = pram_phase(triangle, np.arange(3), round_seed(0, 0))
    assert matched.tolist() == [2]  # the weight-3 edge
    assert rest.num_edges == 0 and rest.slot_edge.size == 0 and rest_orig.size == 0
    assert_graph_invariants(rest)


@pytest.mark.parametrize("g", [gen_random(256, 4, seed=3), build_graph([], num_vertices=3)],
                         ids=["random", "edgeless"])
def test_phase_without_ids_runs_on_the_input_numbering(g):
    # edge_orig=None, as phase 1 runs, equals the identity ids
    log, want_log = WriteLog(), WriteLog()
    matched, rest, rest_orig = pram_phase(g, None, round_seed(4, 0), log)
    want_matched, want_rest, want_orig = pram_phase(g, np.arange(g.num_edges),
                                                    round_seed(4, 0), want_log)
    for got, want in ((matched, want_matched), (rest_orig, want_orig)):
        assert got.dtype == want.dtype == np.int64 and np.array_equal(got, want)
    for name in GRAPH_ARRAYS:
        assert np.array_equal(getattr(rest, name), getattr(want_rest, name)), name
    assert log == want_log


@given(tie_graphs(), st.integers(0, 10_000), st.booleans(), st.sampled_from(LAYOUT))
@settings(max_examples=100, deadline=None)
def test_each_phase_returns_the_graph_of_its_surviving_edges(g0, seed, rerandomize, first):
    """A phase's compacted graph equals the one its surviving input edges lay
    out afresh, array by array, so a compaction that reorders a vertex's
    slots fails. The rest computes its layout only when read, whichever
    layout array is read first; the phase leaves its input graph as it was."""
    g, orig = g0, np.arange(g0.num_edges)
    rnd = 0
    while g.num_edges:
        before = [getattr(g, name).copy() for name in GRAPH_ARRAYS]
        matched, rest, rest_orig = pram_phase(g, orig, round_seed(seed, rnd, rerandomize))
        check_progress(rnd, g.num_edges, matched, g0.num_edges)
        for name, want in zip(GRAPH_ARRAYS, before):
            assert np.array_equal(getattr(g, name), want), name
        assert not vars(rest).keys() & CACHED
        fresh = assemble(g0.edge_u[rest_orig], g0.edge_v[rest_orig],
                         g0.edge_weight[rest_orig], g0.num_vertices)
        assert rest.num_vertices == fresh.num_vertices
        for name in (first, *GRAPH_ARRAYS):
            got, want = getattr(rest, name), getattr(fresh, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
            assert not got.flags.writeable, name
        g, orig = rest, rest_orig
        rnd += 1


@pytest.mark.parametrize("w0, matched", [(1.0, [1]), (2.0, [1]), (3.0, [0])],
                         ids=["edge-1-heavier", "weight-tie", "edge-0-heavier"])
def test_edge_with_salt_zero(monkeypatch, w0, matched):
    # on the path (0,1), (1,2) edge 0 gets salt 0 (the value masked offers
    # take) and edge 1 salt 5; edge 1 weighs 2
    monkeypatch.setattr("locmax.matchers.edge_salts",
                        lambda seed, ids: np.array([0, 5], dtype=np.uint64)[ids])
    g = build_graph([(0, 1, w0), (1, 2, 2.0)])
    assert pram_phase(g, np.arange(2), round_seed(0, 0))[0].tolist() == matched


def test_runs_leave_the_input_graph_unchanged_and_read_only():
    g = gen_random(512, 4, seed=6)
    before = [getattr(g, name).copy() for name in GRAPH_ARRAYS]
    for checked in (False, True):
        pram_local_max(g, 6, checked=checked)
        for name, want in zip(GRAPH_ARRAYS, before):
            got = getattr(g, name)
            assert np.array_equal(got.view(np.uint8), want.view(np.uint8)), name
            assert not got.flags.writeable, name


# ---------------------------------------------------------- unchecked runs

@given(tie_graphs(), st.integers(0, 10_000), st.booleans())
@settings(max_examples=200, deadline=None)
def test_unchecked_run_equals_checked_and_sequential(g, seed, rerandomize):
    """The unchecked run never validates its layout; it must still match
    the checked run, which validates its input and checks every phase's
    compacted slots."""
    got_m, got_t = pram_local_max(g, seed, rerandomize=rerandomize)
    want_m, want_t = pram_local_max(g, seed, checked=True, rerandomize=rerandomize)
    seq_m, seq_t = local_max_seq(g, seed, rerandomize)
    assert got_m == want_m == seq_m
    assert got_t.rounds == want_t.rounds == seq_t.rounds
    assert got_t.slot_ops == want_t.slot_ops
