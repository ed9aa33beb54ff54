"""Parallel-phase engine: layout checks, write log, compaction, equivalence."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locmax import (
    build_graph,
    gen_random,
    gen_rgg,
    local_max_seq,
    pram_local_max,
)
from locmax.pram import PramState, WriteLog, pram_phase
from locmax.tiebreak import edge_salts, key_ranks, round_seed

from reference import compaction_addresses
from test_equivalence import tie_graphs


# ------------------------------------------------------ layouts and write log

def _slot_vertex(slot_vertex):
    def corrupt(s):
        s.slot_vertex = np.array(slot_vertex)
    return corrupt


def _slot_edge_id(bad_edge):
    def corrupt(s):
        s.slot_edge = s.slot_edge.copy()
        s.slot_edge[0] = bad_edge
    return corrupt


@pytest.mark.parametrize("corrupt, message", [
    # edge 0 keeps both its slots at vertex 0 and edge 1 both at vertex 3
    pytest.param(_slot_vertex([0, 0, 3, 3]), "slot_vertex disagrees", id="both-slots-at-one-end"),
    # slot 1 sits at vertex 2, neither end of edge 0
    pytest.param(_slot_vertex([0, 2, 2, 3]), "slot_vertex disagrees", id="slot-at-neither-end"),
    *(pytest.param(_slot_edge_id(e), "edge id out of range", id=f"slot-edge-{e}")
      for e in (-1, -6, 2, 7)),
])
def test_check_consistent_rejects_bad_layouts(corrupt, message):
    s = PramState.from_graph(build_graph([(0, 1, 1.0), (2, 3, 2.0)]))
    assert s.slot_edge.tolist() == [0, 0, 1, 1]
    s.check_consistent()
    corrupt(s)
    with pytest.raises(ValueError, match=message):
        s.check_consistent()


def _write_log_figures(g):
    log = pram_local_max(g, 0, checked=True)[1].write_log
    return log.steps, log.writes, log.conflicts


def test_checked_write_log_of_the_triangle(triangle):
    # one phase of 4 steps: 1 match flag (the weight-3 edge), 3 spread
    # writes, and no survivors to copy
    assert _write_log_figures(triangle) == (4, 4, 0)


def test_checked_write_log_of_a_path():
    # phase 1: 2 match flags (both weight-5 ends), 5 spread writes, then
    # the weight-1 middle edge and its 2 slots copy over; phase 2: 1 match
    # flag, 1 spread write, no copies
    g = build_graph([(0, 1, 5.0), (1, 2, 4.0), (2, 3, 1.0), (3, 4, 4.0), (4, 5, 5.0)])
    assert _write_log_figures(g) == (8, 12, 0)


def test_checked_mode_rejects_matched_edges_that_share_a_vertex(monkeypatch, star9):
    # a kernel that flags every offer lets all 8 edges at the centre win
    def every_flag(cand, offers):
        return [np.ones(len(ends), dtype=bool) for ends, *_ in offers]

    monkeypatch.setattr("locmax.matchers._raise_candidates", every_flag)
    with pytest.raises(RuntimeError, match="^pram: the matched edges do not mark 2 distinct "
                                           "vertices each$"):
        pram_local_max(star9, 0, checked=True)


def test_write_log_counts_conflicts_when_present():
    log = WriteLog()
    log.record("demo", "cells", np.array([3, 4, 3, 3]))
    assert log.conflicts == 2  # three writers on cell 3 -> two too many
    assert log.samples[0] == ("demo", "cells", 3)


# ------------------------------------------------------------------ phases

def test_phase_on_an_edgeless_state_matches_nothing():
    s = PramState.from_graph(build_graph([], num_vertices=3))
    log = WriteLog()
    matched = pram_phase(s, round_seed(0, 0), log)
    assert matched.dtype == np.int64 and matched.size == 0
    assert (log.steps, log.writes, log.conflicts) == (4, 0, 0)
    assert (s.num_vertices, s.num_edges, s.offsets.tolist()) == (3, 0, [0, 0, 0, 0])
    s.check_consistent()


def test_compaction_addresses_frozen_example():
    flags = np.array([1, 0, 1, 1, 0, 0])
    assert np.cumsum(flags).tolist() == [1, 1, 2, 3, 3, 3]
    addresses = compaction_addresses(flags)
    survivors = {k: int(addresses[k]) for k in (1, 4, 5)}
    assert survivors == {1: 0, 4: 1, 5: 2}


def test_phase_on_triangle_clears_graph(triangle):
    s = PramState.from_graph(triangle)
    matched = pram_phase(s, round_seed(0, 0))
    assert matched.tolist() == [2]  # the weight-3 edge
    assert s.num_edges == 0
    assert s.num_slots == 0
    s.check_consistent()


@pytest.mark.parametrize("w0, matched", [(1.0, [1]), (2.0, [1]), (3.0, [0])],
                         ids=["edge-1-heavier", "weight-tie", "edge-0-heavier"])
def test_edge_with_salt_zero(monkeypatch, w0, matched):
    # on the path (0,1), (1,2) edge 0 gets salt 0 (the value masked offers
    # take) and edge 1 salt 5; edge 1 weighs 2
    monkeypatch.setattr("locmax.pram.edge_salts",
                        lambda seed, ids: np.array([0, 5], dtype=np.uint64)[ids])
    s = PramState.from_graph(build_graph([(0, 1, w0), (1, 2, 2.0)]))
    assert pram_phase(s, round_seed(0, 0)).tolist() == matched


def test_phase_matches_sequential_first_round():
    for seed in range(5):
        g = gen_random(256, 4, seed=seed)
        s = PramState.from_graph(g)
        matched = set(pram_phase(s, round_seed(seed, 0)).tolist())
        # independent reconstruction of the round-1 matched set: an edge is
        # matched iff it is the key-max at both endpoints
        ids = np.arange(g.num_edges, dtype=np.int64)
        ranks = key_ranks(g.edge_weight, edge_salts(round_seed(seed, 0), ids), ids)
        best = np.full(g.num_vertices, -1, dtype=np.int64)
        np.maximum.at(best, g.edge_u, ranks)
        np.maximum.at(best, g.edge_v, ranks)
        expect = set(
            ids[(best[g.edge_u] == ranks) & (best[g.edge_v] == ranks)].tolist()
        )
        assert matched == expect
        s.check_consistent()


def test_full_run_equals_sequential_engine():
    cases = [
        (gen_rgg(12, 7), 7),
        (gen_random(512, 4, seed=3), 3),
        (gen_random(512, 16, seed=4), 11),
        (build_graph([(0, 1, 1.0)] ), 0),
    ]
    for g, seed in cases:
        seq_matching, seq_trace = local_max_seq(g, seed)
        par_matching, par_trace = pram_local_max(g, seed, checked=True)
        assert par_matching == seq_matching
        assert par_trace.total_rounds == seq_trace.total_rounds
        assert par_trace.write_log.conflicts == 0


def test_full_run_respects_rerandomize_flag():
    g = gen_rgg(10, 2)
    for flag in (True, False):
        a, _ = local_max_seq(g, 5, rerandomize=flag)
        b, _ = pram_local_max(g, 5, rerandomize=flag)
        assert a == b


def test_runs_leave_the_input_graph_unchanged_and_read_only():
    g = gen_random(512, 4, seed=6)
    names = ("offsets", "slot_vertex", "slot_edge", "edge_u", "edge_v", "edge_weight")
    before = [getattr(g, name).copy() for name in names]
    for checked in (False, True):
        pram_local_max(g, 6, checked=checked)
        for name, want in zip(names, before):
            got = getattr(g, name)
            assert np.array_equal(got.view(np.uint8), want.view(np.uint8)), name
            assert not got.flags.writeable, name


def test_empty_graph_zero_phases():
    g = build_graph([], num_vertices=4)
    matching, trace = pram_local_max(g, 0, checked=True)
    assert matching.edges.tolist() == []
    assert trace.total_rounds == 0


def test_survivor_counts_weakly_decreasing():
    g = gen_random(1024, 4, seed=9)
    _, trace = pram_local_max(g, 9)
    before = [r.edges_before for r in trace.rounds]
    assert before == sorted(before, reverse=True)
    assert before[0] == g.num_edges
    # last round leaves nothing behind
    assert trace.rounds[-1].edges_before == trace.rounds[-1].edges_removed


def test_work_meter_under_budget():
    for g in (gen_rgg(11, 1), gen_random(1024, 4, seed=2), gen_random(512, 16, seed=3)):
        _, trace = pram_local_max(g, 13)
        budget = 8 * (g.num_vertices + 2 * g.num_edges)
        assert trace.slot_ops <= budget


def test_unit_weight_graph_stays_crew_clean():
    g = build_graph([(u, v, 1.0) for u, v in zip(*np.triu_indices(12, k=1))])
    matching, trace = pram_local_max(g, 3, checked=True)
    assert trace.write_log.conflicts == 0
    seq, _ = local_max_seq(g, 3)
    assert matching == seq


# ---------------------------------------------------------- unchecked runs

@given(tie_graphs(), st.integers(0, 10_000), st.booleans())
@settings(max_examples=200, deadline=None)
def test_unchecked_run_equals_checked_and_sequential(g, seed, rerandomize):
    """The unchecked run never validates its layout; it must still match
    the checked run, which does after every phase."""
    got_m, got_t = pram_local_max(g, seed, rerandomize=rerandomize)
    want_m, want_t = pram_local_max(g, seed, checked=True, rerandomize=rerandomize)
    seq_m, seq_t = local_max_seq(g, seed, rerandomize)
    assert got_m == want_m == seq_m
    assert got_t.rounds == want_t.rounds == seq_t.rounds
    assert got_t.slot_ops == want_t.slot_ops
