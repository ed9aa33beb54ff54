"""Parallel-phase engine: cross pointers, compaction, equivalence."""

from __future__ import annotations

import dataclasses

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
from locmax.generate import with_unit_weights
from locmax.pram import (
    PramState,
    WriteLog,
    compaction_addresses,
    compute_cross_pointers,
    pram_phase,
)
from locmax.tiebreak import round_seed

from test_equivalence import tie_graphs


def _state(g):
    s = PramState.from_graph(g)
    compute_cross_pointers(s)
    return s


# ------------------------------------------------------------ cross pointers

def test_cross_single_edge():
    s = _state(build_graph([(0, 1, 1.0)]))
    assert s.cross.tolist() == [1, 0]


def test_cross_matches_naive_partner_search(triangle):
    s = _state(triangle)
    for p in range(s.num_slots):
        partners = [
            q
            for q in range(s.num_slots)
            if q != p and s.slot_edge[q] == s.slot_edge[p]
        ]
        assert partners == [s.cross[p]]


def test_cross_is_involution_on_random_graph():
    g = gen_random(128, 4, seed=1)
    s = _state(g)
    s.check_consistent()


def test_cross_logs_no_conflicts(triangle):
    log = WriteLog()
    s = PramState.from_graph(triangle)
    compute_cross_pointers(s, log)
    assert log.conflicts == 0
    # one step writes the 2m edge cells, one writes the 2m slot pointers
    assert log.steps == 2
    assert log.writes == 4 * triangle.num_edges


def test_cross_rejects_inconsistent_incidence(triangle):
    s = PramState.from_graph(triangle)
    bad = s.slot_edge.copy()
    where = int(np.nonzero(bad != 1)[0][0])
    bad[where] = 1  # edge 1 now referenced three times, another only once
    s.slot_edge = bad
    with pytest.raises(ValueError, match="inconsistent"):
        compute_cross_pointers(s)


@pytest.mark.parametrize("slot_vertex, clashing_cells", [
    # each edge is referenced twice and m slots sit at a smaller endpoint,
    # but edge 0 has both slots at vertex 0 and edge 1 both at vertex 3
    ([0, 0, 3, 3], [0, 3]),
    # edge 0's first slot sits at neither endpoint, so it claims the larger side
    ([2, 1, 2, 3], [1]),
])
def test_cross_rejects_two_slots_on_one_side(slot_vertex, clashing_cells):
    s = PramState.from_graph(build_graph([(0, 1, 1.0), (2, 3, 2.0)]))
    s.slot_vertex = np.array(slot_vertex)
    log = WriteLog()
    with pytest.raises(ValueError, match="inconsistent"):
        compute_cross_pointers(s, log)
    # cell 2e belongs to edge e's slot at its smaller endpoint, 2e + 1 to the other
    assert [cell for _, _, cell in log.samples] == clashing_cells


def test_cross_rejects_slot_at_neither_end():
    # slot 1 sits at vertex 2, neither end of edge 0, yet it claims edge 0's
    # larger side, so every cell is written exactly once
    s = PramState.from_graph(build_graph([(0, 1, 1.0), (2, 3, 2.0)]))
    assert s.slot_edge.tolist() == [0, 0, 1, 1]
    s.slot_vertex = np.array([0, 2, 2, 3])
    with pytest.raises(ValueError, match="inconsistent incidence: a slot sits at neither end"):
        compute_cross_pointers(s)


@pytest.mark.parametrize("bad_edge", [-1, -6, 3, 7])
def test_cross_rejects_slot_edge_ids_out_of_range(triangle, bad_edge):
    s = PramState.from_graph(triangle)
    s.slot_edge = s.slot_edge.copy()
    s.slot_edge[0] = bad_edge
    with pytest.raises(ValueError):
        compute_cross_pointers(s)


def _slots_of_two_edges(s):
    return (np.flatnonzero(s.slot_edge == e) for e in (0, 1))


def _swap_partners(s):
    a, b = _slots_of_two_edges(s)
    s.cross[a[0]], s.cross[b[0]] = s.cross[b[0]], s.cross[a[0]]


def _pair_across_edges(s):
    a, b = _slots_of_two_edges(s)
    s.cross[a], s.cross[b] = b[::-1], a[::-1]


def _point_at_self(s):
    s.cross = np.arange(s.num_slots)


def _flip_min_side(s):
    s.min_side = ~s.min_side


@pytest.mark.parametrize("corrupt, message", [
    (_swap_partners, "not an involution"),
    (_pair_across_edges, "leaves its edge"),
    (_point_at_self, "fails to switch endpoints"),
    (_flip_min_side, "min-side slot marks disagree"),
])
def test_check_consistent_rejects_bad_pointers(triangle, corrupt, message):
    s = _state(triangle)
    s.check_consistent()
    corrupt(s)
    with pytest.raises(ValueError, match=message):
        s.check_consistent()


def _states_after_every_phase(g, seed):
    """The unchecked run's state on the input graph and after each phase."""
    state = _state(g)
    yield state
    round_index = 0
    while state.num_edges:
        pram_phase(state, round_seed(seed, round_index))
        yield state
        round_index += 1


def test_write_log_counts_conflicts_when_present():
    log = WriteLog()
    log.record("demo", "cells", np.array([3, 4, 3, 3]))
    assert log.conflicts == 2  # three writers on cell 3 -> two too many
    assert log.samples[0] == ("demo", "cells", 3)


# ------------------------------------------------------------------ phases

def test_compaction_addresses_frozen_example():
    flags = np.array([1, 0, 1, 1, 0, 0])
    assert np.cumsum(flags).tolist() == [1, 1, 2, 3, 3, 3]
    addresses = compaction_addresses(flags)
    survivors = {k: int(addresses[k]) for k in (1, 4, 5)}
    assert survivors == {1: 0, 4: 1, 5: 2}


def test_phase_on_triangle_clears_graph(triangle):
    s = _state(triangle)
    matched = pram_phase(s, round_seed(0, 0))
    assert matched.tolist() == [2]  # the weight-3 edge
    assert s.num_edges == 0
    assert s.num_slots == 0
    s.check_consistent()


def test_phase_matches_sequential_first_round():
    from locmax.tiebreak import edge_salts, key_ranks

    for seed in range(5):
        g = gen_random(256, 4, seed=seed)
        s = _state(g)
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


# ------------------------------------------ carried cross pointers (unchecked)

@given(tie_graphs(), st.integers(0, 10_000), st.booleans())
@settings(max_examples=200, deadline=None)
def test_unchecked_run_equals_checked_and_sequential(g, seed, rerandomize):
    """The unchecked run carries its cross pointers through compaction and
    never recomputes them; it must still match the checked run, which does."""
    got_m, got_t = pram_local_max(g, seed, rerandomize=rerandomize)
    want_m, want_t = pram_local_max(g, seed, checked=True, rerandomize=rerandomize)
    seq_m, seq_t = local_max_seq(g, seed, rerandomize)
    assert got_m == want_m == seq_m
    assert got_t.rounds == want_t.rounds == seq_t.rounds
    assert got_t.slot_ops == want_t.slot_ops


def _assert_carried_pointers_after_every_phase(g, seed):
    for phases, state in enumerate(_states_after_every_phase(g, seed)):
        fresh = dataclasses.replace(state)
        compute_cross_pointers(fresh)
        assert np.array_equal(state.cross, fresh.cross)
        assert np.array_equal(state.min_side, fresh.min_side)
    return phases


@given(tie_graphs(), st.integers(0, 10_000))
@settings(max_examples=200, deadline=None)
def test_carried_cross_pointers_equal_recomputed_ones(g, seed):
    _assert_carried_pointers_after_every_phase(g, seed)


@pytest.mark.parametrize("seed", [0, 1])
def test_carried_cross_pointers_over_many_phases(seed):
    g = with_unit_weights(gen_random(2**10, 4, seed))
    assert _assert_carried_pointers_after_every_phase(g, seed) >= 4


def test_checked_phase_rejects_carried_pointers_that_disagree():
    # two copies of a path whose middle edge (weight 1) wins at neither end
    # and survives the first phase, while its neighbours die
    path = [(0, 1, 5.0), (1, 2, 4.0), (2, 3, 1.0), (3, 4, 4.0), (4, 5, 5.0)]
    g = build_graph(path + [(u + 6, v + 6, w) for u, v, w in path])
    s = _state(g)
    pram_phase(s, round_seed(0, 0), WriteLog())
    assert s.num_edges == 2

    s = _state(g)  # pair the slots of one middle edge with those of the other
    a, b = (np.flatnonzero(s.slot_edge == int(np.flatnonzero(g.edge_u == u)[0])) for u in (2, 8))
    s.cross[a], s.cross[b] = b[::-1], a[::-1]
    with pytest.raises(RuntimeError, match="carried cross pointers"):
        pram_phase(s, round_seed(0, 0), WriteLog())
