"""Sequential matcher semantics: hand-traceable cases plus properties."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import locmax.matchers
import locmax.tiebreak
import reference as ref
from locmax import (
    bsp_local_max,
    build_graph,
    gen_random,
    gen_rgg,
    max_weight_matching_bruteforce,
    pram_local_max,
    validate_matching,
)
from locmax.generate import with_unit_weights
from locmax.graph import matching_from_edge_ids, undominated_edges
from locmax.matchers import (
    MATCHERS,
    RbmDidNotConverge,
    _descending_key_order,
    _greedy_matching,
    gpa,
    greedy,
    hem,
    hem_random,
    local_max_seq,
    rbm,
)
from locmax.tiebreak import round_seed, vertex_coins

from test_equivalence import assert_engines_match_reference, assert_same_run

from conftest import random_graph_edges
from reference import ParityUnionFind, descending_key_order, gpa_accepted, incident_edges, tie_key


def _weights(g, matching):
    return matching.weight(g)


# ---------------------------------------------------------------- local max

def test_local_max_triangle_one_round(triangle):
    matching, trace = local_max_seq(triangle, seed=0)
    assert matching.edges.tolist() == [2]  # the weight-3 edge dominates both others
    assert trace.total_rounds == 1


def test_local_max_path_takes_middle(path4):
    matching, _ = local_max_seq(path4, seed=0)
    assert matching.edges.tolist() == [1]
    opt = max_weight_matching_bruteforce(path4).opt_weight
    assert opt == 4.0
    ratio = _weights(path4, matching) / opt
    assert ratio == 0.75
    assert ratio >= 0.5


def test_local_max_star_resolves_in_one_round(star9):
    matching, trace = local_max_seq(star9, seed=3)
    assert trace.total_rounds == 1
    assert trace.rounds[0].edges_matched == 1
    assert trace.rounds[0].edges_removed == 8
    assert len(matching.edges) == 1


def test_local_max_trace_accounts_for_every_edge():
    g = gen_random(128, 4, seed=2)
    _, trace = local_max_seq(g, seed=5)
    assert sum(r.edges_removed for r in trace.rounds) == g.num_edges
    for r in trace.rounds:
        assert r.edges_removed >= r.edges_matched


def test_local_max_round_bound():
    for seed in range(5):
        g = gen_random(1024, 4, seed=seed)
        _, trace = local_max_seq(g, seed=seed)
        assert trace.total_rounds <= 4 * math.log2(g.num_edges + 2)


def test_local_max_rerandomize_off_still_maximal_and_close():
    diffs = []
    for seed in range(5):
        g = gen_rgg(10, seed)
        m_on, _ = local_max_seq(g, seed, rerandomize=True)
        m_off, _ = local_max_seq(g, seed, rerandomize=False)
        for m in (m_on, m_off):
            check = validate_matching(g, m)
            assert check.valid and check.maximal
        w_on, w_off = _weights(g, m_on), _weights(g, m_off)
        diffs.append(abs(w_on - w_off) / w_on)
    assert sum(diffs) / len(diffs) <= 0.03


# ------------------------------------------------------------------- greedy

def test_greedy_path_takes_heaviest(path4):
    matching, _ = greedy(path4, seed=0)
    assert matching.edges.tolist() == [1]
    assert _weights(path4, matching) == 3.0


def test_greedy_triangle(triangle):
    matching, _ = greedy(triangle, seed=0)
    assert matching.edges.tolist() == [2]


def test_greedy_all_equal_weights_maximal():
    g = gen_random(64, 4, seed=1)
    unit = build_graph(
        [(u, v, 1.0) for u, v in zip(g.edge_u.tolist(), g.edge_v.tolist())],
        num_vertices=g.num_vertices,
    )
    for seed in range(3):
        matching, _ = greedy(unit, seed)
        check = validate_matching(unit, matching)
        assert check.valid and check.maximal


# ---------------------------------------------------------------------- gpa

def test_gpa_path_dp_beats_greedy(path4):
    matching, _ = gpa(path4, seed=0)
    assert matching.edges.tolist() == [0, 2]  # dp picks the two outer edges: 2+2 > 3
    assert _weights(path4, matching) == 4.0


def test_gpa_even_cycle_dp():
    g = build_graph([(0, 1, 5.0), (1, 2, 1.0), (2, 3, 5.0), (3, 0, 1.0)])
    matching, _ = gpa(g, seed=0)
    assert _weights(g, matching) == 10.0
    assert matching.edges.tolist() == [0, 2]


def test_gpa_rejects_odd_cycle(triangle):
    # scan order 3, 2, 1: the weight-1 edge would close a triangle
    matching, _ = gpa(triangle, seed=0)
    assert matching.edges.tolist() == [2]
    check = validate_matching(triangle, matching)
    assert check.valid and check.maximal


def test_gpa_sweep_restores_maximality():
    # path a-b-c-d-e (10,1,1,10) plus a chord c-f (0.5) rejected for degree:
    # the path dp alone returns {ab, de} and leaves c-f addable
    g = build_graph(
        [(0, 1, 10.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 10.0), (2, 5, 0.5)]
    )
    matching, _ = gpa(g, seed=0)
    check = validate_matching(g, matching)
    assert check.valid and check.maximal
    assert matching.edges.tolist() == [0, 3, 4]
    assert _weights(g, matching) == 20.5


def test_parity_union_find_reports_the_parity_of_x():
    # the unions build the path 0-1-5-4-3-2 with 5 -> 4 -> 2 in the tree;
    # find(5) re-links 5 to the root and must report the parity of 5's
    # distance to the root, not that of 4, the node after it
    uf = ParityUnionFind(6)
    for x, y in [(4, 5), (2, 3), (1, 5), (0, 1), (3, 4)]:
        uf.union(x, y)
    assert uf.find(5) == (2, 1)
    position = {v: i for i, v in enumerate([0, 1, 5, 4, 3, 2])}
    for v in range(6):
        root, parity = uf.find(v)
        assert root == 2 and parity == (position[v] - position[2]) % 2


def test_gpa_rejects_odd_cycle_behind_a_compressed_path():
    # by decreasing weight: 1-2, 3-5, 0-3 and 0-1 make the path 2-1-0-3-5
    # of length 4; 2-5 would close a 5-cycle and is rejected; 4-5 extends
    # the path to 4; 1-3 meets degree two. The union-find GPA used to mix
    # up parities here, accepted 2-5 and returned 13.
    g = build_graph([(1, 2, 7.0), (3, 5, 6.0), (0, 3, 5.0), (0, 1, 4.0),
                     (2, 5, 3.0), (4, 5, 2.0), (1, 3, 1.0)])
    assert gpa_accepted(g, 0) == [0, 1, 2, 3, 5]
    matching, _ = gpa(g, seed=0)
    assert matching.edges.tolist() == [0, 2, 5]  # path weights 7,4,5,6,2: take 7+5+2
    assert _weights(g, matching) == 14.0 == max_weight_matching_bruteforce(g).opt_weight


def test_gpa_never_below_oracle_half():
    for seed in range(30):
        rng = np.random.default_rng(seed)
        g = build_graph(random_graph_edges(rng, 10, 16), num_vertices=10)
        matching, _ = gpa(g, seed)
        opt = max_weight_matching_bruteforce(g).opt_weight
        if opt > 0:
            assert _weights(g, matching) / opt >= 0.5 - 1e-9


# ---------------------------------------------------------------------- hem

def test_hem_input_order_both_outer_edges(path4):
    # visiting a first: a grabs ab(2), then c grabs cd(2)
    matching, _ = hem(path4, seed=0)
    assert matching.edges.tolist() == [0, 2]
    assert _weights(path4, matching) == 4.0


def test_hem_center_first_takes_heaviest():
    # same path relabeled so the inner vertex b comes first: b grabs bc(3)
    g = build_graph([(1, 0, 2.0), (0, 2, 3.0), (2, 3, 2.0)])
    matching, _ = hem(g, seed=0)
    assert matching.edges.tolist() == [1]
    assert _weights(g, matching) == 3.0


def test_hem_isolated_vertex_skipped():
    g = build_graph([(1, 2, 1.0)], num_vertices=3)
    matching, _ = hem(g, seed=0)
    assert matching.edges.tolist() == [0]


def test_hem_random_order_still_maximal():
    g = gen_random(256, 4, seed=4)
    for seed in range(3):
        matching, _ = hem_random(g, seed)
        check = validate_matching(g, matching)
        assert check.valid and check.maximal


# ---------------------------------------------------------------------- rbm

def _find_seed(predicate, limit=500):
    for seed in range(limit):
        if predicate(seed):
            return seed
    raise AssertionError("no seed with the requested colour pattern in range")


def test_rbm_single_edge_blue_red_matches_first_round():
    g = build_graph([(0, 1, 1.0)])

    def blue_red(seed):
        coins = vertex_coins(round_seed(seed, 0), np.array([0, 1]))
        return bool(coins[0]) != bool(coins[1])

    seed = _find_seed(blue_red)
    matching, trace = rbm(g, seed)
    assert matching.edges.tolist() == [0]
    assert trace.total_rounds == 1


def test_rbm_single_edge_same_colour_defers():
    g = build_graph([(0, 1, 1.0)])

    def same(seed):
        coins = vertex_coins(round_seed(seed, 0), np.array([0, 1]))
        return bool(coins[0]) == bool(coins[1])

    seed = _find_seed(same)
    matching, trace = rbm(g, seed)
    assert trace.rounds[0].edges_matched == 0
    assert trace.total_rounds > 1
    assert matching.edges.tolist() == [0]  # matched eventually


def test_rbm_star_center_accepts_heaviest_blue_proposal():
    weights = [0.3, 0.9, 0.5, 0.7]
    g = build_graph([(0, leaf, w) for leaf, w in zip(range(1, 5), weights)])

    def center_red_some_blue(seed):
        coins = vertex_coins(round_seed(seed, 0), np.arange(5))
        return (not coins[0]) and any(coins[1:])

    seed = _find_seed(center_red_some_blue)
    coins = vertex_coins(round_seed(seed, 0), np.arange(5))
    rs = round_seed(seed, 0)
    blue_edges = [k for k in range(4) if coins[k + 1]]
    expected = max(blue_edges, key=lambda k: tie_key(k, weights[k], rs))
    matching, trace = rbm(g, seed)
    assert trace.rounds[0].edges_matched == 1
    assert expected in matching.edges.tolist()


def test_rbm_terminates_within_logarithmic_rounds():
    g = gen_random(128, 4, seed=0)
    bound = 64 * math.log2(g.num_edges + 2)
    for seed in range(100):
        matching, trace = rbm(g, seed)
        assert trace.total_rounds <= bound
        check = validate_matching(g, matching)
        assert check.valid and check.maximal
    single = build_graph([(0, 1, 1.0)])
    sbound = 64 * math.log2(3)
    for seed in range(100):
        _, trace = rbm(single, seed)
        assert trace.total_rounds <= sbound


def test_rbm_raises_once_no_live_edge_is_bichromatic_for_64_rounds(monkeypatch):
    # coins by id parity never colour the edge (0, 2) blue-red
    calls = []

    def parity(rs, ids):
        calls.append(None)
        return np.asarray(ids) % 2 == 1

    monkeypatch.setattr(locmax.matchers, "vertex_coins", parity)
    with pytest.raises(RbmDidNotConverge, match="^no bichromatic live edge in 64 rounds in a row$"):
        rbm(build_graph([(0, 2, 1.0)]), 0)
    assert len(calls) <= 2 * 64


# ------------------------------------------------------------ all matchers

@pytest.mark.parametrize("name", sorted(MATCHERS))
def test_every_matcher_handles_empty_graph(name):
    g = build_graph([], num_vertices=4)
    matching, trace = MATCHERS[name](g, 0)
    assert matching.edges.tolist() == []
    check = validate_matching(g, matching)
    assert check.valid and check.maximal


EMPTY_GRAPH_ENGINES = {
    "seq": lambda g: local_max_seq(g, 0),
    "pram": lambda g: pram_local_max(g, 0, checked=True),
    "pram-unchecked": lambda g: pram_local_max(g, 0),
    **{f"bsp-p{p}": (lambda g, p=p: bsp_local_max(g, p, 0)) for p in (1, 2, 4)},
}


@pytest.mark.parametrize("engine", sorted(EMPTY_GRAPH_ENGINES))
def test_every_engine_handles_empty_graph(engine):
    """No edges means no rounds; bsp's ledger then holds no messages."""
    g = build_graph([], num_vertices=4)
    matching, trace = EMPTY_GRAPH_ENGINES[engine](g)
    assert matching.edges.tolist() == []
    assert trace.rounds == []
    assert trace.messages == ([] if engine.startswith("bsp") else None)
    check = validate_matching(g, matching)
    assert check.valid and check.maximal


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_all_matchers_valid_and_maximal(data):
    n = data.draw(st.integers(2, 16))
    m = data.draw(st.integers(0, min(24, n * (n - 1) // 2)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    g = build_graph(random_graph_edges(rng, n, m), num_vertices=n)
    seed = data.draw(st.integers(0, 10_000))
    runs = {name: matcher(g, seed) for name, matcher in MATCHERS.items()}
    runs["pram"] = pram_local_max(g, seed, checked=True)
    for p in (1, 3):
        if p <= n:
            runs[f"bsp-p{p}"] = bsp_local_max(g, p, seed)
    for name, (matching, trace) in runs.items():
        check = validate_matching(g, matching)
        assert check.valid and check.maximal, f"{name}: {check.detail}"
        assert sum(r.edges_removed for r in trace.rounds) == g.num_edges, name
        assert sum(r.edges_matched for r in trace.rounds) == matching.size, name
        for r in trace.rounds:
            assert r.edges_removed >= r.edges_matched, name


def test_local_max_first_round_candidates_match_python_loop():
    # independent oracle for the candidate mechanism: an edge is matched in
    # round 1 iff python-loop maxima over both endpoints' incident keys
    # select it
    for seed in range(10):
        rng = np.random.default_rng(seed + 50)
        g = build_graph(random_graph_edges(rng, 12, 20), num_vertices=12)
        rs = round_seed(seed, 0)
        keys = {k: tie_key(k, float(g.edge_weight[k]), rs) for k in range(g.num_edges)}

        def candidate(v):
            incident = incident_edges(g, v).tolist()
            return max(incident, key=keys.__getitem__) if incident else None

        expect = {
            k
            for k in range(g.num_edges)
            if candidate(g.edge_u[k]) == k and candidate(g.edge_v[k]) == k
        }
        _, trace = local_max_seq(g, seed)
        matching, _ = local_max_seq(g, seed)
        if g.num_edges:
            got_round1 = trace.rounds[0].edges_matched
            assert got_round1 == len(expect)
            assert expect <= set(matching.edges.tolist())


def test_all_zero_weights_still_maximal():
    g = build_graph([(0, 1, 0.0), (1, 2, 0.0), (2, 3, 0.0), (3, 0, 0.0)])
    for name, matcher in MATCHERS.items():
        matching, _ = matcher(g, 5)
        check = validate_matching(g, matching)
        assert check.valid and check.maximal, name
        assert len(matching.edges) == 2  # a 4-cycle always pairs off fully


# ------------------------------------------------- locally dominant matchings

def dominant_runs(g, seed):
    """Greedy and local max in every engine: all must be locally dominant."""
    yield "greedy", greedy(g, seed)
    for rerandomize in (True, False):
        yield f"seq rerandomize={rerandomize}", local_max_seq(g, seed, rerandomize)
        yield f"pram rerandomize={rerandomize}", pram_local_max(g, seed, rerandomize=rerandomize)
    for p in sorted({1, min(4, g.num_vertices)} - {0}):
        yield f"bsp p={p}", bsp_local_max(g, p, seed)


@pytest.mark.parametrize("x", [6, 9, 12])
def test_greedy_and_local_max_are_locally_dominant_on_generated_graphs(x):
    for g in (gen_rgg(x, x), gen_rgg(x, x, "random"), gen_random(1 << x, 4, x),
              with_unit_weights(gen_random(1 << x, 4, x))):
        for name, (matching, _) in dominant_runs(g, x):
            assert undominated_edges(g, matching) == 0, name


def test_backward_greedy_scan_is_not_locally_dominant():
    # the certificate catches a kernel that scans lightest first
    g = gen_rgg(8, 1)
    backward = _greedy_matching(g, _descending_key_order(g, 1)[::-1])
    assert undominated_edges(g, matching_from_edge_ids(g, backward)) > 0
    assert undominated_edges(g, greedy(g, 1)[0]) == 0


def test_key_order_is_computed_once_per_graph_and_seed(monkeypatch):
    salted = []
    real = locmax.matchers.edge_salts
    monkeypatch.setattr(locmax.matchers, "edge_salts", lambda *a: salted.append(a) or real(*a))
    g = with_unit_weights(gen_random(256, 4, seed=1))  # every weight ties
    order = _descending_key_order(g, 3)
    assert len(salted) == 1 and not order.flags.writeable
    assert np.array_equal(order, descending_key_order(g, 3))
    for matcher in (greedy, gpa, hem, hem_random):  # the same graph and seed
        matcher(g, 3)
    assert len(salted) == 1 and _descending_key_order(g, 3) is order
    other_seed = _descending_key_order(g, 4)  # a different seed
    assert len(salted) == 2 and np.array_equal(other_seed, descending_key_order(g, 4))
    copy = dataclasses.replace(g)  # a new graph with the same arrays
    assert np.array_equal(_descending_key_order(copy, 4), other_seed)
    assert len(salted) == 3


# ------------------------------------------------------------------ engines

@pytest.mark.parametrize("seed", [1, 2, 3])
def test_engines_match_reference_on_unit_weights_at_scale(seed):
    """Every weight ties, so the salt stage decides at every vertex."""
    g = with_unit_weights(gen_random(2**12, 4, seed))
    for rerandomize in (True, False):
        want_m, want_t = ref.pram_local_max(g, seed, checked=True, rerandomize=rerandomize)
        got_m, got_t = pram_local_max(g, seed, checked=True, rerandomize=rerandomize)
        assert got_m == want_m and got_t.rounds == want_t.rounds
        assert got_t.slot_ops == want_t.slot_ops and got_t.write_log == want_t.write_log
        seq_m, seq_t = local_max_seq(g, seed, rerandomize)
        assert seq_m == want_m and seq_t.rounds == want_t.rounds
        for p in (1, 2, 4, 8):
            bsp_m, bsp_t = bsp_local_max(g, p, seed, rerandomize)
            ref_m, ref_t = ref.bsp_local_max(g, p, seed, rerandomize)
            assert bsp_m == ref_m == want_m
            assert bsp_t.rounds == ref_t.rounds and bsp_t.messages == ref_t.messages


def _reweighted(g, weights):
    return dataclasses.replace(g, edge_weight=np.asarray(weights, dtype=np.float64))


def _small_graphs():
    yield gen_random(2**8, 4, 5)
    yield gen_rgg(8, 5)


# exactly one edge heavier than the rest: the weight stage runs and decides
# at that edge's endpoints only
@pytest.mark.parametrize("light,heavy", [(0.0, 5e-324), (1.0, 2.5), (5e-324, 1.0)])
def test_engines_match_reference_when_one_edge_is_heavier(light, heavy):
    for g in _small_graphs():
        weights = np.full(g.num_edges, light)
        weights[g.num_edges // 3] = heavy
        g = _reweighted(g, weights)
        for seed, rerandomize in ((0, True), (1, False)):
            assert_engines_match_reference(g, seed, rerandomize)
            assert_same_run(rbm(g, seed), ref.rbm(g, seed))


# the runs that decide from the float weights whether to build weight bits
# (seq, bsp and rbm once per run, pram once per phase)
BITS_RUNS = {
    "seq": lambda g: local_max_seq(g, 3),
    "pram": lambda g: pram_local_max(g, 3, checked=True),
    "pram-unchecked": lambda g: pram_local_max(g, 3),
    "bsp": lambda g: bsp_local_max(g, 4, 3),
    "rbm": lambda g: rbm(g, 3),
}


@pytest.mark.parametrize("engine", sorted(BITS_RUNS))
def test_one_weight_builds_no_weight_bits(monkeypatch, engine):
    """On unit weights no run builds weight bits. With one heavier edge
    each run builds them once: the heavier edge wins pram's first phase,
    which leaves later phases one weight."""
    built = []
    bits = locmax.tiebreak.weight_bits

    def spy(weights):
        built.append(len(weights))
        return bits(weights)

    monkeypatch.setattr(locmax.tiebreak, "weight_bits", spy)
    g = with_unit_weights(gen_random(2**8, 4, 6))
    BITS_RUNS[engine](g)
    assert built == []
    weights = np.ones(g.num_edges)
    weights[7] = 2.0
    BITS_RUNS[engine](_reweighted(g, weights))
    assert built == [g.num_edges]


def _no_flags(cand, ends, wbits, salts):
    return np.empty(0, dtype=np.int64)


# engine: (module, the kernel it calls, a broken kernel under which nothing
# wins, the run, kernel calls per round, the round loop named in the error).
# bsp runs seq's rounds, so its row checks that the error passes through;
# pram runs seq's round under its own guard; rbm calls the kernel to propose
# and to accept.
NOTHING_WINS = {
    "seq": (locmax.matchers, "_raise_candidates", _no_flags,
            lambda g: local_max_seq(g, 1), 1, "seq"),
    "pram": (locmax.matchers, "_raise_candidates", _no_flags,
             lambda g: pram_local_max(g, 1, checked=True), 1, "pram"),
    "pram-unchecked": (locmax.matchers, "_raise_candidates", _no_flags,
                       lambda g: pram_local_max(g, 1), 1, "pram"),
    "bsp": (locmax.matchers, "_raise_candidates", _no_flags,
            lambda g: bsp_local_max(g, 4, 1), 1, "seq"),
    "rbm": (locmax.matchers, "_raise_candidates", _no_flags, lambda g: rbm(g, 1), 2, "rbm"),
}


@pytest.mark.parametrize("engine", sorted(NOTHING_WINS))
def test_round_that_matches_nothing_raises(monkeypatch, engine):
    """The heaviest live edge always wins its round (in rbm, a round with a
    bichromatic live edge matches one), so a round with live edges that
    matches nothing is a defect: the engine raises at once instead of
    running the same round forever."""
    module, name, broken, run, per_round, prefix = NOTHING_WINS[engine]
    calls = []

    def kernel(*args):
        calls.append(None)
        assert len(calls) <= 3 * per_round, "rounds that match nothing went on"
        return broken(*args)

    monkeypatch.setattr(module, name, kernel)
    g = with_unit_weights(gen_random(64, 2, seed=1))
    with pytest.raises(RuntimeError, match=f"^{prefix}: round 0 matched none of {g.num_edges} "):
        run(g)
    assert len(calls) == per_round
