"""Adjacency-array construction and matching validation."""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import locmax.graph
from locmax import (
    Graph,
    Matching,
    assert_graph_invariants,
    bsp_local_max,
    build_graph,
    build_graph_arrays,
    gen_random,
    gen_rgg,
    gpa,
    greedy,
    hem,
    local_max_seq,
    matching_from_edge_ids,
    pram_local_max,
    pram_phase,
    rbm,
    read_graph,
    round_seed,
    validate_matching,
    write_edge_list,
)
from locmax.generate import with_unit_weights
from locmax.oracle import random_audit_instance

from conftest import random_graph_edges
from reference import assemble, check_progress, incident_edges, laid_out
from test_equivalence import GRAPH_ARRAYS, tie_graphs


def test_single_edge_layout():
    g = build_graph([(0, 1, 1.0)], num_vertices=2)
    assert g.offsets.tolist() == [0, 1, 2]
    assert g.slot_vertex.tolist() == [0, 1]
    assert g.slot_edge.tolist() == [0, 0]
    assert g.endpoints(0) == (0, 1)
    assert g.edge_weight.tolist() == [1.0]


def test_triangle_layout(triangle):
    assert triangle.offsets.tolist() == [0, 2, 4, 6]
    counts = np.bincount(triangle.slot_edge, minlength=3)
    assert counts.tolist() == [2, 2, 2]
    assert_graph_invariants(triangle)


def test_self_loop_dropped():
    g = build_graph([(0, 1, 1.0), (3, 3, 5.0)], num_vertices=4)
    assert g.num_edges == 1
    assert g.num_vertices == 4


def test_parallel_edges_keep_heaviest():
    g = build_graph([(0, 1, 1.0), (1, 0, 4.0), (0, 1, 4.0)])
    assert g.num_edges == 1
    assert g.edge_weight.tolist() == [4.0]
    # tie between the two 4.0 entries resolves to the earlier one: (1, 0)
    assert g.endpoints(0) == (1, 0)


def test_isolated_vertices_allowed():
    g = build_graph([(0, 1, 1.0)], num_vertices=5)
    assert g.num_vertices == 5
    assert g.offsets[4] == g.offsets[5]  # vertex 4 has no slots
    assert_graph_invariants(g)


@pytest.mark.parametrize(
    "bad",
    [
        [(0, 1, float("nan"))],
        [(0, 1, -1.0)],
        [(0, 1, float("inf"))],
        [(-1, 1, 1.0)],
    ],
)
def test_rejects_bad_weights_and_ids(bad):
    with pytest.raises(ValueError):
        build_graph(bad)


def test_rejects_out_of_range_id():
    with pytest.raises(ValueError, match="out of range"):
        build_graph([(0, 7, 1.0)], num_vertices=4)


def test_rejects_arrays_of_unequal_length():
    with pytest.raises(ValueError, match="^u, v and w must be 1-d arrays of equal length$"):
        build_graph_arrays([0, 1], [1, 2], [1.0])


@pytest.mark.parametrize("n", [10**18, 3_037_000_500])
def test_rejects_vertex_counts_past_int64_pair_keys(n):
    # 3,037,000,500^2 > 2^63: the pair key of the largest vertex would wrap
    message = f"^n={n} vertices is too many: vertex-pair keys need n\\*n <= 2\\*\\*63$"
    for count in (n, np.int64(n)):  # an int64 n*n would wrap
        with pytest.raises(ValueError, match=message):
            build_graph_arrays([0], [1], [1.0], num_vertices=count)
    with pytest.raises(ValueError, match=message):
        build_graph_arrays([0], [n - 1], [1.0])  # n inferred from the largest id


def test_rejects_edge_counts_past_int64_slot_keys(monkeypatch):
    # at the real limit this needs billions of edges; a limit of 16 keys
    # lets K4 (n*n = 16) show the check, after parallel edges merge
    monkeypatch.setattr(locmax.graph, "_KEY_LIMIT", 16)
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]
    u, v = zip(*pairs)
    with pytest.raises(ValueError, match=r"^n=4 vertices and m=5 edges are too many: "
                                         r"slot keys need n\*m <= 2\*\*63$"):
        build_graph_arrays(u, v, [1.0] * 5)
    g = build_graph_arrays((*u[:4], 1), (*v[:4], 0), [1.0] * 5)  # (1, 0) merges into (0, 1)
    assert (g.num_vertices, g.num_edges) == (4, 4)


def test_empty_graph():
    g = build_graph([])
    assert g.num_vertices == 0
    assert g.num_edges == 0
    assert_graph_invariants(g)


def test_slots_reproduce_incidence_multiset(triangle):
    seen = set()
    for v in range(triangle.num_vertices):
        for k in incident_edges(triangle, v).tolist():
            seen.add((v, k))
    expected = set()
    for k in range(triangle.num_edges):
        u, v = triangle.endpoints(k)
        expected.add((u, k))
        expected.add((v, k))
    assert seen == expected


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_slot_ranges_match_edge_incidence(data):
    n = data.draw(st.integers(2, 14))
    m = data.draw(st.integers(0, min(20, n * (n - 1) // 2)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    g = build_graph(random_graph_edges(rng, n, m), num_vertices=n)
    assert_graph_invariants(g)
    incidence = [(v, k) for v in range(n) for k in incident_edges(g, v).tolist()]
    expected = [(u, k) for k in range(g.num_edges) for u in g.endpoints(k)]
    assert sorted(incidence) == sorted(expected)


def test_validate_triangle_max_edge(triangle):
    m = matching_from_edge_ids(triangle, [2])  # the weight-3 edge {0, 2}
    check = validate_matching(triangle, m)
    assert check.valid and check.maximal


def test_validate_path_prefix_not_maximal(path4):
    m = matching_from_edge_ids(path4, [0])  # ab only; cd is still addable
    check = validate_matching(path4, m)
    assert check.valid and not check.maximal


def test_validate_rejects_shared_endpoint(path4):
    mate = np.full(4, -1, dtype=np.int64)
    m = Matching(np.array([0, 1]), mate)  # ab and bc share b
    check = validate_matching(path4, m)
    assert not check.valid and not check.maximal


def test_validate_names_the_vertex_two_matched_edges_share(path4):
    mate = np.array([1, 0, 1, -1])  # right for ab; bc shares b
    check = validate_matching(path4, Matching(np.array([0, 1]), mate))
    assert check == (False, False, "vertex shared by two matched edges (edge 1)")


def test_validate_rejects_a_mate_table_of_the_wrong_length(path4):
    check = validate_matching(path4, Matching(np.array([0]), np.array([1, 0, -1])))
    assert check == (False, False, "mate table has wrong length")


def test_validate_rejects_inconsistent_mate(path4):
    mate = np.full(4, -1, dtype=np.int64)
    m = Matching(np.array([0]), mate)  # edge listed but mate table empty
    assert not validate_matching(path4, m).valid


def test_matching_edges_sorted_read_only_whatever_the_input_order():
    g = build_graph([(2 * i, 2 * i + 1, 1.0) for i in range(6)])
    ids = np.array([4, 0, 5, 2], dtype=np.int64)
    base = matching_from_edge_ids(g, ids)
    rng = np.random.default_rng(3)
    for order in [ids[::-1], ids.tolist(), *(rng.permutation(ids) for _ in range(5))]:
        m = matching_from_edge_ids(g, order)
        assert m == base and hash(m) == hash(base)
        given = np.array(order)
        direct = Matching(given, base.mate)
        given[0] = 1  # the matching keeps its own copy
        assert direct == base and hash(direct) == hash(base)
        for got in (m, direct):
            assert got.edges.tolist() == [0, 2, 4, 5]
            assert got.edges.dtype == np.int64 and not got.edges.flags.writeable
            with pytest.raises(ValueError):
                got.edges[0] = 1
    assert matching_from_edge_ids(g, [0, 2, 4]) != base
    assert Matching(ids, np.full(12, -1, dtype=np.int64)) != base


def _pair_graph(us, vs) -> Graph:
    # edges between vertices 0 and 1, or loops at 0, laid out by hand:
    # build_graph would drop the loops and merge the pairs
    slots = sorted((x, k) for k in range(len(us)) for x in (us[k], vs[k]))
    slot_vertex = np.array([x for x, _ in slots])
    offsets = np.concatenate(([0], np.cumsum(np.bincount(slot_vertex, minlength=2))))
    return laid_out(2, offsets, slot_vertex, np.array([k for _, k in slots]),
                    np.array(us), np.array(vs), np.ones(len(us)))


@pytest.mark.parametrize("fields, message", [
    ({"offsets": [0, 1, 2, 4]}, "offsets must have length n\\+1"),
    ({"offsets": [0, 1, 2, 3, 3]}, "offsets must start at 0 and end at 2m"),
    ({"offsets": [0, 2, 1, 3, 4]}, "offsets must be nondecreasing"),
    ({"slot_vertex": [0, 1, 2]}, "slot arrays must have length 2m"),
    ({"slot_edge": [0, 0, 0, 1]}, "every edge id must appear in exactly two slots"),
    ({"edge_v": [2, 3]}, "slot owners disagree with edge endpoints"),
    ({"edge_weight": [1.0, np.nan]}, "weights must be finite and >= 0"),
    ({"edge_weight": [-1.0, 2.0]}, "weights must be finite and >= 0"),
    # edge 0 keeps both its slots at vertex 0 and edge 1 both at vertex 3
    ({"slot_vertex": [0, 0, 3, 3]}, "slot_vertex disagrees with the offsets segmentation"),
    # slot 1 sits at vertex 2, neither end of edge 0
    ({"slot_vertex": [0, 2, 2, 3]}, "slot_vertex disagrees with the offsets segmentation"),
    *(({"slot_edge": [e, 0, 1, 1]}, "slot_edge references an edge id out of range")
      for e in (-1, -6, 2, 7)),
    # each id twice and each slot at an end of some edge, but edge 0's sit at 0 and 2
    ({"slot_edge": [0, 1, 0, 1]}, "slot owners disagree with edge endpoints"),
], ids=["offsets-length", "offsets-ends", "offsets-order", "slot-length", "edge-slot-count",
        "slot-owners", "nan-weight", "negative-weight", "both-slots-at-one-end",
        "slot-at-neither-end", *(f"slot-edge-{e}" for e in (-1, -6, 2, 7)),
        "slot-edges-interleaved"])
def test_invariants_reject_each_inconsistent_layout(fields, message):
    # edges (0, 1) and (2, 3): offsets [0, 1, 2, 3, 4], slot_edge [0, 0, 1, 1]
    g = build_graph([(0, 1, 1.0), (2, 3, 2.0)])
    assert_graph_invariants(g)
    arrays = {name: getattr(g, name) for name in GRAPH_ARRAYS}
    arrays.update((name, np.array(value)) for name, value in fields.items())
    bad = laid_out(g.num_vertices, **arrays)
    with pytest.raises(ValueError, match=f"^{message}$"):
        assert_graph_invariants(bad)


def test_invariants_reject_self_loops_and_parallel_edges():
    assert_graph_invariants(_pair_graph([0], [1]))
    with pytest.raises(ValueError, match="^self-loop present$"):
        assert_graph_invariants(_pair_graph([0], [0]))
    with pytest.raises(ValueError, match="^duplicate edge pair present$"):
        assert_graph_invariants(_pair_graph([0, 1], [1, 0]))


# ----------------------------------------------------------- lazy layout

LAYOUT = ("offsets", "slot_vertex", "slot_edge")
#: the names under which a Graph caches its layout: the slot arrays share one sort
CACHED = {"offsets", "_slots"}


def assert_lazy_layout(g, first: str) -> None:
    """``g`` has computed none of its layout; reading it, ``first`` array
    first, gives the eager reference's arrays bit for bit, int64, read-only
    and cached."""
    assert not vars(g).keys() & CACHED
    got = {name: getattr(g, name) for name in (first, *LAYOUT)}
    want = assemble(g.edge_u, g.edge_v, g.edge_weight, g.num_vertices)
    for name in LAYOUT:
        a = got[name]
        assert a.dtype == np.int64 and not a.flags.writeable, name
        assert np.array_equal(a, getattr(want, name)), name
        assert getattr(g, name) is a, name
    assert vars(g).keys() >= CACHED


@given(tie_graphs(), st.sampled_from(LAYOUT))
@settings(max_examples=200, deadline=None)
def test_lazy_layout_of_built_and_read_graphs_equals_the_reference(g, first):
    assert_lazy_layout(g, first)
    for name in LAYOUT:
        assert_lazy_layout(build_graph_arrays(g.edge_u, g.edge_v, g.edge_weight, g.num_vertices),
                           name)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.txt"
        write_edge_list(g, path)
        mtx = Path(tmp) / "g.mtx"
        n, keep = g.num_vertices, g.edge_weight > 0  # the .mtx reader drops zero entries
        mtx.write_text(f"%%MatrixMarket matrix coordinate real symmetric\n{n} {n} {keep.sum()}\n"
                       + "".join(f"{v + 1} {u + 1} {w!r}\n" for u, v, w in zip(
                           g.edge_u[keep].tolist(), g.edge_v[keep].tolist(),
                           g.edge_weight[keep].tolist())))
        for name in LAYOUT:
            assert_lazy_layout(read_graph(path), name)
            assert_lazy_layout(read_graph(mtx), name)


@pytest.mark.parametrize("first", LAYOUT)
def test_lazy_layout_of_generated_graphs_equals_the_reference(first):
    for seed in range(3):
        for mode in ("euclidean", "random"):
            assert_lazy_layout(gen_rgg(7, seed, mode), first)
        assert_lazy_layout(gen_random(128, 4, seed), first)  # sparse rejection sampling
        assert_lazy_layout(gen_random(16, 4, seed), first)   # dense pair sampling
        assert_lazy_layout(with_unit_weights(gen_random(64, 2, seed)), first)
    for t in range(200):
        assert_lazy_layout(random_audit_instance(np.random.default_rng((3, t))), first)


@given(tie_graphs(), st.integers(0, 2**32), st.booleans(), st.sampled_from(LAYOUT))
@settings(max_examples=100, deadline=None)
def test_lazy_layout_of_every_pram_rest_equals_the_reference(g, seed, rerandomize, first):
    orig, rnd, m = np.arange(g.num_edges), 0, g.num_edges
    while g.num_edges:
        before = g.num_edges
        matched, g, orig = pram_phase(g, orig, round_seed(seed, rnd, rerandomize))
        check_progress(rnd, before, matched, m)
        assert_lazy_layout(g, first)
        rnd += 1


# (matcher, whether it may read the offsets); every other array is unread
HOT_PATHS = {
    "seq": (lambda g: local_max_seq(g, 1), False),
    "pram": (lambda g: pram_local_max(g, 1), False),
    "bsp": (lambda g: bsp_local_max(g, 4, 1), True),
    "rbm": (lambda g: rbm(g, 1), False),
    "greedy": (lambda g: greedy(g, 1), False),
    "gpa": (lambda g: gpa(g, 1), False),
    "hem": (lambda g: hem(g, 1), False),
}


@pytest.mark.parametrize("name", HOT_PATHS)
def test_no_hot_path_lays_out_the_slots(name):
    run, reads_offsets = HOT_PATHS[name]
    for g in (gen_random(512, 4, seed=2), with_unit_weights(gen_rgg(9, 2))):
        run(g)
        assert vars(g).keys() & CACHED == ({"offsets"} if reads_offsets else set())


