"""Adjacency-array construction and matching validation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locmax import (
    Matching,
    assert_graph_invariants,
    build_graph,
    matching_from_edge_ids,
    validate_matching,
)

from conftest import random_graph_edges
from reference import incident_edges


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
