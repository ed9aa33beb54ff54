"""Shared fixtures, a random edge-list helper and the local-dominance count."""

from __future__ import annotations

import numpy as np
import pytest

from locmax import Graph, Matching, build_graph


@pytest.fixture
def triangle() -> Graph:
    # weights 1, 2, 3 on edges (0,1), (1,2), (0,2)
    return build_graph([(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)])


@pytest.fixture
def path4() -> Graph:
    # a-b-c-d with weights 2, 3, 2
    return build_graph([(0, 1, 2.0), (1, 2, 3.0), (2, 3, 2.0)])


@pytest.fixture
def star9() -> Graph:
    # K_{1,8}, unit weights, center 0
    return build_graph([(0, leaf, 1.0) for leaf in range(1, 9)])


def random_graph_edges(rng: np.random.Generator, n: int, m: int) -> list[tuple[int, int, float]]:
    """Simple random edge list, possibly with weight ties."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    m = min(m, len(pairs))
    idx = rng.choice(len(pairs), size=m, replace=False)
    tie_heavy = rng.random() < 0.5
    edges = []
    for i in idx:
        u, v = pairs[int(i)]
        w = float(rng.integers(1, 4)) if tie_heavy else float(rng.random())
        edges.append((u, v, w))
    return edges


def undominated_edges(g: Graph, matching: Matching) -> int:
    """Count the edges heavier than the matched edge at both their endpoints
    (weight 0 at an unmatched endpoint).

    0 means the matching is locally dominant: the matched weight at each
    vertex is then a feasible dual of the fractional matching LP with value
    2 w(M), which certifies w(M) >= OPT/2 (Preis 1999).
    """
    at = np.zeros(g.num_vertices)
    ids = matching.edges
    at[g.edge_u[ids]] = at[g.edge_v[ids]] = g.edge_weight[ids]
    w = g.edge_weight
    return int(np.count_nonzero((w > at[g.edge_u]) & (w > at[g.edge_v])))
