"""Generator families: exact counts, determinism, grid-hash correctness."""

from __future__ import annotations

import math

import numpy as np
import pytest

from locmax import assert_graph_invariants, gen_random, gen_rgg, rgg_threshold
from locmax.generate import radius_edges_grid, with_unit_weights


def _edge_set(g):
    return {
        (min(u, v), max(u, v))
        for u, v in zip(g.edge_u.tolist(), g.edge_v.tolist())
    }


def test_random_exact_edge_count_and_weight_range():
    g = gen_random(2**10, 4, seed=1)
    assert g.num_vertices == 1024
    assert g.num_edges == 4096
    assert np.all(g.edge_weight >= 0.0) and np.all(g.edge_weight < 1.0)
    assert len(_edge_set(g)) == 4096  # simple: no duplicates survived
    assert_graph_invariants(g)


@pytest.mark.parametrize("n", [1, 0, -4])
def test_random_rejects_fewer_than_two_vertices(n):
    with pytest.raises(ValueError, match="^n must be >= 2$"):
        gen_random(n, 1, seed=0)


def test_random_infeasible_density_rejected():
    with pytest.raises(ValueError, match="infeasible"):
        gen_random(4, 2, seed=0)  # 8 edges requested, only 6 pairs exist
    for alpha in (0, -1):  # no edges requested
        with pytest.raises(ValueError, match="alpha must be a positive integer"):
            gen_random(256, alpha, seed=0)


def test_random_deterministic_per_seed():
    a = gen_random(256, 4, seed=9)
    b = gen_random(256, 4, seed=9)
    assert np.array_equal(a.edge_u, b.edge_u)
    assert np.array_equal(a.edge_v, b.edge_v)
    assert np.array_equal(a.edge_weight, b.edge_weight)
    c = gen_random(256, 4, seed=10)
    assert _edge_set(a) != _edge_set(c)


def test_random_dense_request_uses_exact_sampler():
    g = gen_random(8, 3, seed=2)  # 24 of 28 pairs
    assert g.num_edges == 24
    assert len(_edge_set(g)) == 24


@pytest.mark.parametrize("n,m", [(64, 128), (200, 600)])
def test_random_no_self_loops_or_duplicates(n, m):
    g = gen_random(n, m // n, seed=3)
    assert np.all(g.edge_u != g.edge_v)
    assert len(_edge_set(g)) == g.num_edges


def test_random_set_oracle_at_64k_edges():
    g = gen_random(2**12, 16, seed=0)  # 65536 edges
    assert g.num_edges == 2**16
    assert np.all(g.edge_u != g.edge_v)
    assert len(_edge_set(g)) == g.num_edges


def test_rgg_mean_degree_near_expectation():
    # expected degree is about pi * r^2 * n, around 6.5 at x=10
    degs = []
    for seed in range(5):
        g = gen_rgg(10, seed)
        degs.append(2 * g.num_edges / g.num_vertices)
    mean = sum(degs) / len(degs)
    assert 4.0 <= mean <= 9.0


def _tiny_radius_points(r):
    """Two close pairs (one at distance 0) and, where 1/r is finite, three
    close points about the row where the cell id x * s + y of a grid with
    s = floor(1/r) cells per side passes 2**63."""
    pts = [[0.7 - r / 4, 0.5], [0.7 + r / 4, 0.5], [0.9, 0.9], [0.9, 0.9]]
    if math.isfinite(1 / r):
        s = math.floor(1 / r)
        x, y = (2**63 // s + 0.5) / s, (2**63 % s) / s
        pts += [[x, y - r / 4], [x, y + r / 4], [x + r / 4, y]]
    return np.array(pts)


@pytest.mark.parametrize("r", [1e-10, 3e-10, 1e-15, 5e-324])
def test_grid_keeps_pairs_at_tiny_radii(r):
    # 1/r cells per side would overflow int64 cell ids; the grid caps them
    u, v, _ = radius_edges_grid(_tiny_radius_points(r), r)
    want = {(0, 1), (2, 3), (4, 5), (4, 6), (5, 6)} if r * r > 0 else set()
    assert set(zip(u.tolist(), v.tolist())) == want


def test_rgg_boundary_is_strict():
    # distance exactly r: sqrt(0.25^2) is exact in binary floating point
    pts = np.array([[0.0, 0.0], [0.25, 0.0], [0.1, 0.5]])
    u, v, _ = radius_edges_grid(pts, 0.25)
    pairs = set(zip(u.tolist(), v.tolist()))
    assert (0, 1) not in pairs


def test_rgg_deterministic_and_validates():
    a = gen_rgg(8, 5)
    b = gen_rgg(8, 5)
    assert np.array_equal(a.edge_u, b.edge_u)
    assert np.array_equal(a.edge_weight, b.edge_weight)
    assert_graph_invariants(a)


def test_rgg_euclidean_weights_are_distances():
    g = gen_rgg(8, 3, weight_mode="euclidean")
    r = rgg_threshold(g.num_vertices)
    assert np.all(g.edge_weight < r)
    assert np.all(g.edge_weight > 0)


def test_rgg_random_weights_differ_from_distances():
    ge = gen_rgg(8, 3, weight_mode="euclidean")
    gr = gen_rgg(8, 3, weight_mode="random")
    assert _edge_set(ge) == _edge_set(gr)  # same structure, different weights
    assert not np.allclose(np.sort(ge.edge_weight), np.sort(gr.edge_weight))


def test_rgg_rejects_small_x_and_bad_mode():
    with pytest.raises(ValueError):
        gen_rgg(1, 0)
    with pytest.raises(ValueError):
        gen_rgg(4, 0, weight_mode="unit")


def test_unit_weights_override():
    g = with_unit_weights(gen_random(64, 4, seed=0))
    assert np.all(g.edge_weight == 1.0)
    assert g.num_edges == 256
