"""Brute-force optimum oracle and matcher audits."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locmax import build_graph, gen_random, local_max_seq, max_weight_matching_bruteforce
from locmax.graph import Matching, matching_from_edge_ids, undominated_edges
from locmax.bench import approximation_audit
from locmax.matchers import MATCHERS
from locmax.oracle import random_audit_instance

import reference as ref
from conftest import random_graph_edges


def test_path_optimum_is_outer_pair(path4):
    # the five matchings of a 3-edge path weigh 0, 2, 3, 2 and 2+2
    res = max_weight_matching_bruteforce(path4)
    assert res.opt_weight == 4.0
    assert res.opt_edges == (0, 2)


def test_triangle_optimum_single_edge(triangle):
    res = max_weight_matching_bruteforce(triangle)
    assert res.opt_weight == 3.0
    assert len(res.opt_edges) == 1


def test_empty_graph_optimum_zero():
    res = max_weight_matching_bruteforce(build_graph([]))
    assert res.opt_weight == 0.0
    assert res.opt_edges == ()


def test_oracle_caps_instance_size():
    g = gen_random(16, 2, seed=0)  # 32 edges
    with pytest.raises(ValueError, match="too large"):
        max_weight_matching_bruteforce(g)


def test_oracle_matches_reference_search():
    for t in range(2000):
        g = random_audit_instance(np.random.default_rng((5, t)))
        got, want = max_weight_matching_bruteforce(g), ref.max_weight_matching_bruteforce(g)
        assert got.opt_weight.hex() == want.opt_weight.hex()  # the same bits
        assert got.opt_edges == want.opt_edges
        assert got.instances_enumerated == want.instances_enumerated


@given(st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_oracle_invariant_under_edge_order(seed):
    rng = np.random.default_rng(seed)
    edges = random_graph_edges(rng, int(rng.integers(2, 10)), int(rng.integers(0, 14)))
    g1 = build_graph(edges)
    perm = list(edges)
    rng.shuffle(perm)
    g2 = build_graph(perm)
    a = max_weight_matching_bruteforce(g1)
    b = max_weight_matching_bruteforce(g2)
    assert math.isclose(a.opt_weight, b.opt_weight, rel_tol=0, abs_tol=1e-12)


@given(st.integers(0, 2**32))
@settings(max_examples=30, deadline=None)
def test_oracle_dominates_every_matcher(seed):
    rng = np.random.default_rng(seed)
    g = random_audit_instance(rng)
    opt = max_weight_matching_bruteforce(g)
    for name, matcher in MATCHERS.items():
        matching, _ = matcher(g, seed % 1000)
        assert matching.weight(g) <= opt.opt_weight + 1e-9, name


def test_audit_counts_matchings_that_are_not_locally_dominant(salt_only):
    # picking by salt alone rarely drops below 1/2 of the optimum, but it
    # often leaves an edge heavier than the matched edges at both its ends
    below_half = undominated = violations = 0
    for t in range(200):
        g = random_audit_instance(np.random.default_rng((0, t)))
        matching, _ = local_max_seq(g, t)
        opt = max_weight_matching_bruteforce(g).opt_weight
        below = opt > 0 and matching.weight(g) / opt < 0.5 - 1e-9
        dominated = undominated_edges(g, matching) > 0
        below_half += below
        undominated += dominated
        violations += below or dominated
    assert undominated > below_half
    assert approximation_audit("localmax", 200, 0).guarantee_violations == violations


def test_audit_hem_reports_without_half_bound():
    report = approximation_audit("hem", trials=200, seed=11)
    # maximality is still enforced; the 1/2 bound is not
    assert report.invalid == 0 and report.non_maximal == 0
    assert report.guarantee_violations == 0  # never counted for hem
    assert 0.0 < report.min_ratio <= 1.0


def test_audit_counts_invalid_and_non_maximal_matchings(monkeypatch):
    trials = 60
    with_edges = sum(random_audit_instance(np.random.default_rng((0, t))).num_edges > 0
                     for t in range(trials))
    assert 0 < with_edges < trials

    def nothing(g, seed):
        return matching_from_edge_ids(g, []), None

    def unmated(g, seed):  # lists edge 0 but leaves the mate table empty
        ids = np.arange(min(g.num_edges, 1))
        return Matching(ids, np.full(g.num_vertices, -1)), None

    monkeypatch.setitem(MATCHERS, "greedy", nothing)
    report = approximation_audit("greedy", trials, 0)
    assert (report.invalid, report.non_maximal, report.guarantee_violations) == (
        0, with_edges, with_edges)
    monkeypatch.setitem(MATCHERS, "greedy", unmated)
    assert approximation_audit("greedy", trials, 0).invalid == with_edges


def test_audit_zero_trials_is_empty():
    report = approximation_audit("localmax", trials=0, seed=0)
    assert report.trials == 0
    assert math.isnan(report.min_ratio)
    assert report.passed


def test_audit_rejects_negative_trials():
    with pytest.raises(ValueError, match="trials must be >= 0, got -3"):
        approximation_audit("localmax", trials=-3, seed=0)
