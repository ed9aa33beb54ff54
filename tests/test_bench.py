"""Suite runner, shrink statistics and the engine cross-check."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

import locmax.bench
from locmax import bsp_local_max, build_graph, local_max_seq, pram_local_max
from locmax.bench import (
    BENCH_COLUMNS,
    InstanceSpec,
    engine_cross_check,
    round_bound,
    run_matcher,
    run_suite,
    shrink_report,
    write_bench_csv,
)
from locmax.generate import with_unit_weights
from locmax.graph import Matching, matching_from_edge_ids
from locmax.graphio import read_graph, write_edge_list


def test_suite_cardinality_and_ratio_baseline(tmp_path):
    records = run_suite(
        instances=(InstanceSpec("rgg", 8), InstanceSpec("random", 8, alpha=4)),
        algorithms=("localmax", "greedy", "gpa"),
        seeds=(0, 1, 2),
    )
    assert len(records) == 2 * 3 * 3
    for r in records:
        assert r.ratio_vs_gpa > 0
        if r.algorithm == "gpa":
            assert r.ratio_vs_gpa == 1.0
    out = tmp_path / "bench.csv"
    count = write_bench_csv(records, out)
    assert count == len(records)
    header = out.read_text().splitlines()[0]
    assert header == ",".join(BENCH_COLUMNS)


def test_suite_rows_reproducible_except_timing():
    config = dict(
        instances=(InstanceSpec("random", 7, alpha=4),),
        algorithms=("localmax", "hem"),
        seeds=(3,),
    )
    a = run_suite(**config)
    b = run_suite(**config)
    strip = lambda rec: {k: v for k, v in rec.as_row().items() if k != "millis"}
    assert [strip(r) for r in a] == [strip(r) for r in b]


def test_run_matcher_engine_dispatch():
    spec = InstanceSpec("random", 7, alpha=4)
    g = spec.build(0)
    seq, _ = run_matcher(g, "localmax", 5, engine="seq")
    par, _ = run_matcher(g, "localmax", 5, engine="pram")
    dist, _ = run_matcher(g, "localmax", 5, engine="bsp", p=4)
    assert seq == par == dist
    with pytest.raises(ValueError, match="seq engine"):
        run_matcher(g, "greedy", 5, engine="pram")
    with pytest.raises(ValueError, match="unknown algorithm"):
        run_matcher(g, "blossom", 5)
    with pytest.raises(ValueError, match="^unknown engine 'gpu'$"):
        run_matcher(g, "localmax", 5, engine="gpu")


def test_suite_rejects_an_invalid_matching(monkeypatch):
    def listed_but_unmated(g, seed):
        _, trace = local_max_seq(g, seed)
        return Matching(np.array([0]), np.full(g.num_vertices, -1)), trace

    monkeypatch.setitem(locmax.bench.MATCHERS, "greedy", listed_but_unmated)
    with pytest.raises(AssertionError, match="^greedy produced an invalid or non-maximal "
                                             "matching on random-x6-a4-wdefault-s0: mate "
                                             "table disagrees with matched edge 0$"):
        run_suite((InstanceSpec("random", 6),), ("localmax", "greedy"), (0,))


def test_instance_spec_weight_modes():
    unit = InstanceSpec("random", 7, alpha=4, weights="unit").build(0)
    assert np.all(unit.edge_weight == 1.0)
    with pytest.raises(ValueError, match="euclidean"):
        InstanceSpec("random", 7, alpha=4, weights="euclidean").build(0)
    for weights in ("random", "euclidean"):
        with pytest.raises(ValueError, match=f"^{weights} weights are undefined for a file"):
            InstanceSpec("file", weights=weights, path="unread.txt").build(0)
    rgg_rand = InstanceSpec("rgg", 7, weights="random").build(0)
    rgg_eucl = InstanceSpec("rgg", 7, weights="euclidean").build(0)
    assert rgg_rand.num_edges == rgg_eucl.num_edges


def test_instance_spec_builds_families_and_rejects_bad_specs():
    g = InstanceSpec("random", 8, alpha=16).build(3)
    assert g.num_vertices == 256 and g.num_edges == 16 * 256
    assert InstanceSpec("rgg", 8).build(3).num_vertices == 256
    with pytest.raises(ValueError, match="unknown family"):
        InstanceSpec("delaunay", 8).build(0)
    for family in ("random", "rgg"):
        with pytest.raises(ValueError, match="x must be >= 1"):
            InstanceSpec(family, 0).build(0)
    for alpha in (0, -1):
        with pytest.raises(ValueError, match="alpha must be a positive integer"):
            InstanceSpec("random", 8, alpha=alpha).build(0)


def test_shrink_report_halves_edges_per_round():
    report = shrink_report(InstanceSpec("random", 10, alpha=4), seeds=tuple(range(10)))
    assert report.mean_removed_fraction >= 0.5
    assert 0.10 <= report.mean_survivor_fraction <= 0.45
    assert report.max_rounds <= round_bound(report.max_edges)
    rows = report.rows()
    assert rows[0]["round"] == 0
    assert rows[0]["seeds_alive"] == 10


def test_shrink_report_on_a_file_uses_unit_weights(tmp_path):
    path = tmp_path / "random10.txt"
    write_edge_list(InstanceSpec("random", 10, alpha=4).build(3), path)
    g = with_unit_weights(read_graph(path))
    for seed in (0, 1, 2):
        report = shrink_report(InstanceSpec("file", path=str(path)), (seed,))
        _, trace = local_max_seq(g, seed)
        assert report.max_rounds == trace.total_rounds
        assert report.per_round_removed == [r.edges_removed / r.edges_before
                                            for r in trace.rounds]


def test_round_bound_matches_formula():
    assert round_bound(0) == 4  # 4 * log2(2)
    assert round_bound(14) == 16
    assert round_bound(2**10) >= 40


def test_rising_path_takes_a_round_per_matched_edge():
    """On a path whose weights rise along it only the heaviest live edge is
    locally maximal, so each round matches one edge and removes two: the
    1023 edges take 512 rounds, past the bound of 41 for random ranks,
    in every engine. pram's work meter is reported, not gated."""
    n = 2**10
    g = build_graph([(i, i + 1, float(i + 1)) for i in range(n - 1)])
    seq, seq_t = local_max_seq(g, 1)
    pram, pram_t = pram_local_max(g, 1, checked=True)
    bsp, bsp_t = bsp_local_max(g, 4, 1)
    assert seq == pram == bsp
    assert seq_t.total_rounds == pram_t.total_rounds == bsp_t.total_rounds == 512
    assert seq_t.rounds == pram_t.rounds == bsp_t.rounds
    assert seq_t.total_rounds > round_bound(g.num_edges)
    budget = 8 * (g.num_vertices + 2 * g.num_edges)
    print(f"rising path, n={n}: pram slot_ops/work_budget = {pram_t.slot_ops / budget:.1f}")


def test_cross_check_flags_a_matching_that_differs_from_seqs(monkeypatch, tmp_path):
    # on a unit-weight path of 3 edges both maximal matchings are locally
    # dominant; the p=4 run returns the one seq did not
    path = tmp_path / "path.txt"
    path.write_text("0 1 1.0\n1 2 1.0\n2 3 1.0\n")
    bsp_local_max = locmax.bench.bsp_local_max

    def other_matching(g, p, seed, rerandomize=True):
        matching, trace = bsp_local_max(g, p, seed, rerandomize)
        if p == 4:
            matching = matching_from_edge_ids(g, [1] if matching.size == 2 else [0, 2])
        return matching, trace

    monkeypatch.setattr(locmax.bench, "bsp_local_max", other_matching)
    rows = engine_cross_check((InstanceSpec("file", path=str(path)),), seeds=(0, 1),
                              workers=(2, 4))
    assert [(row.matched, row.detail) for row in rows] == [(False, "bsp-p4")] * 2


def test_triangulation_fixture_shows_quality_separation():
    # pre-generated Delaunay-triangulation edge list (ingestion only): on
    # this family the per-vertex greedy heuristics trail the path-based
    # ones by a wide margin, unlike on threshold geometric graphs
    fixture = Path(__file__).parent / "fixtures" / "delaunay_x10.txt"
    records = run_suite(
        instances=(InstanceSpec("file", path=str(fixture)),),
        algorithms=("localmax", "hem", "rbm"),
        seeds=(0, 1, 2),
    )

    def mean_ratio(alg):
        vals = [r.ratio_vs_gpa for r in records if r.algorithm == alg]
        return sum(vals) / len(vals)

    lm, hm, rb = mean_ratio("localmax"), mean_ratio("hem"), mean_ratio("rbm")
    assert lm >= 0.95
    assert hm <= lm - 0.05
    assert rb <= lm - 0.05


def test_cross_check_row_reports_file_instances(tmp_path):
    p = tmp_path / "tiny.txt"
    p.write_text("# n=8\n0 1 1.0\n2 3 1.0\n")
    (row,) = engine_cross_check(
        (InstanceSpec("file", path=str(p)),), seeds=(0,), workers=(1, 2, 4, 8)
    )
    assert row.matched
    assert row.instance == "tiny.txt"
    assert row.m == 2
