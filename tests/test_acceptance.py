"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole module is budgeted to finish in a few minutes.
"""

from __future__ import annotations

import numpy as np
import pytest

from locmax import (
    assert_graph_invariants,
    gen_rgg,
    local_max_seq,
    read_matrix_market,
    validate_matching,
)
from locmax.bench import (
    InstanceSpec,
    approximation_audit,
    engine_cross_check,
    round_bound,
    run_suite,
    shrink_report,
)
from locmax.matchers import MATCHERS
from locmax.pram import WriteLog, pram_phase
from locmax.tiebreak import round_seed

from reference import check_progress

FIVE_MATCHERS = ("localmax", "greedy", "gpa", "hem", "rbm")


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _mm_fixture_text(rng: np.random.Generator) -> str:
    n = int(rng.integers(5, 41))
    entries = int(rng.integers(n, 3 * n))
    field = "pattern" if rng.random() < 0.25 else "real"
    lines = [f"%%MatrixMarket matrix coordinate {field} symmetric", f"{n} {n} {entries}"]
    for _ in range(entries):
        i = int(rng.integers(1, n + 1))
        j = int(rng.integers(1, n + 1))
        if field == "pattern":
            lines.append(f"{i} {j}")
        else:
            value = float(rng.normal()) * (1.0 if rng.random() < 0.9 else 0.0)
            lines.append(f"{i} {j} {value:.6f}")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def mm_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("mm")
    rng = np.random.default_rng(2024)
    paths = []
    for i in range(200):
        p = d / f"fixture_{i:03d}.mtx"
        p.write_text(_mm_fixture_text(rng))
        paths.append(p)
    return paths


@pytest.fixture(scope="module")
def shrink100():
    # unit-weight random graphs, alpha=4, n=2^14, 100 seeds
    return shrink_report(InstanceSpec("random", 14, 4, "unit"), tuple(range(100)))


@pytest.fixture(scope="module")
def crosscheck(tmp_path_factory):
    d = tmp_path_factory.mktemp("fixtures")
    path_file = d / "equal_path.txt"
    path_file.write_text(
        "# n=16\n" + "".join(f"{i} {i + 1} 1.0\n" for i in range(15))
    )
    empty_file = d / "edgeless.txt"
    empty_file.write_text("# n=8\n")
    instances = (
        InstanceSpec("rgg", 8),
        InstanceSpec("rgg", 9),
        InstanceSpec("rgg", 10),
        InstanceSpec("rgg", 8, weights="random"),
        InstanceSpec("random", 7, alpha=4),
        InstanceSpec("random", 8, alpha=16),
        InstanceSpec("random", 9, alpha=4),
        InstanceSpec("random", 7, alpha=4, weights="unit"),
        InstanceSpec("file", path=str(path_file)),
        InstanceSpec("file", path=str(empty_file)),
    )
    return engine_cross_check(instances, seeds=tuple(range(10)), workers=(1, 2, 4, 8))


def test_c01_validity_and_maximality(mm_dir):
    random_combos = [
        (6, 4), (6, 16), (7, 4), (7, 16), (8, 4), (8, 16), (8, 64),
        (9, 4), (9, 16), (9, 64), (10, 4), (10, 16), (10, 64),
    ]
    rgg_sizes = [8] * 60 + [9] * 45 + [10] * 35 + [11] * 25 + [12] * 15 + [13] * 12 + [14] * 8
    counts = {"random": 0, "rgg": 0, "mm": 0}
    violations = []

    def check_all(g, label):
        for name in FIVE_MATCHERS:
            matching, _ = MATCHERS[name](g, seed)
            res = validate_matching(g, matching)
            if not (res.valid and res.maximal):
                violations.append(f"{label}/{name}: {res.detail}")

    seed = 0
    for i in range(208):
        x, alpha = random_combos[i % len(random_combos)]
        seed = i
        g = InstanceSpec("random", x, alpha).build(seed)
        check_all(g, f"random-x{x}-a{alpha}-s{seed}")
        counts["random"] += 1
    for i, x in enumerate(rgg_sizes):
        seed = 1000 + i
        g = InstanceSpec("rgg", x).build(seed)
        check_all(g, f"rgg-x{x}-s{seed}")
        counts["rgg"] += 1
    for i, path in enumerate(mm_dir):
        seed = 2000 + i
        g = read_matrix_market(path)
        check_all(g, path.name)
        counts["mm"] += 1

    ok = not violations and all(c >= 200 for c in counts.values())
    _report(
        1,
        ok,
        f"5 matchers valid+maximal on {counts} instances, "
        f"{len(violations)} violations",
    )


def test_c02_half_approximation_guarantee():
    details = []
    ok = True
    for alg in ("localmax", "greedy"):
        report = approximation_audit(alg, trials=1000, seed=7)
        ok = ok and report.passed and report.min_ratio >= 0.5 - 1e-9
        details.append(
            f"{alg}: min={report.min_ratio:.4f} mean={report.mean_ratio:.4f} "
            f"violations={report.violations}"
        )
    _report(2, ok, "; ".join(details))


def test_c03_expected_shrink_factor(shrink100):
    rep = shrink100
    ok = rep.mean_removed_fraction >= 0.5 and 0.10 <= rep.mean_survivor_fraction <= 0.45
    _report(
        3,
        ok,
        f"unit random x=14 a=4, 100 seeds: removed/round={rep.mean_removed_fraction:.4f} "
        f"(>=0.5), survivors/round={rep.mean_survivor_fraction:.4f} (in [0.10, 0.45])",
    )


def test_c04_round_counts(shrink100):
    bound14 = round_bound(shrink100.max_edges)
    ok = shrink100.max_rounds <= bound14
    rgg_rounds = {}
    for x, seeds in ((10, (0, 1)), (12, (0, 1)), (14, (0, 1)), (16, (0, 1))):
        for s in seeds:
            g = gen_rgg(x, s)
            _, trace = local_max_seq(g, s)
            ok = ok and trace.total_rounds <= round_bound(g.num_edges)
            rgg_rounds[x] = max(rgg_rounds.get(x, 0), trace.total_rounds)
    # <=10 rounds on rgg x<=14 is report-only
    over10 = {x: r for x, r in rgg_rounds.items() if x <= 14 and r > 10}
    _report(
        4,
        ok,
        f"rounds within 4*log2(m+2) everywhere (shrink max {shrink100.max_rounds} "
        f"<= {bound14}); rgg max rounds by x: {rgg_rounds} (x<=14 over 10: {over10 or 'none'})",
    )


def test_c05_quality_vs_gpa():
    records = run_suite(
        instances=tuple(InstanceSpec("rgg", x, weights="euclidean") for x in range(10, 15)),
        algorithms=("localmax", "hem", "hem-random", "gpa"),
        seeds=tuple(range(5)),
    )

    def mean_ratio(alg: str) -> float:
        vals = [r.ratio_vs_gpa for r in records if r.algorithm == alg]
        return sum(vals) / len(vals)

    mean_lm = mean_ratio("localmax")
    mean_hm = mean_ratio("hem")
    mean_hr = mean_ratio("hem-random")
    ok = mean_lm >= 0.95 and mean_hm <= mean_lm - 0.05
    _report(
        5,
        ok,
        f"rgg x=10..14 euclidean, 5 seeds: localmax/gpa={mean_lm:.4f} (need >=0.95), "
        f"hem/gpa={mean_hm:.4f} (need <= {mean_lm - 0.05:.4f}); "
        f"hem-random/gpa={mean_hr:.4f} for reference. The five-point quality gap "
        f"between local max and HEM does not materialize on this family at desk "
        f"scale; HEM trails by only a few points (and can lead under spatially "
        f"coherent vertex numbering).",
    )


def _cross_check_faults(rows) -> tuple[list[str], int, list[tuple]]:
    """c06-c08's findings on cross-check rows: the cells whose engines
    disagree, the checked-mode write conflicts, and the runs over the work
    budget."""
    return ([f"{r.instance}/s{r.seed}:{r.detail}" for r in rows if not r.matched],
            sum(r.crew_conflicts for r in rows),
            [(r.instance, r.seed, r.slot_ops, r.work_budget)
             for r in rows if r.slot_ops > r.work_budget])


def test_c06_engine_equivalence(crosscheck):
    bad = _cross_check_faults(crosscheck)[0]
    runs = len(crosscheck)
    _report(
        6,
        not bad and runs == 100,
        f"{runs} instance/seed cells, engines seq=pram=bsp(p in 1,2,4,8) identical; "
        f"mismatches: {bad or 'none'}",
    )


def test_c07_exclusive_write_compliance(crosscheck):
    conflicts = _cross_check_faults(crosscheck)[1]
    _report(7, conflicts == 0, f"checked-mode write conflicts across all runs: {conflicts}")


def test_c08_linear_work_evidence(crosscheck):
    over = _cross_check_faults(crosscheck)[2]
    worst = max((r.slot_ops / r.work_budget) for r in crosscheck if r.work_budget)
    _report(
        8,
        not over,
        f"slot operations <= 8*(n+2m) on every run; worst ratio {worst:.3f}; "
        f"over budget: {over or 'none'}",
    )


def test_c06_to_c08_at_the_benchmark_scale():
    # the engines on the 2^16-vertex graphs the benchmark runs, checked pram included
    rows = engine_cross_check((InstanceSpec("rgg", 16), InstanceSpec("random", 16, 4, "unit")),
                              seeds=(0,), workers=(1, 2, 4, 8))
    assert len(rows) == 2
    assert _cross_check_faults(rows) == ([], 0, [])


def test_c09_compaction_correctness():
    checked = 0
    for spec, seed in (
        (InstanceSpec("rgg", 9), 3),
        (InstanceSpec("random", 8, alpha=16), 5),
        (InstanceSpec("random", 7, alpha=4, weights="unit"), 1),
    ):
        g = spec.build(seed)
        live, orig = g, np.arange(g.num_edges)
        assert_graph_invariants(live)
        rnd = 0
        while live.num_edges:
            before = live.num_edges
            # the log makes the phase compact its slots and check them against
            # the fresh layout of its survivors
            matched, live, orig = pram_phase(live, orig, round_seed(seed, rnd), WriteLog())
            check_progress(rnd, before, matched, g.num_edges)
            assert_graph_invariants(live)
            checked += 1
            rnd += 1
    _report(9, checked > 0, f"graph invariants hold after all {checked} phases")


def test_c10_matrix_market_fixture(tmp_path):
    fixture = tmp_path / "hand.mtx"
    fixture.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "5 5 7\n"
        "1 1 9.0\n"
        "2 1 -3.5\n"
        "3 1 2.0\n"
        "4 2 -1.25\n"
        "5 4 4.0\n"
        "4 2 0.75\n"
        "5 3 -6.0\n"
    )
    g = read_matrix_market(fixture)
    got = {
        (min(u, v), max(u, v)): w
        for u, v, w in zip(g.edge_u.tolist(), g.edge_v.tolist(), g.edge_weight.tolist())
    }
    expected = {
        (0, 1): 3.5,    # |-3.5|
        (0, 2): 2.0,
        (1, 3): 1.25,   # duplicate (4,2) entries keep max |value|
        (3, 4): 4.0,
        (2, 4): 6.0,    # |-6.0|
    }
    ok = g.num_vertices == 5 and got == expected
    _report(10, ok, f"5x5 fixture -> n={g.num_vertices}, edges={sorted(got.items())}")
