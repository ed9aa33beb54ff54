"""Benchmark harness: the suite, shrink statistics, the engine cross-check
and the oracle audit.

The suite, shrink and audit results are plain records, and each record type
declares its CSV table: the columns are the schema version and then its
fields (:func:`csv_columns`, :func:`csv_rows`). Timing columns are
informational only and are the one part of a record that is not
reproducible across runs.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from functools import partial
from pathlib import Path

import numpy as np

from .bsp import bsp_local_max
from .generate import gen_random, gen_rgg, with_unit_weights
from .graph import Graph, Matching, undominated_edges, validate_matching
from .graphio import read_graph
from .matchers import MATCHERS, PhaseTrace, local_max_seq
from .oracle import max_weight_matching_bruteforce, random_audit_instance
from .pram import pram_local_max

CSV_SCHEMA_VERSION = "locmax-bench-1"


def csv_columns(record_type: type) -> tuple[str, ...]:
    """The CSV header of a table of ``record_type`` records: the schema, then its fields."""
    return ("schema", *(f.name for f in fields(record_type)))


def csv_rows(records) -> list[dict[str, object]]:
    """The records as CSV rows under :func:`csv_columns`; the csv module
    writes a float as its repr and None as an empty cell."""
    return [{"schema": CSV_SCHEMA_VERSION, **asdict(r)} for r in records]


@dataclass(frozen=True)
class BenchRecord:
    instance: str
    algorithm: str
    engine: str
    seed: int
    weight: float
    ratio_vs_gpa: float | None  # None where no GPA baseline ran (``locmax match``)
    rounds: int
    mean_removed_fraction: float
    millis: str  # wall time in ms, to 3 decimals as the table shows it
    messages: int

    @classmethod
    def from_run(cls, instance: str, algorithm: str, engine: str, seed: int, weight: float,
                 ratio_vs_gpa: float | None, trace: PhaseTrace) -> "BenchRecord":
        """The record of one run; rounds, timing and messages come from its trace."""
        messages = sum(rm.candidate_records for rm in trace.messages) if trace.messages else 0
        return cls(instance, algorithm, engine, seed, weight, ratio_vs_gpa, trace.total_rounds,
                   trace.mean_removed_fraction(), f"{trace.wall_millis:.3f}", messages)


@dataclass(frozen=True)
class InstanceSpec:
    """An instance either generated from a family or read from a file."""

    family: str                  # "random" | "rgg" | "file"
    x: int = 0
    alpha: int = 4
    weights: str = "default"     # "unit" | "random" | "euclidean" | "default"
    path: str | None = None

    def label(self, seed: int | str) -> str:
        if self.family == "file":
            return Path(self.path).name
        tail = f"-a{self.alpha}" if self.family == "random" else ""
        return f"{self.family}-x{self.x}{tail}-w{self.weights}-s{seed}"

    def build(self, seed: int) -> Graph:
        """Read the file, or generate the family's 2^x-vertex instance for ``seed``.

        Raises ValueError for an unknown family, ``x < 1``, ``alpha < 1``
        (random family), euclidean weights on the random family, and random
        or euclidean weights on a file, which keeps its own.
        """
        if self.family == "file":
            if self.weights in ("random", "euclidean"):
                raise ValueError(f"{self.weights} weights are undefined for a file, "
                                 "which keeps its own weights")
            g = read_graph(self.path)
        elif self.family not in ("random", "rgg"):
            raise ValueError(f"unknown family {self.family!r}")
        elif self.x < 1:
            raise ValueError("x must be >= 1")
        elif self.family == "random":
            if self.weights == "euclidean":
                raise ValueError("euclidean weights are undefined for the random family")
            g = gen_random(1 << self.x, self.alpha, seed)
        else:
            mode = "euclidean" if self.weights in ("euclidean", "default") else "random"
            g = gen_rgg(self.x, seed, mode)
        if self.weights == "unit":
            g = with_unit_weights(g)
        return g


def run_matcher(
    g: Graph,
    algorithm: str,
    seed: int,
    engine: str = "seq",
    p: int = 4,
    rerandomize: bool = True,
) -> tuple[Matching, PhaseTrace]:
    """Dispatch one run; only localmax has non-sequential engines."""
    if algorithm == "localmax":
        if engine == "seq":
            return local_max_seq(g, seed, rerandomize)
        if engine == "pram":
            return pram_local_max(g, seed, rerandomize=rerandomize)
        if engine == "bsp":
            return bsp_local_max(g, p, seed, rerandomize)
        raise ValueError(f"unknown engine {engine!r}")
    if engine != "seq":
        raise ValueError(f"algorithm {algorithm!r} only runs on the seq engine")
    try:
        matcher = MATCHERS[algorithm]
    except KeyError:
        raise ValueError(f"unknown algorithm {algorithm!r}") from None
    return matcher(g, seed)


def run_suite(instances: tuple[InstanceSpec, ...], algorithms: tuple[str, ...],
              seeds: tuple[int, ...], engine: str = "seq", p: int = 4,
              rerandomize: bool = True) -> list[BenchRecord]:
    """One record per (instance, algorithm, seed); GPA is the quality baseline.

    ``engine`` (with ``p`` workers for bsp) runs localmax; every other
    algorithm runs on seq. The GPA weight for each (instance, seed) cell is
    computed regardless of whether GPA was requested, so ratio_vs_gpa is
    always defined.
    """
    records: list[BenchRecord] = []
    for spec in instances:
        for seed in seeds:
            g = spec.build(seed)
            label = spec.label(seed)
            gpa_matching, gpa_trace = run_matcher(g, "gpa", seed)
            gpa_weight = gpa_matching.weight(g)
            for alg in algorithms:
                alg_engine = engine if alg == "localmax" else "seq"
                if alg == "gpa":
                    matching, trace = gpa_matching, gpa_trace
                else:
                    matching, trace = run_matcher(g, alg, seed, alg_engine, p, rerandomize)
                check = validate_matching(g, matching)
                if not (check.valid and check.maximal):
                    raise AssertionError(
                        f"{alg} produced an invalid or non-maximal matching "
                        f"on {label}: {check.detail}"
                    )
                weight = matching.weight(g)
                ratio = weight / gpa_weight if gpa_weight > 0 else 1.0
                records.append(
                    BenchRecord.from_run(label, alg, alg_engine, seed, weight, ratio, trace)
                )
    return records


@dataclass(frozen=True)
class ShrinkRow:
    """One round of a shrink report, over the seeds still running in it."""

    instance: str
    round: int
    seeds_alive: int
    mean_removed_fraction: float
    mean_survivor_fraction: float


@dataclass(frozen=True)
class ShrinkReport:
    """Per-round shrink statistics of unit-weight local max, over many seeds.

    ``mean_removed_fraction`` and ``mean_survivor_fraction`` are
    edge-weighted (total edges removed or surviving over total edges
    entering a round, across all seeds and rounds), which matches the
    expected one-round shrink factor.
    """

    instance: str
    rows: tuple[ShrinkRow, ...] = ()
    mean_removed_fraction: float = 0.0
    mean_survivor_fraction: float = 0.0
    max_rounds: int = 0
    max_edges: int = 0


def shrink_report(spec: InstanceSpec, seeds: tuple[int, ...], rerandomize: bool = True) -> ShrinkReport:
    """Run unit-weight local max per seed and aggregate shrink factors; the
    label names every seed (``random-x7-a4-wunit-s0+1+2``)."""
    unit_spec = InstanceSpec(spec.family, spec.x, spec.alpha, "unit", spec.path)
    label = unit_spec.label("+".join(map(str, seeds)) or "0")
    totals: list[list[int]] = []  # per round: edges before, edges removed, seeds alive
    max_edges = 0
    for seed in seeds:
        g = unit_spec.build(seed)
        max_edges = max(max_edges, g.num_edges)
        _, trace = local_max_seq(g, seed, rerandomize)
        totals += [[0, 0, 0] for _ in range(trace.total_rounds - len(totals))]
        for t, r in zip(totals, trace.rounds):
            t[0] += r.edges_before
            t[1] += r.edges_removed
            t[2] += 1
    # every round has live edges in some seed
    rows = tuple(ShrinkRow(label, i, alive, removed / before, 1.0 - removed / before)
                 for i, (before, removed, alive) in enumerate(totals))
    total_before = sum(t[0] for t in totals)
    removed = sum(t[1] for t in totals) / total_before if total_before else 0.0
    survivor = 1.0 - removed if total_before else 0.0
    return ShrinkReport(label, rows, removed, survivor, len(totals), max_edges)


def round_bound(m: int) -> int:
    """Empirical cap on local max rounds, 4*log2(m+2), for random ranks (not rising weights)."""
    return max(1, math.ceil(4 * math.log2(m + 2)))


@dataclass(frozen=True)
class CrossCheckRow:
    instance: str
    seed: int
    matched: bool                # every engine gave seq's rounds and locally dominant matching
    detail: str
    rounds: int
    crew_conflicts: int
    slot_ops: int
    work_budget: int             # 8 * (n + 2m); for random ranks, not a rising path
    n: int
    m: int


def engine_cross_check(instances: tuple[InstanceSpec, ...], seeds: tuple[int, ...],
                       workers: tuple[int, ...] = (1, 2, 4, 8),
                       rerandomize: bool = True) -> list[CrossCheckRow]:
    """Check that all engines return the identical run per instance/seed.

    Runs the sequential engine, the simulated-parallel engine (in checked
    mode, recording write conflicts and the work meter) and the
    bulk-synchronous engine for every requested worker count. bsp runs
    seq's rounds and pram shares their round, so agreement cannot catch a
    kernel defect: every matching must also be locally dominant, a
    certificate shared with no engine (as are the tests' reference engines).
    A run whose matching differs from seq's is flagged by its engine
    (``bsp-p4``), one whose ``RoundStats`` differ by its engine and
    ``:rounds``, one not locally dominant by its engine and ``:dominance``,
    and one that raises ``RuntimeError`` by its engine and ``:error``.
    """
    rows = []
    for spec in instances:
        for seed in seeds:
            g = spec.build(seed)
            label = spec.label(seed)
            runs = {"seq": partial(local_max_seq, g, seed, rerandomize),
                    "pram": partial(pram_local_max, g, seed, True, rerandomize)}
            runs.update((f"bsp-p{p}", partial(bsp_local_max, g, p, seed, rerandomize))
                        for p in workers if p <= g.num_vertices)
            done, mismatch = {}, []
            for name, run in runs.items():
                try:
                    done[name] = matching, trace = run()
                except RuntimeError:
                    mismatch.append(f"{name}:error")
                    continue
                base, base_trace = done.get("seq", (matching, trace))  # seq raised: no comparison
                if matching != base:
                    mismatch.append(name)
                if trace.rounds != base_trace.rounds:
                    mismatch.append(f"{name}:rounds")
                if undominated_edges(g, matching):
                    mismatch.append(f"{name}:dominance")
            pram = done["pram"][1] if "pram" in done else None
            rows.append(CrossCheckRow(
                instance=label, seed=seed, matched=not mismatch, detail=",".join(mismatch),
                rounds=done["seq"][1].total_rounds if "seq" in done else 0,
                crew_conflicts=pram.write_log.conflicts if pram else 0,
                slot_ops=pram.slot_ops if pram else 0,
                work_budget=8 * (g.num_vertices + 2 * g.num_edges),
                n=g.num_vertices, m=g.num_edges))
    return rows


@dataclass(frozen=True)
class AuditReport:
    """Outcome of running one matcher against the oracle on random instances."""

    matcher: str
    trials: int
    min_ratio: float
    mean_ratio: float
    violations: int  # ratio < 1/2 where the matcher promises it
    invalid: int
    non_maximal: int

    @property
    def passed(self) -> bool:
        return self.violations == 0 and self.invalid == 0 and self.non_maximal == 0


# Matchers carrying the 1/2-approximation guarantee; others are report-only.
HALF_APPROX_MATCHERS = frozenset({"localmax", "greedy"})

# Slack for accumulated floating-point error in weight sums.
RATIO_EPS = 1e-9


def approximation_audit(matcher_id: str, trials: int, seed: int) -> AuditReport:
    """Compare a matcher against the exact oracle on random small instances.

    Ratios are matcher weight over optimum (1.0 when the optimum is zero).
    For matchers in HALF_APPROX_MATCHERS a ratio below 1/2, or a matching
    that is not locally dominant (the certificate of the 1/2 bound), counts
    as a guarantee violation; validity and maximality are enforced for all.
    A matching that does not fit its instance (an edge id out of range or a
    mate table of another length) weighs nothing, is invalid and, for those
    matchers, a violation. All trials are checked at once, on their disjoint union, and
    counted one by one only if that check fails.
    Zero trials give an empty audit; a negative count is a ValueError.
    """
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    matcher = MATCHERS[matcher_id]
    enforce_half = matcher_id in HALF_APPROX_MATCHERS
    graphs, matchings, fits, ratios = [], [], [], []
    for t in range(trials):
        g = random_audit_instance(np.random.default_rng((seed, t)))
        opt = max_weight_matching_bruteforce(g)
        matching, _ = matcher(g, t)
        ids = matching.edges
        fits.append(matching.mate.shape == (g.num_vertices,)
                    and (not ids.size or (ids[0] >= 0 and ids[-1] < g.num_edges)))
        got = matching.weight(g) if fits[-1] else 0.0
        ratios.append(1.0 if opt.opt_weight == 0.0 else got / opt.opt_weight)
        graphs.append(g)
        matchings.append(matching)
    violations = invalid = non_maximal = 0
    if all(fits) and (not graphs or _union_passes(graphs, matchings, enforce_half)):
        violations = sum(r < 0.5 - RATIO_EPS for r in ratios) if enforce_half else 0
    else:
        for g, matching, fit, ratio in zip(graphs, matchings, fits, ratios):
            check = validate_matching(g, matching)
            invalid += not check.valid
            non_maximal += check.valid and not check.maximal
            violations += enforce_half and (
                not fit or ratio < 0.5 - RATIO_EPS or undominated_edges(g, matching) > 0)
    min_ratio = min(ratios, default=float("nan"))
    mean_ratio = math.fsum(ratios) / len(ratios) if ratios else float("nan")
    return AuditReport(matcher_id, trials, min_ratio, mean_ratio, violations, invalid, non_maximal)


def _union_passes(graphs: list[Graph], matchings: list[Matching], dominance: bool) -> bool:
    """Whether every matching, which fits its graph, is valid and maximal (and
    locally dominant, if ``dominance``): one check of the disjoint union, with
    ids offset by the graphs before. Mate entries < 0 stay, so no fault hides."""
    n = np.array([g.num_vertices for g in graphs])
    m = np.array([g.num_edges for g in graphs])
    vbase, ebase = np.cumsum(n) - n, np.cumsum(m) - m
    shift = np.repeat(vbase, m)
    union = Graph(int(n.sum()), np.concatenate([g.edge_u for g in graphs]) + shift,
                  np.concatenate([g.edge_v for g in graphs]) + shift,
                  np.concatenate([g.edge_weight for g in graphs]))
    mate = np.concatenate([mt.mate for mt in matchings])
    mate += np.where(mate >= 0, np.repeat(vbase, n), 0)
    ids = np.concatenate([mt.edges for mt in matchings])
    matching = Matching(ids + np.repeat(ebase, [mt.edges.size for mt in matchings]), mate)
    check = validate_matching(union, matching)
    return check.valid and check.maximal and not (dominance and undominated_edges(union, matching))
