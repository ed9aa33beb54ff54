"""Exact maximum-weight matching oracle for small instances, plus audits.

The oracle is deliberately brute force (branch over edges with pruning) so
it shares no code path with any matcher it is used to judge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph, _assemble, undominated_edges, validate_matching

ORACLE_EDGE_CAP = 24


@dataclass(frozen=True)
class OracleResult:
    opt_weight: float
    opt_edges: tuple[int, ...]   # one optimal edge set (ties broken arbitrarily)
    instances_enumerated: int    # search-tree nodes explored


def max_weight_matching_bruteforce(g: Graph) -> OracleResult:
    """Exact optimum by include/exclude branching over edges.

    Edges are visited in decreasing weight order; a branch is cut when the
    remaining total weight cannot beat the incumbent. Refuses instances
    with more than ``ORACLE_EDGE_CAP`` edges.
    """
    m = g.num_edges
    if m > ORACLE_EDGE_CAP:
        raise ValueError(f"instance too large for the oracle: m={m} > {ORACLE_EDGE_CAP}")
    weight, eu, ev = g.edge_weight.tolist(), g.edge_u.tolist(), g.edge_v.tolist()
    order = sorted(range(m), key=lambda k: -weight[k])
    w = [weight[k] for k in order]
    bits = [(1 << eu[k]) | (1 << ev[k]) for k in order]  # each edge's endpoint mask
    suffix = [0.0] * (m + 1)
    for i in range(m - 1, -1, -1):
        suffix[i] = suffix[i + 1] + w[i]

    best_weight = -1.0
    best_chosen: tuple[int, ...] = ()
    nodes = 0
    chosen: list[int] = []

    def walk(i: int, used: int, total: float) -> None:
        nonlocal best_weight, best_chosen, nodes
        nodes += 1
        if total > best_weight:
            best_weight = total
            best_chosen = tuple(chosen)
        if i == m or total + suffix[i] <= best_weight:
            return
        bit = bits[i]
        if not used & bit:
            chosen.append(order[i])
            walk(i + 1, used | bit, total + w[i])
            chosen.pop()
        walk(i + 1, used, total)

    walk(0, 0, 0.0)
    return OracleResult(max(best_weight, 0.0), tuple(sorted(best_chosen)), nodes)


@dataclass(frozen=True)
class AuditReport:
    """Outcome of running one matcher against the oracle on random instances."""

    matcher: str
    trials: int
    min_ratio: float
    mean_ratio: float
    guarantee_violations: int  # ratio < 1/2 where the matcher promises it
    invalid: int
    non_maximal: int

    @property
    def passed(self) -> bool:
        return self.guarantee_violations == 0 and self.invalid == 0 and self.non_maximal == 0


# Matchers carrying the 1/2-approximation guarantee; others are report-only.
HALF_APPROX_MATCHERS = frozenset({"localmax", "greedy"})

# Slack for accumulated floating-point error in weight sums.
RATIO_EPS = 1e-9

_WEIGHT_REGIMES = ("uniform", "few_values", "all_equal", "powers")

_AUDIT_MAX_VERTICES = 12
# (u, v) pairs with u < v < 12 in row-major order; those with v < n are the
# same order for n vertices
_AUDIT_PAIRS = np.triu_indices(_AUDIT_MAX_VERTICES, k=1)


def random_audit_instance(rng: np.random.Generator) -> Graph:
    """Small random graph in mixed weight regimes, ties included on purpose."""
    n = int(rng.integers(2, _AUDIT_MAX_VERTICES + 1))
    cap = min(ORACLE_EDGE_CAP, n * (n - 1) // 2)
    m = int(rng.integers(0, cap + 1))
    inside = _AUDIT_PAIRS[1] < n
    lo, hi = _AUDIT_PAIRS[0][inside], _AUDIT_PAIRS[1][inside]
    idx = rng.choice(lo.size, size=m, replace=False) if m else np.empty(0, dtype=np.int64)
    regime = _WEIGHT_REGIMES[int(rng.integers(0, len(_WEIGHT_REGIMES)))]
    # one draw per edge, in edge order, as the regime asks
    if regime == "uniform":
        w = rng.random(m)
    elif regime == "few_values":
        w = rng.integers(1, 5, size=m) / 4.0
    elif regime == "all_equal":
        w = np.ones(m)
    else:
        w = 2.0 ** rng.integers(0, 5, size=m)
    return _assemble(lo[idx], hi[idx], w, n)


def approximation_audit(matcher_id: str, trials: int, seed: int) -> AuditReport:
    """Compare a matcher against the exact oracle on random small instances.

    Ratios are matcher weight over optimum (1.0 when the optimum is zero).
    For matchers in HALF_APPROX_MATCHERS a ratio below 1/2, or a matching
    that is not locally dominant (the certificate of the 1/2 bound), counts
    as a guarantee violation; validity and maximality are enforced for all.
    Zero trials give an empty audit; a negative count is a ValueError.
    """
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    from .matchers import MATCHERS  # here, so the oracle's module imports no matcher
    matcher = MATCHERS[matcher_id]
    enforce_half = matcher_id in HALF_APPROX_MATCHERS
    ratios: list[float] = []
    violations = invalid = non_maximal = 0
    for t in range(trials):
        rng = np.random.default_rng((seed, t))
        g = random_audit_instance(rng)
        opt = max_weight_matching_bruteforce(g)
        matching, _ = matcher(g, t)
        check = validate_matching(g, matching)
        if not check.valid:
            invalid += 1
        elif not check.maximal:
            non_maximal += 1
        got = matching.weight(g)
        ratio = 1.0 if opt.opt_weight == 0.0 else got / opt.opt_weight
        ratios.append(ratio)
        if enforce_half and (ratio < 0.5 - RATIO_EPS or undominated_edges(g, matching)):
            violations += 1
    if ratios:
        min_ratio = min(ratios)
        mean_ratio = math.fsum(ratios) / len(ratios)
    else:
        min_ratio = mean_ratio = float("nan")
    return AuditReport(matcher_id, trials, min_ratio, mean_ratio, violations, invalid, non_maximal)
