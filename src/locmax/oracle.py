"""Exact maximum-weight matching oracle for small instances, and the random
small instances on which ``bench.approximation_audit`` judges the matchers.

The oracle is deliberately brute force (branch over edges with pruning) so
it shares no code path with any matcher it is used to judge; it imports
nothing from the package but ``graph``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph

ORACLE_EDGE_CAP = 24


@dataclass(frozen=True)
class OracleResult:
    opt_weight: float
    opt_edges: tuple[int, ...]   # one optimal edge set (ties broken arbitrarily)
    instances_enumerated: int    # search-tree nodes explored


def max_weight_matching_bruteforce(g: Graph) -> OracleResult:
    """Exact optimum by include/exclude branching over edges.

    Edges are visited in decreasing weight order; a branch is cut when the
    remaining total weight cannot beat the incumbent. Only the include
    branch recurses; the exclude branch is the next pass of a loop, and each
    pass is a node. Refuses instances with more than ``ORACLE_EDGE_CAP`` edges.
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
        while True:
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
            i += 1

    walk(0, 0, 0.0)
    return OracleResult(max(best_weight, 0.0), tuple(sorted(best_chosen)), nodes)


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
    return Graph(n, lo[idx], hi[idx], w)

