"""Approximate maximum-weight matching via the local max algorithm.

The package provides the adjacency-array graph type, the local max matcher
in sequential, simulated-parallel (PRAM-style) and bulk-synchronous forms,
the greedy, GPA, HEM and red-blue competitor matchers, synthetic input
generators and file ingestion, an exact brute-force oracle for small
instances, and a benchmark harness with a CLI (``locmax``).
"""

from .bench import (
    AuditReport,
    BenchRecord,
    InstanceSpec,
    ShrinkReport,
    approximation_audit,
    engine_cross_check,
    run_matcher,
    run_suite,
    shrink_report,
)
from .bsp import Partition, RoundMessages, bsp_local_max, partition_graph
from .generate import gen_random, gen_rgg, rgg_threshold
from .graph import (
    Graph,
    Matching,
    MatchingCheck,
    assert_graph_invariants,
    build_graph,
    build_graph_arrays,
    matching_from_edge_ids,
    validate_matching,
)
from .graphio import (
    read_edge_list,
    read_graph,
    read_matrix_market,
    write_csv,
    write_edge_list,
)
from .matchers import (
    MATCHERS,
    PhaseTrace,
    RoundStats,
    gpa,
    greedy,
    hem,
    local_max_seq,
    rbm,
)
from .oracle import OracleResult, max_weight_matching_bruteforce
from .pram import WriteLog, pram_local_max, pram_phase
from .tiebreak import edge_salts, key_ranks, round_seed

__version__ = "0.1.0"
