"""Array-level simulation of the CREW-style parallel local max phase.

A phase maps a graph in the adjacency-array layout (edge records plus
per-vertex incidence slots) to the smaller graph of its surviving edges, on
which the next phase runs. It is a fixed sequence of whole-array passes,
one simulated parallel step each (listed in :func:`pram_phase`): seq's
round, then the compaction of the edges and the slots. Survivors keep
their order, so their compacted slots are the smaller graph's own layout,
and the simulation copies only the edge records.

In checked mode a write log records the one step whose writes can land on
one cell: step 4's marks, where two matched edges at a vertex would mark it
twice, an exclusive-write violation (there should be none). Every other
step writes only the cells of its own edge or slot. Checked mode also
validates the input's layout, and compacts the slots of every phase and
checks them against the survivors' layout. A valid layout compacts to a
valid layout, so that equality validates every phase's graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, Matching, assert_graph_invariants
from .matchers import PhaseTrace, Rounds, _drive, _local_max_round
from .tiebreak import _deciding_bits, _new_candidates, edge_salts, round_seed


@dataclass
class WriteLog:
    """Exclusive-write checker for the simulated steps.

    Each call to :meth:`record` is one simulated step's writes to one
    array, given as the cells written; every write to a cell already
    written in that call is a conflict.
    """

    steps: int = 0
    writes: int = 0
    conflicts: int = 0

    def record(self, cells: np.ndarray) -> None:
        self.steps += 1
        self.writes += int(cells.size)
        self.conflicts += int(cells.size - np.unique(cells).size)


def pram_phase(g: Graph, edge_orig: np.ndarray | None, round_seed_value: int,
               log: WriteLog | None = None) -> tuple[np.ndarray, Graph, np.ndarray]:
    """One parallel local max phase on ``g``, whose edge k is input edge
    ``edge_orig[k]`` (the ids the round's keys use), or input edge k when
    ``edge_orig`` is None: returns the matched input edge ids, the
    compacted graph of the surviving edges and their input ids, and leaves
    ``g`` unchanged.

    Steps: (1) per-edge keys, read by the slots, (2) each vertex's heaviest
    key, by two segmented max reductions over its contiguous slots (weight
    bits, then salts among the weight-maximal slots; salts are distinct, so
    the id never decides) whose totals land at the vertex; the weight
    reduction is skipped when the phase's live weights are all equal (a
    phase is a pure function of ``g``, so it decides this itself), and the
    salt reduction then reads every slot, (3) every edge reads the best
    key at both its endpoints, and an edge whose key equals both is
    matched and flags itself (no step reads the flag, so no array keeps
    it), (4) each matched edge marks both its endpoints matched, and every
    edge reads the marks at its endpoints,
    (5) each surviving edge writes its compacted address, its index in the
    list of survivors, and an exclusive prefix sum over the slot deletion
    flags, written in place, gives the slots theirs, (6) survivors copy
    over, slot edge ids are rewritten through the new addresses, and each
    offset drops by the slots deleted before it. Steps 1-4 are seq's round
    on fresh candidates and marks; its kernel reads the endpoint columns,
    which hold exactly a vertex's slots. Without a ``log`` only the edges
    are compacted. With one, step 4's marks are recorded and the compacted
    slots must equal the returned graph's (or RuntimeError), which, for a
    valid ``g``, makes its layout valid too.
    """
    n = g.num_vertices
    ids = np.arange(g.num_edges) if edge_orig is None else edge_orig
    # steps 1-4: seq's round, on fresh candidates and marks
    matched_vertex = np.zeros(n, dtype=bool)
    matched_edges, dead_edge = _local_max_round(
        _new_candidates(n), matched_vertex, g.edge_u, g.edge_v,
        _deciding_bits(g.edge_weight), edge_salts(round_seed_value, ids))
    keep_e = np.flatnonzero(~dead_edge)
    rest = Graph(n, g.edge_u[keep_e], g.edge_v[keep_e], g.edge_weight[keep_e])
    if log is not None:
        # step 4: two matched edges at one vertex would both write its mark
        log.record(np.concatenate((g.edge_u[matched_edges], g.edge_v[matched_edges])))
        # step 5: each surviving edge writes its own new address, its index in keep_e;
        # the slots' exclusive prefix sum moves slots and offsets
        new_edge_index = np.cumsum(~dead_edge) - 1
        dead_slot = dead_edge[g.slot_edge]
        dead_before = np.concatenate(([0], np.cumsum(dead_slot)))
        keep_s = np.flatnonzero(~dead_slot)
        # step 6: copy the slots, rewrite their edge ids, shift the offsets
        if not (np.array_equal(g.offsets - dead_before[g.offsets], rest.offsets)
                and np.array_equal(g.slot_vertex[keep_s], rest.slot_vertex)
                and np.array_equal(new_edge_index[g.slot_edge[keep_s]], rest.slot_edge)):
            raise RuntimeError("pram: the compacted slots differ from the survivors' layout")
    if edge_orig is None:
        return matched_edges, rest, keep_e
    return edge_orig[matched_edges], rest, edge_orig[keep_e]


def pram_local_max(
    g: Graph,
    seed: int,
    checked: bool = False,
    rerandomize: bool = True,
) -> tuple[Matching, PhaseTrace]:
    """Parallel-phase local max; the matching equals the sequential one.

    In checked mode the run also validates the input's layout
    (:func:`assert_graph_invariants`), records each phase's endpoint marks,
    the writes that could clash (``trace.write_log``), and checks each
    phase's compacted slots against its survivors' layout.
    ``trace.slot_ops`` charges one unit per live edge and per live
    incidence slot per phase (each phase makes a constant number of passes
    over them) plus the one-off setup, so it grows like the geometric sum
    of surviving edges: the linear-work evidence.
    """
    log = WriteLog() if checked else None
    trace = PhaseTrace(write_log=log)
    matching, _ = _drive(g, _pram_rounds(g, seed, rerandomize, log), trace)
    # the layout and the edge_orig ids, then each phase's live edges and their 2 slots each
    live_edges = sum(r.edges_before for r in trace.rounds)
    trace.slot_ops = g.num_vertices + 3 * g.num_edges + 3 * live_edges
    return matching, trace


def _pram_rounds(g: Graph, seed: int, rerandomize: bool, log: WriteLog | None) -> Rounds:
    """The phases of :func:`pram_local_max`; a write log means checked mode."""
    orig = None  # phase 1 runs on the input numbering
    if log is not None:
        assert_graph_invariants(g)
    round_index = 0
    while g.num_edges:
        before = g.num_edges
        matched, g, orig = pram_phase(g, orig, round_seed(seed, round_index, rerandomize), log)
        if not matched.size:
            raise RuntimeError(f"pram: round {round_index} matched none of {before} live edges")
        yield before, matched, g.num_edges
        round_index += 1
