"""Outside-in tracer for the traced benchmark run.

Wraps every public function of every ``locmax`` module with a timer, from
outside the package: the module attribute, every other module attribute
that holds the same function object (names imported into other modules,
e.g. ``locmax.generate.build_graph``), and every ``dict`` entry that holds
it (``MATCHERS``), plus the ``Graph.total_weight`` method. Self time is a
call's wall time minus the wall time of the wrapped calls it made. A few
wrappers also read work counters off the arguments and return values.
Nothing under ``src/`` is changed; the originals are restored on exit.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import operator
import os
import sys
from collections import defaultdict
from time import perf_counter

MODULES = ("generate", "graph", "graphio", "tiebreak", "matchers",
           "pram", "bsp", "oracle", "bench", "cli")

# Functions that per-layer metrics name, as "module.function". A name that
# is missing from its module is reported as absent and its metrics read 0.
NAMED = (
    "generate.gen_rgg", "generate.radius_edges_grid", "generate.gen_random",
    "generate.with_unit_weights", "graph.build_graph", "graph.validate_matching",
    "graph.matching_from_edge_ids", "graph.total_weight", "graphio.read_edge_list",
    "graphio.read_matrix_market", "graphio.write_csv", "tiebreak.edge_salts",
    "tiebreak.key_ranks", "matchers.local_max_seq", "matchers.greedy", "matchers.gpa",
    "matchers.hem", "matchers.rbm", "pram.pram_local_max", "pram.compute_cross_pointers",
    "pram.segmented_broadcast", "bsp.bsp_local_max", "bsp.partition_graph",
    "oracle.max_weight_matching_bruteforce", "oracle.random_audit_instance",
    "bench.run_suite", "bench.run_matcher", "cli.main",
)

# Errors a counter hook may meet when a traced function changes its
# signature or return type; the call itself is never affected.
_HOOK_ERRORS = (AttributeError, TypeError, ValueError, IndexError, KeyError, OSError)


class Tracer:
    """Self time, call counts and work counters per traced function."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.hook_errors: list[str] = []
        # Only calls made while active are counted, so that the benchmark's
        # own checks, which call into locmax too, stay out of the figures.
        self.active = False
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object, bool]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> "Tracer":
        pkg = sys.modules["locmax"]
        mods = {name: sys.modules.get(f"locmax.{name}") for name in MODULES}
        targets: dict[int, tuple[str, object]] = {}
        for name, mod in mods.items():
            if mod is None:
                self.absent.append(name)
                continue
            for attr, fn in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    targets[id(fn)] = (f"{name}.{attr}", fn)

        wrappers = {fid: self._wrap(key, fn) for fid, (key, fn) in targets.items()}
        holders = [pkg, *(m for m in mods.values() if m is not None)]
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if id(value) in wrappers and value is targets[id(value)][1]:
                    self._set(holder, attr, wrappers[id(value)], is_item=False)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if id(v) in wrappers and v is targets[id(v)][1]:
                            self._set(value, k, wrappers[id(v)], is_item=True)

        # Matching.weight calls this method, so it is traced like a function.
        graph_cls = getattr(mods["graph"], "Graph", None)
        fn = vars(graph_cls).get("total_weight") if graph_cls is not None else None
        if inspect.isfunction(fn):
            targets[id(fn)] = ("graph.total_weight", fn)
            self._set(graph_cls, "total_weight", self._wrap("graph.total_weight", fn),
                      is_item=False)
        traced = {key for key, _ in targets.values()}
        self.absent += [key for key in NAMED if key not in traced]
        return self

    def uninstall(self) -> None:
        for holder, key, original, is_item in reversed(self._undo):
            if is_item:
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._undo.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _set(self, holder, key, value, is_item: bool) -> None:
        if is_item:
            self._undo.append((holder, key, holder[key], True))
            holder[key] = value
        else:
            self._undo.append((holder, key, vars(holder)[key], False))
            setattr(holder, key, value)

    def _wrap(self, key: str, fn):
        call = _CALL_HOOKS.get(key)
        after = _RESULT_HOOKS.get(key)
        stack = self._stack
        self_s, calls = self.self_s, self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                if call is not None:
                    result = call(self, fn, args, kwargs)
                else:
                    result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                self_s[key] += elapsed - stack.pop()
                calls[key] += 1
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                try:
                    after(self.counters, args, result)
                except _HOOK_ERRORS as exc:
                    self.hook_errors.append(f"{key}: {type(exc).__name__}: {exc}")
            return result

        return traced

    # -- reporting ----------------------------------------------------------

    def module_self_s(self, module: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.split(".", 1)[0] == module)

    def total_self_s(self) -> float:
        return sum(self.self_s.values())


# -- counter hooks -----------------------------------------------------------

def _build_graph(tracer: Tracer, fn, args, kwargs):
    """Count the input triples as build_graph consumes them."""
    if not args:
        return fn(*args, **kwargs)
    edges, rest = args[0], args[1:]
    if hasattr(edges, "__len__"):
        tracer.counters["graph.edges_in"] += len(edges)
        result = fn(edges, *rest, **kwargs)
    else:
        # zip stops pulling from the counter once the edges run out, so the
        # counter's next value is the number of triples consumed.
        counter = itertools.count()
        result = fn(map(operator.itemgetter(0), zip(edges, counter)), *rest, **kwargs)
        tracer.counters["graph.edges_in"] += next(counter)
    tracer.counters["graph.edges_kept"] += result.num_edges
    return result


def _local_max(c, args, result):
    rounds = result[1].rounds
    c["matchers.localmax.rounds"] += len(rounds)
    c["matchers.localmax.edge_visits"] += sum(r.edges_before for r in rounds)
    c["matchers.localmax.matched"] += sum(r.edges_matched for r in rounds)


def _rbm(c, args, result):
    c["matchers.rbm.rounds"] += result[1].total_rounds


def _pram(c, args, result):
    g, trace = args[0], result[1]
    c["pram.rounds"] += trace.total_rounds
    c["pram.slot_ops"] += trace.slot_ops
    c["pram.inputs"] += g.num_vertices + 2 * g.num_edges


def _bsp(c, args, result):
    for rm in result[1].messages:
        c["bsp.candidate_records"] += rm.candidate_records
        c["bsp.status_records"] += rm.status_records
        c["bsp.bytes_computed"] += rm.bytes_estimate


def _partition(c, args, result):
    c["bsp.partitions"] += 1
    c["bsp.cut_fraction_sum"] += result.cut_fraction
    c["bsp.degree_imbalance_sum"] += result.degree_imbalance


def _bruteforce(c, args, result):
    c["oracle.nodes_enumerated"] += result.instances_enumerated


def _bytes_read(c, args, result):
    c["graphio.bytes_read"] += os.path.getsize(args[0])


def _rows_written(c, args, result):
    c["graphio.rows_written"] += result


def _key_ranks(c, args, result):
    c["tiebreak.keys_ranked"] += len(args[0])


_CALL_HOOKS = {"graph.build_graph": _build_graph}

_RESULT_HOOKS = {
    "matchers.local_max_seq": _local_max,
    "matchers.rbm": _rbm,
    "pram.pram_local_max": _pram,
    "bsp.bsp_local_max": _bsp,
    "bsp.partition_graph": _partition,
    "oracle.max_weight_matching_bruteforce": _bruteforce,
    "graphio.read_edge_list": _bytes_read,
    "graphio.read_matrix_market": _bytes_read,
    "graphio.write_csv": _rows_written,
    "tiebreak.key_ranks": _key_ranks,
}


# -- per-layer metrics -------------------------------------------------------

def layer_metrics(t: Tracer, ops: int, op_s: float, overhead_ratio: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per traced op: self times in ms, counters as counts.

    ``op_s`` is the traced wall time of all ``ops`` ops together.
    """
    def ms(key: str) -> float:
        return 1000.0 * t.self_s.get(key, 0.0) / ops

    def calls(key: str) -> float:
        return t.calls.get(key, 0) / ops

    def per_op(name: str) -> float:
        return t.counters.get(name, 0.0) / ops

    def ratio(num: str, den: str) -> float:
        d = t.counters.get(den, 0.0)
        return t.counters.get(num, 0.0) / d if d else 0.0

    c = t.counters
    parts = c.get("bsp.partitions", 0.0)
    out = {
        "generate.gen_rgg.self_ms": (ms("generate.gen_rgg"), "ms"),
        "generate.radius_edges_grid.ms": (ms("generate.radius_edges_grid"), "ms"),
        "generate.gen_random.self_ms": (ms("generate.gen_random"), "ms"),
        "generate.with_unit_weights.self_ms": (ms("generate.with_unit_weights"), "ms"),
        "graph.build_graph.ms": (ms("graph.build_graph"), "ms"),
        "graph.build_graph.calls": (calls("graph.build_graph"), "count"),
        "graph.build_graph.edges_in": (per_op("graph.edges_in"), "count"),
        "graph.build_graph.kept_ratio": (ratio("graph.edges_kept", "graph.edges_in"), "ratio"),
        "graph.validate_matching.ms": (ms("graph.validate_matching"), "ms"),
        "graph.matching_from_edge_ids.ms": (ms("graph.matching_from_edge_ids"), "ms"),
        "graph.total_weight.ms": (ms("graph.total_weight"), "ms"),
        "graphio.read_edge_list.ms": (ms("graphio.read_edge_list"), "ms"),
        "graphio.read_matrix_market.ms": (ms("graphio.read_matrix_market"), "ms"),
        "graphio.bytes_read": (per_op("graphio.bytes_read"), "bytes"),
        "graphio.write_csv.ms": (ms("graphio.write_csv"), "ms"),
        "graphio.rows_written": (per_op("graphio.rows_written"), "count"),
        "tiebreak.edge_salts.ms": (ms("tiebreak.edge_salts"), "ms"),
        "tiebreak.key_ranks.ms": (ms("tiebreak.key_ranks"), "ms"),
        "tiebreak.key_ranks.calls": (calls("tiebreak.key_ranks"), "count"),
        "tiebreak.keys_ranked": (per_op("tiebreak.keys_ranked"), "count"),
        "matchers.localmax.ms": (ms("matchers.local_max_seq"), "ms"),
        "matchers.localmax.rounds": (per_op("matchers.localmax.rounds"), "count"),
        "matchers.localmax.edge_visits": (per_op("matchers.localmax.edge_visits"), "count"),
        "matchers.localmax.matched_per_visit": (
            ratio("matchers.localmax.matched", "matchers.localmax.edge_visits"), "ratio"),
        "matchers.greedy.ms": (ms("matchers.greedy"), "ms"),
        "matchers.gpa.ms": (ms("matchers.gpa"), "ms"),
        "matchers.hem.ms": (ms("matchers.hem"), "ms"),
        "matchers.rbm.ms": (ms("matchers.rbm"), "ms"),
        "matchers.rbm.rounds": (per_op("matchers.rbm.rounds"), "count"),
        "pram.pram_local_max.self_ms": (ms("pram.pram_local_max"), "ms"),
        "pram.compute_cross_pointers.ms": (ms("pram.compute_cross_pointers"), "ms"),
        "pram.segmented_broadcast.ms": (ms("pram.segmented_broadcast"), "ms"),
        "pram.rounds": (per_op("pram.rounds"), "count"),
        "pram.slot_ops": (per_op("pram.slot_ops"), "count"),
        "pram.slot_ops_per_input": (ratio("pram.slot_ops", "pram.inputs"), "ratio"),
        "bsp.bsp_local_max.self_ms": (ms("bsp.bsp_local_max"), "ms"),
        "bsp.partition_graph.ms": (ms("bsp.partition_graph"), "ms"),
        "bsp.candidate_records": (per_op("bsp.candidate_records"), "count"),
        "bsp.status_records": (per_op("bsp.status_records"), "count"),
        "bsp.bytes_computed": (per_op("bsp.bytes_computed"), "bytes"),
        "bsp.cut_fraction": (c.get("bsp.cut_fraction_sum", 0.0) / parts if parts else 0.0, "ratio"),
        "bsp.degree_imbalance": (
            c.get("bsp.degree_imbalance_sum", 0.0) / parts if parts else 0.0, "ratio"),
        "oracle.bruteforce.ms": (ms("oracle.max_weight_matching_bruteforce"), "ms"),
        "oracle.nodes_enumerated": (per_op("oracle.nodes_enumerated"), "count"),
        "oracle.random_audit_instance.ms": (ms("oracle.random_audit_instance"), "ms"),
        "bench.run_suite.self_ms": (ms("bench.run_suite"), "ms"),
        "bench.run_matcher.calls": (calls("bench.run_matcher"), "count"),
        "cli.main.self_ms": (ms("cli.main"), "ms"),
    }
    for module in MODULES:
        out[f"{module}.self_ms"] = (1000.0 * t.module_self_s(module) / ops, "ms")
    out["trace.op_ms"] = (1000.0 * op_s / ops, "ms")
    out["unattributed_ms"] = (1000.0 * (op_s - t.total_self_s()) / ops, "ms")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out
