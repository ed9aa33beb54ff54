"""The four benchmark workloads.

Each workload drives a public ``locmax`` entry point the way users do: the
CLI in-process through ``locmax.cli.main``, or the library API. A workload
has three parts:

* ``prepare()`` makes the inputs from the workload seed (timed into
  ``setup_s``; run once per set-up repetition);
* ``reference()`` computes, once per run and untimed, what correct outputs
  look like, with checks of the benchmark's own;
* ``run(i)`` is op ``i``, the only timed part, and ``check(i, out)`` turns
  its output into a structural record, raising ``OpFailed`` when the output
  is wrong. Ops that share ``record_key(i)`` must give equal records.

Op 0 is the untimed warm-up op of every set-up repetition; timed ops start
at 1.
"""

from __future__ import annotations

import contextlib
import csv
import io
from pathlib import Path

import numpy as np

import locmax
import locmax.cli


class OpFailed(Exception):
    """An op returned a wrong result."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise OpFailed(what)


def matched_ids(m) -> np.ndarray:
    return np.sort(np.fromiter(iter(m.edges), dtype=np.int64))


def check_matching(g, m) -> np.ndarray:
    """Check that ``m`` is a valid, maximal matching of ``g`` with the mate
    table it induces; return its sorted edge ids. Independent of
    ``locmax.validate_matching``."""
    n = g.num_vertices
    ids = matched_ids(m)
    require(ids.size == 0 or (ids[0] >= 0 and ids[-1] < g.num_edges), "edge id out of range")
    require(not np.any(ids[1:] == ids[:-1]), "edge listed twice")
    u, v = g.edge_u[ids], g.edge_v[ids]
    cover = np.bincount(np.concatenate([u, v]), minlength=n)
    require(cover.max(initial=0) <= 1, "vertex covered by two matched edges")
    mate = np.full(n, -1, dtype=np.int64)
    mate[u] = v
    mate[v] = u
    require(np.array_equal(np.asarray(m.mate), mate), "mate table disagrees with the edges")
    free = cover == 0
    require(not np.any(free[g.edge_u] & free[g.edge_v]), "matching is not maximal")
    return ids


def weight_bits(w: float) -> int:
    return int(np.float64(w).view(np.uint64))


def read_rows(path: Path) -> list[dict[str, str]]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def stable_rows(rows: list[dict[str, str]]) -> tuple:
    """CSV rows without their timing columns, for the determinism gate."""
    return tuple(tuple((k, v) for k, v in row.items() if "millis" not in k) for row in rows)


def cli(argv: list[str]) -> int:
    """``locmax ...`` in-process, its console output discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return locmax.cli.main(argv)


class Workload:
    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def op_seed(self, i: int) -> int:
        """Seed of op ``i`` for workloads that draw fresh inputs every op."""
        return self.seed * 1_000_003 + i

    def prepare(self) -> None:
        pass

    def reference(self) -> None:
        pass

    def run(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> tuple:
        raise NotImplementedError

    def record_key(self, i: int) -> int:
        return 0

    def edges(self, i: int) -> int:
        """Input edges op ``i`` pushes through the pipeline."""
        raise NotImplementedError

    def quality(self) -> float:
        raise NotImplementedError


class SuiteRgg(Workload):
    """``locmax bench --family rgg --x X --seeds S``: the quality suite."""

    name = "suite-rgg16"

    def __init__(self, seed: int, work: Path, x: int = 16) -> None:
        super().__init__(seed)
        self.x = x
        self.csv = work / "suite.csv"

    def reference(self) -> None:
        spec = locmax.InstanceSpec("rgg", self.x, weights="default")
        g = spec.build(self.seed)
        self.m = g.num_edges
        self.expect = {}
        for alg in ("localmax", "greedy", "gpa", "hem", "rbm"):
            matching, trace = locmax.MATCHERS[alg](g, self.seed)
            check_matching(g, matching)
            self.expect[alg] = (matching.weight(g), trace.total_rounds,
                                trace.mean_removed_fraction())
        gpa_weight = self.expect["gpa"][0]
        self.ratio = {alg: w / gpa_weight for alg, (w, _, _) in self.expect.items()}

    def run(self, i: int):
        self.csv.unlink(missing_ok=True)
        return cli(["bench", "--family", "rgg", "--x", str(self.x),
                    "--seeds", str(self.seed), "--out", str(self.csv)])

    def check(self, i: int, rc) -> tuple:
        require(rc == 0, f"locmax bench exited {rc}")
        rows = read_rows(self.csv)
        require([r["algorithm"] for r in rows] == list(self.expect), "wrong algorithm rows")
        for r in rows:
            alg = r["algorithm"]
            weight, rounds, removed = self.expect[alg]
            require(int(r["seed"]) == self.seed, f"{alg}: wrong seed")
            require(float(r["weight"]) == weight, f"{alg}: weight {r['weight']} != {weight!r}")
            require(float(r["ratio_vs_gpa"]) == self.ratio[alg], f"{alg}: wrong ratio_vs_gpa")
            require(int(r["rounds"]) == rounds, f"{alg}: wrong rounds")
            require(float(r["mean_removed_fraction"]) == removed,
                    f"{alg}: wrong mean_removed_fraction")
        return stable_rows(rows)

    def edges(self, i: int) -> int:
        return self.m

    def quality(self) -> float:
        return self.ratio["localmax"]


class EnginesUnit(Workload):
    """The three local max engines on one unit-weight random graph."""

    name = "engines-unit16"
    alpha = 4
    p = 4

    def __init__(self, seed: int, work: Path, x: int = 16) -> None:
        super().__init__(seed)
        self.x = x
        self.corrupt_ops: set[int] = set()

    def prepare(self) -> None:
        g = locmax.gen_random(1 << self.x, self.alpha, self.seed)
        self.g = locmax.generate.with_unit_weights(g)

    def run(self, i: int):
        s = self.op_seed(i)
        seq = locmax.local_max_seq(self.g, s)
        pram = locmax.pram_local_max(self.g, s)
        bsp = locmax.bsp_local_max(self.g, self.p, s)
        if i in self.corrupt_ops:
            ids = matched_ids(bsp[0])
            bsp = (locmax.matching_from_edge_ids(self.g, ids[1:]), bsp[1])
        return seq, pram, bsp

    def check(self, i: int, out) -> tuple:
        (seq, seq_t), (pram, pram_t), (bsp, bsp_t) = out
        require(pram == seq, "pram matching differs from seq")
        require(bsp == seq, "bsp matching differs from seq")
        ids = check_matching(self.g, seq)
        weight = seq.weight(self.g)
        require(weight == float(ids.size), "unit-weight matching weight != its size")
        if i == 0:
            self.matched0 = int(ids.size)
        return (self.g.num_vertices, self.g.num_edges, seq_t.total_rounds,
                pram_t.total_rounds, bsp_t.total_rounds, pram_t.slot_ops,
                sum(rm.candidate_records for rm in bsp_t.messages),
                sum(rm.status_records for rm in bsp_t.messages),
                int(ids.size), weight_bits(weight))

    def record_key(self, i: int) -> int:
        return i

    def edges(self, i: int) -> int:
        return self.g.num_edges

    def quality(self) -> float:
        return self.matched0 / (self.g.num_vertices // 2)


def write_dirty_inputs(g, seed: int, edge_list: Path, mtx: Path) -> None:
    """Write ``g`` as an edge list and as a symmetric MatrixMarket file, both
    with extra lines a reader must drop: a reversed, lighter duplicate of
    ~10% of the edges (negated in the ``.mtx``), placed after the original
    so first-occurrence numbering is kept, plus self-loops and comments.
    Reading either file back must give ``g`` exactly.
    """
    rng = np.random.default_rng((seed, 0x1D1E))
    m, n = g.num_edges, g.num_vertices
    # per edge k, up to four lines in this order: a self-loop, a comment,
    # edge k itself, and its duplicate
    present = np.zeros((m, 4), dtype=bool)
    present[rng.choice(m, size=max(1, m // 200), replace=False), 0] = True
    present[::4096, 1] = True
    present[:, 2] = True
    present[rng.random(m) < 0.10, 3] = True
    loops, comments, dups = (np.flatnonzero(present[:, c]) for c in (0, 1, 3))
    x = rng.integers(0, n, size=loops.size)
    w = g.edge_weight
    w_text = list(map(repr, w.tolist()))

    def text(base: int, comment: str, edge_fmt: str, dup_w: np.ndarray) -> str:
        u, v = (g.edge_u + base).tolist(), (g.edge_v + base).tolist()
        lines = np.empty((m, 4), dtype=object)
        lines[loops, 0] = [f"{y} {y} {w_text[k]}"
                           for y, k in zip((x + base).tolist(), loops.tolist())]
        lines[comments, 1] = [f"{comment} edges from {k}" for k in comments.tolist()]
        lines[:, 2] = list(map(edge_fmt.format, u, v, w_text))
        # the duplicate is reversed relative to edge k's line
        lines[dups, 3] = list(map(edge_fmt.format, [v[k] for k in dups.tolist()],
                                  [u[k] for k in dups.tolist()],
                                  map(repr, dup_w[dups].tolist())))
        return "\n".join(lines[present].tolist()) + "\n"

    nnz = int(present[:, [0, 2, 3]].sum())
    edge_list.write_text(
        f"# dirty edge list for the ingest benchmark\n# n={n}\n"
        + text(0, "#", "{} {} {}", w * 0.5),
        encoding="utf-8")
    mtx.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        f"% dirty matrix for the ingest benchmark\n{n} {n} {nnz}\n"
        + text(1, "%", "{1} {0} {2}", -w * 0.5),
        encoding="ascii")


GRAPH_ARRAYS = ("offsets", "slot_vertex", "slot_edge", "edge_u", "edge_v", "edge_weight")


class IngestRgg(Workload):
    """``locmax match --input FILE --out CSV`` on a dirty edge list and then a
    dirty ``.mtx`` of one rgg graph; one op reads both."""

    name = "ingest-rgg16"

    def __init__(self, seed: int, work: Path, x: int = 16) -> None:
        super().__init__(seed)
        self.x = x
        self.files = (work / "ingest.txt", work / "ingest.mtx")
        self.csv = work / "ingest.csv"
        self.read_back: list = []

    def prepare(self) -> None:
        self.g = locmax.gen_rgg(self.x, self.seed, "random")
        write_dirty_inputs(self.g, self.seed, *self.files)

    def reference(self) -> None:
        g = self.g
        matching, trace = locmax.local_max_seq(g, self.seed)
        check_matching(g, matching)
        self.weight = matching.weight(g)
        self.rounds = trace.total_rounds
        self.removed = trace.mean_removed_fraction()
        best = np.zeros(g.num_vertices)
        np.maximum.at(best, g.edge_u, g.edge_weight)
        np.maximum.at(best, g.edge_v, g.edge_weight)
        # every matched edge weighs at most the mean of its endpoints' best
        self.upper_bound = float(best.sum()) / 2.0

    def run(self, i: int):
        self.csv.unlink(missing_ok=True)
        self.read_back.clear()
        with capture_returns(locmax.cli, "read_graph", self.read_back):
            return [cli(["match", "--input", str(path), "--seed", str(self.seed),
                         "--out", str(self.csv)]) for path in self.files]

    def check(self, i: int, rcs) -> tuple:
        require(rcs == [0, 0], f"locmax match exited {rcs}")
        require(len(self.read_back) == len(self.files), "the CLI did not read every input")
        for path, got in zip(self.files, self.read_back):
            require(got.num_vertices == self.g.num_vertices, f"{path.name}: vertex count differs")
            for name in GRAPH_ARRAYS:
                require(np.array_equal(getattr(got, name), getattr(self.g, name)),
                        f"{path.name}: {name} differs from the generated graph")
        rows = read_rows(self.csv)
        require(len(rows) == len(self.files), f"expected {len(self.files)} CSV rows")
        for r in rows:
            require(float(r["weight"]) == self.weight, f"weight {r['weight']} != {self.weight!r}")
            require(int(r["rounds"]) == self.rounds, "wrong rounds")
            require(float(r["mean_removed_fraction"]) == self.removed,
                    "wrong mean_removed_fraction")
        return stable_rows(rows)

    def edges(self, i: int) -> int:
        return self.g.num_edges * len(self.files)

    def quality(self) -> float:
        return self.weight / self.upper_bound


@contextlib.contextmanager
def capture_returns(holder, name: str, sink: list):
    """Append every return value of ``holder.name`` to ``sink`` meanwhile."""
    original = getattr(holder, name)

    def capturing(*args, **kwargs):
        result = original(*args, **kwargs)
        sink.append(result)
        return result

    setattr(holder, name, capturing)
    try:
        yield
    finally:
        setattr(holder, name, original)


class AuditSmall(Workload):
    """``locmax audit`` of localmax and greedy against the exact oracle, on
    fresh instances every op."""

    name = "audit-small"
    algs = ("localmax", "greedy")

    def __init__(self, seed: int, work: Path, trials: int = 1000) -> None:
        super().__init__(seed)
        self.trials = trials
        self.csv = work / "audit.csv"
        self.op_edges: dict[int, int] = {}

    def run(self, i: int):
        # Oracle work varies by ~10% between instance sets, so every op
        # draws its own and a run averages over many.
        self.csv.unlink(missing_ok=True)
        return [cli(["audit", "--alg", alg, "--trials", str(self.trials),
                     "--seed", str(self.op_seed(i)), "--out", str(self.csv)])
                for alg in self.algs]

    def check(self, i: int, rcs) -> tuple:
        require(rcs == [0] * len(self.algs), f"locmax audit exited {rcs}")
        rows = read_rows(self.csv)
        require([r["matcher"] for r in rows] == list(self.algs), "wrong audit rows")
        for r in rows:
            require(int(r["trials"]) == self.trials, "wrong trial count")
            require(r["violations"] == r["invalid"] == r["non_maximal"] == "0",
                    f"{r['matcher']}: audit found violations")
            require(0.5 - 1e-9 <= float(r["min_ratio"]) <= float(r["mean_ratio"]) <= 1.0 + 1e-9,
                    f"{r['matcher']}: ratios out of range")
        if i == 0:
            self.mean_ratio0 = float(rows[0]["mean_ratio"])
        return stable_rows(rows)

    def record_key(self, i: int) -> int:
        return i

    def edges(self, i: int) -> int:
        if i not in self.op_edges:
            self.op_edges[i] = sum(
                locmax.oracle.random_audit_instance(
                    np.random.default_rng((self.op_seed(i), t))).num_edges
                for t in range(self.trials))
        return self.op_edges[i] * len(self.algs)

    def quality(self) -> float:
        return self.mean_ratio0


WORKLOADS = {w.name: w for w in (SuiteRgg, EnginesUnit, IngestRgg, AuditSmall)}

# Sizes for the self-check: every workload once, in seconds.
SMOKE_SIZES = {"suite-rgg16": {"x": 8}, "engines-unit16": {"x": 8},
               "ingest-rgg16": {"x": 8}, "audit-small": {"trials": 20}}
