"""Array-based builder, generators, readers and engines against the references.

Every graph is compared array for array (values, dtypes and weight bits)
with what the reference implementations in ``reference.py`` produce from
the same input, and every error with the reference's message. The staged
(weight, salt, id) engines are compared run for run with the rank-based
ones they replaced: the matching, every round's statistics, the PRAM work
count and write log, and the BSP message records. Greedy, GPA, HEM and
HEM-random are compared with the edge and vertex scans they replaced.
"""

from __future__ import annotations

import itertools
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import locmax.generate
import locmax.matchers
import reference as ref
from locmax import (
    Matching,
    bsp_local_max,
    build_graph,
    build_graph_arrays,
    gen_random,
    gen_rgg,
    gpa,
    greedy,
    hem,
    local_max_seq,
    pram_local_max,
    rbm,
    read_graph,
    validate_matching,
)
from locmax.generate import radius_edges_grid, with_unit_weights
from locmax.matchers import _descending_key_order, hem_random
from locmax.oracle import random_audit_instance

GRAPH_ARRAYS = ("offsets", "slot_vertex", "slot_edge", "edge_u", "edge_v", "edge_weight")


def assert_same_graph(got, want):
    assert got.num_vertices == want.num_vertices
    for name in GRAPH_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert not a.flags.writeable, name
        if name == "edge_weight":  # bit for bit, so -0.0 and 0.0 differ
            a, b = a.view(np.uint64), b.view(np.uint64)
        assert np.array_equal(a, b), name


def outcome(fn, *args):
    """("ok", graph) or ("error", message); only ValueError is expected."""
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return "error", str(exc)


def assert_same_outcome(got, want):
    assert got[0] == want[0], (got, want)
    if got[0] == "ok":
        assert_same_graph(got[1], want[1])
    else:
        assert got[1] == want[1]


# -- builder -----------------------------------------------------------------

# ties, signed zeros, the smallest subnormal and normal, and the largest
# magnitudes the builder must keep exactly
SPECIAL_WEIGHTS = (0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 0.5, 1.0, 2.0, 1e308)


@st.composite
def multigraphs(draw):
    n = draw(st.integers(1, 10))
    ids = st.integers(0, n - 1)
    weight = st.one_of(st.sampled_from(SPECIAL_WEIGHTS),
                       st.floats(0.0, 1e308, allow_nan=False, allow_infinity=False))
    entries = draw(st.lists(st.tuples(ids, ids, weight), max_size=40))
    # repeat some entries reversed or unchanged, so parallel edges are common
    extra = draw(st.lists(st.tuples(st.integers(0, 10**6), st.booleans()),
                          max_size=len(entries)))
    for pick, flip in extra:
        u, v, w = entries[pick % len(entries)]
        entries.append((v, u, w) if flip else (u, v, w))
    order = draw(st.permutations(range(len(entries))))
    entries = [entries[i] for i in order]
    fix_n = draw(st.sampled_from([None, n, n + 3]))
    return entries, fix_n


def arrays_of(entries):
    if not entries:
        return np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0)
    u, v, w = zip(*entries)
    return np.array(u, np.int64), np.array(v, np.int64), np.array(w, np.float64)


@given(multigraphs())
@settings(max_examples=300, deadline=None)
def test_builder_matches_reference(case):
    entries, fix_n = case
    want = ref.build_graph(entries, num_vertices=fix_n)
    assert_same_graph(build_graph_arrays(*arrays_of(entries), num_vertices=fix_n), want)
    assert_same_graph(build_graph(entries, num_vertices=fix_n), want)


BAD_ENTRIES = (
    (-1, 0, 1.0),
    (0, -2, 1.0),
    (0, 99, 1.0),
    (99, 99, 1.0),    # an out-of-range self-loop is still out of range
    (0, 1, float("nan")),
    (0, 1, float("inf")),
    (0, 1, -1.0),
    (1, 1, -5e-324),  # a bad weight on a self-loop is still bad
)


@given(multigraphs(), st.lists(st.tuples(st.sampled_from(BAD_ENTRIES), st.integers(0, 10**6)),
                               min_size=1, max_size=3))
@settings(max_examples=200, deadline=None)
def test_builder_errors_match_reference(case, bad):
    entries, fix_n = case
    for entry, at in bad:
        entries.insert(at % (len(entries) + 1), entry)
    want = outcome(ref.build_graph, entries, fix_n)
    assert_same_outcome(outcome(build_graph_arrays, *arrays_of(entries), fix_n), want)
    assert_same_outcome(outcome(build_graph, entries, fix_n), want)


# -- matching validation -----------------------------------------------------

@given(multigraphs(), st.data())
@settings(max_examples=300, deadline=None)
def test_validate_matching_matches_reference(case, data):
    entries, fix_n = case
    g = build_graph(entries, num_vertices=fix_n)
    # any subset of edge ids plus stray ones, with a mate table that is
    # induced, induced and then perturbed, or random
    ids = data.draw(st.sets(st.integers(-2, g.num_edges + 1), max_size=8))
    mate = np.full(g.num_vertices, -1, dtype=np.int64)
    for k in sorted(ids):
        if 0 <= k < g.num_edges:
            u, v = g.endpoints(k)
            mate[u], mate[v] = v, u
    for vertex, value in data.draw(st.lists(st.tuples(st.integers(0, 30), st.integers(-1, 30)),
                                            max_size=2)):
        if vertex < g.num_vertices:
            mate[vertex] = value
    m = Matching(np.array(list(ids), dtype=np.int64), mate)
    assert validate_matching(g, m) == ref.validate_matching(g, m)


# -- generators --------------------------------------------------------------

@pytest.mark.parametrize("x", [*range(4, 13), 14])
def test_rgg_matches_reference(x):
    for seed in (0, 1, 2):
        for mode in ("euclidean", "random"):
            assert_same_graph(gen_rgg(x, seed, mode), ref.gen_rgg(x, seed, mode))


@pytest.mark.parametrize("x", range(4, 13))
def test_random_sparse_and_unit_weights_match_reference(x):
    for seed in (0, 1, 2):
        g = gen_random(1 << x, 4, seed)
        assert_same_graph(g, ref.gen_random(1 << x, 4, seed))
        assert_same_graph(with_unit_weights(g), ref.with_unit_weights(g))


@pytest.mark.parametrize("n,alpha", [(8, 3), (16, 5), (32, 10), (64, 20)])
def test_random_dense_matches_reference(n, alpha):
    assert 2 * alpha * n > n * (n - 1) // 2  # the exact-sampler path
    for seed in range(4):
        assert_same_graph(gen_random(n, alpha, seed), ref.gen_random(n, alpha, seed))


def test_audit_instances_match_reference():
    for seed in range(3):
        for t in range(400):
            got = random_audit_instance(np.random.default_rng((seed, t)))
            want = ref.random_audit_instance(np.random.default_rng((seed, t)))
            assert_same_graph(got, want)


def assert_same_pairs(points, radius):
    """The grid search's (u, v, distance) equal the reference's bit for bit."""
    got, want = radius_edges_grid(points, radius), ref.radius_edges_grid(points, radius)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        if a.dtype == np.float64:
            a, b = a.view(np.uint64), b.view(np.uint64)
        assert np.array_equal(a, b)


@pytest.mark.parametrize("chunk", [1, 7, locmax.generate._GRID_CHUNK, 1 << 15])
def test_grid_pairs_match_reference_order(monkeypatch, chunk):
    monkeypatch.setattr(locmax.generate, "_GRID_CHUNK", chunk)  # also many chunks
    for x in (6, 9, 12):
        pts = np.random.default_rng(x).random((1 << x, 2))
        assert_same_pairs(pts, ref.rgg_threshold(1 << x))


def _grid_case(name):
    rng = np.random.default_rng(3)
    if name == "cell borders":  # multiples of 1/side, some exactly 1.0
        return np.concatenate([rng.integers(0, 11, (60, 2)) / 10, rng.random((30, 2))]), 0.1
    if name == "dyadic borders":
        return rng.integers(0, 9, (80, 2)) / 8, 0.125
    if name == "1/radius an integer":
        return rng.random((300, 2)), 1 / 7
    if name == "duplicates":
        pts = rng.random((40, 2))
        return pts[rng.integers(0, 40, 120)], 0.15
    if name == "side 1":
        return rng.random((60, 2)), 0.7
    if name == "one cell":
        return 0.31 + 0.08 * rng.random((70, 2)), 0.1
    if name == "empty columns":  # points in 4 of 20 columns
        x = (rng.choice([0, 1, 5, 19], 150) + rng.random(150)) / 20
        return np.column_stack([x, rng.random(150)]), 0.05
    if name == "not Morton order":
        return rng.random((1000, 2)), ref.rgg_threshold(1000)
    raise AssertionError(name)


@pytest.mark.parametrize("name", ["cell borders", "dyadic borders", "1/radius an integer",
                                  "duplicates", "side 1", "one cell", "empty columns",
                                  "not Morton order"])
def test_grid_pairs_match_reference_on_special_inputs(name):
    assert_same_pairs(*_grid_case(name))


def test_grid_pairs_on_tiny_inputs_and_nonpositive_radii():
    rng = np.random.default_rng(4)
    for n in (0, 1, 2):
        for radius in (0.3, 0.7, 2.0):
            assert_same_pairs(rng.random((n, 2)), radius)
    for radius in (0.0, -0.5):
        assert_same_pairs(rng.random((20, 2)), radius)
    assert_same_pairs(np.array([[0.5, 0.5], [0.5, 0.5]]), 0.1)  # distance 0


@st.composite
def grid_inputs(draw):
    """Point sets on cell borders, in few cells or columns, with duplicates."""
    radius = draw(st.one_of(st.sampled_from([0.0, 0.1, 0.125, 1 / 3, 0.5, 0.7]),
                            st.floats(0.02, 1.0)))
    side = max(1, math.floor(1 / radius)) if radius > 0 else 1
    shape = draw(st.sampled_from(("anywhere", "borders", "one cell", "few columns")))
    if shape == "anywhere":
        coord = st.floats(0.0, 1.0, exclude_max=True)
    elif shape == "borders":
        coord = st.integers(0, side).map(lambda k: k / side)
    elif shape == "one cell":
        coord = st.floats(0.0, 1.0, exclude_max=True).map(lambda t: t / side)
    else:
        coord = st.tuples(st.sampled_from([0, side // 2, side - 1]),
                          st.floats(0.0, 1.0, exclude_max=True)).map(lambda c: sum(c) / side)
    other = st.floats(0.0, 1.0) if shape == "few columns" else coord
    points = draw(st.lists(st.tuples(coord, other), max_size=40))
    copies = draw(st.lists(st.integers(0, 10**6), max_size=len(points)))
    points += [points[i % len(points)] for i in copies]
    if draw(st.booleans()):
        points = [(y, x) for x, y in points]
    return np.array(points, dtype=np.float64).reshape(-1, 2), radius


@given(grid_inputs())
@settings(max_examples=300, deadline=None)
def test_grid_pairs_match_reference_on_random_shapes(case):
    assert_same_pairs(*case)


# -- engines -----------------------------------------------------------------

@st.composite
def tie_graphs(draw):
    """Multigraphs, stars and cliques, often with every weight equal."""
    shape = draw(st.sampled_from(("multigraph", "star", "clique")))
    if shape == "multigraph":
        entries, fix_n = draw(multigraphs())
    else:
        k = draw(st.integers(2, 9))
        label = draw(st.permutations(range(k)))
        pairs = ([(0, v) for v in range(1, k)] if shape == "star"
                 else list(itertools.combinations(range(k), 2)))
        weights = st.sampled_from(SPECIAL_WEIGHTS)
        entries = [(label[u], label[v], draw(weights)) for u, v in pairs]
        fix_n = None
    if draw(st.booleans()):
        w = draw(st.sampled_from(SPECIAL_WEIGHTS))
        entries = [(u, v, w) for u, v, _ in entries]
    return build_graph(entries, num_vertices=fix_n)


def assert_same_run(got, want):
    (got_m, got_t), (want_m, want_t) = got, want
    assert got_m == want_m
    assert got_t.rounds == want_t.rounds
    assert got_t.slot_ops == want_t.slot_ops
    assert got_t.messages == want_t.messages


def worker_counts(g):
    n = g.num_vertices
    return sorted({min(p, n) for p in (1, 2, 3, 8, n)} - {0})


def assert_engines_match_reference(g, seed, rerandomize):
    want = ref.pram_local_max(g, seed, checked=True, rerandomize=rerandomize)
    got = pram_local_max(g, seed, checked=True, rerandomize=rerandomize)
    assert_same_run(got, want)
    assert got[1].write_log.conflicts == 0
    assert got[1].write_log == want[1].write_log
    seq_m, seq_t = local_max_seq(g, seed, rerandomize)
    assert seq_m == want[0] and seq_t.rounds == want[1].rounds
    for p in worker_counts(g):
        assert_same_run(bsp_local_max(g, p, seed, rerandomize),
                        ref.bsp_local_max(g, p, seed, rerandomize))


@given(tie_graphs(), st.integers(0, 2**32), st.booleans())
@settings(max_examples=300, deadline=None)
def test_engines_match_rank_based_reference(g, seed, rerandomize):
    assert_engines_match_reference(g, seed, rerandomize)


@pytest.mark.parametrize("family", ["unit", "rgg"])
@pytest.mark.parametrize("x", [6, 8, 10])
def test_engines_match_rank_based_reference_on_generated_graphs(family, x):
    for seed in (0, 1):
        if family == "unit":
            g = with_unit_weights(gen_random(1 << x, 4, seed))
        else:
            g = gen_rgg(x, seed)
        for rerandomize in (True, False):
            assert_engines_match_reference(g, seed, rerandomize)


@given(tie_graphs(), st.integers(0, 2**32))
@settings(max_examples=200, deadline=None)
def test_rbm_matches_rank_based_reference(g, seed):
    assert_same_run(rbm(g, seed), ref.rbm(g, seed))


def test_rbm_matches_rank_based_reference_on_generated_graphs():
    for x in (6, 8, 10):
        for g in (gen_rgg(x, x), with_unit_weights(gen_random(1 << x, 4, x))):
            assert_same_run(rbm(g, 3), ref.rbm(g, 3))
    for seed in range(5):
        g = gen_rgg(12, seed, "random")
        assert_same_run(rbm(g, seed), ref.rbm(g, seed))


# -- quality baselines -------------------------------------------------------

def assert_baselines_match_reference(g, seed):
    assert_same_run(greedy(g, seed), ref.greedy(g, seed))
    assert_same_run(gpa(g, seed), ref.gpa(g, seed))
    assert_same_run(hem(g, seed), ref.hem(g, seed))
    assert_same_run(hem_random(g, seed), ref.hem_random(g, seed))


@given(tie_graphs(), st.integers(0, 2**32))
@settings(max_examples=300, deadline=None)
def test_baselines_match_scan_reference(g, seed):
    assert np.array_equal(_descending_key_order(g, seed), ref.descending_key_order(g, seed))
    assert_baselines_match_reference(g, seed)


@pytest.mark.parametrize("family", ["unit", "rgg"])
@pytest.mark.parametrize("x", [6, 8, 10])
def test_baselines_match_scan_reference_on_generated_graphs(family, x):
    for seed in (0, 1):
        if family == "unit":
            g = with_unit_weights(gen_random(1 << x, 4, seed))
        else:
            g = gen_rgg(x, seed)
        assert_baselines_match_reference(g, seed)


def test_baselines_match_scan_reference_on_audit_instances():
    for t in range(2000):
        assert_baselines_match_reference(random_audit_instance(np.random.default_rng((5, t))), t)


def paths_and_cycles(seed):
    """Paths of 1 to 200 edges and even cycles of 4 to 202, renamed and
    reordered at random: GPA accepts every edge, and its walks and path
    solutions run in lockstep, then finish one at a time."""
    rng = np.random.default_rng(seed)
    pairs, n = [], 0
    for length in range(1, 201):
        pairs += [(n + i, n + i + 1) for i in range(length)]
        n += length + 1
    for length in range(4, 203, 2):
        pairs += [(n + i, n + (i + 1) % length) for i in range(length)]
        n += length
    weights = rng.choice([1.0, 2.0, 3.0], size=len(pairs)) if seed % 2 else rng.random(len(pairs))
    name = rng.permutation(n)
    return build_graph([(int(name[pairs[i][0]]), int(name[pairs[i][1]]), float(weights[i]))
                        for i in rng.permutation(len(pairs))], num_vertices=n)


def long_structure_graphs():
    n = 20_000
    path = [(i, i + 1) for i in range(n - 1)]
    cycle = [(i, (i + 1) % n) for i in range(n)]
    yield build_graph([(u, v, float(v)) for u, v in path])  # rising weights
    yield build_graph([(u, v, 1.0) for u, v in path])
    yield build_graph([(u, v, float(1 + u % 7)) for u, v in cycle])
    for seed in (0, 1):
        yield paths_and_cycles(seed)


def test_baselines_match_scan_reference_on_long_structures():
    # a monotone path has a dependency chain as long as the path; the
    # kernel must still finish in a few rounds and a scan
    for seed, g in enumerate(long_structure_graphs()):
        assert_baselines_match_reference(g, seed)


@pytest.mark.parametrize("fraction,chunk,lockstep", [(0.0, 3, 1), (2.0, 1, 2), (1 / 16, 5, 4)])
def test_baselines_match_scan_reference_at_other_switch_points(monkeypatch, fraction, chunk,
                                                               lockstep):
    # rounds to the end or a scan after the first round, tiny chunks, and
    # lockstep walks and solutions down to one or two at a time
    monkeypatch.setattr(locmax.matchers, "_SCAN_FRACTION", fraction)
    monkeypatch.setattr(locmax.matchers, "_CHUNK", chunk)
    monkeypatch.setattr(locmax.matchers, "_LOCKSTEP_MIN", lockstep)
    for t in range(200):
        assert_baselines_match_reference(random_audit_instance(np.random.default_rng((7, t))), t)
    for seed in (0, 1):
        assert_baselines_match_reference(gen_rgg(8, seed), seed)
        assert_baselines_match_reference(paths_and_cycles(seed), seed)


# -- readers -----------------------------------------------------------------

# Tokens that both readers parse, mostly, and ones that make a line
# malformed (float and non-numeric ids, a comment glued to a token) or its
# entry invalid (negative ids, non-finite and negative weights).
GOOD_IDS = ("0", "1", "2", "3", "+1", "-0", "00", "7")
BAD_IDS = ("-1", "1.0", "1e0", "x", "2#", "")
GOOD_WEIGHTS = ("1", "0.5", "2.0", "1e3", ".5", "5.", "0", "-0.0", "5e-324", "1e308")
BAD_WEIGHTS = ("-1", "nan", "-inf", "Infinity", "1e400", "abc", "1.5e", "0x1p3", "3%", "1#")
ID_TOKENS = st.sampled_from(GOOD_IDS * 6 + BAD_IDS)
WEIGHT_TOKENS = st.sampled_from(GOOD_WEIGHTS * 4 + BAD_WEIGHTS)


@st.composite
def edge_list_lines(draw):
    kind = draw(st.sampled_from(["edge"] * 6 + ["comment", "nline", "blank", "short", "extra",
                                                  "trailing"]))
    u, v, w = draw(ID_TOKENS), draw(ID_TOKENS), draw(WEIGHT_TOKENS)
    pad = draw(st.sampled_from(["", " ", "\t", "  "]))
    if kind == "edge":
        return f"{pad}{u} {v}{pad} {w}{pad}"
    if kind == "comment":
        return f"{pad}# {u} {v} {w}"
    if kind == "nline":
        return f"# n={draw(st.integers(0, 12))}"
    if kind == "blank":
        return pad
    if kind == "short":
        return f"{u} {v}"
    if kind == "extra":
        return f"{u} {v} {w} {w}"
    return f"{u} {v} {w} # note"


@st.composite
def mtx_files(draw):
    field = draw(st.sampled_from(["real", "integer", "pattern"]))
    rows = draw(st.integers(0, 6))
    inside = st.integers(1, max(rows, 1))
    index = st.one_of(inside, inside, inside, st.sampled_from([-1, 0, rows + 1]))
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["entry"] * 6 + ["comment", "blank", "short", "extra",
                                                      "trailing", "bad"]))
        i, j = draw(index), draw(index)
        value = draw(WEIGHT_TOKENS)
        cells = [str(i), str(j)] + ([value] if field != "pattern" else [])
        if kind == "entry":
            lines.append(" ".join(cells))
        elif kind == "comment":
            lines.append(f"% {value}")
        elif kind == "blank":
            lines.append("")
        elif kind == "short":
            lines.append(" ".join(cells[:-1]))
        elif kind == "extra":
            lines.append(" ".join(cells + ["1"]))
        elif kind == "trailing":
            lines.append(" ".join(cells) + " % note")
        else:
            lines.append(" ".join([draw(ID_TOKENS)] + cells[1:]))
    entries = sum(1 for s in lines if s.strip() and not s.strip().startswith("%"))
    nnz = entries + draw(st.sampled_from([0, 0, 0, 1, -1]))
    head = [f"%%MatrixMarket matrix coordinate {field} symmetric", "% generated", f"{rows} {rows} {nnz}"]
    return "\n".join(head + lines) + draw(st.sampled_from(["", "\n"]))


def compare_readers(name: str, text: str, reference_reader) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(text, encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = outcome(read_graph, path)
        assert_same_outcome(got, outcome(reference_reader, path))


@given(st.lists(edge_list_lines(), max_size=12), st.sampled_from(["\n", "\r\n"]))
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_edge_list_reader_matches_reference(lines, newline):
    compare_readers("g.txt", newline.join(lines) + newline, ref.read_edge_list)


@given(mtx_files())
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_matrix_market_reader_matches_reference(text):
    compare_readers("g.mtx", text, ref.read_matrix_market)


@pytest.mark.parametrize("text", ["", "\n\n", "# only a comment\n", "# n=4\n  \n"])
def test_edge_list_without_data_is_empty_graph_without_warning(tmp_path, text):
    path = tmp_path / "empty.txt"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = read_graph(path)
    assert g.num_edges == 0
    assert_same_graph(g, ref.read_edge_list(path))


@pytest.mark.parametrize("line", ["1_0 2 1.0", "0 1 1_0.5", "١ 2 1.0", "0 1 ٣.5",
                                  "9223372036854775808 1 1.0"])
def test_tokens_python_accepts_but_numpy_does_not_are_rejected(tmp_path, line):
    # underscores, non-ASCII digits and ids beyond int64: the loop reader
    # parsed these, the numpy reader rejects them naming the line
    path = tmp_path / "g.txt"
    path.write_text(f"# n=20\n0 1 1.0\n{line}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"{path.name}:3: cannot parse"):
        read_graph(path)
