"""MatrixMarket and edge-list ingestion, CSV output."""

from __future__ import annotations

import numpy as np
import pytest

from locmax import (
    build_graph,
    read_edge_list,
    read_graph,
    read_matrix_market,
    write_csv,
    write_edge_list,
)


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_mm_basic_rules(tmp_path):
    p = _write(
        tmp_path,
        "a.mtx",
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "% comment\n"
        "3 3 2\n"
        "2 1 -3.5\n"
        "3 3 7\n",
    )
    g = read_matrix_market(p)
    assert g.num_vertices == 3
    assert g.num_edges == 1  # diagonal entry dropped
    assert set(g.endpoints(0)) == {0, 1}
    assert g.edge_weight[0] == 3.5  # absolute value


def test_mm_pattern_weights_are_one(tmp_path):
    p = _write(
        tmp_path,
        "p.mtx",
        "%%MatrixMarket matrix coordinate pattern symmetric\n"
        "4 4 3\n"
        "2 1\n"
        "3 1\n"
        "4 2\n",
    )
    g = read_matrix_market(p)
    assert g.num_edges == 3
    assert np.all(g.edge_weight == 1.0)


def test_mm_out_of_bounds_entry(tmp_path):
    p = _write(
        tmp_path,
        "b.mtx",
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "4 4 1\n"
        "1 5 2.0\n",
    )
    with pytest.raises(ValueError, match="out of bounds"):
        read_matrix_market(p)


def test_mm_rejects_general_symmetry(tmp_path):
    p = _write(
        tmp_path,
        "g.mtx",
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 1\n"
        "1 2 1.0\n",
    )
    with pytest.raises(ValueError, match="symmetric"):
        read_matrix_market(p)


def test_mm_rejects_malformed_banner(tmp_path):
    p = _write(tmp_path, "m.mtx", "%%NotMatrixMarket stuff\n1 1 0\n")
    with pytest.raises(ValueError, match="banner"):
        read_matrix_market(p)


def test_mm_duplicates_keep_max_abs_and_zero_dropped(tmp_path):
    p = _write(
        tmp_path,
        "d.mtx",
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "3 3 4\n"
        "2 1 1.5\n"
        "1 2 -9.0\n"
        "3 1 0.0\n"
        "3 2 2.0\n",
    )
    g = read_matrix_market(p)
    pairs = {
        (min(u, v), max(u, v)): w
        for u, v, w in zip(g.edge_u.tolist(), g.edge_v.tolist(), g.edge_weight.tolist())
    }
    assert pairs == {(0, 1): 9.0, (1, 2): 2.0}


def test_mm_rejects_negative_size_naming_its_line(tmp_path):
    # used to fail inside numpy, naming neither the file nor the line
    p = _write(
        tmp_path,
        "neg.mtx",
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "-1 -1 0\n",
    )
    with pytest.raises(ValueError, match=f"{p}:2: malformed size line"):
        read_matrix_market(p)


def test_mm_entry_count_mismatch(tmp_path):
    p = _write(
        tmp_path,
        "c.mtx",
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "3 3 2\n"
        "2 1 1.0\n",
    )
    with pytest.raises(ValueError, match="declares"):
        read_matrix_market(p)


def test_mm_rejects_nan_entry_naming_its_line(tmp_path):
    # a NaN used to vanish: it compares False against every kept weight
    p = _write(
        tmp_path,
        "nan.mtx",
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "3 3 2\n"
        "3 1 1.0\n"
        "2 1 nan\n",
    )
    with pytest.raises(ValueError, match=f"{p}:4: entry value must be finite"):
        read_matrix_market(p)


def test_mm_rejects_inf_entry_naming_its_line(tmp_path):
    # an infinite entry used to be reported as "edge 0", a position after
    # deduplication, not a file line
    p = _write(
        tmp_path,
        "inf.mtx",
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "% comment\n"
        "3 3 2\n"
        "3 1 1.0\n"
        "2 1 -inf\n",
    )
    with pytest.raises(ValueError, match=f"{p}:5: entry value must be finite"):
        read_matrix_market(p)


def test_edge_list_single_line(tmp_path):
    p = _write(tmp_path, "e.txt", "0 1 2.5\n")
    g = read_edge_list(p)
    assert g.num_edges == 1
    assert g.num_vertices == 2
    assert g.edge_weight[0] == 2.5


def test_edge_list_roundtrip(tmp_path):
    g = build_graph([(0, 1, 0.1), (1, 2, 1 / 3), (4, 0, 2.0)], num_vertices=6)
    p = tmp_path / "rt.txt"
    write_edge_list(g, p)
    h = read_edge_list(p)
    assert h.num_vertices == 6
    assert np.array_equal(g.edge_u, h.edge_u)
    assert np.array_equal(g.edge_v, h.edge_v)
    assert np.array_equal(g.edge_weight, h.edge_weight)  # repr round-trips exactly


def test_edge_list_empty_file(tmp_path):
    p = _write(tmp_path, "empty.txt", "")
    g = read_edge_list(p)
    assert g.num_vertices == 0 and g.num_edges == 0


def test_edge_list_n_override(tmp_path):
    p = _write(tmp_path, "n.txt", "# n=10\n0 1 1.0\n")
    g = read_edge_list(p)
    assert g.num_vertices == 10


def test_edge_list_parse_error_names_line(tmp_path):
    p = _write(tmp_path, "bad.txt", "0 1 1.0\n0 2\n")
    with pytest.raises(ValueError, match=":2"):
        read_edge_list(p)


def test_read_graph_dispatch(tmp_path):
    mm = _write(
        tmp_path,
        "x.mtx",
        "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n2 1 4.0\n",
    )
    el = _write(tmp_path, "x.txt", "0 1 4.0\n")
    assert read_graph(mm).num_edges == read_graph(el).num_edges == 1


def test_write_csv_and_append(tmp_path):
    p = tmp_path / "out.csv"
    cols = ("a", "b")
    write_csv([{"a": 1, "b": 2}], p, cols)
    write_csv([{"a": 3, "b": 4}], p, cols, append=True)
    lines = p.read_text().strip().splitlines()
    assert lines == ["a,b", "1,2", "3,4"]


_BANNER = "%%MatrixMarket matrix coordinate real symmetric\n"


@pytest.mark.parametrize("text, message", [
    ("%%MatrixMarket matrix array real symmetric\n2 2\n",
     "{p}: expected 'matrix coordinate', got 'matrix array'"),
    ("%%MatrixMarket vector coordinate real symmetric\n2 2 0\n",
     "{p}: expected 'matrix coordinate', got 'vector coordinate'"),
    ("%%MatrixMarket matrix coordinate complex symmetric\n2 2 0\n",
     "{p}: unsupported field 'complex' (want real/integer/pattern)"),
    (_BANNER + "% only comments\n\n", "{p}: missing size line"),
    (_BANNER + "%\n2 2\n", "{p}:3: malformed size line '2 2'"),
    (_BANNER + "2 2 x\n", "{p}:2: malformed size line '2 2 x'"),
    (_BANNER + "2 3 0\n", "{p}: symmetric matrix must be square, got 2x3"),
], ids=["array-format", "vector-object", "complex-field", "no-size-line", "two-size-tokens",
        "non-integer-size", "non-square"])
def test_mm_rejects_each_bad_header(tmp_path, text, message):
    p = _write(tmp_path, "h.mtx", text)
    with pytest.raises(ValueError) as exc:
        read_matrix_market(p)
    assert str(exc.value) == message.format(p=p)


@pytest.mark.parametrize("n", [10**18, 3_037_000_500])
@pytest.mark.parametrize("name, text", [
    ("huge.mtx", _BANNER + "{n} {n} 1\n2 1 1.0\n"),
    ("huge.txt", "# n={n}\n0 1 1.0\n"),
])
def test_readers_reject_vertex_counts_past_int64_keys(tmp_path, n, name, text):
    # rejected before any n-length array is allocated
    p = _write(tmp_path, name, text.format(n=n))
    with pytest.raises(ValueError) as exc:
        read_graph(p)
    assert str(exc.value) == f"n={n} vertices is too many: vertex-pair keys need n*n <= 2**63"
