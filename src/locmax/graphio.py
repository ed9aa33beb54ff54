"""Instance ingestion (Matrix Market, plain edge lists) and CSV output.

Both readers read a file once and parse all its data lines with numpy. A
line-by-line scan runs only when that parse fails, to name the first
offending line in the error.
"""

from __future__ import annotations

import csv
import io
import math
import re
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .graph import Graph, build_graph_arrays

_MM_FIELDS = ("real", "integer", "pattern")
_EDGE_DTYPE = np.dtype([("u", np.int64), ("v", np.int64), ("w", np.float64)])
_PATTERN_DTYPE = np.dtype([("u", np.int64), ("v", np.int64)])


def read_matrix_market(path: str | Path) -> Graph:
    """Read a symmetric MatrixMarket coordinate file as a weighted graph.

    One undirected edge per off-diagonal stored entry, weighted by the
    absolute value of the entry (1.0 for pattern files). Diagonal entries
    are dropped, duplicates collapse to the largest absolute value, and
    explicit zero entries are discarded: a zero-weight edge can never beat a
    positive one and would only pollute quality ratios. NaN and infinite
    entries are rejected. Indices are 1-based in the file and 0-based in the
    result.
    """
    path = Path(path)
    data = _read_newline_normalized(path)
    banner_end = _line_end(data, 0)
    header = data[:banner_end].decode("ascii", "replace")
    tokens = header.strip().split()
    if len(tokens) != 5 or tokens[0] != "%%MatrixMarket":
        raise ValueError(f"{path}: malformed MatrixMarket banner: {header.strip()!r}")
    _, obj, fmt, field, symmetry = (t.lower() for t in tokens)
    if obj != "matrix" or fmt != "coordinate":
        raise ValueError(f"{path}: expected 'matrix coordinate', got '{obj} {fmt}'")
    if field not in _MM_FIELDS:
        raise ValueError(f"{path}: unsupported field {field!r} (want real/integer/pattern)")
    if symmetry != "symmetric":
        raise ValueError(f"{path}: symmetry must be 'symmetric', got {symmetry!r}")

    found = _Lines(path, data, banner_end + 1, 2, "%", "ascii", "replace").first_data_line()
    if found is None:
        raise ValueError(f"{path}: missing size line")
    size_line, size_end = found
    lineno = data.count(b"\n", 0, size_end) + 1
    try:  # a count of tokens other than 3 fails the unpacking
        rows, cols, nnz = (int(p) for p in size_line.split())
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: malformed size line {size_line!r}") from exc
    if min(rows, cols, nnz) < 0:
        raise ValueError(f"{path}:{lineno}: malformed size line {size_line!r}")
    if rows != cols:
        raise ValueError(f"{path}: symmetric matrix must be square, got {rows}x{cols}")

    want_value = field != "pattern"

    def entry_problem(s: str) -> str | None:
        parts = s.split()
        if len(parts) != (3 if want_value else 2) or not (
            _is_int(parts[0]) and _is_int(parts[1]) and (not want_value or _is_float(parts[2]))
        ):
            return f"malformed entry {s!r}"
        i, j = int(parts[0]), int(parts[1])
        if not (1 <= i <= rows and 1 <= j <= cols):
            return f"entry ({i},{j}) out of bounds for {rows}x{cols}"
        value = float(parts[2]) if want_value else 1.0
        if not math.isfinite(value):
            return f"entry value must be finite, got {value!r}"
        return None

    body = _Lines(path, data, min(size_end + 1, len(data)), lineno + 1, "%", "ascii", "replace")
    entries, _ = body.parse(_EDGE_DTYPE if want_value else _PATTERN_DTYPE, entry_problem)
    i, j = entries["u"], entries["v"]
    value = entries["w"] if want_value else np.ones(i.size)
    if np.any((i < 1) | (i > rows) | (j < 1) | (j > cols) | ~np.isfinite(value)):
        raise body.first_bad_line(entry_problem)
    if i.size != nnz:
        raise ValueError(f"{path}: header declares {nnz} entries, found {i.size}")
    w = np.abs(value)
    keep = (i != j) & (w != 0.0)
    return build_graph_arrays(
        np.minimum(i, j)[keep] - 1, np.maximum(i, j)[keep] - 1, w[keep], num_vertices=rows
    )


_NLINE = re.compile(r"#\s*n\s*=\s*(\d+)")


def read_edge_list(path: str | Path) -> Graph:
    """Read a whitespace-separated "u v w" edge list.

    Lines starting with '#' are comments; a "# n=<N>" comment fixes the
    vertex count (otherwise it is inferred as max id + 1, 0 for an empty
    file). Parse failures report the offending line number.
    """
    path = Path(path)

    def edge_problem(s: str) -> str | None:
        parts = s.split()
        if len(parts) != 3:
            return f"expected 'u v w', got {s!r}"
        if not (_is_int(parts[0]) and _is_int(parts[1]) and _is_float(parts[2])):
            return f"cannot parse {s!r}"
        return None

    lines = _Lines(path, _read_newline_normalized(path), 0, 1, "#", "utf-8", "strict")
    edges, comments = lines.parse(_EDGE_DTYPE, edge_problem)
    n_override: int | None = None
    for comment in comments:
        m = _NLINE.search(comment)
        if m:
            n_override = int(m.group(1))
    return build_graph_arrays(edges["u"], edges["v"], edges["w"], num_vertices=n_override)


def _read_newline_normalized(path: Path) -> bytes:
    """The file's bytes, with line ends translated as text-mode reading does."""
    data = path.read_bytes()
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return data


def _line_end(data: bytes, pos: int) -> int:
    end = data.find(b"\n", pos)
    return len(data) if end < 0 else end


_INT_TOKEN = re.compile(r"[+-]?[0-9]+", re.ASCII)


def _is_int(token: str) -> bool:
    """Whether numpy parses the token as an int64 (Python's int() also
    takes underscores, non-ASCII digits and unbounded values)."""
    return _INT_TOKEN.fullmatch(token) is not None and -(2**63) <= int(token) < 2**63


def _is_float(token: str) -> bool:
    """Whether numpy parses the token as a float64: float()'s grammar
    without underscores or non-ASCII digits."""
    if not token.isascii() or "_" in token:
        return False
    try:
        float(token)
    except ValueError:
        return False
    return True


_INK = re.compile(rb"\S")  # a byte that is not ASCII whitespace


class _Lines:
    """The lines of a file from byte ``start`` on; lines whose first
    non-blank character is ``mark`` are comments, other non-blank lines are
    data lines."""

    def __init__(self, path: Path, data: bytes, start: int, first_lineno: int,
                 mark: str, encoding: str, errors: str) -> None:
        self.path, self.data, self.start, self.first_lineno = path, data, start, first_lineno
        self.mark, self.encoding, self.errors = mark, encoding, errors

    def parse(self, dtype: np.dtype, problem: Callable[[str], str | None]
              ) -> tuple[np.ndarray, list[str]]:
        """All data lines as one structured array, and the comment lines.

        A malformed line raises the error that :meth:`first_bad_line`
        builds. numpy would drop a comment that trails data on its line, so
        such a line is found and reported first.
        """
        comments = []
        mark = self.mark.encode()
        pos = self.data.find(mark, self.start)
        while pos >= 0:
            line, end = self._line_at(pos)
            if not line.startswith(self.mark):
                raise self.first_bad_line(problem)
            comments.append(line)
            pos = self.data.find(mark, end)
        if self.first_data_line() is None:
            return np.empty(0, dtype=dtype), comments  # numpy would warn on no data
        stream = io.TextIOWrapper(io.BytesIO(self.data), encoding=self.encoding,
                                  errors=self.errors)
        stream.seek(self.start)
        try:
            rows = np.loadtxt(stream, dtype=dtype, comments=self.mark, ndmin=1)
        except ValueError as exc:
            raise self.first_bad_line(problem) from exc
        return rows, comments

    def _line_at(self, pos: int) -> tuple[str, int]:
        """The decoded, stripped line holding byte ``pos``, and its end."""
        start = max(self.data.rfind(b"\n", self.start, pos) + 1, self.start)
        end = _line_end(self.data, pos)
        return self.data[start:end].decode(self.encoding, self.errors).strip(), end

    def first_data_line(self) -> tuple[str, int] | None:
        """The first data line, decoded and stripped, and its end; None if
        there is no data line."""
        pos = self.start
        while (hit := _INK.search(self.data, pos)) is not None:
            line, pos = self._line_at(hit.start())
            if line and not line.startswith(self.mark):
                return line, pos
        return None

    def first_bad_line(self, problem: Callable[[str], str | None]) -> ValueError:
        """A ValueError naming the first data line that ``problem``
        describes; only built once a fast check has failed."""
        text = self.data[self.start:].decode(self.encoding, self.errors)
        for lineno, line in enumerate(text.split("\n"), start=self.first_lineno):
            s = line.strip()
            if s and not s.startswith(self.mark):
                found = problem(s)
                if found is not None:
                    return ValueError(f"{self.path}:{lineno}: {found}")
        return ValueError(f"{self.path}: cannot parse the data lines")


def write_edge_list(g: Graph, path: str | Path) -> None:
    """Write the graph in the "u v w" text format with a "# n=<N>" header."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(f"# n={g.num_vertices}\n")
        for u, v, w in zip(g.edge_u.tolist(), g.edge_v.tolist(), g.edge_weight.tolist()):
            fh.write(f"{u} {v} {w!r}\n")


def read_graph(path: str | Path) -> Graph:
    """Dispatch on extension: '.mtx' is MatrixMarket, anything else edge list."""
    p = Path(path)
    if p.suffix.lower() == ".mtx":
        return read_matrix_market(p)
    return read_edge_list(p)


def check_csv_append(path: str | Path, columns: Sequence[str]) -> bool:
    """Check that rows under ``columns`` may be appended to ``path``.

    Returns whether the file still needs its header (it is missing or
    empty). A file whose header is not ``columns`` raises ValueError naming
    the file and both headers, so a command can check its output file
    before it runs its job.
    """
    path = Path(path)
    if not (path.exists() and path.stat().st_size > 0):
        return True
    with path.open(encoding="utf-8", newline="") as fh:
        header = next(csv.reader(fh), [])
    if header != list(columns):
        raise ValueError(f"{path}: cannot append rows with columns {','.join(columns)} "
                         f"under the header {','.join(header)}")
    return False


def write_csv(
    records: Iterable[Mapping[str, object]],
    path: str | Path,
    columns: Sequence[str],
    append: bool = False,
) -> int:
    """Write mappings as CSV rows under a fixed column schema.

    In append mode the header is only written when the file is new or
    empty, so repeated runs can accumulate rows safely; appending under a
    header other than ``columns`` raises ValueError and leaves the file as
    it was (:func:`check_csv_append`).
    """
    path = Path(path)
    write_header = not append or check_csv_append(path, columns)
    mode = "a" if append else "w"
    count = 0
    with path.open(mode, encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(columns), extrasaction="ignore")
        if write_header:
            writer.writeheader()
        for rec in records:
            writer.writerow(rec)
            count += 1
    return count
