"""Shared fixtures, a per-test hang backstop and a random edge-list helper."""

from __future__ import annotations

import faulthandler
import os

import numpy as np
import pytest

import locmax.matchers
import locmax.pram
from locmax import Graph, build_graph


#: A test still running after this many seconds is taken for a hang: the
#: process dumps every thread's traceback and exits, so the run fails
#: instead of stalling. The slowest test takes a few seconds.
HANG_SECONDS = 300
_HANG_REPORT = pytest.StashKey[int]()


def pytest_configure(config) -> None:
    # a copy of stderr taken before any test's output capture, so the
    # traceback of a hang is not lost in the captured output of the test
    config.stash[_HANG_REPORT] = os.dup(2)


def pytest_unconfigure(config) -> None:
    os.close(config.stash[_HANG_REPORT])


@pytest.fixture(autouse=True)
def hang_backstop(request):
    faulthandler.dump_traceback_later(HANG_SECONDS, exit=True,
                                      file=request.config.stash[_HANG_REPORT])
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture
def triangle() -> Graph:
    # weights 1, 2, 3 on edges (0,1), (1,2), (0,2)
    return build_graph([(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)])


@pytest.fixture
def path4() -> Graph:
    # a-b-c-d with weights 2, 3, 2
    return build_graph([(0, 1, 2.0), (1, 2, 3.0), (2, 3, 2.0)])


@pytest.fixture
def star9() -> Graph:
    # K_{1,8}, unit weights, center 0
    return build_graph([(0, leaf, 1.0) for leaf in range(1, 9)])


@pytest.fixture
def salt_only(monkeypatch) -> None:
    """Every engine decides that its weights are one weight, so each picks
    by salt alone: the engines still agree with each other, but they match
    lighter edges."""
    def one_weight(weights):
        return None
    monkeypatch.setattr(locmax.matchers, "_deciding_bits", one_weight)
    monkeypatch.setattr(locmax.pram, "_deciding_bits", one_weight)


def random_graph_edges(rng: np.random.Generator, n: int, m: int) -> list[tuple[int, int, float]]:
    """Simple random edge list, possibly with weight ties."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    m = min(m, len(pairs))
    idx = rng.choice(len(pairs), size=m, replace=False)
    tie_heavy = rng.random() < 0.5
    edges = []
    for i in idx:
        u, v = pairs[int(i)]
        w = float(rng.integers(1, 4)) if tie_heavy else float(rng.random())
        edges.append((u, v, w))
    return edges
