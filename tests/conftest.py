"""Shared fixtures for the test-suite."""

from __future__ import annotations

import pytest

import repro.core.approx
import repro.core.backend
import repro.core.static
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.dynamic_hypergraph import DynamicHypergraph


@pytest.fixture
def triangle_tail() -> DynamicGraph:
    """Triangle (kappa 2) with a pendant vertex (kappa 1)."""
    return DynamicGraph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])


@pytest.fixture
def fig1_graph() -> DynamicGraph:
    """A graph shaped like the paper's Figure 1: a 3-core clique region,
    a 2-core ring attached to it, and 1-core tendrils."""
    edges = [
        # K4: the 3-core
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
        # 2-core ring hanging off vertex 3
        (3, 4), (4, 5), (5, 6), (6, 3),
        # 1-core tendrils
        (6, 7), (7, 8), (0, 9),
    ]
    return DynamicGraph.from_edges(edges)


@pytest.fixture
def fig2_hypergraph() -> DynamicHypergraph:
    """A small hypergraph with a 2-core and 1-core, Figure 2 flavoured."""
    return DynamicHypergraph.from_hyperedges({
        "a": [1, 2, 3],
        "b": [2, 3, 4],
        "c": [1, 3, 4],
        "d": [1, 2, 4],
        "e": [4, 5],
        "f": [5, 6, 7],
    })


@pytest.fixture
def fig3_hypergraph() -> DynamicHypergraph:
    """The pandemic co-occurrence example of Figure 3.

    Hyperedges are close-contact events between people A-F.  B, C, D, E
    form a 3-core; A is in the 2-core; F only attends one meeting and has
    kappa 1 despite touching many people there.
    """
    return DynamicHypergraph.from_hyperedges({
        "meet1": ["A", "B", "E"],
        "meet2": ["B", "C", "D", "E"],
        "meet3": ["B", "C", "D"],
        "meet4": ["C", "D", "E"],
        "meet5": ["A", "B"],
        "meet6": ["B", "D", "E"],
        "big_event": ["A", "B", "C", "D", "E", "F"],
    })


@pytest.fixture
def no_hhc_local(monkeypatch):
    """Make every route to the per-vertex ``hhc_local`` raise (a test that
    goes on past the guarded step calls ``monkeypatch.undo()``)."""

    def boom(*args, **kwargs):
        raise AssertionError("per-vertex hhc_local ran on an array substrate")

    monkeypatch.setattr(repro.core.static, "hhc_local", boom)
    monkeypatch.setattr(repro.core.backend, "hhc_local", boom)
    monkeypatch.setattr(repro.core.backend, "static_hindex", boom)
    monkeypatch.setattr(repro.core.approx, "hhc_local", boom)
    return boom


@pytest.fixture
def dispatch_every_region(monkeypatch):
    """Send every ``parallel_map_ranges`` region to the thread pool,
    however small: the threaded suites check that chunked dispatch keeps
    tau bit-identical, and their graphs sit below ``INLINE_GRAIN``."""
    import repro.parallel.threads

    monkeypatch.setattr(repro.parallel.threads, "INLINE_GRAIN", 0)


@pytest.fixture
def fan_path():
    """``(edges, path)``: K_12 on 0..11, plus a 200-vertex path on
    12..211 whose every vertex also joins clique vertex 0 (the hub,
    kappa 11; the path's kappa is 2)."""
    path = list(range(12, 212))
    edges = ([(i, j) for i in range(12) for j in range(i + 1, 12)]
             + list(zip(path, path[1:]))
             + [(0, p) for p in path])
    return edges, path


@pytest.fixture
def h_index_values(monkeypatch):
    """The number of values each ``_segment_h_index`` call of the frontier
    kernels receives, in call order."""
    import repro.engine.frontier

    counts = []
    real = repro.engine.frontier._segment_h_index

    def counting(values, seg, indptr):
        counts.append(len(values))
        return real(values, seg, indptr)

    monkeypatch.setattr(repro.engine.frontier, "_segment_h_index", counting)
    return counts
