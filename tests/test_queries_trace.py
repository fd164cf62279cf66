"""Tests for the query layer and trace recording/replay."""

from __future__ import annotations

import io

import pytest

from repro.core.maintainer import CoreMaintainer
from repro.core.order import order_is_valid
from repro.core.peel import peel
from repro.core.queries import (
    core_containment_tree,
    core_spectrum,
    degeneracy_ordering,
    densest_core,
    shell,
    vertices_with_core_at_least,
)
from repro.core.verify import verify_kappa
from repro.graph.batch import Batch, BatchProtocol
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.generators import core_ladder, erdos_renyi, powerlaw_social
from repro.graph.substrate import graph_edge_changes
from repro.graph.trace import read_trace, record_protocol, replay_trace, write_trace


class TestQueries:
    @pytest.mark.parametrize("kind", ["graph", "hyper"])
    def test_vertices_with_core_at_least_matches_across_engines(self, kind, monkeypatch):
        """The array engine answers in one masked pass (no per-level
        query), and both engines agree with a plain pass over kappa below,
        at and above the top level."""
        from repro.core.backend import ArrayBackend
        from repro.core.maintainer import make_maintainer
        from repro.engine import ArrayGraph, ArrayHypergraph
        from repro.graph.generators import affiliation_hypergraph

        if kind == "graph":
            base = powerlaw_social(400, 6, seed=2)
            array_sub = ArrayGraph.from_graph(base)
        else:
            base = affiliation_hypergraph(120, 60, 4.0, seed=2)
            array_sub = ArrayHypergraph.from_hypergraph(base)
        dict_m = make_maintainer(base, "mod")
        array_m = make_maintainer(array_sub, "mod")
        for batch in BatchProtocol(base, seed=4).remove_reinsert(30)[:1]:
            dict_m.apply_batch(batch)
            array_m.apply_batch(batch)
        monkeypatch.setattr(ArrayBackend, "vertices_at_level", None)
        kappa = dict_m.kappa()
        top = max(kappa.values())
        for k in (0, 1, 2, top - 1, top, top + 1):
            plain = {v for v, kv in kappa.items() if kv >= k}
            assert vertices_with_core_at_least(array_m, k) == plain
            assert vertices_with_core_at_least(dict_m, k) == plain
            assert vertices_with_core_at_least(base, k, kappa) == plain

    def test_core_spectrum(self, fig1_graph):
        assert core_spectrum(fig1_graph) == {1: 3, 2: 3, 3: 4}

    def test_core_spectrum_from_maintainer(self, fig1_graph):
        m = CoreMaintainer(fig1_graph)
        assert core_spectrum(m.impl) == {1: 3, 2: 3, 3: 4}

    def test_shell(self, fig1_graph):
        assert shell(fig1_graph, 4) == {4, 5, 6}
        assert shell(fig1_graph, 0) == {0, 1, 2, 3}
        assert shell(fig1_graph, 999) == set()

    def test_shell_splits_disconnected_levels(self, fig1_graph):
        # 9 and 7/8 are both kappa 1 but in different subcores
        assert shell(fig1_graph, 9) == {9}
        assert shell(fig1_graph, 7) == {7, 8}

    def test_densest_core(self, fig1_graph):
        k, comps = densest_core(fig1_graph)
        assert k == 3 and comps == [{0, 1, 2, 3}]

    def test_densest_core_empty(self):
        assert densest_core(DynamicGraph()) == (0, [])

    def test_degeneracy_ordering_is_valid(self):
        g = powerlaw_social(120, 6, seed=1)
        kappa = peel(g)
        order = degeneracy_ordering(g, kappa)
        assert order_is_valid(g, kappa, order)

    def test_degeneracy_ordering_hypergraph(self, fig2_hypergraph):
        order = degeneracy_ordering(fig2_hypergraph)
        assert set(order) == set(peel(fig2_hypergraph))

    def test_containment_tree_nesting(self):
        g = core_ladder(3, width=4)
        roots = core_containment_tree(g)
        assert roots  # 1-core components
        for node in roots:
            for child in node.walk():
                for grand in child.children:
                    assert grand.vertices <= child.vertices
                    assert grand.k == child.k + 1

    def test_containment_tree_depth_is_degeneracy(self, fig1_graph):
        roots = core_containment_tree(fig1_graph)
        assert max(r.depth() for r in roots) == 3

    def test_containment_tree_empty(self):
        assert core_containment_tree(DynamicGraph()) == []


class TestTrace:
    def test_roundtrip(self):
        b1 = Batch(graph_edge_changes(1, 2, True))
        b2 = Batch(graph_edge_changes(1, 2, False) + graph_edge_changes(3, 4, True))
        buf = io.StringIO()
        n = write_trace([b1, b2], buf, header="demo trace")
        assert n == 6
        buf.seek(0)
        back = read_trace(buf)
        assert len(back) == 2
        assert back[0].changes == b1.changes
        assert back[1].changes == b2.changes

    def test_string_labels_roundtrip(self):
        b = Batch([])
        from repro.graph.substrate import Change

        b.changes.append(Change("meeting-1", "alice", True))
        buf = io.StringIO()
        write_trace([b], buf)
        buf.seek(0)
        back = read_trace(buf)[0].changes[0]
        assert back.edge == "meeting-1" and back.vertex == "alice"
        assert isinstance(back.vertex, str)

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            read_trace(io.StringIO("B\nbogus line here\n"))
        with pytest.raises(ValueError):
            read_trace(io.StringIO('+ [1,2] 1\n'))  # change before marker

    def test_record_and_replay_protocol(self, tmp_path):
        g = erdos_renyi(60, 150, seed=3)
        path = tmp_path / "stream.trace"
        proto = BatchProtocol(g.copy(), seed=4)
        n = record_protocol(proto, batch_size=8, rounds=3, dst=path)
        assert n > 0

        replayed = CoreMaintainer(g.copy(), algorithm="mod")
        batches = replay_trace(path, replayed.impl, verify_every=1)
        assert batches == 6  # 3 rounds x (deletion, insertion)
        # remove/reinsert rounds leave the graph unchanged
        assert replayed.kappa() == peel(g)

    def test_replay_into_different_algorithms_agrees(self, tmp_path):
        g0 = powerlaw_social(80, 5, seed=5)
        path = tmp_path / "stream.trace"
        record_protocol(BatchProtocol(g0.copy(), seed=6), 5, 2, path)
        results = []
        for algo in ("mod", "setmb", "traversal"):
            m = CoreMaintainer(g0.copy(), algorithm=algo)
            replay_trace(path, m.impl)
            verify_kappa(m.impl)
            results.append(m.kappa())
        assert results[0] == results[1] == results[2]

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "t.trace"
        write_trace([Batch(graph_edge_changes(7, 9, True))], path)
        assert len(read_trace(path)) == 1
