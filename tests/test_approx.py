"""Tests for the approximate maintainer (§VI future work realisation).

The contract under test: served values are always a pointwise *upper
bound* on the true core values, staleness() bounds the gap, and flush()
restores exactness.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.approx import ApproximateModMaintainer
from repro.core.maintainer import make_maintainer
from repro.core.peel import peel
from repro.core.verify import verify_kappa
from repro.engine import ArrayGraph, ArrayHypergraph
from repro.graph.batch import Batch, BatchProtocol
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.generators import affiliation_hypergraph, erdos_renyi, powerlaw_social
from repro.graph.substrate import graph_edge_changes
from repro.parallel.simulated import SimulatedRuntime
from repro.resilience.checkpoint import restore_maintainer, take_checkpoint


def assert_upper_bound(m: ApproximateModMaintainer) -> int:
    """tau >= kappa pointwise, gap <= staleness(); returns the max gap."""
    oracle = peel(m.sub)
    served = m.kappa_upper_bound()
    assert set(served) == set(oracle)
    worst = 0
    for v, k in oracle.items():
        assert served[v] >= k, f"served {served[v]} < kappa {k} at {v!r}"
        worst = max(worst, served[v] - k)
    assert worst <= m.staleness()
    return worst


class TestApproximateBasics:
    def test_budget_validation(self, fig1_graph):
        with pytest.raises(ValueError):
            ApproximateModMaintainer(fig1_graph, iteration_budget=0)

    def test_exact_when_idle(self, fig1_graph):
        m = ApproximateModMaintainer(fig1_graph)
        assert m.is_exact
        assert m.staleness() == 0
        assert m.kappa_upper_bound() == peel(fig1_graph)

    def test_registered_in_facade(self, fig1_graph):
        m = make_maintainer(fig1_graph, "mod-approx", iteration_budget=2)
        assert m.algorithm == "mod-approx"

    def test_upper_bound_through_stream(self):
        g = powerlaw_social(150, 7, seed=30)
        m = ApproximateModMaintainer(g, iteration_budget=1)
        proto = BatchProtocol(g, seed=31)
        for _ in range(4):
            deletion, insertion = proto.remove_reinsert(20)
            m.apply_batch(deletion)
            assert_upper_bound(m)
            m.apply_batch(insertion)
            assert_upper_bound(m)

    def test_flush_restores_exactness(self):
        g = powerlaw_social(150, 7, seed=32)
        m = ApproximateModMaintainer(g, iteration_budget=1)
        proto = BatchProtocol(g, seed=33)
        for _ in range(3):
            deletion, insertion = proto.remove_reinsert(25)
            m.apply_batch(deletion)
            m.apply_batch(insertion)
        m.flush()
        assert m.is_exact
        verify_kappa(m)

    def test_auto_flush_bounds_staleness(self):
        g = powerlaw_social(150, 7, seed=34)
        cap = 60
        m = ApproximateModMaintainer(g, iteration_budget=1,
                                     auto_flush_inflation=cap)
        proto = BatchProtocol(g, seed=35)
        for _ in range(6):
            deletion, insertion = proto.remove_reinsert(15)
            m.apply_batch(deletion)
            m.apply_batch(insertion)
            # staleness may exceed the cap only by the latest batch's volume
            assert m.staleness() <= cap + 2 * (2 * 15 + 15)

    def test_generous_budget_is_exact_per_batch(self):
        g = erdos_renyi(100, 300, seed=36)
        m = ApproximateModMaintainer(g, iteration_budget=10_000)
        proto = BatchProtocol(g, seed=37)
        for _ in range(3):
            deletion, insertion = proto.remove_reinsert(10)
            m.apply_batch(deletion)
            m.apply_batch(insertion)
            assert m.is_exact
            verify_kappa(m)

    def test_less_work_than_exact(self):
        """The point of approximating: the budgeted run must do less
        simulated work per batch than exact mod on the same stream."""
        def total_work(make):
            g = powerlaw_social(250, 8, seed=38)
            rt = SimulatedRuntime(thread_counts=(1,))
            m = make(g, rt)
            proto = BatchProtocol(g, seed=39)
            for _ in range(3):
                deletion, insertion = proto.remove_reinsert(40)
                m.apply_batch(deletion)
                m.apply_batch(insertion)
            return rt.metrics().work_units

        approx = total_work(lambda g, rt: ApproximateModMaintainer(
            g, rt, iteration_budget=1))
        exact = total_work(lambda g, rt: make_maintainer(g, "mod", rt))
        assert approx < exact

    def test_hypergraph_upper_bound(self, fig2_hypergraph):
        from repro.graph.substrate import Change

        m = ApproximateModMaintainer(fig2_hypergraph, iteration_budget=1)
        m.apply_batch(Batch([Change("a", 1, False), Change("e", 6, True)]))
        assert_upper_bound(m)
        m.flush()
        verify_kappa(m)


def _array_substrate(kind: str):
    if kind == "graph":
        return ArrayGraph.from_graph(powerlaw_social(150, 7, seed=40))
    return ArrayHypergraph.from_hypergraph(
        affiliation_hypergraph(120, 80, 4.0, seed=41))


class TestApproximateEngine:
    """``mod-approx`` executes on the dict backend on every substrate;
    ``engine="array"`` only selects the array substrate."""

    @pytest.mark.parametrize("kind", ["graph", "hyper"])
    def test_dict_engine_on_array_substrate(self, kind):
        sub = _array_substrate(kind)
        m = make_maintainer(sub, "mod-approx", engine="array")
        assert m.engine == "dict"
        proto = BatchProtocol(sub, seed=42)
        for _ in range(3):
            deletion, insertion = proto.remove_reinsert(20)
            m.apply_batch(deletion)
            assert_upper_bound(m)
            m.apply_batch(insertion)
            assert_upper_bound(m)
        m.flush()
        assert m.is_exact
        assert verify_kappa(m) == []

    @pytest.mark.parametrize("kind", ["graph", "hyper"])
    def test_restore_with_array_engine(self, kind):
        m = make_maintainer(_array_substrate(kind), "mod-approx")
        deletion, insertion = BatchProtocol(m.sub, seed=43).remove_reinsert(15)
        m.apply_batch(deletion)
        m.apply_batch(insertion)
        # flushed first, so the restored copy starts exact
        m.flush()
        restored = restore_maintainer(take_checkpoint(m), engine="array")
        assert restored.algorithm == "mod-approx"
        assert restored.engine == "dict"
        assert type(restored.sub) is type(m.sub)
        assert restored.kappa() == m.kappa()
        deletion, insertion = BatchProtocol(restored.sub, seed=44).remove_reinsert(15)
        restored.apply_batch(deletion)
        restored.apply_batch(insertion)
        assert_upper_bound(restored)
        restored.flush()
        assert verify_kappa(restored) == []

    @pytest.mark.parametrize("kind", ["graph", "hyper"])
    def test_array_substrate_keeps_the_array_seed(self, kind, monkeypatch, no_hhc_local):
        sub = _array_substrate(kind)
        m = make_maintainer(sub, "mod-approx", engine="array")
        # construction only: the budgeted convergence is hhc_local itself
        monkeypatch.undo()
        assert m.engine == "dict"
        assert m.kappa() == peel(sub)


def _stale_approx():
    """``mod-approx`` between flushes: tau sits above kappa."""
    m = make_maintainer(powerlaw_social(250, 8), "mod-approx", iteration_budget=1)
    proto = BatchProtocol(m.sub, seed=0)
    for _ in range(3):
        for b in proto.remove_reinsert(40):
            m.apply_batch(b)
    assert not m.is_exact and m.staleness() > 0
    assert m.kappa() != peel(m.sub)
    return m


class TestApproximateCheckpoint:
    """A checkpoint carries the residual frontier and the inflation: a
    restore taken between flushes stays approximate until it flushes."""

    def test_restore_keeps_staleness(self, tmp_path):
        from repro.resilience.checkpoint import Checkpoint

        m = _stale_approx()
        path = tmp_path / "cp.bin"
        take_checkpoint(m).save(path)
        for cp in (take_checkpoint(m), Checkpoint.load(path)):
            restored = restore_maintainer(cp)
            assert restored.staleness() == m.staleness()
            assert not restored.is_exact
            assert restored.kappa() == m.kappa()
            assert_upper_bound(restored)
            restored.flush()
            assert restored.is_exact and restored.kappa() == peel(m.sub)

    @pytest.mark.parametrize("algorithm", ["mod", "set", "hybrid", "order"])
    def test_another_algorithm_converges_the_residual(self, algorithm):
        m = _stale_approx()
        for engine in ("auto", "array"):
            restored = restore_maintainer(take_checkpoint(m), algorithm=algorithm,
                                          engine=engine)
            assert restored.kappa() == peel(m.sub)

    def test_other_algorithms_carry_no_state(self):
        from repro.core.maintainer import ALGORITHMS

        for name in ALGORITHMS:
            cp = take_checkpoint(make_maintainer(erdos_renyi(30, 60, seed=1), name))
            assert (cp.algorithm_state is None) == (name != "mod-approx")

    def test_checkpoint_from_before_the_field_loads(self, tmp_path):
        from repro.resilience.checkpoint import Checkpoint

        m = _stale_approx()
        m.flush()
        cp = take_checkpoint(m)
        del cp.__dict__["algorithm_state"]      # the pickle an older build wrote
        cp.save(tmp_path / "old.bin")
        loaded = Checkpoint.load(tmp_path / "old.bin")
        assert loaded.algorithm_state is None
        restored = restore_maintainer(loaded)
        assert restored.is_exact and restored.kappa() == peel(m.sub)

    def test_recover_keeps_staleness(self, tmp_path):
        from repro.core.maintainer import CoreMaintainer

        stale = _stale_approx()
        cm = CoreMaintainer(powerlaw_social(250, 8), algorithm="mod-approx",
                            iteration_budget=1, durable=tmp_path,
                            durability={"checkpoint_every": 6})
        proto = BatchProtocol(cm.sub, seed=0)
        for _ in range(3):
            for b in proto.remove_reinsert(40):
                cm.apply_batch(b)
        # crash without close(): the sixth batch's checkpoint is the newest
        recovered = CoreMaintainer.recover(tmp_path)
        assert recovered.last_recovery.batches_replayed == 0
        inner = recovered.impl.impl
        assert inner.staleness() == stale.staleness()
        assert not inner.is_exact
        inner.flush()
        assert recovered.kappa() == peel(stale.sub)


@st.composite
def small_streams(draw):
    pairs = st.tuples(st.integers(0, 11), st.integers(0, 11))
    base = [(u, v) for u, v in draw(st.sets(pairs, max_size=25)) if u != v]
    ops = draw(st.lists(st.tuples(st.booleans(), pairs), max_size=20))
    return base, ops


class TestApproximateProperties:
    @given(data=small_streams(), budget=st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_upper_bound_invariant(self, data, budget):
        base, ops = data
        g = DynamicGraph.from_edges(base)
        m = ApproximateModMaintainer(g, iteration_budget=budget)
        batch = Batch()
        for insert, (u, v) in ops:
            if u != v:
                batch.extend(graph_edge_changes(u, v, insert))
        m.apply_batch(batch)
        assert_upper_bound(m)
        m.flush()
        verify_kappa(m)
