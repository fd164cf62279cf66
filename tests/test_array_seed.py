"""The array engines' static seed: synchronous Algorithm 1 as frontier passes.

A maintainer built without ``tau=`` starts from the static decomposition
its execution backend computes (``ExecutionBackend.decompose``).  On an
array substrate that is the synchronous (Jacobi) h-index iteration run
through the vectorised frontier kernels from tau = degree; the dict
engine keeps the asynchronous ``hhc_local``.  The checks:

* the array seed equals the peeling oracle and ``hhc_local`` on graphs
  and hypergraphs, singleton hyperedges and recycled dense ids included,
  for every algorithm;
* the backend keeps the dense state the seed computed, in agreement with
  the label-keyed tau and level index;
* the seed is bit-identical under ``ThreadRuntime(2)``;
* construction, healing, restoring and recovering a maintainer on an
  array substrate never run the per-vertex ``hhc_local``.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

import repro.core.approx
import repro.core.backend
import repro.core.static
from repro.core.maintainer import ALGORITHMS, CoreMaintainer, make_maintainer
from repro.core.peel import peel
from repro.core.static import hhc_local
from repro.core.verify import verify_kappa
from repro.engine import ArrayGraph, ArrayHypergraph
from repro.graph.batch import Batch, BatchProtocol
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.dynamic_hypergraph import DynamicHypergraph
from repro.graph.generators import affiliation_hypergraph, erdos_renyi, powerlaw_social, rmat
from repro.graph.substrate import Change
from repro.parallel.threads import ThreadRuntime
from repro.resilience.checkpoint import restore_maintainer, take_checkpoint


def _graphs():
    return [
        erdos_renyi(150, 500, seed=1),
        powerlaw_social(300, 6, seed=2),
        rmat(8, 4, seed=3),
    ]


def _hypergraph_with_singletons(seed: int) -> DynamicHypergraph:
    h = affiliation_hypergraph(120, 90, 4.0, seed=seed)
    vertices = sorted(h.vertices())
    for j, v in enumerate(vertices[::7]):
        h.add_pin(("solo", j), v)
    return h


def _churned_graph(seed: int) -> ArrayGraph:
    """An array graph whose dense ids went through the free list: vertices
    released by deletions, fresh labels interned onto their ids."""
    rng = random.Random(seed)
    ag = ArrayGraph.from_graph(powerlaw_social(200, 5, seed=seed))
    for u, v in rng.sample(ag.edge_list(), 250):
        ag.remove_edge(u, v)
    for _ in range(300):
        u, v = rng.sample(range(1000, 1060), 2)
        ag.add_edge(u, v)
    return ag


def _churned_hypergraph(seed: int) -> ArrayHypergraph:
    rng = random.Random(seed)
    ah = ArrayHypergraph.from_hypergraph(_hypergraph_with_singletons(seed))
    for e, pins in rng.sample(list(ah.hyperedges()), 30):
        for v in pins:
            ah.remove_pin(e, v)
    for j in range(40):
        for v in rng.sample(range(500, 540), rng.randrange(1, 5)):
            ah.add_pin(("new", j), v)
    return ah


def _plain_graph(ag: ArrayGraph) -> DynamicGraph:
    return DynamicGraph.from_edges(ag.edges())


def _plain_hypergraph(ah: ArrayHypergraph) -> DynamicHypergraph:
    h = DynamicHypergraph()
    for e, pins in ah.hyperedges():
        for v in pins:
            h.add_pin(e, v)
    return h


def _assert_dense_state_agrees(m) -> None:
    """The backend's dense tau is the seed's own and matches the dict,
    which matches the level index."""
    ta, interner = m.backend.tau_array, m.sub.interner
    ids = interner.ids_of(m.tau)
    assert (ids >= 0).all() and ta.live[ids].all()
    assert ta.arr[ids].tolist() == list(m.tau.values())
    assert int(ta.live.sum()) == len(m.tau)
    for v, k in m.tau.items():
        assert v in m.vertices_at_level(k)
    assert sum(len(b) for b in m._level_index.values()) == len(m.tau)


class TestArraySeed:
    @pytest.mark.parametrize("index", range(3))
    def test_graph_seed_equals_peel_and_hhc_local(self, index):
        g = _graphs()[index]
        m = make_maintainer(ArrayGraph.from_graph(g), "mod")
        assert m.engine == "array"
        assert m.kappa() == peel(g) == hhc_local(g)
        _assert_dense_state_agrees(m)

    @pytest.mark.parametrize("seed", range(3))
    def test_hypergraph_seed_equals_peel_and_hhc_local(self, seed):
        h = _hypergraph_with_singletons(seed)
        m = make_maintainer(ArrayHypergraph.from_hypergraph(h), "mod")
        assert m.engine == "array"
        assert m.kappa() == peel(h) == hhc_local(h)
        _assert_dense_state_agrees(m)
        # the min-tau shadow the seed refreshed is the one the engine uses
        assert m.backend.edge_shadow.ta is m.backend.tau_array

    @pytest.mark.parametrize("seed", range(2))
    def test_seed_over_recycled_ids(self, seed):
        ag = _churned_graph(seed)
        # fresh labels landed on ids released by the deletions
        assert min(ag.interner.id_of(v) for v in range(1000, 1060) if v in ag) < 200
        g = _plain_graph(ag)
        m = make_maintainer(ag, "mod")
        assert m.kappa() == peel(g) == hhc_local(g)
        _assert_dense_state_agrees(m)
        ah = _churned_hypergraph(seed)
        assert min(ah.edge_interner.id_of(("new", j)) for j in range(40)) < 90
        h = _plain_hypergraph(ah)
        m = make_maintainer(ah, "mod")
        assert m.kappa() == peel(h) == hhc_local(h)
        _assert_dense_state_agrees(m)

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_every_algorithm_seeds_on_array(self, algorithm):
        g = powerlaw_social(150, 5, seed=9)
        m = make_maintainer(ArrayGraph.from_graph(g), algorithm)
        assert m.kappa() == peel(g)
        if algorithm == "traversal" or algorithm == "order":
            return
        h = _hypergraph_with_singletons(9)
        m = make_maintainer(ArrayHypergraph.from_hypergraph(h), algorithm)
        assert m.kappa() == peel(h)
        proto = BatchProtocol(m.sub, seed=10)
        deletion, insertion = proto.remove_reinsert(12)
        m.apply_batch(deletion)
        m.apply_batch(insertion)
        if algorithm == "mod-approx":
            # approximate by design between flushes: an upper bound
            oracle = peel(_plain_hypergraph(m.sub))
            assert all(m.kappa()[v] >= k for v, k in oracle.items())
        else:
            assert verify_kappa(m) == []

    def test_empty_substrates(self):
        for sub in (ArrayGraph(), ArrayHypergraph()):
            m = make_maintainer(sub, "mod")
            assert m.kappa() == {} and m.engine == "array"
        m.apply_batch(Batch([Change("e", 1, True), Change("e", 2, True)]))
        assert m.kappa() == {1: 1, 2: 1}

    def test_forced_dict_engine_after_array_seed(self):
        """The substrate's backend seeds; a forced switch to the dict
        engine then keeps that seed."""
        g = powerlaw_social(200, 5, seed=4)
        m = make_maintainer(ArrayGraph.from_graph(g), "mod", engine="dict")
        assert m.engine == "dict" and m.kappa() == peel(g)

    @pytest.mark.parametrize("kind", ["graph", "hyper"])
    def test_seed_bit_identical_under_threads(self, kind):
        if kind == "graph":
            build = lambda: ArrayGraph.from_graph(powerlaw_social(3000, 8, seed=5))  # noqa: E731
        else:
            build = lambda: ArrayHypergraph.from_hypergraph(  # noqa: E731
                _hypergraph_with_singletons(5))
        serial = make_maintainer(build(), "mod")
        with ThreadRuntime(2) as rt:
            threaded = make_maintainer(build(), "mod", rt)
            assert rt.region_chunks.get("frontier_csr" if kind == "graph"
                                        else "frontier_incidence", 0) > 0
        assert threaded.tau == serial.tau
        assert list(threaded.tau) == list(serial.tau)
        a, b = serial.backend.tau_array, threaded.backend.tau_array
        assert np.array_equal(a.live, b.live) and np.array_equal(a.arr, b.arr)


# ---------------------------------------------------------------------------
# guard: the per-vertex static path never runs on array substrates
# ---------------------------------------------------------------------------
@pytest.fixture
def no_hhc_local(monkeypatch):
    """Make every route to the per-vertex ``hhc_local`` raise."""

    def boom(*args, **kwargs):
        raise AssertionError("per-vertex hhc_local ran on an array substrate")

    monkeypatch.setattr(repro.core.static, "hhc_local", boom)
    monkeypatch.setattr(repro.core.backend, "hhc_local", boom)
    monkeypatch.setattr(repro.core.backend, "static_hindex", boom)
    monkeypatch.setattr(repro.core.approx, "hhc_local", boom)
    return boom


class TestSeedGuard:
    def test_guard_is_armed(self, no_hhc_local):
        with pytest.raises(AssertionError, match="per-vertex"):
            make_maintainer(powerlaw_social(40, 3, seed=1), "mod")

    @pytest.mark.parametrize("kind", ["graph", "hyper"])
    def test_construct_heal_restore_never_call_hhc_local(self, kind, no_hhc_local):
        if kind == "graph":
            sub = ArrayGraph.from_graph(powerlaw_social(300, 5, seed=6))
        else:
            sub = ArrayHypergraph.from_hypergraph(_hypergraph_with_singletons(6))
        m = make_maintainer(sub, "mod")
        deletion, insertion = BatchProtocol(sub, seed=7).remove_reinsert(10)
        m.apply_batch(deletion)
        m.apply_batch(insertion)
        restored = restore_maintainer(take_checkpoint(m), engine="array")
        assert restored.kappa() == m.kappa()
        with CoreMaintainer(sub.copy(), "mod", threads=2) as threaded:
            assert threaded.kappa() == m.kappa()
        resilient = CoreMaintainer(sub.copy(), "mod", resilient=True)
        resilient.impl.heal()
        assert resilient.kappa() == m.kappa()
        assert resilient.resilience_stats["heals"] == 1

    def test_served_stack_and_recovery_never_call_hhc_local(self, tmp_path, no_hhc_local):
        g = powerlaw_social(300, 5, seed=8)
        cm = CoreMaintainer(ArrayGraph.from_graph(g), "mod", resilient=True,
                            durable=tmp_path / "d", replicas=1)
        server = cm.serve()
        deletion, insertion = BatchProtocol(cm.sub, seed=9).remove_reinsert(8)
        for batch in (deletion, insertion):
            assert server.submit(batch.changes).accepted
            server.pump()
        cm.sync_replicas()
        expected = cm.kappa()
        assert expected == peel(_plain_graph(cm.sub))
        recovered = CoreMaintainer.recover(tmp_path / "d", engine="array")
        assert recovered.kappa() == expected
