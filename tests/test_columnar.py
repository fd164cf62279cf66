"""The columnar batch path: equivalence, rollback, zero allocation.

Property checks for the zero-Python steady state (ISSUE: columnar batch
pipeline):

* **Equivalence** -- the array engine's columnar bulk kernels produce
  *identical* tau, levels, and kappa to the dict engine's
  per-``Change`` reference path on the same streams, across graph /
  hypergraph x insert / delete / mixed protocols (with recycled ids:
  every remove/reinsert round re-interns freed slots).
* **Rollback** -- a mid-batch failure *after* the bulk structural apply
  unwinds the :class:`ColumnarJournalEntry` slices exactly: substrate,
  tau, and the levels each engine reports all return to the pre-batch
  state, and the same batch then applies cleanly (the dict engine, whose
  level index ``DictBackend.rollback_resync`` rebuilds, included).
* **Zero allocation** -- applying a pre-built :class:`ColumnarBatch`
  constructs no :class:`Change` objects parse -> commit (acceptance
  criterion, measured by the counting hook).
* **Batch construction** -- ``from_batch`` twin collapse and rejection
  rules; ``coalesce_changes`` netting of opposing same-pin changes.
* **VGC chunking** -- one hub item no longer pins the simulated
  makespan; uniform streams reduce to the count-based partition.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.maintainer import make_maintainer
from repro.core.verify import verify_kappa
from repro.engine import ArrayGraph, ArrayHypergraph
from repro.graph.batch import Batch, BatchProtocol, coalesce_changes
from repro.graph.columnar import ColumnarBatch
from repro.graph.generators import affiliation_hypergraph, powerlaw_social
from repro.graph.substrate import Change, count_change_allocations
from repro.parallel.scheduler import chunk_sizes, vgc_chunk_costs
from repro.parallel.simulated import SimulatedRuntime

WORKLOADS = ("insert", "delete", "mixed")


def _graph(seed):
    return powerlaw_social(400, 4, seed=seed)


def _hyper(seed):
    return affiliation_hypergraph(240, 160, 4.0, seed=seed)


def _rounds(base, workload, n_units, n_rounds, seed):
    """Pre-generated identical batch streams (bench_wallclock's recipe)."""
    scratch = base.copy()
    proto = BatchProtocol(scratch, seed=seed)
    out = []
    for _ in range(n_rounds):
        if workload == "mixed":
            batches = proto.mixed(n_units)
        elif workload == "delete":
            # deletion only: the substrate shrinks monotonically
            deletion, _ = proto.remove_reinsert(n_units)
            batches = (deletion,)
        else:  # insert: delete then reinsert -- frees and re-interns ids
            batches = proto.remove_reinsert(n_units)
        for b in batches:
            for c in b:
                scratch.apply(c)
        out.append(batches)
    return out


def _level_index(m):
    return {k: set(m.vertices_at_level(k)) for k in m.levels()}


class TestColumnarEquivalence:
    """Dict per-Change path vs array columnar path: identical state."""

    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("seed", [3, 11])
    def test_graph(self, workload, seed):
        base = _graph(seed)
        rounds = _rounds(base, workload, 120, 3, seed + 1)
        m_dict = make_maintainer(base.copy(), "mod", engine="dict")
        m_arr = make_maintainer(ArrayGraph.from_graph(base), "mod")
        for batches in rounds:
            for b in batches:
                if b is not None:
                    m_dict.apply_batch(b)
                    m_arr.apply_batch(b)
        assert m_arr.backend.columnar_batches > 0
        assert dict(m_dict.tau) == dict(m_arr.tau)
        assert _level_index(m_dict) == _level_index(m_arr)
        assert m_dict.kappa() == m_arr.kappa()
        assert verify_kappa(m_arr) == []

    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("seed", [5, 17])
    def test_hyper(self, workload, seed):
        base = _hyper(seed)
        rounds = _rounds(base, workload, 90, 3, seed + 1)
        m_dict = make_maintainer(base.copy(), "mod", engine="dict")
        m_arr = make_maintainer(ArrayHypergraph.from_hypergraph(base), "mod")
        for batches in rounds:
            for b in batches:
                if b is not None:
                    m_dict.apply_batch(b)
                    m_arr.apply_batch(b)
        assert m_arr.backend.columnar_batches > 0
        assert dict(m_dict.tau) == dict(m_arr.tau)
        assert _level_index(m_dict) == _level_index(m_arr)
        assert verify_kappa(m_arr) == []

    def test_recycled_ids_graph(self):
        """Dropping edges frees dense slots; fresh labels re-intern them
        through the columnar bulk path without cross-talk."""
        base = _graph(29)
        m = make_maintainer(ArrayGraph.from_graph(base), "mod")
        edges = m.sub.edge_list()[:80]
        m.apply_batch(ColumnarBatch.from_graph_edges(edges, insert=False))
        fresh = [(10_000 + 2 * i, 10_001 + 2 * i) for i in range(80)]
        m.apply_batch(ColumnarBatch.from_graph_edges(fresh, insert=True))
        m.apply_batch(ColumnarBatch.from_graph_edges(edges, insert=True))
        assert m.backend.columnar_batches == 3
        assert verify_kappa(m) == []


class TestColumnarRollback:
    """Mid-batch failure after the bulk structural apply must unwind the
    ColumnarJournalEntry slices exactly."""

    def _mixed_graph_batch(self, sub, k=25):
        dels = sub.edge_list()[:k]
        ins = [(30_000 + 2 * i, 30_001 + 2 * i) for i in range(k)]
        a = np.array([min(e) for e in dels] + [u for u, _ in ins])
        b = np.array([max(e) for e in dels] + [v for _, v in ins])
        flags = np.array([False] * k + [True] * k)
        return ColumnarBatch(a, b, flags, is_hyper=False)

    def test_graph_rollback(self):
        m = make_maintainer(ArrayGraph.from_graph(_graph(7)), "mod")
        self._check_graph_rollback(m)
        # the columnar kernel ran both times: the structural bulk apply
        # happened before the fault, and again on the clean retry
        assert m.backend.columnar_batches == 2

    def test_graph_rollback_dict_engine(self):
        """The same fault on the dict engine: the per-Change path runs
        and ``DictBackend.rollback_resync`` rebuilds its level index."""
        m = make_maintainer(_graph(7), "mod")
        assert m.engine == "dict"
        self._check_graph_rollback(m)

    def _check_graph_rollback(self, m):
        cb = self._mixed_graph_batch(m.sub)
        pre_tau = dict(m.tau)
        pre_index = _level_index(m)
        pre_edges = set(map(tuple, m.sub.edge_list()))
        backend = m.backend
        orig = backend.sweep_and_converge

        def boom(*a, **kw):
            raise RuntimeError("injected mid-batch fault")

        backend.sweep_and_converge = boom
        try:
            with pytest.raises(RuntimeError, match="injected"):
                m.apply_batch(cb)
        finally:
            backend.sweep_and_converge = orig
        # rollback restored everything the structural apply touched
        assert dict(m.tau) == pre_tau
        assert _level_index(m) == pre_index
        assert set(map(tuple, m.sub.edge_list())) == pre_edges
        # the same batch then applies cleanly on the restored state
        m.apply_batch(cb)
        assert verify_kappa(m) == []

    def test_hyper_rollback(self):
        m = make_maintainer(ArrayHypergraph.from_hypergraph(_hyper(9)), "mod")
        sub = m.sub
        dels = []
        for e, pins in sub.hyperedges():
            if len(pins) > 2:
                dels.append((e, pins[0]))
            if len(dels) == 20:
                break
        ins = [(50_000 + i, 60_000 + i) for i in range(20)]
        cb = ColumnarBatch.from_pins(
            [e for e, _ in dels] + [e for e, _ in ins],
            [v for _, v in dels] + [v for _, v in ins],
            [False] * 20 + [True] * 20,
        )
        pre_tau = dict(m.tau)
        pre_pins = sub.num_pins()
        pre_edges = sub.num_edges()
        backend = m.backend
        orig = backend.sweep_and_converge
        backend.sweep_and_converge = lambda *a, **kw: (_ for _ in ()).throw(
            RuntimeError("injected mid-batch fault"))
        try:
            with pytest.raises(RuntimeError, match="injected"):
                m.apply_batch(cb)
        finally:
            backend.sweep_and_converge = orig
        assert backend.columnar_batches == 1
        assert dict(m.tau) == pre_tau
        assert sub.num_pins() == pre_pins
        assert sub.num_edges() == pre_edges
        for e, v in dels:
            assert sub.has_pin(e, v)
        for e, v in ins:
            assert not sub.has_edge(e)
        m.apply_batch(cb)
        assert verify_kappa(m) == []


class TestZeroAllocation:
    """Acceptance criterion: the columnar path allocates no per-Change
    Python objects in the steady state."""

    def test_hook_counts(self):
        with count_change_allocations() as cell:
            Change((1, 2), 1, True)
            Change(7, 3, False)
        assert cell[0] == 2

    def test_graph_steady_state(self):
        m = make_maintainer(ArrayGraph.from_graph(_graph(13)), "mod")
        dels = m.sub.edge_list()[:60]
        cb_del = ColumnarBatch.from_graph_edges(dels, insert=False)
        cb_ins = ColumnarBatch.from_graph_edges(dels, insert=True)
        with count_change_allocations() as cell:
            m.apply_batch(cb_del)
            m.apply_batch(cb_ins)
        assert cell[0] == 0, "columnar graph path materialised Change objects"
        assert m.backend.columnar_batches == 2
        assert verify_kappa(m) == []

    def test_hyper_steady_state(self):
        m = make_maintainer(ArrayHypergraph.from_hypergraph(_hyper(13)), "mod")
        sub = m.sub
        dels = []
        for e, pins in sub.hyperedges():
            if len(pins) > 2:
                dels.append((e, pins[-1]))
            if len(dels) == 40:
                break
        cb_del = ColumnarBatch.from_pins(
            [e for e, _ in dels], [v for _, v in dels], False)
        cb_ins = ColumnarBatch.from_pins(
            [e for e, _ in dels], [v for _, v in dels], True)
        with count_change_allocations() as cell:
            m.apply_batch(cb_del)
            m.apply_batch(cb_ins)
        assert cell[0] == 0, "columnar hyper path materialised Change objects"
        assert m.backend.columnar_batches == 2
        assert verify_kappa(m) == []

    def test_legacy_path_does_allocate(self):
        """Contrast: the per-Change reference path on the dict engine
        allocates (the hook is measuring something real)."""
        m = make_maintainer(_graph(13), "mod", engine="dict")
        edges = list(m.sub.edges())[:20]
        with count_change_allocations() as cell:
            m.apply_batch(Batch.from_graph_edges(edges, insert=False))
        assert cell[0] > 0


class TestColumnarConstruction:
    def test_from_batch_twin_collapse(self):
        b = Batch.from_graph_edges([(1, 2), (3, 4)], insert=True)
        assert len(b) == 4  # two pin records per edge
        cb = ColumnarBatch.from_batch(b, is_hyper=False)
        assert cb is not None and len(cb) == 2
        assert cb.n_pin_records == 4
        assert cb.is_insert_only() and not cb.is_delete_only()

    def test_from_batch_rejects_both_directions(self):
        b = Batch([Change((1, 2), 1, True), Change((1, 2), 2, False)])
        assert ColumnarBatch.from_batch(b, is_hyper=False) is None

    def test_from_batch_rejects_non_int_labels(self):
        b = Batch([Change(("a", "b"), "a", True)])
        assert ColumnarBatch.from_batch(b, is_hyper=False) is None
        h = Batch([Change("e1", 3, True)])
        assert ColumnarBatch.from_batch(h, is_hyper=True) is None

    def test_from_batch_rejects_repeated_pin(self):
        h = Batch([Change(5, 1, False), Change(5, 1, True)], )
        assert ColumnarBatch.from_batch(h, is_hyper=True) is None

    def test_roundtrip_iteration(self):
        cb = ColumnarBatch.from_pins([4, 4, 9], [1, 2, 3], [True, False, True])
        changes = list(cb)
        assert changes == [Change(4, 1, True), Change(4, 2, False),
                           Change(9, 3, True)]
        assert len(cb.to_batch()) == 3

    def test_coalesce_nets_opposing_pairs(self):
        plus, minus = Change(1, 2, True), Change(1, 2, False)
        assert coalesce_changes([plus, minus]) == []
        assert coalesce_changes([plus, minus, plus]) == [plus]
        assert coalesce_changes([minus, plus, minus]) == [minus]
        other = Change(1, 3, True)
        assert coalesce_changes([plus, other, minus]) == [other]

    def test_from_pins_coalesces(self):
        b = Batch.from_pins([(4, 1, True), (4, 1, False), (4, 1, True),
                             (5, 2, True)])
        assert len(b) == 2


class TestVGCChunking:
    def test_uniform_reduces_to_count_partition(self):
        n, threads = 1000, 8
        pieces = vgc_chunk_costs(n, lambda lo, hi: float(hi - lo), threads)
        assert [s for s, _ in pieces] == chunk_sizes(n, threads)
        assert sum(s for s, _ in pieces) == n

    def test_hub_item_splits_into_virtual_chunks(self):
        costs = np.ones(1000)
        costs[137] = 10_000.0
        prefix = np.concatenate(([0.0], np.cumsum(costs)))
        fn = lambda lo, hi: float(prefix[hi] - prefix[lo])  # noqa: E731
        pieces = vgc_chunk_costs(1000, fn, 8)
        assert sum(s for s, _ in pieces) == 1000
        assert abs(sum(c for _, c in pieces) - float(costs.sum())) < 1e-6
        # no surviving chunk carries the hub's full cost
        assert max(c for _, c in pieces) < 10_000.0 / 2

    def test_skew_resistant_makespan(self):
        """One hub gather range must not pin the simulated makespan."""
        costs = np.ones(1000)
        costs[0] = 10_000.0
        prefix = np.concatenate(([0.0], np.cumsum(costs)))
        rt = SimulatedRuntime(thread_counts=(1, 4), keep_regions=True)
        rt.parallel_ranges(1000, lambda lo, hi: float(prefix[hi] - prefix[lo]),
                           region="skew")
        reg = rt.region_log[-1]
        assert reg.makespan_units[4] < 5000.0
        assert reg.makespan_units[4] < reg.makespan_units[1]
