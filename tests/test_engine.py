"""The flat-array engine: kernels, substrate, and engine selection.

Property tests pin the vectorised pieces to their scalar oracles:

* ``_segment_h_index`` against :func:`h_index_sorted` per segment,
  including empty segments and ``inf`` values (the hypergraph empty-pin
  sentinel);
* ``hhc_frontier_csr`` (synchronous/Jacobi) against the asynchronous
  dict-path :func:`hhc_local` -- both must land on the same kappa
  fixpoint from any pointwise-valid initialisation;
* :class:`ArrayGraph` against :class:`DynamicGraph` under randomised
  mutation streams, through relocations and compactions.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.core.maintainer import make_maintainer
from repro.core.peel import peel
from repro.core.static import _segment_h_index, hhc_local
from repro.core.verify import verify_kappa
from repro.engine import ArrayGraph, VertexInterner
from repro.engine import array_graph
from repro.engine.frontier import hhc_frontier_csr
from repro.engine.tau_array import TauArray
from repro.graph.batch import Batch, BatchProtocol
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.generators import erdos_renyi, powerlaw_social, rmat
from repro.graph.substrate import graph_edge_changes
from repro.resilience.faults import FaultError, FaultInjector, FaultPlan
from repro.structures.hindex import h_index_sorted


# ---------------------------------------------------------------------------
# kernel: _segment_h_index vs the sorted oracle
# ---------------------------------------------------------------------------
class TestSegmentHIndex:
    def _check(self, segments):
        """Pack ``segments`` (list of value lists) into CSR and compare."""
        values = np.array(
            [v for seg in segments for v in seg], dtype=np.float64
        )
        lens = np.array([len(s) for s in segments], dtype=np.int64)
        indptr = np.zeros(len(segments) + 1, dtype=np.int64)
        np.cumsum(lens, out=indptr[1:])
        seg = np.repeat(np.arange(len(segments), dtype=np.int64), lens)
        got = _segment_h_index(values, seg, indptr)
        expected = [h_index_sorted(s) for s in segments]
        assert got.tolist() == expected

    @pytest.mark.parametrize("seed", range(8))
    def test_random_segments(self, seed):
        rng = random.Random(seed)
        segments = [
            [rng.randrange(0, 12) for _ in range(rng.randrange(0, 9))]
            for _ in range(rng.randrange(1, 40))
        ]
        self._check(segments)

    def test_empty_segments_interleaved(self):
        self._check([[], [3, 0, 6, 1, 5], [], [], [1], []])

    def test_all_segments_empty(self):
        self._check([[], [], []])

    def test_trailing_empty_segments(self):
        """Empty segments after the last non-empty one must not cut its
        last value off the reduction."""
        out = _segment_h_index(np.array([14, 24]), np.array([0, 0]),
                               np.array([0, 2, 2]))
        assert out.tolist() == [2, 0]
        self._check([[5, 5, 5], [], []])
        self._check([[], [4, 4], [], [9, 9, 9, 9], [], [], []])

    @pytest.mark.parametrize("seed", range(6))
    def test_random_segments_with_trailing_empties(self, seed):
        rng = random.Random(200 + seed)
        segments = [
            [rng.randrange(0, 12) for _ in range(rng.randrange(0, 9))]
            for _ in range(rng.randrange(1, 30))
        ]
        # a full-h last segment: every value counts, the last one too
        n = rng.randrange(1, 9)
        segments.append([rng.randrange(n, 12) for _ in range(n)])
        segments.extend([] for _ in range(rng.randrange(1, 5)))
        self._check(segments)

    def test_no_values_at_all(self):
        out = _segment_h_index(
            np.zeros(0, dtype=np.float64),
            np.zeros(0, dtype=np.int64),
            np.zeros(3, dtype=np.int64),
        )
        assert out.tolist() == [0, 0]

    @pytest.mark.parametrize("seed", range(4))
    def test_inf_values(self, seed):
        """inf entries (hypergraph empty-pin minima) count toward every
        cutoff, exactly as in the scalar kernels."""
        rng = random.Random(100 + seed)
        segments = []
        for _ in range(rng.randrange(1, 20)):
            seg = [rng.randrange(0, 8) for _ in range(rng.randrange(0, 7))]
            for _ in range(rng.randrange(0, 3)):
                seg.insert(rng.randrange(0, len(seg) + 1), math.inf)
            segments.append(seg)
        self._check(segments)

    def test_single_inf_segment(self):
        self._check([[math.inf], [math.inf, math.inf]])


# ---------------------------------------------------------------------------
# kernel: hhc_frontier_csr vs the dict path
# ---------------------------------------------------------------------------
def _graphs(seed):
    return [
        erdos_renyi(90, 260, seed=seed),
        powerlaw_social(120, 6, seed=seed),
        rmat(7, 3, seed=seed),
    ]


class TestFrontierConvergence:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_hhc_local_from_degrees(self, seed):
        for g in _graphs(seed):
            ag = ArrayGraph.from_graph(g)
            # dict path: degrees init, full frontier
            expected = hhc_local(g)
            # array path: same init on the dense shadow
            tau = {v: ag.degree(v) for v in ag.vertices()}
            ta = TauArray.from_graph(ag, tau)
            hhc_frontier_csr(ag, ta, ag.live_ids())
            got = {
                ag.interner.label_of(int(i)): int(ta.arr[i])
                for i in ag.live_ids()
            }
            assert got == expected

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_from_perturbed_valid_init(self, seed):
        """Any pointwise >= kappa initialisation converges to kappa
        (Lemma 1), on both paths."""
        rng = random.Random(seed)
        g = powerlaw_social(100, 5, seed=seed)
        kappa = peel(g)
        init = {v: k + rng.randrange(0, 5) for v, k in kappa.items()}
        ag = ArrayGraph.from_graph(g)
        ta = TauArray.from_graph(ag, dict(init))
        hhc_frontier_csr(ag, ta, ag.live_ids())
        got = {
            ag.interner.label_of(int(i)): int(ta.arr[i])
            for i in ag.live_ids()
        }
        assert got == kappa

    def test_budget_yields_pointwise_upper_bound(self):
        g = powerlaw_social(120, 6, seed=7)
        kappa = peel(g)
        ag = ArrayGraph.from_graph(g)
        tau = {v: ag.degree(v) for v in ag.vertices()}
        ta = TauArray.from_graph(ag, tau)
        iters = hhc_frontier_csr(ag, ta, ag.live_ids(), max_iterations=1)
        assert iters == 1
        for i in ag.live_ids():
            assert int(ta.arr[i]) >= kappa[ag.interner.label_of(int(i))]

    def test_commit_hook_sees_every_change(self):
        g = erdos_renyi(80, 220, seed=8)
        ag = ArrayGraph.from_graph(g)
        tau = {v: ag.degree(v) for v in ag.vertices()}
        ta = TauArray.from_graph(ag, tau)
        log = {}

        def hook(ids, old, new):
            for i, o, n in zip(ids.tolist(), old.tolist(), new.tolist()):
                assert log.get(i, int(ta.arr[i]) if i not in log else None)
                log[i] = n

        hhc_frontier_csr(ag, ta, ag.live_ids(), on_commit=hook)
        for i, final in log.items():
            assert int(ta.arr[i]) == final

    def test_empty_frontier_is_a_noop(self):
        ag = ArrayGraph.from_graph(erdos_renyi(20, 40, seed=1))
        ta = TauArray.from_graph(ag, {v: ag.degree(v) for v in ag.vertices()})
        before = ta.arr.copy()
        assert hhc_frontier_csr(ag, ta, np.zeros(0, dtype=np.int64)) == 0
        assert np.array_equal(ta.arr, before)


class TestCrossingFilterCost:
    def test_path_descent_never_re_reads_the_hub(self, fan_path, h_index_values):
        """From tau = kappa plus 1 on the path, the path descends one hop
        per iteration from both ends, about 100 iterations, while the hub
        sits at 11.  A drop from 3 to 2 crosses no value of the hub's, so
        the crossing filter never re-activates it, and the kernel reads
        each path vertex's 2-3 neighbour values a few times: 1,192 values
        in all.  Re-activating every neighbour above the new value re-reads
        the hub's 211 neighbours each iteration (22,292 values)."""
        edges, path = fan_path
        ag = ArrayGraph.from_graph(DynamicGraph.from_edges(edges))
        kappa = peel(ag)
        ta = TauArray.from_graph(ag, {v: k + (v in path) for v, k in kappa.items()})
        iterations = hhc_frontier_csr(ag, ta, ag.interner.ids_of(path))
        assert iterations >= 90
        assert sum(h_index_values) <= 8 * len(path), sum(h_index_values)
        got = {ag.interner.label_of(int(i)): int(ta.arr[i]) for i in ag.live_ids()}
        assert got == kappa


# ---------------------------------------------------------------------------
# interner
# ---------------------------------------------------------------------------
class TestVertexInterner:
    def test_round_trip_and_stability(self):
        it = VertexInterner()
        ids = [it.intern(lbl) for lbl in ("x", "y", ("z", 1), "x")]
        assert ids == [0, 1, 2, 0]
        assert it.label_of(2) == ("z", 1)
        assert it.id_of("missing") is None
        assert len(it) == 3 and it.capacity == 3

    def test_free_list_recycling(self):
        it = VertexInterner()
        for lbl in "abcd":
            it.intern(lbl)
        it.release("b")
        it.release("c")
        assert it.id_of("b") is None
        with pytest.raises(KeyError):
            it.label_of(1)
        # recycled before the id space grows
        assert it.intern("e") in (1, 2)
        assert it.intern("f") in (1, 2)
        assert it.capacity == 4

    def test_bulk_interning_matches_one_at_a_time(self):
        """``intern_many`` hands out the ids sequential ``intern`` calls
        would, recycled ids included; ``ids_of`` is the bulk ``id_of``."""
        rng = random.Random(5)
        bulk, one = VertexInterner(), VertexInterner()
        for _ in range(40):
            labels = [rng.randrange(40) for _ in range(rng.randrange(0, 25))]
            assert bulk.intern_many(labels).tolist() == [one.intern(x) for x in labels]
            for x in rng.sample(sorted(set(labels)), len(set(labels)) // 2):
                assert bulk.release(x) == one.release(x)
        probe = list(range(45))
        assert bulk.ids_of(probe).tolist() == [
            -1 if one.id_of(x) is None else one.id_of(x) for x in probe]
        twin = bulk.copy()
        twin.intern("new")
        assert "new" not in bulk and twin.capacity >= bulk.capacity

    def test_capacity_bounded_by_peak_under_churn(self):
        it = VertexInterner()
        rng = random.Random(0)
        live = set()
        peak = 0
        for step in range(2000):
            if live and rng.random() < 0.5:
                lbl = rng.choice(sorted(live))
                it.release(lbl)
                live.discard(lbl)
            else:
                lbl = rng.randrange(10_000)
                it.intern(lbl)
                live.add(lbl)
            peak = max(peak, len(live))
            assert len(it) == len(live)
        assert it.capacity <= peak
        for lbl in live:
            assert it.label_of(it.id_of(lbl)) == lbl


# ---------------------------------------------------------------------------
# the array substrate
# ---------------------------------------------------------------------------
def _assert_same_graph(ag: ArrayGraph, g: DynamicGraph):
    assert ag.num_vertices() == g.num_vertices()
    assert ag.num_edges() == g.num_edges()
    assert sorted(ag.vertices()) == sorted(g.vertices())
    assert ag.edge_list() == g.edge_list()
    for v in g.vertices():
        assert ag.degree(v) == g.degree(v)
        assert sorted(ag.neighbors(v)) == sorted(g.neighbors(v))


class TestArrayGraph:
    @pytest.mark.parametrize("seed", range(4))
    def test_mirrors_dynamic_graph_under_random_stream(self, seed):
        """ArrayGraph and DynamicGraph stay isomorphic through a long
        random insert/delete stream with heavy vertex churn."""
        rng = random.Random(seed)
        g = DynamicGraph()
        ag = ArrayGraph()
        n = 40
        for _ in range(1500):
            u, v = rng.sample(range(n), 2)
            if g.has_graph_edge(u, v):
                assert ag.remove_edge(u, v) and g.remove_edge(u, v)
            else:
                assert ag.add_edge(u, v) and g.add_edge(u, v)
        _assert_same_graph(ag, g)
        # second add / second remove are no-ops on both
        edges = g.edge_list()
        if edges:
            u, v = edges[0]
            assert not ag.add_edge(u, v)
            assert ag.remove_edge(u, v) and not ag.remove_edge(u, v)
            g.remove_edge(u, v)
            _assert_same_graph(ag, g)

    def test_implicit_vertex_lifecycle(self):
        ag = ArrayGraph.from_edges([(1, 2), (2, 3)])
        assert ag.has_vertex(1)
        ag.remove_edge(1, 2)
        assert not ag.has_vertex(1) and ag.has_vertex(2)
        assert ag.degree(1) == 0 and list(ag.neighbors(1)) == []
        ag.add_edge(1, 3)
        assert ag.has_vertex(1) and ag.degree(1) == 1

    def test_recycled_id_starts_clean(self):
        """A vertex re-created on a recycled dense id must not inherit the
        previous occupant's adjacency block contents."""
        ag = ArrayGraph()
        for i in range(1, 9):
            ag.add_edge(0, i)
        freed = ag.interner.id_of(0)
        for i in range(1, 9):
            ag.remove_edge(0, i)
        assert not ag.has_vertex(0)
        ag.add_edge("fresh", "other")
        recycled = {ag.interner.id_of("fresh"), ag.interner.id_of("other")}
        assert freed in recycled  # the free list actually recycled it
        assert sorted(ag.neighbors("fresh")) == ["other"]
        assert ag.degree("fresh") == 1

    def test_compaction_preserves_adjacency(self):
        rng = random.Random(3)
        g = erdos_renyi(60, 400, seed=3)
        # built edge by edge: the block relocations leave the holes that
        # force a compaction (a bulk build lays blocks out compactly)
        ag = ArrayGraph(compact_threshold=0.1)
        for u, v in g.edges():
            ag.add_edge(u, v)
        edges = g.edge_list()
        rng.shuffle(edges)
        drop = edges[: len(edges) // 2]
        for u, v in drop:
            ag.remove_edge(u, v)
            g.remove_edge(u, v)
        assert ag.compactions >= 1
        _assert_same_graph(ag, g)
        stats = ag.pool_stats()
        assert stats["holes"] <= 0.5 * max(64, stats["tail"])

    def test_snapshot_csr_matches_reference(self):
        g = powerlaw_social(80, 5, seed=5)
        ag = ArrayGraph.from_graph(g)
        from repro.graph.csr import CSRGraph

        ref = CSRGraph.from_graph(g)
        snap = ag.snapshot_csr()
        assert snap.labels == ref.labels
        assert np.array_equal(snap.indptr, ref.indptr)
        for i in range(snap.n):
            assert sorted(snap.neighbors(i)) == sorted(ref.neighbors(i))

    def test_substrate_pin_semantics(self):
        """Either pin change of a 2-pin edge moves the whole edge; the twin
        is then a structural no-op -- same contract as DynamicGraph."""
        ag = ArrayGraph()
        first, twin = graph_edge_changes(4, 5, True)
        assert ag.apply(first) and not ag.apply(twin)
        assert ag.has_graph_edge(4, 5)
        assert ag.pin_count(first.edge) == 2
        assert sorted(ag.pins(first.edge)) == [4, 5]
        assert sorted(ag.incident(4)) == [(4, 5)]
        first, twin = graph_edge_changes(4, 5, False)
        assert ag.apply(first) and not ag.apply(twin)
        assert ag.num_edges() == 0


# ---------------------------------------------------------------------------
# the bulk loader behind from_edges / from_graph / copy
# ---------------------------------------------------------------------------
def _per_edge_build(edges, **kwargs) -> ArrayGraph:
    """The reference: one ``add_edge`` per input pair."""
    ag = ArrayGraph(**kwargs)
    for u, v in edges:
        ag.add_edge(u, v)
    return ag


def _edges_with_duplicates(rng, n, m, label):
    """Random edges over ``n`` labels, with duplicates in both
    orientations mixed in."""
    edges = []
    for _ in range(m):
        u, v = rng.sample(range(n), 2)
        edges.append((label(u), label(v)))
        if rng.random() < 0.2:
            edges.append((label(v), label(u)))
        if rng.random() < 0.1:
            edges.append((label(u), label(v)))
    rng.shuffle(edges)
    return edges


LABELS = {"int": lambda i: i, "str": lambda i: f"v{i}"}


class TestCompactRows:
    """``compact_rows`` repacks both substrates' pools in one gather and
    one scatter: every row keeps its members in block order, so counts
    and the position maps survive unchanged -- after churn, with
    relocations, recycled ids and ids above 2^16."""

    N = (1 << 16) + 3000

    @staticmethod
    def _layout(starts, counts, pool, rows):
        return {int(i): pool[starts[i]:starts[i] + counts[i]].tolist() for i in rows}

    @staticmethod
    def _assert_packed(starts, counts, caps, tail, rows):
        s = starts[rows]
        order = np.argsort(s)
        ends = (s + caps[rows])[order]
        assert (caps[rows] >= counts[rows]).all()
        assert (s[order][1:] >= ends[:-1]).all() and ends[-1] <= tail

    def _check_compaction(self, starts_of, counts, caps_of, pool_of, pos, rows, compact):
        layout = self._layout(starts_of(), counts, pool_of(), rows)
        counts_before = counts[rows].copy()
        pos_before = dict(pos)
        compact()
        assert self._layout(starts_of(), counts, pool_of(), rows) == layout
        assert np.array_equal(counts[rows], counts_before)
        assert pos == pos_before

    def test_graph(self):
        rng = random.Random(11)
        n = self.N
        ag = ArrayGraph.from_edges((i, i + 1) for i in range(n))
        ref = DynamicGraph.from_edges((i, i + 1) for i in range(n))
        # churn: grow blocks past their slack (relocations), delete edges,
        # isolate vertices (ids freed) and attach new labels (ids reused)
        for _ in range(1500):
            u, v = rng.sample(range(n + 40), 2)
            op = rng.random()
            if op < 0.6:
                ag.add_edge(u, v)
                ref.add_edge(u, v)
            elif ref.has_graph_edge(u, v):
                ag.remove_edge(u, v)
                ref.remove_edge(u, v)
        for v in rng.sample(range(n), 20):
            for w in list(ref.neighbors(v)) if ref.has_vertex(v) else []:
                ag.remove_edge(v, w)
                ref.remove_edge(v, w)
        for k in range(20):
            ag.add_edge(n + 100 + k, k)
            ref.add_edge(n + 100 + k, k)
        stats = ag.pool_stats()
        assert stats["holes"] > 0 and stats["relocations"] > 0
        rows = ag.live_ids()
        assert rows.max() >= 1 << 16
        self._check_compaction(lambda: ag._starts, ag._counts, lambda: ag._caps,
                               lambda: ag._pool, ag._pos, rows, ag._compact)
        assert ag.pool_stats()["holes"] == 0
        self._assert_packed(ag._starts, ag._counts, ag._caps, ag._tail, rows)
        _assert_same_graph(ag, ref)
        # the repacked pool keeps taking updates
        for k in range(50):
            ag.add_edge(k, n - k)
            ref.add_edge(k, n - k)
            ag.remove_edge(k, k + 1)
            ref.remove_edge(k, k + 1)
        _assert_same_graph(ag, ref)

    def test_hypergraph(self):
        from repro.engine import ArrayHypergraph
        from repro.graph.dynamic_hypergraph import DynamicHypergraph

        rng = random.Random(12)
        n = self.N
        incidence = [(e, (e, e + 1, e + 2)) for e in range(n)]
        ah = ArrayHypergraph.from_incidence(incidence)
        ref = DynamicHypergraph.from_hyperedges(dict(incidence))
        for _ in range(1500):
            e, v = rng.randrange(n + 30), rng.randrange(n + 40)
            if rng.random() < 0.6:
                ah.add_pin(e, v)
                ref.add_pin(e, v)
            elif ref.has_pin(e, v):
                ah.remove_pin(e, v)
                ref.remove_pin(e, v)
        for e in rng.sample(range(n), 20):
            for v in list(ref.pins(e)):
                ah.remove_pin(e, v)
                ref.remove_pin(e, v)
        for k in range(20):
            ah.add_pin(n + 100 + k, k)
            ref.add_pin(n + 100 + k, k)
        for pool, rows in ((ah._vinc, ah.live_ids()), (ah._epins, ah.live_edge_ids())):
            assert rows.max() >= 1 << 16 and pool._holes > 0
            self._check_compaction(lambda: pool._starts, pool._counts, lambda: pool._caps,
                                   lambda: pool._pool, pool._pos, rows,
                                   lambda: pool.compact(rows))
            assert pool._holes == 0
            self._assert_packed(pool._starts, pool._counts, pool._caps, pool._tail, rows)
        got = {e: sorted(ah.pins(e)) for e in ah.edge_ids()}
        assert got == {e: sorted(ref.pins(e)) for e in ref.edge_ids()}
        for k in range(50):
            ah.add_pin(k, n - k)
            ref.add_pin(k, n - k)
        assert {e: sorted(ah.pins(e)) for e in ah.edge_ids()} == {
            e: sorted(ref.pins(e)) for e in ref.edge_ids()}


class TestBulkLoad:
    @pytest.mark.parametrize("kind", sorted(LABELS))
    @pytest.mark.parametrize("seed", range(4))
    def test_bulk_build_equals_per_edge_reference(self, seed, kind):
        rng = random.Random(seed)
        edges = _edges_with_duplicates(rng, 50, 200, LABELS[kind])
        bulk = ArrayGraph.from_edges(edges)
        ref = _per_edge_build(edges)
        _assert_same_graph(bulk, ref)
        # the same dense ids as the per-edge build, and blocks laid out
        # compactly: no relocations, no holes
        assert {v: bulk.interner.id_of(v) for v in ref.vertices()} == {
            v: ref.interner.id_of(v) for v in ref.vertices()}
        stats = bulk.pool_stats()
        assert stats["holes"] == 0 and stats["relocations"] == 0
        _assert_same_graph(ArrayGraph.from_graph(DynamicGraph.from_edges(edges)), ref)

    def test_empty_input(self):
        for ag in (ArrayGraph.from_edges([]), ArrayGraph.from_edges(iter(())),
                   ArrayGraph.from_graph(DynamicGraph()), ArrayGraph().copy()):
            assert ag.num_vertices() == 0 and ag.num_edges() == 0
            assert list(ag.edges()) == []
            assert ag.add_edge(1, 2) and ag.degree(1) == 1

    def test_self_loop_raises(self):
        with pytest.raises(ValueError, match="self-loop"):
            ArrayGraph.from_edges([(1, 2), (3, 3)])
        with pytest.raises(ValueError, match="self-loop"):
            ArrayGraph.from_edges([("a", "b"), ("a", "a")])
        with pytest.raises(ValueError, match="pairs"):
            ArrayGraph.from_edges([(1, 2), (1, 2, 3)])

    def test_reads_in_chunks(self, monkeypatch):
        """Small chunks: interning, the duplicate collapse and the
        position map all span chunk boundaries."""
        monkeypatch.setattr(array_graph, "LOAD_CHUNK", 7)
        rng = random.Random(11)
        edges = _edges_with_duplicates(rng, 30, 120, LABELS["int"])
        ag = ArrayGraph.from_edges(iter(edges))
        _assert_same_graph(ag, _per_edge_build(edges))
        with pytest.raises(ValueError, match="self-loop"):
            ArrayGraph.from_edges(iter(edges + [(5, 5)]))

    def test_layout_keeps_input_order_for_ids_above_16_bits(self):
        """The loader's row order takes two 16-bit radix passes once ids
        pass 2^16; blocks must still hold their members in input order."""
        rng = np.random.default_rng(4)
        rows = rng.integers(0, 200_000, 5000)
        members = np.arange(5000, dtype=np.int64)
        pos = {}
        starts, counts, caps, pool, tail = array_graph.pack_rows(
            rows, members, 200_000, 0.25, pos)
        for r in np.unique(rows)[::7].tolist():
            want = members[rows == r].tolist()
            assert pool[starts[r]:starts[r] + counts[r]].tolist() == want
            assert [pos[(r << 32) | m] for m in want] == list(range(len(want)))
        assert caps[counts == 0].sum() == 0 and tail == caps.sum() == len(pool)
        assert (caps[counts > 0] > counts[counts > 0]).all()

    @pytest.mark.parametrize("kind", sorted(LABELS))
    @pytest.mark.parametrize("seed", range(3))
    def test_stream_after_bulk_build_mirrors_dynamic_graph(self, seed, kind):
        """A random add/remove stream through compactions and id
        recycling keeps a bulk-built graph and its copy equal to a
        ``DynamicGraph`` mirror."""
        rng = random.Random(seed)
        label = LABELS[kind]
        edges = _edges_with_duplicates(rng, 60, 150, label)
        ag = ArrayGraph.from_edges(edges, compact_threshold=0.1)
        g = DynamicGraph.from_edges(edges)
        released = 0
        for _ in range(2500):
            if g.num_edges() and rng.random() < 0.55:
                u, v = rng.choice(g.edge_list())
                assert ag.remove_edge(u, v) and g.remove_edge(u, v)
                released += (not g.has_vertex(u)) + (not g.has_vertex(v))
            else:
                u, v = (label(x) for x in rng.sample(range(80), 2))
                assert ag.add_edge(u, v) == g.add_edge(u, v)
        _assert_same_graph(ag, g)
        assert ag.compactions >= 1 and released > 0
        assert ag.interner.capacity <= 80          # released ids were recycled
        twin = ag.copy()
        _assert_same_graph(twin, g)
        assert twin.interner.id_of(u) == ag.interner.id_of(u)
        # the copy is independent of its source
        for w, x in g.edge_list()[:10]:
            assert twin.remove_edge(w, x)
        _assert_same_graph(ag, g)
        assert twin.num_edges() == g.num_edges() - min(10, g.num_edges())


# ---------------------------------------------------------------------------
# engine selection and rollback
# ---------------------------------------------------------------------------
class TestEngineSelection:
    def test_auto_detects_backing(self):
        g = erdos_renyi(30, 60, seed=0)
        assert make_maintainer(g, "mod").engine == "dict"
        assert make_maintainer(ArrayGraph.from_graph(g), "mod").engine == "array"

    def test_forced_dict_on_array_substrate(self):
        ag = ArrayGraph.from_graph(erdos_renyi(40, 90, seed=1))
        m = make_maintainer(ag, "mod", engine="dict")
        assert m.engine == "dict"
        proto = BatchProtocol(ag, seed=2)
        d, i = proto.remove_reinsert(10)
        m.apply_batch(d)
        m.apply_batch(i)
        assert verify_kappa(m) == []

    def test_array_requires_array_backing(self):
        with pytest.raises(ValueError):
            make_maintainer(erdos_renyi(20, 40, seed=2), "mod", engine="array")

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            make_maintainer(erdos_renyi(20, 40, seed=2), "mod", engine="simd")


class TestArrayRollback:
    def test_fault_mid_batch_restores_dense_shadow(self):
        ag = ArrayGraph.from_graph(powerlaw_social(90, 5, seed=6))
        m = make_maintainer(ag, "mod")
        assert m.engine == "array"
        m.apply_batch(Batch(graph_edge_changes(900, 0, True)))
        tau0 = dict(m.tau)
        edges0 = ag.edge_list()
        inj = FaultInjector(m, [FaultPlan.raise_at(batch=0, change=2)])
        bad = Batch(graph_edge_changes(900, 1, True))
        bad.extend(graph_edge_changes(0, 1, False))
        with pytest.raises(FaultError):
            inj.apply_batch(bad)
        assert m.tau == tau0
        assert ag.edge_list() == edges0
        # dense shadow resynced: every live label agrees with the dict
        for v, k in m.tau.items():
            i = ag.interner.id_of(v)
            assert i is not None and m.backend.tau_array.live[i]
            assert int(m.backend.tau_array.arr[i]) == k
        m.apply_batch(bad)
        assert verify_kappa(m) == []

    def test_rollback_across_vertex_churn(self):
        """The poisoned batch deletes a vertex (recycling its id) before
        failing; the resync must re-grow the shadow correctly."""
        ag = ArrayGraph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
        m = make_maintainer(ag, "mod")
        tau0 = dict(m.tau)
        bad = Batch(graph_edge_changes(2, 3, False))  # kills vertex 3
        bad.extend(graph_edge_changes(5, 6, True))    # new ids (may recycle 3's)
        bad.extend(graph_edge_changes(0, 1, False))
        inj = FaultInjector(m, [FaultPlan.raise_at(batch=0, change=5)])
        with pytest.raises(FaultError):
            inj.apply_batch(bad)
        assert m.tau == tau0
        assert sorted(ag.vertices()) == [0, 1, 2, 3]
        for v, k in m.tau.items():
            assert int(m.backend.tau_array.arr[ag.interner.id_of(v)]) == k
        m.apply_batch(bad)
        assert verify_kappa(m) == []
