"""The hypergraph flat-array engine: incidence pools, min-tau shadow,
rollback resync, and checkpoint round-trips.

Mirrors ``test_engine.py`` for the hypergraph side of the engine:

* :class:`ArrayHypergraph` against :class:`DynamicHypergraph` under
  randomised pin-change streams, through relocations and compactions;
* interner id recycling under hyperedge churn (long-running dynamic
  workloads must not leak id space);
* :class:`EdgeMinShadow` (per-edge min / second-min / witness of pin
  taus) against a brute-force pin scan, including ties;
* transactional rollback resyncing the dense shadows;
* checkpoint and WAL round-trips onto the array substrate.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.maintainer import CoreMaintainer, make_maintainer
from repro.core.peel import peel
from repro.core.verify import verify_kappa
from repro.engine import ArrayHypergraph
from repro.engine import array_hypergraph
from repro.engine.tau_array import INF, ArrayMinCache, EdgeMinShadow, TauArray
from repro.graph.batch import Batch, BatchProtocol
from repro.graph.dynamic_hypergraph import DynamicHypergraph
from repro.graph.generators import affiliation_hypergraph
from repro.graph.substrate import Change
from repro.resilience.checkpoint import restore_maintainer, take_checkpoint
from repro.resilience.faults import FaultError, FaultInjector, FaultPlan


def _random_stream(rng, steps):
    """A pin-change stream over a small label space, biased to inserts."""
    changes = []
    for _ in range(steps):
        e = rng.randrange(0, 25)
        v = rng.randrange(0, 40)
        changes.append((e, v, rng.random() < 0.65))
    return changes


def _same_content(ah: ArrayHypergraph, dh: DynamicHypergraph):
    assert sorted(ah.vertices()) == sorted(dh.vertices())
    a_edges = {e: sorted(pins) for e, pins in ah.hyperedges()}
    d_edges = {e: sorted(pins) for e, pins in dh.hyperedges()}
    assert a_edges == d_edges
    assert ah.num_pins() == dh.num_pins()
    for v in dh.vertices():
        assert ah.degree(v) == dh.degree(v)
        assert sorted(ah.incident(v)) == sorted(dh.incident(v))
        assert set(ah.neighbors(v)) == set(dh.neighbors(v))


# ---------------------------------------------------------------------------
# substrate: ArrayHypergraph vs DynamicHypergraph
# ---------------------------------------------------------------------------
class TestArrayHypergraphSubstrate:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_dict_substrate_random_stream(self, seed):
        rng = random.Random(seed)
        ah = ArrayHypergraph()
        dh = DynamicHypergraph()
        for step, (e, v, insert) in enumerate(_random_stream(rng, 600)):
            if insert and not dh.has_pin(e, v):
                ah.add_pin(e, v)
                dh.add_pin(e, v)
            elif not insert and dh.has_pin(e, v):
                ah.remove_pin(e, v)
                dh.remove_pin(e, v)
            if step % 97 == 0:
                _same_content(ah, dh)
        _same_content(ah, dh)

    def test_churn_forces_compaction_and_stays_consistent(self):
        """Heavy delete/reinsert churn must trigger pool compaction without
        corrupting the incidence."""
        rng = random.Random(7)
        ah = ArrayHypergraph.from_hyperedges(
            {e: list(range(5 * e, 5 * e + 4)) for e in range(30)}
        )
        dh = DynamicHypergraph()
        for e, pins in ah.hyperedges():
            for v in pins:
                dh.add_pin(e, v)
        for round_ in range(40):
            es = rng.sample(range(30), 10)
            for e in es:
                for v in list(dh.pins(e)) if dh.has_edge(e) else []:
                    ah.remove_pin(e, v)
                    dh.remove_pin(e, v)
            for e in es:
                for v in rng.sample(range(200), rng.randrange(2, 7)):
                    if not dh.has_pin(e, v):
                        ah.add_pin(e, v)
                        dh.add_pin(e, v)
        _same_content(ah, dh)
        stats = ah.pool_stats()
        assert any(s["compactions"] > 0 or s["relocations"] > 0
                   for s in stats.values())

    def test_interner_recycling_under_hyperedge_churn(self):
        """Creating and destroying hyperedges (and their private vertices)
        forever must not grow the id spaces: released ids get recycled."""
        ah = ArrayHypergraph.from_hyperedges({"base": [0, 1, 2]})
        cap_v0, cap_e0 = None, None
        for round_ in range(200):
            e = ("churn", round_)
            pins = [("v", round_, j) for j in range(6)]
            ah.add_hyperedge(e, pins)
            ah.remove_hyperedge(e)
            if round_ == 3:
                cap_v0 = ah.interner.capacity
                cap_e0 = ah.edge_interner.capacity
        assert ah.interner.capacity == cap_v0
        assert ah.edge_interner.capacity == cap_e0
        assert sorted(ah.vertices()) == [0, 1, 2]
        assert ah.num_edges() == 1

    def test_snapshot_csr_matches_content(self):
        h = affiliation_hypergraph(40, 60, 3.5, seed=3)
        ah = ArrayHypergraph.from_hypergraph(h)
        csr = ah.snapshot_csr()
        assert csr.n == ah.num_vertices() and csr.m == ah.num_edges()
        sizes = sorted(int(s) for s in csr.edge_sizes())
        assert sizes == sorted(ah.pin_count(e) for e, _ in ah.hyperedges())


# ---------------------------------------------------------------------------
# the bulk loader behind from_hyperedges / from_hypergraph / copy
# ---------------------------------------------------------------------------
def _per_pin_build(items) -> ArrayHypergraph:
    """The reference: one ``add_pin`` per input pin."""
    ah = ArrayHypergraph()
    for e, pins in items:
        for v in pins:
            ah.add_pin(e, v)
    return ah


def _pin_lists(rng, m, n, label):
    """``m`` hyperedges over ``n`` labels: repeated pins, singleton and
    pinless edges mixed in."""
    return {
        ("e", j): [label(rng.randrange(n)) for _ in range(rng.choice([0, 1, 2, 3, 5, 8]))]
        for j in range(m)
    }


LABELS = {"int": lambda i: i, "str": lambda i: f"v{i}"}


class TestBulkLoad:
    @pytest.mark.parametrize("kind", sorted(LABELS))
    @pytest.mark.parametrize("seed", range(4))
    def test_bulk_build_equals_per_pin_reference(self, seed, kind):
        rng = random.Random(seed)
        items = _pin_lists(rng, 60, 40, LABELS[kind])
        bulk = ArrayHypergraph.from_hyperedges(items)
        ref = _per_pin_build(items.items())
        dh = DynamicHypergraph()
        for e, pins in items.items():
            for v in pins:
                dh.add_pin(e, v)
        _same_content(bulk, dh)
        _same_content(ArrayHypergraph.from_hypergraph(dh), dh)
        assert bulk.num_edges() == ref.num_edges() == sum(1 for p in items.values() if p)
        # the same dense ids as the per-pin build, laid out compactly
        for interner in ("interner", "edge_interner"):
            got, want = getattr(bulk, interner), getattr(ref, interner)
            assert dict(got.items()) == dict(want.items())
        for stats in bulk.pool_stats().values():
            assert stats["holes"] == 0 and stats["relocations"] == 0

    def test_plain_pin_lists_and_repeated_edges(self):
        ah = ArrayHypergraph.from_hyperedges([[1, 2, 2], [], ["a"]])
        assert sorted(e for e, _ in ah.hyperedges()) == [0, 2]
        assert sorted(ah.pins(0)) == [1, 2] and ah.pins(2) == ["a"]
        # a label repeated across items merges, like repeated add_pin calls
        ah = ArrayHypergraph.from_incidence([("x", [1, 2]), ("y", [3]), ("x", [2, 4])])
        assert sorted(ah.pins("x")) == [1, 2, 4] and ah.num_pins() == 4

    def test_empty_input(self):
        for ah in (ArrayHypergraph.from_hyperedges({}), ArrayHypergraph.from_hyperedges([]),
                   ArrayHypergraph.from_hypergraph(DynamicHypergraph()),
                   ArrayHypergraph().copy()):
            assert ah.num_vertices() == ah.num_edges() == ah.num_pins() == 0
            assert ah.add_pin("e", 1) and ah.degree(1) == 1

    def test_reads_in_chunks(self, monkeypatch):
        monkeypatch.setattr(array_hypergraph, "LOAD_CHUNK", 16)
        rng = random.Random(12)
        items = _pin_lists(rng, 50, 30, LABELS["int"])
        ah = ArrayHypergraph.from_incidence(iter(items.items()))
        ref = _per_pin_build(items.items())
        assert {e: sorted(p) for e, p in ah.hyperedges()} == {
            e: sorted(p) for e, p in ref.hyperedges()}

    @pytest.mark.parametrize("kind", sorted(LABELS))
    @pytest.mark.parametrize("seed", range(3))
    def test_stream_after_bulk_build_mirrors_dynamic_hypergraph(self, seed, kind):
        """A random pin stream through compactions and id recycling keeps
        a bulk-built hypergraph and its copy equal to a
        ``DynamicHypergraph`` mirror."""
        rng = random.Random(seed)
        label = LABELS[kind]
        items = _pin_lists(rng, 30, 40, label)
        ah = ArrayHypergraph.from_hyperedges(items, compact_threshold=0.1)
        dh = DynamicHypergraph()
        for e, pins in items.items():
            for v in pins:
                dh.add_pin(e, v)
        for e, v, insert in _random_stream(rng, 3000):
            e, v = ("e", e), label(v)
            if insert and not dh.has_pin(e, v):
                assert ah.add_pin(e, v) and dh.add_pin(e, v)
            elif not insert and dh.has_pin(e, v):
                assert ah.remove_pin(e, v) and dh.remove_pin(e, v)
        _same_content(ah, dh)
        stats = ah.pool_stats()
        assert any(s["compactions"] > 0 for s in stats.values())
        assert ah.interner.capacity <= 40 and ah.edge_interner.capacity <= 30
        twin = ah.copy()
        _same_content(twin, dh)
        for e, pins in list(dh.hyperedges())[:5]:
            for v in list(pins):
                assert twin.remove_pin(e, v)
        _same_content(ah, dh)


# ---------------------------------------------------------------------------
# EdgeMinShadow vs brute-force pin scans
# ---------------------------------------------------------------------------
class TestEdgeMinShadow:
    def _build(self, seed, n=35, m=30):
        rng = random.Random(seed)
        ah = ArrayHypergraph()
        for e in range(m):
            for v in rng.sample(range(n), rng.randrange(1, 7)):
                ah.add_pin(e, v)
        ta = TauArray()
        tau = {}
        for v in ah.vertices():
            tau[v] = rng.randrange(0, 6)
            i = ah.interner.id_of(v)
            ta.set_(i, tau[v])
        return rng, ah, ta, tau

    def _check_all(self, ah, shadow, tau):
        for e, pins in ah.hyperedges():
            ei = ah.edge_interner.id_of(e)
            vals = sorted(tau[v] for v in pins)
            assert shadow.edge_min_id(ei) == vals[0]
            for v in pins:
                others = [tau[w] for w in pins if w != v]
                want = min(others) if others else int(INF)
                got = shadow.min_excluding_id(ei, ah.interner.id_of(v))
                # a tie on the minimum means excluding either holder still
                # leaves the same minimum -- the second order statistic
                assert got == want, (e, v, vals)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_scan(self, seed):
        _, ah, ta, tau = self._build(seed)
        shadow = EdgeMinShadow(ah, ta)
        shadow.refresh_ids(np.asarray(list(ah.edge_ids()), dtype=np.int64))
        self._check_all(ah, shadow, tau)

    @pytest.mark.parametrize("seed", range(3))
    def test_invalidation_after_tau_and_pin_changes(self, seed):
        rng, ah, ta, tau = self._build(seed)
        shadow = EdgeMinShadow(ah, ta)
        for _ in range(60):
            if rng.random() < 0.5:  # tau move
                v = rng.choice(sorted(ah.vertices()))
                tau[v] = rng.randrange(0, 8)
                i = ah.interner.id_of(v)
                ta.set_(i, tau[v])
                shadow.on_vertex_change(i)
            else:  # structural pin change
                e = rng.randrange(0, 30)
                v = rng.randrange(0, 35)
                ei = ah.edge_interner.id_of(e)
                if ah.has_pin(e, v) and ah.pin_count(e) > 1:
                    ah.remove_pin(e, v)
                    shadow.invalidate(ei)
                elif not ah.has_pin(e, v) and ah.has_edge(e):
                    if not ah.has_vertex(v):
                        tau[v] = 0
                    ah.add_pin(e, v)
                    ta.set_(ah.interner.id_of(v), tau[v])
                    shadow.invalidate(ah.edge_interner.id_of(e))
            shadow.refresh_ids(
                np.asarray(list(ah.edge_ids()), dtype=np.int64)
            )
            self._check_all(ah, shadow, tau)

    def test_ties_use_second_order_statistic(self):
        ah = ArrayHypergraph.from_hyperedges({"e": [0, 1, 2]})
        ta = TauArray()
        for v, t in [(0, 3), (1, 3), (2, 7)]:
            ta.set_(ah.interner.id_of(v), t)
        shadow = EdgeMinShadow(ah, ta)
        ei = ah.edge_interner.id_of("e")
        shadow.refresh_one(ei)
        assert shadow.edge_min_id(ei) == 3
        # excluding either tied holder of the min still leaves a 3
        for v in (0, 1):
            assert shadow.min_excluding_id(ei, ah.interner.id_of(v)) == 3
        assert shadow.min_excluding_id(ei, ah.interner.id_of(2)) == 3

    def test_singleton_edge_min_excluding_is_inf(self):
        import math

        ah = ArrayHypergraph.from_hyperedges({"s": [9]})
        ta = TauArray()
        ta.set_(ah.interner.id_of(9), 4)
        shadow = EdgeMinShadow(ah, ta)
        cache = ArrayMinCache(ah, shadow)
        assert cache.edge_min("s") == 4
        assert cache.min_excluding("s", 9) == math.inf


# ---------------------------------------------------------------------------
# rollback: the dense shadows must resync on transaction abort
# ---------------------------------------------------------------------------
class TestRollbackResync:
    @pytest.mark.parametrize("algorithm", ["mod", "set", "setmb", "hybrid"])
    def test_midbatch_fault_rolls_back_and_recovers(self, algorithm):
        h = affiliation_hypergraph(50, 80, 4.0, seed=21)
        ah = ArrayHypergraph.from_hypergraph(h)
        m = make_maintainer(ah, algorithm)
        assert m.engine == "array"
        tau0 = dict(m.tau)
        content0 = {e: sorted(pins) for e, pins in ah.hyperedges()}
        bad = Batch([Change(("new", j), j % 9, True) for j in range(10)])
        bad.extend([Change("also-new", 3, True)])
        inj = FaultInjector(m, [FaultPlan.raise_at(batch=0, change=7)])
        with pytest.raises(FaultError):
            inj.apply_batch(bad)
        assert m.tau == tau0
        assert {e: sorted(pins) for e, pins in ah.hyperedges()} == content0
        # the same batch then applies cleanly: shadow + tau array resynced
        m.apply_batch(bad)
        assert verify_kappa(m) == []

    def test_rollback_across_edge_churn(self):
        """The poisoned batch destroys a hyperedge (recycling its id in
        both interners) before failing; resync must survive the reuse."""
        ah = ArrayHypergraph.from_hyperedges(
            {"a": [0, 1, 2], "b": [1, 2, 3], "c": [3]}
        )
        m = make_maintainer(ah, "mod")
        tau0 = dict(m.tau)
        bad = Batch([Change("c", 3, False)])        # kills edge c
        bad.extend([Change("d", 99, True),           # may recycle c's id
                    Change("d", 98, True),
                    Change("a", 0, False)])
        inj = FaultInjector(m, [FaultPlan.raise_at(batch=0, change=3)])
        with pytest.raises(FaultError):
            inj.apply_batch(bad)
        assert m.tau == tau0
        assert sorted(e for e, _ in ah.hyperedges()) == ["a", "b", "c"]
        m.apply_batch(bad)
        assert verify_kappa(m) == []


# ---------------------------------------------------------------------------
# checkpoint / WAL round-trips
# ---------------------------------------------------------------------------
class TestDurabilityRoundTrip:
    def test_checkpoint_round_trips_array_substrate(self):
        h = affiliation_hypergraph(45, 70, 3.5, seed=31)
        ah = ArrayHypergraph.from_hypergraph(h)
        m = make_maintainer(ah, "mod")
        proto = BatchProtocol(ah, seed=32)
        deletion, insertion = proto.remove_reinsert(10)
        m.apply_batch(deletion)
        m.apply_batch(insertion)
        cp = take_checkpoint(m)
        for engine, want_array in [("array", True), ("dict", False)]:
            m2 = restore_maintainer(cp, engine=engine)
            assert getattr(m2.sub, "is_array_backed", False) is want_array
            assert m2.kappa() == m.kappa()
            d2, i2 = BatchProtocol(m2.sub, seed=33).remove_reinsert(8)
            m2.apply_batch(d2)
            m2.apply_batch(i2)
            assert verify_kappa(m2) == []

    def test_wal_recovery_onto_array_engine(self, tmp_path):
        h = affiliation_hypergraph(40, 60, 3.5, seed=41)
        m = CoreMaintainer(h, algorithm="mod", engine="array",
                           durable=tmp_path / "d")
        proto = BatchProtocol(m.sub, seed=42)
        for _ in range(4):
            deletion, insertion = proto.remove_reinsert(8)
            m.apply_batch(deletion)
            m.apply_batch(insertion)
        expected = m.kappa()
        del m  # "crash": the directory is all that survives
        m2 = CoreMaintainer.recover(tmp_path / "d", engine="array")
        assert m2.engine == "array"
        assert m2.sub.is_hypergraph and m2.sub.is_array_backed
        assert m2.kappa() == expected
        snap = DynamicHypergraph()
        for e, pins in m2.sub.hyperedges():
            for v in pins:
                snap.add_pin(e, v)
        assert m2.kappa() == peel(snap)
        d2, i2 = BatchProtocol(m2.sub, seed=43).remove_reinsert(8)
        m2.apply_batch(d2)
        m2.apply_batch(i2)
        assert verify_kappa(m2) == []
