"""Serving layer: snapshot isolation, admission, deadlines, degradation.

Four suites:

* **Units** -- ReadView copy-on-write + lazy level buckets + flattening,
  the coalescing :class:`IngestQueue`, the health state machine,
  admission watermarks with full-jitter retry hints, deadlines, and
  threshold subscriptions.
* **Snapshot-consistency oracle** -- >= 200 interleaved batches across
  graph/hypergraph on the dict and array engines: every published view
  equals fresh peeling of the exact committed prefix its ``boundary``
  stamps, level buckets partition the mapping, and retained old views
  stay frozen while later batches commit (isolation proper).
* **Fault chaos** -- a mid-batch rollback (transient fault, retried) and
  a quarantined poison batch never publish a view or fire a subscriber;
  a supervisor heal re-attaches the view manager.
* **Torn reads** -- real reader threads racing ``apply_batch`` observe
  only committed boundaries through the view path.
"""

from __future__ import annotations

import functools
import threading
import time

import pytest

from repro.core.backend import wrap_substrate
from repro.core.maintainer import CoreMaintainer, make_maintainer
from repro.core.queries import top_k_densest, vertices_with_core_at_least
from repro.core.verify import verify_kappa
from repro.graph.batch import Batch, BatchProtocol
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.dynamic_hypergraph import DynamicHypergraph
from repro.graph.generators import erdos_renyi
from repro.graph.substrate import Change, graph_edge_changes
from repro.resilience import FaultInjector, FaultPlan
from repro.resilience.backoff import ExponentialBackoff, ManualClock
from repro.serve import (
    DEGRADED,
    HEALTHY,
    SHEDDING,
    AdmissionController,
    CoreServer,
    Deadline,
    HealthMonitor,
    IngestQueue,
    ReadView,
    ViewManager,
)

# ---------------------------------------------------------------------------
# deterministic streams (same idiom as test_replication / test_durability)
# ---------------------------------------------------------------------------

N_ROUNDS = 25          # -> 50 batches per kind; x4 (kind, engine) combos
                       #    = 200 oracle-checked boundaries in the matrix

_HYPEREDGES = {
    "a": [1, 2, 3], "b": [2, 3, 4], "c": [1, 3, 4], "d": [1, 2, 4],
    "e": [4, 5], "f": [5, 6, 7], "g": [6, 7, 8], "h": [7, 8, 9],
    "i": [1, 5, 9], "j": [2, 6, 8], "k": [3, 5, 7], "l": [1, 6, 9],
}


def _make_sub(kind):
    if kind == "hyper":
        return DynamicHypergraph.from_hyperedges(_HYPEREDGES)
    return erdos_renyi(24, 50, seed=3)


@functools.lru_cache(maxsize=None)
def _stream(kind):
    scratch = CoreMaintainer(_make_sub(kind), algorithm="mod")
    proto = BatchProtocol(scratch.sub, seed=11)
    size = 3 if kind == "graph" else 4
    batches = []
    for _ in range(N_ROUNDS):
        for b in proto.remove_reinsert(size):
            batches.append(tuple(b))
            scratch.apply_batch(Batch(list(b)))
    return tuple(batches)


@functools.lru_cache(maxsize=None)
def _boundary_kappas(kind):
    """``kappas[i]`` = fresh-peeling-verified kappa after batch prefix i."""
    m = CoreMaintainer(_make_sub(kind), algorithm="mod")
    kappas = [m.kappa()]
    for b in _stream(kind):
        m.apply_batch(Batch(list(b)))
        kappas.append(m.kappa())
    verify_kappa(m.impl)   # the last boundary really is peeling
    return tuple(kappas)


def _served(kind="graph", engine="dict", **options):
    sub = _make_sub(kind)
    if engine == "array":
        sub = wrap_substrate(sub, "array")
    m = make_maintainer(sub, "mod", engine=engine)
    options.setdefault("clock", ManualClock())
    return CoreServer(m, **options)


# ---------------------------------------------------------------------------
# units: ReadView / ViewManager
# ---------------------------------------------------------------------------

class TestReadView:
    def test_initial_view_is_full_capture(self):
        server = _served()
        view = server.view()
        assert view.boundary == 0 and view.epoch == 1
        assert view.kappa() == _boundary_kappas("graph")[0]
        assert len(view) == len(_boundary_kappas("graph")[0])

    def test_cow_chain_point_reads(self):
        server = _served()
        kappas = _boundary_kappas("graph")
        for i, b in enumerate(_stream(kind := "graph")[:6], start=1):
            server.submit(list(b))
            server.pump()
            view = server.view()
            for v in kappas[0]:
                assert view.kappa_of(v) == kappas[i].get(v, 0)
                assert (v in view) == (v in kappas[i])
        assert kind == "graph"

    def test_retained_views_are_immutable(self):
        server = _served()
        kappas = _boundary_kappas("graph")
        server.submit(list(_stream("graph")[0]))
        server.pump()
        old = server.view()
        frozen = old.kappa()
        for b in _stream("graph")[1:8]:
            server.submit(list(b))
            server.pump()
        assert old.kappa() == frozen == kappas[1]
        assert server.view().kappa() == kappas[8]

    def test_flatten_by_depth(self):
        server = _served(flatten_depth=2, flatten_ratio=10.0)
        for b in _stream("graph")[:8]:
            server.submit(list(b))
            server.pump()
        assert server.views.stats["flattens"] >= 2
        # a flattened view sits on a plain dict base, depth reset
        assert server.view()._depth <= 3
        assert server.view().kappa() == _boundary_kappas("graph")[8]

    def test_flatten_by_ratio(self):
        server = _served(flatten_depth=1000, flatten_ratio=0.0)
        m = server.views.maintainer
        publish, patched = m.view_publisher, []

        def spy(delta):
            patched.append(bool(delta))
            publish(delta)

        m.view_publisher = spy
        for b in _stream("graph")[:6]:
            server.submit(list(b))
            server.pump()
        # every publish that patches a vertex crosses ratio 0 -> its view
        # is flattened (a batch that writes no tau patches nothing)
        assert len(patched) == 6 and sum(patched) >= 3 and patched[-1]
        assert server.views.stats["flattens"] == sum(patched)
        assert server.view()._depth == 1

    def test_point_reads_are_flat_at_every_depth(self):
        """Up to ``flatten_depth`` links, through vertices that leave and
        re-enter, ``kappa_of`` and ``in`` agree with the materialised
        ``kappa()`` of every view, and read no parent link: every patch
        below the newest view is swapped for a mapping that fails any
        read."""
        edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                 (3, 4), (4, 5), (5, 6), (7, 8)]
        sub = DynamicGraph.from_edges(edges)
        server = CoreServer(make_maintainer(sub, "mod"), clock=ManualClock(),
                            flatten_depth=8, flatten_ratio=10.0)
        m = server.views.maintainer
        stream = [
            [((7, 8), False)],                                  # 7, 8 leave
            [((7, 8), True)],                                   # ... re-enter
            [((5, 6), False)],                                  # 6 leaves
            [((6, 0), True), ((6, 1), True), ((6, 2), True)],   # 6 re-enters, rises
            [((4, 1), True), ((4, 2), True)],
            [((7, 8), False)],
            [((8, 9), True)],                                   # 8 re-enters, 9 is new
        ]
        views, expected = [server.view()], [m.kappa()]
        for units in stream:
            server.submit([c for (u, v), ins in units for c in graph_edge_changes(u, v, ins)])
            server.pump()
            views.append(server.view())
            expected.append(m.kappa())
        assert [view._depth for view in views] == list(range(1, 9))
        assert 7 not in views[1] and 7 in views[2] and 9 in views[7]
        assert views[4].kappa_of(6) > expected[0][6]

        class _Unread:
            def _fail(self, *args):
                raise AssertionError("a point read walked a parent link")

            get = items = keys = values = _fail
            __getitem__ = __contains__ = __iter__ = __len__ = _fail

        for view in views[:-1]:
            view.patch = _Unread()
        for view, kappa in zip(views, expected):
            assert view.kappa() == kappa
            for v in range(12):
                assert view.kappa_of(v) == kappa.get(v, 0), (view, v)
                assert (v in view) == (v in kappa), (view, v)

    def test_level_buckets_partition_kappa(self):
        server = _served()
        for b in _stream("graph")[:5]:
            server.submit(list(b))
            server.pump()
        view = server.view()
        got = {}
        for k in view.levels():
            for v in view.vertices_at_level(k):
                assert v not in got
                got[v] = k
        assert got == view.kappa()
        assert view.vertices_at_level(10 ** 9) == frozenset()

    def test_detach_stops_publication(self):
        m = make_maintainer(_make_sub("graph"), "mod")
        views = ViewManager(m, clock=ManualClock())
        views.detach()
        m.apply_batch(Batch(list(_stream("graph")[0])))
        assert m.view_publisher is None
        assert views.current().boundary == 0          # frozen pre-detach

    def test_attach_rebuilds_with_monotone_epoch(self):
        server = _served()
        e0 = server.view().epoch
        server.views.attach(server.views.maintainer)
        assert server.view().epoch == e0 + 1
        assert server.views.stats["rebuilds"] == 2


# ---------------------------------------------------------------------------
# units: queue + admission + health
# ---------------------------------------------------------------------------

class TestIngestQueue:
    def test_opposing_pair_annihilates(self):
        q = IngestQueue()
        ins = graph_edge_changes(1, 2, True)
        dels = graph_edge_changes(1, 2, False)
        assert [q.push(c) for c in ins] == ["queued", "queued"]
        assert [q.push(c) for c in dels] == ["annihilated", "annihilated"]
        assert len(q) == 0 and q.stats["annihilated"] == 2

    def test_duplicate_absorbed(self):
        q = IngestQueue()
        c = Change(("e", 1), 1, True)
        assert q.push(c) == "queued"
        assert q.push(Change(("e", 1), 1, True)) == "duplicate"
        assert len(q) == 1 and q.stats["duplicates"] == 1

    def test_fifo_drain_in_chunks(self):
        q = IngestQueue()
        changes = [Change(("e", i), i, True) for i in range(5)]
        for c in changes:
            q.push(c)
        assert q.drain(2) == changes[:2]
        assert q.drain() == changes[2:]
        assert len(q) == 0 and q.stats["drained"] == 5


class TestHealth:
    def test_escalation_immediate_recovery_hysteretic(self):
        h = HealthMonitor(defer_at=4, shed_at=8, recover_after=2)
        assert h.note_depth(3) == HEALTHY
        assert h.note_depth(4) == DEGRADED
        assert h.note_depth(8) == SHEDDING
        # one clean commit is not enough, and recovery is one step
        assert h.note_commit(0) == SHEDDING
        assert h.note_commit(0) == DEGRADED
        assert h.note_commit(0) == DEGRADED
        assert h.note_commit(0) == HEALTHY
        assert h.transitions == [
            (HEALTHY, DEGRADED), (DEGRADED, SHEDDING),
            (SHEDDING, DEGRADED), (DEGRADED, HEALTHY),
        ]

    def test_depth_floor_blocks_recovery(self):
        h = HealthMonitor(defer_at=4, shed_at=8, recover_after=1)
        h.note_depth(9)
        # commits with the queue still above the shed mark cannot help
        assert h.note_commit(8) == SHEDDING
        assert h.note_commit(5) == DEGRADED    # below shed, one step down
        assert h.note_commit(5) == DEGRADED    # floored at the defer mark
        assert h.note_commit(3) == HEALTHY

    def test_failure_jumps_to_shedding(self):
        h = HealthMonitor()
        assert h.note_failure() == SHEDDING
        assert h.stats["failures"] == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            HealthMonitor(defer_at=0)
        with pytest.raises(ValueError):
            HealthMonitor(defer_at=10, shed_at=5)
        with pytest.raises(ValueError):
            HealthMonitor(recover_after=0)


class TestAdmission:
    def _controller(self, defer_at=4, shed_at=8):
        q = IngestQueue()
        h = HealthMonitor(defer_at=defer_at, shed_at=shed_at)
        return AdmissionController(q, h), q, h

    def _changes(self, lo, n):
        return [Change(("e", i), i, True) for i in range(lo, lo + n)]

    def test_accept_then_defer_at_watermark(self):
        ctl, q, h = self._controller()
        d = ctl.offer(self._changes(0, 3))
        assert d.accepted and d.enqueued == 3 and d.retry_after_s is None
        d = ctl.offer(self._changes(3, 2))        # depth 3 < 4: accepted
        assert d.accepted and d.queue_depth == 5
        d = ctl.offer(self._changes(5, 1))        # depth 5 >= 4: deferred
        assert d.status == "deferred" and d.health == DEGRADED
        assert d.retry_after_s is not None and d.retry_after_s >= 0.0
        assert len(q) == 5                        # rejected work not queued

    def test_shed_hint_doubles_and_jitter_bounded(self):
        ctl, _, h = self._controller(defer_at=1, shed_at=2)
        ctl.offer(self._changes(0, 2))            # accepted, depth 2
        hints = [ctl.offer(self._changes(9, 1)) for _ in range(6)]
        assert all(d.status == "shed" for d in hints)
        assert h.state == SHEDDING
        for i, d in enumerate(hints):
            base = min(0.05 * 2.0 ** i, 5.0)
            assert 0.0 <= d.retry_after_s <= base * 2.0   # full jitter x2
        # deterministic: the same seed reproduces the same hints
        ctl2, _, _ = self._controller(defer_at=1, shed_at=2)
        ctl2.offer(self._changes(0, 2))
        again = [ctl2.offer(self._changes(9, 1)) for _ in range(6)]
        assert [d.retry_after_s for d in again] == \
            [d.retry_after_s for d in hints]

    def test_full_jitter_backoff_mode(self):
        b = ExponentialBackoff(initial=0.1, factor=2.0, max_delay=1.0,
                               mode="full", seed=5)
        again = ExponentialBackoff(initial=0.1, factor=2.0, max_delay=1.0,
                                   mode="full", seed=5)
        for attempt in range(8):
            d = b.delay(attempt, key=1)
            assert d == again.delay(attempt, key=1)
            assert 0.0 <= d <= min(0.1 * 2.0 ** attempt, 1.0)
        assert b.delay(3, key=0) != b.delay(3, key=2)   # decorrelated

    def test_rejection_streak_resets_on_accept(self):
        ctl, q, h = self._controller(defer_at=1, shed_at=100)
        ctl.offer(self._changes(0, 1))
        ctl.offer(self._changes(1, 1))            # deferred
        assert ctl._rejections == 1
        q.drain()
        h.note_commit(0)
        h.note_commit(0)                          # recover to healthy
        d = ctl.offer(self._changes(2, 1))
        assert d.accepted and ctl._rejections == 0


# ---------------------------------------------------------------------------
# units: deadlines + stamped results
# ---------------------------------------------------------------------------

class TestDeadlines:
    def test_deadline_on_manual_clock(self):
        clock = ManualClock()
        dl = Deadline(0.5, clock)
        assert not dl.expired and dl.remaining == 0.5
        clock.sleep(0.4)
        assert not dl.expired
        clock.sleep(0.2)
        assert dl.expired and dl.remaining < 0
        assert Deadline.coerce(None, clock) is None
        assert Deadline.coerce(dl, clock) is dl
        assert Deadline.coerce(1.0, clock).budget_s == 1.0
        with pytest.raises(ValueError):
            Deadline(-1.0, clock)

    def test_timeout_degrades_to_stamped_snapshot(self):
        server = _served(batch_cost_s=0.05, max_batch=4)
        kappas = _boundary_kappas("graph")
        server.submit(list(_stream("graph")[0]))
        server.pump()
        base_boundary = server.view().boundary
        frozen = server.view().kappa()
        # backlog worth 12 engine batches: a path of brand-new vertices
        # (disjoint from the original graph, so the probe is unaffected)
        server.submit_edges([(1000 + i, 1001 + i) for i in range(24)])
        probe = next(iter(kappas[0]))
        qr = server.core(probe, deadline=0.11)   # budget worth ~2 batches
        assert qr.status == "timeout"
        assert qr.pending > 0
        assert qr.boundary > base_boundary       # moved toward the frontier
        assert qr.value == frozen.get(probe, 0)  # exact as of its stamp
        assert server.stats["timeouts"] == 1

    def test_stale_read_without_pumping(self):
        server = _served()
        server.submit(list(_stream("graph")[0]))
        qr = server.kappa(fresh=False)
        assert qr.status == "stale" and qr.pending > 0
        assert qr.value == _boundary_kappas("graph")[0]
        qr = server.kappa()                       # fresh pulls the queue in
        assert qr.fresh and qr.staleness == 0 and qr.pending == 0
        assert qr.value == _boundary_kappas("graph")[1]

    def test_query_surface(self):
        server = _served()
        k = server.kappa().value
        want = vertices_with_core_at_least(
            server.views.maintainer, 2)
        assert server.vertices_with_core_at_least(2).value == want
        top = server.top_k_densest(2).value
        assert top == top_k_densest(server.views.maintainer, 2)
        probe = next(iter(k))
        assert server.core(probe).value == k[probe]
        assert server.query(lambda view: len(view)).value == len(k)


# ---------------------------------------------------------------------------
# units: subscriptions
# ---------------------------------------------------------------------------

class TestSubscriptions:
    def test_threshold_crossings_fire_with_coordinates(self):
        server = _served()
        sub = server.subscribe(2)
        kappas = _boundary_kappas("graph")
        for i, b in enumerate(_stream("graph")[:10], start=1):
            server.submit(list(b))
            server.pump()
        for ev in sub.events:
            old = kappas[ev.boundary - 1].get(ev.vertex, 0)
            new = kappas[ev.boundary].get(ev.vertex, 0)
            assert (ev.old, ev.new) == (old, new)
            if ev.direction == "up":
                assert old < 2 <= new
            else:
                assert new < 2 <= old
        # the bursty remove/reinsert stream crosses k=2 repeatedly
        assert sub.events

    def test_direction_and_vertex_filters(self):
        server = _served()
        kappas = _boundary_kappas("graph")
        watched = set(list(kappas[0])[:5])
        up = server.subscribe(2, direction="up")
        down = server.subscribe(2, direction="down", vertices=watched)
        for b in _stream("graph")[:10]:
            server.submit(list(b))
            server.pump()
        assert all(e.direction == "up" for e in up.events)
        assert all(e.direction == "down" and e.vertex in watched
                   for e in down.events)

    def test_broken_callback_is_contained(self):
        server = _served()

        def boom(event):
            raise RuntimeError("subscriber bug")

        sub = server.subscribe(2, callback=boom)
        for b in _stream("graph")[:12]:
            server.submit(list(b))
            assert server.pump().failures == 0    # bug never hits the engine
            if sub.broken:
                break
        assert sub.broken and not sub.active
        assert server.view().kappa() == \
            _boundary_kappas("graph")[server.view().boundary]

    def test_unsubscribe_and_validation(self):
        server = _served()
        sub = server.subscribe(3)
        server.subscriptions.unsubscribe(sub)
        assert len(server.subscriptions) == 0
        with pytest.raises(ValueError):
            server.subscribe(0)
        with pytest.raises(ValueError):
            server.subscribe(2, direction="sideways")


# ---------------------------------------------------------------------------
# the snapshot-consistency oracle (200 checked boundaries across the matrix)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("engine", ["dict", "array"])
@pytest.mark.parametrize("kind", ["graph", "hyper"])
def test_every_view_equals_peeling_at_its_boundary(kind, engine):
    server = _served(kind, engine)
    kappas = _boundary_kappas(kind)
    universe = set().union(*kappas)
    retained = []
    for i, b in enumerate(_stream(kind), start=1):
        decision = server.submit(list(b))
        assert decision.accepted
        report = server.pump()
        assert report.failures == 0 and report.remaining == 0
        view = server.view()
        assert view.boundary == i == server.committed_batches
        assert view.kappa() == kappas[i]
        assert len(view) == len(kappas[i])
        for v in universe:
            assert view.kappa_of(v) == kappas[i].get(v, 0)
        bucketed = {}
        for k in view.levels():
            for v in view.vertices_at_level(k):
                bucketed[v] = k
        assert bucketed == kappas[i]
        if i % 7 == 0:
            retained.append(view)
    # isolation proper: old snapshots never moved
    for view in retained:
        assert view.kappa() == kappas[view.boundary]
    assert server.views.stats["publishes"] == len(_stream(kind))
    assert server.views.stats["flattens"] >= 1       # the chain was bounded
    verify_kappa(server.views.maintainer)


@pytest.mark.parametrize("engine", ["dict", "array"])
def test_view_levels_match_backend_capture(engine):
    """The engine-specific ``view_levels`` capture agrees with tau."""
    server = _served("graph", engine)
    for b in _stream("graph")[:3]:
        server.submit(list(b))
        server.pump()
    m = server.views.maintainer
    captured = m.backend.view_levels()
    want = {}
    for v, k in m.tau.items():
        want.setdefault(k, set()).add(v)
    assert {k: set(s) for k, s in captured.items() if s} == want


# ---------------------------------------------------------------------------
# fault chaos: rollback / quarantine / heal never leak into views
# ---------------------------------------------------------------------------

class _Injecting:
    """Adapter: routes ``apply_batch`` through a FaultInjector while
    exposing the wrapped stack (``impl``) for the server's unwrapping."""

    def __init__(self, maintainer, plans):
        self.impl = maintainer
        self._injector = FaultInjector(maintainer, plans)

    def apply_batch(self, batch):
        return self._injector.apply_batch(batch)


def test_rolled_back_attempt_never_publishes():
    m = CoreMaintainer(_make_sub("graph"), algorithm="mod",
                       resilient=True, max_retries=1)
    shim = _Injecting(m, [FaultPlan.raise_at(batch=5, change=1,
                                             transient=True)])
    server = CoreServer(shim, clock=ManualClock())
    sub = server.subscribe(1)
    kappas = _boundary_kappas("graph")
    for i, b in enumerate(_stream("graph")[:12], start=1):
        before = server.views.stats["publishes"]
        server.submit(list(b))
        report = server.pump()
        assert report.failures == 0
        # exactly one publish per committed batch -- the rolled-back
        # first attempt of batch 5 was invisible
        assert server.views.stats["publishes"] == before + 1
        assert server.view().kappa() == kappas[i]
    assert m.impl.stats["retries"] == 1
    # no event came from a rolled-back attempt: all stamps are committed
    # boundaries and match the oracle transition at that boundary
    for ev in sub.events:
        assert kappas[ev.boundary].get(ev.vertex, 0) == ev.new
        assert kappas[ev.boundary - 1].get(ev.vertex, 0) == ev.old


def test_quarantined_batch_is_contained_and_health_recovers():
    m = CoreMaintainer(_make_sub("graph"), algorithm="mod",
                       resilient=True, max_retries=0)
    poison = len(_stream("graph")) - 1
    shim = _Injecting(m, [FaultPlan.raise_at(batch=poison, change=1,
                                             transient=False)])
    server = CoreServer(shim, clock=ManualClock(), recover_after=1)
    kappas = _boundary_kappas("graph")
    for b in _stream("graph"):
        server.submit(list(b))
        server.pump()
    assert server.stats["failed_batches"] == 1
    assert len(server.failed) == 1 and "injected fault" in server.failed[0][1]
    assert m.impl.stats["quarantined"] == 1
    assert server.health.state == SHEDDING
    # the view holds at the last committed boundary, exact
    view = server.view()
    assert view.boundary == poison == server.committed_batches
    assert view.kappa() == kappas[poison]
    # reads still serve (from the snapshot), writes are shed
    qr = server.core(next(iter(kappas[0])))
    assert qr.status == "fresh"                  # nothing pending, exact
    shed = server.submit(list(_stream("graph")[0]))
    assert shed.status == "shed" and shed.retry_after_s > 0
    # idle pumps are the probe that steps health back down
    assert server.pump().health == DEGRADED
    assert server.pump().health == HEALTHY
    ok = server.submit(list(_stream("graph")[0]))
    assert ok.accepted


def test_heal_reattaches_view_manager():
    m = CoreMaintainer(_make_sub("graph"), algorithm="mod",
                       resilient=True, audit_sample=None)
    server = CoreServer(m, clock=ManualClock())
    for b in _stream("graph")[:4]:
        server.submit(list(b))
        server.pump()
    supervisor = m.impl
    old_algo = supervisor.impl
    old_epoch = server.view().epoch
    # corrupt one entry, audit-and-heal: the algorithm is rebuilt
    v = next(iter(old_algo.tau))
    old_algo.tau[v] += 3
    assert supervisor.audit() == "healed"
    assert supervisor.impl is not old_algo
    qr = server.kappa()                          # read path re-attaches
    assert server.stats["reattaches"] == 1
    assert server.views.maintainer is supervisor.impl
    assert qr.value == _boundary_kappas("graph")[4]
    assert server.view().epoch > old_epoch       # epoch stays monotone


def test_overload_keeps_queue_bounded():
    """10x overload: depth stays bounded, excess becomes explicit
    defer/shed decisions, and served answers stay exact snapshots."""
    server = _served(defer_at=8, shed_at=16, max_batch=4, recover_after=1)
    decisions = {"accepted": 0, "deferred": 0, "shed": 0}
    max_depth = 0
    group = 10                                   # 5 edges = 10 pin changes
    for i in range(100):
        # distinct fresh edges: nothing coalesces, offered load is ~2.5x
        # the drain rate, sustained
        d = server.submit_edges(
            [(2000 + 5 * i + j, 2001 + 5 * i + j) for j in range(5)])
        decisions[d.status] += 1
        max_depth = max(max_depth, d.queue_depth, len(server.queue))
        server.pump(max_batches=1)               # slow engine
        qr = server.kappa(fresh=False)
        # never torn: the view tracks every committed batch exactly,
        # even though drains chunk across submissions
        assert qr.staleness == 0
        assert qr.value == dict(server.views.maintainer.tau)
    assert decisions["deferred"] + decisions["shed"] > 0
    assert decisions["accepted"] > 0
    # bounded by construction: a group admitted below the defer mark
    assert max_depth <= server.health.defer_at + group
    server.pump()
    assert server.kappa().fresh
    verify_kappa(server.views.maintainer)


# ---------------------------------------------------------------------------
# torn reads: real threads racing maintenance
# ---------------------------------------------------------------------------

def test_concurrent_readers_see_only_committed_boundaries():
    reps = 3
    sub = _make_sub("graph")
    m = make_maintainer(sub, "mod")
    server = CoreServer(m, clock=ManualClock())
    # expected kappa at every boundary of the repeated stream
    scratch = CoreMaintainer(_make_sub("graph"), algorithm="mod")
    expected = [scratch.kappa()]
    batches = list(_stream("graph")) * reps
    for b in batches:
        scratch.apply_batch(Batch(list(b)))
        expected.append(scratch.kappa())

    errors = []
    seen = set()
    stop = threading.Event()

    def reader():
        while not stop.is_set():
            view = server.views.current()
            got = view.kappa()
            if got != expected[view.boundary]:
                errors.append((view.boundary, got))
                return
            seen.add(view.boundary)

    threads = [threading.Thread(target=reader) for _ in range(2)]
    for t in threads:
        t.start()
    try:
        for b in batches:
            server.submit(list(b))
            server.pump()
            time.sleep(0)                        # force interleavings
    finally:
        stop.set()
        for t in threads:
            t.join()
    assert not errors, f"torn read observed: {errors[:1]}"
    assert len(seen) >= 5                        # readers really interleaved
    assert server.view().boundary == len(batches)


# ---------------------------------------------------------------------------
# queries + facade + harness integration
# ---------------------------------------------------------------------------

def test_new_query_helpers_on_maintainer_and_view():
    m = CoreMaintainer(_make_sub("hyper"), algorithm="mod")
    k = m.kappa()
    want2 = {v for v, kv in k.items() if kv >= 2}
    assert vertices_with_core_at_least(m, 2) == want2
    assert vertices_with_core_at_least(m, 10 ** 6) == set()
    top = top_k_densest(m, 3)
    assert top and all(isinstance(lvl, int) and comp for lvl, comp in top)
    ks = [lvl for lvl, _ in top]
    assert ks == sorted(ks, reverse=True)
    server = CoreServer(m, clock=ManualClock())
    assert vertices_with_core_at_least(server.view(), 2) == want2


def test_maintainer_serve_facade():
    m = CoreMaintainer(erdos_renyi(16, 30, seed=2), algorithm="mod")
    server = m.serve(clock=ManualClock(), max_batch=8)
    assert isinstance(server, CoreServer)
    d = server.submit_edges([(100, 101), (101, 102), (100, 102)])
    assert d.accepted and d.enqueued == 6
    assert server.kappa().fresh
    assert server.core(100).value == 2
    verify_kappa(server.views.maintainer)


def test_run_served_stream_keep_up_and_overload():
    from repro.eval.harness import run_served_stream

    r = run_served_stream("DBLP", "mod", rounds=6, scale=0.2, seed=1)
    assert r.view_consistent and r.final_verified
    assert r.statuses.get("fresh", 0) > 0
    assert r.admission.get("accepted", 0) > 0
    out = r.format()
    assert "view consistent" in out and "verified clean" in out

    r = run_served_stream(
        "DBLP", "mod", rounds=6, scale=0.2, seed=1, engine="array",
        pump_batches_per_round=1, defer_at=16, shed_at=64,
        deadline_s=0.004, max_batch=8,
    )
    assert r.view_consistent and r.final_verified
    assert r.admission.get("deferred", 0) + r.admission.get("shed", 0) > 0
    # bounded under overload: a group is only admitted below the defer
    # watermark, so depth never exceeds defer_at + the largest group
    assert r.max_queue_depth <= 16 + r.max_group
