"""Replication subsystem: WAL shipping, hot standbys, failover, chaos.

Three suites:

* **Units** -- deterministic backoff + virtual clock, the WAL streaming
  iterator (``read_from`` / ``horizon`` / ``PruneResult``), the tau
  fingerprint, wire types, and the fault-injectable link.
* **Failover matrix** -- kill the primary with a programmed ``kill -9``
  at every replication-relevant crash point, for graph + hypergraph on
  the dict and array engines; the promoted standby's ``tau`` must equal
  an uninterrupted oracle of the exact committed prefix *and* fresh
  peeling, and budget-0 reads must reflect ``applied == committed``.
* **Transport chaos** -- dropped / duplicated / reordered / delayed /
  torn-mid-segment shipments never produce divergence: only lag (healed
  by retransmit or resync) or a raised ``DurabilityError``.  Plus the
  stale-primary fencing regression.
"""

from __future__ import annotations

import functools

import pytest

from repro.core.maintainer import CoreMaintainer
from repro.core.verify import verify_kappa
from repro.graph.batch import Batch, BatchProtocol
from repro.graph.dynamic_hypergraph import DynamicHypergraph
from repro.graph.generators import erdos_renyi
from repro.graph.substrate import graph_edge_changes
from repro.replication import (
    Nak,
    ReplicatedMaintainer,
    ReplicationDivergence,
    ReplicationLink,
    Shipment,
    StaleTermError,
    primary_suspected,
    promote_on_failure,
    tau_fingerprint,
)
from repro.resilience import FaultInjector, FaultPlan
from repro.resilience.backoff import ExponentialBackoff, ManualClock
from repro.resilience.durability import (
    CrashError,
    DurabilityError,
    WriteAheadLog,
    read_wal_from,
    wal_horizon,
)

# ---------------------------------------------------------------------------
# deterministic streams (same idiom as test_durability)
# ---------------------------------------------------------------------------

N_BATCHES = 12

_HYPEREDGES = {
    "a": [1, 2, 3], "b": [2, 3, 4], "c": [1, 3, 4], "d": [1, 2, 4],
    "e": [4, 5], "f": [5, 6, 7], "g": [6, 7, 8], "h": [7, 8, 9],
    "i": [1, 5, 9], "j": [2, 6, 8],
}


def _make_sub(kind):
    if kind == "hyper":
        return DynamicHypergraph.from_hyperedges(_HYPEREDGES)
    return erdos_renyi(20, 40, seed=1)


@functools.lru_cache(maxsize=None)
def _stream(kind):
    scratch = CoreMaintainer(_make_sub(kind), algorithm="mod")
    proto = BatchProtocol(scratch.sub, seed=7)
    size = 3 if kind == "graph" else 4
    batches = []
    for _ in range(N_BATCHES // 2):
        for b in proto.remove_reinsert(size):
            batches.append(tuple(b))
            scratch.apply_batch(Batch(list(b)))
    return tuple(batches)


@functools.lru_cache(maxsize=None)
def _oracle_kappa(kind, prefix):
    m = CoreMaintainer(_make_sub(kind), algorithm="mod")
    for b in _stream(kind)[:prefix]:
        m.apply_batch(Batch(list(b)))
    verify_kappa(m.impl)
    return m.kappa()


def _replicated(tmp_path, kind="graph", engine="dict", n=2, **replication):
    m = CoreMaintainer(
        _make_sub(kind), algorithm="mod", engine=engine,
        durable=str(tmp_path / "primary"),
        durability={"checkpoint_every": 4},
        replicas=n, replication=replication,
    )
    return m


# ---------------------------------------------------------------------------
# units: backoff + clock
# ---------------------------------------------------------------------------

def test_backoff_is_deterministic_and_bounded():
    b = ExponentialBackoff(initial=0.01, factor=2.0, max_delay=0.1, jitter=0.25, seed=3)
    again = ExponentialBackoff(initial=0.01, factor=2.0, max_delay=0.1, jitter=0.25, seed=3)
    for attempt in range(8):
        d = b.delay(attempt, key=5)
        assert d == again.delay(attempt, key=5)  # reproducible
        base = min(0.01 * 2.0 ** attempt, 0.1)
        assert base <= d <= base * 1.25
    # different keys decorrelate (no thundering herd)
    assert b.delay(2, key=0) != b.delay(2, key=1)


def test_backoff_coerce():
    assert ExponentialBackoff.coerce(None) is None
    assert isinstance(ExponentialBackoff.coerce("default"), ExponentialBackoff)
    policy = ExponentialBackoff(initial=1.0)
    assert ExponentialBackoff.coerce(policy) is policy


def test_manual_clock_never_blocks():
    clock = ManualClock()
    assert clock.now() == 0.0
    clock.sleep(2.5)            # virtual: advances, records, returns at once
    assert clock.now() == 2.5
    assert clock.sleeps == [2.5]
    clock.advance_to(10.0)
    assert clock.now() == 10.0


def test_resilient_retry_backoff_uses_injected_clock(tmp_path):
    """Satellite 1: the supervisor's retry path waits deterministic,
    jittered exponential delays on a virtual clock -- no real sleeping."""
    from repro.resilience.supervisor import ResilientMaintainer

    clock = ManualClock()
    rm = ResilientMaintainer(
        _make_sub("graph"), "mod", max_retries=2, seed=0,
        backoff=ExponentialBackoff(initial=0.5, factor=2.0, jitter=0.0, max_delay=10.0),
        clock=clock,
    )
    inj = FaultInjector(rm, [FaultPlan("raise", batch=0, transient=True)])
    report = inj.apply_batch(Batch(list(graph_edge_changes(0, 19, True))))
    assert report.ok and report.attempts == 2
    assert rm.stats["backoff_waits"] == 1
    assert clock.sleeps == [0.5]          # attempt 0's delay, virtual time
    assert rm.backoff_s == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# units: WAL streaming / horizon / prune
# ---------------------------------------------------------------------------

def _wal_with_batches(directory, n, *, segment_max_bytes=1 << 22):
    wal = WriteAheadLog(directory, segment_max_bytes=segment_max_bytes,
                        start_seqno=0)
    for i in range(n):
        wal.append_batch(i, graph_edge_changes(i, i + 1, True))
    return wal


def test_read_from_streams_the_committed_suffix(tmp_path):
    wal = _wal_with_batches(tmp_path, 6)
    got = list(wal.read_from(2))
    assert [s for s, _ in got] == [2, 3, 4, 5]
    # payloads decode to the original changes
    assert got[0][1] == graph_edge_changes(2, 3, True)
    assert list(wal.read_from(6)) == []


def test_read_from_spans_segment_rotation(tmp_path):
    wal = _wal_with_batches(tmp_path, 10, segment_max_bytes=200)
    assert len(list(tmp_path.glob("wal-*.seg"))) > 1
    assert [s for s, _ in wal.read_from(0)] == list(range(10))
    assert [s for s, _ in wal.read_from(7)] == [7, 8, 9]


def test_read_from_below_horizon_raises_for_resync(tmp_path):
    wal = _wal_with_batches(tmp_path, 10, segment_max_bytes=200)
    result = wal.prune(8)
    assert result.removed                       # something was pruned
    assert result.horizon == wal.horizon() > 0  # satellite 2: new horizon
    with pytest.raises(DurabilityError):
        list(wal.read_from(0))                  # lapped: must resync
    # at or above the horizon still streams fine
    assert [s for s, _ in wal.read_from(result.horizon)]


def test_wal_horizon_helpers(tmp_path):
    assert wal_horizon(tmp_path) is None
    wal = _wal_with_batches(tmp_path, 3)
    assert wal.horizon() == 0 == wal_horizon(tmp_path)


def test_indexed_read_from_equals_a_full_scan(tmp_path):
    """The seqno index changes what ``read_from`` parses, not what it
    returns: across rotations, an abort, a position with no record, a
    prune and a reopened log, every position reads as a scan does."""
    wal = WriteAheadLog(tmp_path, segment_max_bytes=200, start_seqno=0)
    for i in range(12):
        if i == 4:
            continue            # a validation-rejected position: no record
        wal.append_batch(i, graph_edge_changes(i, i + 1, True))
        if i == 6:
            wal.append_abort(6, "quarantined")
    assert len(wal.segments()) > 2

    def agrees(log, positions):
        for k in positions:
            assert list(log.read_from(k)) == list(read_wal_from(tmp_path, k)), k

    agrees(wal, range(14))
    assert 6 not in [s for s, _ in wal.read_from(0)]
    horizon = wal.prune(8).horizon
    assert horizon > 0
    agrees(wal, range(horizon, 14))
    wal.close()
    # a later session's log indexes only what it appends; the positions
    # an earlier session wrote are scanned for
    reopened = WriteAheadLog(tmp_path, segment_max_bytes=200, start_seqno=12)
    reopened.append_batch(12, graph_edge_changes(12, 13, True))
    agrees(reopened, range(horizon, 14))


# ---------------------------------------------------------------------------
# units: fingerprint + wire types
# ---------------------------------------------------------------------------

def test_tau_fingerprint_order_independent_and_drift_sensitive():
    a = {1: 2, 2: 2, 3: 1}
    b = {3: 1, 1: 2, 2: 2}
    assert tau_fingerprint(a) == tau_fingerprint(b)
    assert tau_fingerprint(a) != tau_fingerprint({1: 2, 2: 2, 3: 2})
    assert tau_fingerprint(a) != tau_fingerprint({1: 2, 2: 2})


def test_wire_type_validation():
    with pytest.raises(ValueError):
        Shipment("junk", term=1, start_seqno=0, end_seqno=0)
    with pytest.raises(ValueError):
        Shipment("records", term=1, start_seqno=5, end_seqno=4)
    with pytest.raises(ValueError):
        Nak(0, 0, 1, "whatever")


# ---------------------------------------------------------------------------
# units: the fault-injectable link
# ---------------------------------------------------------------------------

def _records(term=1, start=0, end=1, payload=b"x" * 64, items=4):
    return Shipment("records", term=term, start_seqno=start, end_seqno=end,
                    payload=payload, items=items)


def test_link_delivers_at_cost_on_the_virtual_clock():
    clock = ManualClock()
    link = ReplicationLink(clock)
    at = link.ship(_records())
    assert at == pytest.approx(link.base_cost_s(4))
    assert link.poll() == []                    # not due yet
    clock.advance_to(at)
    assert len(link.poll()) == 1
    assert link.inflight == 0


def test_link_faults_shape_delivery():
    clock = ManualClock()
    plans = [FaultPlan.drop_shipment(0), FaultPlan.duplicate_shipment(1),
             FaultPlan.delay_shipment(2, factor=4), FaultPlan.tear_shipment(3)]
    link = ReplicationLink(clock, plans=plans)
    link.ship(_records())                       # 0: dropped
    link.ship(_records())                       # 1: duplicated
    t2 = link.ship(_records())                  # 2: delayed 4x
    link.ship(_records())                       # 3: torn
    clock.advance(link.base_cost_s(4))
    due = link.poll()
    assert len(due) == 3                        # dup pair + torn; drop + delayed absent
    assert sum(1 for s in due if len(s.payload) < 64) == 1  # the torn one
    assert link.stats["dropped"] == 1 and link.stats["torn"] == 1
    clock.advance_to(t2)
    assert len(link.poll()) == 1                # the delayed one lands late
    # each plan fires exactly once
    assert len(link.fired) == 4


def test_link_reorder_overtakes():
    clock = ManualClock()
    link = ReplicationLink(clock, plans=[FaultPlan.reorder_shipment(0)])
    cost = link.base_cost_s(4)
    link.ship(_records(start=0, end=1))         # held back 1.5 steps
    clock.advance(cost)
    link.ship(_records(start=1, end=2))
    clock.advance(cost)
    first = link.poll()
    assert [s.start_seqno for s in first] == [1]  # successor overtook
    clock.advance(cost)
    assert [s.start_seqno for s in link.poll()] == [0]


# ---------------------------------------------------------------------------
# basic replication + bounded-staleness reads
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["graph", "hyper"])
def test_replicas_converge_and_serve_fresh_reads(tmp_path, kind):
    m = _replicated(tmp_path, kind=kind, n=2)
    for b in _stream(kind):
        m.apply_batch(Batch(list(b)))
    m.sync_replicas()
    rm = m.impl
    assert rm.converged and rm.max_lag() == 0
    oracle = _oracle_kappa(kind, N_BATCHES)
    assert m.kappa() == oracle
    for r in m.replicas:
        assert r.kappa() == oracle
        verify_kappa(r.maintainer)
        # staleness contract: a budget-0 server reflects the committed log
        assert r.applied_seqno == rm.committed_seqno
    rs = m.replica_set
    v = next(iter(m.impl.tau))
    assert rs.kappa_of(v, max_staleness=0) == m.kappa_of(v)
    assert rs.reads["primary"] == 0             # standbys absorbed the read


def test_staleness_budget_routes_around_lagging_replicas(tmp_path):
    m = _replicated(tmp_path, n=2, auto_pump=False)  # ship but never deliver
    for b in _stream("graph")[:4]:
        m.apply_batch(Batch(list(b)))
    rm = m.impl
    rs = m.replica_set
    assert rm.max_lag() == 4
    assert rs.lags() == {0: 4, 1: 4}
    # nothing is fresh enough: the primary serves
    label, _ = rs.route(max_staleness=0)
    assert label == "primary"
    # a generous budget admits the lagging standbys
    label, _ = rs.route(max_staleness=10)
    assert label.startswith("replica-")
    rm.sync_replicas()
    label, _ = rs.route(max_staleness=0)
    assert label.startswith("replica-")
    # round-robin spreads reads across the caught-up standbys
    served = {rs.route(0)[0] for _ in range(4)}
    assert served == {"replica-0", "replica-1"}


def test_replication_requires_durable():
    with pytest.raises(ValueError, match="durable"):
        CoreMaintainer(_make_sub("graph"), algorithm="mod", replicas=2)
    with pytest.raises(ValueError, match="replicas"):
        CoreMaintainer(_make_sub("graph"), algorithm="mod",
                       replication={"heartbeat_every": 1})


def test_heartbeats_and_failure_detection(tmp_path):
    m = _replicated(tmp_path, n=3, heartbeat_every=1)
    for b in _stream("graph")[:2]:
        m.apply_batch(Batch(list(b)))
    m.sync_replicas()
    rm = m.impl
    assert rm.stats["heartbeats"] >= 2
    assert not primary_suspected(rm.replicas, timeout=1.0)
    rm.clock.advance(5.0)                       # the primary goes silent
    assert primary_suspected(rm.replicas, timeout=1.0)
    rm.heartbeat()
    rm.pump(2)
    assert not primary_suspected(rm.replicas, timeout=1.0)


# ---------------------------------------------------------------------------
# the failover matrix (satellite 3)
# ---------------------------------------------------------------------------

#: crash points that interleave with replication: WAL append (before /
#: torn / after-unsynced), the fsync boundary, and checkpointing
FAILOVER_CRASH_POINTS = [
    ("wal.append.start", 5),
    ("wal.append.torn", 8),
    ("wal.append.unsynced", 12),
    ("wal.sync.before", 3),
    ("checkpoint.write.torn", 1),
    ("checkpoint.rename.before", 1),
]

CONFIGS = [
    ("graph", "dict"),
    ("graph", "array"),
    ("hyper", "dict"),
    ("hyper", "array"),
]


@pytest.mark.parametrize("kind,engine", CONFIGS)
@pytest.mark.parametrize("site,hit", FAILOVER_CRASH_POINTS)
def test_failover_matrix(tmp_path, kind, engine, site, hit):
    m = _replicated(tmp_path, kind=kind, engine=engine, n=2)
    inj = FaultInjector(m, [FaultPlan.crash_at(site, hit)])
    applied = 0
    crashed = False
    for b in _stream(kind):
        try:
            inj.apply_batch(Batch(list(b)))
        except CrashError as exc:
            assert exc.site == site and exc.hit == hit
            crashed = True
            break
        applied += 1
    assert crashed, f"crash point ({site}, {hit}) never fired -- widen the stream"
    fh = m.impl.impl.wal._fh                    # process death, no sync
    if fh is not None:
        fh.close()

    replicas = m.replicas
    promoted = promote_on_failure(replicas)
    # the crashed batch was never shipped: the promoted timeline is
    # exactly the acknowledged prefix
    prefix = promoted.committed_seqno
    assert prefix == applied
    assert promoted.promoted_from == max(
        replicas, key=lambda r: (r.applied_seqno, -r.replica_id)
    ).replica_id
    oracle = _oracle_kappa(kind, prefix)
    assert promoted.kappa() == oracle           # == uninterrupted oracle
    verify_kappa(promoted._inner_algorithm())   # == fresh peeling
    if engine == "array":
        assert promoted._inner_algorithm().engine == "array"

    # budget-0 reads on the new primary reflect applied == committed
    promoted.sync_replicas()
    rs = promoted.replica_set
    for r in promoted.replicas:
        assert r.applied_seqno == promoted.committed_seqno
        assert r.kappa() == oracle
    v = next(iter(promoted.tau))
    assert rs.kappa_of(v, max_staleness=0) == promoted.kappa_of(v)

    # the new primary keeps maintaining from where the timeline ended
    for b in _stream(kind)[prefix:]:
        promoted.apply_batch(Batch(list(b)))
    promoted.sync_replicas()
    assert promoted.kappa() == _oracle_kappa(kind, N_BATCHES)
    for r in promoted.replicas:
        assert r.kappa() == promoted.kappa()


def test_promotion_elects_highest_watermark(tmp_path):
    # replica 1's link drops everything after the bootstrap, so replica 0
    # is strictly ahead and must win the election
    drops = [FaultPlan.drop_shipment(i) for i in range(0, 20)]
    m = _replicated(tmp_path, n=2, fault_plans={1: drops})
    for b in _stream("graph")[:6]:
        m.apply_batch(Batch(list(b)))
    rm = m.impl
    assert rm.replicas[0].applied_seqno > rm.replicas[1].applied_seqno
    promoted = promote_on_failure(rm.replicas)
    assert promoted.promoted_from == 0
    assert promoted.term == rm.term + 1
    # the lagging survivor is caught back up under the new primary
    promoted.sync_replicas()
    assert promoted.replicas[0].kappa() == promoted.kappa() == _oracle_kappa("graph", 6)


# ---------------------------------------------------------------------------
# transport chaos (satellite 4)
# ---------------------------------------------------------------------------

CHAOS_SCHEDULES = {
    "drop": [FaultPlan.drop_shipment(i) for i in (0, 3, 4, 7)],
    "dup": [FaultPlan.duplicate_shipment(i) for i in (1, 2, 5)],
    "reorder": [FaultPlan.reorder_shipment(i) for i in (2, 6)],
    "delay": [FaultPlan.delay_shipment(i, factor=8) for i in (1, 4)],
    "torn": [FaultPlan.tear_shipment(i) for i in (0, 5, 9)],
    "kitchen-sink": [
        FaultPlan.drop_shipment(1), FaultPlan.tear_shipment(2),
        FaultPlan.duplicate_shipment(3), FaultPlan.reorder_shipment(5),
        FaultPlan.delay_shipment(7, factor=6), FaultPlan.drop_shipment(8),
    ],
}


@pytest.mark.parametrize("kind", ["graph", "hyper"])
@pytest.mark.parametrize("schedule", sorted(CHAOS_SCHEDULES))
def test_transport_chaos_never_diverges(tmp_path, kind, schedule):
    """Every chaos schedule ends in convergence to the exact oracle --
    the divergence tripwire is armed on every shipment
    (``divergence_every=1``), so a silent wrong answer cannot hide."""
    m = _replicated(tmp_path, kind=kind, n=2,
                    fault_plans={0: list(CHAOS_SCHEDULES[schedule])},
                    divergence_every=1)
    for b in _stream(kind):
        m.apply_batch(Batch(list(b)))
    m.sync_replicas()
    rm = m.impl
    oracle = _oracle_kappa(kind, N_BATCHES)
    assert m.kappa() == oracle
    for r in m.replicas:
        assert r.kappa() == oracle
        assert r.applied_seqno == rm.committed_seqno
    link = rm.links[0]
    fired = {p.kind for p in link.fired}
    expected = {p.kind for p in CHAOS_SCHEDULES[schedule]}
    assert fired == expected, "the schedule must actually have fired"


def test_chaos_with_pruning_forces_resync(tmp_path):
    """A replica lapped by WAL pruning (tiny segments + aggressive
    checkpoints + a run of drops) heals through checkpoint bootstrap."""
    drops = [FaultPlan.drop_shipment(i) for i in range(1, 9)]
    m = CoreMaintainer(
        _make_sub("graph"), algorithm="mod",
        durable=str(tmp_path / "primary"),
        durability={"checkpoint_every": 2, "segment_max_bytes": 200},
        replicas=1,
        replication={"fault_plans": {0: drops}, "auto_pump": False},
    )
    for b in _stream("graph"):
        m.apply_batch(Batch(list(b)))
    rm = m.impl
    assert rm.impl.wal.horizon() > 0            # pruning really happened
    m.sync_replicas()
    assert rm.stats["resyncs"] > 0
    assert rm.replicas[0].stats["bootstraps"] > 1
    assert rm.replicas[0].kappa() == _oracle_kappa("graph", N_BATCHES)


def test_torn_shipment_naks_and_heals(tmp_path):
    m = _replicated(tmp_path, n=1, fault_plans=[FaultPlan.tear_shipment(2)])
    for b in _stream("graph")[:6]:
        m.apply_batch(Batch(list(b)))
    m.sync_replicas()
    rm = m.impl
    assert rm.links[0].stats["torn"] == 1
    assert rm.replicas[0].stats["torn"] + rm.replicas[0].stats["gaps"] >= 1
    assert rm.replicas[0].kappa() == _oracle_kappa("graph", 6)


def test_divergence_raises_instead_of_serving_wrong_cores(tmp_path):
    m = _replicated(tmp_path, n=1, divergence_every=1)
    for b in _stream("graph")[:3]:
        m.apply_batch(Batch(list(b)))
    m.sync_replicas()
    replica = m.replicas[0]
    replica.maintainer.tau["__phantom__"] = 99  # silent corruption that no
    # later maintenance pass will incidentally overwrite
    with pytest.raises(ReplicationDivergence):
        for b in _stream("graph")[3:]:
            m.apply_batch(Batch(list(b)))
        m.sync_replicas()


def test_checkpoint_audit_catches_a_primary_write_behind_the_delta_path(tmp_path):
    """Stamps read running digests, which see only committed deltas.  A
    tau write outside any batch stays invisible to them until the next
    primary checkpoint, whose audit recomputes the fingerprint in full
    and refuses to ship."""
    m = _replicated(tmp_path, n=1, divergence_every=1)    # checkpoint_every=4
    stream = _stream("graph")
    for b in stream[:3]:
        m.apply_batch(Batch(list(b)))
    inner = m.impl._inner_algorithm()
    v = min(inner.tau, key=lambda u: (inner.sub.degree(u), repr(u)))
    inner._set_tau(v, inner.tau[v] + 7)       # no batch: no delta, no fold
    with pytest.raises(ReplicationDivergence, match="behind its delta path"):
        m.apply_batch(Batch(list(stream[3])))  # 4th batch: checkpoint + audit


def test_checkpoint_audit_catches_a_replica_write_behind_the_delta_path(tmp_path):
    """The same write on a standby, to a vertex it already holds (so the
    entry count does not move) in a triangle no batch reaches (so no
    maintenance pass repairs it), is caught by the audit shipment's full
    recompute on the standby."""
    g = _make_sub("graph")
    for u, w in ((100, 101), (101, 102), (100, 102)):
        g.add_edge(u, w)
    m = CoreMaintainer(
        g, algorithm="mod", durable=str(tmp_path / "primary"),
        durability={"checkpoint_every": 4}, replicas=1,
        replication={"divergence_every": 1},
    )
    stream = _stream("graph")
    m.apply_batch(Batch(list(stream[0])))
    m.sync_replicas()
    m.replicas[0].maintainer.tau[100] += 7
    for b in stream[1:3]:
        m.apply_batch(Batch(list(b)))          # digests agree: not seen yet
    with pytest.raises(ReplicationDivergence, match="checkpoint audit"):
        m.apply_batch(Batch(list(stream[3])))  # 4th batch: checkpoint + audit


def test_quarantine_under_divergence_tripwire_stays_converged(tmp_path):
    """A batch that quarantines *after* being WAL-logged used to poison
    the fingerprint tripwire: standbys replayed the logged batch the
    primary's memory had rolled back, and ``divergence_every=1`` tripped
    against the primary's own honest replicas.  The WAL abort record
    retracts the batch, so a resilient inner layer now composes with
    replication's strictest checking."""
    m = CoreMaintainer(
        _make_sub("graph"), algorithm="mod",
        resilient=True, max_retries=0,
        durable=str(tmp_path / "primary"),
        durability={"checkpoint_every": 4},
        replicas=2, replication={"divergence_every": 1},
    )
    poison = N_BATCHES - 1
    inj = FaultInjector(
        m, [FaultPlan.raise_at(batch=poison, change=1, transient=False)]
    )
    reports = [inj.apply_batch(Batch(list(b))) for b in _stream("graph")]
    assert reports[poison].status == "quarantined"
    m.sync_replicas()                 # raised ReplicationDivergence pre-fix
    rm = m.impl
    assert rm.converged and rm.max_lag() == 0
    # the abort record is on disk, and the position stayed consumed
    assert rm.impl.wal.stats["aborts"] == 1
    assert rm.impl.durability_stats["aborted_batches"] == 1
    assert rm.committed_seqno == N_BATCHES
    oracle = _oracle_kappa("graph", poison)     # the stream minus the batch
    assert m.kappa() == oracle
    for r in m.replicas:
        assert r.kappa() == oracle
        assert r.applied_seqno == rm.committed_seqno
        verify_kappa(r.maintainer)


# ---------------------------------------------------------------------------
# fencing (satellite 4's regression)
# ---------------------------------------------------------------------------

def test_stale_primary_is_fenced_after_promotion(tmp_path):
    m = _replicated(tmp_path, n=2)
    for b in _stream("graph")[:6]:
        m.apply_batch(Batch(list(b)))
    m.sync_replicas()
    old = m.impl
    promoted = promote_on_failure(old.replicas[1:])  # replica 1 takes over
    assert promoted.term == old.term + 1
    # the deposed primary comes back and keeps shipping: replica 1 is on
    # a newer term, so its NAK deposes the old primary loudly
    with pytest.raises(StaleTermError):
        m.apply_batch(Batch(list(_stream("graph")[6])))
        m.sync_replicas()
    # and the promoted node itself refuses old-term traffic outright
    winner = promoted.promoted_from
    resp = [r for r in old.replicas if r.replica_id == winner][0].receive(
        Shipment("heartbeat", term=old.term, start_seqno=0, end_seqno=0)
    )
    assert isinstance(resp, Nak) and resp.reason == "stale-term"


def test_promotion_onto_a_newer_term_is_refused(tmp_path):
    m = _replicated(tmp_path, n=2)
    for b in _stream("graph")[:2]:
        m.apply_batch(Batch(list(b)))
    m.sync_replicas()
    rm = m.impl
    rm.replicas[0].term = 99                    # this standby saw term 99
    with pytest.raises(StaleTermError):
        ReplicatedMaintainer(rm.impl, replicas=rm.replicas, term=5)


# ---------------------------------------------------------------------------
# the eval harness runner
# ---------------------------------------------------------------------------

def test_run_replicated_stream_smoke():
    from repro.eval import run_replicated_stream

    r = run_replicated_stream("DBLP", rounds=3, n_replicas=2, scale=0.05, seed=3)
    assert r.final_verified and r.replicas_converged
    assert r.lag_batches.maximum <= 1.0         # steady state: within one batch
    assert r.replica_read_fraction == 1.0       # budget-0 reads scaled out
    text = r.format()
    assert "replication lag" in text

    r2 = run_replicated_stream("DBLP", rounds=3, n_replicas=2, scale=0.05,
                               seed=3, fail_at=3)
    assert r2.failover is not None
    assert r2.failover["term"] == 2
    assert r2.final_verified and r2.replicas_converged


# ---------------------------------------------------------------------------
# the ship path's cost shape: counted, not timed
# ---------------------------------------------------------------------------

def test_steady_state_ship_parses_what_it_ships(tmp_path, monkeypatch):
    """Shipping one batch parses that batch, however long the session
    has run: over 1,008 batches the mean WAL bytes parsed per steady-state
    send over the last 30 sends stays within 1.1x of the first 30."""
    from repro.replication import primary as primary_mod
    from repro.resilience.durability import wal as wal_mod

    parsed = [0]
    parse = wal_mod._parse_record

    def counting_parse(data, offset):
        rec, end, damage = parse(data, offset)
        parsed[0] += end - offset
        return rec, end, damage

    per_send = []
    send = primary_mod.ReplicatedMaintainer._send

    def counting_send(self, h, start):
        before = parsed[0]
        send(self, h, start)
        per_send.append(parsed[0] - before)

    monkeypatch.setattr(wal_mod, "_parse_record", counting_parse)
    monkeypatch.setattr(primary_mod.ReplicatedMaintainer, "_send", counting_send)
    m = CoreMaintainer(
        _make_sub("graph"), algorithm="mod",
        durable=str(tmp_path / "primary"), durability={"checkpoint_every": 64},
        replicas=1,
    )
    stream = _stream("graph")
    n = 84 * len(stream)
    for i in range(n):
        m.apply_batch(Batch(list(stream[i % len(stream)])))
    rm = m.impl
    assert rm.stats["retransmits"] == rm.stats["resyncs"] == 0
    assert len(per_send) == n
    first = sum(per_send[:30]) / 30
    last = sum(per_send[-30:]) / 30
    assert first > 0
    assert last <= 1.1 * first, (first, last)


def _stamp_work(tmp_path, n_vertices, monkeypatch):
    """Per-entry CRCs per stamp, both sides, over a steady stream of
    fixed-size batches on a power-law graph of ``n_vertices``."""
    from repro.graph.generators import powerlaw_social
    from repro.replication import shipment as shipment_mod

    calls = [0]
    crc32 = shipment_mod.zlib.crc32

    class _CountingZlib:
        @staticmethod
        def crc32(data):
            calls[0] += 1
            return crc32(data)

    m = CoreMaintainer(
        powerlaw_social(n_vertices, 6, seed=3), algorithm="mod",
        durable=str(tmp_path / f"p{n_vertices}"),
        durability={"checkpoint_every": 0},
        replicas=1, replication={"divergence_every": 1},
    )
    proto = BatchProtocol(m.sub, seed=11)
    batches = [b for _ in range(20) for b in proto.remove_reinsert(4)]
    for b in batches[:4]:           # the first stamp seeds each digest
        m.apply_batch(b)
    monkeypatch.setattr(shipment_mod, "zlib", _CountingZlib)
    stamps = m.impl.stats["hash_stamps"]
    for b in batches[4:]:
        m.apply_batch(b)
    monkeypatch.undo()
    return calls[0] / (m.impl.stats["hash_stamps"] - stamps)


def test_stamp_work_tracks_the_batch_not_the_graph(tmp_path, monkeypatch):
    """A stamp folds what the batch changed: growing |V| 4x at a fixed
    batch size grows the per-stamp fingerprint work by less than 1.5x."""
    small = _stamp_work(tmp_path, 500, monkeypatch)
    large = _stamp_work(tmp_path, 2000, monkeypatch)
    assert large < 1.5 * small, (small, large)
