"""Experiment drivers regenerating the paper's figures.

:func:`run_scalability` reproduces one panel of Figs. 6-12: a dataset, an
algorithm, a change direction (insert / delete / mixed) and a sweep of
batch sizes, measured across the full thread sweep on the simulated
machine.  The protocol is the paper's (Section V-A): random units are
removed then re-inserted for ``rounds`` repetitions; deletion-only panels
time the removals, insertion-only panels the re-insertions, mixed panels
the interleaved batch.

Crucially, the maintainer is *reused* across rounds -- this is maintenance,
not recomputation -- and the simulated runtime's clock is reset around the
timed batch only, so untimed protocol bookkeeping is free, mirroring how
the paper times batch processing alone.

:func:`run_latency_vs_static` measures the maintenance-vs-recompute ratio
backing Section IV's "reaching over 10^4 x static computation" claim for
small batches.

:func:`run_resilient_stream` drives the resilience layer on the paper's
bursty workload (Section I's motivation): a
:class:`~repro.resilience.supervisor.ResilientMaintainer` plays a
:class:`~repro.graph.streams.BurstyStream` with deterministic faults
injected, and the result surfaces the supervisor's retry / quarantine /
audit counters next to the usual latency statistics -- the service-facing
half of the evaluation.

:func:`run_served_stream` closes the loop on the serving story: a
:class:`~repro.serve.server.CoreServer` fronts the maintainer on the same
bursty workload, writes flow through admission control and the coalescing
queue, and every read is a deadline-bounded snapshot query.  The result
reports the admission mix (accept / defer / shed), sampled queue depth,
query latency percentiles, the staleness distribution of served answers,
and the final view-vs-engine consistency check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.backend import wrap_substrate
from repro.core.maintainer import make_maintainer
from repro.core.static import hhc_local
from repro.eval.datasets import DATASETS
from repro.eval.stats import Stats
from repro.graph.batch import BatchProtocol
from repro.parallel.simulated import DEFAULT_THREAD_COUNTS, SimulatedRuntime

__all__ = [
    "ExperimentResult",
    "ReplicationResult",
    "ResilienceResult",
    "ServeResult",
    "run_scalability",
    "run_latency_vs_static",
    "run_replicated_stream",
    "run_resilient_stream",
    "run_served_stream",
]


def _percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) -- 0.0 on empty input."""
    if not samples:
        return 0.0
    xs = sorted(samples)
    return xs[min(len(xs) - 1, int(round(q * (len(xs) - 1))))]


@dataclass
class ExperimentResult:
    """Series for one figure panel.

    ``times[batch_size][threads]`` holds the :class:`Stats` of the timed
    batch runtimes (simulated seconds).
    """

    dataset: str
    algorithm: str
    direction: str
    thread_counts: Tuple[int, ...]
    batch_sizes: Tuple[int, ...]
    times: Dict[int, Dict[int, Stats]] = field(default_factory=dict)
    #: simulated seconds of a from-scratch recompute, per thread count
    static_time: Optional[Dict[int, float]] = None
    #: execution engine the maintainer actually ran on
    engine: str = "dict"
    #: total simulated work units across all timed batches
    work_units: float = 0.0

    def speedup(self, batch_size: int, threads: int) -> float:
        series = self.times[batch_size]
        return series[self.thread_counts[0]].mean / series[threads].mean

    def best_threads(self, batch_size: int) -> int:
        series = self.times[batch_size]
        return min(series, key=lambda t: series[t].mean)


def _spec(dataset: str):
    try:
        return DATASETS[dataset]
    except KeyError:
        raise ValueError(f"unknown dataset {dataset!r}") from None


def _timed_apply(maintainer, rt: SimulatedRuntime, batch) -> Tuple[Dict[int, float], float]:
    rt.reset_clock()
    maintainer.apply_batch(batch)
    metrics = rt.take_metrics()
    times = {t: metrics.elapsed_seconds(t) for t in rt.thread_counts}
    return times, metrics.work_units


def run_scalability(
    dataset: str,
    algorithm: str,
    *,
    direction: str = "insert",
    batch_sizes: Sequence[int] = (100, 1000),
    rounds: int = 5,
    scale: float = 1.0,
    seed: int = 0,
    thread_counts: Sequence[int] = DEFAULT_THREAD_COUNTS,
    engine: str = "auto",
    maintainer_kwargs: Optional[dict] = None,
) -> ExperimentResult:
    """One figure panel: runtime vs threads, one series per batch size.

    ``direction`` is ``"insert"``, ``"delete"`` or ``"mixed"``.
    ``engine`` picks the execution path (``"auto"`` / ``"array"`` /
    ``"dict"``): with ``"array"`` the loaded dataset is lifted onto its
    flat-array substrate and the timed batches run through the vectorised
    kernels, which report chunked work to the simulated machine -- the
    same scaling figures, produced on the fast engine.
    """
    if direction not in ("insert", "delete", "mixed"):
        raise ValueError(f"unknown direction {direction!r}")
    spec = _spec(dataset)
    sub = wrap_substrate(spec.load(scale, seed), engine)
    rt = SimulatedRuntime(profile=spec.profile, thread_counts=thread_counts)
    kwargs = dict(maintainer_kwargs or {})
    if algorithm == "mod":
        # the figures reproduce Algorithm 4 as printed, not the bounded
        # default; an explicit policy (the ablation) still wins
        kwargs.setdefault("increment_policy", "paper")
    maintainer = make_maintainer(sub, algorithm, rt, engine=engine, **kwargs)
    proto = BatchProtocol(sub, seed=seed + 1)

    result = ExperimentResult(
        dataset, algorithm, direction, tuple(thread_counts), tuple(batch_sizes),
        engine=maintainer.engine,
    )
    for b in batch_sizes:
        samples: Dict[int, List[float]] = {t: [] for t in thread_counts}
        for _ in range(rounds):
            if direction == "mixed":
                prep, mixed, restore = proto.mixed(b)
                rt.reset_clock()
                maintainer.apply_batch(prep)  # untimed staging
                timed, work = _timed_apply(maintainer, rt, mixed)
                rt.reset_clock()
                maintainer.apply_batch(restore)  # untimed restore
            else:
                deletion, insertion = proto.remove_reinsert(b)
                if direction == "delete":
                    timed, work = _timed_apply(maintainer, rt, deletion)
                    rt.reset_clock()
                    maintainer.apply_batch(insertion)  # untimed restore
                else:
                    rt.reset_clock()
                    maintainer.apply_batch(deletion)  # untimed staging
                    timed, work = _timed_apply(maintainer, rt, insertion)
            for t, secs in timed.items():
                samples[t].append(secs)
            result.work_units += work
        result.times[b] = {t: Stats.of(xs) for t, xs in samples.items()}
    rt.reset_clock()
    return result


def run_latency_vs_static(
    dataset: str,
    algorithm: str,
    *,
    batch_sizes: Sequence[int] = (1, 10, 100, 1000),
    rounds: int = 3,
    scale: float = 1.0,
    seed: int = 0,
    threads: int = 1,
    engine: str = "auto",
) -> ExperimentResult:
    """Maintenance latency against from-scratch recomputation.

    The returned result carries ``static_time`` -- the simulated cost of
    one full :func:`~repro.core.static.hhc_local` recompute on the same
    machine -- so callers can report the improvement factors of Section
    IV ("reaching over 10^4 x static computation ... on real-world graph
    instances" for the set family on small batches).
    """
    spec = _spec(dataset)
    thread_counts = tuple(sorted({1, threads}))
    result = run_scalability(
        dataset,
        algorithm,
        direction="insert",
        batch_sizes=batch_sizes,
        rounds=rounds,
        scale=scale,
        seed=seed,
        thread_counts=thread_counts,
        engine=engine,
    )
    sub = spec.load(scale, seed)
    rt = SimulatedRuntime(profile=spec.profile, thread_counts=thread_counts)
    rt.reset_clock()
    hhc_local(sub, rt)
    metrics = rt.take_metrics()
    result.static_time = {t: metrics.elapsed_seconds(t) for t in thread_counts}
    return result


@dataclass
class ResilienceResult:
    """Outcome of one supervised bursty-stream run."""

    dataset: str
    algorithm: str
    rounds: int
    batch_latency: Stats          #: simulated seconds per applied batch
    stats: Dict[str, int]         #: supervisor counters
    quarantined: List[str]        #: stringified quarantine reports
    final_verified: bool          #: post-stream full verify_kappa was clean

    def format(self) -> str:
        s = self.stats
        lines = [
            f"[{self.dataset}] {self.algorithm}: {self.rounds} bursty rounds "
            f"({s['batches']} batches)",
            f"  batch latency (simulated): {self.batch_latency}",
            f"  applied={s['applied']} retries={s['retries']} "
            f"quarantined={s['quarantined']}",
            f"  audits={s['audits']} audit_failures={s['audit_failures']} "
            f"heals={s['heals']}",
            f"  final full verification: {'clean' if self.final_verified else 'DIVERGED'}",
        ]
        lines.extend(f"  quarantine: {q}" for q in self.quarantined)
        return "\n".join(lines)


def run_resilient_stream(
    dataset: str,
    algorithm: str = "mod",
    *,
    rounds: int = 50,
    schedule=None,
    fault_plans: Sequence = (),
    max_retries: int = 1,
    audit_every: int = 10,
    audit_sample: Optional[int] = 32,
    final_audit: bool = True,
    scale: float = 0.5,
    seed: int = 0,
    threads: int = 16,
) -> ResilienceResult:
    """Play a bursty remove/reinsert stream through a supervised
    maintainer, optionally with injected faults, and report the
    resilience counters alongside batch latency.

    ``final_audit`` closes the stream with one full (unsampled) drift
    audit before the final verification -- the quiesce-then-serve
    pattern: any corruption that ordinary maintenance did not already
    incidentally repair is caught and healed here, so the run's last
    word is a verified state.
    """
    from repro.core.verify import verify_kappa
    from repro.graph.streams import BurstySchedule, BurstyStream
    from repro.resilience.faults import FaultInjector
    from repro.resilience.supervisor import ResilientMaintainer

    spec = _spec(dataset)
    sub = spec.load(scale, seed)
    rt = SimulatedRuntime(profile=spec.profile)
    rm = ResilientMaintainer(
        sub, algorithm, rt,
        max_retries=max_retries,
        audit_every=audit_every,
        audit_sample=audit_sample,
        seed=seed,
    )
    injector = FaultInjector(rm, fault_plans)
    stream = BurstyStream(sub, schedule or BurstySchedule(seed=seed), seed=seed + 1)

    latencies: List[float] = []
    for _, deletion, insertion in stream.rounds(rounds):
        for batch in (deletion, insertion):
            rt.reset_clock()
            report = injector.apply_batch(batch)
            if report.ok:
                latencies.append(rt.take_metrics().elapsed_seconds(threads))
    if final_audit:
        sample = rm.audit_sample
        rm.audit_sample = None
        rm.audit()
        rm.audit_sample = sample
    final_clean = verify_kappa(rm, raise_on_mismatch=False) == []
    return ResilienceResult(
        dataset=dataset,
        algorithm=algorithm,
        rounds=rounds,
        batch_latency=Stats.of(latencies),
        stats=dict(rm.stats),
        quarantined=[str(q) for q in rm.quarantine],
        final_verified=final_clean,
    )


@dataclass
class ReplicationResult:
    """Outcome of one replicated bursty-stream run."""

    dataset: str
    algorithm: str
    rounds: int
    n_replicas: int
    staleness_budget: int
    batch_latency: Stats          #: simulated seconds per applied batch
    lag_batches: Stats            #: max standby lag sampled after each batch
    reads: Dict[str, int]         #: reads served per endpoint
    replica_read_fraction: float  #: share of reads the standbys absorbed
    stats: Dict[str, int]         #: primary shipping counters
    failover: Optional[Dict] = None  #: promote-on-failure measurements
    final_verified: bool = False
    replicas_converged: bool = False

    def format(self) -> str:
        s = self.stats
        lines = [
            f"[{self.dataset}] {self.algorithm}: {self.rounds} bursty rounds "
            f"x {self.n_replicas} replicas (staleness budget "
            f"{self.staleness_budget})",
            f"  batch latency (simulated): {self.batch_latency}",
            "  replication lag (batches): "
            f"{self.lag_batches.format(unit=1.0)} "
            f"(max {self.lag_batches.maximum:.0f})",
            f"  shipments={s['shipments']} acks={s['acks']} naks={s['naks']} "
            f"retransmits={s['retransmits']} resyncs={s['resyncs']}",
            f"  reads: {self.reads} "
            f"(replica share {self.replica_read_fraction:.0%})",
        ]
        if self.failover:
            f = self.failover
            lines.append(
                f"  failover at batch {f['at_batch']}: promoted "
                f"replica-{f['promoted_replica']} term {f['term']}, "
                f"recovery {f['recovery_s'] * 1e3:.3f} ms simulated, "
                f"redriven batches {f['redriven_batches']}"
            )
        lines.append(
            "  final: "
            + ("verified clean" if self.final_verified else "DIVERGED")
            + (", all replicas converged" if self.replicas_converged else
               ", REPLICAS LAGGING")
        )
        return "\n".join(lines)


def run_replicated_stream(
    dataset: str,
    algorithm: str = "mod",
    *,
    rounds: int = 20,
    n_replicas: int = 2,
    staleness_budget: int = 0,
    reads_per_round: int = 4,
    fail_at: Optional[int] = None,
    fault_plans=None,
    checkpoint_every: int = 8,
    scale: float = 0.5,
    seed: int = 0,
    threads: int = 16,
    directory=None,
) -> ReplicationResult:
    """Play a bursty stream through a durable, replicated maintainer.

    Every applied batch is WAL-logged, shipped to ``n_replicas`` hot
    standbys over the simulated transport, and pumped to delivery; the
    sampled max standby lag is the replication-lag series.  Reads are
    routed through the bounded-staleness
    :class:`~repro.replication.replica_set.ReplicaSet` at
    ``staleness_budget``.  With ``fail_at`` set, the primary is killed
    (process-death model: the WAL handle is dropped unsynced) after that
    many batches, :func:`~repro.replication.primary.promote_on_failure`
    elects a standby, unreplicated batches are redriven from the client's
    buffer, and the stream finishes on the promoted primary; the
    simulated promote + catch-up time is reported.
    """
    import shutil as _shutil
    import tempfile as _tempfile
    from pathlib import Path as _Path

    from repro.core.maintainer import CoreMaintainer
    from repro.core.verify import verify_kappa
    from repro.graph.streams import BurstySchedule, BurstyStream
    from repro.replication.primary import promote_on_failure

    spec = _spec(dataset)
    sub = spec.load(scale, seed)
    rt = SimulatedRuntime(profile=spec.profile)
    owned = directory is None
    root = _Path(_tempfile.mkdtemp(prefix="repro-repl-")) if owned else _Path(directory)
    try:
        m = CoreMaintainer(
            sub, algorithm, rt,
            durable=root / "primary",
            durability={"checkpoint_every": checkpoint_every},
            replicas=n_replicas,
            replication={"fault_plans": fault_plans} if fault_plans else {},
        )
        primary = m.impl  # the ReplicatedMaintainer
        stream = BurstyStream(sub, BurstySchedule(seed=seed), seed=seed + 1)

        latencies: List[float] = []
        lags: List[int] = []
        applied_batches: List = []  # client-side redrive buffer
        failover: Optional[Dict] = None
        batches_done = 0
        for _, deletion, insertion in stream.rounds(rounds):
            for batch in (deletion, insertion):
                rt.reset_clock()
                primary.apply_batch(batch)
                latencies.append(rt.take_metrics().elapsed_seconds(threads))
                applied_batches.append(batch)
                lags.append(primary.max_lag())
                batches_done += 1
                if fail_at is not None and failover is None and batches_done >= fail_at:
                    replicas = primary.replicas
                    pre_failover_reads = dict(primary.replica_set.reads)
                    fh = primary.impl.wal._fh  # process death: drop, no sync
                    if fh is not None:
                        fh.close()
                    t0 = primary.clock.now()
                    promoted = promote_on_failure(replicas)
                    recovery_s = promoted.clock.now() - t0
                    redriven = applied_batches[promoted.committed_seqno:]
                    for rb in redriven:
                        promoted.apply_batch(rb)
                    failover = {
                        "at_batch": batches_done,
                        "promoted_replica": promoted.promoted_from,
                        "term": promoted.term,
                        "recovery_s": recovery_s,
                        "redriven_batches": len(redriven),
                    }
                    primary = promoted
            rs = primary.replica_set
            if primary.tau:
                probe = next(iter(primary.tau))
                for _ in range(reads_per_round):
                    rs.kappa_of(probe, max_staleness=staleness_budget)
        primary.sync_replicas()
        converged = primary.converged and all(
            r.kappa() == primary.kappa() for r in primary.replicas
        )
        final_clean = verify_kappa(primary, raise_on_mismatch=False) == []
        rs = primary.replica_set
        reads = dict(rs.reads)
        if failover is not None:
            for label, count in pre_failover_reads.items():
                reads[label] = reads.get(label, 0) + count
        total_reads = sum(reads.values())
        result = ReplicationResult(
            dataset=dataset,
            algorithm=algorithm,
            rounds=rounds,
            n_replicas=n_replicas,
            staleness_budget=staleness_budget,
            batch_latency=Stats.of(latencies),
            lag_batches=Stats.of([float(x) for x in lags]),
            reads=reads,
            replica_read_fraction=(
                1.0 - reads.get("primary", 0) / total_reads if total_reads else 0.0
            ),
            stats=dict(primary.stats),
            failover=failover,
            final_verified=final_clean,
            replicas_converged=converged,
        )
        primary.close(final_checkpoint=False, sync=False)
        return result
    finally:
        if owned:
            _shutil.rmtree(root, ignore_errors=True)


@dataclass
class ServeResult:
    """Outcome of one served bursty-stream run."""

    dataset: str
    algorithm: str
    engine: str
    rounds: int
    offered_changes: int
    admission: Dict[str, int]     #: submit decisions by status
    coalesced: Dict[str, int]     #: queue counters (enqueued/annihilated/...)
    dropped_rounds: int           #: rounds whose deletion half was refused
    queue_depth: Stats            #: depth sampled at every admission decision
    max_queue_depth: int
    #: largest accepted group -- ``max_queue_depth`` is bounded by
    #: ``defer_at + max_group`` by construction (accept checks the
    #: pre-enqueue depth)
    max_group: int
    query_latency: Stats          #: simulated seconds per served query
    latency_p50: float
    latency_p99: float
    staleness: Stats              #: committed batches behind, per query
    statuses: Dict[str, int]      #: query results by fresh / stale / timeout
    health_transitions: List[Tuple[str, str]]
    final_health: str
    failed_batches: int
    events: int                   #: subscription events fired
    view_consistent: bool         #: final published view == engine tau
    final_verified: bool

    def format(self) -> str:
        a, s = self.admission, self.statuses
        total = sum(s.values())
        lines = [
            f"[{self.dataset}] {self.algorithm}/{self.engine}: "
            f"{self.rounds} served bursty rounds, "
            f"{self.offered_changes} changes offered",
            f"  admission: accepted={a.get('accepted', 0)} "
            f"deferred={a.get('deferred', 0)} shed={a.get('shed', 0)} "
            f"(dropped rounds {self.dropped_rounds}); "
            f"coalesced away {self.coalesced.get('annihilated', 0)} "
            f"+ {self.coalesced.get('duplicates', 0)} dup",
            f"  queue depth: {self.queue_depth.format(unit=1.0, digits=1)} "
            f"(max {self.max_queue_depth})",
            f"  query latency (simulated): {self.query_latency} "
            f"p50={self.latency_p50 * 1e3:.3f}ms "
            f"p99={self.latency_p99 * 1e3:.3f}ms",
            f"  staleness (batches): "
            f"{self.staleness.format(unit=1.0, digits=2)} "
            f"(max {self.staleness.maximum:.0f})",
            f"  statuses: fresh={s.get('fresh', 0)}/{total} "
            f"stale={s.get('stale', 0)} timeout={s.get('timeout', 0)}; "
            f"health={self.final_health} "
            f"({len(self.health_transitions)} transitions, "
            f"{self.failed_batches} failed batches); "
            f"events={self.events}",
            "  final: "
            + ("view consistent" if self.view_consistent else "VIEW DIVERGED")
            + (", verified clean" if self.final_verified else ", TAU DIVERGED"),
        ]
        return "\n".join(lines)


def run_served_stream(
    dataset: str,
    algorithm: str = "mod",
    *,
    rounds: int = 30,
    queries_per_round: int = 8,
    deadline_s: Optional[float] = 0.05,
    batch_cost_s: float = 0.002,
    max_batch: int = 64,
    pump_batches_per_round: Optional[int] = None,
    defer_at: int = 256,
    shed_at: int = 1024,
    subscribe_threshold: Optional[int] = 2,
    scale: float = 0.5,
    seed: int = 0,
    engine: str = "dict",
    rt=None,
) -> ServeResult:
    """Play a bursty stream through a :class:`~repro.serve.server
    .CoreServer` and report the serving contract's measurements.

    Each round offers the deletion half then the reinsertion half to
    admission; a refused deletion drops the whole round (the client must
    not reinsert edges it never removed), which is how overload shows up
    as bounded shedding rather than corrupted state.  Maintenance is
    pumped ``pump_batches_per_round`` batches per round (``None`` =
    whatever the deadline-bounded fresh reads pull in, then a full
    drain) -- small values simulate an engine slower than the offered
    load, driving the health machine through DEGRADED/SHEDDING.

    Time is a :class:`~repro.resilience.backoff.ManualClock` advanced
    only by ``batch_cost_s`` per pumped batch, so latencies, deadline
    hits, and the staleness distribution are exactly reproducible.
    """
    import random as _random

    from repro.core.verify import verify_kappa
    from repro.graph.streams import BurstySchedule, BurstyStream
    from repro.resilience.backoff import ManualClock
    from repro.serve.server import CoreServer

    spec = _spec(dataset)
    sub = spec.load(scale, seed)
    if engine == "array":
        sub = wrap_substrate(sub, "array")
    # rt= plumbs a real runtime (e.g. ThreadRuntime) under the server's
    # maintenance pump; None keeps the serial default
    m = make_maintainer(sub, algorithm, rt, engine=engine)
    clock = ManualClock()
    server = CoreServer(
        m, clock=clock, max_batch=max_batch, defer_at=defer_at,
        shed_at=shed_at, batch_cost_s=batch_cost_s,
    )
    handle = (server.subscribe(subscribe_threshold)
              if subscribe_threshold is not None else None)
    stream = BurstyStream(sub, BurstySchedule(seed=seed), seed=seed + 1)
    rng = _random.Random(seed + 2)
    probes = sorted(m.tau)

    admission: Dict[str, int] = {}
    statuses: Dict[str, int] = {}
    depths: List[float] = []
    latencies: List[float] = []
    staleness: List[float] = []
    offered = dropped_rounds = max_group = 0

    def _note(decision, size) -> None:
        nonlocal max_group
        admission[decision.status] = admission.get(decision.status, 0) + 1
        depths.append(float(decision.queue_depth))
        if decision.accepted:
            max_group = max(max_group, size)

    def _record(qr) -> None:
        statuses[qr.status] = statuses.get(qr.status, 0) + 1
        latencies.append(qr.latency_s)
        staleness.append(float(qr.staleness))

    for _, deletion, insertion in stream.rounds(rounds):
        offered += len(list(deletion)) + len(list(insertion))
        changes = list(deletion)
        decision = server.submit(changes)
        _note(decision, len(changes))
        if decision.accepted:
            if pump_batches_per_round is None:
                # keep-up mode: apply the removals before offering the
                # reinsertions, else the queue coalesces the round away
                server.pump()
            changes = list(insertion)
            decision = server.submit(changes)
            _note(decision, len(changes))
        else:
            dropped_rounds += 1
        if pump_batches_per_round is not None:
            # slow-engine mode: bounded maintenance; opposing halves
            # still in the queue annihilate, which is load shed for free
            server.pump(max_batches=pump_batches_per_round)
        for _ in range(queries_per_round):
            _record(server.core(rng.choice(probes), deadline=deadline_s))
        _record(server.vertices_with_core_at_least(2, deadline=deadline_s))

    report = server.pump()   # quiesce: drain whatever admission let through
    view = server.view()
    view_consistent = view.kappa() == dict(m.tau)
    final_clean = verify_kappa(m, raise_on_mismatch=False) == []
    return ServeResult(
        dataset=dataset,
        algorithm=algorithm,
        engine=engine,
        rounds=rounds,
        offered_changes=offered,
        admission=admission,
        coalesced=dict(server.queue.stats),
        dropped_rounds=dropped_rounds,
        queue_depth=Stats.of(depths) if depths else Stats.of([0.0]),
        max_queue_depth=int(max(depths)) if depths else 0,
        max_group=max_group,
        query_latency=Stats.of(latencies),
        latency_p50=_percentile(latencies, 0.50),
        latency_p99=_percentile(latencies, 0.99),
        staleness=Stats.of(staleness),
        statuses=statuses,
        health_transitions=list(server.health.transitions),
        final_health=report.health,
        failed_batches=server.stats["failed_batches"],
        events=len(handle.events) if handle is not None else 0,
        view_consistent=view_consistent,
        final_verified=final_clean,
    )
