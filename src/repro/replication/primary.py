"""The replicating primary: ship WAL suffixes, track acks, fail over.

:class:`ReplicatedMaintainer` wraps a
:class:`~repro.resilience.durability.durable.DurableMaintainer` (it
ships *from the primary's own WAL*, so replication can never outrun
durability) and keeps N hot standbys converging on the primary's
committed state:

* after every applied batch the new committed WAL suffix is read back
  through the log's seqno index (it parses only that suffix), encoded
  in wire format and shipped down each replica's
  :class:`~repro.replication.link.ReplicationLink`, stamped with the
  fingerprint of the primary's running tau digest;
* acknowledgements advance a per-replica *cursor* (the replica's
  confirmed ``applied_seqno``); NAKs -- gap, torn shipment, stale term
  -- reset the send window and pace the retransmit with the shared
  :class:`~repro.resilience.backoff.ExponentialBackoff`;
* an unacknowledged window is retransmitted after an ack timeout, which
  is what heals dropped shipments without any replica-side timer;
* a replica whose cursor falls below the WAL's prune horizon has been
  *lapped* and is resynced wholesale: newest checkpoint image + WAL
  suffix, replayed through the standard recovery path
  (:meth:`~repro.replication.replica.Replica.bootstrap`);
* every shipment is stamped with the primary's **term**; a
  ``stale-term`` NAK from any replica raises :class:`StaleTermError` --
  the primary has been deposed and must stop.

Time is the injected clock's (simulated by default): ``apply_batch``
ships and then *pumps* -- advances time one bounded step and processes
arrivals -- so under the default cost model a standby's watermark stays
within one batch of the primary, and the whole timeline is
deterministic.

Failover: :func:`primary_suspected` implements quorum heartbeat-timeout
detection over the standbys, and :func:`promote_on_failure` elects the
standby with the highest applied watermark, wraps its live state in a
new :class:`DurableMaintainer` over its own directory (no replay
needed: a hot standby's memory *is* recovered state), bumps the term,
and re-attaches the surviving replicas to the new primary -- which
fences the old one.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Union

from repro.distributed.cluster import ClusterSpec
from repro.replication.link import ReplicationLink
from repro.replication.replica import Replica
from repro.replication.shipment import (
    Ack,
    Nak,
    ReplicationDivergence,
    Shipment,
    StaleTermError,
    TauDigest,
    tau_fingerprint,
)
from repro.resilience.backoff import ExponentialBackoff, ManualClock
from repro.resilience.durability.errors import DurabilityError
from repro.resilience.durability.recovery import (
    checkpoint_seqno,
    list_checkpoints,
)
from repro.resilience.durability.wal import encode_batch

__all__ = ["ReplicatedMaintainer", "promote_on_failure", "primary_suspected"]

Vertex = Hashable


@dataclass
class _Handle:
    """Per-replica send state on the primary."""

    replica: Replica
    link: ReplicationLink
    #: replica's last *acknowledged* applied watermark
    cursor: int = 0
    #: one past the highest position already put on the wire
    shipped_upto: int = 0
    #: ack timeout of the outstanding window (None = nothing outstanding)
    deadline: Optional[float] = None
    #: NAK backoff: no sends to this replica before this time
    backoff_until: Optional[float] = None
    attempts: int = 0
    #: the next stamped shipment carries a full-recompute audit
    audit_due: bool = False


def _fresh_stats():
    return {
        "shipments": 0, "heartbeats": 0, "acks": 0, "naks": 0,
        "retransmits": 0, "resyncs": 0, "hash_stamps": 0,
    }


class ReplicatedMaintainer:
    """Primary facade: durable apply + WAL shipping to hot standbys.

    Parameters
    ----------
    impl:
        A :class:`DurableMaintainer` (anything exposing ``wal`` /
        ``directory`` / ``wal_seqno``); replication ships from its log.
    replicas:
        Either a count (fresh standbys are created under
        ``directory_root`` and bootstrapped from the current state) or a
        sequence of existing :class:`Replica` objects (the promote path:
        live ones are fenced to this primary's term and resume from
        their own watermarks).
    directory_root:
        Where counted replicas live (default
        ``<impl.directory>/replicas/replica-<i>``).
    spec:
        Transport cost model shared by every link.
    clock:
        Replication clock; a fresh deterministic
        :class:`~repro.resilience.backoff.ManualClock` by default.
    term:
        This primary's fencing term (elections pass ``max(term)+1``).
    fault_plans:
        Transport chaos: either ``{replica_id: [FaultPlan, ...]}`` or a
        flat sequence applied to replica 0's link.
    backoff:
        Retransmit pacing (``None``/policy/``"default"``); the default is
        scaled to the link's base latency so simulated time stays small.
    heartbeat_every:
        Ship a heartbeat every N applied batches (0 = only explicit
        :meth:`heartbeat` calls).
    divergence_every:
        Stamp the primary's tau fingerprint on every Nth records
        shipment (1 = all, 0 = never).  A replica reaching the same
        watermark with a different fingerprint raises
        :class:`~repro.replication.shipment.ReplicationDivergence`.
        Stamps read running digests
        (:class:`~repro.replication.shipment.TauDigest`) on both sides;
        the first stamp to each standby after a primary checkpoint is an
        audit, recomputed in full on both sides.
        Safe to combine with a resilient inner layer: a batch that
        quarantines after being WAL-logged is retracted by an abort
        record, so standbys skip it exactly as the primary's memory did
        and the fingerprints agree.
    auto_pump:
        Pump the transport after every applied batch (default).  With a
        manual clock and no faults this keeps every standby within one
        batch of the primary; disable for explicit pump control.
    pump_step:
        Upper bound on simulated time advanced per pump round.  The
        default (``None``) adapts to the costliest in-flight shipment,
        so one round always covers an undisturbed delivery while
        reorder/delay holds still span rounds.
    ack_timeout_costs:
        Retransmit an unacked window after this many multiples of the
        shipment's own delivery cost.
    max_drain_rounds:
        :meth:`sync_replicas` raises :class:`DurabilityError` after this
        many rounds without convergence (a fault schedule that eats every
        retransmit is a dead transport, not lag).
    replica_options:
        Forwarded to created :class:`Replica` objects (``engine`` /
        ``algorithm`` / ``rt`` / ``checkpoint_every`` / ``sync_policy``).
    """

    def __init__(
        self,
        impl,
        *,
        replicas: Union[int, Sequence[Replica]] = 2,
        directory_root=None,
        spec: Optional[ClusterSpec] = None,
        clock=None,
        term: int = 1,
        fault_plans=None,
        backoff="default",
        heartbeat_every: int = 0,
        divergence_every: int = 1,
        auto_pump: bool = True,
        pump_step: Optional[float] = None,
        ack_timeout_costs: float = 4.0,
        max_drain_rounds: int = 1000,
        replica_options: Optional[Dict] = None,
    ) -> None:
        if getattr(impl, "wal", None) is None:
            raise ValueError(
                "ReplicatedMaintainer needs a durable impl (a DurableMaintainer "
                "with a WAL) to ship from"
            )
        self.impl = impl
        self.spec = spec if spec is not None else ClusterSpec()
        self.clock = clock if clock is not None else ManualClock()
        self.term = int(term)
        self.heartbeat_every = heartbeat_every
        self.divergence_every = divergence_every
        self.auto_pump = auto_pump
        #: None = adaptive (sized per round to the costliest in-flight
        #: shipment, so an undisturbed delivery lands within one round)
        self.pump_step = pump_step
        self.ack_timeout_costs = ack_timeout_costs
        self.max_drain_rounds = max_drain_rounds
        base = self.spec.shipment_cost_s(0)
        self.backoff = ExponentialBackoff.coerce(backoff)
        if backoff == "default":
            # scale the standard policy to the link: waits measured in
            # deliveries, not wall-clock seconds
            self.backoff = ExponentialBackoff(
                initial=2 * base, factor=2.0, max_delay=50 * base, jitter=0.25
            )
        if self.backoff is None:
            self.backoff = ExponentialBackoff(
                initial=0.0, factor=1.0, max_delay=0.0, jitter=0.0
            )
        self.stats: Dict[str, int] = _fresh_stats()
        #: replica_id of the standby this primary was promoted from
        self.promoted_from: Optional[int] = None
        self._batches = 0
        self._ship_counter = 0
        #: running fingerprint of the primary's tau, attached to its
        #: algorithm instance at the first stamp
        self._digest = TauDigest()
        self._checkpoints_seen = impl.durability_stats["checkpoints"]
        self._replica_set = None
        self._handles: List[_Handle] = []
        plan_map = self._plan_map(fault_plans)
        for replica in self._build_replicas(replicas, directory_root, replica_options):
            replica.clock = self.clock
            link = ReplicationLink(
                self.clock,
                spec=self.spec,
                plans=plan_map.get(replica.replica_id, ()),
                name=f"->replica-{replica.replica_id}",
            )
            h = _Handle(replica=replica, link=link)
            if replica.live:
                self._fence(h)
            else:
                self._resync(h)
                self.stats["resyncs"] -= 1  # the initial bootstrap is not a resync
            self._handles.append(h)

    # -- construction helpers --------------------------------------------------
    @staticmethod
    def _plan_map(fault_plans) -> Mapping[int, Sequence]:
        if not fault_plans:
            return {}
        if isinstance(fault_plans, Mapping):
            return dict(fault_plans)
        return {0: list(fault_plans)}

    def _inner_algorithm(self):
        m = self.impl
        seen = 0
        while hasattr(m, "impl") and seen < 4:
            m = m.impl
            seen += 1
        return m

    def _build_replicas(self, replicas, directory_root, replica_options):
        if not isinstance(replicas, int):
            return list(replicas)
        if replicas < 1:
            raise ValueError("need at least one replica")
        root = (
            Path(directory_root)
            if directory_root is not None
            else self.impl.directory / "replicas"
        )
        opts = dict(replica_options or {})
        inner = self._inner_algorithm()
        opts.setdefault("engine", getattr(inner, "engine", "auto"))
        return [
            Replica(i, root / f"replica-{i}", **opts) for i in range(replicas)
        ]

    def _fence(self, h: _Handle) -> None:
        """Control-channel handshake with an already-live replica: adopt
        it at its own watermark and stamp it with this primary's term."""
        committed = self.committed_seqno
        resp = h.replica.receive(
            Shipment(
                "heartbeat",
                term=self.term,
                start_seqno=committed,
                end_seqno=committed,
                committed_seqno=committed,
            )
        )
        if isinstance(resp, Nak):  # its term is newer: *we* are stale
            raise StaleTermError(
                f"cannot adopt replica {h.replica.replica_id}: it is on term "
                f"{resp.term} > {self.term}",
                self.impl.directory,
            )
        h.cursor = h.shipped_upto = h.replica.applied_seqno

    # -- maintainer protocol ---------------------------------------------------
    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self.impl, name)

    @property
    def committed_seqno(self) -> int:
        """The primary's committed watermark (next WAL position)."""
        return self.impl.wal_seqno

    @property
    def replicas(self) -> List[Replica]:
        return [h.replica for h in self._handles]

    @property
    def links(self) -> List[ReplicationLink]:
        return [h.link for h in self._handles]

    @property
    def replica_set(self):
        from repro.replication.replica_set import ReplicaSet

        if self._replica_set is None:
            self._replica_set = ReplicaSet(self)
        return self._replica_set

    @property
    def converged(self) -> bool:
        """True when every standby has acknowledged the full log."""
        committed = self.committed_seqno
        return all(h.cursor >= committed for h in self._handles)

    def lag_of(self, replica_id: int) -> int:
        for h in self._handles:
            if h.replica.replica_id == replica_id:
                return max(0, self.committed_seqno - h.replica.applied_seqno)
        raise KeyError(replica_id)

    def max_lag(self) -> int:
        return max(
            (max(0, self.committed_seqno - h.replica.applied_seqno)
             for h in self._handles),
            default=0,
        )

    def apply_batch(self, batch):
        """Durable apply, then ship the new committed suffix and pump the
        transport one step.  A simulated ``kill -9`` inside the durable
        apply propagates before anything is shipped -- asynchronous
        replication never acknowledges what the primary has not logged."""
        result = self.impl.apply_batch(batch)
        self._batches += 1
        if self.heartbeat_every and self._batches % self.heartbeat_every == 0:
            self.heartbeat()
        self._replicate()
        if self.auto_pump:
            self.pump()
        return result

    def apply_change(self, change):
        from repro.graph.batch import Batch

        return self.apply_batch(Batch([change]))

    # -- the shipping loop -----------------------------------------------------
    def _replicate(self) -> None:
        checkpoints = self.impl.durability_stats["checkpoints"]
        if checkpoints != self._checkpoints_seen:
            # the first stamp to each standby after a checkpoint audits
            self._checkpoints_seen = checkpoints
            for h in self._handles:
                h.audit_due = True
        for h in self._handles:
            self._ship_to(h)

    def _ship_to(self, h: _Handle) -> None:
        committed = self.committed_seqno
        if h.cursor >= committed:
            h.deadline = None
            h.backoff_until = None
            h.attempts = 0
            return
        if h.cursor < self.impl.wal.horizon():
            self._resync(h)  # lapped: the suffix it needs is pruned away
            return
        now = self.clock.now()
        if h.backoff_until is not None:
            if now < h.backoff_until:
                return
            h.backoff_until = None
            self.stats["retransmits"] += 1
            self._send(h, h.cursor)
            return
        if h.deadline is not None and now >= h.deadline:
            h.attempts += 1
            self.stats["retransmits"] += 1
            self._send(h, h.cursor)
            return
        if h.shipped_upto < committed:
            self._send(h, h.shipped_upto)

    def _send(self, h: _Handle, start: int) -> None:
        committed = self.committed_seqno
        try:
            batches = list(self.impl.wal.read_from(start))
        except DurabilityError:
            self._resync(h)
            return
        parts = []
        items = 0
        for seqno, changes in batches:
            parts.append(encode_batch(seqno, changes))
            items += len(changes) + 1
        tau_hash = None
        audit = False
        self._ship_counter += 1
        if self.divergence_every and self._ship_counter % self.divergence_every == 0:
            audit, h.audit_due = h.audit_due, False
            tau_hash = self._stamp(audit)
            self.stats["hash_stamps"] += 1
        shipment = Shipment(
            "records",
            term=self.term,
            start_seqno=start,
            end_seqno=committed,
            payload=b"".join(parts),
            items=items,
            tau_hash=tau_hash,
            committed_seqno=committed,
            audit=audit,
        )
        h.link.ship(shipment)
        self.stats["shipments"] += 1
        h.shipped_upto = committed
        h.deadline = (
            self.clock.now()
            + self.ack_timeout_costs * h.link.base_cost_s(items)
            + self.backoff.delay(min(h.attempts, 10), key=h.replica.replica_id)
        )

    def _stamp(self, audit: bool) -> int:
        """The primary's fingerprint, read off its running digest.  An
        audit also recomputes it in full: a mismatch means a tau write
        behind the delta path, which raises rather than ships."""
        inner = self._inner_algorithm()
        value = self._digest.read(inner)
        if audit:
            full = tau_fingerprint(inner.tau)
            if full != value:
                raise ReplicationDivergence(
                    f"primary tau was written behind its delta path: "
                    f"fingerprint {full:#x} != running digest {value:#x} "
                    f"at watermark {self.committed_seqno}",
                    self.impl.directory,
                )
        return value

    def _resync(self, h: _Handle) -> None:
        cp_bytes, base, wal_bytes = self._bootstrap_payload()
        h.replica.bootstrap(cp_bytes, base, wal_bytes, term=self.term)
        h.cursor = h.shipped_upto = h.replica.applied_seqno
        h.deadline = None
        h.backoff_until = None
        h.attempts = 0
        self.stats["resyncs"] += 1

    def _bootstrap_payload(self):
        """Newest checkpoint image + committed WAL suffix, as raw bytes
        (the resync path the ISSUE calls 'bootstrap from newest
        checkpoint + WAL suffix')."""
        checkpoints = list_checkpoints(self.impl.directory)
        if not checkpoints:
            raise DurabilityError(
                "primary has no checkpoint to bootstrap a replica from",
                self.impl.directory,
            )
        cp_path = checkpoints[-1]
        base = checkpoint_seqno(cp_path)
        parts = [
            encode_batch(seqno, changes)
            for seqno, changes in self.impl.wal.read_from(base)
        ]
        return cp_path.read_bytes(), base, b"".join(parts)

    # -- heartbeats ------------------------------------------------------------
    def heartbeat(self) -> None:
        """Ship a liveness + watermark beacon down every link."""
        committed = self.committed_seqno
        for h in self._handles:
            h.link.ship(
                Shipment(
                    "heartbeat",
                    term=self.term,
                    start_seqno=committed,
                    end_seqno=committed,
                    committed_seqno=committed,
                )
            )
            self.stats["heartbeats"] += 1

    # -- pumping the transport ---------------------------------------------------
    def _advance_to(self, t: float) -> None:
        now = self.clock.now()
        if t > now:
            self.clock.sleep(t - now)

    def _deliver_due(self) -> int:
        delivered = 0
        for h in self._handles:
            for shipment in h.link.poll():
                self._receive(h, shipment)
                delivered += 1
        return delivered

    def _receive(self, h: _Handle, resp_source: Shipment) -> None:
        resp = h.replica.receive(resp_source)
        if isinstance(resp, Ack):
            self.stats["acks"] += 1
            h.cursor = max(h.cursor, resp.applied_seqno)
            if resp.applied_seqno >= h.shipped_upto:
                h.deadline = None
                h.backoff_until = None
                h.attempts = 0
            return
        self.stats["naks"] += 1
        if resp.reason == "stale-term":
            raise StaleTermError(
                f"deposed: replica {resp.replica_id} is on term {resp.term} "
                f"> {self.term}; this primary's shipments are fenced",
                self.impl.directory,
            )
        # gap or torn: the replica's watermark is authoritative -- back
        # the window up to it and wait out the backoff before resending
        h.cursor = max(h.cursor, resp.applied_seqno)
        h.shipped_upto = h.cursor
        h.attempts += 1
        h.deadline = None
        h.backoff_until = self.clock.now() + self.backoff.delay(
            min(h.attempts - 1, 10), key=h.replica.replica_id
        )

    def _round_step(self) -> float:
        if self.pump_step is not None:
            return self.pump_step
        step = self.spec.shipment_cost_s(64)
        for h in self._handles:
            cost = h.link.max_inflight_cost_s()
            if cost is not None:
                step = max(step, cost)
        return step

    def pump(self, steps: int = 1) -> int:
        """Advance simulated time up to ``steps`` bounded rounds,
        delivering due shipments and firing due retransmits.  Returns
        the number of shipments processed."""
        delivered = 0
        committed = self.committed_seqno
        for _ in range(steps):
            events = [
                t for h in self._handles
                for t in (
                    h.link.next_delivery_at(),
                    h.backoff_until if h.cursor < committed else None,
                    h.deadline if h.cursor < committed else None,
                )
                if t is not None
            ]
            if not events:
                break
            self._advance_to(
                min(min(events), self.clock.now() + self._round_step())
            )
            delivered += self._deliver_due()
            self._replicate()
        return delivered

    def sync_replicas(self, max_rounds: Optional[int] = None) -> int:
        """Pump until every standby acknowledges the full committed log.
        Returns the rounds taken; raises :class:`DurabilityError` when
        the transport cannot converge within the round budget."""
        cap = max_rounds if max_rounds is not None else self.max_drain_rounds
        rounds = 0
        self._replicate()
        while not self.converged:
            rounds += 1
            if rounds > cap:
                raise DurabilityError(
                    f"replication failed to converge after {cap} rounds "
                    f"(max lag {self.max_lag()} batches)",
                    self.impl.directory,
                )
            if self.pump(1) == 0 and not self.converged:
                # nothing scheduled yet we are behind: force a retransmit
                now = self.clock.now()
                for h in self._handles:
                    if h.cursor < self.committed_seqno:
                        h.backoff_until = None
                        h.deadline = now
                self._replicate()
        return rounds

    # -- lifecycle ---------------------------------------------------------------
    def checkpoint(self):
        return self.impl.checkpoint()

    def close(self, *, final_checkpoint: bool = True, sync: bool = True) -> None:
        if sync:
            self.sync_replicas()
        self.impl.close(final_checkpoint=final_checkpoint)
        for h in self._handles:
            h.replica.close()

    def __repr__(self) -> str:
        return (
            f"ReplicatedMaintainer(term={self.term}, "
            f"committed={self.committed_seqno}, replicas={len(self._handles)}, "
            f"max_lag={self.max_lag()})"
        )


# ---------------------------------------------------------------------------
# failure detection and promotion
# ---------------------------------------------------------------------------
def primary_suspected(replicas: Sequence[Replica], timeout: float) -> bool:
    """Quorum heartbeat-timeout detection: true when a majority of live
    standbys have heard nothing from the primary for ``timeout`` seconds
    of the shared clock."""
    live = [r for r in replicas if r.live]
    if not live:
        return False
    suspecting = sum(1 for r in live if r.suspects_primary(timeout))
    return 2 * suspecting > len(live)


def promote_on_failure(
    replicas: Sequence[Replica],
    *,
    spec: Optional[ClusterSpec] = None,
    clock=None,
    backoff="default",
    fault_plans=None,
    durability: Optional[Dict] = None,
    heartbeat_every: int = 0,
    divergence_every: int = 1,
    auto_pump: bool = True,
    sync: bool = True,
    **replicated_options,
) -> ReplicatedMaintainer:
    """Elect and promote a standby after the primary died.

    The standby with the **highest applied watermark** wins (ties break
    to the lowest id); its live in-memory state is wrapped in a fresh
    :class:`~repro.resilience.durability.durable.DurableMaintainer` over
    its own directory -- a hot standby needs no replay; its memory *is*
    the recovered state, and the new baseline checkpoint seals it.  The
    new primary's term is ``max(term seen by any standby) + 1``, so the
    dead primary's stragglers are fenced the moment they touch any
    surviving replica.  The survivors are re-attached as standbys of the
    new primary and (by default) synced to its log before this returns.

    ``durability`` is forwarded to the new primary's durable facade;
    everything else configures the new :class:`ReplicatedMaintainer`.
    """
    from repro.resilience.durability.durable import DurableMaintainer

    candidates = [r for r in replicas if r.live]
    if not candidates:
        raise DurabilityError("no live replica to promote", None)
    winner = max(candidates, key=lambda r: (r.applied_seqno, -r.replica_id))
    new_term = max(r.term for r in replicas) + 1
    # hand the winner's directory over to the durable facade: close its
    # replication-fed WAL, then continue appending at its watermark
    winner.wal.close()
    winner.wal = None
    # the winner now *owns* the new term: a deposed primary that keeps
    # shipping old-term records to it is fenced, not applied
    winner.term = new_term
    opts = dict(durability or {})
    opts.setdefault("start_seqno", winner.applied_seqno)
    durable = DurableMaintainer(winner.maintainer, winner.directory, **opts)
    survivors = [r for r in candidates if r is not winner]
    promoted = ReplicatedMaintainer(
        durable,
        replicas=survivors,
        spec=spec,
        clock=clock if clock is not None else winner.clock,
        term=new_term,
        fault_plans=fault_plans,
        backoff=backoff,
        heartbeat_every=heartbeat_every,
        divergence_every=divergence_every,
        auto_pump=auto_pump,
        **replicated_options,
    )
    promoted.promoted_from = winner.replica_id
    if sync and survivors:
        promoted.sync_replicas()
    return promoted
