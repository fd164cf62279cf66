"""A hot standby: bootstrap from checkpoint, replay shipped WAL records.

A :class:`Replica` owns its own durable directory -- its own copy of the
checkpoint and its own WAL, fed exclusively by shipments.  It is "hot"
because every shipped batch is applied to a live maintainer immediately,
so the replica can serve ``kappa`` / ``kappa_of`` reads at its
``applied_seqno`` watermark at any moment, and a promotion needs no
replay at all -- the standby's in-memory state *is* the recovered state.

Lifecycle
---------
``bootstrap``
    Receive a checkpoint image plus the committed WAL suffix (raw wire
    bytes), write both into the replica directory, and rebuild the live
    maintainer through the **same**
    :class:`~repro.resilience.durability.recovery.RecoveryManager` path a
    crashed primary uses -- replication reuses recovery's idempotent
    committed-suffix replay rather than reimplementing it.  Bootstrap is
    also the *resync* path when the replica has been lapped by the
    primary's WAL pruning.
``receive``
    Handle one :class:`~repro.replication.shipment.Shipment`: fence
    stale terms, NAK gaps and torn payloads, append + apply the new
    batches (idempotently skipping anything already applied), advance the
    ``applied_seqno`` watermark over the covered position range, verify
    the primary's tau fingerprint at the commit watermark (against a
    running digest, or a full recompute when the shipment is a
    checkpoint audit), and answer with an
    :class:`~repro.replication.shipment.Ack`.

Failure detection is clock-based: every delivered shipment (heartbeats
included) refreshes ``last_contact_at``; :meth:`suspects_primary` says
whether the primary has been silent longer than a timeout.
"""

from __future__ import annotations

import shutil
from pathlib import Path
from typing import Dict, Hashable, Optional

from repro.graph.batch import Batch
from repro.replication.shipment import (
    Ack,
    Nak,
    ReplicationDivergence,
    Shipment,
    TauDigest,
    tau_fingerprint,
)
from repro.resilience.checkpoint import take_checkpoint
from repro.resilience.durability.errors import DurabilityError
from repro.resilience.durability.recovery import (
    RecoveryManager,
    checkpoint_path,
    checkpoint_seqno,
    list_checkpoints,
)
from repro.resilience.durability.wal import WriteAheadLog, decode_payload

__all__ = ["Replica"]

Vertex = Hashable


def _fresh_stats():
    return {
        "received": 0, "batches_applied": 0, "heartbeats": 0, "fenced": 0,
        "gaps": 0, "torn": 0, "hash_checks": 0, "bootstraps": 0,
        "checkpoints": 0,
    }


class Replica:
    """One hot standby over its own durable directory.

    Parameters
    ----------
    replica_id:
        Stable identity (election tie-break, stats, routing).
    directory:
        The replica's private checkpoint + WAL directory.
    algorithm, engine, rt:
        How to rebuild the live maintainer on bootstrap (same options as
        :class:`~repro.resilience.durability.recovery.RecoveryManager`).
    checkpoint_every:
        Take a local checkpoint (and prune the local WAL) every N applied
        batches, so the replica's own directory stays recoverable and
        bounded (0 disables).
    sync_policy:
        Local WAL sync policy (``"batch"`` default).
    """

    def __init__(
        self,
        replica_id: int,
        directory,
        *,
        algorithm: Optional[str] = None,
        engine: str = "auto",
        rt=None,
        checkpoint_every: int = 64,
        sync_policy="batch",
    ) -> None:
        self.replica_id = int(replica_id)
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.algorithm = algorithm
        self.engine = engine
        self.rt = rt
        self.checkpoint_every = checkpoint_every
        self.sync_policy = sync_policy
        self.maintainer = None          #: live state (None until bootstrap)
        self.wal: Optional[WriteAheadLog] = None
        #: one past the last WAL position reflected in ``maintainer``
        self.applied_seqno = 0
        #: highest fencing term this replica has acknowledged
        self.term = 0
        #: primary's committed watermark as last advertised
        self.primary_committed = 0
        #: clock shared with the transport (set when attached to a primary)
        self.clock = None
        self.last_contact_at: Optional[float] = None
        self._since_checkpoint = 0
        #: running fingerprint of ``maintainer.tau``, attached at the
        #: first check after each bootstrap
        self._digest = TauDigest()
        self.stats: Dict[str, int] = _fresh_stats()

    # -- bootstrap / resync ----------------------------------------------------
    def bootstrap(
        self, checkpoint_bytes: bytes, base_seqno: int, wal_bytes: bytes, *, term: int
    ) -> None:
        """Install a checkpoint image + WAL suffix and go live from them.

        Wipes any previous replica state first: a resync replaces the
        lapped timeline wholesale (the old local WAL below the new base
        is useless -- its suffix was pruned away on the primary).
        """
        if self.wal is not None:
            self.wal.close()
        for stale in list_checkpoints(self.directory):
            stale.unlink()
        for seg in self.directory.glob("wal-*.seg"):
            seg.unlink()
        checkpoint_path(self.directory, base_seqno).write_bytes(checkpoint_bytes)
        if wal_bytes:
            seg = self.directory / f"wal-{base_seqno:012d}.seg"
            seg.write_bytes(wal_bytes)
        manager = RecoveryManager(
            self.directory, self.rt, algorithm=self.algorithm, engine=self.engine
        )
        self.maintainer, report = manager.recover()
        self.applied_seqno = report.resume_seqno
        self.wal = WriteAheadLog(
            self.directory,
            sync_policy=self.sync_policy,
            start_seqno=self.applied_seqno,
        )
        self.term = max(self.term, term)
        self._since_checkpoint = 0
        self.stats["bootstraps"] += 1

    @property
    def live(self) -> bool:
        return self.maintainer is not None

    # -- the receive path ------------------------------------------------------
    def receive(self, shipment: Shipment):
        """Process one shipment; returns an :class:`Ack` or :class:`Nak`.

        Raises :class:`ReplicationDivergence` when the primary's tau
        fingerprint disagrees at a shared watermark, and
        :class:`DurabilityError` when a shipped batch fails to apply --
        both mean this standby must not serve reads, so neither is ever
        reported as a polite NAK.
        """
        if self.maintainer is None:
            raise DurabilityError(
                f"replica {self.replica_id} received a shipment before bootstrap",
                self.directory,
            )
        self.stats["received"] += 1
        if self.clock is not None:
            self.last_contact_at = self.clock.now()
        if shipment.term < self.term:
            self.stats["fenced"] += 1
            return self._nak("stale-term")
        if self.wal is None:
            # this standby was promoted: it is a primary now, and only a
            # sender on a *stale* term could still be shipping to it
            raise DurabilityError(
                f"replica {self.replica_id} was promoted (term {self.term}) "
                "and no longer accepts shipments",
                self.directory,
            )
        self.term = shipment.term
        self.primary_committed = max(self.primary_committed, shipment.committed_seqno)
        if shipment.kind == "heartbeat":
            self.stats["heartbeats"] += 1
            return Ack(self.replica_id, self.applied_seqno, self.term)
        if shipment.start_seqno > self.applied_seqno:
            # something between our watermark and this shipment was lost
            self.stats["gaps"] += 1
            return self._nak("gap")
        batches, damage = decode_payload(shipment.payload)
        for seqno, changes in batches:
            if seqno < self.applied_seqno:
                continue  # duplicate delivery; replay is idempotent anyway
            self.wal.append_batch(seqno, changes)
            try:
                self.maintainer.apply_batch(Batch(list(changes)))
            except Exception as exc:  # noqa: BLE001 -- classify, then refuse
                raise DurabilityError(
                    f"replica {self.replica_id}: shipped batch {seqno} failed "
                    f"to apply ({type(exc).__name__}: {exc})",
                    self.directory,
                ) from exc
            self.applied_seqno = seqno + 1
            self.stats["batches_applied"] += 1
            self._since_checkpoint += 1
        if damage is not None:
            # the intact prefix is applied and durable; ask for the rest
            self.stats["torn"] += 1
            return self._nak("torn")
        # positions with no record (validation-rejected on the primary)
        # still advance the watermark, exactly like recovery's resume_seqno
        self.applied_seqno = max(self.applied_seqno, shipment.end_seqno)
        if shipment.tau_hash is not None and self.applied_seqno == shipment.end_seqno:
            self.stats["hash_checks"] += 1
            if shipment.audit:
                mine = tau_fingerprint(self.maintainer.tau)
            else:
                mine = self._digest.read(self.maintainer)
            if mine != shipment.tau_hash:
                raise ReplicationDivergence(
                    f"replica {self.replica_id} diverged from primary at "
                    f"watermark {shipment.end_seqno}: fingerprint "
                    f"{mine:#x} != {shipment.tau_hash:#x}"
                    + (" (checkpoint audit)" if shipment.audit else ""),
                    self.directory,
                )
        self._maybe_checkpoint()
        return Ack(self.replica_id, self.applied_seqno, self.term)

    def _nak(self, reason: str) -> Nak:
        return Nak(self.replica_id, self.applied_seqno, self.term, reason)

    # -- local durability ------------------------------------------------------
    def _maybe_checkpoint(self) -> None:
        if self.checkpoint_every and self._since_checkpoint >= self.checkpoint_every:
            self.checkpoint()

    def checkpoint(self):
        """Checkpoint the replica's own directory and prune its local WAL
        (keeps the two newest checkpoints, like the durable facade)."""
        self.wal.sync()
        cp = take_checkpoint(self.maintainer)
        cp.wal_seqno = self.applied_seqno
        path = checkpoint_path(self.directory, self.applied_seqno)
        cp.save(path)
        self._since_checkpoint = 0
        self.stats["checkpoints"] += 1
        existing = list_checkpoints(self.directory)
        for old in existing[:-2]:
            old.unlink()
        survivors = list_checkpoints(self.directory)
        if survivors:
            self.wal.prune(checkpoint_seqno(survivors[0]))
        return path

    # -- serving reads ---------------------------------------------------------
    @property
    def tau(self):
        return self.maintainer.tau

    @property
    def sub(self):
        return self.maintainer.sub

    def kappa(self):
        return self.maintainer.kappa()

    def kappa_of(self, v: Vertex) -> int:
        return self.maintainer.kappa_of(v)

    # -- failure detection -----------------------------------------------------
    def suspects_primary(self, timeout: float) -> bool:
        """True when the primary has been silent for longer than
        ``timeout`` seconds of the shared (usually simulated) clock."""
        if self.clock is None or self.last_contact_at is None:
            return False
        return self.clock.now() - self.last_contact_at > timeout

    # -- teardown --------------------------------------------------------------
    def close(self, *, remove_directory: bool = False) -> None:
        if self.wal is not None:
            self.wal.close()
            self.wal = None
        if remove_directory:
            shutil.rmtree(self.directory, ignore_errors=True)

    def __repr__(self) -> str:
        return (
            f"Replica({self.replica_id}, applied={self.applied_seqno}, "
            f"term={self.term}, live={self.live})"
        )
