"""Replication wire types: shipments, acks/naks, the tau fingerprint.

A :class:`Shipment` is the unit the primary puts on a
:class:`~repro.replication.link.ReplicationLink`.  Its payload is *WAL
wire format* (:func:`~repro.resilience.durability.wal.encode_batch`) --
the records the primary's log holds for the shipped batches, re-encoded
from :meth:`~repro.resilience.durability.wal.WriteAheadLog.read_from` --
so a shipment torn in flight is caught by the same CRC record parsing
that catches a segment torn by a crash.  The replica decodes the
batches and appends each to its own log through ``append_batch``, which
encodes it again; it does not append the shipped bytes unchanged.

Every shipment is stamped with the primary's **term**, a monotonically
increasing epoch that changes exactly when a new primary is promoted.
A replica that has seen term *t* refuses anything stamped ``< t``
(:class:`Nak` with reason ``"stale-term"``) -- that is what fences a
deposed primary that comes back from a GC pause and keeps shipping: its
stale segments can never overwrite a promoted timeline.

``start_seqno`` / ``end_seqno`` delimit the *positions* a records
shipment covers, not the records it carries: a WAL position consumed by
a validation-rejected batch has no record, so the receiver advances its
watermark by range, exactly as recovery derives ``resume_seqno``.

``tau_hash`` carries the primary's :func:`tau_fingerprint` at the commit
watermark ``end_seqno``.  A replica that reaches the same watermark with
a different fingerprint has **diverged** and raises
:class:`ReplicationDivergence` rather than silently serving wrong core
numbers.  Both sides read the fingerprint off a :class:`TauDigest`
folded from committed deltas; a shipment marked ``audit`` (the first
stamp to each standby after a primary checkpoint) carries a full
recompute the primary checked against its digest, and the replica
checks a full recompute of its own against it, which is what catches a
tau write behind the delta path.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Mapping, Optional

from repro.resilience.durability.errors import DurabilityError

__all__ = [
    "Shipment",
    "Ack",
    "Nak",
    "tau_fingerprint",
    "TauDigest",
    "ReplicationError",
    "ReplicationDivergence",
    "StaleTermError",
]


class ReplicationError(DurabilityError):
    """Replication-layer failure (a :class:`DurabilityError` subtype, so
    one ``except`` clause covers the whole persistence stack)."""


class ReplicationDivergence(ReplicationError):
    """A replica's tau fingerprint disagrees with the primary's at a
    shared commit watermark.  Never swallowed: a diverged standby must
    not serve reads or win an election."""


class StaleTermError(ReplicationError):
    """A deposed primary discovered a newer term: its shipments are being
    fenced and it must stop acting as primary."""


def tau_fingerprint(tau: Mapping) -> int:
    """Order-independent fingerprint of a core-number assignment.

    XOR of per-entry CRC32s over ``repr(vertex)=value`` strings: cheap
    (one pass, no sort), identical across dict iteration orders and
    engines, and any single-entry drift flips the result.  This is a
    divergence *tripwire*, not a cryptographic commitment.
    """
    h = len(tau)
    for v, k in tau.items():
        h ^= zlib.crc32(f"{v!r}={k}".encode())
    return h


class TauDigest:
    """:func:`tau_fingerprint` kept current from committed deltas.

    It holds the XOR of the per-entry CRCs and reports ``len(tau) ^ x``,
    which equals ``tau_fingerprint(tau)`` by construction.  A maintainer
    with a digest attached (its ``tau_digest``) folds every committed
    batch's first-seen-old delta into it (XOR out ``v=old``, XOR in
    ``v=new`` for each vertex whose value changed), so a stamp costs what
    the batch changed, not |V|.  The digest seeds itself with one full
    pass at its first read, and again after :meth:`invalidate` -- the
    call for a tau write the delta path does not see.
    """

    __slots__ = ("_x", "entries")

    def __init__(self) -> None:
        self._x: Optional[int] = None
        #: per-entry CRCs computed so far, seeds and folds alike
        self.entries = 0

    def invalidate(self) -> None:
        """Forget the running value; the next read re-seeds it."""
        self._x = None

    def fold(self, delta: Mapping, tau: Mapping) -> None:
        """Fold one committed batch: ``delta`` maps each vertex written
        to its pre-batch value (``None``: it entered), ``tau`` is the
        committed state."""
        x = self._x
        if x is None:
            return
        n = 0
        for v, old in delta.items():
            new = tau.get(v)
            if new == old:
                continue
            if old is not None:
                x ^= zlib.crc32(f"{v!r}={old}".encode())
                n += 1
            if new is not None:
                x ^= zlib.crc32(f"{v!r}={new}".encode())
                n += 1
        self._x = x
        self.entries += n

    def value(self, tau: Mapping) -> int:
        """``tau_fingerprint(tau)``, seeding from ``tau`` when needed."""
        if self._x is None:
            self._x = tau_fingerprint(tau) ^ len(tau)
            self.entries += len(tau)
        return len(tau) ^ self._x

    def read(self, maintainer) -> int:
        """The fingerprint of ``maintainer``'s tau.  A maintainer this
        digest is not attached to (the first read, or a new instance
        after a heal, bootstrap or promotion) gets it attached and
        seeded from its tau."""
        if maintainer.tau_digest is not self:
            self.invalidate()
            maintainer.tau_digest = self
        return self.value(maintainer.tau)


@dataclass(frozen=True)
class Shipment:
    """One message from primary to replica.  See the module docstring."""

    kind: str                       #: ``"records"`` | ``"heartbeat"``
    term: int                       #: primary's fencing epoch
    start_seqno: int                #: first WAL position covered
    end_seqno: int                  #: one past the last position covered
    payload: bytes = b""            #: raw WAL records (``records`` only)
    items: int = 0                  #: record count, for transport costing
    tau_hash: Optional[int] = None  #: primary fingerprint at ``end_seqno``
    committed_seqno: int = 0        #: primary's committed watermark at ship time
    #: ``tau_hash`` is a full recompute the primary checked against its
    #: digest; the receiver checks a full recompute of its own against it
    audit: bool = False

    KINDS = ("records", "heartbeat")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown shipment kind {self.kind!r}")
        if self.end_seqno < self.start_seqno:
            raise ValueError("end_seqno must be >= start_seqno")

    def __repr__(self) -> str:
        return (
            f"Shipment({self.kind}, term={self.term}, "
            f"[{self.start_seqno},{self.end_seqno}), {len(self.payload)}B)"
        )


@dataclass(frozen=True)
class Ack:
    """Receiver's positive response: its new applied watermark."""

    replica_id: int
    applied_seqno: int
    term: int


@dataclass(frozen=True)
class Nak:
    """Receiver's refusal, with the watermark the sender must back up to.

    Reasons: ``"gap"`` (shipment starts past the replica's watermark --
    something before it was lost), ``"torn"`` (payload damaged in
    flight; the intact prefix was applied), ``"stale-term"`` (the sender
    has been deposed and is fenced).
    """

    replica_id: int
    applied_seqno: int
    term: int
    reason: str

    REASONS = ("gap", "torn", "stale-term")

    def __post_init__(self) -> None:
        if self.reason not in self.REASONS:
            raise ValueError(f"unknown nak reason {self.reason!r}")
