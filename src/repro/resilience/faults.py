"""Deterministic fault injection: the chaos harness.

Testing recovery paths requires *producing* failures on demand, at exact,
reproducible points.  A :class:`FaultPlan` describes one such failure; a
:class:`FaultInjector` arms a set of plans around any maintainer-shaped
object (a raw algorithm, the :class:`CoreMaintainer` facade, or a
:class:`~repro.resilience.supervisor.ResilientMaintainer`) and replays
batches through it, firing the plans at their programmed positions.

Fault kinds
-----------
``raise``
    Raise :class:`FaultError` just before the ``change``-th pin-change
    record of batch ``batch`` is applied (through the maintainer's
    ``fault_hook`` seam).  ``transient=True`` (default) disarms the plan
    after one firing -- a retry then succeeds; ``transient=False`` models
    a poison batch that fails every attempt.
``corrupt-tau``
    After batch ``batch`` completes, silently add ``delta`` to one
    maintained tau entry -- the drift that only an audit can catch.
``duplicate``
    Append a copy of the ``change``-th record to batch ``batch`` before
    applying (duplicates are safe no-ops; the harness proves it).
``invert``
    Flip the direction of the ``change``-th record of batch ``batch``
    (models a corrupted upstream feed).
``crash``
    Simulate ``kill -9`` at a durability I/O boundary: raise the
    uncatchable :class:`~repro.resilience.durability.errors.CrashError`
    the ``batch``-th time crash point ``site`` is crossed (see
    :mod:`repro.resilience.durability.crashpoints` for the site
    catalogue).  Requires a durable target -- something in the wrapped
    stack exposing a ``crashpoints`` seam, i.e. a
    :class:`~repro.resilience.durability.durable.DurableMaintainer`.
    After a crash fires, the in-memory object must be abandoned and the
    session recovered from disk
    (:class:`~repro.resilience.durability.recovery.RecoveryManager`).

Transport faults
----------------
The ``ship-*`` kinds target a replication
:class:`~repro.replication.link.ReplicationLink` rather than a
maintainer: ``batch`` is the link's *shipment ordinal* (the N-th shipment
handed to that link, heartbeats included), and the plan is consumed by
the link itself -- :class:`FaultInjector` ignores these kinds.

``ship-drop``
    The shipment vanishes in flight (the receiver never sees it; the
    sender retransmits on ack timeout).
``ship-dup``
    The shipment is delivered twice (replay must be idempotent).
``ship-reorder``
    The shipment is held back past its successor, arriving out of order
    (the receiver NAKs the gap, then heals).
``ship-delay``
    Delivery is delayed ``delta`` times the link's base latency.
``ship-torn``
    The shipment's payload is truncated mid-record in flight -- the
    receiving replica's CRC parsing catches it, applies the intact
    prefix, and NAKs for the rest.

The per-batch change counter is reset by ``apply_batch`` itself, so a
``raise`` plan fires at the same pin-change index on every retry attempt
-- exactly what distinguishes transient from persistent failures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, List, Optional, Sequence

from repro.graph.batch import Batch
from repro.graph.substrate import Change
from repro.resilience.durability.errors import CrashError

__all__ = ["FaultError", "FaultPlan", "FaultInjector"]

Vertex = Hashable

KINDS = ("raise", "corrupt-tau", "duplicate", "invert", "crash",
         "ship-drop", "ship-dup", "ship-reorder", "ship-delay", "ship-torn")

#: the kinds consumed by a replication link, not by :class:`FaultInjector`
TRANSPORT_KINDS = ("ship-drop", "ship-dup", "ship-reorder", "ship-delay", "ship-torn")


class FaultError(RuntimeError):
    """A deliberately injected failure (never raised by real code paths)."""


@dataclass(frozen=True)
class FaultPlan:
    """One programmed failure.  See the module docstring for semantics."""

    kind: str
    batch: int
    change: int = 0
    vertex: Optional[Vertex] = None
    delta: int = 5
    transient: bool = True
    #: crash plans only: the durability I/O boundary to die at (``batch``
    #: is then the site's hit ordinal, not a batch index)
    site: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; choose from {KINDS}")
        if self.batch < 0 or self.change < 0:
            raise ValueError("batch and change indices must be >= 0")
        if self.delta == 0 and self.kind == "corrupt-tau":
            raise ValueError("corrupt-tau with delta=0 corrupts nothing")
        if self.kind == "crash" and not self.site:
            raise ValueError("crash plans need a site (see durability.CRASH_SITES)")
        if self.kind == "ship-delay" and self.delta <= 0:
            raise ValueError("ship-delay needs a positive latency multiple (delta)")

    # -- readable constructors -------------------------------------------------
    @classmethod
    def raise_at(cls, batch: int, change: int = 0, *, transient: bool = True) -> "FaultPlan":
        return cls("raise", batch, change, transient=transient)

    @classmethod
    def corrupt_tau(cls, batch: int, vertex: Optional[Vertex] = None, delta: int = 5) -> "FaultPlan":
        return cls("corrupt-tau", batch, vertex=vertex, delta=delta)

    @classmethod
    def duplicate(cls, batch: int, change: int = 0) -> "FaultPlan":
        return cls("duplicate", batch, change)

    @classmethod
    def invert(cls, batch: int, change: int = 0) -> "FaultPlan":
        return cls("invert", batch, change)

    @classmethod
    def crash_at(cls, site: str, hit: int = 0) -> "FaultPlan":
        """Die (simulated ``kill -9``) the ``hit``-th time ``site`` fires."""
        return cls("crash", hit, site=site)

    # -- transport faults (consumed by a ReplicationLink) ----------------------
    @classmethod
    def drop_shipment(cls, ordinal: int) -> "FaultPlan":
        """Lose the link's ``ordinal``-th shipment in flight."""
        return cls("ship-drop", ordinal)

    @classmethod
    def duplicate_shipment(cls, ordinal: int) -> "FaultPlan":
        """Deliver the link's ``ordinal``-th shipment twice."""
        return cls("ship-dup", ordinal)

    @classmethod
    def reorder_shipment(cls, ordinal: int) -> "FaultPlan":
        """Hold the ``ordinal``-th shipment back past its successor."""
        return cls("ship-reorder", ordinal)

    @classmethod
    def delay_shipment(cls, ordinal: int, factor: int = 5) -> "FaultPlan":
        """Delay the ``ordinal``-th shipment by ``factor`` base latencies."""
        return cls("ship-delay", ordinal, delta=factor)

    @classmethod
    def tear_shipment(cls, ordinal: int) -> "FaultPlan":
        """Truncate the ``ordinal``-th shipment's payload mid-record."""
        return cls("ship-torn", ordinal)

    @property
    def is_transport(self) -> bool:
        return self.kind in TRANSPORT_KINDS


class FaultInjector:
    """Arm fault plans around a maintainer and replay batches through it.

    ``target`` may be anything with ``apply_batch``; hooks are installed
    on the underlying algorithm instance per batch and removed afterwards,
    so the wrapped object stays clean between calls.
    """

    def __init__(self, target, plans: Iterable[FaultPlan] = ()) -> None:
        self.target = target
        self.plans: List[FaultPlan] = list(plans)
        self.fired: List[FaultPlan] = []
        self._spent: set = set()
        self._cursor = 0

    # -- plumbing --------------------------------------------------------------
    def _inner(self):
        m = self.target
        seen = 0
        while hasattr(m, "impl") and seen < 4:
            m = m.impl
            seen += 1
        return m

    def _durable_layer(self):
        """The layer of the wrapped stack exposing the ``crashpoints``
        seam (a DurableMaintainer), or None."""
        m = self.target
        seen = 0
        while m is not None and seen < 5:
            if "crashpoints" in getattr(m, "__dict__", {}):
                return m
            m = getattr(m, "impl", None)
            seen += 1
        return None

    def _active(self, kind: str, batch_index: int) -> List[FaultPlan]:
        return [
            p for p in self.plans
            if p.kind == kind and p.batch == batch_index and id(p) not in self._spent
        ]

    def _mark_fired(self, plan: FaultPlan) -> None:
        self.fired.append(plan)
        if plan.kind != "raise" or plan.transient:
            self._spent.add(id(plan))

    # -- batch-shape faults ----------------------------------------------------
    def _transform(self, batch, batch_index: int) -> Batch:
        changes: List[Change] = list(batch)
        for plan in self._active("invert", batch_index):
            if plan.change < len(changes):
                changes[plan.change] = changes[plan.change].inverse()
                self._mark_fired(plan)
        for plan in self._active("duplicate", batch_index):
            if plan.change < len(changes):
                changes.append(changes[plan.change])
                self._mark_fired(plan)
        return Batch(changes)

    # -- state faults ----------------------------------------------------------
    def _corrupt(self, batch_index: int) -> None:
        inner = self._inner()
        for plan in self._active("corrupt-tau", batch_index):
            tau = inner.tau
            if not tau:
                continue
            if plan.vertex in tau:
                v = plan.vertex
            else:
                # deterministic peripheral pick: a low-degree vertex stays
                # out of later batches' affected regions, so the drift
                # survives until an audit rather than being incidentally
                # repaired by ordinary maintenance
                v = min(tau, key=lambda u: (inner.sub.degree(u), repr(u)))
            # corrupt coherently (tau *and* the backend's level index or
            # dense shadow, via _set_tau when available): incoherent drift
            # is self-describing -- ordinary maintenance re-visits the
            # vertex at its indexed level and repairs it -- whereas
            # coherent drift is exactly the silent corruption only an
            # audit can catch
            corrupted = max(0, tau[v] + plan.delta)
            if hasattr(inner, "_set_tau"):
                inner._set_tau(v, corrupted)
            else:
                tau[v] = corrupted
            self._mark_fired(plan)

    # -- the entry point -------------------------------------------------------
    def apply_batch(self, batch, *, index: Optional[int] = None):
        """Apply ``batch`` with this injector's faults armed.

        ``index`` overrides the injector's running batch counter (useful
        when replaying selected rounds of a longer stream).
        """
        i = self._cursor if index is None else index
        batch = self._transform(batch, i)
        raise_plans = self._active("raise", i)
        inner = self._inner()
        crash_plans = [
            p for p in self.plans
            if p.kind == "crash" and id(p) not in self._spent
        ]
        durable = self._durable_layer() if crash_plans else None

        def hook(change: Change, k: int) -> None:
            for plan in raise_plans:
                if plan.change == k and id(plan) not in self._spent:
                    self._mark_fired(plan)
                    raise FaultError(
                        f"injected fault: batch {i}, pin change {k} ({change!r})"
                    )

        def crash_hook(site: str, hit: int) -> None:
            for plan in crash_plans:
                if plan.site == site and plan.batch == hit and id(plan) not in self._spent:
                    self._mark_fired(plan)
                    raise CrashError(site, hit)

        if raise_plans:
            inner.fault_hook = hook
        if durable is not None:
            durable.crashpoints.hook = crash_hook
        try:
            result = self.target.apply_batch(batch)
        finally:
            inner.fault_hook = None
            if durable is not None:
                durable.crashpoints.hook = None
            self._cursor = i + 1
        self._corrupt(i)
        return result

    def apply_rounds(self, rounds: Sequence) -> List:
        """Apply a sequence of batches (or ``BurstyStream`` round tuples,
        whose ``Batch`` members are applied in order)."""
        results = []
        for item in rounds:
            if isinstance(item, Batch):
                results.append(self.apply_batch(item))
                continue
            for part in item:
                if isinstance(part, Batch):
                    results.append(self.apply_batch(part))
        return results
