"""Shared machinery for the maintenance algorithms.

:class:`MaintainerBase` owns the pieces every maintainer needs:

* the substrate and a parallel runtime;
* the maintained local values ``tau`` (equal to kappa between batches);
* an execution backend (:mod:`repro.core.backend`) owning everything
  derived from ``tau``.  Every tau commit goes through it, and it answers
  the level queries :meth:`~MaintainerBase.levels` /
  :meth:`~MaintainerBase.vertices_at_level`.  The paper's o(|H|) batches
  (Section III-B) come from ``mod``'s sweep touching only the vertices
  that can rise: the dict backend reaches resolved levels through its
  level index ``{tau value -> set of vertices}``; the array backend
  lifts only the bounded rule's rise region (one masked pass over its
  dense tau array under the paper and safe rules);
* the per-hyperedge :class:`~repro.graph.dynamic_hypergraph.MinCache`
  (Section IV-A's cached-minimum optimisation; dict backend,
  hypergraphs only -- the array backend's kernels read a dense min-tau
  shadow instead);
* ``maintain_h`` -- the paper's ``MaintainH``: apply a batch's structural
  changes while invoking the algorithm's callback per pin change;
* the **transactional template** ``apply_batch``: pre-flight validation,
  then the algorithm's ``_apply_batch``, rolled back wholesale on any
  exception (see :mod:`repro.resilience`).

Graph edges need one care point in ``maintain_h``: a graph edge comes into
existence atomically with both pins, and its two
:class:`~repro.graph.substrate.Change` records are structurally a single
insertion.  The callback must still observe *both* pin changes (Algorithm
4's ``f-mod`` records the minimum endpoint, whichever of the two it is), so
on a successful graph edge application the callback fires for both
endpoints and the twin record is skipped when it arrives.

Transactions
------------
``apply_batch`` is **all-or-nothing** for every algorithm: batches are
validated against the substrate before the first mutation
(:func:`~repro.resilience.validation.validate_batch`), every structural
change that lands is journalled through the single mutation point
``_apply_structural``, and any exception mid-batch -- a callback bug, an
injected fault, a surprise in convergence -- triggers a rollback restoring
substrate, ``tau``, the backend's derived state and min-cache to the exact
pre-batch state before the exception propagates.  Algorithms implement ``_apply_batch``;
``apply_batch`` itself is the template.  Set ``transactional = False`` /
``validate_batches = False`` to strip both layers (the benchmarks'
hot-loop option).

``fault_hook`` is the chaos-engineering seam: when set, it is called with
``(change, index)`` before each pin-change record of a batch is processed,
and may raise to simulate a mid-batch failure at a deterministic position
(:class:`~repro.resilience.faults.FaultInjector` drives it).

View publication
----------------
``view_publisher`` is the snapshot-isolation seam used by
:mod:`repro.serve`: when set, every **successful, top-level**
``apply_batch`` ends by calling ``view_publisher(delta)`` where ``delta``
maps each vertex whose tau was written this batch to its *pre-batch*
value (``None`` for vertices that entered the decomposition).  The call
fires strictly after the commit point -- never mid-transaction, and
never for a rolled-back batch (rollback discards the pending delta) --
so a subscriber that derives a read snapshot from the deltas only ever
observes batch boundaries.  All tau write paths feed the delta: the
serial ``_set_tau`` / ``_drop_vertex`` / ``_on_change_hook`` commits
here, the array backend's vectorised bulk commits, and the columnar
fast path's vertex creation.

The same delta keeps replication's running fingerprint current: when a
``tau_digest`` is attached, the delta is collected even without a
publisher and folded into the digest at the commit point, before the
publisher runs.  A rolled-back batch folds nothing.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Hashable, Iterable, List, Optional, Set

from repro.core.backend import select_backend
from repro.graph.dynamic_hypergraph import MinCache
from repro.graph.substrate import Change
from repro.parallel.runtime import ParallelRuntime, SerialRuntime
from repro.resilience.transaction import Transaction
from repro.resilience.validation import validate_batch

__all__ = ["MaintainerBase"]

Vertex = Hashable
Callback = Callable[[Change, tuple], None]
FaultHook = Callable[[Change, int], None]


class MaintainerBase:
    """Common state and operations for k-core maintainers."""

    #: subclass tag used by the facade and reports
    algorithm: str = "base"
    #: engine the algorithm always executes on, whatever the substrate and
    #: ``engine=`` say (``None``: the substrate's engine, or the forced one)
    pinned_engine: Optional[str] = None
    #: running tau fingerprint (a :class:`~repro.replication.shipment
    #: .TauDigest`) folded from each committed batch's delta; replication
    #: attaches one, ``None`` otherwise
    tau_digest = None
    #: checkpoints carry ``_txn_snapshot_extra()``: cross-batch state that
    #: tau alone does not imply (the class then defines ``settle_state``)
    checkpoint_state: bool = False

    def __init__(
        self,
        sub,
        rt: Optional[ParallelRuntime] = None,
        *,
        tau: Optional[Dict[Vertex, int]] = None,
        use_min_cache: bool = True,
    ) -> None:
        self.sub = sub
        self.rt = rt if rt is not None else SerialRuntime()
        self.use_min_cache = use_min_cache and getattr(sub, "is_hypergraph", False)
        # without tau=, the substrate's backend seeds it (its static
        # decomposition) before binding, so it can keep the state that
        # seed computed
        backend = select_backend(sub)
        self.tau: Dict[Vertex, int] = (
            backend.decompose(sub, self.rt) if tau is None else dict(tau)
        )
        if self.pinned_engine is not None:
            backend = select_backend(sub, self.pinned_engine)
        #: execution backend: owns all engine-specific state (static seed,
        #: level index or dense tau shadow, min-tau shadow, vectorised
        #: kernels) behind one seam
        self.backend = backend.bind(self)
        self.min_cache: Optional[MinCache] = (
            self.backend.make_min_cache() if self.use_min_cache else None
        )
        self.batches_processed = 0
        #: all-or-nothing batches (rollback on exception); see module docs
        self.transactional = True
        #: pre-flight structural validation of every batch
        self.validate_batches = True
        #: chaos seam: ``hook(change, index)`` before each pin-change record
        self.fault_hook: Optional[FaultHook] = None
        #: snapshot seam: ``publisher(delta)`` after each committed
        #: top-level batch, ``delta = {vertex: pre-batch tau or None}``
        #: (see module docs; :mod:`repro.serve` attaches here)
        self.view_publisher: Optional[Callable[[Dict[Vertex, Optional[int]]], None]] = None
        self._view_delta: Optional[Dict[Vertex, Optional[int]]] = None
        self._txn_journal: Optional[List[Change]] = None
        self._fault_index = 0

    # -- engine selection ---------------------------------------------------------
    @property
    def engine(self) -> str:
        """``"array"`` when the vectorised flat-array path is active."""
        return self.backend.name

    def _set_engine(self, engine: str) -> None:
        """Force an execution engine (``make_maintainer``'s ``engine=``).

        A pinned algorithm keeps its engine; ``engine`` then only has to
        suit the substrate (``"array"`` still requires an array-backed
        one)."""
        if self.pinned_engine is not None:
            select_backend(self.sub, engine)
            return
        if engine == "auto" or engine == self.backend.name:
            return
        self.backend = select_backend(self.sub, engine).bind(self)
        if self.use_min_cache:
            # the old backend's cache died with it; rebuild against the
            # new one
            self.min_cache = self.backend.make_min_cache()

    # -- kappa access ------------------------------------------------------------
    def kappa(self) -> Dict[Vertex, int]:
        """Current core values (a copy; vertices with degree 0 excluded)."""
        return dict(self.tau)

    def kappa_of(self, v: Vertex) -> int:
        """Core value of ``v`` (0 if absent)."""
        return self.tau.get(v, 0)

    def vertices_at_level(self, k: int) -> FrozenSet[Vertex]:
        """The vertices whose tau is ``k`` (an immutable copy)."""
        return self.backend.vertices_at_level(k)

    def levels(self) -> List[int]:
        """Distinct tau values, ascending."""
        return self.backend.levels()

    def vertices_at_least(self, k: int) -> Set[Vertex]:
        """The vertices whose tau is at least ``k`` (a fresh set)."""
        return self.backend.vertices_at_least(k)

    # -- tau bookkeeping ----------------------------------------------------------
    def _set_tau(self, v: Vertex, new: int) -> None:
        """Commit a tau change through the min cache and the backend."""
        old = self.tau.get(v)
        if old == new:
            return
        delta = self._view_delta
        if delta is not None and v not in delta:
            delta[v] = old
        self.tau[v] = new
        if self.min_cache is not None:
            self.min_cache.on_value_change(v)
        self.backend.on_tau_commit(v, old, new)

    def _drop_vertex(self, v: Vertex) -> None:
        """Vertex degree hit zero: it leaves the decomposition."""
        old = self.tau.pop(v, None)
        if old is None:
            return
        delta = self._view_delta
        if delta is not None and v not in delta:
            delta[v] = old
        self.backend.on_tau_commit(v, old, None)

    def _on_change_hook(self, v: Vertex, old: int, new: int) -> None:
        """hhc_local committed tau[v] directly (and refreshed the min
        cache itself); hand the move to the backend."""
        delta = self._view_delta
        if delta is not None and v not in delta:
            delta[v] = old
        self.backend.on_tau_commit(v, old, new)

    # -- transactional plumbing ---------------------------------------------------
    def _apply_structural(self, change: Change) -> bool:
        """The single structural mutation point: apply one pin change and,
        inside a transaction, journal it for rollback."""
        token = self.backend.pre_structural(change)
        applied = self.sub.apply(change)
        if applied:
            if self._txn_journal is not None:
                self._txn_journal.append(change)
            self.backend.post_structural(change, token)
        return applied

    def _fault_point(self, change: Change) -> None:
        """Chaos seam: give an armed fault hook its shot at this record."""
        hook = self.fault_hook
        if hook is not None:
            hook(change, self._fault_index)
        self._fault_index += 1

    def _txn_snapshot_extra(self) -> object:
        """Capture algorithm-specific cross-batch state for rollback
        (subclasses with such state override both hooks)."""
        return None

    def _txn_restore_extra(self, state: object) -> None:
        return None

    # -- structural application (MaintainH) ------------------------------------------
    def maintain_h(self, batch, callback: Optional[Callback]) -> Set[Vertex]:
        """Apply every structural change of ``batch``; fire ``callback`` per
        semantic pin change.

        The callback receives ``(change, context_pins)`` where
        ``context_pins`` is the pin tuple of the hyperedge *including* the
        changed pin -- post-insert for insertions, pre-delete for
        deletions -- which is what the classification rules need.

        Returns the set of vertices structurally touched (pins of every
        changed hyperedge), which every algorithm must activate.

        New vertices (degree 0 -> 1) enter ``tau`` at 0 before the
        callback; the change records themselves are the medium through
        which their values rise.
        """
        sub, rt = self.sub, self.rt
        touched: Set[Vertex] = set()
        is_hyper = getattr(sub, "is_hypergraph", False)
        # one batched charge for the per-record serial bookkeeping instead
        # of a call per change (the loop itself is the hot path)
        rt.serial(len(batch))

        for change in batch:
            self._fault_point(change)
            if change.insert:
                # capture nothing; apply then observe
                applied = self._apply_structural(change)
                if not applied:
                    continue
                if self.min_cache is not None:
                    self.min_cache.invalidate(change.edge)
                pins_now = tuple(sub.pins(change.edge))
                touched.update(pins_now)
                for p in pins_now:
                    if p not in self.tau:
                        self._set_tau(p, 0)
                if callback is not None:
                    if is_hyper:
                        callback(change, pins_now)
                    else:
                        # both endpoints are semantic pin insertions; the
                        # incoming record already names one of them, so
                        # only the twin needs allocating
                        u, v = change.edge
                        twin = v if change.vertex == u else u
                        callback(change, pins_now)
                        callback(Change(change.edge, twin, True), pins_now)
            else:
                if not sub.has_pin(change.edge, change.vertex):
                    continue
                pins_before = tuple(sub.pins(change.edge))
                applied = self._apply_structural(change)
                if not applied:
                    continue
                if self.min_cache is not None:
                    self.min_cache.invalidate(change.edge)
                touched.update(pins_before)
                if callback is not None:
                    if is_hyper:
                        callback(change, pins_before)
                    else:
                        u, v = change.edge
                        twin = v if change.vertex == u else u
                        callback(change, pins_before)
                        callback(Change(change.edge, twin, False), pins_before)
                # vertices that vanished leave the decomposition
                for p in pins_before:
                    if not sub.has_vertex(p):
                        self._drop_vertex(p)
                        touched.discard(p)
        return touched

    # -- convergence ------------------------------------------------------------------
    def converge(self, active: Iterable[Vertex]) -> None:
        """Run Algorithm 2 from the current tau with the given frontier.

        The backend decides execution: the dict backend runs the
        per-vertex ``hhc_local`` loop, the array backend the vectorised
        flat-array sweep (both are oracle-equivalent; see
        docs/PERFORMANCE.md).
        """
        self.backend.converge(active)

    # -- the public entry point ---------------------------------------------------------
    def apply_batch(self, batch) -> None:
        """Validate, then apply ``batch`` all-or-nothing.

        The template wrapping every algorithm's ``_apply_batch``: the
        batch is structurally validated before the first mutation, and an
        exception anywhere mid-batch (structural application, callbacks,
        resolution, convergence) rolls substrate / ``tau`` / the backend's
        derived state / min-cache back to the exact pre-batch state before
        re-raising.
        """
        if self.validate_batches:
            # batches carrying their own vectorised validator (the
            # columnar representation) use it; everything else takes the
            # per-Change structural walk
            validate = getattr(batch, "validate_against", None)
            if validate is not None:
                validate(self.sub)
            else:
                validate_batch(self.sub, batch)
        self._fault_index = 0
        collect = self.view_publisher is not None or self.tau_digest is not None
        if not self.transactional or self._txn_journal is not None:
            # transactions off, or already inside an enclosing transaction
            # (the hybrid maintainer's child engines share the journal).
            # A nested call never publishes -- the enclosing top-level
            # batch owns the delta and the commit point.
            if self._txn_journal is not None or not collect:
                self._apply_batch(batch)
                return
            self._view_delta = {}
            try:
                self._apply_batch(batch)
            except BaseException:
                self._view_delta = None
                if self.tau_digest is not None:
                    # no rollback: tau holds writes no delta will fold
                    self.tau_digest.invalidate()
                raise
            self._publish_view()
            return
        txn = Transaction.begin(self)
        self._txn_journal = txn.journal
        if collect:
            self._view_delta = {}
        try:
            self._apply_batch(batch)
        except BaseException:
            self._txn_journal = None
            self._view_delta = None          # rolled back: never published
            txn.rollback(self)
            raise
        finally:
            self._txn_journal = None
        self._publish_view()

    def _publish_view(self) -> None:
        """Fold the committed batch's tau delta into the attached digest,
        then hand it to the attached publisher; fires strictly after the
        commit point."""
        delta, self._view_delta = self._view_delta, None
        if delta is None:
            return
        if self.tau_digest is not None:
            self.tau_digest.fold(delta, self.tau)
        if self.view_publisher is not None:
            self.view_publisher(delta)

    def _apply_batch(self, batch) -> None:
        """The algorithm's batch processing (subclasses implement)."""
        raise NotImplementedError

    def apply_change(self, change: Change) -> None:
        """Single-change convenience (a batch of one)."""
        from repro.graph.batch import Batch

        self.apply_batch(Batch([change]))

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(|V|={self.sub.num_vertices()}, "
            f"batches={self.batches_processed})"
        )
