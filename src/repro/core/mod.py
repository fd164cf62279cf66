"""The ``mod`` maintainer (Algorithms 3 and 4).

``mod`` processes a batch in three phases:

1. **MaintainH** -- apply every structural change, classifying each pin
   change (see :mod:`repro.core.pin_cases`) into per-tau-level insertion
   (``I``) and deletion (``D``) records.
2. **Resolve** (Algorithm 4 lines 5-12) -- turn ``I``/``D`` into per-level
   increments ``R``, conservatively covering the ways concurrent changes
   can move and merge subcores.  The level sweep then raises ``tau`` of
   the vertices at incremented levels -- every one of them under the
   paper rule (the dict backend finds them through its level index, the
   array backend in one masked pass over its dense tau), only those the
   inserted edges can reach under the default ``bounded`` rule.
3. **Converge** -- continue Algorithm 2 (``hhcLocal``) from the raised
   ``tau`` with the incremented + structurally touched vertices active.

Increment policies
------------------
``"bounded"`` (default)
    The paper's per-level increments ``R``, applied to a smaller vertex
    set on graphs (docs/ALGORITHMS.md has the three proofs):

    * deleted graph edges emit no gain records: ``R`` is resolved from
      the insertions' ``I`` records and every ``D`` record;
    * only the *rise region* is lifted: a vertex at level ``k`` rises by
      ``R[k]`` only when a path of vertices at levels ``<= k`` with
      ``R > 0`` joins it to an endpoint of an inserted edge;
    * convergence starts from the lifted and structurally touched
      vertices alone, without Algorithm 4 line 16's whole-level
      activation of levels that saw a deletion.

    On hypergraphs it resolves exactly as ``"paper"`` (a pin deletion can
    raise the other pins, which the graph proofs do not cover).
``"paper"``
    The resolution exactly as printed in Algorithm 4, with the two
    reconciliations documented in DESIGN.md (all updates to ``R``
    accumulate; activation tests ``R > 0``), lifting every vertex on every
    incremented level.  The paper presents this rule as deliberately
    conservative rather than proved tight; our randomized adversarial
    suite (thousands of multi-level insertion/deletion batches checked
    against the peeling oracle, ``tests/test_mod_adversarial.py``) found
    no violation -- the per-pin double-recording at tau ties adds slack on
    top of the printed rule.  The figure reproductions pin it.
``"safe"``
    A provably sufficient band: every level in
    ``[min(I) - |D|, max(I) + |I|]`` is incremented by ``|I|`` (a vertex's
    core value rises by at most one per inserted unit, and only vertices
    whose start level lies within the batch's reach can rise).  Strictly
    more work per batch, never wrong.

Algorithm 3 (the single-hyperedge-change variant the paper introduces
first) is :meth:`ModMaintainer.apply_single`, a batch of one.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Optional, Set, Tuple

from repro.core.base import MaintainerBase
from repro.core.pin_cases import classify_delete, classify_insert
from repro.graph.substrate import Change
from repro.structures.level_accumulator import LevelAccumulator

__all__ = ["ModMaintainer", "resolve_paper", "resolve_safe", "Resolution"]

Vertex = Hashable


class Resolution:
    """Per-level increments plus activation predicate for the sweep."""

    def __init__(self, increments: LevelAccumulator, deletions: LevelAccumulator) -> None:
        self.increments = increments
        self.deletions = deletions

    def increment(self, level: int) -> int:
        return self.increments[level]

    def should_activate(self, level: int) -> bool:
        # the reconciled Algorithm 4 line 16: R > 0 or D > 0
        return self.increments[level] > 0 or self.deletions[level] > 0


class _BandResolution(Resolution):
    """The ``safe`` policy: a uniform increment over a contiguous band."""

    def __init__(self, lo: int, hi: int, amount: int, deletions: LevelAccumulator) -> None:
        super().__init__(LevelAccumulator(), deletions)
        self.lo, self.hi, self.amount = lo, hi, amount

    def increment(self, level: int) -> int:
        return self.amount if self.lo <= level <= self.hi else 0

    def should_activate(self, level: int) -> bool:
        return self.increment(level) > 0 or self.deletions[level] > 0


def resolve_paper(I: LevelAccumulator, D: LevelAccumulator) -> Resolution:
    """Algorithm 4 lines 5-12 with accumulating updates.

    For each level ``k`` holding insertions:

    * lines 6-8 ("subcore at k decreased and merged with another"): every
      level in ``[k - D[k], k - 1]`` receives ``I[k]``, and ``k`` receives
      the insertions recorded at those lower levels;
    * line 9: ``k`` receives its own ``I[k]``;
    * lines 10-12 ("subcore at k increased and merged with another"):
      level ``t`` in ``(k, k + I[k]]`` receives ``k + I[k] - t`` (enough to
      reach the raised subcore's ceiling), and ``k`` receives the
      insertions recorded at those higher levels.
    """
    R = LevelAccumulator()
    for k in I.levels():
        Ik = I[k]
        Dk = D[k]
        for t in range(max(0, k - Dk), k):
            R.add(t, Ik)
            if I[t]:
                R.add(k, I[t])
        R.add(k, Ik)
        for t in range(k + 1, k + Ik + 1):
            if k + Ik - t > 0:
                R.add(t, k + Ik - t)
            if I[t]:
                R.add(k, I[t])
    return Resolution(R, D)


def resolve_safe(I: LevelAccumulator, D: LevelAccumulator) -> Resolution:
    """The provably sufficient band increment (see module docstring)."""
    if not I:
        return Resolution(LevelAccumulator(), D)
    total_i = I.total()
    total_d = D.total()
    lo = max(0, min(I.levels()) - total_d - total_i)
    hi = I.max_level() + total_i
    return _BandResolution(lo, hi, total_i, D)


#: policy -> resolution; ``bounded`` keeps the paper's amounts and narrows
#: which vertices receive them (see ``ModMaintainer._apply_batch``)
_POLICIES = {"bounded": resolve_paper, "paper": resolve_paper, "safe": resolve_safe}


class ModMaintainer(MaintainerBase):
    """Re-initialisation based batch maintenance (Algorithm 4).

    Parameters
    ----------
    sub, rt, tau, use_min_cache:
        See :class:`~repro.core.base.MaintainerBase`.
    increment_policy:
        ``"bounded"`` (default), ``"paper"`` or ``"safe"`` (module
        docstring).
    conservative_cases:
        Whether tie cases in the pin classification also emit the
        "possible gain" records (Section IV-B Case 4); on by default.
    activate_deletion_levels:
        Algorithm 4 line 16 activates every vertex whose level saw a
        deletion.  Required for the paper's subcore-movement conservatism;
        switching it off keeps correctness (structurally touched vertices
        propagate decreases) and is exposed for the ablation benchmark.
        The ``bounded`` policy never activates whole levels on graphs.
    """

    algorithm = "mod"

    def __init__(
        self,
        sub,
        rt=None,
        *,
        tau: Optional[Dict[Vertex, int]] = None,
        use_min_cache: bool = True,
        increment_policy: str = "bounded",
        conservative_cases: bool = True,
        activate_deletion_levels: bool = True,
    ) -> None:
        super().__init__(sub, rt, tau=tau, use_min_cache=use_min_cache)
        if increment_policy not in _POLICIES:
            raise ValueError(f"unknown increment policy {increment_policy!r}")
        self.increment_policy = increment_policy
        self.conservative_cases = conservative_cases
        self.activate_deletion_levels = activate_deletion_levels
        self.last_resolution: Optional[Resolution] = None

    # -- the f-mod callback -----------------------------------------------------------
    def _make_callback(self, I: LevelAccumulator, D: LevelAccumulator,
                       new_edges: Set, sources: Optional[Set] = None) -> callable:
        """The per-pin-change classifier feeding ``I``/``D``.

        With ``sources`` given (the bounded rule on a graph) a deletion
        keeps its ``D`` records but emits no gain records, and every
        inserted edge's endpoints are collected into ``sources``.
        """
        tau = self.tau
        rt = self.rt
        conservative = self.conservative_cases
        is_hyper = getattr(self.sub, "is_hypergraph", False)

        def f_mod(change: Change, context_pins: Tuple[Vertex, ...]) -> None:
            rt.charge(len(context_pins))
            if change.insert:
                # graph edges are always created whole, so their pins
                # always follow new-edge semantics
                res = classify_insert(
                    tau, change, context_pins,
                    edge_is_new=(not is_hyper) or change.edge in new_edges,
                    conservative=conservative,
                )
                if sources is not None:
                    sources.update(context_pins)
            else:
                res = classify_delete(tau, change, context_pins, conservative=conservative)
                if sources is not None:
                    res.inserts.clear()
            for level, count in res.inserts:
                I.add(level, count)
                rt.charge_atomic(1)
            for level, count in res.deletes:
                D.add(level, count)
                rt.charge_atomic(1)

        return f_mod

    # -- batch processing ----------------------------------------------------------------
    def _apply_batch(self, batch) -> None:
        """Process one batch of pin changes (Algorithm 4)."""
        rt = self.rt
        # the bounded rule's graph-only narrowing (module docstring); on
        # hypergraphs it runs exactly as the paper rule
        bounded = (self.increment_policy == "bounded"
                   and not getattr(self.sub, "is_hypergraph", False))

        # the backend may run the whole MaintainH + classification as one
        # bulk columnar pass (plain batches on the array engine); the
        # per-Change loop below stays the reference semantics and the
        # fallback.  The chaos seam needs per-record fault points, so an
        # armed hook pins the batch to the reference path.
        columnar = None
        if self.fault_hook is None:
            columnar = self.backend.maintain_h_columnar(
                batch, conservative=self.conservative_cases,
                deletion_gains=not bounded,
            )
        if columnar is not None:
            I, D, touched, sources = columnar
            if not bounded:
                sources = None
        else:
            I = LevelAccumulator()
            D = LevelAccumulator()

            # track hyperedges created by this batch: pins joining a fresh
            # edge follow new-edge semantics in the classification
            new_edges: Set = set()
            if getattr(self.sub, "is_hypergraph", False):
                for change in batch:
                    if change.insert and not self.sub.has_edge(change.edge):
                        new_edges.add(change.edge)
            sources = set() if bounded else None
            callback = self._make_callback(I, D, new_edges, sources)

            touched = self.maintain_h(batch, callback)

        resolution = _POLICIES[self.increment_policy](I, D)
        self.last_resolution = resolution
        rt.serial(len(I) + len(D))

        # Algorithm 4 lines 13-17 + convergence: the backend owns the
        # sweep execution strategy (per-vertex level-index scan vs
        # vectorised bulk moves read off the dense tau array); ``sources``
        # narrows the lift to the rise region and drops line 16
        self.backend.sweep_and_converge(
            resolution, touched, self.activate_deletion_levels, sources=sources
        )
        self.batches_processed += 1

    # -- Algorithm 3: single hyperedge change -----------------------------------------------
    def apply_single(self, edge, pins: Iterable[Vertex], insert: bool) -> None:
        """Algorithm 3: one whole-hyperedge insertion or deletion.

        Provided for parity with the paper's presentation; it is exactly a
        batch containing that hyperedge's pin changes.
        """
        from repro.graph.batch import Batch
        from repro.graph.substrate import hyperedge_changes

        self.apply_batch(Batch(hyperedge_changes(edge, pins, insert)))
