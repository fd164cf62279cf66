"""Approximate maintenance under very high batch rates (§VI future work).

The paper's closing future-work list includes "introducing approximate
results during very high batch rates": when batches arrive faster than
exact convergence can complete, keep ingesting structure and serve
*bounded-staleness* answers.  This module realises that design with a
one-sided guarantee:

    the served value tau[v] is always an **upper bound** on kappa[v],

which is the useful direction for the paper's applications (a monitoring
system alerting on "kappa >= threshold" may fire early, never miss).

How it stays sound
------------------
``ApproximateModMaintainer`` runs the ``mod`` pipeline but caps the
convergence phase at ``iteration_budget`` frontier sweeps, carrying the
still-active frontier into the next batch.  Two facts make the bound hold:

1. partial h-index convergence from a pointwise upper bound stays a
   pointwise upper bound (values only descend toward kappa, Theorem 1's
   monotone argument);
2. the increment band is widened by the maintainer's current *inflation*
   -- an upper bound on how far any tau may currently sit above kappa --
   so a rising vertex is always lifted high enough even though the batch's
   records were classified against inflated levels.  Inflation grows by
   each deferred batch's insertion count and resets to zero whenever a
   convergence pass actually completes.

``flush()`` finishes convergence and returns to exactness;
:attr:`is_exact` reports the current state, and :meth:`staleness` the
inflation bound (0 means the answers are exact).

Engine
------
The budgeted convergence is the per-vertex ``hhc_local`` on every
substrate, so the maintainer always executes on the dict backend
(``engine`` reports ``"dict"``).  On an array-backed substrate the array
backend's frontier kernels still compute the seed, and ``engine="array"``
still selects such a substrate.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Set

from repro.core.mod import ModMaintainer, _BandResolution
from repro.core.static import hhc_local
from repro.structures.level_accumulator import LevelAccumulator

__all__ = ["ApproximateModMaintainer"]

Vertex = Hashable


class ApproximateModMaintainer(ModMaintainer):
    """``mod`` with budgeted convergence and one-sided approximation.

    Parameters
    ----------
    iteration_budget:
        Frontier sweeps allowed per batch (>= 1).  Smaller budgets ingest
        faster and stay staler.
    auto_flush_inflation:
        Optional inflation ceiling: when :meth:`staleness` would exceed
        it, the batch triggers a full convergence first (bounding how
        approximate answers can ever get).
    """

    algorithm = "mod-approx"
    pinned_engine = "dict"
    checkpoint_state = True

    def __init__(
        self,
        sub,
        rt=None,
        *,
        tau: Optional[Dict[Vertex, int]] = None,
        use_min_cache: bool = True,
        iteration_budget: int = 1,
        auto_flush_inflation: Optional[int] = None,
    ) -> None:
        # the approximate pipeline requires the band increment policy (the
        # paper rule's level coupling is not sound against inflated levels)
        super().__init__(sub, rt, tau=tau, use_min_cache=use_min_cache,
                         increment_policy="safe")
        if iteration_budget < 1:
            raise ValueError("iteration_budget must be >= 1")
        self.iteration_budget = iteration_budget
        self.auto_flush_inflation = auto_flush_inflation
        self._residual: Set[Vertex] = set()
        self._inflation = 0

    # -- state queries -----------------------------------------------------------
    @property
    def is_exact(self) -> bool:
        """True when served values are currently exact core values."""
        return not self._residual and self._inflation == 0

    def staleness(self) -> int:
        """Upper bound on tau[v] - kappa[v] over all vertices (0 = exact)."""
        return self._inflation

    def kappa_upper_bound(self) -> Dict[Vertex, int]:
        """The served (possibly approximate) values; always >= kappa."""
        return dict(self.tau)

    # -- bounded convergence --------------------------------------------------------
    def _bounded_converge(self, active: Set[Vertex]) -> None:
        residual: Set[Vertex] = set()
        hhc_local(
            self.sub,
            self.rt,
            tau=self.tau,
            frontier=active,
            min_cache=self.min_cache,
            on_change=self._on_change_hook,
            max_iterations=self.iteration_budget,
            residual=residual,
        )
        self._residual = {v for v in residual if self.sub.has_vertex(v)}
        if not self._residual:
            self._inflation = 0

    def flush(self) -> None:
        """Complete convergence; afterwards answers are exact."""
        if self._residual:
            self.converge(self._residual)
            self._residual = set()
            if self.tau_digest is not None:
                # outside a batch these writes reach no delta
                self.tau_digest.invalidate()
        self._inflation = 0

    @staticmethod
    def settle_state(m, state) -> None:
        """Bring ``m``, another algorithm restored over this one's
        checkpointed tau, to kappa: converge the carried frontier (tau is
        a pointwise upper bound, so convergence descends onto kappa)."""
        residual, _inflation = state
        if residual:
            m.converge(residual)

    # -- transactional hooks --------------------------------------------------------
    def _txn_snapshot_extra(self) -> object:
        return (set(self._residual), self._inflation)

    def _txn_restore_extra(self, state: object) -> None:
        residual, inflation = state
        self._residual = set(residual)
        self._inflation = inflation

    # -- batch processing ----------------------------------------------------------------
    def _apply_batch(self, batch) -> None:
        rt = self.rt
        if (
            self.auto_flush_inflation is not None
            and self._inflation >= self.auto_flush_inflation
        ):
            self.flush()

        I = LevelAccumulator()
        D = LevelAccumulator()
        new_edges: Set = set()
        if getattr(self.sub, "is_hypergraph", False):
            for change in batch:
                if change.insert and not self.sub.has_edge(change.edge):
                    new_edges.add(change.edge)
        callback = self._make_callback(I, D, new_edges)
        touched = self.maintain_h(batch, callback)

        # inflation-widened safe band: recorded levels may sit up to
        # `inflation` above the true levels of the vertices they describe
        total_i = I.total()
        total_d = D.total()
        if I:
            lo = max(0, min(I.levels()) - total_d - total_i - self._inflation)
            hi = I.max_level() + total_i + self._inflation
            resolution = _BandResolution(lo, hi, total_i, D)
        else:
            resolution = _BandResolution(0, -1, 0, D)
        self.last_resolution = resolution
        rt.serial(len(I) + len(D))

        moves = []
        active: Set[Vertex] = set(touched)
        active.update(self._residual)
        for level in self.levels():
            inc = resolution.increment(level)
            if inc > 0:
                for v in self.vertices_at_level(level):
                    moves.append((v, level, inc))
            elif self.activate_deletion_levels and resolution.should_activate(level):
                active.update(self.vertices_at_level(level))

        rt.parallel_for(moves, lambda mv: rt.charge(1), region="approx_increments")
        for v, level, inc in moves:
            self._set_tau(v, level + inc)
            active.add(v)

        # served values drift by at most one per change until a convergence
        # pass completes: insertions inflate tau directly, deletions let
        # kappa fall underneath an unconverged tau
        self._inflation += total_i + total_d
        self._bounded_converge(active)
        self.batches_processed += 1
