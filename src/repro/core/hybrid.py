"""The hybrid maintainer (the paper's future work, Section VI).

    "Future work includes combining the two approaches into a hybrid
    approach that can provide both low latencies for small batches but
    addresses high variance."

The observation driving it (Section V-B): ``setmb`` wins on small batches
but with heavy-tailed latencies on large ones; ``mod`` has flat, predictable
latency that barely grows with batch size.  The hybrid therefore routes by
batch size with a configurable crossover threshold, and optionally applies
the paper's second suggestion -- changes that would make ``mod`` increment
many levels (low-core-value insertions hitting populous levels) are split
out and run through ``setmb`` -- via ``split_hot_levels``.

Both engines share one tau mapping, execution backend (and with it the
level index or dense shadow) and substrate, so routing is free of
synchronisation cost.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional

from repro.core.base import MaintainerBase
from repro.core.mod import ModMaintainer
from repro.core.setmb import SetMBMaintainer
from repro.graph.batch import Batch

__all__ = ["HybridMaintainer"]

Vertex = Hashable


class HybridMaintainer(MaintainerBase):
    """Route small batches to ``setmb`` and large ones to ``mod``.

    Parameters
    ----------
    threshold:
        Batches with at most this many changes go to ``setmb``.
    split_hot_levels:
        When routing to ``mod``, peel off changes whose minimum-pin level
        holds more than ``hot_level_fraction`` of all vertices and run them
        through ``setmb`` afterwards, bounding ``mod``'s worst-case
        increment blast radius.
    """

    algorithm = "hybrid"

    def __init__(
        self,
        sub,
        rt=None,
        *,
        tau: Optional[Dict[Vertex, int]] = None,
        threshold: int = 64,
        split_hot_levels: bool = False,
        hot_level_fraction: float = 0.5,
        use_min_cache: bool = True,
    ) -> None:
        super().__init__(sub, rt, tau=tau, use_min_cache=use_min_cache)
        self.threshold = threshold
        self.split_hot_levels = split_hot_levels
        self.hot_level_fraction = hot_level_fraction
        # the sub-maintainers adopt this instance's state wholesale
        self._mod = ModMaintainer.__new__(ModMaintainer)
        self._setmb = SetMBMaintainer.__new__(SetMBMaintainer)
        self._adopt(self._mod)
        self._adopt(self._setmb)
        self._mod.increment_policy = "paper"
        self._mod.conservative_cases = True
        self._mod.activate_deletion_levels = True
        self._mod.last_resolution = None
        self._setmb.minibatch_width = 64
        self._setmb.last_minibatches = 0
        self._setmb.last_iterations = 0
        self.routed_to_mod = 0
        self.routed_to_setmb = 0

    def _adopt(self, child: MaintainerBase) -> None:
        """Share this maintainer's live state with a child engine."""
        child.sub = self.sub
        child.rt = self.rt
        child.tau = self.tau
        child.min_cache = self.min_cache
        child.use_min_cache = self.use_min_cache
        child.backend = self.backend
        child.batches_processed = 0
        # validation and transactions live at the hybrid level; children
        # inherit the live journal/fault hook per batch (see _apply_batch)
        child.transactional = False
        child.validate_batches = False
        child.fault_hook = None
        child.view_publisher = None
        child._view_delta = None
        child._txn_journal = None
        child._fault_index = 0

    def _set_engine(self, engine: str) -> None:
        super()._set_engine(engine)
        # the children adopted the parent's backend by reference; keep
        # them on the same engine after a forced switch
        for child in (self._mod, self._setmb):
            child.backend = self.backend
            child.min_cache = self.min_cache

    def _hot_levels(self) -> set:
        n = max(1, len(self.tau))
        return {
            k for k in self.levels()
            if len(self.vertices_at_level(k)) > self.hot_level_fraction * n
        }

    def _min_pin_level(self, change) -> int:
        pins = list(self.sub.pins(change.edge)) or [change.vertex]
        return min(self.tau.get(p, 0) for p in pins + [change.vertex])

    def _apply_batch(self, batch) -> None:
        # the child engines mutate shared state inside *this* maintainer's
        # transaction: hand them the live journal and chaos hook
        for child in (self._mod, self._setmb):
            child._txn_journal = self._txn_journal
            child.fault_hook = self.fault_hook
            child._view_delta = self._view_delta
        n = len(batch)
        if n <= self.threshold:
            self._setmb.apply_batch(batch)
            self.routed_to_setmb += 1
        elif self.split_hot_levels:
            hot = self._hot_levels()
            cool, deferred = [], []
            for change in batch:
                self.rt.serial(1)
                if change.insert and self._min_pin_level(change) in hot:
                    deferred.append(change)
                else:
                    cool.append(change)
            if cool:
                self._mod.apply_batch(Batch(cool))
                self.routed_to_mod += 1
            if deferred:
                for piece_start in range(0, len(deferred), self.threshold):
                    self._setmb.apply_batch(
                        Batch(deferred[piece_start:piece_start + self.threshold])
                    )
                self.routed_to_setmb += 1
        else:
            self._mod.apply_batch(batch)
            self.routed_to_mod += 1
        self.batches_processed += 1
