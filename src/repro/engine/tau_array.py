"""Dense per-vertex and per-hyperedge shadows of the array engine.

The maintainers keep ``tau`` as a label-keyed dict: the public API, the
classification callbacks and every point read go through it.  On the
array engine a :class:`TauArray` shadows that dict with a dense ``int64``
array indexed by interned vertex id plus a ``live`` mask (a dead slot
holds 0).  The vectorised frontier kernels gather neighbour tau straight
from it, and ``mod``'s level sweep derives the vertices it lifts from it
in one masked pass per batch.  It keeps no level index: whole levels are
read off ``arr`` when they are needed (see
:meth:`~repro.core.backend.ArrayBackend.sweep_and_converge`).

On array-backed *hypergraphs* the frequent query is not a neighbour's tau
but the minimum tau over the other pins of a hyperedge (Algorithm 2 line
8).  :class:`EdgeMinShadow` keeps a dense per-hyperedge-id shadow of the
first and second order statistics of the pin taus plus one witness pin
achieving the minimum, maintained with dirty-edge invalidation: structural
pin changes and tau commits flip a ``valid`` bit, and the next query (or
the vectorised frontier kernel, in bulk) recomputes exactly the
invalidated edges.  ``min_excluding_id(e, v)`` then collapses to ``m2 if
v is the witness else m1`` -- correct under ties because the second order
statistic equals the minimum whenever the minimum is shared.  The
frontier kernels read it directly; no label-keyed adapter sits on top.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.parallel.runtime import map_ranges

__all__ = ["TauArray", "EdgeMinShadow", "INF"]

#: big sentinel standing in for +inf while staying in int64 arithmetic; it
#: exceeds any reachable h-index (bounded by max degree)
INF = np.int64(1) << 60


class TauArray:
    """Dense tau values plus a live mask, indexed by interned vertex id."""

    __slots__ = ("arr", "live")

    def __init__(self, capacity: int = 16) -> None:
        self.arr = np.zeros(capacity, dtype=np.int64)
        self.live = np.zeros(capacity, dtype=bool)

    @classmethod
    def from_graph(cls, graph, tau: Dict) -> "TauArray":
        """Initialise from an array substrate and a label-keyed tau dict."""
        t = cls(max(16, graph.interner.capacity))
        t._load(graph, tau)
        return t

    def _load(self, graph, tau: Dict) -> None:
        """Write every interned label's tau in one vectorised pass (labels
        the substrate does not hold are skipped)."""
        ids = graph.interner.ids_of(tau)
        values = np.fromiter(tau.values(), dtype=np.int64, count=len(tau))
        keep = ids >= 0
        self.bulk_set(ids[keep], values[keep])

    # -- point access ---------------------------------------------------------
    def _ensure(self, i: int) -> None:
        cap = len(self.arr)
        if i < cap:
            return
        new_cap = max(cap * 2, i + 1)
        arr = np.zeros(new_cap, dtype=np.int64)
        arr[:cap] = self.arr
        self.arr = arr
        live = np.zeros(new_cap, dtype=bool)
        live[:cap] = self.live
        self.live = live

    def set_(self, i: int, value: int) -> None:
        self._ensure(i)
        self.arr[i] = value
        self.live[i] = True

    def drop(self, i: int) -> None:
        """Retire slot ``i``; a dead slot holds 0."""
        if i < len(self.arr):
            self.live[i] = False
            self.arr[i] = 0

    # -- bulk access ----------------------------------------------------------
    def bulk_set(self, ids: np.ndarray, values: np.ndarray) -> None:
        if not len(ids):
            return
        self._ensure(int(ids.max()))
        self.arr[ids] = values
        self.live[ids] = True

    def resync(self, graph, tau: Dict) -> None:
        """Full rebuild from the label-keyed dict (the rollback path)."""
        self.arr[:] = 0
        self.live[:] = False
        self._load(graph, tau)

    def snapshot(self) -> Tuple[np.ndarray, np.ndarray]:
        """One-shot copy of the live ``(ids, values)`` pairs.

        The serve layer's vectorised view capture: both arrays are fresh
        (``nonzero`` allocates, fancy indexing copies), so a published
        snapshot is immune to later maintenance writes.
        """
        ids = np.nonzero(self.live)[0].astype(np.int64)
        return ids, self.arr[ids]

    def __repr__(self) -> str:
        return f"TauArray(live={int(self.live.sum())}, capacity={len(self.arr)})"


class EdgeMinShadow:
    """Dense per-hyperedge (min, second-min, witness) of pin taus.

    Indexed by interned hyperedge id.  Entries are recomputed lazily:
    callers invalidate on structural pin changes
    (:meth:`invalidate` / the maintainer's ``_apply_structural``) and on
    tau commits of a pin (:meth:`on_vertex_change` /
    :meth:`on_vertices_changed`; the frontier kernel clears ``valid``
    itself), and the next read refreshes -- point reads through
    :meth:`refresh_one`, the frontier kernel via one vectorised
    :meth:`refresh_distinct` pass over every edge it is about to gather.

    The representation is exact under ties: ``witness`` is *a* pin
    achieving ``m1`` and ``m2`` is the second order statistic (not the
    second *distinct* value), so ``min over pins != v`` is ``m2`` when
    ``v == witness`` and ``m1`` otherwise, in every case.  Size-1 edges
    carry ``m2 == INF`` (the empty minimum), mirroring ``math.inf`` on
    the dict path.
    """

    __slots__ = ("hg", "ta", "m1", "m2", "witness", "valid")

    def __init__(self, hg, tau_array: TauArray) -> None:
        self.hg = hg
        self.ta = tau_array
        cap = max(16, hg.edge_interner.capacity)
        self.m1 = np.full(cap, INF, dtype=np.int64)
        self.m2 = np.full(cap, INF, dtype=np.int64)
        self.witness = np.full(cap, -1, dtype=np.int64)
        self.valid = np.zeros(cap, dtype=bool)

    def _ensure(self, i: int) -> None:
        cap = len(self.valid)
        if i < cap:
            return
        new_cap = max(cap * 2, i + 1)
        for name, fill in (("m1", INF), ("m2", INF), ("witness", -1)):
            arr = getattr(self, name)
            grown = np.full(new_cap, fill, dtype=np.int64)
            grown[:cap] = arr
            setattr(self, name, grown)
        valid = np.zeros(new_cap, dtype=bool)
        valid[:cap] = self.valid
        self.valid = valid

    # -- invalidation ---------------------------------------------------------
    def invalidate(self, ei: int) -> None:
        """Pin set of edge ``ei`` changed (or its id was recycled)."""
        if ei < len(self.valid):
            self.valid[ei] = False

    def invalidate_all(self) -> None:
        """Wholesale reset (the rollback / resync path)."""
        self.valid[:] = False

    def on_vertex_change(self, vi: int) -> None:
        """tau of pin ``vi`` committed: dirty its incident edges."""
        starts, counts, pool = self.hg.incidence_arrays()
        if vi >= len(counts):
            return
        s, c = int(starts[vi]), int(counts[vi])
        if c:
            inc = pool[s : s + c]
            self._ensure(int(inc.max()))
            self.valid[inc] = False

    def on_vertices_changed(self, vids: np.ndarray) -> None:
        """Bulk tau commit: dirty every edge incident to ``vids``."""
        from repro.engine.frontier import _gather_ranges

        starts, counts, pool = self.hg.incidence_arrays()
        vids = vids[vids < len(counts)]
        if not len(vids):
            return
        inc, _ = _gather_ranges(starts, counts, pool, vids)
        if len(inc):
            self._ensure(int(inc.max()))
            self.valid[inc] = False

    # -- refresh --------------------------------------------------------------
    def refresh_ids(self, ids: np.ndarray) -> int:
        """Recompute the invalid entries among edge ids ``ids`` (duplicates
        tolerated); returns the number of pin reads performed."""
        if not len(ids):
            return 0
        return self.refresh_distinct(np.unique(ids))

    def refresh_distinct(self, ids: np.ndarray, rt=None) -> int:
        """Recompute the invalid entries among the *distinct* edge ids
        ``ids``; returns the pin reads performed -- the summed size of the
        stale edges.

        The recompute is a race-free chunk kernel over disjoint slices of
        ``ids`` (region ``shadow_refresh``), each stale edge reduced
        segment-wise with no sort: ``m1`` is the minimum pin tau, the
        witness the first pin holding it, and ``m2`` the minimum again with
        the witness slot masked to ``INF`` -- ``INF`` for a size-1 edge,
        ``m1`` again under a tie.  ``rt`` dispatches the chunks and meters
        the pin reads uniformly, ``pin_reads / len(ids)`` per edge.  The
        shadow and tau grow here, before dispatch: no chunk reallocates an
        array another chunk writes.
        """
        from repro.engine.frontier import _gather_ranges

        if not len(ids):
            return 0
        self._ensure(int(ids.max()))
        self.ta._ensure(self.hg.interner.capacity - 1)
        starts, counts, pool = self.hg.pin_arrays()
        ids = ids[ids < len(counts)]
        sizes = counts[ids]
        stale = ~self.valid[ids] & (sizes > 0)
        pin_reads = int(sizes[stale].sum())
        if not pin_reads:
            return 0
        arr = self.ta.arr

        def run_chunk(lo, hi):
            edges = ids[lo:hi][stale[lo:hi]]
            if not len(edges):
                return
            pins, ptr = _gather_ranges(starts, counts, pool, edges)
            vals = arr[pins]
            first = ptr[:-1]
            m1 = np.minimum.reduceat(vals, first)
            hits = np.flatnonzero(vals == np.repeat(m1, np.diff(ptr)))
            at_min = hits[np.searchsorted(hits, first)]
            self.witness[edges] = pins[at_min]
            vals[at_min] = INF
            self.m1[edges] = m1
            self.m2[edges] = np.minimum.reduceat(vals, first)
            self.valid[edges] = True

        per_edge = pin_reads / len(ids)
        map_ranges(rt, len(ids), run_chunk,
                   lambda lo, hi: per_edge * (hi - lo), region="shadow_refresh")
        return pin_reads

    def refresh_one(self, ei: int) -> None:
        if ei >= len(self.valid) or not self.valid[ei]:
            self.refresh_ids(np.asarray([ei], dtype=np.int64))

    # -- point queries ---------------------------------------------------------
    def edge_min_id(self, ei: int) -> int:
        """Minimum pin tau of live edge ``ei`` (INF sentinel when empty)."""
        self.refresh_one(ei)
        return int(self.m1[ei])

    def min_excluding_id(self, ei: int, vi: int) -> int:
        """``min over pins of ei excluding vi`` (INF when vi is the only pin)."""
        self.refresh_one(ei)
        if int(self.witness[ei]) == vi:
            return int(self.m2[ei])
        return int(self.m1[ei])

    def __repr__(self) -> str:
        return (
            f"EdgeMinShadow(valid={int(self.valid.sum())}, "
            f"capacity={len(self.valid)})"
        )
