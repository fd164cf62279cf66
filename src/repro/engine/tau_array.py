"""Array-backed tau values with a lazily rebuilt level index.

The maintainers keep ``tau`` as a label-keyed dict (the public API and the
classification callbacks read it) plus, per tau value, a set bucket so the
``mod`` increment sweep touches only affected levels.  On the array engine
a :class:`TauArray` shadows the dict with a dense ``int64`` array indexed
by interned vertex id: the vectorised frontier sweep gathers neighbour tau
straight from it, and the increment sweep walks ``np.unique`` buckets
instead of Python sets.

The level index is a GBBS-style lazy bucket structure (Julienne's
buckets, Dhulipala/Blelloch/Shun, arXiv:1805.05208): one bucket per
distinct tau value, holding a compacted id array plus a pending append
list.  Writes only *append* the id to its new bucket (amortised O(1),
no removal from the old one); reads filter stale entries -- ids whose
current tau no longer matches the bucket, or that died -- with one
vectorised mask + ``np.unique`` pass over exactly the buckets touched.
This replaces the previous dirty-flag design, whose every sweep paid a
full ``argsort`` over all live vertices even when a batch had dirtied
only a handful of levels.  A stale-entry cap (4x the live count)
bounds bucket memory by triggering the occasional full rebuild, which
is also the rollback/resync path.

On array-backed *hypergraphs* the frequent query is not a neighbour's tau
but the minimum tau over the other pins of a hyperedge (Algorithm 2 line
8).  :class:`EdgeMinShadow` keeps a dense per-hyperedge-id shadow of the
first and second order statistics of the pin taus plus one witness pin
achieving the minimum, maintained with dirty-edge invalidation: structural
pin changes and tau commits flip a ``valid`` bit, and the next query (or
the vectorised frontier kernel, in bulk) recomputes exactly the
invalidated edges.  ``min_excluding(e, v)`` then collapses to ``m2 if v is
the witness else m1`` -- correct under ties because the second order
statistic equals the minimum whenever the minimum is shared.
:class:`ArrayMinCache` wraps the shadow in the label-keyed interface of
:class:`~repro.graph.dynamic_hypergraph.MinCache` so every dict-path
algorithm (and the approximate maintainer's bounded convergence) uses it
transparently.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

import numpy as np

__all__ = ["TauArray", "EdgeMinShadow", "ArrayMinCache", "INF"]

#: big sentinel standing in for +inf while staying in int64 arithmetic; it
#: exceeds any reachable h-index (bounded by max degree)
INF = np.int64(1) << 60


_EMPTY_IDS = np.zeros(0, dtype=np.int64)


class TauArray:
    """Dense tau values + live mask + GBBS-style lazy level buckets."""

    __slots__ = ("arr", "live", "_bk_arr", "_bk_pending", "_stale", "_all_dirty",
                 "_clean")

    def __init__(self, capacity: int = 16) -> None:
        self.arr = np.zeros(capacity, dtype=np.int64)
        self.live = np.zeros(capacity, dtype=bool)
        #: level -> compacted (sorted, deduped, filtered) id array
        self._bk_arr: Dict[int, np.ndarray] = {}
        #: level -> pending appended ids, not yet compacted
        self._bk_pending: Dict[int, list] = {}
        #: appends+drops since the last full rebuild (bounds bucket memory)
        self._stale = 0
        #: buckets unusable; rebuild wholesale on next read
        self._all_dirty = True
        #: every compacted bucket is exact (no writes since last compact-all)
        self._clean = False

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
        if not self._all_dirty:
            self._bk_pending.setdefault(int(value), []).append(int(i))
            self._stale += 1
        self._clean = False

    def drop(self, i: int) -> None:
        if i < len(self.arr):
            self.live[i] = False
            self.arr[i] = 0
            self._stale += 1
            self._clean = False

    def get(self, i: int) -> int:
        return int(self.arr[i]) if i < len(self.arr) and self.live[i] else 0

    # -- bulk access ----------------------------------------------------------
    def bulk_set(self, ids: np.ndarray, values: np.ndarray) -> None:
        if not len(ids):
            return
        self._ensure(int(ids.max()))
        self.arr[ids] = values
        self.live[ids] = True
        if not self._all_dirty:
            vals = np.broadcast_to(np.asarray(values, dtype=np.int64), ids.shape)
            # group ids by value via one sort -- a per-level ``inv == j``
            # scan is quadratic in the number of distinct levels
            order = np.argsort(vals, kind="stable")
            sv = vals[order]
            si = ids[order]
            bounds = np.flatnonzero(np.diff(sv)) + 1
            starts = np.concatenate(([0], bounds))
            stops = np.concatenate((bounds, [len(sv)]))
            pend = self._bk_pending
            for lo, hi in zip(starts.tolist(), stops.tolist()):
                pend.setdefault(int(sv[lo]), []).extend(si[lo:hi].tolist())
            self._stale += len(ids)
        self._clean = False

    def resync(self, graph, tau: Dict) -> None:
        """Full rebuild from the label-keyed dict (the rollback path)."""
        self.arr[:] = 0
        self.live[:] = False
        self._bk_arr = {}
        self._bk_pending = {}
        self._all_dirty = True
        self._clean = False
        self._load(graph, tau)

    # -- the lazy bucket level index ------------------------------------------
    def _full_rebuild(self) -> None:
        """Regenerate every bucket from the dense arrays (argsort pass);
        the resync path and the stale-cap escape hatch."""
        self._bk_pending = {}
        self._bk_arr = {}
        ids = np.nonzero(self.live)[0].astype(np.int64)
        if len(ids):
            values = self.arr[ids]
            order = np.argsort(values, kind="stable")
            sv = values[order]
            si = ids[order]
            levels, first = np.unique(sv, return_index=True)
            bounds = np.append(first, len(sv))
            for j, lv in enumerate(levels.tolist()):
                self._bk_arr[int(lv)] = si[bounds[j]:bounds[j + 1]]
        self._stale = 0
        self._all_dirty = False
        self._clean = True

    def _maybe_rebuild(self) -> None:
        if self._all_dirty:
            self._full_rebuild()
        elif self._stale > 1024 and self._stale > 4 * int(self.live.sum()):
            self._full_rebuild()

    def _compact_level(self, k: int) -> np.ndarray:
        """Merge pending appends into bucket ``k`` and filter stale entries
        (dead ids, ids whose tau moved on, recycled-id duplicates)."""
        parts = []
        stored = self._bk_arr.get(k)
        if stored is not None and len(stored):
            parts.append(stored)
        pend = self._bk_pending.pop(k, None)
        if pend:
            parts.append(np.asarray(pend, dtype=np.int64))
        if not parts:
            self._bk_arr.pop(k, None)
            return _EMPTY_IDS
        ids = parts[0] if len(parts) == 1 else np.concatenate(parts)
        ids = ids[self.live[ids] & (self.arr[ids] == k)]
        ids = np.unique(ids)
        if len(ids):
            self._bk_arr[k] = ids
        else:
            self._bk_arr.pop(k, None)
        return ids

    def levels(self) -> np.ndarray:
        """Distinct live tau values, ascending."""
        self._maybe_rebuild()
        if not self._clean:
            for k in list(self._bk_pending.keys() | self._bk_arr.keys()):
                self._compact_level(k)
            self._stale = 0
            self._clean = True
        return np.array(sorted(self._bk_arr.keys()), dtype=np.int64)

    def ids_at_level(self, k: int) -> np.ndarray:
        """Dense ids currently at tau value ``k`` (sorted, distinct)."""
        self._maybe_rebuild()
        k = int(k)
        if self._clean:
            ids = self._bk_arr.get(k)
            return ids if ids is not None else _EMPTY_IDS
        return self._compact_level(k)

    def snapshot(self) -> Tuple[np.ndarray, np.ndarray]:
        """One-shot copy of the live ``(ids, values)`` pairs.

        The serve layer's vectorised view capture: both arrays are fresh
        (``nonzero`` allocates, fancy indexing copies), so a published
        snapshot is immune to later maintenance writes.  Does not touch
        the lazy buckets -- capture cost is O(live) regardless of how
        stale the level index is.
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
    :meth:`on_vertices_changed`), and the next read refreshes -- point
    reads via a scalar scan, the frontier kernel via one vectorised
    :meth:`refresh_ids` pass over every edge it is about to gather.

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
        """Recompute the invalid entries among edge ids ``ids`` in one
        vectorised pass; returns the number of pin reads performed."""
        from repro.engine.frontier import _gather_ranges

        if not len(ids):
            return 0
        self._ensure(int(ids.max()))
        dirty = ids[~self.valid[ids]]
        if not len(dirty):
            return 0
        starts, counts, pool = self.hg.pin_arrays()
        dirty = dirty[(dirty < len(counts)) & (counts[dirty] > 0)]
        if not len(dirty):
            return 0
        pins, ptr = _gather_ranges(starts, counts, pool, dirty)
        ta = self.ta
        ta._ensure(int(pins.max()))
        vals = ta.arr[pins]
        sizes = np.diff(ptr)
        seg = np.repeat(np.arange(len(dirty), dtype=np.int64), sizes)
        order = np.lexsort((vals, seg))
        sv = vals[order]
        sp = pins[order]
        first = ptr[:-1]
        self.m1[dirty] = sv[first]
        self.witness[dirty] = sp[first]
        m2 = np.full(len(dirty), INF, dtype=np.int64)
        has2 = sizes >= 2
        m2[has2] = sv[first[has2] + 1]
        self.m2[dirty] = m2
        self.valid[dirty] = True
        return int(len(pins))

    def refresh_one(self, ei: int) -> None:
        if ei >= len(self.valid) or not self.valid[ei]:
            self.refresh_ids(np.asarray([ei], dtype=np.int64))

    # -- point queries (dict-path compatibility) -------------------------------
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


class ArrayMinCache:
    """Label-keyed :class:`~repro.graph.dynamic_hypergraph.MinCache`
    interface over an :class:`EdgeMinShadow`.

    Algorithms written against the dict path (``hhc_local``'s per-vertex
    update, the approximate maintainer) call ``edge_min`` /
    ``min_excluding`` with labels and expect ``float`` results with
    ``math.inf`` for empty minima; this adapter resolves labels through
    the substrate's interners and converts the INF sentinel back.

    ``on_value_change`` is a deliberate no-op: on the array engine the
    maintainer's commit hooks (``_set_tau`` / ``_on_change_hook`` / the
    frontier kernel) dirty the shadow against *dense ids*, which also
    covers the algorithms that run with ``use_min_cache=False``.
    ``enabled=False`` falls back to honest pin scans for the min-cache
    ablation benchmark.
    """

    def __init__(self, sub, shadow: EdgeMinShadow, *, enabled: bool = True,
                 charge=None) -> None:
        self._sub = sub
        self._shadow = shadow
        self.enabled = enabled
        self._charge = charge if charge is not None else (lambda n: None)

    def _scan_excluding(self, e, v) -> float:
        best: float = math.inf
        n = 0
        get = self._shadow.ta.get
        id_of = self._sub.interner.id_of
        for w in self._sub.pins(e):
            n += 1
            if w != v:
                i = id_of(w)
                t = get(i) if i is not None else 0
                if t < best:
                    best = t
        self._charge(n)
        return best

    def edge_min(self, e) -> float:
        if not self.enabled:
            return self._scan_excluding(e, object())
        ei = self._sub.edge_interner.id_of(e)
        if ei is None:
            return math.inf
        self._charge(1)
        m = self._shadow.edge_min_id(ei)
        return math.inf if m >= INF else m

    def min_excluding(self, e, v) -> float:
        if not self.enabled:
            return self._scan_excluding(e, v)
        ei = self._sub.edge_interner.id_of(e)
        if ei is None:
            return math.inf
        vi = self._sub.interner.id_of(v)
        self._charge(1)
        m = self._shadow.min_excluding_id(ei, vi if vi is not None else -1)
        return math.inf if m >= INF else m

    def on_value_change(self, v) -> None:
        # dense-id hooks on the maintainer dirty the shadow; see class docs
        return None

    def invalidate(self, e) -> None:
        ei = self._sub.edge_interner.id_of(e)
        if ei is not None:
            self._shadow.invalidate(ei)

    def clear(self) -> None:
        self._shadow.invalidate_all()
