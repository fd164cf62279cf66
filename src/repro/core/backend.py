"""The execution-backend seam between maintainers and engines.

Every maintenance algorithm is written against
:class:`~repro.core.base.MaintainerBase`'s label-keyed state -- the
``tau`` dict and the substrate protocol.  *How* the hot loops execute --
per-vertex Python iteration over hash containers, or whole-frontier
vectorised NumPy sweeps over dense arrays -- is the execution backend's
business, and this module is the one place that business lives:

* :class:`ExecutionBackend` -- the protocol.  A backend owns the static
  decomposition that seeds a maintainer, the state it derives from
  ``tau`` (a level index or a dense shadow), min-cache construction, the
  tau-commit and structural-change hooks, frontier-convergence dispatch,
  ``mod``'s level sweep, the level queries, and rollback
  resynchronisation.
* :class:`DictBackend` -- the reference implementation: pure hash-based
  execution, one vertex at a time through the runtime's
  ``parallel_for``; its seed is the asynchronous ``hhc_local``.  Works
  on every substrate.  It keeps the label-keyed level index
  ``{tau value: set of vertices}`` through which its sweep touches only
  the affected levels.
* :class:`ArrayBackend` -- the flat-array engine: a dense
  :class:`~repro.engine.tau_array.TauArray` shadow (plus an
  :class:`~repro.engine.tau_array.EdgeMinShadow` on hypergraphs) and the
  vectorised frontier kernels of :mod:`repro.engine.frontier`, metered
  as chunked parallel regions through
  :meth:`~repro.parallel.runtime.ParallelRuntime.parallel_ranges`; its
  seed is the synchronous Algorithm 1 run through those same kernels.
  It keeps no level index: its sweep and level queries read whole
  levels off the dense array in one masked pass.  Requires an
  array-backed substrate (:class:`~repro.engine.ArrayGraph` /
  :class:`~repro.engine.ArrayHypergraph`).

:func:`select_backend` is the single policy point mapping an ``engine=``
knob (``"auto"`` / ``"array"`` / ``"dict"``) to a backend instance, and
:func:`wrap_substrate` is the single conversion point lifting a plain
dict substrate into its array twin -- ``make_maintainer``, the
``CoreMaintainer`` facade and the eval harness go through these two
functions instead of growing their own engine plumbing.  (Checkpoint
restore and WAL recovery never hold a dict substrate on the array
engine: they bulk-load the array twin straight from the checkpoint.)

Both backends maintain the invariant that the label-keyed ``tau`` dict
stays the source of truth.  What a backend derives from it -- the dict
backend's level index, the array backend's dense shadows -- is kept in
sync at commit points and rebuilt wholesale on transactional rollback.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.core.static import hhc_local, static_hindex
from repro.engine.array_graph import ArrayGraph
from repro.engine.array_hypergraph import ArrayHypergraph
from repro.engine.columnar import maintain_h_columnar
from repro.engine.frontier import (
    hhc_frontier_csr,
    hhc_frontier_incidence,
    rise_region_csr,
    support_peel_csr,
)
from repro.engine.tau_array import EdgeMinShadow, TauArray
from repro.graph.columnar import ColumnarBatch
from repro.graph.dynamic_hypergraph import MinCache
from repro.graph.substrate import Change
from repro.parallel.runtime import map_ranges

__all__ = [
    "ExecutionBackend",
    "DictBackend",
    "ArrayBackend",
    "select_backend",
    "wrap_substrate",
]

Vertex = Hashable


class ExecutionBackend:
    """Protocol every execution backend implements.

    A backend is *bound* to exactly one maintainer (:meth:`bind`) and
    thereafter reads the maintainer's shared state (``sub`` / ``rt`` /
    ``tau``) directly; the hybrid maintainer's child engines share their
    parent's backend instance the same way they share ``tau``.
    """

    #: engine tag, surfaced as ``MaintainerBase.engine``
    name: str = "none"

    m = None  # the bound maintainer

    # -- lifecycle ------------------------------------------------------------
    def decompose(self, sub, rt) -> Dict[Vertex, int]:
        """The static decomposition (Algorithm 1) of ``sub`` from degrees:
        the label-keyed kappa a maintainer built without ``tau=`` starts
        from.  Runs before :meth:`bind`; a backend may keep the state it
        computed for the maintainer it is then bound to."""
        raise NotImplementedError

    def bind(self, maintainer) -> "ExecutionBackend":
        """Attach to ``maintainer``'s live state; returns ``self``."""
        self.m = maintainer
        return self

    def make_min_cache(self):
        """The label-keyed hyperedge min cache this backend's convergence
        reads, or ``None`` when its kernels need none."""
        return None

    # -- tau commit hooks -----------------------------------------------------
    def on_tau_commit(self, v: Vertex, old: Optional[int],
                      new: Optional[int]) -> None:
        """``tau[v]`` moved from ``old`` to ``new`` (the dict is already
        updated); ``old`` is ``None`` for a vertex entering the
        decomposition, ``new`` for one leaving it."""
        raise NotImplementedError

    # -- structural-change hooks ----------------------------------------------
    def pre_structural(self, change: Change):
        """Capture backend state *before* ``change`` mutates the
        substrate; the returned token is handed to
        :meth:`post_structural` when the change actually applied."""
        raise NotImplementedError

    def post_structural(self, change: Change, token) -> None:
        """``change`` landed on the substrate; retire/invalidate
        backend state captured in ``token``."""
        raise NotImplementedError

    # -- bulk batch application -----------------------------------------------
    def maintain_h_columnar(self, batch, *, conservative: bool = True,
                            deletion_gains: bool = True):
        """Attempt the whole-batch columnar MaintainH + classification.

        Returns ``(I, D, touched, sources)`` on success or ``None`` when
        this backend (or this batch) has no bulk path -- the caller then
        runs the per-``Change`` reference loop.  ``sources`` are the
        inserted graph edges' endpoints; ``deletion_gains=False`` drops
        the gain records of deleted graph edges (``mod``'s bounded rule).  The
        default is ``None``: only engines with vectorised bulk kernels
        override it.
        """
        return None

    # -- convergence ----------------------------------------------------------
    def converge(self, active: Iterable[Vertex]) -> None:
        """Run Algorithm 2 from the maintainer's current tau with the
        given frontier."""
        raise NotImplementedError

    def sweep_and_converge(self, resolution, touched,
                           activate_deletion_levels: bool = True,
                           sources=None) -> None:
        """``mod``'s Algorithm 4 level sweep (lines 13-17) followed by
        convergence from the incremented + touched frontier.

        ``sources`` (the inserted edges' endpoints, on graphs) narrows the
        sweep to the bounded rule's rise region: only vertices a
        qualifying path joins to a source and the support peel keeps are
        lifted (see :func:`~repro.engine.frontier.rise_region_csr` and
        :func:`~repro.engine.frontier.support_peel_csr`), and no level is
        activated wholesale, whatever ``activate_deletion_levels`` says."""
        raise NotImplementedError

    # -- rollback -------------------------------------------------------------
    def rollback_resync(self) -> None:
        """Transactional rollback restored the label-keyed ``tau``;
        rebuild what this backend derives from it."""
        raise NotImplementedError

    # -- level queries --------------------------------------------------------
    def levels(self) -> List[int]:
        """Distinct tau values of the maintained vertices, ascending."""
        raise NotImplementedError

    def vertices_at_level(self, k: int) -> FrozenSet[Vertex]:
        """The vertices whose tau is ``k``, as an immutable copy."""
        raise NotImplementedError

    def vertices_at_least(self, k: int) -> Set[Vertex]:
        """The vertices whose tau is at least ``k``, as a fresh set."""
        out: Set[Vertex] = set()
        for level in self.levels():
            if level >= k:
                out.update(self.vertices_at_level(level))
        return out

    def view_levels(self) -> Dict[int, FrozenSet[Vertex]]:
        """Immutable ``{level: frozenset(labels)}`` capture at this
        instant -- the serve layer's full snapshot rebuild."""
        return {k: self.vertices_at_level(k) for k in self.levels()}

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class DictBackend(ExecutionBackend):
    """Hash-based execution: the reference path, valid on any substrate.

    Owns the label-keyed level index ``{tau value: set of vertices}``,
    kept in step by :meth:`on_tau_commit` and rebuilt by
    :meth:`rollback_resync`."""

    name = "dict"

    def decompose(self, sub, rt) -> Dict[Vertex, int]:
        return static_hindex(sub, rt)

    def bind(self, maintainer) -> "DictBackend":
        self.m = maintainer
        self.rollback_resync()
        return self

    def make_min_cache(self):
        m = self.m
        return MinCache(m.sub, m.tau, charge=m.rt.charge)

    def on_tau_commit(self, v: Vertex, old: Optional[int],
                      new: Optional[int]) -> None:
        index = self._level_index
        if old is not None:
            bucket = index.get(old)
            if bucket is not None:
                bucket.discard(v)
                if not bucket:
                    del index[old]
        if new is not None:
            index.setdefault(new, set()).add(v)

    def pre_structural(self, change: Change):
        return None

    def post_structural(self, change: Change, token) -> None:
        return None

    def converge(self, active: Iterable[Vertex]) -> None:
        m = self.m
        hhc_local(
            m.sub,
            m.rt,
            tau=m.tau,
            frontier=active,
            min_cache=m.min_cache,
            on_change=m._on_change_hook,
        )

    def sweep_and_converge(self, resolution, touched,
                           activate_deletion_levels: bool = True,
                           sources=None) -> None:
        # Algorithm 4 lines 13-17, restricted to resolved levels through
        # the level index.  Collect moves first: mutating the index
        # mid-scan would double-apply increments when levels collide.
        m = self.m
        rt = m.rt
        index = self._level_index
        moves: List[Tuple[Vertex, int, int]] = []
        active = set(touched)
        if sources is not None:
            tau = m.tau
            for v in self._rise_region(resolution, sources):
                moves.append((v, tau[v], resolution.increment(tau[v])))
        else:
            for level in list(index.keys()):
                inc = resolution.increment(level)
                if inc > 0:
                    for v in index[level]:
                        moves.append((v, level, inc))
                elif activate_deletion_levels and resolution.should_activate(level):
                    active.update(index[level])

        def apply_move(move):
            rt.charge(1)
            return move

        rt.parallel_for(moves, apply_move, region="mod_apply_increments")
        for v, level, inc in moves:
            m._set_tau(v, level + inc)
            active.add(v)
        self.converge(active)

    def _rise_region(self, resolution, sources) -> List[Vertex]:
        """The reference bounded lift set: the rise region -- every
        vertex ``v`` some path from a source reaches through vertices at
        levels ``<= tau[v]`` whose increment is positive -- after the
        support peel.  ``best[v]`` is the least maximum level over such
        paths (label-correcting rounds)."""
        m = self.m
        tau, neighbors = m.tau, m.sub.neighbors
        rising = {k for k in self._level_index if resolution.increment(k) > 0}
        best: Dict[Vertex, int] = {}
        for s in sources:
            t = tau.get(s)
            if t in rising:
                best[s] = t
        frontier = list(best)

        def expand(u):
            bu = best[u]
            out = []
            for w in neighbors(u):
                tw = tau[w]
                if tw in rising:
                    out.append((w, bu if bu > tw else tw))
            m.rt.charge(len(out) + 1)
            return out

        while frontier:
            reached: Set[Vertex] = set()
            for out in m.rt.parallel_for(frontier, expand, region="rise_region"):
                for w, b in out:
                    if b < best.get(w, b + 1):
                        best[w] = b
                        reached.add(w)
            frontier = list(reached)
        return self._support_peel([v for v, b in best.items() if b == tau[v]])

    def _support_peel(self, region: List[Vertex]) -> List[Vertex]:
        """The reference support peel of the rise region: remove ``v``
        while at most ``tau[v]`` of its neighbours sit above ``tau[v]`` or
        are still in the set, one queue pop at a time.  What is left is
        the greatest support-closed subset, which holds every riser
        (docs/ALGORITHMS.md, step (b'))."""
        m = self.m
        tau, neighbors, rt = m.tau, m.sub.neighbors, m.rt
        members = set(region)

        def count(v):
            t, scanned, held = tau[v], 0, 0
            for w in neighbors(v):
                scanned += 1
                if w in members or tau[w] > t:
                    held += 1
            rt.charge(scanned + 1)
            return held

        support = dict(zip(region, rt.parallel_for(region, count, region="rise_peel")))
        queue = [v for v in region if support[v] <= tau[v]]
        members.difference_update(queue)
        while queue:
            v = queue.pop()
            t, scanned = tau[v], 0
            for w in neighbors(v):
                scanned += 1
                # v stops counting for w unless it sat above w
                if w in members and tau[w] >= t:
                    support[w] -= 1
                    if support[w] <= tau[w]:
                        members.discard(w)
                        queue.append(w)
            rt.charge(scanned + 1)
        return [v for v in region if v in members]

    def rollback_resync(self) -> None:
        # (re)build the level index {tau value: set of vertices} from tau
        self._level_index: Dict[int, Set[Vertex]] = {}
        for v, k in self.m.tau.items():
            self._level_index.setdefault(k, set()).add(v)

    def levels(self) -> List[int]:
        return sorted(self._level_index)

    def vertices_at_level(self, k: int) -> FrozenSet[Vertex]:
        return frozenset(self._level_index.get(k, ()))


class ArrayBackend(ExecutionBackend):
    """Vectorised flat-array execution over a dense tau shadow.

    Owns the :class:`TauArray` (and, on hypergraphs, the
    :class:`EdgeMinShadow`) and dispatches convergence to the NumPy
    frontier kernels, which report their per-chunk work through
    ``rt.parallel_ranges`` so the simulated runtime sees real parallel
    regions instead of one serial lump.
    """

    name = "array"

    def __init__(self) -> None:
        self.tau_array: Optional[TauArray] = None
        self.edge_shadow: Optional[EdgeMinShadow] = None
        #: batches that took the columnar bulk path (diagnostics)
        self.columnar_batches = 0

    def decompose(self, sub, rt) -> Dict[Vertex, int]:
        """Synchronous Algorithm 1 as whole-frontier array passes: tau
        starts at every vertex's degree with every vertex active, and the
        frontier kernels iterate to the fixpoint (kappa).  The dense tau
        and min-tau shadow it leaves behind are the ones :meth:`bind`
        adopts."""
        self._require_array(sub)
        is_hyper = getattr(sub, "is_hypergraph", False)
        _, degrees, _ = sub.incidence_arrays() if is_hyper else sub.adjacency_arrays()
        ids = sub.live_ids()
        ta = TauArray(max(16, sub.interner.capacity))
        ta.bulk_set(ids, degrees[ids])
        if is_hyper:
            shadow = EdgeMinShadow(sub, ta)
            hhc_frontier_incidence(sub, ta, shadow, ids, rt=rt)
        else:
            shadow = None
            hhc_frontier_csr(sub, ta, ids, rt=rt)
        self.tau_array, self.edge_shadow = ta, shadow
        labels = list(sub.vertices())
        return dict(zip(labels, ta.arr[sub.interner.ids_of(labels)].tolist()))

    def bind(self, maintainer) -> "ArrayBackend":
        self.m = maintainer
        sub = maintainer.sub
        self._require_array(sub)
        if self.tau_array is None:
            self.tau_array = TauArray.from_graph(sub, maintainer.tau)
            if getattr(sub, "is_hypergraph", False):
                self.edge_shadow = EdgeMinShadow(sub, self.tau_array)
        return self

    @staticmethod
    def _require_array(sub) -> None:
        if not getattr(sub, "is_array_backed", False):
            raise ValueError(
                "ArrayBackend needs an array-backed substrate; wrap the "
                "graph in repro.engine.ArrayGraph or the hypergraph in "
                "repro.engine.ArrayHypergraph (or use "
                "CoreMaintainer(..., engine='array'))"
            )

    def on_tau_commit(self, v: Vertex, old: Optional[int],
                      new: Optional[int]) -> None:
        if new is None:
            # a vertex leaving the decomposition left the interner too;
            # the structural hooks retired its slot by its captured id
            return
        i = self.m.sub.interner.id_of(v)
        if i is not None:
            self.tau_array.set_(i, new)
            if self.edge_shadow is not None:
                self.edge_shadow.on_vertex_change(i)

    def pre_structural(self, change: Change):
        if change.insert:
            return None
        # capture dense ids before the deletion can release them: a
        # vertex whose degree hits zero leaves the interner, and its
        # tau-array slot must be retired with it (the id may be recycled
        # for a different label).  A graph change can kill either
        # endpoint; a hypergraph pin change only the named pin.  The
        # hyperedge id likewise must be captured pre-deletion so a
        # recycled slot cannot keep a stale valid shadow entry.
        sub = self.m.sub
        id_of = sub.interner.id_of
        if getattr(sub, "is_hypergraph", False):
            dead_ids = [(change.vertex, id_of(change.vertex))]
        else:
            dead_ids = [(u, id_of(u)) for u in change.edge]
        shadow_eid = None
        if self.edge_shadow is not None:
            shadow_eid = sub.edge_interner.id_of(change.edge)
        return (dead_ids, shadow_eid)

    def post_structural(self, change: Change, token) -> None:
        sub = self.m.sub
        if token is not None:
            dead_ids, shadow_eid = token
            has_vertex = sub.has_vertex
            for u, i in dead_ids:
                if i is not None and not has_vertex(u):
                    self.tau_array.drop(i)
        else:
            shadow_eid = None
        if self.edge_shadow is not None:
            if change.insert:
                shadow_eid = sub.edge_interner.id_of(change.edge)
            if shadow_eid is not None:
                self.edge_shadow.invalidate(shadow_eid)

    # -- bulk batch application -----------------------------------------------
    def maintain_h_columnar(self, batch, *, conservative: bool = True,
                            deletion_gains: bool = True):
        """The columnar fast path: convert (or accept) a
        :class:`~repro.graph.columnar.ColumnarBatch` and run the bulk
        MaintainH + classification kernels of
        :mod:`repro.engine.columnar`.  ``None`` means the batch is not
        plain (non-integer labels, duplicate units, absent deletions,
        present insertions) and nothing was mutated -- the caller falls
        back to the per-``Change`` reference loop.
        """
        if isinstance(batch, ColumnarBatch):
            cb = batch
        else:
            cb = ColumnarBatch.from_batch(
                batch,
                is_hyper=bool(getattr(self.m.sub, "is_hypergraph", False)),
            )
            if cb is None:
                return None
        result = maintain_h_columnar(self, cb, conservative=conservative,
                                     deletion_gains=deletion_gains)
        if result is not None:
            self.columnar_batches += 1
        return result

    # -- convergence ----------------------------------------------------------
    def converge(self, active: Iterable[Vertex]) -> None:
        self._converge_ids(self.m.sub.ids_of(active))

    def _converge_ids(self, ids: np.ndarray) -> None:
        """Frontier convergence over a dense-id frontier."""
        m = self.m

        # defer the label-keyed dict sync to one bulk pass after the
        # fixpoint: a vertex changing across several Jacobi iterations
        # costs one dict commit, not one per iteration.  The first commit
        # a vertex appears in carries its pre-convergence value (the
        # dense array and the dict agree on entry).
        changed_acc: List[np.ndarray] = []
        old_acc: List[np.ndarray] = []

        def commit(changed, old, new):
            changed_acc.append(changed)
            old_acc.append(old)

        ta = self.tau_array
        if self.edge_shadow is not None:
            hhc_frontier_incidence(
                m.sub, ta, self.edge_shadow, ids,
                rt=m.rt, on_commit=commit,
            )
        else:
            hhc_frontier_csr(
                m.sub, ta, ids, rt=m.rt, on_commit=commit
            )
        if not changed_acc:
            return
        uq, first_idx = np.unique(np.concatenate(changed_acc),
                                  return_index=True)
        old_first = np.concatenate(old_acc)[first_idx]
        final = ta.arr[uq]
        moved = old_first != final
        if not moved.any():
            return
        labels = m.sub.interner.labels_of(uq[moved].tolist())
        delta = m._view_delta
        if delta is not None:
            # first-seen-old: a vertex already recorded this batch keeps
            # its pre-batch value (the dict and dense array agree on
            # entry, so ``old_first`` is the value as of the last commit)
            for lbl, old in zip(labels, old_first[moved].tolist()):
                if lbl not in delta:
                    delta[lbl] = old
        m.tau.update(zip(labels, final[moved].tolist()))

    def sweep_and_converge(self, resolution, touched,
                           activate_deletion_levels: bool = True,
                           sources=None) -> None:
        """The Algorithm 4 level sweep on the flat-array engine.

        The vertices it lifts come off the dense tau array, not a level
        index: under the paper and safe rules one masked pass over
        ``arr`` selects every live vertex whose level has a positive
        increment (and, for line 16, every vertex whose level
        activates); with ``sources`` they are the support-peeled rise
        region (:func:`~repro.engine.frontier.rise_region_csr`, then
        :func:`~repro.engine.frontier.support_peel_csr`).  Either set is
        grouped by level (:meth:`_moves`).  Moves are collected before
        the first tau write, mirroring the dict path's
        collect-then-apply.  The dense writes run as one
        ``mod_apply_increments`` chunk kernel over disjoint slices of the
        moved ids, mirroring the dict path's ``parallel_for`` over the
        same move set; the label-keyed dict is written serially after it.
        """
        m = self.m
        ta = self.tau_array
        rt = m.rt
        # the columnar path hands touched vertices over as dense ids
        # already; the reference path as a label set
        if isinstance(touched, np.ndarray):
            frontier = [touched]
        else:
            frontier = [m.sub.ids_of(touched)]
        if sources is not None:
            moves = self._rise_moves(resolution, sources)
        else:
            incs = self._increments(resolution)
            moves = self._moves(np.flatnonzero(ta.live & (incs[ta.arr] > 0)), incs)
            if activate_deletion_levels:
                activates = np.fromiter(
                    (resolution.should_activate(k) for k in range(len(incs))),
                    dtype=bool, count=len(incs),
                )
                frontier.append(np.flatnonzero(ta.live & activates[ta.arr]))
        if moves:
            moved = np.concatenate([ids for ids, _, _ in moves])
            values = np.repeat([level + inc for _, level, inc in moves],
                               [len(ids) for ids, _, _ in moves])
            arr = ta.arr

            def run_chunk(lo, hi):
                # the moved ids are distinct live slots: disjoint writes
                arr[moved[lo:hi]] = values[lo:hi]

            map_ranges(rt, len(moved), run_chunk, lambda lo, hi: float(hi - lo),
                       region="mod_apply_increments")
            if self.edge_shadow is not None:
                # the moved pins' edges hold stale minima until re-read
                self.edge_shadow.on_vertices_changed(moved)
            frontier.append(moved)
        labels_of = m.sub.interner.labels_of
        tau = m.tau
        delta = m._view_delta
        for ids, level, inc in moves:
            labels = labels_of(ids.tolist())
            if delta is not None:
                for lbl in labels:
                    if lbl not in delta:
                        delta[lbl] = level
            tau.update(dict.fromkeys(labels, level + inc))
        self._converge_ids(np.concatenate(frontier))

    def _increments(self, resolution) -> np.ndarray:
        """``resolution``'s increment of every level in
        ``range(arr.max() + 1)`` (dead slots hold 0, so this covers every
        live level)."""
        top = int(self.tau_array.arr.max()) + 1
        return np.fromiter((resolution.increment(k) for k in range(top)),
                           dtype=np.int64, count=top)

    def _moves(self, ids: np.ndarray, incs: np.ndarray) -> List[Tuple[np.ndarray, int, int]]:
        """Group the dense ids about to rise into ``(ids, level,
        increment)`` moves, levels ascending; the stable sort keeps ids
        ascending within a level."""
        levels, groups = _by_level(ids, self.tau_array.arr[ids])
        return [(g, k, int(incs[k])) for k, g in zip(levels, groups)]

    def _rise_moves(self, resolution, sources) -> List[Tuple[np.ndarray, int, int]]:
        """The bounded rule's moves: the rise region grouped by level."""
        m = self.m
        incs = self._increments(resolution)
        if not isinstance(sources, np.ndarray):
            sources = m.sub.ids_of(sources)
        ids = rise_region_csr(m.sub, self.tau_array, incs > 0, sources, rt=m.rt)
        return self._moves(support_peel_csr(m.sub, self.tau_array, ids, rt=m.rt), incs)

    def rollback_resync(self) -> None:
        # the inverse replay may have recycled interned ids; rebuild the
        # dense shadow from the restored label-keyed tau wholesale, and
        # invalidate every min-tau shadow entry with it
        self.tau_array.resync(self.m.sub, self.m.tau)
        if self.edge_shadow is not None:
            self.edge_shadow.invalidate_all()

    def levels(self) -> List[int]:
        ta = self.tau_array
        return np.unique(ta.arr[ta.live]).tolist()

    def vertices_at_level(self, k: int) -> FrozenSet[Vertex]:
        ta = self.tau_array
        ids = np.flatnonzero(ta.live & (ta.arr == k))
        return frozenset(self.m.sub.interner.labels_of(ids.tolist()))

    def vertices_at_least(self, k: int) -> Set[Vertex]:
        ta = self.tau_array
        ids = np.flatnonzero(ta.live & (ta.arr >= k))
        return set(self.m.sub.interner.labels_of(ids.tolist()))

    def view_levels(self) -> Dict[int, FrozenSet[Vertex]]:
        # one group-by-value sort plus a bulk label resolution per level
        # instead of a masked pass per level.  Labels are resolved *now*
        # -- a view must never consult the live interner at read time
        # (id recycling would rebind them).
        labels_of = self.m.sub.interner.labels_of
        levels, groups = _by_level(*self.tau_array.snapshot())
        return {k: frozenset(labels_of(g.tolist())) for k, g in zip(levels, groups)}

    def __repr__(self) -> str:
        return (
            f"ArrayBackend(tau={self.tau_array!r}, "
            f"shadow={self.edge_shadow!r})"
        )


def _by_level(ids: np.ndarray, values: np.ndarray) -> Tuple[List[int], List[np.ndarray]]:
    """Split ``ids`` by their tau ``values``: the distinct levels,
    ascending, and the ids at each, in their given order (stable sort)."""
    if not len(ids):
        return [], []
    order = np.argsort(values, kind="stable")
    sv = values[order]
    bounds = np.flatnonzero(np.diff(sv)) + 1
    return sv[np.r_[0, bounds]].tolist(), np.split(ids[order], bounds)


def select_backend(sub, engine: str = "auto") -> ExecutionBackend:
    """Map the ``engine=`` knob to an (unbound) backend for ``sub``.

    ``"auto"`` picks :class:`ArrayBackend` whenever ``sub`` is
    array-backed; ``"array"`` requires it; ``"dict"`` always works.
    """
    if engine == "auto":
        engine = "array" if getattr(sub, "is_array_backed", False) else "dict"
    if engine == "dict":
        return DictBackend()
    if engine == "array":
        if not getattr(sub, "is_array_backed", False):
            raise ValueError(
                "engine='array' needs an array-backed substrate; wrap the "
                "graph in repro.engine.ArrayGraph or the hypergraph in "
                "repro.engine.ArrayHypergraph (or use "
                "CoreMaintainer(..., engine='array'))"
            )
        return ArrayBackend()
    raise ValueError(f"unknown engine {engine!r}; choose auto/array/dict")


def wrap_substrate(sub, engine: str = "auto"):
    """Lift ``sub`` onto the substrate the requested engine needs.

    ``engine="array"`` converts a plain :class:`~repro.graph.DynamicGraph`
    / :class:`~repro.graph.DynamicHypergraph` into its flat-array twin
    (already-array-backed substrates pass through); every other engine
    returns ``sub`` unchanged.  This is the single conversion point used
    by the :class:`~repro.core.maintainer.CoreMaintainer` facade and the
    evaluation harness.
    """
    if engine != "array" or getattr(sub, "is_array_backed", False):
        return sub
    if getattr(sub, "is_hypergraph", False):
        return ArrayHypergraph.from_hypergraph(sub)
    return ArrayGraph.from_graph(sub)
