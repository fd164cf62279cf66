"""The execution-backend seam between maintainers and engines.

Every maintenance algorithm is written against
:class:`~repro.core.base.MaintainerBase`'s label-keyed state -- the
``tau`` dict, the level index, the substrate protocol.  *How* the hot
loops execute -- per-vertex Python iteration over hash containers, or
whole-frontier vectorised NumPy sweeps over dense arrays -- is the
execution backend's business, and this module is the one place that
business lives:

* :class:`ExecutionBackend` -- the protocol.  A backend owns the static
  decomposition that seeds a maintainer, the dense tau shadow (if any),
  min-cache construction, the structural-change capture hooks,
  frontier-convergence dispatch, ``mod``'s level sweep, and rollback
  resynchronisation.
* :class:`DictBackend` -- the reference implementation: pure hash-based
  execution, one vertex at a time through the runtime's
  ``parallel_for``; its seed is the asynchronous ``hhc_local``.  Works
  on every substrate.
* :class:`ArrayBackend` -- the flat-array engine: a dense
  :class:`~repro.engine.tau_array.TauArray` shadow (plus an
  :class:`~repro.engine.tau_array.EdgeMinShadow` on hypergraphs) and the
  vectorised frontier kernels of :mod:`repro.engine.frontier`, metered
  as chunked parallel regions through
  :meth:`~repro.parallel.runtime.ParallelRuntime.parallel_ranges`; its
  seed is the synchronous Algorithm 1 run through those same kernels.
  Requires an array-backed substrate
  (:class:`~repro.engine.ArrayGraph` /
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
and level index stay the source of truth; the array backend's dense
state is a shadow kept in sync at commit points and rebuilt wholesale on
transactional rollback.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.static import hhc_local, static_hindex
from repro.engine.array_graph import ArrayGraph
from repro.engine.array_hypergraph import ArrayHypergraph
from repro.engine.columnar import maintain_h_columnar
from repro.engine.frontier import hhc_frontier_csr, hhc_frontier_incidence
from repro.engine.tau_array import ArrayMinCache, EdgeMinShadow, TauArray
from repro.graph.columnar import ColumnarBatch
from repro.graph.dynamic_hypergraph import MinCache
from repro.graph.substrate import Change

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
    ``tau`` / ``_level_index``) directly; the hybrid maintainer's child
    engines share their parent's backend instance the same way they
    share ``tau``.
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
        """Build the hyperedge min cache appropriate for this backend."""
        raise NotImplementedError

    # -- tau commit hooks -----------------------------------------------------
    def on_tau_commit(self, v: Vertex, new: int) -> None:
        """``tau[v]`` committed (dict + level index already updated)."""
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
    def maintain_h_columnar(self, batch, *, conservative: bool = True):
        """Attempt the whole-batch columnar MaintainH + classification.

        Returns ``(I, D, touched)`` on success or ``None`` when this
        backend (or this batch) has no bulk path -- the caller then runs
        the per-``Change`` reference loop.  The default is ``None``: only
        engines with vectorised bulk kernels override it.
        """
        return None

    # -- convergence ----------------------------------------------------------
    def converge(self, active: Iterable[Vertex]) -> None:
        """Run Algorithm 2 from the maintainer's current tau with the
        given frontier."""
        raise NotImplementedError

    def sweep_and_converge(self, resolution, touched,
                           activate_deletion_levels: bool = True) -> None:
        """``mod``'s Algorithm 4 level sweep (lines 13-17) followed by
        convergence from the incremented + touched frontier."""
        raise NotImplementedError

    # -- rollback -------------------------------------------------------------
    def rollback_resync(self) -> None:
        """Transactional rollback restored the label-keyed state;
        resynchronise any dense shadow from it."""
        raise NotImplementedError

    # -- view capture ---------------------------------------------------------
    def view_levels(self):
        """Immutable ``{level: frozenset(labels)}`` capture of the level
        index at this instant -- the serve layer's full snapshot rebuild.
        The default copies the maintainer's live level index; engines
        with a dense shadow override with a vectorised pass."""
        return {
            k: frozenset(bucket)
            for k, bucket in self.m._level_index.items() if bucket
        }

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class DictBackend(ExecutionBackend):
    """Hash-based execution: the reference path, valid on any substrate."""

    name = "dict"

    def decompose(self, sub, rt) -> Dict[Vertex, int]:
        return static_hindex(sub, rt)

    def make_min_cache(self):
        m = self.m
        return MinCache(m.sub, m.tau, charge=m.rt.charge)

    def on_tau_commit(self, v: Vertex, new: int) -> None:
        return None

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
                           activate_deletion_levels: bool = True) -> None:
        # Algorithm 4 lines 13-17, restricted to resolved levels through
        # the level index.  Collect moves first: mutating the index
        # mid-scan would double-apply increments when levels collide.
        m = self.m
        rt = m.rt
        moves: List[Tuple[Vertex, int, int]] = []
        active = set(touched)
        for level in list(m._level_index.keys()):
            inc = resolution.increment(level)
            if inc > 0:
                for v in m._level_index[level]:
                    moves.append((v, level, inc))
            elif activate_deletion_levels and resolution.should_activate(level):
                active.update(m._level_index[level])

        def apply_move(move):
            rt.charge(1)
            return move

        rt.parallel_for(moves, apply_move, region="mod_apply_increments")
        for v, level, inc in moves:
            m._set_tau(v, level + inc)
            active.add(v)
        self.converge(active)

    def rollback_resync(self) -> None:
        return None


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

    def make_min_cache(self):
        m = self.m
        if self.edge_shadow is None:
            return MinCache(m.sub, m.tau, charge=m.rt.charge)
        return ArrayMinCache(m.sub, self.edge_shadow, charge=m.rt.charge)

    def on_tau_commit(self, v: Vertex, new: int) -> None:
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
    def maintain_h_columnar(self, batch, *, conservative: bool = True):
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
        result = maintain_h_columnar(self, cb, conservative=conservative)
        if result is not None:
            self.columnar_batches += 1
        return result

    # -- convergence ----------------------------------------------------------
    def converge(self, active: Iterable[Vertex]) -> None:
        self._converge_ids(self.m.sub.ids_of(active))

    def _converge_ids(self, ids: np.ndarray) -> None:
        """Frontier convergence over a dense-id frontier."""
        m = self.m
        tau, index = m.tau, m._level_index

        # defer the label-keyed dict/level-index sync to one bulk pass
        # after the fixpoint: a vertex changing across several Jacobi
        # iterations costs one dict commit, not one per iteration.  The
        # first commit a vertex appears in carries its pre-convergence
        # value (the dense array and the dict agree on entry), which is
        # exactly the "old" level the index move needs.
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
        mids, olds, news = uq[moved], old_first[moved], final[moved]
        labels = np.asarray(m.sub.interner.labels_of(mids.tolist()),
                            dtype=object)
        delta = m._view_delta
        if delta is not None:
            # first-seen-old: a vertex already recorded this batch keeps
            # its pre-batch value (the dict and dense array agree on
            # entry, so ``olds`` is the value as of the last commit)
            for lbl, old in zip(labels.tolist(), olds.tolist()):
                if lbl not in delta:
                    delta[lbl] = old
        tau.update(zip(labels.tolist(), news.tolist()))
        for vals in (olds, news):
            order = np.argsort(vals, kind="stable")
            sv = vals[order]
            bounds = np.flatnonzero(np.diff(sv)) + 1
            starts = np.concatenate(([0], bounds))
            stops = np.concatenate((bounds, [len(sv)]))
            removing = vals is olds
            for lo, hi in zip(starts.tolist(), stops.tolist()):
                level = int(sv[lo])
                chunk = labels[order[lo:hi]]
                if removing:
                    bucket = index.get(level)
                    if bucket is not None:
                        bucket.difference_update(chunk)
                        if not bucket:
                            del index[level]
                else:
                    index.setdefault(level, set()).update(chunk)

    def sweep_and_converge(self, resolution, touched,
                           activate_deletion_levels: bool = True) -> None:
        """The Algorithm 4 level sweep on the flat-array engine.

        Distinct levels come off the dirty-bucket tau index in one
        vectorised pass and the frontier is assembled as dense id arrays
        -- no Python set iteration over untouched buckets.  Bucket
        slices are collected before the first tau write (the
        rebuild-on-mutation rule mirrors the dict path's
        collect-then-apply), and the whole increment application is
        metered as one ``mod_apply_increments`` region, mirroring the
        dict path's ``parallel_for`` over the same move set.
        """
        m = self.m
        ta = self.tau_array
        rt = m.rt
        moves: List[Tuple[np.ndarray, int, int]] = []
        # the columnar path hands touched vertices over as dense ids
        # already; the reference path as a label set
        if isinstance(touched, np.ndarray):
            frontier = [touched]
        else:
            frontier = [m.sub.ids_of(touched)]
        total_moves = 0
        for level in ta.levels().tolist():
            inc = resolution.increment(level)
            if inc > 0:
                ids = ta.ids_at_level(level)
                moves.append((ids, level, inc))
                total_moves += len(ids)
            elif activate_deletion_levels and resolution.should_activate(level):
                frontier.append(ta.ids_at_level(level))
        rt.parallel_ranges(
            total_moves, lambda lo, hi: float(hi - lo),
            region="mod_apply_increments",
        )
        labels_of = m.sub.interner.labels_of
        tau, index = m.tau, m._level_index
        for ids, level, inc in moves:
            new = level + inc
            # bulk move: the whole pre-sweep bucket shifts together.  Only
            # the collected labels leave the source bucket -- a chained
            # increment (level k and k+inc both incrementing) may have
            # moved other vertices *into* it meanwhile.
            labels = labels_of(ids.tolist())
            delta = m._view_delta
            if delta is not None:
                for lbl in labels:
                    if lbl not in delta:
                        delta[lbl] = level
            tau.update(dict.fromkeys(labels, new))
            index.setdefault(new, set()).update(labels)
            src = index.get(level)
            if src is not None:
                src.difference_update(labels)
                if not src:
                    del index[level]
            ta.bulk_set(ids, np.full(len(ids), new, dtype=np.int64))
            if self.edge_shadow is not None:
                # the moved pins' edges hold stale minima until re-read
                self.edge_shadow.on_vertices_changed(ids)
            frontier.append(ids)
        self._converge_ids(np.concatenate(frontier))

    def rollback_resync(self) -> None:
        # the inverse replay may have recycled interned ids; rebuild the
        # dense shadow from the restored label-keyed tau wholesale.  The
        # min-tau shadow is invalidated even when min_cache is None
        # (set/setmb run without one).
        self.tau_array.resync(self.m.sub, self.m.tau)
        if self.edge_shadow is not None:
            self.edge_shadow.invalidate_all()

    def view_levels(self):
        # vectorised capture off the dense shadow: one group-by-value
        # sort plus a bulk label resolution per level.  Labels are
        # resolved *now* -- a view must never consult the live interner
        # at read time (id recycling would rebind them).
        m = self.m
        ids, values = self.tau_array.snapshot()
        if not len(ids):
            return {}
        labels_of = m.sub.interner.labels_of
        order = np.argsort(values, kind="stable")
        sv = values[order]
        si = ids[order]
        levels, first = np.unique(sv, return_index=True)
        bounds = np.append(first, len(sv))
        return {
            int(lv): frozenset(labels_of(si[bounds[j]:bounds[j + 1]].tolist()))
            for j, lv in enumerate(levels.tolist())
        }

    def __repr__(self) -> str:
        return (
            f"ArrayBackend(tau={self.tau_array!r}, "
            f"shadow={self.edge_shadow!r})"
        )


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
