"""Bulk MaintainH: the array engine's zero-``Change`` batch pipeline.

:func:`maintain_h_columnar` is the columnar twin of
:meth:`~repro.core.base.MaintainerBase.maintain_h` plus ``mod``'s
classification callback (:mod:`repro.core.pin_cases`), fused into a
handful of vectorised passes over a
:class:`~repro.graph.columnar.ColumnarBatch`:

1. **Precheck** -- resolve every unit's interned ids and verify the
   batch is *plain*: all units distinct, every deletion present, every
   insertion absent, labels already interned or internable.  Anything
   else returns ``None`` before the first mutation and the caller falls
   back to the per-``Change`` reference path (which remains the
   semantics of record).
2. **Delete phase** -- classify all deletions against the pre-batch tau
   (for hypergraphs: surviving-pin minima per edge via
   ``np.minimum.reduceat`` plus a segmented suffix-exclusive min over
   later same-edge deletions, reproducing the sequential processing
   order), then splice them out of the substrate in bulk
   (``bulk_remove_edge_ids`` / ``bulk_remove_pin_ids``).
3. **Insert phase** -- classify all insertions against the post-delete
   tau (segmented prefix-exclusive min over earlier same-edge
   insertions plus the surviving-pin minima), then splice them in
   (``bulk_add_edges`` / ``bulk_add_pins``), registering freshly
   interned vertices at tau 0 exactly as the reference path does.

A plain batch executes deletions before insertions regardless of its
interleaving; that reordering is itself a valid batch with the same
final structure, and ``mod`` is exact for every valid batch (tau equals
kappa on exit), so the maintained state is identical -- only the
intermediate I/D records differ.  Order-sensitive batches (a unit
changed twice) are exactly what the precheck rejects.

Rollback is journalled as :class:`ColumnarJournalEntry` slices -- array
columns with an ``undo`` method -- instead of per-``Change`` records, so
the transactional template stays all-or-nothing without materialising
Python objects on the success path.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.engine.frontier import gather_ranges
from repro.engine.tau_array import INF
from repro.parallel.runtime import map_ranges
from repro.structures.level_accumulator import LevelAccumulator

__all__ = ["ColumnarJournalEntry", "maintain_h_columnar"]

_EMPTY = np.zeros(0, dtype=np.int64)


class ColumnarJournalEntry:
    """One columnar phase's structural changes, undoable as a slice.

    ``col_a`` / ``col_b`` are the label columns of the applied units
    (graph endpoints, or hyperedge / pin-vertex labels); ``insert`` is
    the whole phase's direction.  :meth:`undo` re-applies the inverse --
    the transactional rollback duck-types on it, so a journal may mix
    these entries with per-``Change`` records freely.
    """

    __slots__ = ("is_hyper", "col_a", "col_b", "insert")

    def __init__(self, is_hyper: bool, col_a: np.ndarray, col_b: np.ndarray,
                 insert: bool) -> None:
        self.is_hyper = is_hyper
        self.col_a = col_a
        self.col_b = col_b
        self.insert = insert

    def __len__(self) -> int:
        return len(self.col_a)

    def undo(self, sub) -> None:
        a = self.col_a.tolist()
        b = self.col_b.tolist()
        if self.insert:
            remove = sub.remove_pin if self.is_hyper else sub.remove_edge
            for x, y in zip(a, b):
                remove(x, y)
        else:
            add = sub.add_pin if self.is_hyper else sub.add_edge
            for x, y in zip(reversed(a), reversed(b)):
                add(x, y)

    def __repr__(self) -> str:
        kind = "hyper" if self.is_hyper else "graph"
        sign = "+" if self.insert else "-"
        return f"ColumnarJournalEntry({kind}, {sign}{len(self.col_a)})"


def _acc_add(acc: LevelAccumulator, levels: np.ndarray) -> int:
    """Fold an array of per-record levels into a level accumulator."""
    if not len(levels):
        return 0
    uq, counts = np.unique(levels, return_counts=True)
    for lv, c in zip(uq.tolist(), counts.tolist()):
        acc.add(lv, c)
    return int(len(levels))


def _distinct_units(col_a: np.ndarray, col_b: np.ndarray) -> bool:
    """True when no ``(a, b)`` unit occurs twice (any directions)."""
    n = len(col_a)
    if n < 2:
        return True
    order = np.lexsort((col_b, col_a))
    a_s = col_a[order]
    b_s = col_b[order]
    return not bool(np.any((a_s[1:] == a_s[:-1]) & (b_s[1:] == b_s[:-1])))


def maintain_h_columnar(backend, cb, *, conservative: bool = True,
                        deletion_gains: bool = True):
    """Run the columnar MaintainH + classification on ``backend``'s
    maintainer.

    Returns ``(I, D, touched_ids, source_ids)`` -- the classification
    accumulators, the dense ids of structurally touched vertices and, on
    graphs, the dense ids of the inserted edges' endpoints (empty on
    hypergraphs) -- or ``None`` when the batch is not plain (the caller
    then runs the per-``Change`` reference path; nothing has been
    mutated).  ``deletion_gains=False`` drops the gain (``I``) records
    deleted graph edges emit -- ``mod``'s bounded rule; hypergraphs
    ignore it.
    """
    m = backend.m
    if cb.is_hyper != bool(getattr(m.sub, "is_hypergraph", False)):
        return None
    if cb.is_hyper:
        return _maintain_h_hyper(backend, cb, conservative)
    return _maintain_h_graph(backend, cb, deletion_gains)


# -- graphs -------------------------------------------------------------------

def _maintain_h_graph(backend, cb, deletion_gains: bool):
    m = backend.m
    g = m.sub
    ta = backend.tau_array
    rt = m.rt

    n = len(cb)
    if not n:
        return LevelAccumulator(), LevelAccumulator(), _EMPTY, _EMPTY
    # canonical order (a < b) is the ColumnarBatch invariant; a
    # self-loop or swapped row falls back so the reference path raises
    # its usual errors
    if bool(np.any(cb.col_a >= cb.col_b)):
        return None
    if not _distinct_units(cb.col_a, cb.col_b):
        return None

    du, dv = cb.deletions_columns()
    iu, iv = cb.insertions_columns()
    id_of = g.interner.id_of
    has_edge = g.has_graph_edge
    nd = len(du)
    dui = np.empty(nd, dtype=np.int64)
    dvi = np.empty(nd, dtype=np.int64)
    for k, (u, v) in enumerate(zip(du.tolist(), dv.tolist())):
        ui = id_of(u)
        vi = id_of(v)
        if ui is None or vi is None or not has_edge(u, v):
            return None  # absent deletion: the reference path skips it
        dui[k] = ui
        dvi[k] = vi
    for u, v in zip(iu.tolist(), iv.tolist()):
        if has_edge(u, v):
            return None  # present insertion: the reference path skips it

    # -- committed to the fast path: no fallback below this line --------
    journal = m._txn_journal
    # metering mirrors the reference path: one serial bookkeeping unit
    # per pin record, plus the two-pin classification context per record
    # (4 units per edge, split across the delete/insert classify regions
    # below so the chunk kernels execute under the same accounting)
    rt.serial(2 * n)

    I = LevelAccumulator()
    D = LevelAccumulator()
    emitted = 0
    touched_parts: List[np.ndarray] = []
    sources = _EMPTY

    if nd:
        arr = ta.arr
        # both endpoint records classify: the min endpoint records
        # D[min] + I[max]; the max endpoint records nothing -- except at
        # a tie, where both records emit D + I (classify_delete's tie
        # case, applied per endpoint).  Without deletion gains only the
        # D records remain.  Pure elementwise chunk kernel: reads the
        # pre-batch tau snapshot, writes disjoint slices.
        a = np.empty(nd, dtype=np.int64)
        b = np.empty(nd, dtype=np.int64)
        tie = np.empty(nd, dtype=bool)

        def classify_deletes(lo, hi, arr=arr, a=a, b=b, tie=tie):
            tu = arr[dui[lo:hi]]
            tv = arr[dvi[lo:hi]]
            np.minimum(tu, tv, out=a[lo:hi])
            np.maximum(tu, tv, out=b[lo:hi])
            np.equal(tu, tv, out=tie[lo:hi])

        map_ranges(
            rt, nd, classify_deletes, lambda lo, hi: 4.0 * (hi - lo),
            region="maintain_h_columnar",
        )
        emitted += _acc_add(D, np.concatenate((a, a[tie])))
        if deletion_gains:
            emitted += _acc_add(I, np.concatenate((b, b[tie])))
        dropped = g.bulk_remove_edge_ids(dui, dvi)
        for i, label in dropped:
            ta.drop(i)
            m._drop_vertex(label)
        if journal is not None:
            journal.append(ColumnarJournalEntry(False, du, dv, False))
        touched_parts.append(dui)
        touched_parts.append(dvi)

    if len(iu):
        iui, ivi, created = g.bulk_add_edges(iu, iv)
        if created:
            tau = m.tau
            delta = m._view_delta
            for i, label in created:
                if delta is not None and label not in delta:
                    delta[label] = None  # entered the decomposition
                tau[label] = 0
                ta.set_(i, 0)
        arr = ta.arr  # may have been reallocated registering new ids
        # per edge: the min endpoint records I[min] (new-edge semantics,
        # so no deletion record); at a tie both records emit
        ni_ = len(iui)
        a = np.empty(ni_, dtype=np.int64)
        tie = np.empty(ni_, dtype=bool)

        def classify_inserts(lo, hi, arr=arr, a=a, tie=tie):
            tu = arr[iui[lo:hi]]
            tv = arr[ivi[lo:hi]]
            np.minimum(tu, tv, out=a[lo:hi])
            np.equal(tu, tv, out=tie[lo:hi])

        map_ranges(
            rt, ni_, classify_inserts, lambda lo, hi: 4.0 * (hi - lo),
            region="maintain_h_columnar",
        )
        emitted += _acc_add(I, np.concatenate((a, a[tie])))
        if journal is not None:
            journal.append(ColumnarJournalEntry(False, iu, iv, True))
        sources = np.concatenate((iui, ivi))
        touched_parts.append(sources)

    rt.serial(emitted)
    touched = (
        np.unique(np.concatenate(touched_parts)) if touched_parts else _EMPTY
    )
    return I, D, touched, sources


# -- hypergraphs --------------------------------------------------------------

def _maintain_h_hyper(backend, cb, conservative: bool):
    m = backend.m
    h = m.sub
    ta = backend.tau_array
    shadow = backend.edge_shadow
    rt = m.rt

    n = len(cb)
    if not n:
        return LevelAccumulator(), LevelAccumulator(), _EMPTY, _EMPTY
    if not _distinct_units(cb.col_a, cb.col_b):
        return None

    de, dv = cb.deletions_columns()
    ie, iv = cb.insertions_columns()
    eid_of = h.edge_interner.id_of
    vid_of = h.interner.id_of
    contains = h._epins.contains

    nd = len(de)
    dei = np.empty(nd, dtype=np.int64)
    dvi = np.empty(nd, dtype=np.int64)
    for k, (e, v) in enumerate(zip(de.tolist(), dv.tolist())):
        ei = eid_of(e)
        vi = vid_of(v)
        if ei is None or vi is None or not contains(ei, vi):
            return None  # absent deletion: the reference path skips it
        dei[k] = ei
        dvi[k] = vi
    ni = len(ie)
    # new-edge semantics are decided against the *pre-batch* edge set,
    # exactly like the reference path's new_edges pre-pass
    ins_new = np.empty(ni, dtype=bool)
    for k, (e, v) in enumerate(zip(ie.tolist(), iv.tolist())):
        ei = eid_of(e)
        if ei is None:
            ins_new[k] = True
            continue
        ins_new[k] = False
        vi = vid_of(v)
        if vi is not None and contains(ei, vi):
            return None  # present insertion: the reference path skips it

    # -- committed to the fast path: no fallback below this line --------
    journal = m._txn_journal
    rt.serial(n)

    I = LevelAccumulator()
    D = LevelAccumulator()
    emitted = 0
    touched_parts: List[np.ndarray] = []
    dirty_parts: List[np.ndarray] = []

    if nd:
        # classification context: per affected edge, the minimum tau over
        # pins surviving the whole delete phase; per deletion record, the
        # running minimum additionally covers later same-edge deletions
        # (those pins are still present when this record processes)
        aff = np.unique(dei)
        starts, counts, pool = h.pin_arrays()
        pins, ptr = gather_ranges(starts, counts, pool, aff)
        arr = ta.arr
        del_keys = np.sort((dei << 32) | dvi)
        # per-edge surviving-pin minimum: segment boundaries (ptr) are
        # edge boundaries, so the reduceat chunks cleanly -- each chunk
        # covers whole edges and writes a disjoint slice of surv_min
        surv_min = np.empty(len(aff), dtype=np.int64)

        def surviving_min(lo, hi, arr=arr, surv_min=surv_min):
            base = ptr[lo]
            local_ptr = ptr[lo:hi + 1] - base
            pins_c = pins[base:ptr[hi]]
            owner_c = np.repeat(aff[lo:hi], np.diff(local_ptr))
            deleted_c = np.isin((owner_c << 32) | pins_c, del_keys)
            vals_c = np.where(deleted_c, INF, arr[pins_c])
            surv_min[lo:hi] = np.minimum.reduceat(vals_c, local_ptr[:-1])

        map_ranges(
            rt, len(aff), surviving_min,
            lambda lo, hi: float(ptr[hi] - ptr[lo]),
            region="maintain_h_columnar",
        )
        g_order = np.argsort(dei, kind="stable")
        seg = np.searchsorted(aff, dei[g_order])
        gtv = arr[dvi[g_order]]
        # segmented suffix-exclusive min in batch order: offset each
        # segment into its own disjoint value band so one reversed
        # minimum.accumulate never leaks across segment boundaries
        # (offsets are non-increasing along the scan direction)
        B = int(gtv.max()) + 1
        offs = seg[::-1] * B
        suffix_incl = (np.minimum.accumulate(gtv[::-1] + offs) - offs)[::-1]
        suffix_excl = np.full(nd, INF, dtype=np.int64)
        if nd > 1:
            same = seg[:-1] == seg[1:]
            suffix_excl[:-1][same] = suffix_incl[1:][same]
        m_others = np.minimum(surv_min[seg], suffix_excl)
        rec = gtv <= m_others
        emitted += _acc_add(D, gtv[rec])
        emitted += _acc_add(I, m_others[rec & (m_others < INF)])
        # the suffix-exclusive min scans *across* segment boundaries
        # (later same-edge deletions), so it stays serial; meter its
        # per-record pass (the pin gather is accounted in the map above)
        rt.parallel_ranges(
            nd, lambda lo, hi: float(hi - lo),
            region="maintain_h_columnar",
        )
        dropped_v, _dead_e = h.bulk_remove_pin_ids(dei, dvi)
        for i, label in dropped_v:
            ta.drop(i)
            m._drop_vertex(label)
        if journal is not None:
            journal.append(ColumnarJournalEntry(True, de, dv, False))
        touched_parts.append(pins)
        dirty_parts.append(aff)

    if ni:
        # classify against the post-delete, pre-insert structure: the
        # surviving pins of each target edge plus earlier same-edge
        # insertions of this batch (their pins are present by the time a
        # record processes); fresh vertices contribute tau 0
        tei = np.empty(ni, dtype=np.int64)
        for k, e in enumerate(ie.tolist()):
            j = eid_of(e)
            tei[k] = -1 if j is None else j
        survives = tei >= 0
        aff_i = np.unique(tei[survives])
        arr = ta.arr
        n_gathered = 0
        if len(aff_i):
            starts, counts, pool = h.pin_arrays()
            pins_i, ptr_i = gather_ranges(starts, counts, pool, aff_i)
            # per-edge min over surviving pins; chunks at edge boundaries
            surv_i = np.empty(len(aff_i), dtype=np.int64)

            def insert_surviving_min(lo, hi, arr=arr, surv_i=surv_i):
                base = ptr_i[lo]
                local_ptr = ptr_i[lo:hi + 1] - base
                surv_i[lo:hi] = np.minimum.reduceat(
                    arr[pins_i[base:ptr_i[hi]]], local_ptr[:-1]
                )

            map_ranges(
                rt, len(aff_i), insert_surviving_min,
                lambda lo, hi: float(ptr_i[hi] - ptr_i[lo]),
                region="maintain_h_columnar",
            )
            n_gathered = len(pins_i)
        tv_eff = np.empty(ni, dtype=np.int64)
        for k, v in enumerate(iv.tolist()):
            i = vid_of(v)
            tv_eff[k] = arr[i] if i is not None else 0
        uq_e, inv_e = np.unique(ie, return_inverse=True)
        surv_by_group = np.full(len(uq_e), INF, dtype=np.int64)
        if len(aff_i):
            surv_by_group[inv_e[survives]] = surv_i[
                np.searchsorted(aff_i, tei[survives])
            ]
        g_order = np.argsort(inv_e, kind="stable")
        seg = inv_e[g_order]
        gtv = tv_eff[g_order]
        gnew = ins_new[g_order]
        # segmented prefix-exclusive min in batch order (same disjoint
        # band trick; offsets decrease along the forward scan)
        B = int(gtv.max()) + 1
        offs = (np.int64(len(uq_e) - 1) - seg) * B
        prefix_incl = np.minimum.accumulate(gtv + offs) - offs
        prefix_excl = np.full(ni, INF, dtype=np.int64)
        if ni > 1:
            same = seg[1:] == seg[:-1]
            prefix_excl[1:][same] = prefix_incl[:-1][same]
        m_others = np.minimum(surv_by_group[seg], prefix_excl)
        gains = gtv <= m_others
        emitted += _acc_add(I, gtv[gains])
        drops = (
            (m_others < INF)
            & ~gnew
            & ((gtv < m_others) | ((gtv == m_others) & conservative))
        )
        emitted += _acc_add(D, m_others[drops])
        # the prefix-exclusive min scans across segment boundaries
        # (earlier same-edge insertions): serial, metered per record
        rt.parallel_ranges(
            ni, lambda lo, hi: float(hi - lo),
            region="maintain_h_columnar",
        )
        eids_new, vids_new, created_v, _created_e = h.bulk_add_pins(ie, iv)
        if created_v:
            tau = m.tau
            delta = m._view_delta
            for i, label in created_v:
                if delta is not None and label not in delta:
                    delta[label] = None  # entered the decomposition
                tau[label] = 0
                ta.set_(i, 0)
        if journal is not None:
            journal.append(ColumnarJournalEntry(True, ie, iv, True))
        touched_parts.append(vids_new)
        if n_gathered:
            touched_parts.append(pins_i)
        dirty_parts.append(eids_new)

    if shadow is not None and dirty_parts:
        dirty = np.unique(np.concatenate(dirty_parts))
        if len(dirty):
            shadow._ensure(int(dirty.max()))
            shadow.valid[dirty] = False

    rt.serial(emitted)
    touched = (
        np.unique(np.concatenate(touched_parts)) if touched_parts else _EMPTY
    )
    return I, D, touched, _EMPTY
