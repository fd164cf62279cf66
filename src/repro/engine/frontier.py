"""Vectorised frontier convergence (Algorithm 2 on flat arrays).

:func:`hhc_frontier_csr` is the array-engine replacement for the
per-vertex ``_vertex_update`` loop of :func:`repro.core.static.hhc_local`:
each iteration gathers the tau values of *every* frontier vertex's
neighbours in one shot, computes all their h-indices with the existing
:func:`~repro.core.static._segment_h_index` kernel, commits the changes,
and expands the next frontier with ``np.unique`` over the changed
vertices' neighbour ranges.

Semantics: the synchronous (Jacobi) variant of the sweep -- every frontier
vertex reads the tau snapshot from the start of the iteration.  Both
variants converge to kappa from any pointwise-valid initialisation
(Lemma 1 / Section III-A), so the result is oracle-identical to the
asynchronous dict path; only the iteration counts differ.

:func:`hhc_frontier_incidence` is the hypergraph analogue over an
:class:`~repro.engine.array_hypergraph.ArrayHypergraph`'s bipartite
incidence pools: each iteration bulk-refreshes the
:class:`~repro.engine.tau_array.EdgeMinShadow` for every hyperedge the
frontier touches, derives each (vertex, edge) contribution as ``m2`` when
the vertex is the edge's min witness else ``m1`` (Algorithm 2 line 8's
min-over-other-pins, exact under ties), and h-indexes the contributions
per vertex with the same segment kernel.

Execution and accounting both go through the runtime's
``parallel_map_ranges`` seam: each iteration's h-index pass is expressed
as a race-free *chunk kernel* -- ``run_chunk(lo, hi)`` gathers its own
CSR/incidence ranges from the shared read-only tau snapshot (Jacobi
semantics) and writes only the disjoint slice ``new[lo:hi]`` -- with
per-chunk costs read off the gather's CSR prefix sums (``out_ptr``).
The hypergraph kernel's shadow refresh is a chunk kernel of the same
kind, over disjoint slices of the distinct incident edges.  Under the
:class:`~repro.parallel.simulated.SimulatedRuntime` the kernel runs
serially and is metered exactly as before (same VGC chunking, same
totals); under a :class:`~repro.parallel.threads.ThreadRuntime` the
chunks dispatch to real threads and overlap, since the NumPy gathers,
sorts and reductions release the GIL.  Chunked results are bit-identical
to serial: chunks are disjoint, the per-chunk ``_segment_h_index`` call
clips at a bound that can never alter an h-index (h <= segment size),
and the commit/merge that follows every iteration stays serial.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.core.static import _segment_h_index
from repro.engine.tau_array import INF
from repro.parallel.runtime import map_ranges

__all__ = ["gather_ranges", "hhc_frontier_csr", "hhc_frontier_incidence",
           "rise_region_csr", "support_peel_csr"]

#: callback: (changed_ids, old_values, new_values) -- arrays, one call per iteration
CommitHook = Callable[[np.ndarray, np.ndarray, np.ndarray], None]


_IOTA = np.zeros(0, dtype=np.int64)


def _iota(n: int) -> np.ndarray:
    """Read-only ``arange(n)`` served from a growing module-level buffer
    (the convergence loop requests several per iteration).

    Thread-safe for concurrent chunk kernels: the buffer is captured into
    a local before the length check, so a racing grow by another thread
    can only waste an allocation, never hand back a short slice -- and the
    contents are constant (``arange``), so sharing the buffer read-only
    across threads is sound.
    """
    global _IOTA
    buf = _IOTA
    if len(buf) < n:
        buf = np.arange(max(n, 2 * len(buf)), dtype=np.int64)
        _IOTA = buf
    return buf[:n]


def _gather_ranges(starts: np.ndarray, counts: np.ndarray, pool: np.ndarray,
                   ids: np.ndarray):
    """Concatenated neighbour ids of ``ids`` plus the CSR segment layout.

    Returns ``(neighbors, out_ptr)`` where ``neighbors[out_ptr[j]:
    out_ptr[j+1]]`` are the neighbour ids of ``ids[j]``.
    """
    cnt = counts[ids]
    out_ptr = np.zeros(len(ids) + 1, dtype=np.int64)
    np.cumsum(cnt, out=out_ptr[1:])
    total = int(out_ptr[-1])
    if total == 0:
        return np.zeros(0, dtype=np.int64), out_ptr
    # positions: per vertex j, starts[ids[j]] + (0 .. cnt[j]-1)
    pos = np.repeat(starts[ids] - out_ptr[:-1], cnt) + _iota(total)
    return pool[pos], out_ptr


#: public alias -- the columnar bulk kernels (:mod:`repro.engine.columnar`)
#: gather pin/adjacency segments with the same CSR trick.
gather_ranges = _gather_ranges


def _dedup(ids: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Sorted distinct ids via a reusable bool scratch mask.

    O(len(mask)) flatnonzero beats hash-based ``np.unique`` by an order
    of magnitude on the large, duplicate-heavy frontiers the convergence
    loop produces (the mask is cleared before returning, so one scratch
    array serves every iteration).
    """
    mask[ids] = True
    out = np.flatnonzero(mask)
    mask[out] = False
    return out


def hhc_frontier_csr(
    graph,
    tau,
    frontier: np.ndarray,
    *,
    rt=None,
    on_commit: Optional[CommitHook] = None,
    max_iterations: Optional[int] = None,
) -> int:
    """Run frontier h-index convergence on an array-backed graph.

    Parameters
    ----------
    graph:
        An :class:`~repro.engine.array_graph.ArrayGraph`.
    tau:
        The maintainer's :class:`~repro.engine.tau_array.TauArray`; must be
        pointwise >= kappa on live vertices (Lemma 1).  Updated in place.
    frontier:
        Dense ids of the initially active vertices (duplicates and dead
        ids tolerated).
    rt:
        Optional parallel runtime for work accounting.
    on_commit:
        Called once per iteration with ``(ids, old, new)`` arrays of the
        committed tau changes -- the maintainers sync their label-keyed
        tau dict from it.
    max_iterations:
        Iteration budget; when exhausted tau remains a pointwise upper
        bound on kappa (an h-index write never goes below kappa while
        tau >= kappa, Lemma 1).

    Returns the number of iterations run.
    """
    frontier = np.asarray(frontier, dtype=np.int64)
    scratch = np.zeros(len(tau.arr), dtype=bool)
    iterations = 0
    while len(frontier):
        if max_iterations is not None and iterations >= max_iterations:
            break
        # adjacency views can move under mutation between iterations (the
        # commit hook below may trigger structural work); re-read per pass
        starts, counts, pool = graph.adjacency_arrays()
        arr = tau.arr
        live = tau.live
        if len(scratch) < len(arr):
            scratch = np.zeros(len(arr), dtype=bool)
        F = _dedup(frontier[frontier < len(arr)], scratch)
        F = F[(F < len(live)) & live[F] & (counts[F] > 0)]
        if not len(F):
            break
        iterations += 1
        # CSR layout of the whole frontier's gathers up front: the prefix
        # sums both parameterise the chunk costs and let every chunk slice
        # out its own ranges independently
        cnt = counts[F]
        f_starts = starts[F]
        out_ptr = np.zeros(len(F) + 1, dtype=np.int64)
        np.cumsum(cnt, out=out_ptr[1:])
        new = np.empty(len(F), dtype=np.int64)

        def run_chunk(lo, hi, arr=arr, pool=pool, f_starts=f_starts,
                      cnt=cnt, out_ptr=out_ptr, new=new):
            # race-free Jacobi chunk kernel: reads the shared tau snapshot
            # and adjacency pool, writes only the disjoint slice
            # new[lo:hi]; the h-index clip bound is local to the chunk but
            # any bound >= the segment size yields the same h-index
            base = out_ptr[lo]
            local_ptr = out_ptr[lo:hi + 1] - base
            chunk_cnt = cnt[lo:hi]
            pos = np.repeat(f_starts[lo:hi] - local_ptr[:-1], chunk_cnt)
            pos = pos + _iota(int(local_ptr[-1]))
            vals = arr[pool[pos]]
            seg = np.repeat(_iota(hi - lo), chunk_cnt)
            new[lo:hi] = _segment_h_index(vals, seg, local_ptr)

        # per frontier vertex: its gathered neighbours + one h-index
        # evaluation, chunk costs straight off the CSR prefix sums
        map_ranges(
            rt, len(F), run_chunk,
            lambda lo, hi: float(out_ptr[hi] - out_ptr[lo]) + (hi - lo),
            region="frontier_csr",
        )
        old = arr[F]
        changed_mask = new != old
        if not changed_mask.any():
            break
        changed = F[changed_mask]
        old_changed = old[changed_mask]
        new_changed = new[changed_mask]
        tau.bulk_set(changed, new_changed)
        if on_commit is not None:
            on_commit(changed, old_changed, new_changed)
        # crossing filter: w's support at tau[w] counted v only if v's old
        # value ``o`` reached tau[w], and still does unless the new value
        # ``n`` fell below it, so w is re-activated only when
        # n < tau[w] <= o (tau read after the commit).  A rise crosses
        # nothing and unsupports no vertex.
        cnbrs, c_ptr = _gather_ranges(starts, counts, pool, changed)
        c_cnt = np.diff(c_ptr)
        t_w = arr[cnbrs]
        frontier = cnbrs[(t_w > np.repeat(new_changed, c_cnt))
                         & (t_w <= np.repeat(old_changed, c_cnt))]
        if rt is not None:
            rt.serial(len(changed))
    return iterations


def hhc_frontier_incidence(
    hg,
    tau,
    shadow,
    frontier: np.ndarray,
    *,
    rt=None,
    on_commit: Optional[CommitHook] = None,
    max_iterations: Optional[int] = None,
) -> int:
    """Frontier h-index convergence on an array-backed hypergraph.

    Parameters
    ----------
    hg:
        An :class:`~repro.engine.array_hypergraph.ArrayHypergraph`.
    tau:
        The maintainer's :class:`~repro.engine.tau_array.TauArray`; must be
        pointwise >= kappa on live vertices (Lemma 1).  Updated in place.
    shadow:
        The maintainer's :class:`~repro.engine.tau_array.EdgeMinShadow`
        bound to ``hg`` and ``tau``; refreshed in bulk per iteration and
        re-invalidated for every edge incident to a committed change.
    frontier:
        Dense vertex ids of the initially active set (duplicates and dead
        ids tolerated).
    rt, on_commit, max_iterations:
        As for :func:`hhc_frontier_csr`.

    Returns the number of iterations run.  Semantics are the synchronous
    (Jacobi) sweep of the two-level relation -- vertex <- h-index over the
    min-tau of the *other* pins of each incident hyperedge -- which shares
    its unique fixpoint (kappa) with the asynchronous dict path.
    """
    frontier = np.asarray(frontier, dtype=np.int64)
    scratch = np.zeros(len(tau.arr), dtype=bool)
    # edge-id scratch, reset after every use: a dedup mask and the least
    # new value a changed pin brought to each edge
    e_mask = np.zeros(0, dtype=bool)
    e_min = np.zeros(0, dtype=np.int64)
    iterations = 0
    while len(frontier):
        if max_iterations is not None and iterations >= max_iterations:
            break
        # incidence views can move under mutation; re-read defensively
        v_starts, v_counts, v_pool = hg.incidence_arrays()
        e_starts, e_counts, e_pool = hg.pin_arrays()
        live = tau.live
        limit = min(len(live), len(v_counts))
        if len(scratch) < len(tau.arr):
            scratch = np.zeros(len(tau.arr), dtype=bool)
        if len(e_mask) < len(e_counts):
            e_mask = np.zeros(len(e_counts), dtype=bool)
            e_min = np.full(len(e_counts), INF, dtype=np.int64)
        F = _dedup(frontier[frontier < len(tau.arr)], scratch)
        F = F[F < limit]
        F = F[live[F] & (v_counts[F] > 0)]
        if not len(F):
            break
        iterations += 1
        # refresh the shadow over the distinct edges the frontier touches;
        # only the stale ones are recomputed
        inc, out_ptr = _gather_ranges(v_starts, v_counts, v_pool, F)
        shadow.refresh_distinct(_dedup(inc, e_mask), rt)
        # read the columns after the refresh (it may grow them and tau)
        arr = tau.arr
        witness = shadow.witness
        m1 = shadow.m1
        m2 = shadow.m2
        new = np.empty(len(F), dtype=np.int64)

        def run_chunk(lo, hi, F=F, inc=inc, out_ptr=out_ptr, new=new,
                      witness=witness, m1=m1, m2=m2):
            # race-free Jacobi chunk kernel over the refreshed shadow:
            # contribution of edge e to its pin v is the min tau over the
            # *other* pins -- the second order statistic when v is the min
            # witness, else the min -- then one h-index per vertex; writes
            # only the disjoint slice new[lo:hi]
            base = out_ptr[lo]
            local_ptr = out_ptr[lo:hi + 1] - base
            inc_c = inc[base:out_ptr[hi]]
            chunk_cnt = np.diff(local_ptr)
            owner = np.repeat(F[lo:hi], chunk_cnt)
            contrib = np.where(witness[inc_c] == owner, m2[inc_c], m1[inc_c])
            seg = np.repeat(_iota(hi - lo), chunk_cnt)
            new[lo:hi] = _segment_h_index(contrib, seg, local_ptr)

        # per frontier vertex: its incidence contributions + one h-index
        # evaluation, chunked off the CSR prefix sums
        map_ranges(
            rt, len(F), run_chunk,
            lambda lo, hi: float(out_ptr[hi] - out_ptr[lo]) + (hi - lo),
            region="frontier_incidence",
        )
        old = arr[F]
        changed_mask = new != old
        if not changed_mask.any():
            break
        changed = F[changed_mask]
        new_changed = new[changed_mask]
        tau.bulk_set(changed, new_changed)
        if on_commit is not None:
            on_commit(changed, old[changed_mask], new_changed)
        # next frontier, by the crossing rule per distinct edge: edge e's
        # contribution to its pin w can only have fallen below tau[w] if
        # it was at least tau[w] in the snapshot (``m2`` for the witness,
        # else ``m1``; every edge of a changed pin was refreshed at the
        # top of this iteration) and some changed pin brought e a new
        # value below tau[w] (the least of them is ``e_min``).  Each
        # distinct edge's pins are read once, and the same gather then
        # invalidates the shadow entries the commit staled.
        cinc, ci_ptr = _gather_ranges(v_starts, v_counts, v_pool, changed)
        np.minimum.at(e_min, cinc, np.repeat(new_changed, np.diff(ci_ptr)))
        edges = _dedup(cinc, e_mask)
        cpins, cp_ptr = _gather_ranges(e_starts, e_counts, e_pool, edges)
        rep_e = np.repeat(edges, np.diff(cp_ptr))
        contrib = np.where(witness[rep_e] == cpins, m2[rep_e], m1[rep_e])
        t_w = arr[cpins]
        frontier = cpins[(t_w > e_min[rep_e]) & (t_w <= contrib)]
        shadow.valid[edges] = False
        e_min[edges] = INF
        if rt is not None:
            rt.serial(len(changed))
    return iterations


def rise_region_csr(
    graph,
    tau,
    rising: np.ndarray,
    sources: np.ndarray,
    *,
    rt=None,
) -> np.ndarray:
    """Dense ids of the vertices ``mod``'s bounded rule lifts.

    A vertex ``v`` is lifted when some path from a source (an endpoint of
    an inserted edge) to ``v`` runs through vertices whose levels all have
    ``rising[level]`` set and are at most ``tau[v]`` (docs/ALGORITHMS.md,
    the rise-region proof).  One label-correcting pass computes, for every
    reachable vertex, ``b(v)``: the least achievable maximum level over
    such paths; ``v`` is lifted iff ``b(v) == tau[v]``.

    ``rising`` is indexed by tau value and must cover every live value;
    ``sources`` may hold duplicates, dead ids and ``-1``.  Each pass
    gathers the frontier's neighbour ranges as a race-free chunk kernel
    (disjoint output slices, like :func:`hhc_frontier_csr`); the
    minimum-merge that follows stays serial, so the result is identical
    at every thread count.
    """
    arr = tau.arr
    n = len(arr)
    src = sources[(sources >= 0) & (sources < n)]
    src = src[tau.live[src]]
    src = src[rising[arr[src]]]
    if not len(src):
        return np.zeros(0, dtype=np.int64)
    best = np.full(n, INF, dtype=np.int64)
    best[src] = arr[src]
    scratch = np.zeros(n, dtype=bool)
    frontier = _dedup(src, scratch)
    starts, counts, pool = graph.adjacency_arrays()
    while len(frontier):
        cnt = counts[frontier]
        f_starts = starts[frontier]
        f_best = best[frontier]
        out_ptr = np.zeros(len(frontier) + 1, dtype=np.int64)
        np.cumsum(cnt, out=out_ptr[1:])
        nbrs = np.empty(int(out_ptr[-1]), dtype=np.int64)
        cand = np.empty(int(out_ptr[-1]), dtype=np.int64)

        def run_chunk(lo, hi, cnt=cnt, f_starts=f_starts, f_best=f_best,
                      out_ptr=out_ptr, nbrs=nbrs, cand=cand):
            # a path through u reaches neighbour w at level
            # max(b(u), tau[w]); writes only the disjoint output slices
            base, top = out_ptr[lo], out_ptr[hi]
            local_ptr = out_ptr[lo:hi + 1] - base
            chunk_cnt = cnt[lo:hi]
            pos = np.repeat(f_starts[lo:hi] - local_ptr[:-1], chunk_cnt)
            w = pool[pos + _iota(int(top - base))]
            nbrs[base:top] = w
            np.maximum(arr[w], np.repeat(f_best[lo:hi], chunk_cnt),
                       out=cand[base:top])

        map_ranges(
            rt, len(frontier), run_chunk,
            lambda lo, hi: float(out_ptr[hi] - out_ptr[lo]) + (hi - lo),
            region="rise_region",
        )
        keep = rising[arr[nbrs]] & (cand < best[nbrs])
        nbrs = nbrs[keep]
        np.minimum.at(best, nbrs, cand[keep])
        frontier = _dedup(nbrs, scratch)
    return np.flatnonzero(best == arr)


def support_peel_csr(graph, tau, region: np.ndarray, *, rt=None) -> np.ndarray:
    """The greatest support-closed subset of ``region`` (sorted dense ids).

    The *support* of ``v`` counts its neighbours ``w`` with
    ``tau[w] > tau[v]`` or still in the set; ``v`` is removed while its
    support is at most ``tau[v]``.  Every vertex the batch raises
    survives (docs/ALGORITHMS.md, step (b')), and the subset is unique,
    so the removal order cannot change it.  The support count and each
    round's gather of the removed vertices' neighbours are race-free
    chunk kernels over disjoint slices (region ``rise_peel``); the
    decrements merge serially, so the result is identical at every
    thread count.
    """
    if not len(region):
        return region
    arr = tau.arr
    starts, counts, pool = graph.adjacency_arrays()
    member = np.zeros(len(arr), dtype=bool)
    member[region] = True

    def gather(ids, counting):
        # neighbours of ``ids`` and, per neighbour w of v, whether w
        # supports v (counting) or loses v's support when v leaves
        # (v did not sit above w); each chunk writes disjoint slices
        cnt = counts[ids]
        out_ptr = np.zeros(len(ids) + 1, dtype=np.int64)
        np.cumsum(cnt, out=out_ptr[1:])
        nbrs = np.empty(int(out_ptr[-1]), dtype=np.int64)
        hit = np.empty(int(out_ptr[-1]), dtype=bool)

        def run_chunk(lo, hi):
            base, top = out_ptr[lo], out_ptr[hi]
            chunk_cnt = cnt[lo:hi]
            pos = np.repeat(starts[ids[lo:hi]] - (out_ptr[lo:hi] - base), chunk_cnt)
            w = pool[pos + _iota(int(top - base))]
            nbrs[base:top] = w
            t_w = arr[w]
            t_v = np.repeat(arr[ids[lo:hi]], chunk_cnt)
            if counting:
                hit[base:top] = member[w] | (t_w > t_v)
            else:
                hit[base:top] = member[w] & (t_w >= t_v)

        map_ranges(
            rt, len(ids), run_chunk,
            lambda lo, hi: float(out_ptr[hi] - out_ptr[lo]) + (hi - lo),
            region="rise_peel",
        )
        return nbrs, hit, out_ptr

    _, hit, out_ptr = gather(region, True)
    held = np.concatenate(([0], np.cumsum(hit)))
    support = np.zeros(len(arr), dtype=np.int64)
    support[region] = held[out_ptr[1:]] - held[out_ptr[:-1]]
    removed = region[support[region] <= arr[region]]
    scratch = np.zeros(len(arr), dtype=bool)
    while len(removed):
        member[removed] = False
        nbrs, hit, _ = gather(removed, False)
        lost = nbrs[hit]
        np.subtract.at(support, lost, 1)
        cand = _dedup(lost, scratch)
        removed = cand[support[cand] <= arr[cand]]
    return region[member[region]]
