"""Static h-index algorithms (Section III, Algorithms 1 and 2).

:func:`hhc_local` is the paper's ``hhcLocal``: the asynchronous local
h-index computation extended to hypergraphs, with optional tau
initialisation and an explicit frontier.  It is both the from-scratch
static algorithm (initialise tau to degrees, frontier = all vertices) and
the convergence engine the ``mod`` maintainer "continues" after its
increments (Algorithm 4 line 18).

For a vertex ``v``, one update step builds the list ``L`` with one entry
per incident hyperedge ``e``: the minimum tau over the *other* pins of
``e`` (Algorithm 2 line 8; ``inf`` for singleton hyperedges) and sets
``tau[v]`` to the h-index of ``L``.  On plain graphs the entry is simply
the neighbour's tau, recovering Algorithm 1.

:func:`static_hindex_csr` / :func:`static_hindex_csr_hypergraph` are
vectorised synchronous variants over frozen CSR snapshots; they are the
fast path for initialising large synthetic datasets and the "recompute
from scratch" competitor in the latency benchmarks.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Iterable, Optional, Set

import numpy as np

from repro.graph.dynamic_hypergraph import MinCache
from repro.parallel.runtime import ParallelRuntime, SerialRuntime
from repro.structures.hindex import h_index_counting, h_index_counting_scratch

__all__ = [
    "hhc_local",
    "static_hindex",
    "static_hindex_sync",
    "static_hindex_csr",
    "static_hindex_csr_hypergraph",
]

Vertex = Hashable


def _vertex_update(sub, tau: Dict[Vertex, int], v: Vertex, rt: ParallelRuntime,
                   min_cache: Optional[MinCache]) -> int:
    """One h-index step for ``v``; returns the new value (not stored)."""
    L = []
    if min_cache is not None:
        for e in sub.incident(v):
            L.append(min_cache.min_excluding(e, v))
        rt.charge(len(L))
    else:
        for e in sub.incident(v):
            m: float = math.inf
            n = 0
            for w in sub.pins(e):
                n += 1
                if w != v:
                    t = tau.get(w, 0)
                    if t < m:
                        m = t
            rt.charge(n)
            L.append(m)
    rt.charge(len(L))  # the h-index evaluation itself
    # scratch variant: this runs once per frontier vertex per iteration,
    # so the reusable histogram pays off (see repro.structures.hindex)
    return h_index_counting_scratch(L)


def hhc_local(
    sub,
    rt: Optional[ParallelRuntime] = None,
    tau: Optional[Dict[Vertex, int]] = None,
    frontier: Optional[Iterable[Vertex]] = None,
    min_cache: Optional[MinCache] = None,
    on_change=None,
    max_iterations: Optional[int] = None,
    residual: Optional[Set[Vertex]] = None,
) -> Dict[Vertex, int]:
    """Algorithm 2 (``hhcLocal``): frontier h-index convergence.

    Parameters
    ----------
    sub:
        Graph or hypergraph substrate.
    rt:
        Parallel runtime; defaults to a fresh :class:`SerialRuntime`.
    tau:
        Optional initial local values (mutated in place and returned).
        Must be pointwise >= the true core values for correctness
        (Lemma 1); when omitted, initialised to degrees.
    frontier:
        Optional initial active set ``A``; defaults to all vertices.
    min_cache:
        Optional cached-hyperedge-minimum accelerator; must be bound to the
        same ``tau`` mapping.
    on_change:
        Optional callback ``(v, old, new)`` invoked (serially) for every
        committed tau change -- the maintainers use it to keep their level
        index in sync.
    max_iterations:
        Iteration budget; ``None`` means run to convergence.  When the
        budget stops iteration early, ``tau`` is a pointwise *upper bound*
        on kappa (values only ever descend toward kappa from a valid
        initialisation) -- the property the approximate maintainer builds
        on.
    residual:
        Optional set that receives the still-active frontier when the
        iteration budget ran out (empty on full convergence).  Resuming
        ``hhc_local`` later with this frontier completes the computation.

    Returns ``tau`` (== kappa on full convergence with valid preconditions).
    """
    if rt is None:
        rt = SerialRuntime()
    if tau is None:
        tau = {v: sub.degree(v) for v in sub.vertices()}
        rt.serial(len(tau))
    if frontier is None:
        active: Set[Vertex] = set(tau)
    else:
        active = {v for v in frontier if sub.has_vertex(v)}

    if residual is not None:
        residual.clear()
    iterations = 0
    while active:
        iterations += 1
        if max_iterations is not None and iterations > max_iterations:
            if residual is not None:
                residual.update(active)
            break
        worklist = list(active)

        def step(v):
            if not sub.has_vertex(v):
                return None
            new = _vertex_update(sub, tau, v, rt, min_cache)
            old = tau.get(v, 0)
            if new != old:
                # asynchronous write: later tasks in this sweep see it
                tau[v] = new
                return (v, old, new)
            return None

        results = rt.parallel_for(worklist, step, region="hhc_local")

        active = set()
        for res in results:
            if res is None:
                continue
            v, old, new = res
            if min_cache is not None:
                min_cache.on_value_change(v)
            if on_change is not None:
                on_change(v, old, new)
            active.add(v)
            nbrs = sub.neighbors(v)
            active.update(nbrs)
            rt.serial(1)
    return tau


def static_hindex(sub, rt: Optional[ParallelRuntime] = None) -> Dict[Vertex, int]:
    """Core values from scratch via :func:`hhc_local` (degree init)."""
    return hhc_local(sub, rt)


def static_hindex_sync(sub, rt: Optional[ParallelRuntime] = None) -> Dict[Vertex, int]:
    """The *synchronous* variant of Algorithm 1.

    Section III-A: "In the synchronous version each vertex considers its
    neighbor's values from the previous time step."  Every sweep reads a
    frozen snapshot of tau (Jacobi iteration), unlike :func:`hhc_local`'s
    asynchronous latest-value reads (Gauss-Seidel).  Both converge to
    kappa; the synchronous one typically needs more sweeps but is
    trivially deterministic under any execution order, which is why it is
    the form distributed implementations use [23].
    """
    if rt is None:
        rt = SerialRuntime()
    tau: Dict[Vertex, int] = {v: sub.degree(v) for v in sub.vertices()}
    rt.serial(len(tau))
    vertices = list(tau)
    while True:
        frozen = dict(tau)

        def step(v):
            new = _vertex_update(sub, frozen, v, rt, None)
            return (v, new) if new != frozen[v] else None

        results = rt.parallel_for(vertices, step, region="hhc_sync")
        changed = [r for r in results if r is not None]
        for v, new in changed:
            tau[v] = new
        rt.serial(len(changed))
        if not changed:
            return tau


# ---------------------------------------------------------------------------
# vectorised CSR variants
# ---------------------------------------------------------------------------

def _segment_h_index(values: np.ndarray, seg: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Per-segment h-index of ``values`` grouped by ``seg`` (CSR layout).

    Sort each segment descending; with ranks 1..len within the segment, the
    h-index equals the number of positions where value >= rank (the
    predicate is prefix-closed for a descending sort).

    ``seg`` must be non-decreasing and consistent with ``indptr`` (the
    callers build it with ``repeat(arange, diff(indptr))``).  The per-
    segment descending sort is realised as one direct in-place sort of a
    combined integer key ``seg * K + (K-1-value)``: values are first
    clipped to the largest segment size, which never changes an h-index
    (h <= segment size), and keeps the key range small.  A single-key
    ``ndarray.sort`` is several times faster than the indirect two-key
    ``np.lexsort`` it replaces.
    """
    n_seg = len(indptr) - 1
    if len(values) == 0:
        return np.zeros(n_seg, dtype=np.int64)
    sizes = np.diff(indptr)
    K = int(sizes.max()) + 1
    clipped = np.minimum(values, K - 1)
    combined = seg * K + (K - 1 - clipped)
    combined.sort()
    vs = (K - 1) - (combined % K)
    ranks = np.arange(1, len(values) + 1, dtype=np.int64) - np.repeat(indptr[:-1], sizes)
    # one trailing zero slot: reduceat rejects an offset == len(values),
    # which every trailing empty segment carries; the pad makes those
    # offsets valid without moving the last non-empty segment's end
    ok = np.zeros(len(values) + 1, dtype=np.int64)
    np.greater_equal(vs, ranks, out=ok[:-1])
    out = np.add.reduceat(ok, indptr[:-1])
    # an empty segment reads the next segment's first slot; zero it
    out[sizes == 0] = 0
    return out


def static_hindex_csr(csr) -> np.ndarray:
    """Synchronous h-index iteration on a :class:`CSRGraph` snapshot.

    Returns the dense kappa array (index order = ``csr.labels``).
    """
    tau = np.diff(csr.indptr).astype(np.int64)
    seg = np.repeat(np.arange(csr.n, dtype=np.int64), np.diff(csr.indptr))
    while True:
        gathered = tau[csr.indices]
        new = _segment_h_index(gathered, seg, csr.indptr)
        if np.array_equal(new, tau):
            return tau
        tau = new


def static_hindex_csr_hypergraph(csrh) -> np.ndarray:
    """Synchronous h-index iteration on a :class:`CSRHypergraph` snapshot.

    Per iteration: compute each hyperedge's minimum and second minimum of
    pin tau values, derive the min-excluding-self contribution for every
    pin, then take per-vertex h-indices of the contributions.
    """
    n, m = csrh.n, csrh.m
    tau = np.diff(csrh.v_indptr).astype(np.int64)
    e_sizes = np.diff(csrh.e_indptr)
    e_seg = np.repeat(np.arange(m, dtype=np.int64), e_sizes)
    v_seg = np.repeat(np.arange(n, dtype=np.int64), np.diff(csrh.v_indptr))
    # big sentinel standing in for +inf while staying in integer arithmetic;
    # it exceeds any reachable h-index (bounded by max degree)
    INF = np.int64(1 << 60)

    # map each (vertex, edge) incidence pair in the vertex-side CSR to the
    # pin's position so the per-edge mins can be gathered back
    while True:
        pin_vals = tau[csrh.e_pins]
        # per-edge min and argmin
        emin = np.full(m, INF, dtype=np.int64)
        np.minimum.at(emin, e_seg, pin_vals)
        # count of pins achieving the min, to decide ties
        is_min = pin_vals == emin[e_seg]
        min_count = np.zeros(m, dtype=np.int64)
        np.add.at(min_count, e_seg, is_min.astype(np.int64))
        # second minimum: min over pins strictly above the min
        above = np.where(is_min, INF, pin_vals)
        emin2 = np.full(m, INF, dtype=np.int64)
        np.minimum.at(emin2, e_seg, above)

        # contribution of edge e to pin v: min over the *other* pins
        contrib = np.where(
            (pin_vals == emin[e_seg]) & (min_count[e_seg] == 1),
            emin2[e_seg],
            emin[e_seg],
        )
        # scatter contributions from edge-side CSR into vertex-side order:
        # build per-vertex value lists by sorting incidence pairs by vertex
        pair_vertex = csrh.e_pins
        order = np.argsort(pair_vertex, kind="stable")
        gathered = contrib[order]
        new = _segment_h_index(np.minimum(gathered, INF), v_seg, csrh.v_indptr)
        if np.array_equal(new, tau):
            return tau
        tau = new
