"""The flat-array maintenance engine.

The maintenance hot paths of :mod:`repro.core` are written against the
hash-based :class:`~repro.graph.substrate.Substrate` protocol -- flexible,
but every adjacency access pays dict/set overhead and nothing can be
vectorised.  This package provides an *interned* flat-array execution path
the maintainers use transparently whenever the substrate is array-backed:

``interner``
    :class:`VertexInterner` -- arbitrary hashable vertex labels to dense
    int ids, with free-list recycling so long-running dynamic workloads do
    not leak id space.
``array_graph``
    :class:`ArrayGraph` -- a fully dynamic adjacency store over numpy
    index arrays with per-vertex slack (amortised O(1) edge insert/delete)
    and periodic compaction.  Implements the full ``Substrate`` protocol,
    so every existing algorithm runs on it unchanged, and snapshots to the
    frozen :class:`~repro.graph.csr.CSRGraph` in O(n + m).
``array_hypergraph``
    :class:`ArrayHypergraph` -- the hypergraph analogue: both directions
    of the incidence (vertex -> hyperedges, hyperedge -> pins) in two
    slack+compaction pools with O(1) ``add_pin``/``remove_pin``, dual
    interners for vertex and hyperedge labels, and a
    :class:`~repro.graph.csr.CSRHypergraph` snapshot.
``frontier``
    :func:`hhc_frontier_csr` / :func:`hhc_frontier_incidence` -- the
    vectorised Algorithm 2: per-iteration neighbour-tau (or
    hyperedge-min) gathers and segment h-indices over the whole frontier
    at once, replacing the per-vertex Python update loop.
``tau_array``
    :class:`TauArray` -- dense ``int64`` tau values plus a live mask; the
    ``mod`` increment sweep reads the levels it lifts off it in one
    masked pass, with no level index to keep in sync;
    :class:`EdgeMinShadow` -- the dense per-hyperedge min-tau shadow
    (first/second order statistic + witness, dirty-edge invalidation)
    the hypergraph frontier kernel reads instead of scanning pins.

See docs/PERFORMANCE.md for the architecture and invariants, and
``benchmarks/bench_wallclock.py`` for the dict-vs-array wall-clock
comparison this engine is measured by.
"""

from repro.engine.array_graph import ArrayGraph
from repro.engine.array_hypergraph import ArrayHypergraph
from repro.engine.frontier import hhc_frontier_csr, hhc_frontier_incidence
from repro.engine.interner import VertexInterner
from repro.engine.tau_array import EdgeMinShadow, TauArray

__all__ = [
    "ArrayGraph",
    "ArrayHypergraph",
    "VertexInterner",
    "TauArray",
    "EdgeMinShadow",
    "hhc_frontier_csr",
    "hhc_frontier_incidence",
]
