"""Analytics over a maintained decomposition.

The whole point of *maintaining* core values (the paper's §I framing) is
that queries answer instantly from the maintained state: "Cores themselves
can then be efficiently computed from the values [10]."  This module is
that query layer.  Every function takes either a maintainer (anything with
``sub`` and ``kappa()``) or an explicit ``(sub, kappa)`` pair, touches no
algorithm internals, and does work proportional to its answer where
possible.

* :func:`core_spectrum` -- vertices per core value (the shell sizes).
* :func:`shell` -- the k-shell of a vertex (its subcore's level set).
* :func:`densest_core` -- the innermost (degeneracy) core, the classic
  dense-region answer the paper's intro motivates.
* :func:`degeneracy_ordering` -- a smallest-last vertex ordering derived
  from maintained values.
* :func:`core_containment_tree` -- the nesting structure of connected
  k-cores across levels ("complexity of core hierarchy", §V-A).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Set, Tuple

from repro.core.peel import peel
from repro.core.subcore import k_core_components
from repro.structures.bucket_queue import BucketQueue

__all__ = [
    "core_spectrum",
    "shell",
    "densest_core",
    "degeneracy_ordering",
    "core_containment_tree",
    "CoreNode",
    "vertices_with_core_at_least",
    "top_k_densest",
]

Vertex = Hashable


def _unpack(source, kappa: Optional[Dict[Vertex, int]]):
    if kappa is not None:
        return source, kappa
    if hasattr(source, "sub") and hasattr(source, "kappa"):
        return source.sub, source.kappa()
    return source, peel(source)


def core_spectrum(source, kappa: Optional[Dict[Vertex, int]] = None) -> Dict[int, int]:
    """``{k: number of vertices with core value exactly k}``.

    >>> from repro.graph import DynamicGraph
    >>> g = DynamicGraph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
    >>> core_spectrum(g)
    {1: 1, 2: 3}
    """
    _, kappa = _unpack(source, kappa)
    out: Dict[int, int] = {}
    for k in kappa.values():
        out[k] = out.get(k, 0) + 1
    return dict(sorted(out.items()))


def shell(source, v: Vertex, kappa: Optional[Dict[Vertex, int]] = None) -> Set[Vertex]:
    """The k-shell containing ``v``: all vertices sharing its core value
    and connected to it through them (the paper's *subcore*, §II-D)."""
    sub, kappa = _unpack(source, kappa)
    if v not in kappa:
        return set()
    k = kappa[v]
    seen = {v}
    stack = [v]
    while stack:
        x = stack.pop()
        for w in sub.neighbors(x):
            if w not in seen and kappa.get(w) == k:
                seen.add(w)
                stack.append(w)
    return seen


def vertices_with_core_at_least(source, k: int,
                                kappa: Optional[Dict[Vertex, int]] = None
                                ) -> Set[Vertex]:
    """All vertices with core value >= ``k`` (the k-core's vertex set).

    A maintainer answers it itself (``vertices_at_least``): off its
    populated buckets on the dict engine, in one masked pass over the
    dense tau on the array engine.  A serve-layer
    :class:`~repro.serve.view.ReadView` answers level by level
    (``levels`` / ``vertices_at_level``), in work proportional to the
    answer; anything else takes one pass over ``kappa``.

    >>> from repro.graph import DynamicGraph
    >>> g = DynamicGraph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
    >>> sorted(vertices_with_core_at_least(g, 2))
    [0, 1, 2]
    """
    if kappa is None and hasattr(source, "vertices_at_least"):
        return source.vertices_at_least(k)
    if kappa is None and hasattr(source, "levels") \
            and hasattr(source, "vertices_at_level"):
        out: Set[Vertex] = set()
        for level in list(source.levels()):
            if level >= k:
                out.update(source.vertices_at_level(level))
        return out
    _, kappa = _unpack(source, kappa)
    return {v for v, kv in kappa.items() if kv >= k}


def top_k_densest(source, n: int = 1,
                  kappa: Optional[Dict[Vertex, int]] = None
                  ) -> List[Tuple[int, Set[Vertex]]]:
    """The ``n`` innermost connected cores, densest first.

    Walks core levels downward from the degeneracy and reports each
    connected k-core component as ``(k, vertices)`` until ``n`` are
    collected -- the serve layer's "give me the densest regions" query.
    Components of a higher level nest inside lower-level ones (that is
    the core hierarchy); :func:`core_containment_tree` exposes the full
    nesting when needed.
    """
    sub, kappa = _unpack(source, kappa)
    if not kappa or n <= 0:
        return []
    out: List[Tuple[int, Set[Vertex]]] = []
    for k in range(max(kappa.values()), 0, -1):
        comps = k_core_components(sub, k, kappa)
        comps.sort(key=len, reverse=True)
        for comp in comps:
            out.append((k, comp))
            if len(out) == n:
                return out
    return out


def densest_core(source, kappa: Optional[Dict[Vertex, int]] = None
                 ) -> Tuple[int, List[Set[Vertex]]]:
    """The innermost cores: ``(degeneracy, connected components)``."""
    sub, kappa = _unpack(source, kappa)
    if not kappa:
        return 0, []
    top = max(kappa.values())
    return top, k_core_components(sub, top, kappa)


def degeneracy_ordering(source, kappa: Optional[Dict[Vertex, int]] = None
                        ) -> List[Vertex]:
    """A smallest-last (peel) ordering consistent with the maintained
    values: vertices appear level by level, within a level in a valid
    elimination order.  Useful for greedy colouring and sparsification."""
    sub, kappa = _unpack(source, kappa)
    queue = BucketQueue()
    for v in kappa:
        queue.push(v, sub.degree(v))
    removed: Set[Vertex] = set()
    order: List[Vertex] = []
    removed_edges: Set = set()
    while queue:
        v, _ = queue.pop_min()
        order.append(v)
        removed.add(v)
        for e in sub.incident(v):
            if e in removed_edges:
                continue
            removed_edges.add(e)
            for w in sub.pins(e):
                if w != v and w not in removed and w in queue:
                    queue.decrease(w, queue.priority(w) - 1)
    return order


class CoreNode:
    """One connected k-core in the containment tree."""

    __slots__ = ("k", "vertices", "children")

    def __init__(self, k: int, vertices: Set[Vertex]) -> None:
        self.k = k
        self.vertices = vertices
        self.children: List["CoreNode"] = []

    def __repr__(self) -> str:
        return f"CoreNode(k={self.k}, |V|={len(self.vertices)}, children={len(self.children)})"

    def depth(self) -> int:
        return 1 + max((c.depth() for c in self.children), default=0)

    def walk(self):
        yield self
        for c in self.children:
            yield from c.walk()


def core_containment_tree(source, kappa: Optional[Dict[Vertex, int]] = None
                          ) -> List[CoreNode]:
    """The nesting forest of connected k-cores, k ascending.

    A (k+1)-core component is always contained in exactly one k-core
    component; the forest's roots are the 1-core components and its depth
    is the paper's "complexity of core hierarchy" (§V-A).
    """
    sub, kappa = _unpack(source, kappa)
    if not kappa:
        return []
    top = max(kappa.values())
    levels: Dict[int, List[CoreNode]] = {}
    for k in range(1, top + 1):
        comps = k_core_components(sub, k, kappa)
        levels[k] = [CoreNode(k, comp) for comp in comps]
    # link children to parents level by level
    for k in range(2, top + 1):
        for child in levels[k]:
            probe = next(iter(child.vertices))
            for parent in levels[k - 1]:
                if probe in parent.vertices:
                    parent.children.append(child)
                    break
    return levels.get(1, [])
