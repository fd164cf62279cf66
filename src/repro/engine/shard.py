"""Per-node shard substrates and halo tau import/export kernels.

A :class:`ShardSubstrate` is what one cluster node actually holds in the
sharded distributed layer (:mod:`repro.distributed.core`): a genuine
substrate -- :class:`~repro.graph.dynamic_graph.DynamicGraph` /
:class:`~repro.graph.dynamic_hypergraph.DynamicHypergraph` on the dict
backend, :class:`~repro.engine.array_graph.ArrayGraph` /
:class:`~repro.engine.array_hypergraph.ArrayHypergraph` on the array
backend -- restricted to the node's *owned* vertices plus the **ghost /
halo ring**: the boundary neighbours that co-occur with an owned vertex
in some unit (graph edge, hyperedge).  Shard invariants:

* every unit incident to an owned vertex is present in full, so an owned
  vertex's shard degree equals its global degree and its h-index
  recomputation never needs the wire;
* every non-owned (*ghost*) vertex in the shard carries an owner-stamped
  read-only tau in ``halo`` -- the shard never writes a ghost's value
  except by importing a :class:`HaloDelta` from its owner;
* ``tau`` holds authoritative values for owned vertices only.  No node
  holds a whole-graph replica: shard size is owned + boundary, and total
  memory across nodes is ``|V| * replication_factor``.

:class:`HaloDelta` is the wire format of boundary traffic: the changed
``(vertex, tau)`` pairs for one destination, packed as parallel ``int64``
arrays when labels are integers (``nbytes`` is then the real array size),
falling back to lists for exotic labels.  Supersteps exchange *only*
these deltas -- value maps never cross the wire after the one
boundary-sized initial exchange (:func:`initial_halo_exports`).
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterable, Iterator, List, Set, Tuple

import numpy as np

__all__ = ["ShardSubstrate", "HaloDelta", "build_shards", "initial_halo_exports"]

Vertex = Hashable

#: wire size of one (int64 id, int64 value) delta entry
DELTA_ENTRY_BYTES = 16


class HaloDelta:
    """Changed ``(vertex, tau)`` pairs bound for one destination node.

    The payload of every boundary message: packed as two parallel
    ``int64`` arrays when every label is an integer (the columnar / array
    engine case -- ``nbytes`` is then the genuine array footprint), as
    plain lists otherwise.
    """

    __slots__ = ("labels", "values")

    def __init__(self, labels, values) -> None:
        self.labels = labels
        self.values = values

    @classmethod
    def pack(cls, pairs: List[Tuple[Vertex, int]]) -> "HaloDelta":
        labels = [v for v, _ in pairs]
        values = [t for _, t in pairs]
        if all(type(v) is int for v in labels):
            return cls(np.array(labels, dtype=np.int64),
                       np.array(values, dtype=np.int64))
        return cls(labels, values)

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def nbytes(self) -> int:
        if isinstance(self.labels, np.ndarray):
            return int(self.labels.nbytes + self.values.nbytes)
        return len(self.labels) * DELTA_ENTRY_BYTES

    def items(self) -> Iterator[Tuple[Vertex, int]]:
        if isinstance(self.labels, np.ndarray):
            return zip(self.labels.tolist(), self.values.tolist())
        return zip(self.labels, self.values)

    def __repr__(self) -> str:
        return f"HaloDelta(n={len(self)}, nbytes={self.nbytes})"


class ShardSubstrate:
    """One node's shard: owned vertices + ghost ring over a real substrate.

    ``owner`` is the global ownership function (partition lookup with the
    stable new-vertex rule); the shard uses it to distinguish owned from
    ghost and to address boundary deltas.
    """

    __slots__ = ("node", "local", "owner", "tau", "halo", "halo_stamp")

    def __init__(self, node: int, local, owner: Callable[[Vertex], int]) -> None:
        self.node = node
        self.local = local
        self.owner = owner
        #: authoritative values of owned vertices
        self.tau: Dict[Vertex, int] = {}
        #: owner-stamped read-only values of ghost vertices
        self.halo: Dict[Vertex, int] = {}
        #: superstep stamp of each ghost's last import (staleness audits)
        self.halo_stamp: Dict[Vertex, int] = {}

    # -- ownership and values -------------------------------------------------
    def is_owned(self, v: Vertex) -> bool:
        return self.owner(v) == self.node

    def value_of(self, v: Vertex) -> int:
        """The shard's current view of tau(v): authoritative for owned
        vertices, halo (stale by at most one superstep) for ghosts."""
        got = self.tau.get(v)
        if got is not None:
            return got
        return self.halo.get(v, 0)

    class _ValueView:
        """Read-only mapping facade over (tau | halo), for the classifier."""

        __slots__ = ("_shard",)

        def __init__(self, shard: "ShardSubstrate") -> None:
            self._shard = shard

        def get(self, v: Vertex, default: int = 0) -> int:
            s = self._shard
            got = s.tau.get(v)
            if got is not None:
                return got
            return s.halo.get(v, default)

    def values(self) -> "ShardSubstrate._ValueView":
        return ShardSubstrate._ValueView(self)

    # -- ghost bookkeeping ----------------------------------------------------
    def register(self, v: Vertex, *, value: int = 0, stamp: int = 0) -> None:
        """Record ``v``'s value after a structural change added it to the
        shard: owned vertices get an authoritative tau entry, ghosts an
        owner-stamped halo entry.  Existing entries are left alone."""
        if self.is_owned(v):
            self.tau.setdefault(v, value)
        elif v not in self.halo:
            self.halo[v] = value
            self.halo_stamp[v] = stamp

    def set_halo(self, v: Vertex, value: int, *, stamp: int) -> None:
        """Import one owner-stamped ghost value (delta application)."""
        self.halo[v] = value
        self.halo_stamp[v] = stamp

    def import_delta(self, delta: HaloDelta, *, stamp: int) -> List[Vertex]:
        """Apply a boundary delta; returns the ghost vertices whose value
        changed (still present in the shard) for neighbour activation."""
        touched: List[Vertex] = []
        has_vertex = self.local.has_vertex
        for v, value in delta.items():
            if not has_vertex(v):
                continue
            self.halo[v] = value
            self.halo_stamp[v] = stamp
            touched.append(v)
        return touched

    def forget(self, v: Vertex) -> None:
        """Drop all value state for a vertex that left the shard."""
        self.tau.pop(v, None)
        self.halo.pop(v, None)
        self.halo_stamp.pop(v, None)

    def gc(self, candidates: Iterable[Vertex]) -> None:
        """Forget every candidate no longer structurally present."""
        has_vertex = self.local.has_vertex
        for v in candidates:
            if not has_vertex(v):
                self.forget(v)

    # -- boundary addressing ----------------------------------------------------
    def delta_dests(self, v: Vertex) -> Set[int]:
        """Nodes holding ``v`` as a ghost: the owners of v's foreign
        neighbours (each such node's shard contains the crossing unit,
        hence v).  Computable entirely from the shard -- the owner needs
        no global directory to address its boundary deltas."""
        node = self.node
        owner = self.owner
        dests: Set[int] = set()
        for w in self.local.neighbors(v):
            dst = owner(w)
            if dst != node:
                dests.add(dst)
        return dests

    # -- accounting ----------------------------------------------------------
    @property
    def num_owned(self) -> int:
        return len(self.tau)

    @property
    def num_ghosts(self) -> int:
        return len(self.halo)

    def footprint(self) -> Dict[str, int]:
        """Shard memory summary (the no-full-replica audit surface)."""
        return {
            "owned": len(self.tau),
            "ghosts": len(self.halo),
            "vertices": self.local.num_vertices(),
            "edges": self.local.num_edges(),
            "pins": self.local.num_pins(),
        }

    def __repr__(self) -> str:
        return (f"ShardSubstrate(node={self.node}, owned={len(self.tau)}, "
                f"ghosts={len(self.halo)})")


def _local_shard(units: list, is_hyper: bool, backend: str):
    """One node's substrate holding exactly ``units``: ``(u, v)`` edges,
    or ``(edge_id, pins)`` hyperedges."""
    if backend == "array":
        if is_hyper:
            from repro.engine.array_hypergraph import ArrayHypergraph

            return ArrayHypergraph.from_incidence(units)
        from repro.engine.array_graph import ArrayGraph

        return ArrayGraph.from_edges(units)
    if backend != "dict":
        raise ValueError(f"unknown shard backend {backend!r}")
    if is_hyper:
        from repro.graph.dynamic_hypergraph import DynamicHypergraph

        local = DynamicHypergraph()
        for e, pins in units:
            for p in pins:
                local.add_pin(e, p)
        return local
    from repro.graph.dynamic_graph import DynamicGraph

    return DynamicGraph.from_edges(units)


def build_shards(sub, owner: Callable[[Vertex], int], nodes: int, *,
                 backend: str = "dict") -> List[ShardSubstrate]:
    """Cut ``sub`` into per-node shards under the ``owner`` map.

    One pass over the units: a graph edge lands in its two endpoint
    owners' shards; a hyperedge lands *in full* in the shard of every
    node owning at least one pin (so each host can classify and
    recompute without remote pin lookups).  Array shards are
    bulk-loaded from each node's unit list.  Owned taus are seeded from
    shard-local degrees -- exact, because an owned vertex's incident
    units are all present.  Ghost halos are registered at 0 and filled
    by the initial boundary exchange (:func:`initial_halo_exports`).

    ``sub`` is read once and not retained: the returned shards are the
    only structural state the distributed layer keeps.
    """
    is_hyper = bool(getattr(sub, "is_hypergraph", False))
    units: List[list] = [[] for _ in range(nodes)]
    if is_hyper:
        for e, pins in sub.hyperedges():
            pins = tuple(pins)
            for n in {owner(p) for p in pins}:
                units[n].append((e, pins))
    else:
        for u, v in sub.edges():
            nu, nv = owner(u), owner(v)
            units[nu].append((u, v))
            if nv != nu:
                units[nv].append((u, v))
    shards = [ShardSubstrate(n, _local_shard(units[n], is_hyper, backend), owner)
              for n in range(nodes)]
    # seed values: owned = shard-local degree (== global), ghosts = 0
    for shard in shards:
        node = shard.node
        local = shard.local
        for v in local.vertices():
            if owner(v) == node:
                shard.tau[v] = local.degree(v)
            else:
                shard.halo[v] = 0
                shard.halo_stamp[v] = 0
    return shards


def initial_halo_exports(shard: ShardSubstrate) -> Dict[int, HaloDelta]:
    """The one boundary-sized seeding message per destination: every owned
    vertex's value, addressed to each node holding it as a ghost.  This
    replaces the old quadratic replica seeding (every node learning every
    remote degree): total volume is the ghost-copy count, i.e.
    ``|V| * (replication_factor - 1)``, not ``nodes * |V|``."""
    per_dst: Dict[int, List[Tuple[Vertex, int]]] = {}
    for v, value in shard.tau.items():
        for dst in shard.delta_dests(v):
            per_dst.setdefault(dst, []).append((v, value))
    return {dst: HaloDelta.pack(pairs) for dst, pairs in sorted(per_dst.items())}
