"""Fully dynamic flat-array adjacency: the CSR-backed substrate.

:class:`ArrayGraph` stores the adjacency of a simple undirected graph in a
single ``int64`` neighbour pool addressed by per-vertex ``(start, count,
capacity)`` triples -- a *dynamic* CSR.  Each vertex block carries slack:
inserting a neighbour into a full block relocates it to the pool tail with
doubled capacity (amortised O(1)), deletion swap-removes within the block
(O(1) via the arc position map), and abandoned block space is reclaimed by
periodic whole-pool compaction once holes outgrow live data.

Labels stay arbitrary hashable values: a shared
:class:`~repro.engine.interner.VertexInterner` maps them to dense ids (the
array indices) with free-list recycling, so the structure presents exactly
the :class:`~repro.graph.substrate.Substrate` protocol -- every existing
maintenance algorithm runs on it unchanged -- while the vectorised engine
(:mod:`repro.engine.frontier`) reads the dense arrays directly.

Invariants (relied on by the frontier kernels; see docs/PERFORMANCE.md):

* ``pool[starts[i] : starts[i] + counts[i]]`` are exactly the live
  neighbour ids of live vertex ``i``; entries beyond ``counts[i]`` within
  the block are garbage.
* live vertices have ``counts[i] >= 1`` (hypersparse: degree-0 vertices
  are released, and their interned id recycled);
* ``_pos[(u << 32) | v]`` is the offset of ``v`` inside ``u``'s block
  (both directions stored), doubling as the O(1) edge membership test;
* compaction and relocation never change *which* ids are live, only where
  blocks sit in the pool -- dense per-id state (tau arrays) survives.
"""

from __future__ import annotations

from itertools import chain, islice
from typing import Dict, Iterable, Iterator, List, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.substrate import Change, EdgeId, Vertex, edge_id
from repro.engine.interner import VertexInterner

__all__ = ["ArrayGraph"]

_MIN_BLOCK = 4
_EMPTY_I64 = np.zeros(0, dtype=np.int64)
#: units read, and position-map entries written, per step of a bulk load:
#: bounds the Python objects a build holds at once
LOAD_CHUNK = 1 << 16


def block_capacities(counts: np.ndarray, slack: float) -> np.ndarray:
    """Block capacity for each row count: the count plus proportional
    slack, at least ``_MIN_BLOCK`` (what compaction and bulk loads give
    every live block)."""
    return np.maximum(_MIN_BLOCK, counts + (counts * slack).astype(np.int64) + 1)


def pack_rows(rows: np.ndarray, members: np.ndarray, n_rows: int, slack: float,
              pos: Dict[int, int]):
    """Lay ``(rows[k], members[k])`` pairs out as a compact dynamic CSR.

    The bulk loader behind every array substrate constructor: row ``r``
    gets one block holding its members in input order, sized as
    compaction sizes it (rows without members get no block), and
    ``pos`` receives ``(r << 32) | member -> offset`` for every pair,
    written :data:`LOAD_CHUNK` entries at a time.  Preconditions: the
    pairs are distinct and every row is below ``n_rows``.  Returns
    ``(starts, counts, caps, pool, tail)``.
    """
    size = max(16, n_rows)
    counts = np.bincount(rows, minlength=size).astype(np.int64)
    caps = np.where(counts > 0, block_capacities(counts, slack), 0)
    starts = np.zeros(size, dtype=np.int64)
    np.cumsum(caps[:-1], out=starts[1:])
    tail = int(starts[-1] + caps[-1])
    # numpy radix-sorts 16-bit keys: two stable passes order any id < 2^32
    order = np.argsort((rows & 0xFFFF).astype(np.uint16), kind="stable")
    if size > 1 << 16:
        order = order[np.argsort((rows[order] >> 16).astype(np.uint16), kind="stable")]
    rows_s = rows[order]
    members_s = members[order]
    first = np.cumsum(counts) - counts
    rank = np.arange(len(rows_s), dtype=np.int64) - first[rows_s]
    pool = np.zeros(max(64, tail), dtype=np.int64)
    pool[starts[rows_s] + rank] = members_s
    for lo in range(0, len(rank), LOAD_CHUNK):
        hi = lo + LOAD_CHUNK
        keys = (rows_s[lo:hi] << 32) | members_s[lo:hi]
        pos.update(zip(keys.tolist(), rank[lo:hi].tolist()))
    return starts, counts, caps, pool, tail


def compact_rows(starts: np.ndarray, counts: np.ndarray, caps: np.ndarray,
                 pool: np.ndarray, live: np.ndarray, slack: float):
    """Repack the dynamic CSR's ``live`` rows contiguously, in their
    current pool order, each with fresh proportional slack.

    One gather of every live block and one scatter into the new pool;
    ``starts`` and ``caps`` are rewritten in place for the live rows.
    Members keep their offsets within their block, so a position map
    stays valid.  Returns ``(new_pool, tail)``.
    """
    live = live[np.argsort(starts[live], kind="stable")]  # keep locality
    cnt = counts[live]
    new_caps = block_capacities(cnt, slack)
    new_starts = np.zeros(len(live) + 1, dtype=np.int64)
    np.cumsum(new_caps, out=new_starts[1:])
    tail = int(new_starts[-1])
    new_pool = np.zeros(max(64, tail), dtype=np.int64)
    first = np.zeros(len(live), dtype=np.int64)
    np.cumsum(cnt[:-1], out=first[1:])
    # per member: its rank inside the block, then old and new addresses
    rank = np.arange(int(cnt.sum()), dtype=np.int64) - np.repeat(first, cnt)
    new_pool[np.repeat(new_starts[:-1], cnt) + rank] = pool[np.repeat(starts[live], cnt) + rank]
    starts[live] = new_starts[:-1]
    caps[live] = new_caps
    return new_pool, tail


def first_occurrences(keys: np.ndarray) -> np.ndarray:
    """Indices of the first occurrence of each distinct key, in input
    order (the bulk loaders' duplicate collapse)."""
    _, first = np.unique(keys, return_index=True)
    first.sort()
    return first


class ArrayGraph:
    """Dynamic simple undirected graph over flat numpy arrays.

    >>> g = ArrayGraph.from_edges([(1, 2), (2, 3)])
    >>> g.degree(2)
    2
    >>> sorted(g.neighbors(2))
    [1, 3]
    >>> removed = g.remove_edge(1, 2)
    >>> g.has_vertex(1)
    False
    """

    is_hypergraph = False
    #: marks this substrate as eligible for the vectorised engine
    is_array_backed = True

    def __init__(self, *, slack: float = 0.25, compact_threshold: float = 0.5) -> None:
        self.interner = VertexInterner()
        cap = 16
        self._starts = np.zeros(cap, dtype=np.int64)
        self._counts = np.zeros(cap, dtype=np.int64)
        self._caps = np.zeros(cap, dtype=np.int64)
        self._pool = np.zeros(64, dtype=np.int64)
        self._tail = 0          # next free pool offset
        self._holes = 0         # abandoned pool capacity
        self._num_edges = 0
        #: arc (u_id << 32 | v_id) -> offset of v inside u's block
        self._pos: Dict[int, int] = {}
        self._slack = slack
        self._compact_threshold = compact_threshold
        self.compactions = 0
        self.relocations = 0

    # -- construction ---------------------------------------------------------
    @classmethod
    def from_edges(cls, edges: Iterable[Tuple[Vertex, Vertex]], **kwargs) -> "ArrayGraph":
        """Bulk-build from ``(u, v)`` pairs, read in bounded chunks.

        Same result as one :meth:`add_edge` per pair -- a duplicate in
        either orientation collapses to one edge, a self-loop raises
        ``ValueError`` -- with every block laid out compactly.
        """
        g = cls(**kwargs)
        it = iter(edges)
        parts: List[np.ndarray] = [_EMPTY_I64]
        while True:
            chunk = list(islice(it, LOAD_CHUNK))
            if not chunk:
                break
            if set(map(len, chunk)) != {2}:
                raise ValueError("edges must be (u, v) pairs")
            ids = g.interner.intern_many(list(chain.from_iterable(chunk)))
            loops = np.flatnonzero(ids[0::2] == ids[1::2])
            if len(loops):
                raise ValueError(f"self-loop {chunk[loops[0]][0]!r} not allowed")
            parts.append(ids)
        # interleaved (u0, v0, u1, v1, ...) ids: row-sorting the arcs in
        # this order keeps every block in edge order
        pairs = np.concatenate(parts).reshape(-1, 2)
        u, v = pairs[:, 0], pairs[:, 1]
        pairs = pairs[first_occurrences((np.minimum(u, v) << 32) | np.maximum(u, v))]
        g._load_arcs(pairs.ravel(), pairs[:, ::-1].ravel())
        return g

    @classmethod
    def from_graph(cls, other, **kwargs) -> "ArrayGraph":
        """Convert any graph substrate (e.g. a ``DynamicGraph``)."""
        return cls.from_edges(other.edges(), **kwargs)

    def copy(self) -> "ArrayGraph":
        """An independent copy with the same dense ids, compactly laid out."""
        from repro.engine.frontier import gather_ranges

        g = ArrayGraph(slack=self._slack, compact_threshold=self._compact_threshold)
        g.interner = self.interner.copy()
        live = self.live_ids()
        tgt, _ = gather_ranges(self._starts, self._counts, self._pool, live)
        g._load_arcs(np.repeat(live, self._counts[live]), tgt)
        return g

    def _load_arcs(self, src: np.ndarray, tgt: np.ndarray) -> None:
        """Install the distinct arcs ``src[k] -> tgt[k]`` (both directions
        of every edge) into this empty graph's pool."""
        (self._starts, self._counts, self._caps, self._pool,
         self._tail) = pack_rows(src, tgt, self.interner.capacity, self._slack, self._pos)
        self._num_edges = len(src) // 2

    # -- id plumbing ----------------------------------------------------------
    def _ensure_vertex_capacity(self, i: int) -> None:
        cap = len(self._starts)
        if i < cap:
            return
        new_cap = max(cap * 2, i + 1)
        for name in ("_starts", "_counts", "_caps"):
            arr = getattr(self, name)
            grown = np.zeros(new_cap, dtype=np.int64)
            grown[:cap] = arr
            setattr(self, name, grown)

    def _intern(self, label: Vertex) -> int:
        known = label in self.interner
        i = self.interner.intern(label)
        if not known:
            self._ensure_vertex_capacity(i)
            # the id may be recycled: reset its block descriptor
            self._starts[i] = 0
            self._counts[i] = 0
            self._caps[i] = 0
        return i

    def _release(self, i: int) -> None:
        self._holes += int(self._caps[i])
        self._caps[i] = 0
        self._starts[i] = 0
        self.interner.release(self.interner.label_of(i))

    # -- pool management ------------------------------------------------------
    def _pool_reserve(self, extra: int) -> None:
        need = self._tail + extra
        if need <= len(self._pool):
            return
        if self._holes > self._compact_threshold * max(1, self._tail - self._holes):
            self._compact()
            need = self._tail + extra
        if need > len(self._pool):
            new_len = max(len(self._pool) * 2, need)
            grown = np.zeros(new_len, dtype=np.int64)
            grown[: self._tail] = self._pool[: self._tail]
            self._pool = grown

    def _relocate(self, i: int, new_cap: int) -> None:
        """Move vertex ``i``'s block to the pool tail with ``new_cap`` room."""
        self._pool_reserve(new_cap)
        s, c = int(self._starts[i]), int(self._counts[i])
        self._pool[self._tail : self._tail + c] = self._pool[s : s + c]
        self._holes += int(self._caps[i])
        self._starts[i] = self._tail
        self._caps[i] = new_cap
        self._tail += new_cap
        self.relocations += 1

    def _compact(self) -> None:
        """Repack the pool: live blocks contiguous, fresh proportional slack."""
        self._pool, self._tail = compact_rows(
            self._starts, self._counts, self._caps, self._pool,
            self.live_ids(), self._slack,
        )
        self._holes = 0  # slack is reserved room, not a hole
        self.compactions += 1

    # -- arc primitives -------------------------------------------------------
    @staticmethod
    def _key(u: int, v: int) -> int:
        return (u << 32) | v

    def _add_arc(self, u: int, v: int) -> None:
        c, cap = int(self._counts[u]), int(self._caps[u])
        if c == cap:
            self._relocate(u, max(_MIN_BLOCK, cap * 2))
        self._pool[int(self._starts[u]) + c] = v
        self._pos[self._key(u, v)] = c
        self._counts[u] = c + 1

    def _remove_arc(self, u: int, v: int) -> None:
        p = self._pos.pop(self._key(u, v))
        last = int(self._counts[u]) - 1
        s = int(self._starts[u])
        if p != last:
            w = int(self._pool[s + last])
            self._pool[s + p] = w
            self._pos[self._key(u, w)] = p
        self._counts[u] = last

    # -- graph-level mutation -------------------------------------------------
    def add_edge(self, u: Vertex, v: Vertex) -> bool:
        """Insert edge {u, v}.  Returns False if already present."""
        if u == v:
            raise ValueError(f"self-loop {u!r} not allowed")
        ui = self.interner.id_of(u)
        vi = self.interner.id_of(v)
        if ui is not None and vi is not None and self._key(ui, vi) in self._pos:
            return False
        ui = self._intern(u)
        vi = self._intern(v)
        self._add_arc(ui, vi)
        self._add_arc(vi, ui)
        self._num_edges += 1
        return True

    def remove_edge(self, u: Vertex, v: Vertex) -> bool:
        """Delete edge {u, v}.  Returns False if absent."""
        ui = self.interner.id_of(u)
        vi = self.interner.id_of(v)
        if ui is None or vi is None or self._key(ui, vi) not in self._pos:
            return False
        self._remove_arc(ui, vi)
        self._remove_arc(vi, ui)
        # implicit vertex deletion at degree zero (hypersparse model)
        if not self._counts[ui]:
            self._release(ui)
        if not self._counts[vi]:
            self._release(vi)
        self._num_edges -= 1
        if self._holes > self._compact_threshold * max(64, self._tail - self._holes):
            self._compact()
        return True

    # -- bulk mutation (the columnar fast path) -------------------------------
    def bulk_remove_edge_ids(self, uids: np.ndarray, vids: np.ndarray) -> List[Tuple[int, object]]:
        """Delete edges given as parallel dense-id arrays, grouped per
        endpoint: one hole-filling splice per touched adjacency block
        instead of two swap-removes per edge.

        Preconditions (the columnar precheck's job): every edge present,
        no duplicates.  Returns ``(id, label)`` pairs of vertices whose
        degree hit zero (released, ids recycled).
        """
        nd = len(uids)
        if not nd:
            return []
        src = np.concatenate((uids, vids))
        tgt = np.concatenate((vids, uids))
        order = np.argsort(src, kind="stable")
        src_s = src[order]
        tgt_s = tgt[order]
        bounds = np.flatnonzero(
            np.r_[True, src_s[1:] != src_s[:-1], True]
        ).tolist()
        pos = self._pos
        pool = self._pool
        starts = self._starts
        counts = self._counts
        for gi in range(len(bounds) - 1):
            lo, hi = bounds[gi], bounds[gi + 1]
            u = int(src_s[lo])
            k = hi - lo
            s = int(starts[u])
            c = int(counts[u])
            new_c = c - k
            removed = [pos.pop((u << 32) | t) for t in tgt_s[lo:hi].tolist()]
            if new_c:
                in_tail = {p for p in removed if p >= new_c}
                holes = sorted(p for p in removed if p < new_c)
                if holes:
                    movers = (q for q in range(new_c, c) if q not in in_tail)
                    for h, q in zip(holes, movers):
                        w = int(pool[s + q])
                        pool[s + h] = w
                        pos[(u << 32) | w] = h
            counts[u] = new_c
        self._num_edges -= nd
        dropped: List[Tuple[int, object]] = []
        dead = np.unique(src)
        dead = dead[counts[dead] == 0]
        label_of = self.interner.label_of
        for i in dead.tolist():
            label = label_of(i)
            self._release(i)
            dropped.append((i, label))
        if self._holes > self._compact_threshold * max(64, self._tail - self._holes):
            self._compact()
        return dropped

    def bulk_add_edges(self, u_labels: np.ndarray, v_labels: np.ndarray):
        """Insert absent edges given as parallel label arrays: batched
        interning plus one capacity reservation and one pool-slice write
        per touched adjacency block.

        Preconditions: no duplicates, no edge present, no self-loops.
        Returns ``(uids, vids, created)`` where ``created`` holds
        ``(id, label)`` pairs of vertices interned fresh by this call.
        """
        n = len(u_labels)
        created: List[Tuple[int, object]] = []
        if not n:
            return _EMPTY_I64, _EMPTY_I64, created
        interner = self.interner
        uids = np.empty(n, dtype=np.int64)
        vids = np.empty(n, dtype=np.int64)
        for out, labels in ((uids, u_labels), (vids, v_labels)):
            for k, lab in enumerate(labels.tolist()):
                known = lab in interner
                i = interner.intern(lab)
                if not known:
                    self._ensure_vertex_capacity(i)
                    self._starts[i] = 0
                    self._counts[i] = 0
                    self._caps[i] = 0
                    created.append((i, lab))
                out[k] = i
        src = np.concatenate((uids, vids))
        tgt = np.concatenate((vids, uids))
        order = np.argsort(src, kind="stable")
        src_s = src[order]
        tgt_s = tgt[order]
        bounds = np.flatnonzero(
            np.r_[True, src_s[1:] != src_s[:-1], True]
        ).tolist()
        for gi in range(len(bounds) - 1):
            lo, hi = bounds[gi], bounds[gi + 1]
            u = int(src_s[lo])
            k = hi - lo
            c = int(self._counts[u])
            cap = int(self._caps[u])
            if c + k > cap:
                new_cap = max(_MIN_BLOCK, cap)
                while new_cap < c + k:
                    new_cap *= 2
                self._relocate(u, new_cap)
            s = int(self._starts[u])
            block = tgt_s[lo:hi]
            self._pool[s + c : s + c + k] = block
            self._pos.update(
                zip(((u << 32) | block).tolist(), range(c, c + k))
            )
            self._counts[u] = c + k
        self._num_edges += n
        return uids, vids, created

    def has_graph_edge(self, u: Vertex, v: Vertex) -> bool:
        ui = self.interner.id_of(u)
        vi = self.interner.id_of(v)
        return ui is not None and vi is not None and self._key(ui, vi) in self._pos

    def edges(self) -> Iterator[Tuple[Vertex, Vertex]]:
        """Each edge once, as its canonical id."""
        label_of = self.interner.label_of
        for lbl, i in self.interner.items():
            s, c = int(self._starts[i]), int(self._counts[i])
            for w in self._pool[s : s + c]:
                wl = label_of(int(w))
                if lbl <= wl:
                    yield (lbl, wl)

    def edge_list(self) -> List[Tuple[Vertex, Vertex]]:
        return sorted(self.edges())

    # -- Substrate protocol ---------------------------------------------------
    def vertices(self) -> Iterator[Vertex]:
        return self.interner.labels()

    def num_vertices(self) -> int:
        return len(self.interner)

    def num_edges(self) -> int:
        return self._num_edges

    def num_pins(self) -> int:
        return 2 * self._num_edges

    def has_vertex(self, v: Vertex) -> bool:
        return v in self.interner

    def has_edge(self, e: EdgeId) -> bool:
        u, v = e
        return self.has_graph_edge(u, v)

    def has_pin(self, e: EdgeId, v: Vertex) -> bool:
        return v in e and self.has_edge(e)

    def degree(self, v: Vertex) -> int:
        i = self.interner.id_of(v)
        return int(self._counts[i]) if i is not None else 0

    def incident(self, v: Vertex) -> Iterator[EdgeId]:
        for w in self.neighbors(v):
            yield edge_id(v, w)

    def pins(self, e: EdgeId) -> Tuple[Vertex, Vertex]:
        return e

    def pin_count(self, e: EdgeId) -> int:
        return 2

    def neighbors(self, v: Vertex) -> List[Vertex]:
        i = self.interner.id_of(v)
        if i is None:
            return []
        s, c = int(self._starts[i]), int(self._counts[i])
        label_of = self.interner.label_of
        return [label_of(int(w)) for w in self._pool[s : s + c]]

    def apply(self, change: Change) -> bool:
        """Apply a pin change (see ``DynamicGraph.apply``: either pin
        change of a graph edge pair moves the whole edge; the twin is a
        structural no-op)."""
        u, v = change.edge
        if change.vertex not in (u, v):
            raise ValueError(f"pin {change.vertex!r} not an endpoint of {change.edge!r}")
        if change.insert:
            return self.add_edge(u, v)
        return self.remove_edge(u, v)

    # -- dense views for the vectorised engine --------------------------------
    def adjacency_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(starts, counts, pool)`` -- live views, not copies.

        Valid until the next structural mutation (relocation or compaction
        may move blocks).
        """
        return self._starts, self._counts, self._pool

    def live_ids(self) -> np.ndarray:
        """Dense ids of all live vertices (unsorted)."""
        return np.fromiter(
            (i for _, i in self.interner.items()), dtype=np.int64, count=len(self.interner)
        )

    def ids_of(self, labels: Iterable[Vertex]) -> np.ndarray:
        """Dense ids of the given labels, skipping absent ones."""
        ids = self.interner.ids_of(labels)
        return ids[ids >= 0]

    def neighbor_ids(self, i: int) -> np.ndarray:
        s, c = int(self._starts[i]), int(self._counts[i])
        return self._pool[s : s + c]

    def snapshot_csr(self) -> CSRGraph:
        """Freeze into a :class:`CSRGraph` (labels sorted) in O(n + m)."""
        pairs = sorted(self.interner.items())
        labels = [lbl for lbl, _ in pairs]
        ids = np.fromiter((i for _, i in pairs), dtype=np.int64, count=len(pairs))
        n = len(labels)
        degs = self._counts[ids] if n else np.zeros(0, dtype=np.int64)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degs, out=indptr[1:])
        # dense-id -> csr-position remap
        remap = np.zeros(self.interner.capacity, dtype=np.int64)
        remap[ids] = np.arange(n, dtype=np.int64)
        indices = np.empty(int(indptr[-1]), dtype=np.int64)
        for pos in range(n):
            i = int(ids[pos])
            s, c = int(self._starts[i]), int(self._counts[i])
            indices[indptr[pos] : indptr[pos + 1]] = remap[self._pool[s : s + c]]
        return CSRGraph(n, indptr, indices, labels)

    # -- diagnostics ----------------------------------------------------------
    def pool_stats(self) -> Dict[str, int]:
        """Occupancy counters (used / slack / holes / compactions)."""
        used = int(self._counts[self.live_ids()].sum()) if len(self.interner) else 0
        return {
            "pool_len": len(self._pool),
            "tail": self._tail,
            "used": used,
            "slack": self._tail - self._holes - used,
            "holes": self._holes,
            "compactions": self.compactions,
            "relocations": self.relocations,
        }

    def max_degree(self) -> int:
        if not len(self.interner):
            return 0
        return int(self._counts[self.live_ids()].max())

    def degree_histogram(self) -> Dict[int, int]:
        hist: Dict[int, int] = {}
        for _, i in self.interner.items():
            d = int(self._counts[i])
            hist[d] = hist.get(d, 0) + 1
        return hist

    def __contains__(self, v: Vertex) -> bool:
        return v in self.interner

    def __repr__(self) -> str:
        return f"ArrayGraph(|V|={self.num_vertices()}, |E|={self._num_edges})"
