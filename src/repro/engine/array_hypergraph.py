"""Fully dynamic flat-array hypergraph: bipartite incidence pools.

:class:`ArrayHypergraph` stores both directions of a hypergraph's
incidence -- vertex -> incident hyperedges and hyperedge -> pins -- in two
:class:`_IncidencePool` instances: ``int64`` member pools addressed by
per-row ``(start, count, capacity)`` triples, the same *dynamic CSR*
layout :class:`~repro.engine.array_graph.ArrayGraph` uses for plain
adjacency.  Each row carries slack; a full row relocates to the pool tail
with doubled capacity (amortised O(1) ``add_pin``), removal swap-removes
within the row (O(1) via the packed position map), and abandoned space is
reclaimed by whole-pool compaction once holes outgrow live data.

Vertex labels and hyperedge labels are arbitrary hashables, each densified
by its own :class:`~repro.engine.interner.VertexInterner` (vertices on
``interner`` -- the attribute name every dense consumer shares with
``ArrayGraph`` -- and hyperedges on ``edge_interner``).  Both follow the
implicit lifecycle of the pin-change model: a vertex or hyperedge is
created by its first pin and released at zero, with its dense id recycled.

Invariants (relied on by the vectorised kernels; see docs/PERFORMANCE.md):

* ``v_pool[v_starts[i] : v_starts[i] + v_counts[i]]`` are exactly the live
  incident hyperedge ids of live vertex ``i``, and symmetrically
  ``e_pool[e_starts[j] : e_starts[j] + e_counts[j]]`` the live pin vertex
  ids of live hyperedge ``j``; entries beyond the count are garbage.
* live vertices have degree >= 1 and live hyperedges pin count >= 1
  (hypersparse: zero-degree rows are released and their ids recycled);
* compaction and relocation never change *which* ids are live, only where
  rows sit in a pool -- dense per-id state (tau arrays, the hyperedge
  min-tau shadow) survives both.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, Iterable, Iterator, List, Mapping, Tuple

import numpy as np

from repro.graph.csr import CSRHypergraph
from repro.graph.substrate import Change, EdgeId, Vertex
from repro.engine.array_graph import (
    LOAD_CHUNK,
    compact_rows,
    first_occurrences,
    pack_rows,
)
from repro.engine.interner import VertexInterner

__all__ = ["ArrayHypergraph"]

_MIN_BLOCK = 4


class _IncidencePool:
    """One direction of the incidence: rows of member ids in a flat pool.

    The row/member id spaces are independent (vertex rows hold hyperedge
    ids and vice versa); ``_pos`` packs ``(row << 32) | member`` so both
    membership tests and swap-removal are O(1).
    """

    __slots__ = (
        "_starts", "_counts", "_caps", "_pool", "_tail", "_holes", "_pos",
        "_slack", "_compact_threshold", "compactions", "relocations",
    )

    def __init__(self, *, slack: float = 0.25, compact_threshold: float = 0.5) -> None:
        cap = 16
        self._starts = np.zeros(cap, dtype=np.int64)
        self._counts = np.zeros(cap, dtype=np.int64)
        self._caps = np.zeros(cap, dtype=np.int64)
        self._pool = np.zeros(64, dtype=np.int64)
        self._tail = 0          # next free pool offset
        self._holes = 0         # abandoned pool capacity
        #: packed (row << 32 | member) -> offset of member inside row
        self._pos: Dict[int, int] = {}
        self._slack = slack
        self._compact_threshold = compact_threshold
        self.compactions = 0
        self.relocations = 0

    # -- row plumbing ---------------------------------------------------------
    def ensure_row(self, i: int) -> None:
        cap = len(self._starts)
        if i < cap:
            return
        new_cap = max(cap * 2, i + 1)
        for name in ("_starts", "_counts", "_caps"):
            arr = getattr(self, name)
            grown = np.zeros(new_cap, dtype=np.int64)
            grown[:cap] = arr
            setattr(self, name, grown)

    def reset_row(self, i: int) -> None:
        """Fresh (possibly recycled) row: zero its block descriptor."""
        self.ensure_row(i)
        self._starts[i] = 0
        self._counts[i] = 0
        self._caps[i] = 0

    def load(self, rows: np.ndarray, members: np.ndarray, n_rows: int) -> None:
        """Bulk-install distinct ``(row, member)`` pairs into this empty
        pool, compactly laid out (see
        :func:`~repro.engine.array_graph.pack_rows`)."""
        (self._starts, self._counts, self._caps, self._pool,
         self._tail) = pack_rows(rows, members, n_rows, self._slack, self._pos)

    def release_row(self, i: int) -> None:
        self._holes += int(self._caps[i])
        self._caps[i] = 0
        self._starts[i] = 0

    # -- pool management ------------------------------------------------------
    def _pool_reserve(self, extra: int, live_rows_fn) -> None:
        need = self._tail + extra
        if need <= len(self._pool):
            return
        if self._holes > self._compact_threshold * max(1, self._tail - self._holes):
            # live rows are materialised only here -- the O(1) add path
            # never pays for the scan
            self.compact(live_rows_fn())
            need = self._tail + extra
        if need > len(self._pool):
            new_len = max(len(self._pool) * 2, need)
            grown = np.zeros(new_len, dtype=np.int64)
            grown[: self._tail] = self._pool[: self._tail]
            self._pool = grown

    def _relocate(self, i: int, new_cap: int, live_rows_fn) -> None:
        """Move row ``i`` to the pool tail with ``new_cap`` room."""
        self._pool_reserve(new_cap, live_rows_fn)
        s, c = int(self._starts[i]), int(self._counts[i])
        self._pool[self._tail : self._tail + c] = self._pool[s : s + c]
        self._holes += int(self._caps[i])
        self._starts[i] = self._tail
        self._caps[i] = new_cap
        self._tail += new_cap
        self.relocations += 1

    def compact(self, live_rows: np.ndarray) -> None:
        """Repack the pool: live rows contiguous, fresh proportional slack."""
        self._pool, self._tail = compact_rows(
            self._starts, self._counts, self._caps, self._pool,
            live_rows, self._slack,
        )
        self._holes = 0  # slack is reserved room, not a hole
        self.compactions += 1

    def needs_compaction(self) -> bool:
        return self._holes > self._compact_threshold * max(64, self._tail - self._holes)

    # -- member primitives ----------------------------------------------------
    @staticmethod
    def _key(row: int, member: int) -> int:
        return (row << 32) | member

    def contains(self, row: int, member: int) -> bool:
        return self._key(row, member) in self._pos

    def add(self, row: int, member: int, live_rows_fn) -> None:
        c, cap = int(self._counts[row]), int(self._caps[row])
        if c == cap:
            self._relocate(row, max(_MIN_BLOCK, cap * 2), live_rows_fn)
        self._pool[int(self._starts[row]) + c] = member
        self._pos[self._key(row, member)] = c
        self._counts[row] = c + 1

    def remove(self, row: int, member: int) -> None:
        p = self._pos.pop(self._key(row, member))
        last = int(self._counts[row]) - 1
        s = int(self._starts[row])
        if p != last:
            w = int(self._pool[s + last])
            self._pool[s + p] = w
            self._pos[self._key(row, w)] = p
        self._counts[row] = last

    # -- bulk splices (the columnar fast path) --------------------------------
    def bulk_add_grouped(self, rows: np.ndarray, members: np.ndarray,
                         live_rows_fn) -> None:
        """Insert ``(rows[k], members[k])`` memberships grouped per row:
        one capacity reservation and one pool-slice write per touched row.
        Preconditions: rows exist, no membership present, no duplicates."""
        order = np.argsort(rows, kind="stable")
        rows_s = rows[order]
        mem_s = members[order]
        bounds = np.flatnonzero(
            np.r_[True, rows_s[1:] != rows_s[:-1], True]
        ).tolist()
        for gi in range(len(bounds) - 1):
            lo, hi = bounds[gi], bounds[gi + 1]
            r = int(rows_s[lo])
            k = hi - lo
            c = int(self._counts[r])
            cap = int(self._caps[r])
            if c + k > cap:
                new_cap = max(_MIN_BLOCK, cap)
                while new_cap < c + k:
                    new_cap *= 2
                self._relocate(r, new_cap, live_rows_fn)
            s = int(self._starts[r])
            block = mem_s[lo:hi]
            self._pool[s + c : s + c + k] = block
            self._pos.update(
                zip(((r << 32) | block).tolist(), range(c, c + k))
            )
            self._counts[r] = c + k

    def bulk_remove_grouped(self, rows: np.ndarray, members: np.ndarray) -> None:
        """Delete memberships grouped per row: one hole-filling splice per
        touched row instead of one swap-remove per membership.
        Preconditions: every membership present, no duplicates."""
        order = np.argsort(rows, kind="stable")
        rows_s = rows[order]
        mem_s = members[order]
        bounds = np.flatnonzero(
            np.r_[True, rows_s[1:] != rows_s[:-1], True]
        ).tolist()
        pos = self._pos
        pool = self._pool
        for gi in range(len(bounds) - 1):
            lo, hi = bounds[gi], bounds[gi + 1]
            r = int(rows_s[lo])
            k = hi - lo
            s = int(self._starts[r])
            c = int(self._counts[r])
            new_c = c - k
            removed = [pos.pop((r << 32) | m) for m in mem_s[lo:hi].tolist()]
            if new_c:
                in_tail = {p for p in removed if p >= new_c}
                holes = sorted(p for p in removed if p < new_c)
                if holes:
                    movers = (q for q in range(new_c, c) if q not in in_tail)
                    for h, q in zip(holes, movers):
                        w = int(pool[s + q])
                        pool[s + h] = w
                        pos[(r << 32) | w] = h
            self._counts[r] = new_c

    # -- views ----------------------------------------------------------------
    def count(self, row: int) -> int:
        return int(self._counts[row])

    def members(self, row: int) -> np.ndarray:
        s, c = int(self._starts[row]), int(self._counts[row])
        return self._pool[s : s + c]

    def arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self._starts, self._counts, self._pool

    def stats(self, live_rows: np.ndarray) -> Dict[str, int]:
        used = int(self._counts[live_rows].sum()) if len(live_rows) else 0
        return {
            "pool_len": len(self._pool),
            "tail": self._tail,
            "used": used,
            "slack": self._tail - self._holes - used,
            "holes": self._holes,
            "compactions": self.compactions,
            "relocations": self.relocations,
        }


class ArrayHypergraph:
    """Dynamic hypergraph over flat numpy incidence pools.

    >>> h = ArrayHypergraph.from_hyperedges({"e1": [1, 2, 3], "e2": [3, 4]})
    >>> h.degree(3)
    2
    >>> sorted(h.neighbors(3))
    [1, 2, 4]
    >>> removed = h.remove_pin("e2", 4)
    >>> h.pin_count("e2")
    1
    """

    is_hypergraph = True
    #: marks this substrate as eligible for the vectorised engine
    is_array_backed = True

    def __init__(self, *, slack: float = 0.25, compact_threshold: float = 0.5) -> None:
        self.interner = VertexInterner()        # vertex labels
        self.edge_interner = VertexInterner()   # hyperedge labels
        self._vinc = _IncidencePool(slack=slack, compact_threshold=compact_threshold)
        self._epins = _IncidencePool(slack=slack, compact_threshold=compact_threshold)
        self._num_pins = 0
        self._slack = slack
        self._compact_threshold = compact_threshold

    # -- construction ---------------------------------------------------------
    @classmethod
    def from_hyperedges(
        cls, hyperedges: "Mapping[EdgeId, Iterable[Vertex]] | Iterable[Iterable[Vertex]]",
        **kwargs,
    ) -> "ArrayHypergraph":
        """Build from ``{edge_id: pins}`` or a plain iterable of pin lists
        (edges then get ids ``0, 1, 2, ...``)."""
        if isinstance(hyperedges, Mapping):
            return cls.from_incidence(hyperedges.items(), **kwargs)
        return cls.from_incidence(enumerate(hyperedges), **kwargs)

    @classmethod
    def from_hypergraph(cls, other, **kwargs) -> "ArrayHypergraph":
        """Convert any hypergraph substrate (e.g. a ``DynamicHypergraph``)."""
        return cls.from_incidence(other.hyperedges(), **kwargs)

    @classmethod
    def from_incidence(
        cls, items: Iterable[Tuple[EdgeId, Iterable[Vertex]]], **kwargs
    ) -> "ArrayHypergraph":
        """Bulk-build from ``(edge_id, pins)`` pairs, read in bounded chunks.

        Same result as one :meth:`add_pin` per pin -- a repeated pin
        collapses to one pin, an edge without pins is not created --
        with both incidence pools laid out compactly.
        """
        h = cls(**kwargs)
        it = iter(items)
        e_parts: List[np.ndarray] = [np.zeros(0, dtype=np.int64)]
        v_parts: List[np.ndarray] = [np.zeros(0, dtype=np.int64)]
        while True:
            # fewer units than a graph chunk: a hyperedge carries several pins
            chunk = list(islice(it, LOAD_CHUNK // 8))
            if not chunk:
                break
            pins = [list(p) for _, p in chunk]
            sizes = np.fromiter(map(len, pins), dtype=np.int64, count=len(pins))
            eids = h.edge_interner.intern_many(
                [e for (e, _), n in zip(chunk, sizes.tolist()) if n])
            e_parts.append(np.repeat(eids, sizes[sizes > 0]))
            v_parts.append(h.interner.intern_many([v for p in pins for v in p]))
        eids, vids = np.concatenate(e_parts), np.concatenate(v_parts)
        keep = first_occurrences((eids << 32) | vids)
        h._load_pins(eids[keep], vids[keep])
        return h

    def copy(self) -> "ArrayHypergraph":
        """An independent copy with the same dense ids, compactly laid out."""
        from repro.engine.frontier import gather_ranges

        h = ArrayHypergraph(slack=self._slack, compact_threshold=self._compact_threshold)
        h.interner = self.interner.copy()
        h.edge_interner = self.edge_interner.copy()
        live = self.live_edge_ids()
        starts, counts, pool = self._epins.arrays()
        vids, _ = gather_ranges(starts, counts, pool, live)
        h._load_pins(np.repeat(live, counts[live]), vids)
        return h

    def _load_pins(self, eids: np.ndarray, vids: np.ndarray) -> None:
        """Install the distinct pins ``(eids[k], vids[k])`` into this
        empty hypergraph's two pools."""
        self._vinc.load(vids, eids, self.interner.capacity)
        self._epins.load(eids, vids, self.edge_interner.capacity)
        self._num_pins = len(eids)

    # -- id plumbing ----------------------------------------------------------
    def _intern_vertex(self, label: Vertex) -> int:
        known = label in self.interner
        i = self.interner.intern(label)
        if not known:
            # the id may be recycled: reset its incidence row
            self._vinc.reset_row(i)
        return i

    def _intern_edge(self, label: EdgeId) -> int:
        known = label in self.edge_interner
        j = self.edge_interner.intern(label)
        if not known:
            self._epins.reset_row(j)
        return j

    # -- mutation ---------------------------------------------------------------
    def add_pin(self, e: EdgeId, v: Vertex) -> bool:
        """Insert pin (e, v); creates ``e``/``v`` implicitly.  False if present."""
        ei = self.edge_interner.id_of(e)
        vi = self.interner.id_of(v)
        if ei is not None and vi is not None and self._epins.contains(ei, vi):
            return False
        ei = self._intern_edge(e)
        vi = self._intern_vertex(v)
        self._vinc.add(vi, ei, self.live_ids)
        self._epins.add(ei, vi, self.live_edge_ids)
        self._num_pins += 1
        return True

    def remove_pin(self, e: EdgeId, v: Vertex) -> bool:
        """Delete pin (e, v); destroys ``e``/``v`` at zero.  False if absent."""
        ei = self.edge_interner.id_of(e)
        vi = self.interner.id_of(v)
        if ei is None or vi is None or not self._epins.contains(ei, vi):
            return False
        self._vinc.remove(vi, ei)
        self._epins.remove(ei, vi)
        self._num_pins -= 1
        # implicit lifecycle: rows at zero leave their interner
        if not self._vinc.count(vi):
            self._vinc.release_row(vi)
            self.interner.release(v)
        if not self._epins.count(ei):
            self._epins.release_row(ei)
            self.edge_interner.release(e)
        if self._vinc.needs_compaction():
            self._vinc.compact(self.live_ids())
        if self._epins.needs_compaction():
            self._epins.compact(self.live_edge_ids())
        return True

    # -- bulk mutation (the columnar fast path) -------------------------------
    def bulk_remove_pin_ids(self, eids: np.ndarray, vids: np.ndarray):
        """Delete pins given as parallel dense-id arrays with grouped
        incidence splices.  Preconditions (the columnar precheck's job):
        every pin present, no duplicates.  Returns ``(dropped_vertices,
        dead_edges)`` as ``(id, label)`` pair lists for rows whose count
        hit zero (released, ids recycled)."""
        nd = len(eids)
        dropped_v: List[Tuple[int, object]] = []
        dead_e: List[Tuple[int, object]] = []
        if not nd:
            return dropped_v, dead_e
        self._vinc.bulk_remove_grouped(vids, eids)
        self._epins.bulk_remove_grouped(eids, vids)
        self._num_pins -= nd
        v_label_of = self.interner.label_of
        for i in np.unique(vids).tolist():
            if not self._vinc.count(i):
                label = v_label_of(i)
                self._vinc.release_row(i)
                self.interner.release(label)
                dropped_v.append((i, label))
        e_label_of = self.edge_interner.label_of
        for j in np.unique(eids).tolist():
            if not self._epins.count(j):
                label = e_label_of(j)
                self._epins.release_row(j)
                self.edge_interner.release(label)
                dead_e.append((j, label))
        if self._vinc.needs_compaction():
            self._vinc.compact(self.live_ids())
        if self._epins.needs_compaction():
            self._epins.compact(self.live_edge_ids())
        return dropped_v, dead_e

    def bulk_add_pins(self, e_labels: np.ndarray, v_labels: np.ndarray):
        """Insert absent pins given as parallel label arrays: batched
        interning of both id spaces plus grouped incidence splices.
        Preconditions: no duplicates, no pin present.  Returns
        ``(eids, vids, created_vertices, created_edges)``; the created
        lists hold ``(id, label)`` pairs interned fresh by this call."""
        n = len(e_labels)
        created_v: List[Tuple[int, object]] = []
        created_e: List[Tuple[int, object]] = []
        if not n:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty, created_v, created_e
        eids = np.empty(n, dtype=np.int64)
        vids = np.empty(n, dtype=np.int64)
        e_interner = self.edge_interner
        for k, lab in enumerate(e_labels.tolist()):
            known = lab in e_interner
            j = e_interner.intern(lab)
            if not known:
                self._epins.reset_row(j)
                created_e.append((j, lab))
            eids[k] = j
        v_interner = self.interner
        for k, lab in enumerate(v_labels.tolist()):
            known = lab in v_interner
            i = v_interner.intern(lab)
            if not known:
                self._vinc.reset_row(i)
                created_v.append((i, lab))
            vids[k] = i
        self._vinc.bulk_add_grouped(vids, eids, self.live_ids)
        self._epins.bulk_add_grouped(eids, vids, self.live_edge_ids)
        self._num_pins += n
        return eids, vids, created_v, created_e

    def add_hyperedge(self, e: EdgeId, pins: Iterable[Vertex]) -> None:
        for v in pins:
            self.add_pin(e, v)

    def remove_hyperedge(self, e: EdgeId) -> None:
        for v in self.pins(e):
            self.remove_pin(e, v)

    # -- Substrate protocol ----------------------------------------------------
    def vertices(self) -> Iterator[Vertex]:
        return self.interner.labels()

    def num_vertices(self) -> int:
        return len(self.interner)

    def num_edges(self) -> int:
        return len(self.edge_interner)

    def num_pins(self) -> int:
        return self._num_pins

    def has_vertex(self, v: Vertex) -> bool:
        return v in self.interner

    def has_edge(self, e: EdgeId) -> bool:
        return e in self.edge_interner

    def has_pin(self, e: EdgeId, v: Vertex) -> bool:
        ei = self.edge_interner.id_of(e)
        vi = self.interner.id_of(v)
        return ei is not None and vi is not None and self._epins.contains(ei, vi)

    def degree(self, v: Vertex) -> int:
        i = self.interner.id_of(v)
        return self._vinc.count(i) if i is not None else 0

    def incident(self, v: Vertex) -> List[EdgeId]:
        i = self.interner.id_of(v)
        if i is None:
            return []
        label_of = self.edge_interner.label_of
        return [label_of(int(e)) for e in self._vinc.members(i)]

    def pins(self, e: EdgeId) -> List[Vertex]:
        j = self.edge_interner.id_of(e)
        if j is None:
            return []
        label_of = self.interner.label_of
        return [label_of(int(p)) for p in self._epins.members(j)]

    def pin_count(self, e: EdgeId) -> int:
        j = self.edge_interner.id_of(e)
        return self._epins.count(j) if j is not None else 0

    def neighbors(self, v: Vertex) -> List[Vertex]:
        i = self.interner.id_of(v)
        if i is None:
            return []
        inc = self._vinc.members(i)
        if not len(inc):
            return []
        e_starts, e_counts, e_pool = self._epins.arrays()
        out: List[Vertex] = []
        seen = {i}
        label_of = self.interner.label_of
        for e in inc:
            s, c = int(e_starts[e]), int(e_counts[e])
            for p in e_pool[s : s + c]:
                p = int(p)
                if p not in seen:
                    seen.add(p)
                    out.append(label_of(p))
        return out

    def apply(self, change: Change) -> bool:
        if change.insert:
            return self.add_pin(change.edge, change.vertex)
        return self.remove_pin(change.edge, change.vertex)

    # -- conveniences ----------------------------------------------------------
    def hyperedges(self) -> Iterator[Tuple[EdgeId, List[Vertex]]]:
        label_of = self.interner.label_of
        for e, j in self.edge_interner.items():
            yield e, [label_of(int(p)) for p in self._epins.members(j)]

    def edge_ids(self) -> Iterator[EdgeId]:
        return self.edge_interner.labels()

    def max_degree(self) -> int:
        if not len(self.interner):
            return 0
        return int(self._vinc._counts[self.live_ids()].max())

    def max_pin_count(self) -> int:
        if not len(self.edge_interner):
            return 0
        return int(self._epins._counts[self.live_edge_ids()].max())

    # -- dense views for the vectorised engine --------------------------------
    def incidence_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(starts, counts, pool)`` of vertex -> incident hyperedge ids.

        Live views, not copies; valid until the next structural mutation
        (relocation or compaction may move rows).
        """
        return self._vinc.arrays()

    def pin_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(starts, counts, pool)`` of hyperedge -> pin vertex ids."""
        return self._epins.arrays()

    def live_ids(self) -> np.ndarray:
        """Dense ids of all live vertices (unsorted)."""
        return np.fromiter(
            (i for _, i in self.interner.items()), dtype=np.int64, count=len(self.interner)
        )

    def live_edge_ids(self) -> np.ndarray:
        """Dense ids of all live hyperedges (unsorted)."""
        return np.fromiter(
            (j for _, j in self.edge_interner.items()),
            dtype=np.int64,
            count=len(self.edge_interner),
        )

    def ids_of(self, labels: Iterable[Vertex]) -> np.ndarray:
        """Dense vertex ids of the given labels, skipping absent ones."""
        ids = self.interner.ids_of(labels)
        return ids[ids >= 0]

    def snapshot_csr(self) -> CSRHypergraph:
        """Freeze into a :class:`CSRHypergraph` (labels repr-sorted, matching
        ``CSRHypergraph.from_hypergraph``) in O(n + m + pins)."""
        vpairs = sorted(self.interner.items(), key=lambda kv: repr(kv[0]))
        epairs = sorted(self.edge_interner.items(), key=lambda kv: repr(kv[0]))
        vlabels = [lbl for lbl, _ in vpairs]
        elabels = [lbl for lbl, _ in epairs]
        vids = np.fromiter((i for _, i in vpairs), dtype=np.int64, count=len(vpairs))
        eids = np.fromiter((j for _, j in epairs), dtype=np.int64, count=len(epairs))
        n, m = len(vlabels), len(elabels)

        vdeg = self._vinc._counts[vids] if n else np.zeros(0, dtype=np.int64)
        esz = self._epins._counts[eids] if m else np.zeros(0, dtype=np.int64)
        v_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(vdeg, out=v_indptr[1:])
        e_indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(esz, out=e_indptr[1:])

        # dense-id -> csr-position remaps for both id spaces
        vremap = np.zeros(max(1, self.interner.capacity), dtype=np.int64)
        vremap[vids] = np.arange(n, dtype=np.int64)
        eremap = np.zeros(max(1, self.edge_interner.capacity), dtype=np.int64)
        eremap[eids] = np.arange(m, dtype=np.int64)

        v_edges = np.empty(int(v_indptr[-1]), dtype=np.int64)
        for pos in range(n):
            v_edges[v_indptr[pos] : v_indptr[pos + 1]] = eremap[
                self._vinc.members(int(vids[pos]))
            ]
        e_pins = np.empty(int(e_indptr[-1]), dtype=np.int64)
        for pos in range(m):
            e_pins[e_indptr[pos] : e_indptr[pos + 1]] = vremap[
                self._epins.members(int(eids[pos]))
            ]
        return CSRHypergraph(n, m, v_indptr, v_edges, e_indptr, e_pins, vlabels, elabels)

    # -- diagnostics ----------------------------------------------------------
    def pool_stats(self) -> Dict[str, Dict[str, int]]:
        """Occupancy counters for both incidence directions."""
        return {
            "vertex": self._vinc.stats(self.live_ids()),
            "edge": self._epins.stats(self.live_edge_ids()),
        }

    def __contains__(self, v: Vertex) -> bool:
        return v in self.interner

    def __repr__(self) -> str:
        return (
            f"ArrayHypergraph(|V|={self.num_vertices()}, "
            f"|E|={self.num_edges()}, pins={self._num_pins})"
        )
