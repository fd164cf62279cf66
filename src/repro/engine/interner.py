"""Label interning: arbitrary hashable vertex labels to dense int ids.

The substrates are hypersparse -- labels are arbitrary hashable values and
vertices come and go with their degree (Section V of the paper uses raw
64-bit ids).  The array engine needs *dense* indices to address numpy
arrays, so every array-backed structure shares one :class:`VertexInterner`
per graph.

Invariants
----------
* A live label has exactly one id; ``label_of(id_of(x)) == x``.
* Ids of released labels go to a free list and are reused before the id
  space grows, so ``capacity`` stays O(peak live vertices) regardless of
  how much churn the stream carries.
* A recycled id may stand for a different label than it used to; consumers
  holding dense per-id state (tau values, adjacency slots) must reset the
  slot on :meth:`intern` of a fresh label -- the interner reports this via
  the ``reused`` flag.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["VertexInterner"]

Label = Hashable


class VertexInterner:
    """Dense id allocator with free-list recycling.

    >>> it = VertexInterner()
    >>> it.intern("a"), it.intern("b"), it.intern("a")
    (0, 1, 0)
    >>> it.release("a")
    0
    >>> it.intern("c")  # recycles a's id
    0
    >>> it.label_of(1)
    'b'
    """

    __slots__ = ("_ids", "_labels", "_free")

    def __init__(self) -> None:
        self._ids: Dict[Label, int] = {}
        #: dense id -> label (None for free slots)
        self._labels: List[Optional[Label]] = []
        self._free: List[int] = []

    # -- allocation -----------------------------------------------------------
    def intern(self, label: Label) -> int:
        """Id of ``label``, allocating (or recycling) one if needed."""
        i = self._ids.get(label)
        if i is None:
            if self._free:
                i = self._free.pop()
            else:
                i = len(self._labels)
                self._labels.append(None)
            self._ids[label] = i
            self._labels[i] = label
        return i

    def intern_many(self, labels: Sequence[Label]) -> np.ndarray:
        """Ids of a list of labels as an ``int64`` array -- the bulk
        analogue of :meth:`intern`.

        Unseen labels get ids in first-appearance order, recycled ids
        first, exactly as the same labels interned one at a time would.
        """
        ids = self._ids
        fresh = [lbl for lbl in dict.fromkeys(labels) if lbl not in ids]
        if fresh:
            free = self._free
            reused = [free.pop() for _ in range(min(len(free), len(fresh)))]
            for i, lbl in zip(reused, fresh):
                self._labels[i] = lbl
            base = len(self._labels)
            self._labels.extend(fresh[len(reused):])
            ids.update(zip(fresh, reused))
            ids.update(zip(fresh[len(reused):], range(base, len(self._labels))))
        return np.fromiter(map(ids.__getitem__, labels), dtype=np.int64,
                           count=len(labels))

    def release(self, label: Label) -> int:
        """Free ``label``'s id for reuse; returns the released id."""
        i = self._ids.pop(label)
        self._labels[i] = None
        self._free.append(i)
        return i

    # -- lookup ---------------------------------------------------------------
    def id_of(self, label: Label) -> Optional[int]:
        """Current id of ``label`` (None if not interned)."""
        return self._ids.get(label)

    def label_of(self, i: int) -> Label:
        """Label currently holding id ``i`` (KeyError for free slots)."""
        lbl = self._labels[i]
        if lbl is None:
            raise KeyError(f"id {i} is not live")
        return lbl

    def labels_of(self, ids) -> List[Label]:
        """Labels of an iterable of dense ids (KeyError for free slots).

        One bound-method call for a whole id array -- the bulk analogue of
        :meth:`label_of` for the array engine's commit paths.
        """
        lb = self._labels
        out = [lb[i] for i in ids]
        if None in out:
            missing = next(i for i in ids if lb[i] is None)
            raise KeyError(f"id {missing} is not live")
        return out

    def ids_of(self, labels: Iterable[Label]) -> np.ndarray:
        """Ids of an iterable of labels as an ``int64`` array, ``-1``
        for labels not interned -- the bulk analogue of :meth:`id_of`."""
        return np.fromiter(map(self._ids.get, labels, repeat(-1)), dtype=np.int64)

    def copy(self) -> "VertexInterner":
        """An independent interner with the same ids and free list."""
        other = VertexInterner()
        other._ids = dict(self._ids)
        other._labels = list(self._labels)
        other._free = list(self._free)
        return other

    def __contains__(self, label: Label) -> bool:
        return label in self._ids

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def capacity(self) -> int:
        """Size of the dense id space (live + free slots)."""
        return len(self._labels)

    def items(self) -> Iterator[Tuple[Label, int]]:
        return iter(self._ids.items())

    def labels(self) -> Iterator[Label]:
        return iter(self._ids)

    def __repr__(self) -> str:
        return f"VertexInterner(live={len(self)}, capacity={self.capacity})"
