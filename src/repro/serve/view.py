"""Snapshot-isolated read views over a maintained decomposition.

The maintainers mutate ``tau`` in place, mid-batch, thousands of times
per second; a reader that touches the live dict concurrently with
``apply_batch`` can observe a state that *never existed at any batch
boundary* (a torn read).  This module gives readers immutable snapshots
instead:

* :class:`ReadView` -- a frozen view of tau at one committed batch
  boundary.  Point lookups take two dict reads at any chain depth: the
  overlay merged since the last flatten, then the flattened base.  Level
  buckets are derived lazily and shared structurally with the parent
  view (only levels dirtied by the batch are rebuilt), and the
  view quacks like a maintainer for the whole :mod:`repro.core.queries`
  layer (``sub`` / ``kappa()`` / ``kappa_of`` / ``levels`` /
  ``vertices_at_level``).
* :class:`ViewManager` -- owns the chain.  It attaches to the
  maintainer's ``view_publisher`` seam (:mod:`repro.core.base`), turns
  each committed batch's delta into a new immutable view, and flattens
  the overlay chain back into a plain dict when it grows past
  ``flatten_depth`` links or the accumulated patches pass
  ``flatten_ratio`` of the live vertex count.

Because the publisher seam fires strictly after the commit point --
never mid-transaction, never for a rolled-back or quarantined batch --
every view corresponds to an exact committed prefix of the batch
stream, stamped in ``view.boundary`` (``batches_processed`` at capture)
and ``view.epoch`` (monotone publish counter, survives heals).

Publication is a single reference assignment (:meth:`ViewManager
.current` readers see either the old or the new view, never a mix), so
tau reads are safe from a concurrent thread without locks.  Structural
queries (``shell``, ``top_k_densest``) read the *live* substrate for
adjacency -- see docs/SERVING.md for the serialisation contract.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Hashable, Iterable, Optional

__all__ = ["ReadView", "ViewManager", "REMOVED"]

Vertex = Hashable

#: patch sentinel: the vertex left the decomposition in this batch
REMOVED = object()


class ReadView:
    """An immutable snapshot of tau at one committed batch boundary.

    Built only by :class:`ViewManager`.  ``base`` is either a plain dict
    (a flattened snapshot) or the parent :class:`ReadView` (copy-on-write
    chaining); ``patch`` maps the vertices written by this view's batch
    to their new values (``REMOVED`` for vertices that left).  Every
    view also carries ``_root``, the flattened dict at the bottom of its
    chain, and ``_overlay``, every patch since then merged into one
    dict, so point reads never walk the chain.
    """

    __slots__ = ("base", "patch", "epoch", "boundary", "captured_at",
                 "sub", "_size", "_depth", "_level_map", "_root", "_overlay")

    def __init__(self, base, patch: Dict[Vertex, object], *, epoch: int,
                 boundary: int, captured_at: float, sub,
                 size: int, level_map: Optional[Dict] = None) -> None:
        self.base = base
        self.patch = patch
        self.epoch = epoch
        self.boundary = boundary
        self.captured_at = captured_at
        self.sub = sub
        self._size = size
        self._level_map = level_map
        if isinstance(base, ReadView):
            self._depth = 1 + base._depth
            self._root = base._root
            self._overlay = {**base._overlay, **patch}
        else:
            self._depth = 1
            self._root = base
            self._overlay = patch

    # -- point reads ----------------------------------------------------------
    def kappa_of(self, v: Vertex) -> int:
        """Core value of ``v`` in this snapshot (0 if absent)."""
        val = self._overlay.get(v, _MISS)
        if val is _MISS:
            return self._root.get(v, 0)
        return 0 if val is REMOVED else val

    def __contains__(self, v: Vertex) -> bool:
        val = self._overlay.get(v, _MISS)
        if val is _MISS:
            return v in self._root
        return val is not REMOVED

    def __len__(self) -> int:
        return self._size

    # -- whole-snapshot reads -------------------------------------------------
    def kappa(self) -> Dict[Vertex, int]:
        """Materialise the full ``{vertex: core}`` mapping (a fresh dict)."""
        out = dict(self._root)
        for v, val in self._overlay.items():
            if val is REMOVED:
                out.pop(v, None)
            else:
                out[v] = val
        return out

    def _levels(self) -> Dict[int, FrozenSet[Vertex]]:
        """The ``{level: frozenset(vertices)}`` map, derived lazily.

        Clean levels share their frozenset with the parent view; only
        levels some patched vertex entered or left are rebuilt.  The
        cache is written once (idempotent), so concurrent readers racing
        on the first derivation at worst duplicate work.
        """
        cached = self._level_map
        if cached is not None:
            return cached
        if isinstance(self.base, ReadView):
            parent = self.base._levels()
            dirty: Dict[int, set] = {}

            def bucket(k: int) -> set:
                b = dirty.get(k)
                if b is None:
                    b = dirty[k] = set(parent.get(k, ()))
                return b

            for v, val in self.patch.items():
                old = self.base.kappa_of(v) if v in self.base else None
                if old is not None:
                    bucket(old).discard(v)
                if val is not REMOVED:
                    bucket(val).add(v)
            levels = dict(parent)
            for k, b in dirty.items():
                if b:
                    levels[k] = frozenset(b)
                else:
                    levels.pop(k, None)
        else:
            buckets: Dict[int, set] = {}
            for v, k in self.kappa().items():
                buckets.setdefault(k, set()).add(v)
            levels = {k: frozenset(b) for k, b in buckets.items()}
        self._level_map = levels
        return levels

    def levels(self) -> Iterable[int]:
        return self._levels().keys()

    def vertices_at_level(self, k: int) -> FrozenSet[Vertex]:
        return self._levels().get(k, frozenset())

    def __repr__(self) -> str:
        return (
            f"ReadView(epoch={self.epoch}, boundary={self.boundary}, "
            f"|V|={self._size}, depth={self._depth})"
        )


_MISS = object()


class ViewManager:
    """Owns the view chain for one maintainer.

    Parameters
    ----------
    maintainer:
        The **algorithm instance** (a :class:`~repro.core.base
        .MaintainerBase`) whose ``view_publisher`` seam this manager
        drives.  :class:`~repro.serve.server.CoreServer` resolves the
        instance through the wrapper stack and re-attaches after a
        supervisor heal.
    clock:
        ``now()`` provider for ``captured_at`` stamps
        (:class:`~repro.resilience.backoff.SystemClock` by default).
    flatten_depth / flatten_ratio:
        Flatten the overlay chain into a plain dict when it exceeds
        ``flatten_depth`` links, or when the accumulated patch entries
        exceed ``flatten_ratio`` of the live vertex count.  Flattening
        happens at publish time, on the writer thread -- readers of
        older views are unaffected (their chain links are immutable).
    """

    def __init__(self, maintainer, *, clock=None,
                 flatten_depth: int = 8, flatten_ratio: float = 0.25) -> None:
        from repro.resilience.backoff import SystemClock

        self.clock = clock if clock is not None else SystemClock()
        self.flatten_depth = flatten_depth
        self.flatten_ratio = flatten_ratio
        self._m = None
        self._epoch = 0
        self._view: Optional[ReadView] = None
        self._patched = 0          # patch entries since the last flatten
        self.stats: Dict[str, int] = {
            "publishes": 0, "flattens": 0, "rebuilds": 0,
        }
        #: called with the new view and the batch delta after each publish
        self.on_publish: Optional[Callable[[ReadView, Dict], None]] = None
        self.attach(maintainer)

    # -- lifecycle ------------------------------------------------------------
    def attach(self, maintainer) -> None:
        """Bind to ``maintainer`` and publish a fresh full snapshot.

        Also the heal path: after the resilient supervisor replaces the
        algorithm instance wholesale, the server re-attaches here and
        the chain restarts from a flattened capture (the epoch keeps
        counting -- a subscriber can detect the discontinuity by the
        boundary moving backwards, never by a torn view).
        """
        if self._m is not None and self._m is not maintainer:
            self._m.view_publisher = None
        self._m = maintainer
        maintainer.view_publisher = self._publish
        self.rebuild()

    def detach(self) -> None:
        if self._m is not None:
            self._m.view_publisher = None
            self._m = None

    @property
    def maintainer(self):
        return self._m

    def current(self) -> ReadView:
        """The latest published view (always set once attached)."""
        return self._view

    # -- publication ----------------------------------------------------------
    def rebuild(self) -> ReadView:
        """Full flattened capture of the maintainer's current state."""
        m = self._m
        base = dict(m.tau)
        level_map = m.backend.view_levels()
        self._epoch += 1
        view = ReadView(
            base, {}, epoch=self._epoch, boundary=m.batches_processed,
            captured_at=self.clock.now(), sub=m.sub, size=len(base),
            level_map=level_map,
        )
        self._patched = 0
        self._view = view
        self.stats["rebuilds"] += 1
        return view

    def _publish(self, delta: Dict[Vertex, Optional[int]]) -> None:
        """The ``view_publisher`` hook: runs on the writer thread,
        strictly after the batch's commit point."""
        m = self._m
        prev = self._view
        tau = m.tau
        patch: Dict[Vertex, object] = {}
        for v in delta:
            val = tau.get(v, _MISS)
            patch[v] = REMOVED if val is _MISS else val
        self._patched += len(patch)
        self._epoch += 1
        view = ReadView(
            prev, patch, epoch=self._epoch, boundary=m.batches_processed,
            captured_at=self.clock.now(), sub=m.sub, size=len(tau),
        )
        if (view._depth > self.flatten_depth
                or self._patched > self.flatten_ratio * max(1, len(tau))):
            view = ReadView(
                view.kappa(), {}, epoch=self._epoch,
                boundary=view.boundary, captured_at=view.captured_at,
                sub=m.sub, size=len(tau), level_map=view._levels(),
            )
            self._patched = 0
            self.stats["flattens"] += 1
        self._view = view
        self.stats["publishes"] += 1
        hook = self.on_publish
        if hook is not None:
            hook(view, delta)

    def __repr__(self) -> str:
        return (
            f"ViewManager(epoch={self._epoch}, "
            f"view={self._view!r}, stats={self.stats})"
        )
