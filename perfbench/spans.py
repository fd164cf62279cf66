"""In-memory span recorder and the seams the traced run wraps.

A *seam* is one public entry point of a layer, named by module and
attribute path (``"repro.core.backend"``, ``"ArrayBackend.sweep_and_converge"``).
:func:`install` finds each seam by attribute lookup and replaces it with
a wrapper that records a span around the call; a seam it cannot find is
reported absent instead of failing, so a refactor that moves or renames
an entry point shows up as a missing per-layer number, not a broken run.
The untraced path installs no seam.

Spans are kept in memory as ``[name, start, end, parent, batch]`` rows
and reduced at the end of the run.  Only the client thread records:
calls made from a thread-pool worker pass through untimed.  An *opaque*
span (a standby replaying a shipment, a replayed recovery batch) mutes
every seam beneath it, so the primary's layers are never charged with
work a replica or the recovery path did through the same classes.
"""

from __future__ import annotations

import importlib
import threading
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["Seam", "Tracer", "install", "self_times"]


@dataclass(frozen=True)
class Seam:
    """One wrapped entry point.

    ``module`` + ``attr`` locate a module-level function or a class
    attribute (``"Class.method"``); with ``module=None``, ``attr`` is a
    dotted path from the live root object handed to :func:`install`.
    ``kind`` is ``"span"`` (record a span called ``name``), ``"bytes"``
    (add the length of each return value to counter ``name`` while the
    innermost open span is ``inside``) or ``"region"`` (add each call's
    duration and a call count to ``<name>.<region>_s`` / ``_calls``,
    keyed by the call's ``region=`` argument, outside the span tree).
    """

    name: str
    module: Optional[str]
    attr: str
    opaque: bool = False
    kind: str = "span"
    inside: Optional[str] = None


class Tracer:
    """Nested span recorder for one client thread."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(int)
        self.batch: Optional[int] = None
        self._stack: List[int] = []
        self._muted = 0
        self._thread = threading.get_ident()

    def _active(self) -> bool:
        return not self._muted and threading.get_ident() == self._thread

    def call(self, name: str, opaque: bool, fn: Callable, args, kwargs):
        if not self._active():
            return fn(*args, **kwargs)
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        row = [name, perf_counter(), 0.0, parent, self.batch]
        self.spans.append(row)
        self._stack.append(idx)
        self._muted += opaque
        try:
            return fn(*args, **kwargs)
        finally:
            self._muted -= opaque
            self._stack.pop()
            row[2] = perf_counter()

    def count_bytes(self, inside: str, counter: str, fn: Callable, args, kwargs):
        out = fn(*args, **kwargs)
        if self._active() and self._stack and self.spans[self._stack[-1]][0] == inside:
            self.counters[counter] += len(out)
        return out

    def time_region(self, prefix: str, fn: Callable, args, kwargs):
        if not self._active():
            return fn(*args, **kwargs)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            region = f"{prefix}.{kwargs.get('region', 'ranges')}"
            self.counters[region + "_s"] += perf_counter() - t0
            self.counters[region + "_calls"] += 1

    def root(self, name: str, batch: Optional[int] = None) -> "_Root":
        """Context manager for a span the benchmark opens itself (a batch,
        a recovery); ``batch`` tags it and every span beneath it."""
        return _Root(self, name, batch)


class _Root:
    def __init__(self, tracer: Tracer, name: str, batch: Optional[int]) -> None:
        self.tracer, self.name, self.batch = tracer, name, batch

    def __enter__(self) -> None:
        t = self.tracer
        t.batch = self.batch
        self.idx = len(t.spans)
        t.spans.append([self.name, 0.0, 0.0, -1, self.batch])
        t._stack.append(self.idx)
        t.spans[self.idx][1] = perf_counter()

    def __exit__(self, *exc) -> None:
        t = self.tracer
        t.spans[self.idx][2] = perf_counter()
        t._stack.pop()
        t.batch = None


def _wrap(tracer: Tracer, seam: Seam, fn: Callable) -> Callable:
    if seam.kind == "bytes":
        def counted(*args, **kwargs):
            return tracer.count_bytes(seam.inside, seam.name, fn, args, kwargs)
        return counted
    if seam.kind == "region":
        def timed(*args, **kwargs):
            return tracer.time_region(seam.name, fn, args, kwargs)
        return timed

    def traced(*args, **kwargs):
        return tracer.call(seam.name, seam.opaque, fn, args, kwargs)
    return traced


def _install_one(tracer: Tracer, seam: Seam, root) -> Optional[Callable[[], None]]:
    """Wrap one seam; returns its undo, or ``None`` when it is absent."""
    parts = seam.attr.split(".")
    try:
        owner = importlib.import_module(seam.module) if seam.module else root
        for part in parts[:-1]:
            owner = getattr(owner, part)
    except (ImportError, AttributeError):
        return None
    last = parts[-1]
    if isinstance(owner, type):
        raw = next((c.__dict__[last] for c in owner.__mro__ if last in c.__dict__), None)
        if isinstance(raw, classmethod):
            new = classmethod(_wrap(tracer, seam, raw.__func__))
        elif isinstance(raw, staticmethod):
            new = staticmethod(_wrap(tracer, seam, raw.__func__))
        elif callable(raw):
            new = _wrap(tracer, seam, raw)
        else:
            return None
    else:
        raw = getattr(owner, last, None)
        if not callable(raw):
            return None
        new = _wrap(tracer, seam, raw)
    had_own = last in getattr(owner, "__dict__", {})
    own = owner.__dict__[last] if had_own else None
    setattr(owner, last, new)

    def undo() -> None:
        if had_own:
            setattr(owner, last, own)
        else:
            delattr(owner, last)
    return undo


def install(tracer: Tracer, seams, root=None) -> Tuple[Callable[[], None], List[str]]:
    """Wrap every findable seam.  Returns ``(uninstall, absent_names)``."""
    undos, absent = [], []
    for seam in seams:
        undo = _install_one(tracer, seam, root)
        if undo is None:
            absent.append(seam.name)
        else:
            undos.append(undo)

    def uninstall() -> None:
        for undo in reversed(undos):
            undo()
    return uninstall, absent


def self_times(spans: List[list],
               root: str) -> Tuple[Dict[str, List[Optional[float]]], List[float]]:
    """Self time of every span name under each root span called ``root``.

    Returns ``(per_name, durations)``: ``per_name[name][i]`` is the summed
    self time (duration minus the time its child spans cover) of ``name``
    under the ``i``-th such root, ``None`` where it did not run;
    ``durations[i]`` is that root's own duration.  The root's self time
    is listed under ``root``.
    """
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    root_of = [-1] * len(spans)
    order: Dict[int, int] = {}
    for i, (name, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            root_of[i] = root_of[parent]
        elif name == root:
            order[i] = len(order)
            root_of[i] = i
    per_name: Dict[str, List[Optional[float]]] = defaultdict(lambda: [None] * len(order))
    durations = [0.0] * len(order)
    for i, (name, start, end, _, _) in enumerate(spans):
        r = root_of[i]
        if r < 0:
            continue
        k = order[r]
        values = per_name[name]
        values[k] = (values[k] or 0.0) + (end - start) - child_time[i]
        if i == r:
            durations[k] = end - start
    return dict(per_name), durations
