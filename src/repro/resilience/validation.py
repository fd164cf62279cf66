"""Pre-flight batch validation.

A long-running maintainer dies not from its algorithms but from its
inputs: one malformed :class:`~repro.graph.substrate.Change` in the middle
of a batch used to raise *after* earlier changes had already mutated the
substrate, leaving graph, ``tau``, the backend's derived state and the
min-cache mutually inconsistent.  :func:`validate_batch` checks every change for
structural well-formedness *before the first mutation*, so a batch either
starts applying or is rejected untouched.

What is validated here is exactly the state-independent properties -- the
ones whose violation would raise mid-apply:

* every element is a :class:`Change` with a boolean direction;
* on graphs: the edge id is a canonical ``edge_id(u, v)`` pair, no
  self-loops, and the changed pin is one of the two endpoints (the checks
  :meth:`DynamicGraph.apply` would otherwise fail *after* earlier changes
  landed);
* edge ids and vertices are hashable (they key every index).

State-*dependent* no-ops -- deleting an absent pin, re-inserting a present
edge -- are deliberately not rejected: they may become valid through
earlier changes of the same batch, and ``MaintainH`` skips them safely
without mutating anything (see ``tests/test_failure_injection.py``).
"""

from __future__ import annotations

from typing import Iterable

from repro.graph.substrate import Change, edge_id

__all__ = ["BatchValidationError", "validate_batch"]


class BatchValidationError(ValueError):
    """A batch failed pre-flight validation; nothing was applied.

    Subclasses :class:`ValueError` so callers guarding the old mid-apply
    failures keep working.
    """

    def __init__(self, index: int, change: object, reason: str) -> None:
        self.index = index
        self.change = change
        self.reason = reason
        super().__init__(f"invalid change at batch index {index}: {reason} ({change!r})")


def _hashable(obj: object) -> bool:
    try:
        hash(obj)
    except TypeError:
        return False
    return True


def validate_batch(sub, batch: Iterable) -> None:
    """Raise :class:`BatchValidationError` unless every change of ``batch``
    is structurally applicable to ``sub``; mutate nothing."""
    is_hyper = bool(getattr(sub, "is_hypergraph", False))
    for i, change in enumerate(batch):
        if not isinstance(change, Change):
            raise BatchValidationError(i, change, "not a Change record")
        if not isinstance(change.insert, bool):
            raise BatchValidationError(i, change, "direction must be True/False")
        if not _hashable(change.edge) or not _hashable(change.vertex):
            raise BatchValidationError(i, change, "edge and vertex must be hashable")
        if is_hyper:
            continue
        e = change.edge
        if not isinstance(e, tuple) or len(e) != 2:
            raise BatchValidationError(i, change, "graph edge id must be a (u, v) pair")
        u, v = e
        try:
            canonical = edge_id(u, v)
        except ValueError:
            raise BatchValidationError(i, change, "self-loop") from None
        except TypeError:
            raise BatchValidationError(i, change, "endpoints are not mutually orderable") from None
        if canonical != e:
            raise BatchValidationError(
                i, change, f"non-canonical edge id (use edge_id -> {canonical!r})"
            )
        if change.vertex != u and change.vertex != v:
            raise BatchValidationError(
                i, change, f"pin {change.vertex!r} is not an endpoint of {e!r}"
            )
