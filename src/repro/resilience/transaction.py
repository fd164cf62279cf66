"""All-or-nothing batch application: the undo machinery.

``MaintainerBase.apply_batch`` wraps every algorithm's batch processing in
a :class:`Transaction`:

* a **journal** of the structural changes that actually landed (recorded
  by ``MaintainH``'s single mutation point) -- on failure they are
  re-applied *inverted, in reverse order*, which restores the substrate
  exactly (a graph edge journals once even though it carries two pin
  records; its single inverse removes/restores the whole edge).  Entries
  are usually :class:`~repro.graph.substrate.Change` records, but any
  object with an ``undo(sub)`` method participates -- the columnar bulk
  path journals whole phases as
  :class:`~repro.engine.columnar.ColumnarJournalEntry` array slices;
* a **tau snapshot** (one dict copy -- tau only holds vertices with
  degree >= 1, so this is O(|V|) of cheap C-level copying); after it is
  restored, the execution backend rebuilds what it derives from tau (the
  dict backend's level index, the array backend's dense shadows) in
  ``rollback_resync``;
* an **extra-state capsule** via the ``_txn_snapshot_extra`` /
  ``_txn_restore_extra`` hooks, for algorithm-specific cross-batch state
  (the order maintainer's level sequences, the approximate maintainer's
  residual frontier and inflation bound).

The tau restore happens *in place* (``dict.clear()`` + ``update``)
because other objects alias the dict: the hybrid maintainer's child
engines share ``tau`` (and the backend), and the :class:`MinCache` holds
a reference to it.  The min-cache itself is simply cleared -- it is a
cache, and it refills lazily against the restored values.
"""

from __future__ import annotations

import logging
from typing import Dict, Hashable, List

__all__ = ["Transaction"]

Vertex = Hashable

logger = logging.getLogger(__name__)


class Transaction:
    """Pre-batch state of one maintainer, sufficient to roll back."""

    __slots__ = ("journal", "tau_snapshot", "batches_processed", "extra")

    def __init__(self, journal: List[object], tau_snapshot: Dict[Vertex, int],
                 batches_processed: int, extra: object) -> None:
        self.journal = journal
        self.tau_snapshot = tau_snapshot
        self.batches_processed = batches_processed
        self.extra = extra

    @classmethod
    def begin(cls, maintainer) -> "Transaction":
        """Capture everything a rollback needs; O(|V|) dict copies."""
        return cls(
            journal=[],
            tau_snapshot=dict(maintainer.tau),
            batches_processed=maintainer.batches_processed,
            extra=maintainer._txn_snapshot_extra(),
        )

    def rollback(self, maintainer) -> None:
        """Restore ``maintainer`` to the state captured by :meth:`begin`."""
        # lazy %s formatting: the journal repr is only built when debug
        # logging is actually enabled (rollback sits on failure paths
        # that tests and the chaos harness hit thousands of times)
        logger.debug(
            "rolling back %d journalled entries on %r",
            len(self.journal), maintainer,
        )
        sub = maintainer.sub
        for entry in reversed(self.journal):
            undo = getattr(entry, "undo", None)
            if undo is not None:
                undo(sub)
            else:
                sub.apply(entry.inverse())
        tau = maintainer.tau
        tau.clear()
        tau.update(self.tau_snapshot)
        if maintainer.min_cache is not None:
            maintainer.min_cache.clear()
        maintainer.backend.rollback_resync()
        maintainer.batches_processed = self.batches_processed
        maintainer._txn_restore_extra(self.extra)
