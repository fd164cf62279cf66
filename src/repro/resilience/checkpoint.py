"""Checkpoint/restore: atomic, checksummed snapshots of a maintainer.

A checkpoint captures the three things that define a maintenance session
-- the substrate's content, the maintained ``tau`` values, and the stream
position (``batches_processed``) -- plus, for an algorithm whose
cross-batch state ``tau`` does not imply (``mod-approx``'s unconverged
frontier and inflation), that state, decoupled from any in-memory object,
so a long-running stream can be restarted after a crash, or forked for
what-if analysis:

    >>> from repro import CoreMaintainer, DynamicGraph
    >>> from repro.resilience import take_checkpoint, restore_maintainer
    >>> g = DynamicGraph.from_edges([(0, 1), (1, 2), (0, 2)])
    >>> m = CoreMaintainer(g, algorithm="mod")
    >>> cp = take_checkpoint(m)
    >>> m.insert_edge(2, 3)          # diverge...
    >>> m2 = restore_maintainer(cp)  # ...and rewind
    >>> m2.kappa() == {0: 2, 1: 2, 2: 2}
    True

On-disk format
--------------
``save`` is **atomic and checksummed**: the payload (a pickle -- vertex
and edge labels are arbitrary hashables, which rules out JSON in
general) is prefixed with a magic/version/CRC32/length header, written
to a ``.tmp`` sibling, flushed, ``fsync``\\ ed, and swapped into place
with ``os.replace``.  A crash at any point leaves either the previous
checkpoint or the new one -- never a torn file under the final name.
``load`` verifies the digest before unpickling and wraps every torn /
truncated / garbage shape in :class:`~repro.resilience.durability.errors
.DurabilityError` naming the offending path; files that decode but do
not hold a :class:`Checkpoint` raise :class:`TypeError`, and unsupported
versions raise :class:`ValueError`, as before.  Legacy bare-pickle
(version-1) files still load.  Treat checkpoint files like any other
pickle -- load only your own.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Hashable, List, Tuple

from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.dynamic_hypergraph import DynamicHypergraph
from repro.resilience.durability.errors import DurabilityError

__all__ = ["Checkpoint", "take_checkpoint", "restore_maintainer"]

Vertex = Hashable

#: bump when the on-disk layout changes
CHECKPOINT_VERSION = 2
#: versions ``load`` still understands (1 = bare pickle, no header)
SUPPORTED_VERSIONS = (1, 2)

_MAGIC = b"RKCP"
_HEADER = struct.Struct("<III")  # version, crc32(payload), payload length


def _fsync_directory(path: Path) -> None:
    """Make a rename durable (best effort; not all platforms allow it)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _unwrap(maintainer):
    """Peel facade layers (CoreMaintainer / DurableMaintainer /
    ResilientMaintainer) down to the algorithm instance."""
    seen = 0
    while hasattr(maintainer, "impl") and seen < 4:
        maintainer = maintainer.impl
        seen += 1
    return maintainer


@dataclass
class Checkpoint:
    """Portable snapshot of ``(substrate, tau, batches_processed)``."""

    algorithm: str
    is_hypergraph: bool
    #: graph: ``[(u, v), ...]``; hypergraph: ``[(edge_id, [pins...]), ...]``
    edges: List[Tuple]
    tau: Dict[Vertex, int]
    batches_processed: int
    version: int = field(default=CHECKPOINT_VERSION)
    #: WAL position this snapshot covers (durable sessions only; ``-1``
    #: means "same as batches_processed")
    wal_seqno: int = field(default=-1)
    #: the algorithm's cross-batch state (its ``_txn_snapshot_extra``)
    #: when it sets ``checkpoint_state``; ``None`` otherwise and in
    #: checkpoints written before the field existed
    algorithm_state: object = field(default=None)

    # -- persistence -----------------------------------------------------------
    def save(self, path, *, crashpoints=None) -> None:
        """Atomically persist to ``path`` (tmp + fsync + ``os.replace``).

        ``crashpoints`` is the durability test seam
        (:class:`~repro.resilience.durability.crashpoints.CrashPoints`);
        production callers leave it ``None``.
        """
        path = Path(path)
        fire = crashpoints.fire if crashpoints is not None else (lambda site: None)
        payload = pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)
        header = _MAGIC + _HEADER.pack(
            self.version, zlib.crc32(payload), len(payload)
        )
        data = header + payload
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "wb") as fh:
            fire("checkpoint.write.start")
            mid = len(data) // 2
            fh.write(data[:mid])
            fh.flush()
            fire("checkpoint.write.torn")
            fh.write(data[mid:])
            fh.flush()
            fire("checkpoint.fsync.before")
            os.fsync(fh.fileno())
        fire("checkpoint.rename.before")
        os.replace(tmp, path)
        fire("checkpoint.rename.after")
        _fsync_directory(path.parent)

    @classmethod
    def load(cls, path) -> "Checkpoint":
        """Load and verify; see the module docstring for the error map."""
        path = Path(path)
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise DurabilityError(f"cannot read checkpoint: {exc}", path) from exc
        if data.startswith(_MAGIC):
            header_end = len(_MAGIC) + _HEADER.size
            if len(data) < header_end:
                raise DurabilityError("truncated checkpoint header", path)
            version, crc, length = _HEADER.unpack_from(data, len(_MAGIC))
            payload = data[header_end:]
            if len(payload) != length:
                raise DurabilityError(
                    f"truncated checkpoint: header promises {length} payload "
                    f"bytes, file holds {len(payload)}",
                    path,
                )
            if zlib.crc32(payload) != crc:
                raise DurabilityError("checkpoint checksum mismatch", path)
            if version not in SUPPORTED_VERSIONS:
                raise ValueError(
                    f"checkpoint version {version} unsupported "
                    f"(expected one of {SUPPORTED_VERSIONS})"
                )
        else:
            payload = data  # legacy version-1 bare pickle
        try:
            cp = pickle.loads(payload)
        except Exception as exc:
            raise DurabilityError(
                f"unreadable checkpoint payload ({type(exc).__name__}: {exc})",
                path,
            ) from exc
        if not isinstance(cp, cls):
            raise TypeError(f"{str(path)!r} does not hold a Checkpoint")
        if cp.version not in SUPPORTED_VERSIONS:
            raise ValueError(
                f"checkpoint version {cp.version} unsupported "
                f"(expected one of {SUPPORTED_VERSIONS})"
            )
        return cp

    # -- reconstruction --------------------------------------------------------
    def build_substrate(self):
        """A fresh substrate holding exactly the checkpointed structure."""
        if self.is_hypergraph:
            h = DynamicHypergraph()
            for e, pins in self.edges:
                for v in pins:
                    h.add_pin(e, v)
            return h
        return DynamicGraph.from_edges(self.edges)


def take_checkpoint(maintainer) -> Checkpoint:
    """Snapshot a maintainer (or a facade / supervisor wrapping one)."""
    m = _unwrap(maintainer)
    sub = m.sub
    if getattr(sub, "is_hypergraph", False):
        edges: List[Tuple] = [(e, sorted(pins, key=repr)) for e, pins in sub.hyperedges()]
        edges.sort(key=lambda item: repr(item[0]))
        is_hyper = True
    else:
        # sort by repr, not natively: labels are arbitrary hashables and
        # need not be mutually orderable (mixed str/int graphs are legal)
        edges = sorted(sub.edges(), key=repr)
        is_hyper = False
    return Checkpoint(
        algorithm=m.algorithm,
        is_hypergraph=is_hyper,
        edges=edges,
        tau=dict(m.tau),
        batches_processed=m.batches_processed,
        algorithm_state=m._txn_snapshot_extra() if m.checkpoint_state else None,
    )


def restore_maintainer(cp: Checkpoint, rt=None, *, algorithm: str = None, **kwargs):
    """Rebuild a ready-to-stream maintainer from a checkpoint.

    ``algorithm`` overrides the checkpointed one (the snapshot is
    algorithm-agnostic: any maintainer can adopt it).  Extra ``kwargs``
    are forwarded to the algorithm class; ``engine="array"`` rebuilds
    onto an :class:`~repro.engine.ArrayGraph` (graph checkpoints) or
    :class:`~repro.engine.ArrayHypergraph` (hypergraph checkpoints)
    substrate, bulk-loaded straight from the checkpoint's edge list.

    The requested combination is validated *before* anything is built or
    mutated, so a bad restore fails fast with an actionable error.

    A checkpoint carrying algorithm state hands it back to the same
    algorithm; another algorithm adopting it first settles it (for
    ``mod-approx``: converges the carried frontier), so a restore never
    serves tau above kappa as exact.
    """
    from repro.core.maintainer import ALGORITHMS, make_maintainer

    algo = algorithm or cp.algorithm
    if algo not in ALGORITHMS:
        raise ValueError(
            f"cannot restore checkpoint: unknown algorithm {algo!r} "
            f"(checkpoint carries {cp.algorithm!r}; choose from "
            f"{sorted(ALGORITHMS)} or pass algorithm= to override)"
        )
    engine = kwargs.get("engine", "auto")
    if cp.is_hypergraph and algo == "traversal":
        raise ValueError(
            "cannot restore checkpoint: the 'traversal' baseline is "
            "defined for graphs only but the checkpoint holds a "
            "hypergraph; pass algorithm= to pick a hypergraph-capable "
            f"maintainer ({sorted(set(ALGORITHMS) - {'traversal'})})"
        )
    if engine == "array":
        from repro.engine import ArrayGraph, ArrayHypergraph

        if cp.is_hypergraph:
            sub = ArrayHypergraph.from_incidence(cp.edges)
        else:
            sub = ArrayGraph.from_edges(cp.edges)
    else:
        sub = cp.build_substrate()
    m = make_maintainer(sub, algo, rt, tau=cp.tau, **kwargs)
    m.batches_processed = cp.batches_processed
    if cp.algorithm_state is not None:
        if algo == cp.algorithm:
            m._txn_restore_extra(cp.algorithm_state)
        else:
            ALGORITHMS[cp.algorithm].settle_state(m, cp.algorithm_state)
    return m
