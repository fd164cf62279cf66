"""The write-ahead log: append-only, checksummed, segment-rotated.

Format
------
A WAL is a directory of segment files ``wal-<seqno>.seg``, named by the
first batch sequence number they hold.  A segment is a flat sequence of
*records*, each length-prefixed and CRC32-checksummed::

    +----------------+----------------+------------------------+
    | length (u32le) | crc32 (u32le)  | payload (length bytes) |
    +----------------+----------------+------------------------+

The payload is a pickled tuple, one of three kinds:

* ``("C", seqno, (edge, vertex, insert))`` -- one pin-change record of
  batch ``seqno`` (the paper's unit of change, Section II-C);
* ``("B", seqno, n)`` -- the *commit record* closing batch ``seqno``,
  carrying its change count;
* ``("Q", seqno, reason)`` -- the *abort record*: batch ``seqno`` was
  logged but did **not** commit in memory (the resilient supervisor
  quarantined it, or the apply raised after logging).  Every reader --
  recovery replay, replication shipping, payload decoding -- skips an
  aborted batch while still consuming its sequence position, so disk,
  standbys and the primary's memory agree on exactly which batches are
  part of the timeline.

A batch is **replayable iff its commit record landed and no abort record
for it follows**: change records without a trailing commit are a torn
batch and are discarded wholesale on recovery, which is what makes a
crash mid-append atomic at batch granularity.  Segments rotate only at
batch boundaries, so no batch spans two files (an abort record always
lands in the same segment as the batch it aborts).

Sync policies
-------------
``SyncPolicy`` decides when appended bytes become *durable* (fsync):

* ``every-record`` -- fsync after each change record: a batch is never
  more than one record from durable, at one ``fsync`` syscall per pin
  change (the slowest policy by far);
* ``every-batch`` -- fsync once, after the commit record: an
  acknowledged ``apply_batch`` implies the batch is durable (the
  default, and the policy the durability contract is stated for);
* ``size:N`` -- fsync when ``N`` unsynced bytes accumulate: the fastest
  policy, but an acknowledged batch may be lost to a crash (recovery
  then restarts from the last synced prefix -- the report says where).

Torn tails
----------
Reading tolerates every torn-write shape a crash can leave: a partial
length header, a payload shorter than its header promises, a checksum
mismatch, an undecodable pickle, an implausible length from garbage
bytes.  :func:`scan_wal` stops at the first damaged record and reports
the damage point; :class:`~repro.resilience.durability.recovery
.RecoveryManager` truncates the file back to the last *committed* batch
boundary and deletes any later segments -- the torn tail is never
replayed and never fatal.

Crash simulation: every I/O boundary here fires a
:class:`~repro.resilience.durability.crashpoints.CrashPoints` site (see
that module for the catalogue); records are deliberately written in two
halves so the ``wal.append.torn`` site leaves a genuinely torn record on
disk.  :meth:`WriteAheadLog.simulate_power_loss` additionally models
losing the OS page cache (everything after the last fsync) for the
harsher power-failure model.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.graph.substrate import Change
from repro.resilience.durability.crashpoints import CrashPoints
from repro.resilience.durability.errors import DurabilityError

__all__ = [
    "SyncPolicy",
    "WriteAheadLog",
    "ScanResult",
    "PruneResult",
    "scan_wal",
    "read_wal_from",
    "wal_horizon",
    "encode_record",
    "encode_batch",
    "decode_payload",
]

_RECORD_HEADER = struct.Struct("<II")  # payload length, crc32(payload)
#: sanity cap on a single record; a longer length field is garbage bytes
MAX_RECORD_BYTES = 1 << 24

_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".seg"


def _segment_seqno(path: Path) -> int:
    """First batch seqno of a segment, parsed from its filename."""
    stem = path.name[len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)]
    try:
        return int(stem)
    except ValueError:
        raise DurabilityError(f"not a WAL segment name: {path.name!r}", path) from None


def list_segments(directory) -> List[Path]:
    """WAL segments of ``directory`` in replay (sequence) order."""
    return sorted(Path(directory).glob(f"{_SEGMENT_PREFIX}*{_SEGMENT_SUFFIX}"))


# ---------------------------------------------------------------------------
# the record codec (shared by the writer, the scanner, the incremental
# reader, and replication shipments -- one wire format, one parser)
# ---------------------------------------------------------------------------
def encode_record(record: tuple) -> bytes:
    """One length-prefixed, CRC32-checksummed record (see module header)."""
    payload = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
    return _RECORD_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def encode_batch(seqno: int, changes: Iterable[Change]) -> bytes:
    """A whole batch in WAL wire format: change records + commit record.

    This is exactly what :meth:`WriteAheadLog.append_batch` puts on disk,
    so a replication shipment carries WAL records and a torn shipment is
    caught by the same CRC parsing as a torn segment.
    """
    parts = [
        encode_record(("C", seqno, (c.edge, c.vertex, bool(c.insert))))
        for c in changes
    ]
    parts.append(encode_record(("B", seqno, len(parts))))
    return b"".join(parts)


def _parse_record(data: bytes, offset: int):
    """Parse one record at ``offset`` of ``data``.

    Returns ``((kind, seqno, obj), end_offset, None)`` on success --
    ``obj`` is a :class:`Change` for ``"C"`` records, the change count
    for ``"B"``, the abort reason string for ``"Q"`` -- or
    ``(None, offset, reason)`` for any torn-write shape a crash (or a
    torn shipment) can leave.
    """
    size = len(data)
    if offset + _RECORD_HEADER.size > size:
        return None, offset, "torn header"
    length, crc = _RECORD_HEADER.unpack_from(data, offset)
    if length > MAX_RECORD_BYTES:
        return None, offset, "implausible record length"
    start = offset + _RECORD_HEADER.size
    end = start + length
    if end > size:
        return None, offset, "torn record"
    payload = data[start:end]
    if zlib.crc32(payload) != crc:
        return None, offset, "checksum mismatch"
    try:
        record = pickle.loads(payload)
        kind = record[0]
        if kind == "C":
            _, seqno, (e, v, insert) = record
            obj = Change(e, v, bool(insert))
        elif kind == "B":
            # unpack here: a CRC-valid record with the wrong arity is
            # damage to report, not an exception to leak
            _, seqno, n = record
            obj = int(n)
        elif kind == "Q":
            _, seqno, reason = record
            obj = str(reason)
        else:
            raise ValueError(kind)
    except Exception:
        return None, offset, "undecodable record"
    return (kind, seqno, obj), end, None


def decode_payload(data: bytes):
    """Parse a flat buffer of WAL wire-format records into batches.

    Returns ``(committed, damage)`` where ``committed`` is
    ``[(seqno, [Change, ...]), ...]`` in buffer order and ``damage`` is
    ``None`` or a reason string.  A damaged record *or* trailing change
    records without their commit record report damage -- a replication
    shipment is supposed to carry whole batches, so an open group means
    the shipment was torn in flight.  The valid committed prefix is
    returned either way (the receiver applies it and NAKs for the rest).
    """
    committed: List[Tuple[int, List[Change]]] = []
    open_groups: Dict[int, List[Change]] = {}
    offset, size = 0, len(data)
    while offset < size:
        parsed, offset, damage = _parse_record(data, offset)
        if damage is not None:
            return committed, damage
        kind, seqno, obj = parsed
        if kind == "C":
            open_groups.setdefault(seqno, []).append(obj)
        elif kind == "B":
            group = open_groups.pop(seqno, [])
            if len(group) != obj:
                return committed, "batch commit count mismatch"
            committed.append((seqno, group))
        else:  # "Q": the batch aborted after commit -- retract it
            open_groups.pop(seqno, None)
            for i in range(len(committed) - 1, -1, -1):
                if committed[i][0] == seqno:
                    del committed[i]
                    break
    if open_groups:
        return committed, "torn payload tail"
    return committed, None


@dataclass(frozen=True)
class SyncPolicy:
    """When appended WAL bytes are fsynced; see the module docstring."""

    kind: str                 #: ``"record"`` | ``"batch"`` | ``"size"``
    threshold: int = 0        #: unsynced-byte trigger (``size`` only)

    KINDS = ("record", "batch", "size")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ValueError(
                f"unknown sync policy {self.kind!r}; choose from {self.KINDS}"
            )
        if self.kind == "size" and self.threshold <= 0:
            raise ValueError("size sync policy needs a positive byte threshold")

    # -- readable constructors -------------------------------------------------
    @classmethod
    def every_record(cls) -> "SyncPolicy":
        return cls("record")

    @classmethod
    def every_batch(cls) -> "SyncPolicy":
        return cls("batch")

    @classmethod
    def size_threshold(cls, n_bytes: int) -> "SyncPolicy":
        return cls("size", n_bytes)

    @classmethod
    def coerce(cls, value) -> "SyncPolicy":
        """Accept a policy, a kind name, or ``"size:N"``."""
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            if value.startswith("size:"):
                return cls("size", int(value.split(":", 1)[1]))
            return cls(value)
        raise TypeError(f"cannot interpret {value!r} as a SyncPolicy")

    @property
    def guarantees_acked(self) -> bool:
        """Whether an acknowledged batch is guaranteed durable."""
        return self.kind in ("record", "batch")


class WriteAheadLog:
    """Append-only change log over a directory of rotated segments.

    The log is batch-oriented: :meth:`append_batch` writes one change
    record per pin change plus a commit record, then syncs per policy.
    A fresh instance over a non-empty directory never touches existing
    segments except to :meth:`prune` them -- it appends into new files,
    so recovery-then-resume needs no coordination.  It indexes where
    each batch it appends starts, so :meth:`read_from` parses only the
    suffix it returns.
    """

    def __init__(
        self,
        directory,
        *,
        sync_policy="batch",
        segment_max_bytes: int = 1 << 22,
        start_seqno: Optional[int] = None,
        crashpoints: Optional[CrashPoints] = None,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.sync_policy = SyncPolicy.coerce(sync_policy)
        if segment_max_bytes <= 0:
            raise ValueError("segment_max_bytes must be positive")
        self.segment_max_bytes = segment_max_bytes
        #: WAL position of the session this log serves.  The first
        #: segment is named for it (not for the first *logged* batch,
        #: which may come later if early batches fail validation), so the
        #: oldest segment name is a lower bound on every position the
        #: session consumed -- recovery's gap check depends on this.
        self.start_seqno = start_seqno
        self.crashpoints = crashpoints if crashpoints is not None else CrashPoints()
        self._fh = None
        self._path: Optional[Path] = None
        self._synced_offset = 0
        self._unsynced_bytes = 0
        #: where each batch this instance appended starts: batch seqnos
        #: ascending, and the (segment, offset) of each one's first record
        self._index_seqnos: List[int] = []
        self._index_starts: List[Tuple[Path, int]] = []
        self.stats: Dict[str, int] = {
            "records": 0, "batches": 0, "aborts": 0, "syncs": 0, "rotations": 0,
        }

    # -- write path ------------------------------------------------------------
    def _open_segment(self, first_seqno: int) -> None:
        path = self.directory / f"{_SEGMENT_PREFIX}{first_seqno:012d}{_SEGMENT_SUFFIX}"
        self._fh = open(path, "ab")
        self._path = path
        self._synced_offset = self._fh.tell()
        self._unsynced_bytes = 0

    def append_batch(self, seqno: int, changes: Iterable[Change]) -> None:
        """Log one batch: its change records, then its commit record.

        Under ``every-record`` / ``every-batch`` policies the batch is
        durable when this returns; under ``size:N`` it is durable once
        enough bytes accumulate (call :meth:`sync` to force).
        """
        if self._fh is None:
            first = seqno if self.start_seqno is None else min(seqno, self.start_seqno)
            self._open_segment(first)
        elif self._fh.tell() >= self.segment_max_bytes:
            self._rotate(seqno)
        if self._index_seqnos and seqno <= self._index_seqnos[-1]:
            # positions went backwards: the index no longer sorts, and
            # read_from falls back to scanning
            self._index_seqnos.clear()
            self._index_starts.clear()
        self._index_seqnos.append(seqno)
        self._index_starts.append((self._path, self._fh.tell()))
        every_record = self.sync_policy.kind == "record"
        n = 0
        for c in changes:
            self._append(("C", seqno, (c.edge, c.vertex, bool(c.insert))))
            n += 1
            if every_record:
                self.sync()
        self._append(("B", seqno, n))
        self.stats["batches"] += 1
        if self.sync_policy.kind in ("record", "batch"):
            self.sync()
        elif self._unsynced_bytes >= self.sync_policy.threshold:
            self.sync()

    def append_abort(self, seqno: int, reason: str = "") -> None:
        """Retract batch ``seqno`` after the fact: it was logged but never
        committed in memory (quarantined, or the apply raised after
        logging).  The abort record makes every reader -- recovery,
        replication, shipments -- skip the batch while still consuming
        its position, so replaying the log reproduces the live session's
        state instead of resurrecting the batch the session refused.

        Must be called before the next ``append_batch`` (the record goes
        into the batch's own segment; rotation only happens at the start
        of the next batch, so it always does).
        """
        if self._fh is None:
            # an abort can only follow an append_batch for the same
            # seqno, which opened the segment -- but stay defensive for
            # direct use (e.g. retracting a batch from a reopened log)
            first = seqno if self.start_seqno is None else min(seqno, self.start_seqno)
            self._open_segment(first)
        self._append(("Q", seqno, str(reason)))
        self.stats["aborts"] += 1
        if self.sync_policy.kind in ("record", "batch"):
            self.sync()
        elif self._unsynced_bytes >= self.sync_policy.threshold:
            self.sync()

    def _append(self, record: tuple) -> None:
        data = encode_record(record)
        fire = self.crashpoints.fire
        fh = self._fh
        fire("wal.append.start")
        # two-part write so the torn site leaves a genuinely torn record
        mid = len(data) // 2
        fh.write(data[:mid])
        fh.flush()
        fire("wal.append.torn")
        fh.write(data[mid:])
        fh.flush()
        self._unsynced_bytes += len(data)
        self.stats["records"] += 1
        fire("wal.append.unsynced")

    def sync(self) -> None:
        """Force everything appended so far to durable storage."""
        if self._fh is None or self._unsynced_bytes == 0:
            return
        fire = self.crashpoints.fire
        fire("wal.sync.before")
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._synced_offset = self._fh.tell()
        self._unsynced_bytes = 0
        self.stats["syncs"] += 1
        fire("wal.sync.after")

    def _rotate(self, next_seqno: int) -> None:
        self.crashpoints.fire("wal.rotate.before")
        self.sync()
        self._fh.close()
        self._open_segment(next_seqno)
        self.stats["rotations"] += 1
        self.crashpoints.fire("wal.rotate.after")

    def close(self) -> None:
        if self._fh is not None:
            self.sync()
            self._fh.close()
            self._fh = None
            self._path = None

    # -- reading back ----------------------------------------------------------
    def read_from(self, seqno: int):
        """Stream committed batches at or after position ``seqno`` --
        see :func:`read_wal_from`.  Unsynced appends are visible (the
        writer flushes every record), so a replication primary can ship
        straight from its own live log.

        A position this instance logged is looked up in its index, so the
        read parses only the suffix it returns, however old the active
        segment is.  A position below the first batch this instance
        appended (segments an earlier session wrote) is scanned for."""
        seqnos = self._index_seqnos
        if not seqnos or seqno < seqnos[0]:
            return read_wal_from(self.directory, seqno)
        i = bisect_left(seqnos, seqno)
        if i == len(seqnos):
            return iter(())  # nothing logged at or after seqno
        return read_wal_from(self.directory, seqno, start=self._index_starts[i])

    def horizon(self) -> int:
        """Oldest position still replayable from this log: everything
        below it has been pruned away.  Falls back to the session's
        start position while no segment exists yet."""
        h = wal_horizon(self.directory)
        if h is not None:
            return h
        return self.start_seqno if self.start_seqno is not None else 0

    # -- maintenance -----------------------------------------------------------
    def segments(self) -> List[Path]:
        return list_segments(self.directory)

    def prune(self, upto_seqno: int) -> "PruneResult":
        """Delete whole segments made redundant by a checkpoint at
        ``upto_seqno`` (every batch they hold is ``< upto_seqno``).
        Rotation is batch-aligned, so a segment is redundant exactly when
        the *next* segment starts at or before ``upto_seqno``.  The open
        segment is never deleted.

        Returns a :class:`PruneResult` carrying the removed paths and the
        new *horizon* -- the oldest position still replayable.  The
        index entries of removed segments go with them.  A
        replication primary checks every standby's cursor against this
        horizon: a replica whose cursor fell below it has been lapped and
        must resync from a checkpoint instead of the log.
        """
        segs = self.segments()
        removed: List[Path] = []
        for seg, nxt in zip(segs, segs[1:]):
            if _segment_seqno(nxt) <= upto_seqno and seg != self._path:
                seg.unlink()
                removed.append(seg)
            else:
                break
        if removed:
            gone = {seg.name for seg in removed}
            keep = [i for i, (seg, _) in enumerate(self._index_starts)
                    if seg.name not in gone]
            self._index_seqnos = [self._index_seqnos[i] for i in keep]
            self._index_starts = [self._index_starts[i] for i in keep]
        return PruneResult(removed=removed, horizon=self.horizon())

    def simulate_power_loss(self) -> int:
        """Model losing the OS page cache: truncate the active segment to
        the last fsynced offset and drop the handle.  Returns the number
        of bytes lost.  (``kill -9`` alone does *not* lose flushed
        writes; a power failure does -- the crash-matrix suite uses this
        to test the harsher model.)"""
        if self._fh is None:
            return 0
        path, synced = self._path, self._synced_offset
        # the lost tail may hold indexed batches: scan from here on
        self._index_seqnos.clear()
        self._index_starts.clear()
        try:
            self._fh.close()
        finally:
            self._fh = None
            self._path = None
        size = path.stat().st_size
        if size > synced:
            os.truncate(path, synced)
        return max(0, size - synced)

    def __repr__(self) -> str:
        return (
            f"WriteAheadLog({str(self.directory)!r}, {self.sync_policy.kind}, "
            f"records={self.stats['records']}, batches={self.stats['batches']})"
        )


# ---------------------------------------------------------------------------
# reading
# ---------------------------------------------------------------------------
@dataclass
class PruneResult:
    """What :meth:`WriteAheadLog.prune` removed and where the log now starts.

    Truthiness and iteration delegate to ``removed`` so existing callers
    that treated prune's result as "the list of deleted segments" keep
    working unchanged.
    """

    removed: List[Path]
    #: oldest WAL position still replayable after the prune
    horizon: int

    def __bool__(self) -> bool:
        return bool(self.removed)

    def __iter__(self):
        return iter(self.removed)

    def __len__(self) -> int:
        return len(self.removed)


@dataclass
class ScanResult:
    """Everything a recovery needs to know about a WAL directory."""

    #: committed batches in log order: ``[(seqno, [Change, ...]), ...]``
    committed: List[Tuple[int, List[Change]]] = field(default_factory=list)
    #: batches retracted by an abort record: ``[(seqno, reason), ...]``;
    #: they consume their positions but are never replayed
    aborted: List[Tuple[int, str]] = field(default_factory=list)
    #: change groups whose commit record never landed (torn batches)
    uncommitted: Dict[int, List[Change]] = field(default_factory=dict)
    #: ``(segment, offset, reason)`` of the first damaged record, if any
    damage: Optional[Tuple[Path, int, str]] = None
    #: ``(segment, offset)`` just past the last committed batch's records
    commit_end: Optional[Tuple[Path, int]] = None
    records: int = 0
    segments: List[Path] = field(default_factory=list)

    @property
    def torn(self) -> bool:
        return self.damage is not None or bool(self.uncommitted)


def scan_wal(directory) -> ScanResult:
    """Read every segment, stopping at the first damaged record.

    Damage (torn header, short payload, checksum mismatch, undecodable
    or implausible record) ends the scan: with a single sequential
    writer, anything beyond a damaged record is the crash's debris, so
    the valid prefix is exactly what recovery may trust.  The scan never
    raises for damage -- it reports it.
    """
    result = ScanResult(segments=list_segments(directory))
    for seg in result.segments:
        data = seg.read_bytes()
        offset = 0
        size = len(data)
        while offset < size:
            parsed, end, damage = _parse_record(data, offset)
            if damage is not None:
                result.damage = (seg, offset, damage)
                break
            kind, seqno, obj = parsed
            result.records += 1
            if kind == "C":
                result.uncommitted.setdefault(seqno, []).append(obj)
            elif kind == "B":
                group = result.uncommitted.pop(seqno, [])
                if len(group) != obj:
                    # a commit whose group is incomplete: logical damage,
                    # the commit itself cannot be trusted
                    result.damage = (seg, end, "batch commit count mismatch")
                    break
                result.committed.append((seqno, group))
                result.commit_end = (seg, end)
            else:  # "Q": retract the committed batch it names
                result.uncommitted.pop(seqno, None)
                for i in range(len(result.committed) - 1, -1, -1):
                    if result.committed[i][0] == seqno:
                        del result.committed[i]
                        break
                result.aborted.append((seqno, obj))
                # torn-tail repair truncates back to commit_end; the
                # abort record must survive that truncation or the
                # retracted batch would resurrect on the next recovery
                result.commit_end = (seg, end)
            offset = end
        if result.damage is not None:
            break
    return result


def wal_horizon(directory) -> Optional[int]:
    """Oldest position replayable from the WAL in ``directory``: the
    first segment's name.  ``None`` when no segment exists."""
    segs = list_segments(directory)
    return _segment_seqno(segs[0]) if segs else None


def read_wal_from(directory, seqno: int, *, start=None):
    """Stream committed batches at or after position ``seqno``, in log
    order, as ``(seqno, [Change, ...])`` pairs.

    This is the incremental companion to :func:`scan_wal` (same record
    parsing, same stop-at-first-damage rule) for callers that already
    know their position -- replication ships from a cursor without
    re-parsing the whole directory.  Whole segments below the cursor are
    skipped by filename alone; a damaged or uncommitted tail simply ends
    the stream (it is the writer's live edge or crash debris, not an
    error).  ``start`` -- ``(segment, offset)`` of the first record of
    the first batch at or after ``seqno``, as
    :meth:`WriteAheadLog.read_from` indexes it -- skips the parse of
    everything before it.

    Raises :class:`DurabilityError` when ``seqno`` predates the log's
    horizon: the suffix the caller wants was pruned away (a replica this
    far behind has been *lapped* and must bootstrap from a checkpoint).
    """
    segments = list_segments(directory)
    if segments:
        floor = _segment_seqno(segments[0])
        if seqno < floor:
            raise DurabilityError(
                f"WAL position {seqno} predates the prune horizon {floor}; "
                "the requested suffix is gone -- resync from a checkpoint",
                Path(directory),
            )
    names = [seg.name for seg in segments]
    if start is not None and start[0].name in names:
        first, offset = names.index(start[0].name), start[1]
    else:
        # every batch of a segment is < seqno iff the next segment
        # starts at or below it (rotation is batch-aligned)
        first, offset = 0, 0
        while first + 1 < len(segments) and _segment_seqno(segments[first + 1]) <= seqno:
            first += 1
    open_groups: Dict[int, List[Change]] = {}
    # one-batch lookahead: a committed batch is held back until the next
    # record proves no abort record retracts it (the abort, when present,
    # is appended right after the batch's commit record)
    pending: Optional[Tuple[int, List[Change]]] = None
    for seg in segments[first:]:
        with open(seg, "rb") as fh:
            fh.seek(offset)
            data = fh.read()
        offset = 0
        pos, size = 0, len(data)
        while pos < size:
            parsed, end, damage = _parse_record(data, pos)
            if damage is not None:
                if pending is not None:
                    yield pending
                return
            kind, s, obj = parsed
            if kind == "C":
                if s >= seqno:
                    open_groups.setdefault(s, []).append(obj)
            elif kind == "B":
                group = open_groups.pop(s, [])
                if s >= seqno:
                    if len(group) != obj:
                        if pending is not None:
                            yield pending
                        return
                    if pending is not None:
                        yield pending
                    pending = (s, group)
            else:  # "Q": retract the batch it names
                open_groups.pop(s, None)
                if pending is not None and pending[0] == s:
                    pending = None
            pos = end
    if pending is not None:
        yield pending
