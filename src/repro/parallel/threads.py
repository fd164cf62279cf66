"""Real-thread backend (``concurrent.futures.ThreadPoolExecutor``).

Two execution forms run on the pool:

``parallel_for``
    Per-item task bodies, submitted in contiguous chunks.  Under CPython's
    GIL pure-Python bodies do not speed up; the oracle tests use this form
    to demonstrate interleaving independence.

``parallel_map_ranges``
    Chunk kernels over ``[0, n)``.  The range is split by the same
    skew-resistant VGC chunker the simulator uses for cost modeling
    (:func:`~repro.parallel.scheduler.vgc_chunk_costs`, Liu & Dong's
    vertical granularity control), and the chunks are dispatched to the
    pool.  The engine's chunk kernels are NumPy passes that release the
    GIL for the bulk of their work (gathers, sorts, reductions), so on a
    multi-core host the chunks genuinely overlap — this is the seam that
    turns the repo's *modeled* speedup-vs-threads curves into measured
    ones (``bench_wallclock.py --threads``).  On a single-core host the
    same code runs correctly with only dispatch overhead added.

Accounting is **recorded** rather than dropped, so a thread-backend run
can be compared region-for-region against the simulator or the dict
engine.  Charges may arrive concurrently from pool threads, so they
accumulate into per-thread cells and fold at read time; ``reset_clock``
advances an epoch so charges from regions in flight across a reset land
in stale cells and are excluded from the new run's totals.

``region_seconds`` adds the wall-time attribution the simulator gets from
its machine model: every ``parallel_for`` / ``parallel_map_ranges``
region adds its measured duration under its region name, and
``region_chunks`` counts the chunks actually dispatched, so a measured
speedup can be attributed to (or blamed on) specific kernels via
:meth:`timing_breakdown`.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, List, Tuple, TypeVar

from repro.parallel.runtime import ParallelRuntime
from repro.parallel.scheduler import vgc_chunk_costs

__all__ = ["ThreadRuntime"]

T = TypeVar("T")
R = TypeVar("R")

#: a ``parallel_map_ranges`` region whose total chunk cost is below this
#: runs inline on the calling thread: its chunks are too small to pay
#: for dispatch to the pool.  Of the grains tried with ``bench_wallclock.py
#: --quick --threads 2 --gate BENCH_wallclock.json`` on a 2-vCPU host
#: (10k, 20k, 50k, 100k), the smallest whose every run passed
INLINE_GRAIN = 50_000


class _Cell:
    """Per-thread accounting accumulator, folded into totals at read time."""

    __slots__ = ("epoch", "work", "atomics", "serial")

    def __init__(self, epoch: int) -> None:
        self.epoch = epoch
        self.work = 0.0
        self.atomics = 0.0
        self.serial = 0.0


class ThreadRuntime(ParallelRuntime):
    """Execute parallel regions on a real thread pool."""

    def __init__(self, threads: int = 4) -> None:
        super().__init__()
        if threads < 1:
            raise ValueError("threads must be >= 1")
        self.threads = threads
        self.thread_counts = (threads,)
        self._pool = ThreadPoolExecutor(
            max_workers=threads, thread_name_prefix="repro-rt"
        )
        self._closed = False
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._cells: List[_Cell] = []
        self._epoch = 0
        #: parallel regions entered (parallel_for + parallel_ranges forms)
        self.regions = 0
        #: logical tasks across all regions
        self.tasks = 0
        #: per-region-name entry counts / task totals
        self.region_counts: Counter = Counter()
        self.region_tasks: Counter = Counter()
        #: measured wall seconds spent inside each region name
        self.region_seconds: Counter = Counter()
        #: chunks actually dispatched per region name (map_ranges form)
        self.region_chunks: Counter = Counter()

    # -- per-thread accounting cells ---------------------------------------------
    def _cell(self) -> _Cell:
        cell = getattr(self._tls, "cell", None)
        if cell is None or cell.epoch != self._epoch:
            cell = _Cell(self._epoch)
            with self._lock:
                # re-check under the lock: reset_clock may have advanced
                # the epoch between the read above and now
                cell.epoch = self._epoch
                self._cells.append(cell)
            self._tls.cell = cell
        return cell

    def _fold(self) -> Tuple[float, float, float]:
        with self._lock:
            epoch = self._epoch
            work = atomics = serial = 0.0
            for cell in self._cells:
                if cell.epoch == epoch:
                    work += cell.work
                    atomics += cell.atomics
                    serial += cell.serial
        return work, atomics, serial

    @property
    def work_units(self) -> float:
        """Charged work units this run (folded across pool threads)."""
        return self._fold()[0]

    @property
    def atomic_ops(self) -> float:
        return self._fold()[1]

    @property
    def serial_units(self) -> float:
        return self._fold()[2]

    # -- worker nesting guard ----------------------------------------------------
    def _in_worker(self) -> bool:
        return getattr(self._tls, "depth", 0) > 0

    def _record_region(self, region: str, tasks: int) -> None:
        with self._lock:
            self.regions += 1
            self.tasks += tasks
            self.region_counts[region] += 1
            self.region_tasks[region] += tasks

    def _add_region_time(self, region: str, seconds: float, chunks: int) -> None:
        with self._lock:
            self.region_seconds[region] += seconds
            if chunks:
                self.region_chunks[region] += chunks

    # -- execution ---------------------------------------------------------------
    def parallel_for(
        self,
        items: Iterable[T],
        fn: Callable[[T], R],
        *,
        region: str = "loop",
        grain: int = 1,
    ) -> List[R]:
        item_list = list(items)
        n = len(item_list)
        self._record_region(region, n)
        if n == 0:
            return []
        t0 = time.perf_counter()
        try:
            if n <= grain or self.threads == 1 or self._in_worker():
                # nested regions run inline: dispatching from a worker with
                # a saturated pool would deadlock on its own futures
                return [fn(x) for x in item_list]
            chunk = max(grain, -(-n // (self.threads * 4)))

            def run_chunk(lo: int) -> List[R]:
                self._tls.depth = getattr(self._tls, "depth", 0) + 1
                try:
                    return [fn(x) for x in item_list[lo:lo + chunk]]
                finally:
                    self._tls.depth -= 1

            futures = [
                self._pool.submit(run_chunk, lo) for lo in range(0, n, chunk)
            ]
            out: List[R] = []
            for f in futures:
                out.extend(f.result())
            return out
        finally:
            self._add_region_time(region, time.perf_counter() - t0, 0)

    def parallel_ranges(
        self,
        n: int,
        chunk_cost: Callable[[int, int], float],
        *,
        region: str = "ranges",
        grain: int = 1,
    ) -> float:
        self._record_region(region, max(n, 0))
        return super().parallel_ranges(n, chunk_cost, region=region, grain=grain)

    def parallel_map_ranges(
        self,
        n: int,
        run_chunk: Callable[[int, int], None],
        chunk_cost: Callable[[int, int], float],
        *,
        region: str = "ranges",
        grain: int = 1,
    ) -> float:
        """Split ``[0, n)`` by VGC chunking and run the chunks on the pool
        (inline when the total cost is below :data:`INLINE_GRAIN`).

        The chunk bounds come from the caller's ``chunk_cost`` exactly as
        in the simulator, so skewed ranges (hub vertices) split instead of
        pinning the critical path.  Chunk kernels write disjoint output
        slices (the seam contract), so no synchronisation is needed beyond
        joining the futures; the caller-reported total is charged to the
        dispatching thread for accounting parity.
        """
        self._record_region(region, max(n, 0))
        if n <= 0:
            return 0.0
        t0 = time.perf_counter()
        nchunks = 1
        try:
            total = float(chunk_cost(0, n))
            self.charge(total)
            if (self.threads == 1 or n <= grain or total < INLINE_GRAIN
                    or self._in_worker()):
                run_chunk(0, n)
                return total
            bounds: List[Tuple[int, int]] = []
            lo = 0
            for size, _cost in vgc_chunk_costs(n, chunk_cost, self.threads, grain):
                # VGC emits zero-size virtual sub-chunks to model splitting
                # one pathological item; a real executor cannot split a
                # single item, so only materialise the non-empty pieces
                if size:
                    bounds.append((lo, lo + size))
                    lo += size
            nchunks = len(bounds)
            if nchunks <= 1:
                run_chunk(0, n)
                return total

            def run_bounds(b: Tuple[int, int]) -> None:
                self._tls.depth = getattr(self._tls, "depth", 0) + 1
                try:
                    run_chunk(*b)
                finally:
                    self._tls.depth -= 1

            futures = [self._pool.submit(run_bounds, b) for b in bounds]
            error = None
            for f in futures:
                # join every chunk before propagating, so no chunk is still
                # writing into caller arrays after we raise
                exc = f.exception()
                if exc is not None and error is None:
                    error = exc
            if error is not None:
                raise error
            return total
        finally:
            self._add_region_time(region, time.perf_counter() - t0, nchunks)

    # -- accounting (recorded, not timed) ----------------------------------------
    def charge(self, units: float) -> None:
        self._cell().work += units

    def charge_atomic(self, ops: float = 1.0) -> None:
        cell = self._cell()
        cell.atomics += ops
        cell.work += ops

    def serial(self, units: float) -> None:
        cell = self._cell()
        cell.serial += units
        cell.work += units

    def reset_clock(self) -> None:
        # a "run" is everything between clock resets, as in the simulator;
        # advancing the epoch makes late charges from regions that were in
        # flight across the reset land in stale cells, which fold ignores
        super().reset_clock()
        with self._lock:
            self._epoch += 1
            self._cells.clear()
            self.regions = 0
            self.tasks = 0
            self.region_counts.clear()
            self.region_tasks.clear()
            self.region_seconds.clear()
            self.region_chunks.clear()

    # -- reporting ---------------------------------------------------------------
    def timing_breakdown(self) -> str:
        """Measured wall seconds per region name, most expensive first."""
        with self._lock:
            rows = [
                (name, secs, self.region_counts.get(name, 0),
                 self.region_chunks.get(name, 0))
                for name, secs in self.region_seconds.items()
            ]
        rows.sort(key=lambda r: -r[1])
        lines = [f"{'region':>24} {'count':>6} {'chunks':>7} {'seconds':>9}"]
        for name, secs, count, chunks in rows:
            lines.append(f"{name:>24} {count:>6} {chunks:>7} {secs:>9.4f}")
        return "\n".join(lines)

    # -- lifecycle ---------------------------------------------------------------
    def close(self) -> None:
        """Release the pool (idempotent)."""
        if not self._closed:
            self._closed = True
            self._pool.shutdown(wait=True)

    def __enter__(self) -> "ThreadRuntime":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"ThreadRuntime(threads={self.threads})"
