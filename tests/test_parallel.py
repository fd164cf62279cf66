"""Tests for the parallel runtime substitution: scheduler, machine model,
simulated metrics and the thread backend."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel.machine import (
    COMPUTE_BOUND,
    MEMORY_BOUND,
    DEFAULT_MACHINE,
    MachineSpec,
    WorkloadProfile,
)
from repro.parallel.runtime import SerialRuntime, map_ranges
from repro.parallel.scheduler import chunk_sizes, list_schedule_makespan, schedule_all
from repro.parallel.simulated import DEFAULT_THREAD_COUNTS, SimulatedRuntime
from repro.parallel.threads import INLINE_GRAIN, ThreadRuntime


class TestScheduler:
    def test_chunk_sizes_cover_all(self):
        for n in (0, 1, 7, 100, 1001):
            assert sum(chunk_sizes(n, 32)) == n

    def test_chunk_grain_respected(self):
        sizes = chunk_sizes(100, 32, grain=16)
        assert all(s >= 16 or s == 100 % 16 for s in sizes)

    def test_makespan_serial_is_sum(self):
        assert list_schedule_makespan([3, 1, 2], 1) == 6

    def test_makespan_unlimited_is_max(self):
        assert list_schedule_makespan([3, 1, 2], 10) == 3

    def test_makespan_two_threads(self):
        # greedy: t0 gets 3, t1 gets 1 then 2 -> both finish at 3
        assert list_schedule_makespan([3, 1, 2], 2) == 3

    def test_makespan_empty(self):
        assert list_schedule_makespan([], 4) == 0.0

    def test_schedule_all(self):
        out = schedule_all([4, 4, 4, 4], [1, 2, 4])
        assert out == {1: 16, 2: 8, 4: 4}

    @given(st.lists(st.floats(min_value=0.1, max_value=50), min_size=1, max_size=40),
           st.integers(1, 16))
    @settings(max_examples=60, deadline=None)
    def test_makespan_bounds(self, costs, t):
        ms = list_schedule_makespan(costs, t)
        work, span = sum(costs), max(costs)
        # classic Graham bounds
        assert ms >= max(span, work / t) - 1e-9
        assert ms <= work / t + span + 1e-9

    @given(st.lists(st.floats(min_value=0.1, max_value=50), min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_makespan_monotone_in_threads(self, costs):
        spans = [list_schedule_makespan(costs, t) for t in (1, 2, 4, 8)]
        assert all(a >= b - 1e-9 for a, b in zip(spans, spans[1:]))


class TestMachineModel:
    def test_numa_free_within_socket(self):
        m = MachineSpec()
        assert m.numa_multiplier(1) == 1.0
        assert m.numa_multiplier(16) == 1.0
        assert m.numa_multiplier(32) > 1.0

    def test_memory_bound_profile_degrades(self):
        # the WebTrackers-style profile must actively worsen past its
        # bandwidth knee: time(16) > time(8) per unit of work
        t8 = MEMORY_BOUND.mem_multiplier(8) / 8
        t16 = MEMORY_BOUND.mem_multiplier(16) / 16
        t32 = MEMORY_BOUND.mem_multiplier(32) / 32
        assert t16 > t8 * 0.99  # flat-to-worse right after the knee
        assert t32 > t8  # clearly worse at full machine

    def test_compute_bound_keeps_improving(self):
        t8 = COMPUTE_BOUND.mem_multiplier(8) / 8
        t32 = COMPUTE_BOUND.mem_multiplier(32) / 32
        assert t32 < t8

    def test_region_overhead_grows_with_threads(self):
        m = MachineSpec()
        assert m.region_overhead_ns(1) == 0.0
        assert m.region_overhead_ns(32) > m.region_overhead_ns(2)

    def test_atomic_contention(self):
        m = MachineSpec()
        assert m.atomic_cost_ns(32, 10) > m.atomic_cost_ns(1, 10)

    def test_total_cores(self):
        assert DEFAULT_MACHINE.total_cores == 32


class TestSimulatedRuntime:
    def test_results_in_order(self):
        rt = SimulatedRuntime()
        out = rt.parallel_for(range(10), lambda x: x * x)
        assert out == [x * x for x in range(10)]

    def test_invalid_thread_counts(self):
        with pytest.raises(ValueError):
            SimulatedRuntime(thread_counts=(0, 2))

    def test_elapsed_requires_simulated_count(self):
        rt = SimulatedRuntime(thread_counts=(1, 4))
        rt.parallel_for(range(4), lambda x: rt.charge(10))
        with pytest.raises(KeyError):
            rt.elapsed_seconds(3)

    def test_more_threads_never_slower_without_penalties(self):
        machine = MachineSpec(numa_remote_penalty=0.0, region_fork_ns=0.0,
                              barrier_ns_per_thread=0.0)
        profile = WorkloadProfile(memory_bound_fraction=0.0)
        rt = SimulatedRuntime(machine, profile)
        rt.parallel_for(range(1000), lambda x: rt.charge(5))
        times = [rt.elapsed_seconds(t) for t in rt.thread_counts]
        assert all(a >= b - 1e-15 for a, b in zip(times, times[1:]))

    def test_serial_section_costs_all_threads_equally(self):
        rt = SimulatedRuntime()
        rt.serial(1000)
        assert rt.elapsed_seconds(1) == rt.elapsed_seconds(32)
        assert rt.elapsed_seconds(1) > 0

    def test_determinism(self):
        def run():
            rt = SimulatedRuntime()
            rt.parallel_for(range(100), lambda x: rt.charge(x % 7))
            return [rt.elapsed_seconds(t) for t in rt.thread_counts]

        assert run() == run()

    def test_work_conservation(self):
        rt = SimulatedRuntime()
        rt.parallel_for(range(50), lambda x: rt.charge(2))
        m = rt.metrics()
        mach = rt.machine
        expected = 50 * (2 + mach.task_overhead_units)
        # work = tasks + chunk overheads
        assert m.work_units >= expected
        assert m.tasks == 50

    def test_reset_clock(self):
        rt = SimulatedRuntime()
        rt.parallel_for(range(10), lambda x: rt.charge(1))
        rt.reset_clock()
        assert rt.elapsed_seconds(1) == 0.0

    def test_take_metrics_resets(self):
        rt = SimulatedRuntime()
        rt.parallel_for(range(10), lambda x: rt.charge(1))
        m1 = rt.take_metrics()
        assert m1.tasks == 10
        assert rt.metrics().tasks == 0

    def test_nested_parallel_for_flattens(self):
        rt = SimulatedRuntime()

        def outer(x):
            return sum(rt.parallel_for(range(3), lambda y: y))

        out = rt.parallel_for(range(4), outer)
        assert out == [3, 3, 3, 3]
        assert rt.metrics().tasks == 4  # inner loop collapsed

    def test_atomic_charges_tracked(self):
        rt = SimulatedRuntime()
        rt.parallel_for(range(10), lambda x: rt.charge_atomic(2))
        assert rt.metrics().atomic_ops == 20

    def test_speedup_and_merge(self):
        rt = SimulatedRuntime()
        rt.parallel_for(range(2000), lambda x: rt.charge(3))
        m = rt.take_metrics()
        assert m.speedup(8) > 3.0
        merged = m.merged_with(m)
        assert merged.elapsed_ns[1] == pytest.approx(2 * m.elapsed_ns[1])
        assert "T1=" in merged.summary()

    def test_merge_rejects_mismatched_sweeps(self):
        a = SimulatedRuntime(thread_counts=(1, 2)).take_metrics()
        b = SimulatedRuntime(thread_counts=(1, 4)).take_metrics()
        with pytest.raises(ValueError):
            a.merged_with(b)

    def test_region_parallelism_metric(self):
        from repro.parallel.metrics import RegionMetrics

        reg = RegionMetrics("r", work_units=100.0, makespan_units={4: 25.0})
        assert reg.parallelism(4) == 4.0

    def test_region_breakdown_profiling(self):
        rt = SimulatedRuntime(keep_regions=True)
        rt.parallel_for(range(50), lambda x: rt.charge(3), region="alpha")
        rt.parallel_for(range(10), lambda x: rt.charge(1), region="beta")
        rt.parallel_for(range(50), lambda x: rt.charge(3), region="alpha")
        report = rt.region_breakdown(8)
        assert "alpha" in report and "beta" in report
        # alpha aggregated over two invocations
        alpha_line = next(l for l in report.splitlines() if "alpha" in l)
        assert " 2 " in alpha_line
        rt.reset_clock()
        assert rt.region_log == []

    def test_region_breakdown_requires_opt_in(self):
        rt = SimulatedRuntime()
        rt.parallel_for(range(5), lambda x: None)
        with pytest.raises(RuntimeError):
            rt.region_breakdown(1)


class TestSerialAndThreadRuntimes:
    def test_serial_runtime_basics(self):
        rt = SerialRuntime()
        assert rt.parallel_for([1, 2, 3], lambda x: -x) == [-1, -2, -3]
        rt.charge(5)  # no-ops
        rt.charge_atomic()
        rt.serial(2)
        assert rt.elapsed_seconds() >= 0
        assert rt.metrics() is None

    def test_thread_runtime_results_in_order(self):
        with ThreadRuntime(threads=4) as rt:
            out = rt.parallel_for(range(100), lambda x: x + 1)
        assert out == list(range(1, 101))

    def test_thread_runtime_single_thread(self):
        with ThreadRuntime(threads=1) as rt:
            assert rt.parallel_for(range(5), lambda x: x) == list(range(5))

    def test_thread_runtime_validation(self):
        with pytest.raises(ValueError):
            ThreadRuntime(threads=0)

    def test_thread_counts_advertised(self):
        assert SimulatedRuntime().thread_counts == DEFAULT_THREAD_COUNTS
        assert ThreadRuntime(threads=3).thread_counts == (3,)


def _skewed_cost(weights):
    """Additive chunk_cost from per-item weights (prefix-sum difference)."""
    prefix = [0.0]
    for w in weights:
        prefix.append(prefix[-1] + w)
    return lambda lo, hi: prefix[hi] - prefix[lo]


class TestParallelMapRanges:
    """The execution twin of parallel_ranges: run_chunk(lo, hi) computes a
    chunk, the runtime decides the split.  These tests pin the seam
    contract every backend must honour."""

    def test_serial_runs_one_chunk(self):
        rt = SerialRuntime()
        calls = []
        total = rt.parallel_map_ranges(
            10, lambda lo, hi: calls.append((lo, hi)), lambda lo, hi: 2.0 * (hi - lo)
        )
        assert calls == [(0, 10)]
        assert total == 20.0

    def test_empty_range_skips_kernel(self):
        for rt in (SerialRuntime(), SimulatedRuntime(), ThreadRuntime(threads=2)):
            calls = []
            out = rt.parallel_map_ranges(
                0, lambda lo, hi: calls.append((lo, hi)), lambda lo, hi: hi - lo
            )
            assert out == 0.0 and calls == []
            if hasattr(rt, "close"):
                rt.close()

    def test_map_ranges_helper_without_runtime(self):
        calls = []
        out = map_ranges(None, 5, lambda lo, hi: calls.append((lo, hi)),
                         lambda lo, hi: 100.0)
        assert calls == [(0, 5)]
        assert out == 0.0  # no runtime, nothing accounted
        assert map_ranges(None, 0, lambda lo, hi: calls.append((lo, hi)),
                          lambda lo, hi: 1.0) == 0.0
        assert calls == [(0, 5)]

    def test_map_ranges_helper_delegates(self):
        rt = SerialRuntime()
        calls = []
        out = map_ranges(rt, 4, lambda lo, hi: calls.append((lo, hi)),
                         lambda lo, hi: float(hi - lo))
        assert calls == [(0, 4)] and out == 4.0

    def test_simulated_metering_identical_to_parallel_ranges(self):
        """A kernel migrated from the account-only form to the execution
        form must leave the simulator's work/time model byte-identical --
        the acceptance invariant for the frontier regions."""
        weights = [float(1 + (i * 7) % 23) for i in range(400)]

        a = SimulatedRuntime()
        a.parallel_ranges(400, _skewed_cost(weights), region="frontier_csr")
        b = SimulatedRuntime()
        b.parallel_map_ranges(400, lambda lo, hi: None, _skewed_cost(weights),
                              region="frontier_csr")
        ma, mb = a.metrics(), b.metrics()
        assert ma.work_units == mb.work_units
        assert ma.elapsed_ns == mb.elapsed_ns
        assert ma.tasks == mb.tasks

    def test_thread_chunks_partition_range(self):
        import threading

        n = 1000
        seen = []
        lock = threading.Lock()
        out = [0] * n

        def run_chunk(lo, hi):
            with lock:
                seen.append((lo, hi))
            for i in range(lo, hi):
                out[i] = i + 1

        # each unit costs a full inline grain, so the region dispatches
        unit = float(INLINE_GRAIN)
        with ThreadRuntime(threads=4) as rt:
            total = rt.parallel_map_ranges(
                n, run_chunk, lambda lo, hi: unit * (hi - lo), region="kern")
            assert rt.region_chunks["kern"] == len(seen)
        assert total == unit * n
        seen.sort()
        # exact disjoint cover of [0, n)
        assert seen[0][0] == 0 and seen[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(seen, seen[1:]))
        assert len(seen) > 1  # genuinely split
        assert out == list(range(1, n + 1))  # every slice actually computed

    def test_thread_region_below_the_grain_runs_inline(self):
        """A region whose total cost is below ``INLINE_GRAIN`` runs as one
        chunk on the calling thread; at the grain it is split."""
        import threading

        for cost, split in ((INLINE_GRAIN - 1, False), (INLINE_GRAIN, True)):
            seen, threads = [], set()

            def run_chunk(lo, hi):
                seen.append((lo, hi))
                threads.add(threading.get_ident())

            with ThreadRuntime(threads=4) as rt:
                rt.parallel_map_ranges(
                    1000, run_chunk, lambda lo, hi: cost * (hi - lo) / 1000,
                    region="small")
                assert rt.region_chunks["small"] == len(seen)
            assert (len(seen) > 1) == split
            if not split:
                assert seen == [(0, 1000)]
                assert threads == {threading.get_ident()}

    def test_thread_single_thread_runs_inline(self):
        seen = []
        with ThreadRuntime(threads=1) as rt:
            rt.parallel_map_ranges(64, lambda lo, hi: seen.append((lo, hi)),
                                   lambda lo, hi: float(hi - lo), region="k1")
            assert rt.region_chunks["k1"] == 1
        assert seen == [(0, 64)]

    def test_thread_charges_fold_across_pool_threads(self):
        """Worker-side charges land in per-thread cells and fold exactly --
        the accounting-race fix: no lost updates from bare ``+=``."""
        n = 512
        with ThreadRuntime(threads=4) as rt:
            rt.parallel_map_ranges(
                n,
                lambda lo, hi: rt.charge(float(hi - lo)),  # from pool threads
                lambda lo, hi: float(hi - lo),  # charged on the dispatcher
                region="acct")
            # dispatcher total + worker charges, no lost updates
            assert rt.work_units == 2.0 * n
            assert rt.region_tasks["acct"] == n
            assert rt.regions == 1 and rt.tasks == n

    def test_thread_reset_clock_epoch_isolates_runs(self):
        with ThreadRuntime(threads=2) as rt:
            rt.parallel_map_ranges(100, lambda lo, hi: rt.charge(hi - lo),
                                   lambda lo, hi: float(hi - lo))
            assert rt.work_units == 200.0
            rt.reset_clock()
            assert rt.work_units == 0.0
            assert rt.regions == 0 and not rt.region_seconds
            rt.serial(3.0)
            rt.charge_atomic(2.0)
            assert rt.work_units == 5.0
            assert rt.serial_units == 3.0 and rt.atomic_ops == 2.0

    def test_thread_nested_dispatch_runs_inline(self):
        """A kernel that (transitively) re-enters the runtime from a pool
        worker must run inline instead of deadlocking on a saturated pool."""
        inner_calls = []

        with ThreadRuntime(threads=2) as rt:

            # both regions cost more than the inline grain: only the
            # worker guard keeps the nested one inline
            unit = float(INLINE_GRAIN)

            def outer(lo, hi):
                rt.parallel_map_ranges(
                    8, lambda a, b: inner_calls.append((a, b)),
                    lambda a, b: unit * (b - a), region="inner")

            rt.parallel_map_ranges(64, outer, lambda lo, hi: unit * (hi - lo),
                                   region="outer", grain=1)
            assert rt.region_chunks["outer"] > 1
        # every nested invocation collapsed to one full-range chunk
        assert inner_calls and all(c == (0, 8) for c in inner_calls)

    def test_thread_chunk_error_propagates_after_join(self):
        import threading

        done = []
        lock = threading.Lock()

        def run_chunk(lo, hi):
            if lo == 0:
                raise ValueError("boom")
            with lock:
                done.append((lo, hi))

        with ThreadRuntime(threads=4) as rt:
            with pytest.raises(ValueError, match="boom"):
                rt.parallel_map_ranges(
                    1000, run_chunk,
                    lambda lo, hi: float(INLINE_GRAIN) * (hi - lo))
        # all surviving chunks were joined before the raise: no chunk can
        # still be writing into caller arrays after the error surfaces
        assert sum(hi - lo for lo, hi in done) < 1000

    def test_thread_region_seconds_and_breakdown(self):
        with ThreadRuntime(threads=2) as rt:
            rt.parallel_map_ranges(256, lambda lo, hi: None,
                                   lambda lo, hi: float(hi - lo), region="hot")
            rt.parallel_for(range(4), lambda x: x, region="warm")
            assert rt.region_seconds["hot"] >= 0.0
            assert rt.region_seconds["warm"] >= 0.0
            report = rt.timing_breakdown()
            assert "hot" in report and "warm" in report and "seconds" in report

    def test_thread_close_idempotent(self):
        rt = ThreadRuntime(threads=2)
        rt.close()
        rt.close()  # second close is a no-op
        with ThreadRuntime(threads=2) as rt2:
            assert rt2.parallel_for([1, 2], lambda x: x) == [1, 2]
        rt2.close()
