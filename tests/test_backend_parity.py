"""The ExecutionBackend seam and its metering guarantees.

Four families of checks:

* **Seam integrity** -- ``MaintainerBase`` carries no engine-specific
  state of its own: no ``TauArray`` / ``EdgeMinShadow`` / frontier-kernel
  references in its source, engine switching swaps the backend object,
  and the hybrid maintainer's children share the parent's backend.
* **Metered parallelism** -- an array-engine maintenance run under the
  :class:`SimulatedRuntime` reports real region parallelism
  (``speedup(t) > 1`` for ``t > 1``), i.e. the vectorised kernels no
  longer book their work as one serial lump.
* **Accounting parity** -- dict and array backends report total
  ``work_units`` within a fixed tolerance band on identical streams
  (exact equality is impossible: Jacobi vs Gauss-Seidel sweeps iterate
  differently and the dict path re-scans pins per vertex update), and
  :class:`ThreadRuntime` now records region/task/charge counters so its
  runs can be compared region-for-region.
* **Runtime seams** -- ``parallel_ranges`` semantics on every backend
  and the ``RunMetrics.speedup`` empty-run guard.
"""

from __future__ import annotations

import inspect
from pathlib import Path

import pytest

import repro
import repro.core.backend
import repro.core.base
from repro.core.backend import (
    ArrayBackend,
    DictBackend,
    select_backend,
    wrap_substrate,
)
from repro.core.maintainer import make_maintainer
from repro.core.verify import verify_kappa
from repro.engine import ArrayGraph, ArrayHypergraph
from repro.graph.batch import Batch, BatchProtocol
from repro.graph.generators import affiliation_hypergraph, powerlaw_social
from repro.graph.substrate import graph_edge_changes
from repro.parallel.metrics import RunMetrics
from repro.parallel.simulated import SimulatedRuntime
from repro.parallel.threads import ThreadRuntime

THREADS = (1, 2, 4, 8)

#: array/dict total-work ratio band (see benchmarks/bench_scaling_sim.py)
WORK_RATIO_BOUNDS = (0.2, 2.5)


def _stream(base, n_units: int, seed: int = 7):
    """Identical remove/reinsert rounds for every engine (pre-generated
    against a scratch copy, as in bench_wallclock)."""
    scratch = base.copy()
    proto = BatchProtocol(scratch, seed=seed)
    rounds = []
    for _ in range(3):
        deletion, insertion = proto.remove_reinsert(n_units)
        for b in (deletion, insertion):
            for c in b:
                scratch.apply(c)
        rounds.append((deletion, insertion))
    return rounds


class TestSeamIntegrity:
    def test_base_has_no_engine_references(self):
        """Acceptance criterion: all engine-specific state lives behind
        the ExecutionBackend protocol."""
        src = inspect.getsource(repro.core.base)
        for name in ("TauArray", "EdgeMinShadow", "hhc_frontier",
                     "_tau_array", "_edge_shadow", "repro.engine"):
            assert name not in src, (
                f"core/base.py references engine internals directly: {name}"
            )

    def test_mod_has_no_engine_references(self):
        import repro.core.mod

        src = inspect.getsource(repro.core.mod)
        for name in ("TauArray", "_tau_array", "_edge_shadow", "numpy"):
            assert name not in src

    def test_one_level_index(self):
        """The label-keyed level index is ``DictBackend``'s own; the array
        engine keeps none, and no label-keyed min-cache adapter remains."""
        root = Path(repro.__file__).parent
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            text = path.read_text()
            if rel != "core/backend.py":
                assert "_level_index" not in text, rel
            for name in ("ids_at_level", "ArrayMinCache"):
                assert name not in text, (rel, name)
        module = inspect.getsource(repro.core.backend)
        assert (module.count("_level_index")
                == inspect.getsource(DictBackend).count("_level_index"))

    @pytest.mark.parametrize("engine", ["dict", "array"])
    def test_level_queries_hand_out_copies(self, engine):
        """Mutating what ``levels()`` / ``vertices_at_level()`` return
        cannot change the engine's later answers."""
        sub = wrap_substrate(powerlaw_social(60, 4, seed=5), engine)
        m = make_maintainer(sub, "mod", engine=engine)
        levels = m.levels()
        before = {k: set(m.vertices_at_level(k)) for k in levels}
        for k in levels:
            with pytest.raises(AttributeError):
                m.vertices_at_level(k).clear()
        levels.clear()
        assert m.levels() == sorted(before)
        assert {k: set(m.vertices_at_level(k)) for k in m.levels()} == before

    def test_select_backend(self):
        g = powerlaw_social(30, 3, seed=1)
        ag = ArrayGraph.from_graph(g)
        assert isinstance(select_backend(g), DictBackend)
        assert isinstance(select_backend(ag), ArrayBackend)
        assert isinstance(select_backend(ag, "dict"), DictBackend)
        with pytest.raises(ValueError, match="array-backed"):
            select_backend(g, "array")
        with pytest.raises(ValueError, match="unknown engine"):
            select_backend(g, "simd")

    def test_wrap_substrate(self):
        g = powerlaw_social(30, 3, seed=1)
        h = affiliation_hypergraph(30, 20, 4.0, seed=1)
        assert wrap_substrate(g, "dict") is g
        assert wrap_substrate(g, "auto") is g
        ag = wrap_substrate(g, "array")
        assert isinstance(ag, ArrayGraph)
        assert wrap_substrate(ag, "array") is ag
        assert isinstance(wrap_substrate(h, "array"), ArrayHypergraph)

    def test_engine_switch_swaps_backend(self):
        ag = ArrayGraph.from_graph(powerlaw_social(40, 4, seed=2))
        m = make_maintainer(ag, "mod")
        assert m.engine == "array"
        assert isinstance(m.backend, ArrayBackend)
        m._set_engine("dict")
        assert m.engine == "dict"
        assert isinstance(m.backend, DictBackend)
        # and the maintainer still works end to end on the new backend
        m.apply_batch(Batch(graph_edge_changes(900, 0, True)))
        assert verify_kappa(m) == []
        m._set_engine("array")
        assert isinstance(m.backend, ArrayBackend)
        m.apply_batch(Batch(graph_edge_changes(900, 1, True)))
        assert verify_kappa(m) == []

    def test_hybrid_children_share_backend(self):
        ag = ArrayGraph.from_graph(powerlaw_social(40, 4, seed=3))
        m = make_maintainer(ag, "hybrid")
        assert m._mod.backend is m.backend
        assert m._setmb.backend is m.backend
        m._set_engine("dict")
        assert m._mod.backend is m.backend
        assert isinstance(m._mod.backend, DictBackend)

    @pytest.mark.parametrize("algo", ["mod", "set", "setmb", "hybrid"])
    def test_oracle_clean_on_both_backends(self, algo):
        base = powerlaw_social(60, 4, seed=4)
        rounds = _stream(base, 25)
        for engine in ("dict", "array"):
            m = make_maintainer(wrap_substrate(base.copy(), engine),
                                algo, engine=engine)
            for deletion, insertion in rounds:
                m.apply_batch(deletion)
                m.apply_batch(insertion)
            assert verify_kappa(m) == [], f"{algo}/{engine} diverged"


class TestSimulatedParallelism:
    def _speedups(self, base, engine):
        sub = wrap_substrate(base.copy(), engine)
        rt = SimulatedRuntime(thread_counts=THREADS)
        m = make_maintainer(sub, "mod", rt, engine=engine)
        total = RunMetrics(THREADS)
        for deletion, insertion in _stream(base, 60):
            rt.reset_clock()
            m.apply_batch(deletion)
            m.apply_batch(insertion)
            total = total.merged_with(rt.take_metrics())
        assert verify_kappa(m) == []
        return total

    @pytest.mark.parametrize("kind", ["graph", "hyper"])
    def test_array_engine_reports_parallelism(self, kind):
        """Regression: the vectorised kernels used to charge one serial
        lump, flattening every simulated scaling curve to 1.0x."""
        if kind == "graph":
            base = powerlaw_social(600, 6, seed=5)
        else:
            base = affiliation_hypergraph(400, 280, 5.0, seed=5)
        total = self._speedups(base, "array")
        for t in (2, 4, 8):
            assert total.speedup(t) > 1.0, (
                f"array engine shows no simulated parallelism at t={t} "
                f"({kind}): {total.speedup(t):.3f}"
            )

    @pytest.mark.parametrize("kind", ["graph", "hyper"])
    def test_work_units_parity_dict_vs_array(self, kind):
        """Property: both backends account the same stream within the
        documented tolerance band."""
        if kind == "graph":
            base = powerlaw_social(500, 5, seed=6)
        else:
            base = affiliation_hypergraph(350, 250, 5.0, seed=6)
        dict_total = self._speedups(base, "dict")
        array_total = self._speedups(base, "array")
        assert dict_total.work_units > 0 and array_total.work_units > 0
        ratio = array_total.work_units / dict_total.work_units
        lo, hi = WORK_RATIO_BOUNDS
        assert lo <= ratio <= hi, (
            f"array/dict work ratio {ratio:.3f} outside [{lo}, {hi}] ({kind})"
        )


class TestParallelRanges:
    def test_simulated_chunks_and_schedules(self):
        rt = SimulatedRuntime(thread_counts=(1, 4), keep_regions=True)
        prefix = list(range(0, 4001, 4))  # 1000 items of cost 4 each

        total = rt.parallel_ranges(
            1000, lambda lo, hi: float(prefix[hi] - prefix[lo]),
            region="kernel",
        )
        reg = rt.region_log[-1]
        assert reg.name == "kernel"
        assert reg.tasks == 1000
        assert reg.chunks > 1
        assert total == reg.work_units
        # caller-reported cost is in there on top of the overheads
        assert reg.work_units >= 4000
        assert reg.makespan_units[4] < reg.makespan_units[1]

    def test_simulated_zero_and_nested(self):
        rt = SimulatedRuntime(thread_counts=(1, 2))
        assert rt.parallel_ranges(0, lambda lo, hi: 1.0) == 0.0

        def task(_):
            # nested inside a parallel_for task: collapses into the task
            rt.parallel_ranges(10, lambda lo, hi: float(hi - lo))

        rt.parallel_for([1], task, region="outer")
        m = rt.metrics()
        assert m.regions == 1  # no second region was opened
        assert m.work_units > 10  # but the nested cost was charged

    def test_base_runtime_charges_lump(self):
        from repro.parallel.runtime import SerialRuntime

        rt = SerialRuntime()
        assert rt.parallel_ranges(8, lambda lo, hi: 2.0 * (hi - lo)) == 16.0

    def test_thread_runtime_counters(self):
        with ThreadRuntime(threads=2) as rt:
            rt.parallel_for(range(10), lambda x: x, region="loop_a")
            rt.parallel_ranges(64, lambda lo, hi: float(hi - lo),
                               region="kernel_b")
            rt.charge(5.0)
            rt.serial(3.0)
            assert rt.regions == 2
            assert rt.tasks == 74
            assert rt.region_counts["loop_a"] == 1
            assert rt.region_tasks["kernel_b"] == 64
            # charges recorded: 64 (ranges lump) + 5 + 3
            assert rt.work_units == 72.0
            assert rt.serial_units == 3.0
            rt.reset_clock()
            assert rt.regions == 0 and rt.work_units == 0.0
            assert not rt.region_counts


class TestSpeedupGuard:
    def test_empty_run_speedup_is_one(self):
        m = RunMetrics((1, 2, 4))
        assert m.speedup(2) == 1.0
        assert m.speedup(4) == 1.0

    def test_nonempty_run_unchanged(self):
        m = RunMetrics((1, 2))
        m.elapsed_ns[1] = 100.0
        m.elapsed_ns[2] = 50.0
        assert m.speedup(2) == 2.0
