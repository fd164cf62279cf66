"""The three benchmark workloads and the run that measures one of them.

Every workload is a closed loop: one client thread drives the system
through the public facade (``CoreMaintainer``, ``.serve()``,
``CoreMaintainer.recover``, ``Checkpoint`` / ``restore_maintainer``,
``BatchProtocol``, the generators, ``peel``) and sends its next batch
only after the previous one committed, with a round of point reads
after each batch.  All inputs come from the workload seed and are
generated before any timed window; every round of the batch stream
restores what it removed, so the stream can be cycled and the graph
size stays constant.  Every workload emits every end-to-end metric.

See NOTES.md for why each workload exists and which layer metric
should move which end-to-end metric.
"""

from __future__ import annotations

import gc
import itertools
import random
import resource
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter
from typing import Dict, List, Optional

from repro import (ArrayGraph, ArrayHypergraph, BatchProtocol, Checkpoint, CoreMaintainer,
                   peel, restore_maintainer)
from repro.eval.datasets import load_dataset
from repro.graph.generators import powerlaw_social

import spans as tr

#: latency percentiles rest on at least this many samples per run; the
#: timed loop runs past ``--seconds`` until it has them
MIN_SAMPLES = 100
#: gaps between the timed loop's windows.  The extra builds and the
#: recoveries run in them, so the loop's samples, the builds and the
#: recoveries each sample the whole run rather than one moment of the
#: host's load, which can flip between a fast and a slow mode within
#: seconds
GAPS = 12
#: set-up builds per run.  The first drives the loop; the others run in
#: evenly spaced gaps
BUILDS = 4
#: recoveries per run, spread evenly over the gaps: fresh copies of the
#: crashed directory (served_trickle) or restarts from the saved
#: checkpoint (bulk workloads)
RECOVERIES = 8
#: untimed warm-up rounds before the timed loop (bulk workloads)
WARMUP_ROUNDS = 2
#: distinct pre-generated rounds; the stream cycles through them
DISTINCT_ROUNDS = 12
#: committed batches past the newest checkpoint in the crash image: the
#: served warm-up is exactly this many batches (a multiple of 3, the
#: batches per round), so every recovery replays the same tail
CRASH_TAIL = 24
CHECKPOINT_EVERY = 64
READS_PER_ROUND = 64
#: generator seed of the fixed dataset analogues
DATASET_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                  # "graph" or "hypergraph"
    size: float                # vertices (graph) or dataset scale (hypergraph)
    m_max: int                 # powerlaw_social attachment cap (graphs)
    batch_size: int            # BatchProtocol.mixed units per round
    served: bool = False
    #: nominal rounds per second: the traced run's two halves are fixed
    #: round counts sized from it (fixed counts make its counters repeat
    #: exactly), so that together they take about ``--seconds``
    trace_rounds_per_s: float = 1.0
    kcore_k: int = 6
    #: recoveries per run; more where one is short
    recoveries: int = RECOVERIES

    def config(self) -> Dict:
        """The fixed configuration, stated in the output."""
        cfg = {"kind": self.kind, "size": self.size, "batch_size": self.batch_size,
               "algorithm": "mod", "runtime": "serial", "transactional": True,
               "validated": True, "reads_per_round": READS_PER_ROUND,
               "recoveries": self.recoveries}
        if self.kind == "graph":
            cfg["generator"] = f"powerlaw_social(n, {self.m_max})"
        else:
            cfg["generator"] = 'load_dataset("OrkutGroup", scale)'
        if self.served:
            cfg.update(resilient=True, sync_policy="batch",
                       checkpoint_every=CHECKPOINT_EVERY, replicas=1,
                       transport="default virtual", server="defaults",
                       kcore_k=self.kcore_k, crash_tail=CRASH_TAIL,
                       recover="CoreMaintainer.recover(engine='array')")
        else:
            cfg["recover"] = "restore_maintainer(Checkpoint.load(), engine='array')"
        return cfg


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("graph_bulk", "graph", 25_000, 16, 1000, trace_rounds_per_s=2.5),
        Workload("hyper_bulk", "hypergraph", 1.0, 0, 200, trace_rounds_per_s=3.4,
                 recoveries=16),
        Workload("served_trickle", "graph", 10_000, 12, 16, served=True,
                 trace_rounds_per_s=2.9),
    )
}

#: the smoke-test sizes (``--tiny``): same code paths, seconds not minutes
TINY: Dict[str, Workload] = {
    "graph_bulk": Workload("graph_bulk", "graph", 400, 6, 20, trace_rounds_per_s=4),
    "hyper_bulk": Workload("hyper_bulk", "hypergraph", 0.05, 0, 10, trace_rounds_per_s=4),
    # 44 rounds/s: at --seconds 1 each traced half crosses a checkpoint
    "served_trickle": Workload("served_trickle", "graph", 300, 6, 8, served=True,
                               trace_rounds_per_s=44, kcore_k=3),
}

#: end-to-end metrics, every one emitted by every workload: name -> unit
E2E = {"setup_s": "s", "updates_per_s": "1/s", "batch_p50_ms": "ms",
       "batch_p90_ms": "ms", "read_p10_us": "us", "read_p90_us": "us",
       "recover_s": "s", "peak_rss_mb": "MB"}


class GateFailure(Exception):
    """A correctness check failed; the run prints no result."""


# -- seams of the traced run ---------------------------------------------------------
S = tr.Seam
SETUP_SEAMS = (
    S("core.decompose", "repro.core.maintainer", "make_maintainer"),
    S("resilience.open_checkpoint", "repro.resilience.durability.durable",
      "DurableMaintainer.checkpoint"),
    S("replication.bootstrap", "repro.replication.replica", "Replica.bootstrap", opaque=True),
)
ENGINE_SEAMS = (
    S("parallel", "repro.parallel.runtime", "ParallelRuntime.parallel_map_ranges",
      kind="region"),
    S("core.apply", "repro.core.base", "MaintainerBase.apply_batch"),
    S("resilience.validate", "repro.core.base", "validate_batch"),
    S("resilience.txn_begin", "repro.resilience.transaction", "Transaction.begin"),
    S("engine.classify_apply", "repro.core.backend", "ArrayBackend.maintain_h_columnar"),
    S("graph.columnarize", "repro.graph.columnar", "ColumnarBatch.from_batch"),
    S("engine.converge", "repro.core.backend", "ArrayBackend.sweep_and_converge"),
)
SERVED_SEAMS = ENGINE_SEAMS + (
    S("serve.submit", "repro.serve.server", "CoreServer.submit"),
    S("serve.pump", "repro.serve.server", "CoreServer.pump"),
    S("serve.kcore", "repro.serve.server", "CoreServer.vertices_with_core_at_least"),
    S("serve.publish", None, "views.maintainer.view_publisher"),
    S("replication.ship", "repro.replication.primary", "ReplicatedMaintainer.apply_batch"),
    S("replication.replica_apply", "repro.replication.replica", "Replica.receive",
      opaque=True),
    S("resilience.durable", "repro.resilience.durability.durable",
      "DurableMaintainer.apply_batch"),
    S("resilience.validate", "repro.resilience.durability.durable", "validate_batch"),
    S("resilience.checkpoint", "repro.resilience.durability.durable",
      "DurableMaintainer.checkpoint"),
    S("resilience.wal_append", "repro.resilience.durability.wal",
      "WriteAheadLog.append_batch"),
    S("resilience.wal_bytes", "repro.resilience.durability.wal", "encode_record",
      kind="bytes", inside="resilience.wal_append"),
    S("resilience.supervisor", "repro.resilience.supervisor",
      "ResilientMaintainer.apply_batch"),
)
RECOVERY_SEAMS = (
    S("resilience.recovery_load", "repro.resilience.checkpoint", "Checkpoint.load"),
    S("resilience.recovery_scan", "repro.resilience.durability.recovery", "scan_wal"),
    S("resilience.recovery_restore", "repro.resilience.durability.recovery",
      "restore_maintainer"),
    S("resilience.recovery_replay", "repro.core.base", "MaintainerBase.apply_batch",
      opaque=True),
    S("resilience.recovery_rebase", "repro.resilience.durability.durable",
      "DurableMaintainer.checkpoint"),
)
#: per-batch span name -> per-layer metric (self time, median per batch)
BATCH_METRICS = {
    "graph.columnarize": "graph.columnarize_ms",
    "resilience.validate": "resilience.validate_ms",
    "resilience.txn_begin": "resilience.txn_begin_ms",
    "engine.classify_apply": "engine.classify_apply_ms",
    "engine.converge": "engine.converge_ms",
    "core.apply": "core.apply_self_ms",
    "resilience.supervisor": "resilience.supervisor_self_ms",
    "resilience.durable": "resilience.durable_self_ms",
    "resilience.wal_append": "resilience.wal_append_ms",
    "resilience.checkpoint": "resilience.checkpoint_ms",
    "replication.ship": "replication.ship_self_ms",
    "replication.replica_apply": "replication.replica_apply_ms",
    "serve.submit": "serve.submit_us",
    "serve.pump": "serve.pump_self_ms",
    "serve.publish": "serve.publish_ms",
}
SETUP_METRICS = {
    "engine.build": "engine.build_s",
    "core.decompose": "core.decompose_s",
    "resilience.open_checkpoint": "resilience.open_checkpoint_s",
    "replication.bootstrap": "replication.bootstrap_s",
}
RECOVERY_METRICS = {s.name: s.name + "_s" for s in RECOVERY_SEAMS}
#: the execution-seam regions each substrate's kernels run through
PARALLEL_REGIONS = {
    "graph": ("frontier_csr", "maintain_h_columnar"),
    "hypergraph": ("frontier_incidence", "maintain_h_columnar"),
}
SERVED_COUNTS = ("resilience.wal_records", "resilience.wal_syncs", "resilience.wal_bytes",
                 "resilience.checkpoints", "replication.shipments",
                 "replication.hash_stamps", "resilience.recovery_batches_replayed",
                 "resilience.recovery_records_scanned")


#: the bulk workloads' recovery, a restart from the saved checkpoint,
#: is timed step by step under these span names
RESTART_SPANS = ("resilience.recovery_load", "resilience.recovery_restore")


def layer_metrics(w: Workload) -> List[str]:
    """The per-layer metrics on the path of ``w``: measured when their
    seam is found.  A traced run emits every metric of
    :data:`LAYER_METRICS`; the others read 0 on ``w``."""
    seams = SERVED_SEAMS if w.served else ENGINE_SEAMS
    names = [BATCH_METRICS[s.name] for s in seams if s.name in BATCH_METRICS]
    names += ["engine.build_s", "core.decompose_s", "engine.columnar_hit",
              "trace.layer_sum_ratio", "trace.overhead_ratio"]
    names += [f"parallel.{r}_{k}" for r in PARALLEL_REGIONS[w.kind] for k in ("s", "calls")]
    if w.served:
        names += ["resilience.open_checkpoint_s", "replication.bootstrap_s",
                  "serve.kcore_ms", *RECOVERY_METRICS.values(), *SERVED_COUNTS]
    else:
        names += [RECOVERY_METRICS[span] for span in RESTART_SPANS]
    return sorted(set(names))


def layer_unit(metric: str) -> str:
    tail = metric.rsplit("_", 1)[-1]
    if tail in ("s", "ms", "us"):
        return tail
    return "ratio" if tail in ("hit", "ratio") else "count"


#: every per-layer metric, emitted by every traced run: name -> unit
LAYER_METRICS: Dict[str, str] = {
    m: layer_unit(m)
    for m in sorted(set().union(*(layer_metrics(w) for w in WORKLOADS.values())))
}


# -- inputs --------------------------------------------------------------------------
@dataclass
class Inputs:
    sub: object                          # the DynamicGraph / DynamicHypergraph
    rounds: List[tuple]                  # (prep, mixed, restore) Batches
    reads: List[List[object]] = field(default_factory=list)


def make_inputs(w: Workload, seed: int) -> Inputs:
    """The dataset analogue, and the batch stream and read targets drawn
    from ``seed``.

    As in the paper's protocol, the dataset is fixed and the seed picks
    the units removed and reinserted: a different graph per seed would
    change the work per batch from run to run far more than the host does.
    """
    if w.kind == "graph":
        sub = powerlaw_social(int(w.size), w.m_max, seed=DATASET_SEED)
    else:
        sub = load_dataset("OrkutGroup", w.size, seed=DATASET_SEED)
    proto = BatchProtocol(sub, seed=seed)
    rounds = [proto.mixed(w.batch_size) for _ in range(DISTINCT_ROUNDS)]
    rng = random.Random(seed)
    vertices = sorted(sub.vertices())
    per_round = min(READS_PER_ROUND, len(vertices))       # --tiny hypergraphs are smaller
    reads = [rng.sample(vertices, per_round) for _ in range(DISTINCT_ROUNDS)]
    return Inputs(sub, rounds, reads)


# -- the system under test -----------------------------------------------------------
@dataclass
class System:
    cm: object
    server: object = None
    directory: Optional[Path] = None

    def close(self) -> None:
        self.cm.close()


def build(w: Workload, inputs: Inputs, directory: Path,
          tracer: Optional[tr.Tracer] = None) -> System:
    """From inputs in memory to a system ready for its first batch.

    With a tracer the set-up steps are timed one at a time: the
    substrate build and ``.serve()`` as explicit steps, the algorithm
    construction, baseline checkpoint and standby bootstrap through the
    set-up seams around ``CoreMaintainer(...)``.
    """
    to_array = ArrayGraph.from_graph if w.kind == "graph" else ArrayHypergraph.from_hypergraph
    kwargs = {}
    if w.served:
        kwargs.update(resilient=True, durable=directory, replicas=1,
                      durability={"sync_policy": "batch",
                                  "checkpoint_every": CHECKPOINT_EVERY})
    if tracer is None:
        cm = CoreMaintainer(to_array(inputs.sub), "mod", **kwargs)
        return System(cm, cm.serve() if w.served else None, directory)
    with tracer.root("setup"):
        sub = tracer.call("engine.build", False, to_array, (inputs.sub,), {})
        uninstall, _ = tr.install(tracer, SETUP_SEAMS)
        try:
            cm = CoreMaintainer(sub, "mod", **kwargs)
        finally:
            uninstall()
        server = tracer.call("serve.start", False, cm.serve, (), {}) if w.served else None
    return System(cm, server, directory)


# -- the closed loop -----------------------------------------------------------------
@dataclass
class LoopStats:
    latencies: List[float] = field(default_factory=list)     # per batch, s
    reads: List[float] = field(default_factory=list)         # per point read, s
    changes: int = 0
    elapsed: float = 0.0

    def e2e(self) -> Dict[str, tuple]:
        """End-to-end numbers of this loop: name -> (value, samples)."""
        lat, reads = self.latencies, self.reads
        return {
            "updates_per_s": (self.changes / self.elapsed, len(lat)),
            "batch_p50_ms": (median(lat) * 1e3, len(lat)),
            "batch_p90_ms": (quantiles(lat, n=10)[-1] * 1e3, len(lat)),
            # a read round lasts microseconds, so each falls wholly in one
            # host speed mode; p10 and p90 each stay in one mode, while
            # the median jumps between them (see NOTES.md)
            "read_p10_us": (quantiles(reads, n=10)[0] * 1e6, len(reads)),
            "read_p90_us": (quantiles(reads, n=10)[-1] * 1e6, len(reads)),
        }


@dataclass
class Ops:
    """Failure accounting: batches, reads and recoveries."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)

    def note(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(what)


class Client:
    """Feeds the cycled batch stream to one system and checks each step."""

    def __init__(self, w: Workload, inputs: Inputs, system: System, ops: Ops) -> None:
        self.w, self.system, self.ops = w, system, ops
        self.rounds = itertools.cycle(range(len(inputs.rounds)))
        self.inputs = inputs
        self.applied = 0              # batches committed by this system

    def _bulk(self, batch, targets, stats: LoopStats, tracer) -> None:
        cm = self.system.cm
        ok = True
        t0 = perf_counter()
        try:
            if tracer is None:
                cm.apply_batch(batch)
            else:
                with tracer.root("batch", self.applied):
                    cm.apply_batch(batch)
        except Exception as exc:  # counted, and the final peel check decides
            ok = False
            err = f"{type(exc).__name__}: {exc}"
        t1 = perf_counter()
        self._commit(ok, len(batch), t1 - t0, stats, None if ok else err)
        err = ""
        t2 = perf_counter()
        try:
            values = [cm.kappa_of(v) for v in targets]
        except Exception as exc:  # the live engine is never stale: only a raise fails
            values, err = [], f"read {type(exc).__name__}: {exc}"
        t3 = perf_counter()
        if values:
            stats.reads.append((t3 - t2) / len(targets))
        for _ in targets:
            self.ops.note(bool(values), err)

    def _served(self, batch, targets, stats: LoopStats, tracer) -> None:
        server = self.system.server
        t0 = perf_counter()
        if tracer is None:
            decision = server.submit(batch.changes)
            report = server.pump()
        else:
            with tracer.root("batch", self.applied):
                decision = server.submit(batch.changes)
                report = server.pump()
        t1 = perf_counter()
        ok = decision.accepted and report.failures == 0 and report.batches == 1
        self._commit(ok, report.changes, t1 - t0, stats,
                     None if ok else f"{decision.status} {report}")
        if server.view().boundary != server.committed_batches:
            raise GateFailure(
                f"published view at boundary {server.view().boundary} after batch "
                f"{server.committed_batches} committed"
            )
        t2 = perf_counter()
        results = [server.core(v) for v in targets]
        t3 = perf_counter()
        stats.reads.append((t3 - t2) / len(targets))
        results.append(server.vertices_with_core_at_least(self.w.kcore_k))
        for r in results:
            self.ops.note(r.status == "fresh", f"read status {r.status}")

    def _commit(self, ok: bool, changes: int, seconds: float, stats: LoopStats,
                err: Optional[str]) -> None:
        self.ops.note(ok, err or "")
        if ok:
            self.applied += 1
            stats.changes += changes
        stats.latencies.append(seconds)

    def run(self, *, seconds: Optional[float] = None, rounds: Optional[int] = None,
            tracer: Optional[tr.Tracer] = None, stats: Optional[LoopStats] = None,
            min_samples: int = 0) -> LoopStats:
        """Whole rounds until ``rounds`` are done, or until ``seconds``
        have passed and ``stats`` holds ``min_samples`` latency samples.
        Passing ``stats`` accumulates several windows into one loop."""
        stats = LoopStats() if stats is None else stats
        start = perf_counter()
        done = 0
        while True:
            i = next(self.rounds)
            for batch in self.inputs.rounds[i]:
                if self.w.served:
                    self._served(batch, self.inputs.reads[i], stats, tracer)
                else:
                    self._bulk(batch, self.inputs.reads[i], stats, tracer)
            done += 1
            if rounds is not None:
                if done >= rounds:
                    break
            elif perf_counter() - start >= seconds and len(stats.latencies) >= min_samples:
                break
        stats.elapsed += perf_counter() - start
        return stats


# -- correctness gate ------------------------------------------------------------------
def locate(root, name: str, want=None):
    """Find attribute ``name`` on ``root`` or down its ``.impl`` chain
    (the wrapper stack); ``want(value)`` filters candidates.  ``None``
    when no layer has it."""
    obj = root
    for _ in range(8):
        value = getattr(obj, name, None)
        if value is not None and (want is None or want(value)):
            return value
        obj = getattr(obj, "impl", None)
        if obj is None:
            return None
    return None


def columnar_batches(system: System) -> Optional[int]:
    backend = locate(system.cm, "backend")
    return getattr(backend, "columnar_batches", None)


def gate(w: Workload, system: System, client: Client, notes: List[str]) -> None:
    """Final kappa against the peeling oracle, the published view
    against live kappa, and the columnar hit rate on the bulk runs."""
    cm = system.cm
    kappa = cm.kappa()
    if kappa != peel(cm.sub):
        raise GateFailure("final kappa differs from peel()")
    notes.append("kappa==peel")
    if w.served:
        if system.server.view().kappa() != kappa:
            raise GateFailure("published view differs from live kappa")
        notes.append("view==kappa")
        return
    hits = columnar_batches(system)
    if hits is None:
        notes.append("columnar_hit seam absent")
    elif hits != client.applied:
        raise GateFailure(f"columnar_hit {hits}/{client.applied} != 1.0")
    else:
        notes.append("columnar_hit==1.0")


# -- measurement helpers -----------------------------------------------------------------
def host_probe(reps: int = 15) -> Dict[str, float]:
    """Min and median of a fixed pure-Python loop, in ms: tells a slow
    host apart from a slow program.  Not a gated metric."""
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        times.append(perf_counter() - t0)
    return {"min_ms": round(min(times) * 1e3, 3), "median_ms": round(median(times) * 1e3, 3)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def drop(system: System) -> None:
    system.close()
    gc.collect()


# -- one run -----------------------------------------------------------------------------
@dataclass
class Result:
    metrics: Dict[str, tuple]            # name -> (value, unit, samples)
    ops: Ops
    lines: List[str]                     # human-readable report lines


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool,
        workdir: Path) -> Result:
    w = (TINY if tiny else WORKLOADS)[workload]
    lines = [f"config {w.name} {w.config()}"]
    probe_before = host_probe()
    inputs = make_inputs(w, seed)
    gc.collect()
    gc.freeze()                          # collections never rescan the inputs
    ops = Ops()
    tracer = tr.Tracer() if trace else None
    dirs = iter(workdir / f"db-{i}" for i in itertools.count())

    t0 = perf_counter()
    system = build(w, inputs, next(dirs), tracer)
    setups = [perf_counter() - t0]
    client = Client(w, inputs, system, ops)
    notes: List[str] = []
    client.run(rounds=CRASH_TAIL // 3 if w.served else WARMUP_ROUNDS)
    images = crash_images(w, system, workdir, notes)
    recovers: List[float] = []
    if trace:
        half = max(2, round(w.trace_rounds_per_s * seconds / 2))
        untraced = client.run(rounds=half)
        traced, layer = traced_loop(w, system, client, tracer, half)
        recovers = [recover(w, image, pre, ops, tracer) for image, pre in images]
    else:
        # the extra builds and the recoveries run in the gaps between
        # the loop's windows, so all three sample the whole run
        loop = LoopStats()
        build_every = GAPS // (BUILDS - 1)
        for k in range(GAPS + 1):
            if k:
                if k % build_every == 0:
                    setups.append(timed_build(w, inputs, next(dirs)))
                # recovery i runs in gap ceil((i + 1) * GAPS / n): evenly spread
                for i, (image, pre) in enumerate(images):
                    if -(-(i + 1) * GAPS // len(images)) == k:
                        recovers.append(recover(w, image, pre, ops, None))
            client.run(seconds=seconds / (GAPS + 1), stats=loop,
                       min_samples=MIN_SAMPLES if k == GAPS else 0)
    gate(w, system, client, notes)
    drop(system)
    lines.append("gate ok: " + ", ".join(notes))
    lines.append("samples setup_s=" + " ".join(f"{x:.4g}" for x in setups)
                 + (" recover_s=" + " ".join(f"{x:.4g}" for x in recovers) if recovers else ""))
    probe_after = host_probe()
    lines.append(f"host_probe before={probe_before} after={probe_after}")

    if trace:
        metrics = trace_metrics(w, tracer, layer, untraced, traced, setups, recovers, lines)
        return Result(metrics, ops, lines)
    values = dict(loop.e2e())
    values["setup_s"] = (median(setups), len(setups))
    # the mean: the recoveries fall in the host's fast or slow mode, and
    # their median or minimum jumps between the modes (see NOTES.md)
    values["recover_s"] = (sum(recovers) / len(recovers), len(recovers))
    values["peak_rss_mb"] = (peak_rss_mb(), 1)
    metrics = {name: (values[name][0], unit, values[name][1]) for name, unit in E2E.items()}
    return Result(metrics, ops, lines)


def timed_build(w: Workload, inputs: Inputs, directory: Path) -> float:
    gc.collect()                         # every timed build starts from a collected heap
    t0 = perf_counter()
    system = build(w, inputs, directory)
    elapsed = perf_counter() - t0
    drop(system)
    shutil.rmtree(directory, ignore_errors=True)
    return elapsed


def crash_images(w: Workload, system: System, workdir: Path,
                 notes: List[str]) -> List[tuple]:
    """One ``(image, pre-crash kappa)`` per recovery, taken between
    batches.

    Served: a copy of the session's directory per recovery, with
    :data:`CRASH_TAIL` committed batches past the newest checkpoint.
    Every batch is fsync'd before ``pump`` returns and checkpoints are
    atomic, so each copy is exactly what a crash at this point leaves:
    a session abandoned without ``close()``.  Bulk: the maintainer's
    checkpoint saved once to a file; a restart only reads it.
    """
    pre = system.cm.kappa()
    if pre != peel(system.cm.sub):
        raise GateFailure("kappa at the crash point differs from peel()")
    if not w.served:
        path = workdir / "checkpoint.bin"
        system.cm.checkpoint().save(path)
        notes.append("checkpoint saved after the warm-up")
        return [(path, pre)] * w.recoveries
    server = system.server
    if server.committed_batches % CHECKPOINT_EVERY != CRASH_TAIL:
        raise GateFailure(f"{server.committed_batches} batches committed before the "
                          f"crash point; expected {CRASH_TAIL} past a checkpoint")
    if server.view().kappa() != pre:
        raise GateFailure("kappa at the crash point differs from the view")
    notes.append(f"crash image with {CRASH_TAIL} batches past the newest checkpoint")
    copies = []
    for i in range(w.recoveries):
        copy = workdir / f"crashed-{i}"
        shutil.copytree(system.directory, copy)
        copies.append((copy, pre))
    return copies


def restart(path: Path, tracer: Optional[tr.Tracer] = None):
    """A non-durable maintainer restarted from its saved checkpoint,
    with the two steps timed one at a time under a tracer."""
    if tracer is None:
        return restore_maintainer(Checkpoint.load(path), engine="array")
    load, restore = RESTART_SPANS
    cp = tracer.call(load, False, Checkpoint.load, (path,), {})
    return tracer.call(restore, False, restore_maintainer, (cp,), {"engine": "array"})


def recover(w: Workload, image: Path, pre: Dict, ops: Ops,
            tracer: Optional[tr.Tracer]) -> float:
    """Time one recovery from ``image``: ``CoreMaintainer.recover`` of a
    fresh copy of the crashed directory (served) or a restart from the
    saved checkpoint (bulk).  Its kappa must equal the pre-crash kappa."""
    gc.collect()                         # every timed recovery starts from a collected heap
    if tracer is None:
        t0 = perf_counter()
        m = CoreMaintainer.recover(image, engine="array") if w.served else restart(image)
        elapsed = perf_counter() - t0
    else:
        uninstall, _ = tr.install(tracer, RECOVERY_SEAMS if w.served else ())
        try:
            t0 = perf_counter()
            with tracer.root("recover"):
                if w.served:
                    m = CoreMaintainer.recover(image, engine="array")
                else:
                    m = restart(image, tracer)
            elapsed = perf_counter() - t0
        finally:
            uninstall()
        report = getattr(m, "last_recovery", None)
        for name in ("batches_replayed", "records_scanned"):
            if hasattr(report, name):
                tracer.counters[f"resilience.recovery_{name}"] += getattr(report, name)
    ok = m.kappa() == pre
    ops.note(ok, f"recovered kappa differs in {image.name}")
    if not ok:
        raise GateFailure(f"recovered kappa of {image.name} differs from the pre-crash kappa")
    del m
    gc.collect()
    if w.served:
        shutil.rmtree(image, ignore_errors=True)
    return elapsed


# -- the traced run --------------------------------------------------------------------
def counters(system: System) -> Dict[str, float]:
    """Layer counters read by attribute lookup; absent ones are left out."""
    out: Dict[str, float] = {}
    hits = columnar_batches(system)
    if hits is not None:
        out["columnar"] = hits
    wal = locate(system.cm, "wal")
    wal_stats = getattr(wal, "stats", None)
    if isinstance(wal_stats, dict):
        out["resilience.wal_records"] = wal_stats.get("records", 0)
        out["resilience.wal_syncs"] = wal_stats.get("syncs", 0)
    repl = locate(system.cm, "stats", lambda s: isinstance(s, dict) and "shipments" in s)
    if repl is not None:
        out["replication.shipments"] = repl["shipments"]
        out["replication.hash_stamps"] = repl.get("hash_stamps", 0)
    return out


def traced_loop(w: Workload, system: System, client: Client, tracer: tr.Tracer,
                rounds: int):
    """The same number of rounds as the untraced half, with every
    batch-path seam wrapped; returns the loop stats and the layer
    counters' deltas over it."""
    seams = SERVED_SEAMS if w.served else ENGINE_SEAMS
    before = counters(system)
    uninstall, absent = tr.install(tracer, seams, root=system.server)
    try:
        stats = client.run(rounds=rounds, tracer=tracer)
    finally:
        uninstall()
    after = counters(system)
    delta = {k: after[k] - before[k] for k in after if k in before}
    delta["batches"] = len(stats.latencies)
    delta["absent"] = sorted(set(absent))
    return stats, delta


def trace_metrics(w: Workload, tracer: tr.Tracer, layer: Dict, untraced: LoopStats,
                  traced: LoopStats, setups: List[float], recovers: List[float],
                  lines: List[str]) -> Dict[str, tuple]:
    """Reduce the spans to per-layer metrics: per-batch medians of self
    time, per-build and per-recovery self times, and exact counts."""
    out: Dict[str, tuple] = {}
    absent = list(layer["absent"])
    root = "batch"
    per_name, durations = tr.self_times(tracer.spans, root)
    for span, metric in BATCH_METRICS.items():
        values = [v for v in per_name.get(span, ()) if v is not None]
        if values:
            scale = 1e6 if metric.endswith("_us") else 1e3
            out[metric] = (median(values) * scale, metric.rsplit("_", 1)[1], len(values))
    layer_sum = sum(median([v or 0.0 for v in values])
                    for span, values in per_name.items() if span != root)
    ratio = layer_sum / median(durations)
    out["trace.layer_sum_ratio"] = (ratio, "ratio", len(durations))
    if not 0.9 <= ratio <= 1.1:
        lines.append(f"warning: per-layer self times sum to {ratio:.3f} of the traced "
                     "batch latency, outside 0.9-1.1")

    setup_spans, _ = tr.self_times(tracer.spans, "setup")
    for span, metric in SETUP_METRICS.items():
        values = [v for v in setup_spans.get(span, ()) if v is not None]
        if values:
            out[metric] = (median(values), "s", len(values))
    kcore, _ = tr.self_times(tracer.spans, "serve.kcore")
    if kcore.get("serve.kcore"):
        values = kcore["serve.kcore"]
        out["serve.kcore_ms"] = (median(values) * 1e3, "ms", len(values))
    if recovers:
        rec, _ = tr.self_times(tracer.spans, "recover")
        for span, metric in RECOVERY_METRICS.items():
            if not w.served and span not in RESTART_SPANS:
                continue
            values = [v for v in rec.get(span, ()) if v is not None]
            if values:
                out[metric] = (median(values), "s", len(values))
            else:
                absent.append(span)
        for name in ("resilience.recovery_batches_replayed",
                     "resilience.recovery_records_scanned"):
            if name in tracer.counters:
                out[name] = (tracer.counters[name] / len(recovers), "count", len(recovers))

    batches = layer["batches"]
    if "columnar" in layer:
        out["engine.columnar_hit"] = (layer["columnar"] / batches, "ratio", batches)
    for region in PARALLEL_REGIONS[w.kind]:
        name = f"parallel.{region}"
        if name + "_calls" in tracer.counters:
            out[name + "_s"] = (tracer.counters[name + "_s"] / batches, "s", batches)
            out[name + "_calls"] = (tracer.counters[name + "_calls"], "count", batches)
    if w.served:
        for name in ("resilience.wal_records", "resilience.wal_syncs",
                     "replication.shipments", "replication.hash_stamps"):
            if name in layer:
                out[name] = (layer[name], "count", batches)
        if "resilience.wal_bytes" in tracer.counters:
            out["resilience.wal_bytes"] = (tracer.counters["resilience.wal_bytes"], "count",
                                           batches)
        if "resilience.checkpoint" not in absent:
            out["resilience.checkpoints"] = (
                sum(1 for v in per_name.get("resilience.checkpoint", ()) if v is not None),
                "count", batches)

    base, seen = untraced.e2e(), traced.e2e()
    for name, (value, n) in base.items():
        lines.append(f"overhead {name} untraced={value:.6g} traced={seen[name][0]:.6g} "
                     f"ratio={seen[name][0] / value:.4f} n={n}")
    head = "batch_p50_ms"
    out["trace.overhead_ratio"] = (seen[head][0] / base[head][0], "ratio", batches)
    lines.append(f"traced setup_s={setups[0]:.6g} (one build, set-up seams wrapped)")
    if recovers:
        lines.append(f"traced recover_s={sum(recovers) / len(recovers):.6g} "
                     f"n={len(recovers)}")
    lines.append("absent seams: " + (", ".join(sorted(set(absent))) or "none"))
    # every declared metric is emitted; a layer off this workload's path reads 0
    off_path = [m for m in LAYER_METRICS if m not in out and m not in layer_metrics(w)]
    lines.append("off this workload's path, reported as 0: " + (", ".join(off_path) or "none"))
    for name, unit in LAYER_METRICS.items():
        out.setdefault(name, (0, unit, 0))
    return out
