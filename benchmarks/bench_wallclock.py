#!/usr/bin/env python
"""Real wall-clock comparison: dict engine vs the flat-array engine.

Unlike the ``bench_fig*.py`` harness (which reproduces the paper's figures
on the *simulated* machine), this script measures honest Python execution
time of the same maintenance work on both execution engines:

* ``dict``  -- label-keyed hash maps, per-vertex convergence loop;
* ``array`` -- interned :class:`~repro.engine.ArrayGraph` substrate with
  vectorised frontier convergence (:func:`~repro.engine.hhc_frontier_csr`).

Graph workloads mirror the paper's evaluation shapes:

* ``fig06_insert`` -- insertion-only batches (Figure 6),
* ``fig09_delete`` -- deletion-only batches (Figure 9),
* ``fig12_mixed``  -- mixed batches at the paper's 3/2 sizing (Figure 12).

Hypergraph workloads run the same three shapes over an affiliation-model
hypergraph (the OrkutGroup/LiveJGroup analogue of Table II) under the
pin-change protocol, comparing the dict path against
:class:`~repro.engine.ArrayHypergraph` + the min-tau shadow +
:func:`~repro.engine.hhc_frontier_incidence`; they write ``hyper_*``
keys next to the graph workloads.

A third engine row, ``columnar``, replays the same streams on the array
engine with every batch pre-converted (outside the timed window) to a
:class:`~repro.graph.columnar.ColumnarBatch` -- the zero-Python steady
state: id-array parsing, bulk structural application, and array-slice
journalling with no per-``Change`` objects between parse and commit.
The ``m6`` tier scales the graph workload to ~10^6 edges
(``m6_mixed``), sharing one static seed across engines -- the array
engine's decomposition, synchronous Algorithm 1 run as whole-frontier
array passes -- and verifying kappa on a vertex sample.

All engines replay byte-identical batch streams generated against a
scratch copy of the dataset, so every timed round does the same semantic
work.  After the timed rounds each engine's kappa is checked against the
independent peeling oracle and the engines are checked against each
other -- a speedup only counts if the answers are identical.

Usage::

    python benchmarks/bench_wallclock.py            # full run, writes JSON
    python benchmarks/bench_wallclock.py --quick    # CI smoke (small sizes)
    python benchmarks/bench_wallclock.py --out PATH # custom output path
    python benchmarks/bench_wallclock.py --quick --gate BENCH_wallclock.json
                                        # CI regression gate: fail if the
                                        # dict->array speedup drops >20%
                                        # below the committed baseline
    python benchmarks/bench_wallclock.py --threads 1,2,4,8
                                        # real-thread scaling sweep on the
                                        # m6 tier: array/columnar engines
                                        # under ThreadRuntime(t), oracle-
                                        # verified and kappa-identical
                                        # across thread counts

The full run writes ``BENCH_wallclock.json`` at the repository root and
records its own quick-mode speedups under ``meta.quick_baseline`` (plus
``meta.quick_baseline_threads`` when ``--threads`` is given) so the CI
gate compares quick runs against quick baselines.  Thread-scaling
assertions and gates are machine-aware: the host's available CPU count
is recorded, the >=1.8x-at-t=4 target is only asserted on hosts with
>=4 CPUs, and the threaded gate is skipped when the current host has
fewer CPUs than the baseline host.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.core.maintainer import make_maintainer  # noqa: E402
from repro.core.verify import verify_kappa  # noqa: E402
from repro.engine import ArrayGraph, ArrayHypergraph  # noqa: E402
from repro.graph.batch import BatchProtocol  # noqa: E402
from repro.graph.columnar import ColumnarBatch  # noqa: E402
from repro.graph.generators import (  # noqa: E402
    affiliation_hypergraph,
    powerlaw_social,
)
from repro.parallel.threads import ThreadRuntime  # noqa: E402


def available_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1

#: (graph_vertices, graph_m, rounds, {workload: batch_edges}) plus the
#: affiliation hypergraph analogue (``hyper_*`` workloads time pin batches)
FULL_CONFIG = dict(
    n=50_000,
    m=16,
    rounds=3,
    batches={"fig06_insert": 5000, "fig09_delete": 5000, "fig12_mixed": 5000},
    hyper=dict(
        nv=30_000,
        ne=20_000,
        mean_pins=6.0,
        rounds=3,
        batches={
            "hyper_insert": 4000,
            "hyper_delete": 4000,
            "hyper_mixed": 4000,
        },
    ),
    # the 10^6-edge tier: one static seed (the array engine's
    # frontier-kernel decomposition) is shared across engines and kappa
    # is verified on a vertex sample (the full peel still runs once per
    # engine inside verify_kappa)
    m6=dict(
        n=350_000,
        m=16,
        rounds=2,
        batches={"m6_mixed": 5000},
        verify_sample=2000,
    ),
)
QUICK_CONFIG = dict(
    n=4_000,
    m=10,
    # smoke rounds are ~tens of milliseconds each: median-of-5 keeps the
    # regression gate's speedup ratios stable against transient CI load
    rounds=5,
    batches={"fig12_mixed": 1200},
    hyper=dict(
        nv=2_500,
        ne=1_800,
        mean_pins=5.0,
        rounds=5,
        batches={"hyper_mixed": 700},
    ),
    # smoke-sized analogue of the 10^6-edge tier (same code path)
    m6=dict(
        n=6_000,
        m=8,
        rounds=3,
        batches={"m6_mixed": 1500},
        verify_sample=500,
    ),
)

ENGINES = ("dict", "array", "columnar")
WORKLOADS = ("fig06_insert", "fig09_delete", "fig12_mixed",
             "hyper_insert", "hyper_delete", "hyper_mixed", "m6_mixed")


def generate_rounds(base, workload: str, batch_edges: int, rounds: int, seed: int):
    """Pre-generate identical batch streams for both engines.

    The protocol samples lazily against the live substrate, so the rounds
    are drawn against a scratch copy that is kept in sync by applying each
    emitted batch to it.
    """
    scratch = base.copy()
    proto = BatchProtocol(scratch, seed=seed)
    out = []
    for _ in range(rounds):
        if workload.endswith("mixed"):
            prep, timed, post = proto.mixed(batch_edges)
        else:
            deletion, insertion = proto.remove_reinsert(batch_edges)
            if workload.endswith("insert"):
                prep, timed, post = deletion, insertion, None
            else:  # *_delete
                prep, timed, post = None, deletion, insertion
        for b in (prep, timed, post):
            if b is not None:
                for c in b:
                    scratch.apply(c)
        out.append((prep, timed, post))
    return out


def columnarize_rounds(rounds_data, is_hyper: bool):
    """Pre-convert every batch of the stream to :class:`ColumnarBatch`.

    This happens *outside* the timed window: the columnar engine row
    measures the zero-Python steady state where batches arrive already
    columnar (the ingestion format of a production feed), not the cost
    of converting a per-Change batch.
    """
    out = []
    for batches in rounds_data:
        conv = []
        for b in batches:
            if b is None:
                conv.append(None)
                continue
            cb = ColumnarBatch.from_batch(b, is_hyper=is_hyper)
            if cb is None:
                raise AssertionError("protocol batch failed to columnarise")
            conv.append(cb)
        out.append(tuple(conv))
    return out


def run_engine(base, engine: str, rounds_data, *, tau0=None,
               verify_sample=None, rt=None):
    """Replay the stream on one engine; returns (times_s, kappa, columnar).

    ``rt`` plumbs a real runtime under the maintainer (the ``--threads``
    sweep passes a :class:`ThreadRuntime`); ``None`` keeps the serial
    default used for the dict/array/columnar comparison rows.
    """
    is_hyper = getattr(base, "is_hypergraph", False)
    if engine in ("array", "columnar"):
        sub = (ArrayHypergraph.from_hypergraph(base) if is_hyper
               else ArrayGraph.from_graph(base))
    else:
        sub = base.copy()
    kwargs = {} if tau0 is None else {"tau": tau0}
    m = make_maintainer(sub, "mod", rt,
                        engine="dict" if engine == "dict" else "array",
                        **kwargs)
    if engine == "columnar":
        rounds_data = columnarize_rounds(rounds_data, is_hyper)
    times = []
    for prep, timed, post in rounds_data:
        if prep is not None:
            m.apply_batch(prep)
        # suspend cyclic GC inside the timed window (for every engine
        # alike): a gen-2 collection scans the harness's retained object
        # graph -- three substrate copies plus the batch streams -- and
        # its multi-second pause would land on an arbitrary engine's row
        gc.collect()
        gc.disable()
        t0 = time.perf_counter()
        m.apply_batch(timed)
        times.append(time.perf_counter() - t0)
        gc.enable()
        if post is not None:
            m.apply_batch(post)
    violations = verify_kappa(m, raise_on_mismatch=False,
                              sample=verify_sample,
                              rng=0 if verify_sample else None)
    if violations:
        raise AssertionError(
            f"{engine} engine diverged from the peeling oracle: "
            f"{violations[:5]} ..."
        )
    columnar_batches = getattr(m.backend, "columnar_batches", 0)
    if engine in ("array", "columnar") and columnar_batches == 0:
        raise AssertionError(
            f"{engine} engine never took the columnar bulk path"
        )
    return times, m.kappa(), columnar_batches


def run_section(report, base, batches, rounds, seed, *, tau0=None,
                verify_sample=None):
    """Time every workload in ``batches`` over ``base`` on every engine."""
    for workload, batch_edges in batches.items():
        rounds_data = generate_rounds(
            base, workload, batch_edges, rounds, seed=seed + 1
        )
        timed_changes = len(rounds_data[0][1])
        print(f"== {workload}: {batch_edges} edges/batch "
              f"({timed_changes} pin changes timed) ==")
        entry = {
            "batch_edges": batch_edges,
            "timed_pin_changes": timed_changes,
        }
        kappas = {}
        for engine in ENGINES:
            times, kappa, columnar_batches = run_engine(
                base, engine, rounds_data, tau0=tau0,
                verify_sample=verify_sample,
            )
            kappas[engine] = kappa
            entry[engine] = {
                "times_s": [round(t, 4) for t in times],
                "median_s": round(statistics.median(times), 4),
            }
            if engine != "dict":
                entry[engine]["columnar_batches"] = columnar_batches
            print(f"  {engine:>8}: " +
                  "  ".join(f"{t:.3f}s" for t in times) +
                  f"  (median {entry[engine]['median_s']:.3f}s)")
        identical = all(k == kappas["dict"] for k in kappas.values())
        speedup = entry["dict"]["median_s"] / entry["array"]["median_s"]
        entry["kappa_identical"] = identical
        entry["oracle_verified"] = True  # run_engine raises otherwise
        entry["speedup"] = round(speedup, 2)
        entry["speedup_columnar"] = round(
            entry["dict"]["median_s"] / entry["columnar"]["median_s"], 2)
        # min-based estimator for the regression gate: transient load
        # only ever inflates a round, so the per-engine minimum is the
        # stablest estimate of true cost (the ``timeit`` convention);
        # median-of-rounds speedup ratios swing well past 20% on noisy
        # CI runners at smoke sizes
        entry["speedup_best"] = round(
            min(entry["dict"]["times_s"]) / min(entry["array"]["times_s"]), 2)
        print(f"  speedup {speedup:.2f}x (columnar "
              f"{entry['speedup_columnar']:.2f}x)  "
              f"kappa identical: {identical}")
        if not identical:
            raise AssertionError(f"{workload}: engines disagree on kappa")
        report["workloads"][workload] = entry


def run(config, seed: int = 42):
    base = powerlaw_social(config["n"], config["m"], seed=seed)
    hyper_cfg = config["hyper"]
    hyper = affiliation_hypergraph(
        hyper_cfg["nv"], hyper_cfg["ne"], hyper_cfg["mean_pins"], seed=seed
    )
    report = {
        "meta": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "graph": {
                "generator": f"powerlaw_social({config['n']}, {config['m']}, seed={seed})",
                "vertices": base.num_vertices(),
                "edges": base.num_edges(),
            },
            "hypergraph": {
                "generator": (
                    f"affiliation_hypergraph({hyper_cfg['nv']}, "
                    f"{hyper_cfg['ne']}, {hyper_cfg['mean_pins']}, seed={seed})"
                ),
                "vertices": hyper.num_vertices(),
                "hyperedges": hyper.num_edges(),
                "pins": hyper.num_pins(),
            },
            "rounds": config["rounds"],
            "timed_algorithm": "mod",
        },
        "workloads": {},
    }
    run_section(report, base, config["batches"], config["rounds"], seed)
    run_section(report, hyper, hyper_cfg["batches"], hyper_cfg["rounds"],
                seed + 100)
    m6_cfg = config.get("m6")
    if m6_cfg is not None:
        m6_base = powerlaw_social(m6_cfg["n"], m6_cfg["m"], seed=seed)
        print(f"== m6 tier: {m6_base.num_vertices()} vertices, "
              f"{m6_base.num_edges()} edges ==")
        # one static seed shared by every engine: the array maintainer's
        # construction runs synchronous Algorithm 1 through the frontier
        # kernels; repeating it per engine row (and the dict engine's
        # per-vertex hhc_local above all) would dominate the wall clock
        # without informing the comparison
        seed_m = make_maintainer(ArrayGraph.from_graph(m6_base), "mod")
        tau0 = dict(seed_m.tau)
        report["meta"]["m6"] = {
            "generator": (
                f"powerlaw_social({m6_cfg['n']}, {m6_cfg['m']}, seed={seed})"
            ),
            "vertices": m6_base.num_vertices(),
            "edges": m6_base.num_edges(),
            "rounds": m6_cfg["rounds"],
            "verify_sample": m6_cfg["verify_sample"],
        }
        run_section(report, m6_base, m6_cfg["batches"], m6_cfg["rounds"],
                    seed + 200, tau0=tau0,
                    verify_sample=m6_cfg["verify_sample"])
    return report


def run_thread_sweep(config, thread_counts, seed: int = 42):
    """Real-thread scaling sweep on the m6 tier.

    Replays one byte-identical ``m6_mixed`` stream on the array and
    columnar engines under ``ThreadRuntime(t)`` for every requested
    thread count (t=1 runs the chunk kernels inline and is the scaling
    baseline).  Every run is oracle-verified (``run_engine`` raises on
    divergence) and kappa must be bit-identical across all engines and
    thread counts -- a speedup only counts when the answers match.
    Per-region wall-second breakdowns from the runtime's timing counters
    are recorded so measured speedups can be attributed to kernels.
    """
    m6_cfg = config["m6"]
    base = powerlaw_social(m6_cfg["n"], m6_cfg["m"], seed=seed)
    cpus = available_cpus()
    print(f"\n== thread sweep: m6 tier ({base.num_vertices()} vertices, "
          f"{base.num_edges()} edges), t in {list(thread_counts)}, "
          f"{cpus} cpu(s) available ==")
    seed_m = make_maintainer(ArrayGraph.from_graph(base), "mod")
    tau0 = dict(seed_m.tau)
    del seed_m
    workload, batch_edges = next(iter(m6_cfg["batches"].items()))
    rounds_data = generate_rounds(
        base, workload, batch_edges, m6_cfg["rounds"], seed=seed + 201
    )
    section = {
        "tier": workload,
        "cpus": cpus,
        "thread_counts": list(thread_counts),
        "edges": base.num_edges(),
        "rounds": m6_cfg["rounds"],
        "engines": {},
    }
    ref_kappa = None
    for engine in ("array", "columnar"):
        per_engine = {}
        for t in thread_counts:
            with ThreadRuntime(t) as rt:
                times, kappa, _ = run_engine(
                    base, engine, rounds_data, tau0=tau0,
                    verify_sample=m6_cfg["verify_sample"], rt=rt,
                )
                region_s = {
                    k: round(v, 4) for k, v in sorted(
                        rt.region_seconds.items(), key=lambda kv: -kv[1]
                    )[:8]
                }
                chunks = {
                    k: int(rt.region_chunks[k]) for k in region_s
                    if rt.region_chunks.get(k)
                }
            if ref_kappa is None:
                ref_kappa = kappa
            elif kappa != ref_kappa:
                raise AssertionError(
                    f"thread sweep: {engine} at t={t} disagrees on kappa"
                )
            per_engine[str(t)] = {
                "times_s": [round(x, 4) for x in times],
                "median_s": round(statistics.median(times), 4),
                "region_seconds": region_s,
                "region_chunks": chunks,
            }
            print(f"  {engine:>8} t={t}: " +
                  "  ".join(f"{x:.3f}s" for x in times) +
                  f"  (median {per_engine[str(t)]['median_s']:.3f}s)")
        t0_key = str(thread_counts[0])
        base_med = per_engine[t0_key]["median_s"]
        base_best = min(per_engine[t0_key]["times_s"])
        per_engine["speedup"] = {
            str(t): round(base_med / per_engine[str(t)]["median_s"], 2)
            for t in thread_counts
        }
        # min-based estimator, as for the dict->array gate: transient
        # load only inflates a round, so per-config minima give the
        # stablest cross-run ratios
        per_engine["speedup_best"] = {
            str(t): round(base_best / min(per_engine[str(t)]["times_s"]), 2)
            for t in thread_counts
        }
        print(f"  {engine:>8} speedup vs t={thread_counts[0]}: " +
              "  ".join(f"t={t}:{per_engine['speedup'][str(t)]:.2f}x"
                        for t in thread_counts[1:]))
        section["engines"][engine] = per_engine
    section["kappa_identical"] = True   # checked above, raises otherwise
    section["oracle_verified"] = True   # run_engine raises otherwise
    if cpus >= 4 and 4 in thread_counts:
        section["scaling_target_met"] = all(
            section["engines"][e]["speedup"]["4"] >= 1.8
            for e in section["engines"]
        )
    else:
        # a speedup target cannot physically be met without the cores;
        # record the host's parallelism instead of a vacuous failure
        section["scaling_target_met"] = None
        section["note"] = (
            f"host exposes {cpus} cpu(s); the >=1.8x @ t=4 target is "
            "only asserted on hosts with >=4 cpus"
        )
    return section


def gate_check(report, baseline_path: Path) -> int:
    """CI regression gate: current speedups vs the committed baseline.

    Fails (returns 1) when any workload's dict->array speedup drops more
    than 20% below the baseline's recorded quick-mode speedup
    (``meta.quick_baseline``, written by full runs).  Baselines predating
    the quick-baseline field are skipped with a notice -- quick and full
    speedups are not comparable across dataset sizes.
    """
    if not baseline_path.exists():
        print(f"gate: baseline {baseline_path} not found; skipping")
        return 0
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    base_sp = baseline.get("meta", {}).get("quick_baseline")
    if not base_sp:
        print(f"gate: {baseline_path} has no meta.quick_baseline "
              f"(pre-columnar baseline); skipping")
        return 0
    failures = []
    for key, entry in report["workloads"].items():
        prev = base_sp.get(key)
        if not prev:
            continue
        cur = entry.get("speedup_best", entry["speedup"])
        if cur < 0.8 * prev:
            failures.append(
                f"{key}: {cur:.2f}x is more than 20% below "
                f"the baseline {prev:.2f}x"
            )
        else:
            print(f"gate ok: {key} {cur:.2f}x (baseline {prev:.2f}x)")
    # threaded gate: compare the t>1 speedup-vs-t=1 ratios against the
    # baseline's threaded quick run, but only when this host has at
    # least as many CPUs as the baseline host -- thread scaling numbers
    # from machines with different parallelism are not comparable
    ts = report.get("thread_scaling")
    base_ts = baseline.get("meta", {}).get("quick_baseline_threads")
    if ts and base_ts:
        base_cpus = base_ts.get("cpus", 1)
        if ts.get("cpus", 1) < base_cpus:
            print(f"gate: host has {ts.get('cpus', 1)} cpu(s) vs the "
                  f"baseline's {base_cpus}; skipping the threaded gate")
        else:
            for key, prev in base_ts.get("speedup_best", {}).items():
                engine, _, t = key.partition("@")
                cur = (ts["engines"].get(engine, {})
                       .get("speedup_best", {}).get(t))
                if cur is None:
                    continue
                if cur < 0.8 * prev:
                    failures.append(
                        f"threads {key}: {cur:.2f}x is more than 20% "
                        f"below the baseline {prev:.2f}x"
                    )
                else:
                    print(f"gate ok: threads {key} {cur:.2f}x "
                          f"(baseline {prev:.2f}x)")
    if failures:
        print("REGRESSION GATE FAILED:")
        for f in failures:
            print(f"  {f}")
        return 1
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="small CI smoke run; asserts the array engine is "
                         "not slower than dict on the mixed workload")
    ap.add_argument("--out", type=Path, default=None,
                    help="output JSON path (default: BENCH_wallclock.json "
                         "at the repo root; --quick defaults to not writing)")
    ap.add_argument("--gate", type=Path, default=None,
                    help="regression gate: fail if any workload's "
                         "dict->array speedup drops >20%% below the "
                         "quick baseline recorded in this JSON file")
    ap.add_argument("--threads", type=str, default=None, metavar="T,T,...",
                    help="real-thread scaling sweep on the m6 tier: run "
                         "the array/columnar engines under ThreadRuntime(t) "
                         "for each listed t (t=1 is added as the baseline "
                         "if missing), e.g. --threads 1,2,4,8")
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args(argv)

    thread_counts = None
    if args.threads:
        thread_counts = sorted({1, *(int(t) for t in args.threads.split(","))})

    config = QUICK_CONFIG if args.quick else FULL_CONFIG
    report = run(config, seed=args.seed)
    report["meta"]["mode"] = "quick" if args.quick else "full"
    report["meta"]["cpus"] = available_cpus()

    if thread_counts:
        report["thread_scaling"] = run_thread_sweep(
            config, thread_counts, seed=args.seed
        )

    if not args.quick:
        # record quick-mode speedups so CI gates compare like with like
        print("\n== quick baseline for the CI regression gate ==")
        quick_report = run(QUICK_CONFIG, seed=args.seed)
        report["meta"]["quick_baseline"] = {
            k: w["speedup_best"] for k, w in quick_report["workloads"].items()
        }
        if thread_counts:
            qts = run_thread_sweep(QUICK_CONFIG, thread_counts, seed=args.seed)
            report["meta"]["quick_baseline_threads"] = {
                "cpus": qts["cpus"],
                "speedup_best": {
                    f"{e}@{t}": sp
                    for e, pe in qts["engines"].items()
                    for t, sp in pe["speedup_best"].items()
                    if t != "1"
                },
            }

    out = args.out
    if out is None and not args.quick:
        out = REPO_ROOT / "BENCH_wallclock.json"
    if out is not None:
        out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        print(f"\nwrote {out}")

    if args.quick:
        for key in ("fig12_mixed", "hyper_mixed", "m6_mixed"):
            mixed = report["workloads"][key]
            assert mixed["speedup"] >= 1.0, (
                f"array engine slower than dict on the quick {key} workload "
                f"({mixed['speedup']:.2f}x)"
            )
            print(f"quick check passed: {key} array "
                  f"{mixed['speedup']:.2f}x vs dict")
        if thread_counts:
            # overhead sanity floor: threaded dispatch must never halve
            # throughput, even on a single-core host (VGC chunk counts
            # are small, so submit overhead stays marginal)
            ts = report["thread_scaling"]
            for engine, pe in ts["engines"].items():
                for t, sp in pe["speedup_best"].items():
                    assert sp >= 0.5, (
                        f"threaded overhead: {engine} at t={t} runs at "
                        f"{sp:.2f}x of t=1"
                    )
            print(f"quick check passed: threaded overhead floor on "
                  f"{ts['cpus']} cpu(s)")

    if not args.quick and thread_counts:
        met = report["thread_scaling"]["scaling_target_met"]
        if met is False:
            print("SCALING TARGET MISSED: <1.8x at t=4 with >=4 cpus")
            return 1
        if met is None:
            print(report["thread_scaling"]["note"])

    if args.gate is not None:
        return gate_check(report, args.gate)
    return 0


if __name__ == "__main__":
    sys.exit(main())
