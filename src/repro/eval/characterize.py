"""Characterising graphs and batches to predict runtime behaviour.

Section V-A closes with its own future-work item: "The number of edges or
pins in the graph is a major factor in runtime, and the maximum coreness
and complexity of core hierarchy additionally impact runtime.  Future work
includes characterizing graphs and batches to determine runtime behavior."

This module implements that characterisation:

* :func:`characterize_structure` -- the structural features §V-A names
  (size, degree skew, maximum coreness, hierarchy depth/width, level
  populations).
* :func:`characterize_batch` -- per-batch features: the distribution of
  recorded change levels and, crucially for ``mod``, the *blast radius* --
  the total population of the tau levels its resolution would increment,
  which is the work the increment sweep and subsequent convergence must
  pay.
* :func:`predict_mod_cost` -- a closed-form work predictor for a mod batch
  built from those features, and
  :func:`validate_predictor` -- fits/validates it against measured
  simulated work, reporting the rank correlation the paper's future work
  asks for.

The predictor is deliberately simple (it mirrors the §V-B explanation of
why mod's cost is flat in batch size: "incrementing some edges that have a
small coreness value, causing large parts of the graph to be impacted");
the benchmark shows it ranks batch costs far better than batch *size*
does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.mod import ModMaintainer, resolve_paper
from repro.core.peel import peel
from repro.core.pin_cases import classify_delete, classify_insert
from repro.structures.level_accumulator import LevelAccumulator

__all__ = [
    "StructureProfile",
    "BatchProfile",
    "characterize_structure",
    "characterize_batch",
    "predict_mod_cost",
    "validate_predictor",
    "rank_correlation",
]

Vertex = Hashable


@dataclass(frozen=True)
class StructureProfile:
    """The §V-A structural runtime factors."""

    vertices: int
    units: int  # edges (graphs) or pins (hypergraphs)
    max_degree: int
    mean_degree: float
    degree_skew: float        # max/mean: 1 = regular, large = star-heavy
    max_coreness: int
    levels: int               # distinct core values
    level_populations: Dict[int, int]
    hierarchy_depth: int      # == max_coreness, kept for readability

    def describe(self) -> str:
        return (
            f"|V|={self.vertices} units={self.units} "
            f"deg(mean/max)={self.mean_degree:.1f}/{self.max_degree} "
            f"skew={self.degree_skew:.1f} kmax={self.max_coreness} "
            f"levels={self.levels}"
        )


@dataclass(frozen=True)
class BatchProfile:
    """Per-batch features driving maintenance cost."""

    size: int
    insertions: int
    deletions: int
    min_level: int            # lowest recorded change level
    max_level: int
    distinct_levels: int
    blast_radius: int         # vertices at levels mod would increment/activate
    touched_vertices: int

    def describe(self) -> str:
        return (
            f"size={self.size} (+{self.insertions}/-{self.deletions}) "
            f"levels=[{self.min_level},{self.max_level}] "
            f"blast={self.blast_radius}"
        )


def characterize_structure(sub, kappa: Optional[Dict[Vertex, int]] = None
                           ) -> StructureProfile:
    """Measure the structural features of a graph or hypergraph."""
    if kappa is None:
        kappa = peel(sub)
    n = sub.num_vertices()
    degrees = [sub.degree(v) for v in sub.vertices()]
    max_deg = max(degrees, default=0)
    mean_deg = sum(degrees) / n if n else 0.0
    pops: Dict[int, int] = {}
    for k in kappa.values():
        pops[k] = pops.get(k, 0) + 1
    kmax = max(kappa.values(), default=0)
    units = sub.num_pins() if getattr(sub, "is_hypergraph", False) else sub.num_edges()
    return StructureProfile(
        vertices=n,
        units=units,
        max_degree=max_deg,
        mean_degree=mean_deg,
        degree_skew=(max_deg / mean_deg) if mean_deg else 1.0,
        max_coreness=kmax,
        levels=len(pops),
        level_populations=dict(sorted(pops.items())),
        hierarchy_depth=kmax,
    )


def characterize_batch(sub, batch, kappa: Dict[Vertex, int],
                       level_populations: Dict[int, int]) -> BatchProfile:
    """Classify a batch *without applying it* and measure its features.

    Uses the same pin-case classification mod's callbacks run, against the
    provided pre-batch core values, then evaluates the paper resolution to
    find which levels the batch would touch and how many vertices live
    there (the blast radius).
    """
    I = LevelAccumulator()
    D = LevelAccumulator()
    touched = set()
    insertions = deletions = 0
    is_hyper = getattr(sub, "is_hypergraph", False)
    for change in batch:
        touched.add(change.vertex)
        if change.insert:
            insertions += 1
            pins = list(sub.pins(change.edge)) if sub.has_edge(change.edge) else []
            ctx = pins + ([change.vertex] if change.vertex not in pins else [])
            res = classify_insert(kappa, change, ctx,
                                  edge_is_new=not sub.has_edge(change.edge))
        else:
            deletions += 1
            if not sub.has_pin(change.edge, change.vertex):
                continue
            ctx = list(sub.pins(change.edge))
            res = classify_delete(kappa, change, ctx)
        for lvl, cnt in res.inserts:
            I.add(lvl, cnt)
        for lvl, cnt in res.deletes:
            D.add(lvl, cnt)

    resolution = resolve_paper(I, D)
    blast = 0
    lo, hi = None, None
    distinct = 0
    for level, pop in level_populations.items():
        if resolution.increment(level) > 0 or resolution.should_activate(level):
            blast += pop
            distinct += 1
            lo = level if lo is None else min(lo, level)
            hi = level if hi is None else max(hi, level)
    return BatchProfile(
        size=len(batch),
        insertions=insertions,
        deletions=deletions,
        min_level=lo if lo is not None else 0,
        max_level=hi if hi is not None else 0,
        distinct_levels=distinct,
        blast_radius=blast,
        touched_vertices=len(touched),
    )


def predict_mod_cost(structure: StructureProfile, batch: BatchProfile,
                     convergence_sweeps: float = 2.5) -> float:
    """Predicted work units for one mod batch.

    model = batch application + increment sweep over the blast radius +
    ``convergence_sweeps`` h-index recomputations of the blast radius at
    mean degree.  The sweep constant is the only free parameter; the
    validator reports how well the *ranking* holds, which is what a
    batch scheduler (e.g. the hybrid router) needs.
    """
    apply_cost = batch.size * structure.mean_degree
    increment_cost = batch.blast_radius
    converge_cost = convergence_sweeps * batch.blast_radius * structure.mean_degree
    return apply_cost + increment_cost + converge_cost


def rank_correlation(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman rank correlation (no scipy dependency in src/)."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need two equal-length samples of size >= 2")

    def ranks(vals):
        order = sorted(range(len(vals)), key=lambda i: vals[i])
        r = [0.0] * len(vals)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and vals[order[j + 1]] == vals[order[i]]:
                j += 1
            avg = (i + j) / 2 + 1
            for k in range(i, j + 1):
                r[order[k]] = avg
            i = j + 1
        return r

    rx, ry = ranks(list(xs)), ranks(list(ys))
    n = len(rx)
    mx = sum(rx) / n
    my = sum(ry) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    if vx == 0 or vy == 0:
        return 0.0
    return cov / (vx * vy) ** 0.5


def validate_predictor(sub_factory, batches_factory, *, threads: int = 1
                       ) -> Tuple[float, float, List[Tuple[float, float]]]:
    """Measure predictor quality on a workload.

    ``sub_factory()`` builds a fresh substrate; ``batches_factory(sub)``
    yields (apply-able) batches.  Returns ``(rho_predictor, rho_size,
    samples)`` -- the Spearman correlation of predicted-vs-measured work
    and of batch-size-vs-measured work (the naive baseline), plus the raw
    sample pairs.
    """
    from repro.parallel.simulated import SimulatedRuntime

    sub = sub_factory()
    rt = SimulatedRuntime(thread_counts=(threads,))
    # the predictor models the paper rule's whole-level lift
    maintainer = ModMaintainer(sub, rt, increment_policy="paper")
    structure = characterize_structure(sub, maintainer.kappa())

    preds: List[float] = []
    sizes: List[float] = []
    measured: List[float] = []
    for batch in batches_factory(sub):
        kappa = maintainer.kappa()
        pops: Dict[int, int] = {}
        for k in kappa.values():
            pops[k] = pops.get(k, 0) + 1
        profile = characterize_batch(sub, batch, kappa, pops)
        preds.append(predict_mod_cost(structure, profile))
        sizes.append(len(batch))
        rt.reset_clock()
        maintainer.apply_batch(batch)
        measured.append(rt.take_metrics().work_units)
    rho_pred = rank_correlation(preds, measured)
    rho_size = rank_correlation(sizes, measured)
    return rho_pred, rho_size, list(zip(preds, measured))
