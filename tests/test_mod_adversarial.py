"""Randomized adversarial campaign against the mod increment policies.

The paper presents Algorithm 4's level resolution as deliberately
conservative but offers no tightness proof.  This suite drives hundreds of
multi-level insertion/deletion batches -- engineered around the cascade
scenarios where under-incrementing would bite (stacked same-level
insertions, adjacent-level chains, dense near-cliques) -- through the
paper policy, the provably-sufficient safe policy and the bounded default,
on both the dict and the array engine, checking every outcome against the
peeling oracle.

Empirical finding recorded in EXPERIMENTS.md: across thousands of trials
the paper rule never under-increments; the per-pin double-recording at tau
ties (both endpoints of a tied edge record into ``I``) provides slack on
top of the printed rule.
"""

from __future__ import annotations

import random

import pytest

from repro.core.mod import ModMaintainer
from repro.core.verify import verify_kappa
from repro.engine import ArrayGraph
from repro.graph.batch import Batch
from repro.graph.generators import clique, core_ladder, erdos_renyi, powerlaw_social
from repro.graph.substrate import graph_edge_changes


#: (policy, engine) cases; the dict-engine ids are the bare policy names
CASES = [
    pytest.param(policy, engine, id=policy if engine == "dict" else f"{policy}-array")
    for engine in ("dict", "array")
    for policy in ("paper", "safe", "bounded")
]


def maintainer(g, policy, engine):
    """A mod maintainer over ``g`` (lifted onto its array twin for the
    array engine); batches are drawn from ``m.sub``."""
    sub = ArrayGraph.from_graph(g) if engine == "array" else g
    m = ModMaintainer(sub, increment_policy=policy)
    assert m.engine == engine
    return m


def random_insertion_batch(g, rng, n):
    verts = sorted(g.vertices())
    batch = Batch()
    seen = set()
    for _ in range(n * 3):
        if len(seen) >= n:
            break
        u, v = rng.sample(verts, 2)
        e = (min(u, v), max(u, v))
        if e not in seen and not g.has_graph_edge(u, v):
            seen.add(e)
            batch.extend(graph_edge_changes(u, v, True))
    return batch


@pytest.mark.parametrize("policy,engine", CASES)
@pytest.mark.parametrize("trial", range(12))
def test_multilevel_insertion_campaign(policy, engine, trial):
    rng = random.Random(trial * 7)
    g = [
        core_ladder(3, width=3),
        erdos_renyi(24, 70, seed=trial),
        powerlaw_social(30, 6, seed=trial),
    ][trial % 3]
    m = maintainer(g, policy, engine)
    for _ in range(3):
        m.apply_batch(random_insertion_batch(m.sub, rng, rng.randint(2, 8)))
        verify_kappa(m)


@pytest.mark.parametrize("policy,engine", CASES)
def test_stacked_same_level_insertions(policy, engine):
    """Many insertions recorded at one level: the level must be able to
    rise by up to the full stack (Fig. 4 writ large)."""
    g = clique(6)  # kappa 5 everywhere
    # satellite path: kappa 1
    g.add_edge(5, 100)
    g.add_edge(100, 101)
    m = maintainer(g, policy, engine)
    batch = Batch()
    for target in (0, 1, 2, 3):
        batch.extend(graph_edge_changes(100, target, True))
    m.apply_batch(batch)
    verify_kappa(m)
    assert m.kappa_of(100) == 5  # joined the clique's core


@pytest.mark.parametrize("policy,engine", CASES)
def test_adjacent_level_chain(policy, engine):
    """Insertions at levels k and k+1 in one batch: level-k vertices can
    be lifted twice (the cross-level coupling of Alg. 4 lines 10-12)."""
    # two stacked near-cliques: K4 minus an edge (kappa 2) fused to a
    # K5 minus an edge (kappa 3)
    from repro.graph.dynamic_graph import DynamicGraph

    g = DynamicGraph.from_edges([
        # K4 minus (0,2) on {0,1,2,3}
        (0, 1), (1, 2), (2, 3), (0, 3), (1, 3),
        # K5 minus (4,5) on {3,4,5,6,7}
        (3, 4), (3, 5), (3, 6), (3, 7), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7),
    ])
    m = maintainer(g, policy, engine)
    levels = {v: m.kappa_of(v) for v in (0, 4)}
    assert levels[0] < levels[4]
    batch = Batch(graph_edge_changes(0, 2, True) + graph_edge_changes(4, 5, True))
    m.apply_batch(batch)
    verify_kappa(m)


@pytest.mark.parametrize("policy,engine", CASES)
def test_delete_then_insert_same_batch(policy, engine):
    """Deletions shift subcores down before insertions land -- the case
    Alg. 4 lines 6-8 widen the increment range for."""
    rng = random.Random(99)
    m = maintainer(powerlaw_social(40, 6, seed=99), policy, engine)
    g = m.sub
    for _ in range(3):
        batch = Batch()
        present = sorted(g.edges())
        rng.shuffle(present)
        for u, v in present[:3]:
            batch.extend(graph_edge_changes(u, v, False))
        batch.extend(random_insertion_batch(g, rng, 4).changes)
        rng.shuffle(batch.changes)
        m.apply_batch(batch)
        verify_kappa(m)


def test_policies_produce_identical_kappa():
    """Every policy must land on the same (correct) fixpoint; they only
    differ in how much transient work convergence has to undo."""
    rng = random.Random(5)
    g = powerlaw_social(60, 6, seed=5)
    batch = random_insertion_batch(g, rng, 6)
    kappas = []
    for policy in ("paper", "safe", "bounded"):
        m = ModMaintainer(g.copy(), increment_policy=policy)
        m.apply_batch(Batch(list(batch.changes)))
        kappas.append(m.kappa())
    assert kappas[0] == kappas[1] == kappas[2]
