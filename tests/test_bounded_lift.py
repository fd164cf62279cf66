"""Differential tests for ``mod``'s default ``bounded`` increment policy.

``bounded`` keeps Algorithm 4's per-level increments but, on graphs, drops
the gain records of deleted edges, lifts only the rise region reachable
from the inserted edges, and activates only lifted plus touched vertices
(docs/ALGORITHMS.md).  Random graphs and random mixed, deletion-only and
insertion-only batch sequences -- with new vertices, vertices isolated
and re-attached in one batch, and recycled dense ids -- run through the
bounded and the paper rule on both engines and on both the columnar and
the per-``Change`` path.  At every batch boundary:

* kappa(bounded) == kappa(paper) == peel;
* every vertex whose kappa rose was lifted;
* the array engine lifts exactly the dict engine's set: the support peel
  keeps the unique greatest support-closed subset of the rise region.
  The columnar path applies a batch's deletions before its insertions,
  so a vertex whose every old edge goes re-enters fresh (tau 0) there;
  its reference is the dict engine fed the batch in that order;
* a deletion-only batch lifts no vertex;

and a mid-batch fault under ``bounded`` -- during the structural pass or
after the lift -- rolls back to the exact pre-batch state.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.maintainer import make_maintainer
from repro.core.peel import peel
from repro.core.verify import verify_kappa
from repro.engine import ArrayGraph
from repro.graph.batch import Batch, BatchProtocol
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.generators import powerlaw_social
from repro.graph.substrate import edge_id, graph_edge_changes

N_BASE = 20          # labels of the starting graph
N_LABELS = 24        # labels 20..23 only ever enter as new vertices
KINDS = ("mixed", "delete", "insert")

#: (engine, policy, per-Change path forced)
CONFIGS = [
    ("dict", "bounded", True),
    ("dict", "paper", True),
    ("array", "bounded", False),
    ("array", "paper", False),
    ("array", "bounded", True),
    ("array", "paper", True),
]


def _no_fault(change, index):
    """A fault hook that never fires: it pins a batch to the per-Change path."""


def build(edges, engine, policy, per_change):
    g = DynamicGraph.from_edges(edges)
    sub = ArrayGraph.from_graph(g) if engine == "array" else g
    m = make_maintainer(sub, "mod", increment_policy=policy)
    assert m.engine == engine
    if per_change:
        m.fault_hook = _no_fault
    return m


def spy_lifts(m):
    """Record, per batch, the labels the bounded sweep lifts."""
    lifted = []
    backend = m.backend
    if backend.name == "array":
        rise_moves = backend._rise_moves

        def spy(resolution, sources):
            moves = rise_moves(resolution, sources)
            labels_of = m.sub.interner.labels_of
            lifted.append({lbl for ids, _, _ in moves for lbl in labels_of(ids.tolist())})
            return moves

        backend._rise_moves = spy
    else:
        rise_region = backend._rise_region

        def spy(resolution, sources):
            region = rise_region(resolution, sources)
            lifted.append(set(region))
            return region

        backend._rise_region = spy
    return lifted


def make_batch(g: DynamicGraph, kind: str, rng: random.Random) -> Batch:
    """A batch of ``kind`` against the current ``g`` (left unmodified).

    Deletions take random edges and, half the time, every edge of one
    vertex (it drops out and its dense id is freed); insertions join
    random pairs over all labels, new ones included, and in a mixed batch
    may re-attach the isolated vertex.  A mixed batch interleaves the two
    directions, and may delete and re-insert one edge."""
    present = sorted(g.edges())
    dels, ins = [], []
    isolated = None
    if kind != "insert" and present:
        dels = rng.sample(present, min(len(present), rng.randint(1, 4)))
        if rng.random() < 0.5:
            isolated = rng.choice(sorted(g.vertices()))
            dels += [edge_id(isolated, w) for w in sorted(g.neighbors(isolated))]
        dels = sorted(set(dels))
    if kind != "delete":
        for _ in range(rng.randint(1, 5)):
            u, v = rng.sample(range(N_LABELS), 2)
            ins.append(edge_id(u, v))
        if isolated is not None and kind == "mixed":
            for w in rng.sample(range(N_LABELS), 3):
                if w != isolated:
                    ins.append(edge_id(isolated, w))
        if kind == "mixed" and dels and rng.random() < 0.3:
            ins.append(dels[0])
        ins = [e for e in dict.fromkeys(ins) if e not in set(present) or e in dels]
    changes = []
    if kind == "mixed":
        ops = [(e, False) for e in dels] + [(e, True) for e in ins]
        rng.shuffle(ops)
        # a re-inserted edge must follow its deletion to take effect
        ops.sort(key=lambda op: op[1] and op[0] in dels)
    else:
        ops = [(e, False) for e in dels] + [(e, True) for e in ins]
    for e, insert in ops:
        changes.extend(graph_edge_changes(*e, insert))
    return Batch(changes)


def mirror(g: DynamicGraph, batch: Batch) -> None:
    for change in batch:
        g.apply(change)


@st.composite
def streams(draw):
    pairs = st.tuples(st.integers(0, N_BASE - 1), st.integers(0, N_BASE - 1))
    edges = sorted({edge_id(u, v) for u, v in draw(st.sets(pairs, max_size=70)) if u != v})
    plan = draw(st.lists(st.tuples(st.sampled_from(KINDS), st.integers(0, 2**16)),
                         min_size=1, max_size=4))
    return edges, plan


@given(data=streams())
@settings(max_examples=100, deadline=None)
def test_bounded_matches_paper_and_peel(data):
    edges, plan = data
    ref = DynamicGraph.from_edges(edges)
    ms = [build(edges, *cfg) for cfg in CONFIGS]
    lifts = {i: spy_lifts(m) for i, m in enumerate(ms) if m.increment_policy == "bounded"}
    reference = CONFIGS.index(("dict", "bounded", True))
    columnar = CONFIGS.index(("array", "bounded", False))
    deletions_first = build(edges, "dict", "bounded", True)
    reordered_lifts = spy_lifts(deletions_first)
    for kind, seed in plan:
        batch = make_batch(ref, kind, random.Random(seed))
        before = peel(ref)
        mirror(ref, batch)
        after = peel(ref)
        rose = {v for v, k in after.items() if k > before.get(v, 0)}
        columnar_before = ms[columnar].backend.columnar_batches
        for i, m in enumerate(ms):
            m.apply_batch(Batch(list(batch.changes)))
            assert m.kappa() == after, CONFIGS[i]
            if i in lifts:
                lifted = lifts[i][-1]
                assert rose <= lifted, (CONFIGS[i], rose - lifted)
                if kind == "delete":
                    assert not lifted, CONFIGS[i]
        deletions_first.apply_batch(Batch(sorted(batch.changes, key=lambda c: c.insert)))
        assert deletions_first.kappa() == after
        for i in lifts:
            same = lifts[reference][-1]
            if i == columnar and ms[i].backend.columnar_batches > columnar_before:
                same = reordered_lifts[-1]
            assert lifts[i][-1] == same, (CONFIGS[i], lifts[i][-1] ^ same)


def _state(m):
    ids = None
    if m.backend.name == "array":
        ta = m.backend.tau_array
        labels = sorted(m.tau)
        ids = m.sub.interner.ids_of(labels)
        assert (ids >= 0).all() and ta.live[ids].all()
        ids = dict(zip(labels, ta.arr[ids].tolist()))
    return (
        sorted(m.sub.edges()),
        dict(m.tau),
        {k: set(m.vertices_at_level(k)) for k in m.levels()},
        ids,
    )


class _Boom(RuntimeError):
    pass


@pytest.mark.parametrize("engine", ["dict", "array"])
@given(data=streams(), at=st.integers(0, 40), after_lift=st.booleans())
@settings(max_examples=30, deadline=None)
def test_bounded_fault_rolls_back(engine, data, at, after_lift):
    edges, plan = data
    ref = DynamicGraph.from_edges(edges)
    m = build(edges, engine, "bounded", False)
    for kind, seed in plan:
        batch = make_batch(ref, kind, random.Random(seed))
        state0 = _state(m)
        if after_lift or not len(batch):
            # the lift has been written when convergence starts
            def boom(*args, **kwargs):
                raise _Boom("injected after the lift")

            if engine == "array":
                m.backend._converge_ids = boom
            else:
                m.backend.converge = boom
        else:
            def hook(change, index):
                if index == at % len(batch):
                    raise _Boom("injected mid-batch")

            m.fault_hook = hook
        with pytest.raises(_Boom):
            m.apply_batch(Batch(list(batch.changes)))
        m.fault_hook = None
        vars(m.backend).pop("_converge_ids", None)
        vars(m.backend).pop("converge", None)
        assert _state(m) == state0
        # the rolled-back maintainer takes the same batch cleanly
        m.apply_batch(Batch(list(batch.changes)))
        mirror(ref, batch)
        assert m.kappa() == peel(ref)


@pytest.mark.parametrize("engine", ["dict", "array"])
def test_bounded_lifts_less_on_protocol_stream(engine):
    """On a power-law graph the bounded rule lifts nothing for deletions
    and fewer vertices than the paper rule's whole levels for insertions,
    takes the columnar path on the array engine, and stays oracle-exact."""
    base = powerlaw_social(400, 6, seed=3)
    bounded, paper = (
        make_maintainer(ArrayGraph.from_graph(base) if engine == "array" else base.copy(),
                        "mod", increment_policy=policy)
        for policy in ("bounded", "paper")
    )
    lifted = spy_lifts(bounded)
    proto = BatchProtocol(base.copy(), seed=4)
    for _ in range(3):
        deletion, insertion = proto.remove_reinsert(25)
        for batch in (deletion, insertion):
            levels = {k: len(paper.vertices_at_level(k)) for k in paper.levels()}
            for m in (bounded, paper):
                m.apply_batch(batch)
                verify_kappa(m)
            assert bounded.kappa() == paper.kappa()
            paper_lift = sum(n for k, n in levels.items()
                             if paper.last_resolution.increment(k) > 0)
            if batch is deletion:
                assert lifted[-1] == set() and paper_lift > 0
            else:
                assert 0 < len(lifted[-1]) < paper_lift
    if engine == "array":
        assert bounded.backend.columnar_batches == 6


def test_peel_lifts_a_fraction_of_the_rise_region_on_a_served_stream(monkeypatch):
    """Served-size batches (``mixed(16)`` rounds on 10,000 vertices): the
    rise region holds thousands of vertices per insertion-carrying batch,
    few of which rise.  The support peel lifts at most a quarter of it
    in total; lifting the whole region is what the peel replaces."""
    import repro.core.backend

    base = powerlaw_social(10_000, 12, seed=1)
    m = make_maintainer(ArrayGraph.from_graph(base), "mod")
    regions = []
    rise_region_csr = repro.core.backend.rise_region_csr

    def spy(*args, **kwargs):
        region = rise_region_csr(*args, **kwargs)
        regions.append(len(region))
        return region

    monkeypatch.setattr(repro.core.backend, "rise_region_csr", spy)
    lifted = spy_lifts(m)
    proto = BatchProtocol(base.copy(), seed=2)
    for _ in range(6):
        for batch in proto.mixed(16):
            m.apply_batch(batch)
    assert m.kappa() == peel(m.sub)
    assert len(lifted) == len(regions) > 0
    assert sum(regions) > 1000 * len(regions)
    assert 4 * sum(map(len, lifted)) <= sum(regions), (sum(map(len, lifted)), sum(regions))
