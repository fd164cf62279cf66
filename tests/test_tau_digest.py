"""The running tau digest replication stamps read.

A :class:`~repro.replication.shipment.TauDigest` attached to a
maintainer (``tau_digest``) is folded from each committed batch's
first-seen-old delta at the commit point.  These tests hold it to
``tau_fingerprint(tau)`` after every committed batch, with no re-seed in
between, for every algorithm on every engine and substrate it supports:
through rolled-back batches, vertices leaving and re-entering the
decomposition, and ids recycled on the array substrates.  The
replicated tests cover quarantined batches, ``heal()`` and the
checkpoint audit's re-seed points.
"""

from __future__ import annotations

import pytest

from repro.core.maintainer import ALGORITHMS, CoreMaintainer, make_maintainer
from repro.core.peel import peel
from repro.engine import ArrayGraph, ArrayHypergraph
from repro.graph.batch import Batch, BatchProtocol
from repro.graph.dynamic_hypergraph import DynamicHypergraph
from repro.graph.generators import erdos_renyi
from repro.graph.substrate import Change, graph_edge_changes
from repro.replication import TauDigest, tau_fingerprint
from repro.resilience import FaultInjector, FaultPlan

_HYPEREDGES = {
    "a": [1, 2, 3], "b": [2, 3, 4], "c": [1, 3, 4], "d": [1, 2, 4],
    "e": [4, 5], "f": [5, 6, 7], "g": [6, 7, 8], "h": [7, 8, 9],
    "i": [1, 5, 9], "j": [2, 6, 8],
}

_SUBSTRATES = {
    "graph": lambda: erdos_renyi(20, 40, seed=1),
    "array-graph": lambda: ArrayGraph.from_graph(erdos_renyi(20, 40, seed=1)),
    "hyper": lambda: DynamicHypergraph.from_hyperedges(_HYPEREDGES),
    "array-hyper": lambda: ArrayHypergraph.from_hypergraph(
        DynamicHypergraph.from_hyperedges(_HYPEREDGES)),
}
#: (substrate, forced engine): the array substrates run both engines
_CONFIGS = [("graph", "auto"), ("array-graph", "auto"), ("array-graph", "dict"),
            ("hyper", "auto"), ("array-hyper", "auto"), ("array-hyper", "dict")]
#: every algorithm on every configuration it supports (the traversal
#: baselines are defined for graphs only)
_CASES = [
    pytest.param(a, k, e, id=f"{a}-{k}-{e}")
    for a in sorted(ALGORITHMS) for k, e in _CONFIGS
    if not (k.endswith("hyper") and a in ("traversal", "order"))
]


class _Boom(RuntimeError):
    pass


def _leave_and_reenter(sub):
    """Batches that take the lowest-degree vertex out of the
    decomposition, bring a new label in (on an array substrate it takes
    the freed id) and put the vertex back."""
    x = min(sub.vertices(), key=lambda v: (sub.degree(v), repr(v)))
    if sub.is_hypergraph:
        units = [Change(e, x, False) for e in sorted(sub.incident(x), key=repr)]
        others = sorted((w for w in sub.vertices() if w != x), key=repr)[:2]
        enter = [Change("new", 100, True)] + [Change("new", w, True) for w in others]
        leave_new = [c.inverse() for c in enter]
    else:
        nbrs = sorted(sub.neighbors(x), key=repr)
        units = [c for w in nbrs for c in graph_edge_changes(x, w, False)]
        enter = [c for w in nbrs[:2] for c in graph_edge_changes(100, w, True)]
        leave_new = [c.inverse() for c in enter]
    back = [c.inverse() for c in units]
    return [Batch(units), Batch(enter), Batch(back + leave_new)]


def _stream(sub, seed=3):
    proto = BatchProtocol(sub, seed=seed)
    size = 3 if not sub.is_hypergraph else 4
    yield from proto.mixed(size)
    yield from proto.remove_reinsert(size)
    yield from _leave_and_reenter(sub)
    yield from proto.mixed(size)


def _assert_current(m, digest):
    seeded = digest.entries
    assert digest.value(m.tau) == tau_fingerprint(m.tau)
    assert digest.entries == seeded, "the digest re-seeded instead of folding"


@pytest.mark.parametrize("algorithm,kind,engine", _CASES)
def test_digest_equals_fingerprint_after_every_batch(algorithm, kind, engine):
    m = make_maintainer(_SUBSTRATES[kind](), algorithm, engine=engine)
    digest = m.tau_digest = TauDigest()
    digest.value(m.tau)                       # seed once
    for i, batch in enumerate(list(_stream(m.sub))):
        if i % 3 == 1 and len(batch) > 1:
            # a mid-batch fault: the batch rolls back and folds nothing
            def hook(change, k):
                if k == 1:
                    raise _Boom("mid-batch fault")
            m.fault_hook = hook
            with pytest.raises(_Boom):
                m.apply_batch(batch)
            m.fault_hook = None
            _assert_current(m, digest)
        m.apply_batch(batch)
        _assert_current(m, digest)
    assert m.kappa() == peel(m.sub) or algorithm == "mod-approx"


def test_digest_after_a_flush_outside_a_batch():
    """``mod-approx``'s ``flush()`` converges outside any batch: it
    invalidates the digest, and the next read re-seeds it."""
    m = make_maintainer(erdos_renyi(40, 120, seed=2), "mod-approx",
                        iteration_budget=1)
    digest = m.tau_digest = TauDigest()
    digest.value(m.tau)
    proto = BatchProtocol(m.sub, seed=0)
    for _ in range(3):
        for b in proto.remove_reinsert(10):
            m.apply_batch(b)
            _assert_current(m, digest)
    assert not m.is_exact
    m.flush()
    assert digest.value(m.tau) == tau_fingerprint(m.tau)
    assert m.kappa() == peel(m.sub)


def test_fold_entries_count_only_changed_values():
    tau = {1: 2, 2: 2, 3: 1}
    digest = TauDigest()
    digest.value(tau)
    assert digest.entries == 3
    tau[3] = 2                     # changed: out 3=1, in 3=2
    tau[4] = 1                     # entered: in 4=1
    del tau[1]                     # left: out 1=2
    digest.fold({3: 1, 4: None, 1: 2, 2: 2}, tau)   # 2 was written back to 2
    assert digest.entries == 3 + 4
    assert digest.value(tau) == tau_fingerprint(tau)


@pytest.mark.parametrize("engine", ["dict", "array"])
def test_replicated_digests_through_quarantine_and_heal(tmp_path, engine):
    """A quarantined batch folds nothing; a heal swaps the algorithm
    instance, and the primary re-attaches and re-seeds at its next stamp.
    Every shipment is stamped and checked against the standby's digest,
    and each checkpoint audits both sides in full."""
    g = erdos_renyi(60, 180, seed=4)
    sub = ArrayGraph.from_graph(g) if engine == "array" else g
    m = CoreMaintainer(
        sub, algorithm="mod", engine=engine,
        resilient=True, max_retries=0,
        durable=str(tmp_path / "primary"), durability={"checkpoint_every": 3},
        replicas=1, replication={"divergence_every": 1},
    )
    rm = m.impl
    proto = BatchProtocol(m.sub, seed=5)
    batches = [b for _ in range(4) for b in proto.remove_reinsert(6)]
    inj = FaultInjector(m, [FaultPlan.raise_at(batch=2, change=1, transient=False)])
    reports = []
    for i, b in enumerate(batches):
        reports.append(inj.apply_batch(b))
        if i == 4:
            rm.impl.impl.heal()
        inner = rm._inner_algorithm()
        assert inner.tau_digest is rm._digest or i == 4
        assert rm._digest.value(inner.tau) == tau_fingerprint(inner.tau)
    assert reports[2].status == "quarantined"
    m.sync_replicas()
    replica = rm.replicas[0]
    assert tau_fingerprint(replica.tau) == tau_fingerprint(rm._inner_algorithm().tau)
    assert replica.stats["hash_checks"] >= len(batches) - 1
    assert rm.stats["hash_stamps"] == rm.stats["shipments"]
