"""The load-bearing integration suite: every maintenance algorithm must
match the independent peeling oracle after every batch, across substrates,
change directions, and execution backends.

This mirrors the paper's own methodology ("We checked correctness against
Ligra", Section V) with peeling as our Ligra stand-in.
"""

from __future__ import annotations

import pytest

from repro.core.maintainer import ALGORITHMS, make_maintainer
from repro.core.verify import verify_kappa
from repro.graph.batch import BatchProtocol
from repro.graph.generators import (
    affiliation_hypergraph,
    cooccurrence_hypergraph,
    erdos_renyi,
    powerlaw_social,
    rmat,
)
from repro.parallel.runtime import SerialRuntime
from repro.parallel.simulated import SimulatedRuntime
from repro.parallel.threads import ThreadRuntime

# mod's increment-policy axis: the plain ``mod`` id runs the default
# (``bounded``) rule and ``mod-paper`` pins Algorithm 4 as printed
GRAPH_ALGOS = ["mod", "mod-paper", "set", "setmb", "hybrid", "traversal", "order"]
HYPER_ALGOS = ["mod", "mod-paper", "set", "setmb", "hybrid"]
ROUNDS = 3


def maintainer_for(sub, case, rt=None, **kwargs):
    """``make_maintainer`` for an algorithm id of this suite."""
    if case == "mod-paper":
        return make_maintainer(sub, "mod", rt, increment_policy="paper", **kwargs)
    return make_maintainer(sub, case, rt, **kwargs)


def graph_for(seed: int):
    return [
        erdos_renyi(100, 300, seed=seed),
        powerlaw_social(150, 8, seed=seed),
        rmat(7, 4, seed=seed),
    ][seed % 3]


def hypergraph_for(seed: int):
    return [
        affiliation_hypergraph(70, 110, 4.0, seed=seed),
        cooccurrence_hypergraph(80, 60, 4, seed=seed),
    ][seed % 2]


@pytest.mark.parametrize("algorithm", GRAPH_ALGOS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_graph_remove_reinsert(algorithm, seed):
    g = graph_for(seed)
    m = maintainer_for(g, algorithm)
    proto = BatchProtocol(g, seed=seed + 10)
    for _ in range(ROUNDS):
        deletion, insertion = proto.remove_reinsert(15)
        m.apply_batch(deletion)
        verify_kappa(m)
        m.apply_batch(insertion)
        verify_kappa(m)


@pytest.mark.parametrize("algorithm", HYPER_ALGOS)
@pytest.mark.parametrize("seed", [0, 1])
def test_hypergraph_pin_remove_reinsert(algorithm, seed):
    h = hypergraph_for(seed)
    m = maintainer_for(h, algorithm)
    proto = BatchProtocol(h, seed=seed + 20)
    for _ in range(ROUNDS):
        deletion, insertion = proto.remove_reinsert(12)
        m.apply_batch(deletion)
        verify_kappa(m)
        m.apply_batch(insertion)
        verify_kappa(m)


@pytest.mark.parametrize("algorithm", ["mod", "mod-paper", "set", "setmb", "hybrid"])
def test_graph_mixed_batches(algorithm):
    g = powerlaw_social(140, 7, seed=4)
    m = maintainer_for(g, algorithm)
    proto = BatchProtocol(g, seed=5)
    for _ in range(ROUNDS):
        prep, mixed, restore = proto.mixed(10)
        m.apply_batch(prep)
        m.apply_batch(mixed)
        verify_kappa(m)
        m.apply_batch(restore)
        verify_kappa(m)


@pytest.mark.parametrize("algorithm", ["mod", "mod-paper", "setmb"])
def test_hypergraph_mixed_pin_batches(algorithm):
    h = affiliation_hypergraph(60, 100, 4.0, seed=6)
    m = maintainer_for(h, algorithm)
    proto = BatchProtocol(h, seed=7)
    for _ in range(ROUNDS):
        prep, mixed, restore = proto.mixed(8)
        m.apply_batch(prep)
        m.apply_batch(mixed)
        verify_kappa(m)
        m.apply_batch(restore)
        verify_kappa(m)


@pytest.mark.usefixtures("dispatch_every_region")
@pytest.mark.parametrize("make_rt", [
    pytest.param(lambda: SerialRuntime(), id="serial"),
    pytest.param(lambda: SimulatedRuntime(thread_counts=(1, 2, 4)), id="simulated"),
    pytest.param(lambda: ThreadRuntime(threads=4), id="threads"),
])
@pytest.mark.parametrize("algorithm", ["mod", "mod-paper", "setmb"])
def test_backend_independence(make_rt, algorithm):
    """Results must be identical under serial, simulated and real-thread
    execution -- the substitution argument of DESIGN.md rests on this."""
    g = powerlaw_social(120, 7, seed=8)
    rt = make_rt()
    m = maintainer_for(g, algorithm, rt)
    proto = BatchProtocol(g, seed=9)
    for _ in range(2):
        deletion, insertion = proto.remove_reinsert(20)
        m.apply_batch(deletion)
        verify_kappa(m)
        m.apply_batch(insertion)
        verify_kappa(m)
    if hasattr(rt, "close"):
        rt.close()


@pytest.mark.parametrize("algorithm", ["mod", "mod-paper", "setmb"])
def test_hyperedge_level_streams(algorithm):
    """The paper's whole-hyperedge stream model (simulated via batch
    boundaries at full hyperedges, §II-C) must be oracle-exact too."""
    h = affiliation_hypergraph(60, 90, 4.0, seed=9)
    m = maintainer_for(h, algorithm)
    proto = BatchProtocol(h, seed=10, hyperedge_level=True)
    for _ in range(ROUNDS):
        deletion, insertion = proto.remove_reinsert(5)
        m.apply_batch(deletion)
        verify_kappa(m)
        m.apply_batch(insertion)
        verify_kappa(m)


@pytest.mark.parametrize("algorithm", ["mod", "mod-paper", "set"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_array_engine_matches_oracle_and_dict(algorithm, seed):
    """The flat-array engine must agree with the peeling oracle *and* with
    the dict engine over the same randomised mixed stream -- the two
    sweeps (synchronous array, asynchronous dict) share one fixpoint."""
    from repro.engine import ArrayGraph

    g_dict = graph_for(seed)
    g_arr = ArrayGraph.from_graph(g_dict.copy())
    m_dict = maintainer_for(g_dict, algorithm, engine="dict")
    m_arr = maintainer_for(g_arr, algorithm, engine="array")
    assert m_dict.engine == "dict" and m_arr.engine == "array"
    proto = BatchProtocol(g_dict, seed=seed + 30)
    for _ in range(ROUNDS):
        prep, mixed, restore = proto.mixed(12)
        for batch in (prep, mixed, restore):
            m_dict.apply_batch(batch)
            m_arr.apply_batch(batch)
            verify_kappa(m_arr)
            assert m_arr.kappa() == m_dict.kappa()


@pytest.mark.parametrize("algorithm", GRAPH_ALGOS)
def test_array_engine_remove_reinsert(algorithm):
    """Every graph algorithm stays oracle-exact on the array engine."""
    from repro.engine import ArrayGraph

    g = ArrayGraph.from_graph(powerlaw_social(130, 7, seed=13))
    m = maintainer_for(g, algorithm)
    assert m.engine == "array"
    proto = BatchProtocol(g, seed=14)
    for _ in range(ROUNDS):
        deletion, insertion = proto.remove_reinsert(15)
        m.apply_batch(deletion)
        verify_kappa(m)
        m.apply_batch(insertion)
        verify_kappa(m)


@pytest.mark.parametrize("algorithm", HYPER_ALGOS)
@pytest.mark.parametrize("seed", [0, 1])
def test_array_hypergraph_matches_oracle_and_dict(algorithm, seed):
    """The hypergraph array engine (incidence pools + min-tau shadow) must
    agree with the peeling oracle *and* with the dict engine over the same
    randomised mixed pin stream."""
    from repro.engine import ArrayHypergraph

    h_dict = hypergraph_for(seed)
    h_arr = ArrayHypergraph.from_hypergraph(h_dict)
    m_dict = maintainer_for(h_dict, algorithm, engine="dict")
    m_arr = maintainer_for(h_arr, algorithm, engine="array")
    assert m_dict.engine == "dict" and m_arr.engine == "array"
    proto = BatchProtocol(h_dict, seed=seed + 40)
    for _ in range(ROUNDS):
        prep, mixed, restore = proto.mixed(10)
        for batch in (prep, mixed, restore):
            m_dict.apply_batch(batch)
            m_arr.apply_batch(batch)
            verify_kappa(m_arr)
            assert m_arr.kappa() == m_dict.kappa()


@pytest.mark.parametrize("algorithm", HYPER_ALGOS)
def test_array_hypergraph_remove_reinsert(algorithm):
    """Every hypergraph algorithm stays oracle-exact on the array engine."""
    from repro.engine import ArrayHypergraph

    h = ArrayHypergraph.from_hypergraph(affiliation_hypergraph(70, 110, 4.0, seed=15))
    m = maintainer_for(h, algorithm)
    assert m.engine == "array"
    proto = BatchProtocol(h, seed=16)
    for _ in range(ROUNDS):
        deletion, insertion = proto.remove_reinsert(12)
        m.apply_batch(deletion)
        verify_kappa(m)
        m.apply_batch(insertion)
        verify_kappa(m)


# -- real-thread execution: oracle equivalence and bit-determinism -----------
#
# The thread backend dispatches the engine's chunk kernels to a real pool
# (parallel_map_ranges).  The kernels are Jacobi-style -- read a shared
# snapshot, write a disjoint output slice -- so the results must be
# *bit-identical* to serial execution at any thread count, not merely
# oracle-correct.  CI's threaded lane selects the threads2 params.

THREAD_SWEEP = [1, 2, 4]


def _columnarize(batch, is_hyper):
    from repro.graph.columnar import ColumnarBatch

    cb = ColumnarBatch.from_batch(batch, is_hyper=is_hyper)
    assert cb is not None, "protocol batch failed to columnarise"
    return cb


#: (columnar, mod case) -- the plain ids run the default policy
THREADED_CASES = [
    pytest.param(False, "mod", id="array"),
    pytest.param(True, "mod", id="columnar"),
    pytest.param(False, "mod-paper", id="array-paper"),
    pytest.param(True, "mod-paper", id="columnar-paper"),
]


@pytest.mark.usefixtures("dispatch_every_region")
@pytest.mark.parametrize("threads", THREAD_SWEEP, ids=lambda t: f"threads{t}")
@pytest.mark.parametrize("columnar,algorithm", THREADED_CASES)
def test_threaded_graph_matches_oracle(threads, columnar, algorithm):
    from repro.engine import ArrayGraph

    g = ArrayGraph.from_graph(powerlaw_social(150, 8, seed=21))
    with ThreadRuntime(threads=threads) as rt:
        m = maintainer_for(g, algorithm, rt, engine="array")
        proto = BatchProtocol(g, seed=22)
        for _ in range(2):
            deletion, insertion = proto.remove_reinsert(20)
            for batch in (deletion, insertion):
                if columnar:
                    batch = _columnarize(batch, False)
                m.apply_batch(batch)
                verify_kappa(m)
        if columnar:
            assert m.backend.columnar_batches > 0


@pytest.mark.usefixtures("dispatch_every_region")
@pytest.mark.parametrize("threads", THREAD_SWEEP, ids=lambda t: f"threads{t}")
@pytest.mark.parametrize("columnar,algorithm", THREADED_CASES)
def test_threaded_hypergraph_matches_oracle(threads, columnar, algorithm):
    from repro.engine import ArrayHypergraph

    h = ArrayHypergraph.from_hypergraph(affiliation_hypergraph(70, 110, 4.0, seed=23))
    with ThreadRuntime(threads=threads) as rt:
        m = maintainer_for(h, algorithm, rt, engine="array")
        proto = BatchProtocol(h, seed=24)
        for _ in range(2):
            deletion, insertion = proto.remove_reinsert(12)
            for batch in (deletion, insertion):
                if columnar:
                    batch = _columnarize(batch, True)
                m.apply_batch(batch)
                verify_kappa(m)
        if columnar:
            assert m.backend.columnar_batches > 0


@pytest.mark.usefixtures("dispatch_every_region")
@pytest.mark.parametrize("make_sub,algorithm", [
    pytest.param(lambda: powerlaw_social(400, 7, seed=31), "mod", id="graph"),
    pytest.param(lambda: affiliation_hypergraph(120, 200, 4.0, seed=31), "mod",
                 id="hypergraph"),
    pytest.param(lambda: powerlaw_social(400, 7, seed=31), "mod-paper",
                 id="graph-paper"),
])
def test_threaded_bit_determinism(make_sub, algorithm):
    """tau must be *bit-identical* -- not merely oracle-correct -- across
    every thread count, because the chunk kernels are Jacobi (shared
    read-only snapshot in, disjoint output slice out)."""
    from repro.engine import ArrayGraph, ArrayHypergraph

    def run(rt):
        base = make_sub()
        sub = (ArrayHypergraph.from_hypergraph(base)
               if getattr(base, "is_hypergraph", False)
               else ArrayGraph.from_graph(base))
        m = maintainer_for(sub, algorithm, rt, engine="array")
        proto = BatchProtocol(sub, seed=32)
        for _ in range(2):
            deletion, insertion = proto.remove_reinsert(30)
            m.apply_batch(deletion)
            m.apply_batch(insertion)
        return dict(m.tau), m.kappa()

    ref_tau, ref_kappa = run(SerialRuntime())
    for t in (1, 2, 4, 8):
        with ThreadRuntime(threads=t) as rt:
            tau, kappa = run(rt)
        assert tau == ref_tau, f"tau diverged at threads={t}"
        assert kappa == ref_kappa, f"kappa diverged at threads={t}"


@pytest.mark.usefixtures("dispatch_every_region")
def test_shadow_refresh_bit_determinism():
    """The min-shadow refresh is a chunk kernel over disjoint slices of the
    distinct edges: on real threads it must split, and leave m1, m2 and
    the witness bit-identical to a serial refresh -- on tau with many
    ties, where the witness is the first pin holding the minimum."""
    import numpy as np

    from repro.engine import ArrayHypergraph
    from repro.engine.tau_array import EdgeMinShadow, TauArray

    h = ArrayHypergraph.from_hypergraph(affiliation_hypergraph(120, 200, 4.0, seed=31))
    ids = h.live_ids()
    values = np.random.default_rng(33).integers(0, 4, len(ids))
    edges = np.sort(h.live_edge_ids())
    columns = ("m1", "m2", "witness", "valid")

    def refreshed(rt):
        ta = TauArray()
        ta.bulk_set(ids, values)
        shadow = EdgeMinShadow(h, ta)
        assert shadow.refresh_distinct(edges, rt) == h.num_pins()
        return [getattr(shadow, c).copy() for c in columns]

    def seeded(rt):
        m = make_maintainer(ArrayHypergraph.from_hypergraph(h), "mod", rt,
                            engine="array")
        return [getattr(m.backend.edge_shadow, c).copy() for c in columns]

    ref, ref_seed = refreshed(SerialRuntime()), seeded(SerialRuntime())
    for t in (2, 4):
        with ThreadRuntime(threads=t) as rt:
            got = refreshed(rt)
            assert rt.region_counts["shadow_refresh"] == 1
            assert rt.region_chunks["shadow_refresh"] > 1
        with ThreadRuntime(threads=t) as rt:
            # the decompose sweep dispatches its refreshes the same way
            got_seed = seeded(rt)
            assert rt.region_chunks["shadow_refresh"] > rt.region_counts["shadow_refresh"] > 0
        for name, a, b, c, d in zip(columns, got, ref, got_seed, ref_seed):
            assert np.array_equal(a, b), f"{name} diverged at threads={t}"
            assert np.array_equal(c, d), f"seeded {name} diverged at threads={t}"


@pytest.mark.usefixtures("dispatch_every_region")
def test_rise_peel_bit_determinism():
    """The support peel of the bounded rule's rise region counts support
    and gathers each round's removed vertices as chunk kernels over
    disjoint slices, and merges the decrements serially: on real threads
    its regions must split, and the lifted sets must equal a serial
    run's, batch by batch."""
    from repro.engine import ArrayGraph

    def run(rt):
        sub = ArrayGraph.from_graph(powerlaw_social(400, 7, seed=31))
        m = maintainer_for(sub, "mod", rt, engine="array")
        lifted = []
        rise_moves = m.backend._rise_moves

        def spy(resolution, sources):
            moves = rise_moves(resolution, sources)
            lifted.append(sorted(i for ids, _, _ in moves for i in ids.tolist()))
            return moves

        m.backend._rise_moves = spy
        proto = BatchProtocol(sub, seed=32)
        for _ in range(2):
            for batch in proto.remove_reinsert(30):
                m.apply_batch(batch)
        verify_kappa(m)
        return lifted, dict(m.tau)

    ref_lifted, ref_tau = run(SerialRuntime())
    assert any(ref_lifted)
    for t in (2, 4):
        with ThreadRuntime(threads=t) as rt:
            lifted, tau = run(rt)
            assert rt.region_chunks["rise_peel"] > rt.region_counts["rise_peel"] > 0
        assert lifted == ref_lifted, f"lifted sets diverged at threads={t}"
        assert tau == ref_tau, f"tau diverged at threads={t}"


# -- sharded distributed execution: κ == peeling at every batch boundary ------
#
# The distributed maintainer cuts the substrate into per-node shards
# (owned vertices + ghost halo ring) at construction and never mutates
# the caller's graph, so the oracle side mirror-applies each batch.

DIST_MATRIX = [(p, n) for p in ("hash", "degree_balanced", "edge_cut")
               for n in (2, 4, 8)]


def _mirror(sub, batch):
    for change in batch:
        sub.apply(change)


@pytest.mark.parametrize("partitioner,nodes", DIST_MATRIX)
def test_sharded_graph_matches_peeling(partitioner, nodes):
    from repro.core.peel import peel
    from repro.core.verify import diff_kappa
    from repro.distributed import ClusterSpec, DistributedModMaintainer

    g = powerlaw_social(110, 6, seed=41)
    m = DistributedModMaintainer(g, ClusterSpec(nodes=nodes),
                                 partitioner=partitioner)
    proto = BatchProtocol(g, seed=42)
    for _ in range(2):
        deletion, insertion = proto.remove_reinsert(12)
        m.apply_batch(deletion)
        _mirror(g, deletion)
        assert diff_kappa(m.kappa(), peel(g)) == []
        m.apply_batch(insertion)
        _mirror(g, insertion)
        assert diff_kappa(m.kappa(), peel(g)) == []


@pytest.mark.parametrize("partitioner,nodes", DIST_MATRIX)
def test_sharded_hypergraph_matches_peeling(partitioner, nodes):
    from repro.core.peel import peel
    from repro.core.verify import diff_kappa
    from repro.distributed import ClusterSpec, DistributedModMaintainer

    h = affiliation_hypergraph(60, 90, 4.0, seed=43)
    m = DistributedModMaintainer(h, ClusterSpec(nodes=nodes),
                                 partitioner=partitioner)
    proto = BatchProtocol(h, seed=44)
    for _ in range(2):
        deletion, insertion = proto.remove_reinsert(10)
        m.apply_batch(deletion)
        _mirror(h, deletion)
        assert diff_kappa(m.kappa(), peel(h)) == []
        m.apply_batch(insertion)
        _mirror(h, insertion)
        assert diff_kappa(m.kappa(), peel(h)) == []


def test_all_algorithms_registered():
    assert set(ALGORITHMS) == {
        "mod", "set", "setmb", "hybrid", "traversal", "order", "mod-approx",
    }


@pytest.mark.parametrize("algorithm", GRAPH_ALGOS)
def test_algorithms_agree_with_each_other(algorithm):
    """Beyond the oracle: all maintainers end at the same kappa for the
    same stream."""
    g0 = powerlaw_social(100, 6, seed=11)
    reference = None
    g = g0.copy()
    m = maintainer_for(g, algorithm)
    proto = BatchProtocol(g, seed=12)
    deletion, insertion = proto.remove_reinsert(10)
    m.apply_batch(deletion)
    m.apply_batch(insertion)
    kappa = m.kappa()
    from repro.core.peel import peel

    assert kappa == peel(g0)  # stream restored the graph exactly
