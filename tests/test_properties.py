"""Hypothesis property tests over randomly generated DAGs.

Random graphs exercise the structural invariants the hand-written graphs
cannot: arbitrary branching, skip connections, and joins.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import brute_force as oracle
from repro.graph.builder import GraphBuilder
from repro.graph.partitioner import GraphPartitioner
from repro.nn.executor import GraphExecutor, SegmentExecutor
from repro.nn.parallel import ParallelConfig
from repro.nn.plan import GraphPlan
from tests.helpers import brute_force


@st.composite
def random_dag(draw):
    """A random small NCHW DAG built from shape-preserving ops."""
    rng_seed = draw(st.integers(0, 2**31))
    n_nodes = draw(st.integers(2, 14))
    channels = draw(st.sampled_from([2, 4, 8]))
    size = draw(st.sampled_from([4, 6, 8]))
    rng = np.random.default_rng(rng_seed)

    b = GraphBuilder(f"rand{rng_seed}", (1, channels, size, size))
    produced = [b.input]
    for i in range(n_nodes):
        kind = rng.choice(["conv", "relu", "bn", "add", "sigmoid"])
        src = produced[int(rng.integers(0, len(produced)))]
        if kind == "conv":
            name = b.conv(src, channels, kernel=3, padding=1, name=f"conv{i}")
        elif kind == "relu":
            name = b.relu(src, name=f"relu{i}")
        elif kind == "bn":
            name = b.batchnorm(src, name=f"bn{i}")
        elif kind == "sigmoid":
            name = b.sigmoid(src, name=f"sig{i}")
        else:
            other = produced[int(rng.integers(0, len(produced)))]
            if other == src:
                name = b.relu(src, name=f"relu{i}")
            else:
                name = b.add(src, other, name=f"add{i}")
        produced.append(name)

    # Join every loose end so the graph has a single output and no dead nodes.
    graph = b.graph
    consumers = graph.consumers()
    loose = [n for n in graph.nodes if not consumers[n]]
    while len(loose) > 1:
        a, c = loose[0], loose[1]
        joined = b.add(a, c, name=f"join_{a}_{c}")
        loose = [joined] + loose[2:]
    if not consumers[b.input] :
        pass  # input always consumed: first node uses it
    b.output(loose[0])
    return b.build()


class TestGraphInvariants:
    @given(graph=random_dag())
    @settings(max_examples=40, deadline=None)
    def test_topological_order_respects_edges(self, graph):
        order = graph.topological_order()
        assert sorted(order) == sorted(graph.nodes)
        pos = {name: i for i, name in enumerate(order)}
        for node in graph.nodes.values():
            for dep in node.inputs:
                if dep != graph.input_name:
                    assert pos[dep] < pos[node.name]

    @given(graph=random_dag())
    @settings(max_examples=40, deadline=None)
    def test_cut_sizes_well_formed(self, graph):
        sizes = graph.transmission_sizes()
        assert len(sizes) == len(graph) + 1
        assert sizes[0] == graph.input_spec.nbytes
        assert sizes[-1] == 0
        assert all(s >= 0 for s in sizes)

    @given(graph=random_dag())
    @settings(max_examples=40, deadline=None)
    def test_cut_crossing_is_exact(self, graph):
        """Every crossing tensor is consumed by the tail; nothing else is."""
        order = graph.topological_order()
        cuts = graph.cuts()
        for cut in cuts:
            head = set(order[: cut.index]) | {graph.input_name}
            tail = set(order[cut.index:])
            needed = set()
            for name in tail:
                for dep in graph.node(name).inputs:
                    if dep in head:
                        needed.add(dep)
            assert set(cut.crossing) == needed

    @given(graph=random_dag(), point_frac=st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_partition_segments_cover_graph(self, graph, point_frac):
        partitioner = GraphPartitioner(graph)
        p = round(point_frac * len(graph))
        part = partitioner.partition(p)
        head = {n.name for n in part.head.compute_nodes}
        tail = {n.name for n in part.tail.compute_nodes}
        assert head | tail == set(graph.nodes)
        assert not head & tail


class TestSerialisationRoundTrip:
    @given(graph=random_dag())
    @settings(max_examples=30, deadline=None)
    def test_json_round_trip_preserves_structure(self, graph):
        from repro.graph.serialize import graph_from_json, graph_to_json

        restored = graph_from_json(graph_to_json(graph))
        assert restored.topological_order() == graph.topological_order()
        assert restored.transmission_sizes() == graph.transmission_sizes()
        assert restored.total_flops() == graph.total_flops()
        for name in graph.nodes:
            assert restored.node(name).output == graph.node(name).output

    @given(graph=random_dag(), seed=st.integers(0, 500))
    @settings(max_examples=15, deadline=None)
    def test_round_tripped_graph_executes_identically(self, graph, seed):
        from repro.graph.serialize import graph_from_json, graph_to_json

        restored = graph_from_json(graph_to_json(graph))
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(graph.input_spec.shape).astype(np.float32)
        a = GraphExecutor(graph, seed=seed).run(x)
        b = GraphExecutor(restored, seed=seed).run(x)
        np.testing.assert_array_equal(a, b)


class TestExecutionEquivalence:
    @given(graph=random_dag(), point_frac=st.floats(0.0, 1.0), seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_partitioned_execution_matches(self, graph, point_frac, seed):
        """The headline invariant on arbitrary DAGs."""
        p = round(point_frac * len(graph))
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(graph.input_spec.shape).astype(np.float32)
        executor = GraphExecutor(graph, seed=seed)
        ref = executor.run(x)

        part = GraphPartitioner(graph).partition(p)
        boundary = {}
        if p > 0:
            head = SegmentExecutor(part.head, params=executor.params)
            boundary = dict(head.run({graph.input_name: x}))
        if graph.input_name in part.transfer_specs:
            boundary[graph.input_name] = x
        if part.tail.is_empty:
            got = boundary[graph.output_name]
        else:
            tail = SegmentExecutor(part.tail, params=executor.params)
            got = tail.run(boundary)[graph.output_name]
        np.testing.assert_allclose(got, ref, rtol=1e-4, atol=1e-5)


def _chain_ancestors(chain_deps):
    """Transitive closure of the chain DAG: ancestors[c] = chains that
    must complete before chain ``c`` may start."""
    ancestors = []
    for c, deps in enumerate(chain_deps):
        acc = set()
        for d in deps:
            acc.add(d)
            acc |= ancestors[d]  # chain ids are topologically ordered
        ancestors.append(acc)
    return ancestors


def _happens_before(i, j, chain_of, ancestors, order):
    """Is compute step ``i`` guaranteed to finish before ``j`` starts,
    under *every* legal chain interleaving?"""
    ci, cj = chain_of[order[i]], chain_of[order[j]]
    if ci == cj:
        return i < j  # within a chain, steps run in compile order
    return ci in ancestors[cj]


class TestChainSlicingProperties:
    """The chain pass on arbitrary DAGs: partition, deps, arena aliasing."""

    @given(graph=random_dag())
    @settings(max_examples=30, deadline=None)
    def test_chains_partition_steps_exactly_once(self, graph):
        plan = GraphPlan(graph, parallel=ParallelConfig(threads=2))
        info = plan.chain_info
        assert info is not None
        step_names = [name for name, _ in plan._core._steps]
        step_pos = {name: i for i, name in enumerate(step_names)}
        from_chains = [name for chain in info.chains for name in chain]
        # Every compiled step lands in exactly one chain...
        assert sorted(from_chains) == sorted(step_names)
        # ...and within a chain, steps keep their compile order.
        for chain in info.chains:
            positions = [step_pos[name] for name in chain]
            assert positions == sorted(positions)

    @given(graph=random_dag())
    @settings(max_examples=30, deadline=None)
    def test_chains_respect_dependencies(self, graph):
        """Every data edge is safe under any interleaving: produced in the
        same chain earlier, or in a chain the consumer's chain awaits."""
        plan = GraphPlan(graph, parallel=ParallelConfig(threads=2))
        info = plan.chain_info
        ancestors = _chain_ancestors(info.chain_deps)
        for name, j in info.node_index.items():
            node = graph.node(name)
            for dep in node.inputs:
                if dep not in info.node_index:
                    continue  # external input: written before any chain runs
                i = info.node_index[dep]
                ci, cj = info.chain_of[dep], info.chain_of[name]
                if ci == cj:
                    assert i < j
                else:
                    assert ci in ancestors[cj], \
                        f"edge {dep}->{name} crosses chains without ordering"

    @given(graph=random_dag())
    @settings(max_examples=25, deadline=None)
    def test_no_concurrent_lifetimes_share_arena_storage(self, graph):
        """If two tensors share a workspace buffer, all accesses to one
        must happen-before all accesses to the other — under every chain
        interleaving, not just the serial compile order."""
        plan = GraphPlan(graph, parallel=ParallelConfig(threads=2))
        core = plan._core
        info = plan.chain_info
        ancestors = _chain_ancestors(info.chain_deps)
        order = list(info.node_index)  # names by compile index
        order.sort(key=info.node_index.get)

        # Access sets per storage root: producing step + every reader.
        touches = {}
        for name, idx in info.node_index.items():
            touches.setdefault(info.roots[name], set()).add(idx)
            for dep in graph.node(name).inputs:
                if dep in info.roots:
                    touches.setdefault(info.roots[dep], set()).add(idx)

        roots = [r for r in touches if r in core._bound]
        for a in range(len(roots)):
            for b_i in range(a + 1, len(roots)):
                ra, rb = roots[a], roots[b_i]
                if not np.shares_memory(core._bound[ra], core._bound[rb]):
                    continue
                # Shared storage (arena reuse or in-place rewrite): one
                # lifetime must entirely precede the other.
                ok = (
                    all(_happens_before(i, j, info.chain_of, ancestors, order)
                        for i in touches[ra] for j in touches[rb] if i != j)
                    or all(_happens_before(j, i, info.chain_of, ancestors, order)
                           for i in touches[ra] for j in touches[rb] if i != j)
                )
                assert ok, f"roots {ra!r} and {rb!r} can overlap while sharing storage"

    @given(graph=random_dag(), seed=st.integers(0, 500),
           threads=st.sampled_from([2, 4]))
    @settings(max_examples=20, deadline=None)
    def test_parallel_run_bit_identical_on_random_dags(self, graph, seed, threads):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(graph.input_spec.shape).astype(np.float32)
        serial = GraphPlan(graph, seed=seed)
        parallel = GraphPlan(graph, seed=seed, params=serial.params,
                             parallel=ParallelConfig(threads=threads))
        assert parallel.run(x).tobytes() == serial.run(x).tobytes()


class TestAlgorithmOnRandomGraphs:
    @given(graph=random_dag(), seed=st.integers(0, 2**31),
           bw=st.floats(1e5, 1e8), k=st.floats(1.0, 100.0))
    @settings(max_examples=30, deadline=None)
    def test_algorithm1_on_real_cut_sizes(self, graph, seed, bw, k):
        """Algorithm 1 with real graph cut sizes equals brute force."""
        from repro.core.partition_algorithm import partition_decision

        rng = np.random.default_rng(seed)
        n = len(graph)
        device = rng.random(n).tolist()
        edge = (rng.random(n) * 0.01).tolist()
        sizes = graph.transmission_sizes()
        decision = partition_decision(device, edge, sizes, bw, k=k)
        bf_p, bf_val = brute_force(device, edge, sizes, bw, k)
        assert decision.point == bf_p
        assert decision.predicted_latency == pytest.approx(bf_val, rel=1e-9)


class _TimesPredictor:
    """Duck-typed predictor bundle with fixed per-node times.

    The engine only needs ``.side`` and ``.predict_nodes`` from its
    predictors, so property tests can plant arbitrary latency landscapes
    without training NNLS models.
    """

    def __init__(self, side, times):
        self.side = side
        self._times = np.asarray(times, dtype=np.float64)

    def predict_nodes(self, profiles):
        assert len(profiles) == len(self._times)
        return self._times.copy()


class _GeometryPredictor:
    """Duck-typed predictor keyed on node *geometry*, not position.

    Exit sub-graphs share their backbone prefix but differ in length, so a
    positional times table cannot serve every exit engine.  Hashing each
    profile's geometry yields deterministic per-node times that are
    automatically consistent across all sub-graphs containing the node.
    """

    def __init__(self, side, seed, unit_s):
        self.side = side
        self._seed = int(seed)
        self._unit_s = float(unit_s)

    def _time(self, p):
        import zlib
        key = repr((self.side, self._seed, p.op, p.flops,
                    p.c_in, p.c_out, p.h_out, p.w_out))
        h = zlib.crc32(key.encode())
        return ((h % 1000) + 1) * self._unit_s

    def predict_nodes(self, profiles):
        return np.array([self._time(p) for p in profiles], dtype=np.float64)


@st.composite
def random_exit_engine(draw):
    """A random DAG engine carrying 0-3 random early-exit branches.

    Returns ``(engine, edge_predictor)`` — the predictor rides along for
    fleet tests that wrap it in per-server :class:`ScaledPredictor`\\ s.
    """
    from repro.core.engine import LoADPartEngine
    from repro.graph.exits import ExitSpec, build_exit_branches

    graph = draw(random_dag())
    seed = draw(st.integers(0, 2**31))
    order = graph.topological_order()
    num_specs = draw(st.integers(0, min(3, len(order))))
    positions = draw(st.lists(
        st.integers(0, len(order) - 1),
        min_size=num_specs, max_size=num_specs, unique=True))
    accs = sorted(draw(st.lists(
        st.floats(0.3, 0.69), min_size=num_specs, max_size=num_specs)))
    specs = [ExitSpec(attach=order[pos], accuracy=acc)
             for pos, acc in zip(sorted(positions), accs)]
    user = _GeometryPredictor("device", seed, 1e-3)
    edge = _GeometryPredictor("edge", seed, 1e-5)
    if not specs:
        return LoADPartEngine(graph, user, edge), edge
    branches = build_exit_branches(graph, specs, final_accuracy=0.7,
                                   num_classes=8)
    return LoADPartEngine(graph, user, edge, exits=branches), edge


def assert_same_decision(got, ref):
    """Field-by-field *bitwise* equality of two decisions, every grid
    cell's row decision included."""
    for f in dataclasses.fields(got):
        g, r = getattr(got, f.name), getattr(ref, f.name)
        if f.name == "candidates":
            assert np.array_equal(g, r), f.name
        elif f.name == "cells":
            assert list(g) == list(r)
            for key in g:
                assert_same_decision(g[key], r[key])
        else:
            assert g == r, f.name


class TestExitDifferential:
    """The exit axis of the scan vs the exhaustive scalar oracle.

    Every random scenario draws a DAG, a random exit-branch set (possibly
    empty), a bandwidth, a load factor and an SLA (possibly ``None``),
    then demands *bitwise* agreement — exit index, partition point,
    feasibility, predicted latency, accuracy, and every per-exit cell —
    between the scan and the scalar brute-force enumeration, including
    the no-feasible-exit fallback and the ``point == n`` local edge.
    """

    @given(data=st.data(), setup=random_exit_engine())
    @settings(max_examples=40, deadline=None)
    def test_exit_scan_matches_brute_force(self, data, setup):

        engine, _ = setup

        bw = data.draw(st.floats(1e5, 1e8), label="bw")
        k = data.draw(st.floats(1.0, 50.0), label="k")
        sla = data.draw(
            st.one_of(st.none(), st.floats(1e-6, 10.0)), label="sla")
        offload_only = data.draw(st.booleans(), label="offload_only")

        got = engine.decide(bw, k=k, offload_only=offload_only, sla_s=sla)
        ref = oracle(engine, [bw], [k], offload_only=offload_only, sla_s=sla,
                     fleet=False)
        assert_same_decision(got, ref)
        assert len(got.cells) == (engine.num_exits if sla is not None else 1)

    @given(data=st.data(), setup=random_exit_engine())
    @settings(max_examples=25, deadline=None)
    def test_exit_fleet_scan_matches_brute_force(self, data, setup):
        from repro.core.engine import ServerProfile
        from repro.profiling.predictor import ScaledPredictor

        engine, edge_base = setup
        num = data.draw(st.integers(1, 3), label="num_servers")
        profiles, bandwidths, ks = [], [], []
        for s in range(num):
            scale = data.draw(
                st.one_of(st.none(), st.floats(0.25, 4.0)), label=f"scale{s}")
            profiles.append(ServerProfile(
                edge_predictor=(None if scale is None else ScaledPredictor(
                    edge_base, scale)),
                extra_latency_s=data.draw(st.floats(0.0, 0.05),
                                          label=f"extra{s}"),
            ))
            bandwidths.append(data.draw(st.floats(1e5, 1e8), label=f"bw{s}"))
            ks.append(data.draw(st.floats(1.0, 50.0), label=f"k{s}"))
        sla = data.draw(
            st.one_of(st.none(), st.floats(1e-6, 10.0)), label="sla")

        got = engine.decide_fleet(bandwidths, ks, profiles=profiles, sla_s=sla)
        ref = oracle(engine, bandwidths, ks, profiles=profiles, sla_s=sla)
        assert_same_decision(got, ref)

    @given(data=st.data(), setup=random_exit_engine())
    @settings(max_examples=30, deadline=None)
    def test_sla_monotonicity(self, data, setup):
        """A looser SLA never loses accuracy, and feasibility is monotone:
        the feasible set only grows as the deadline relaxes."""
        engine, _ = setup
        bw = data.draw(st.floats(1e5, 1e8), label="bw")
        k = data.draw(st.floats(1.0, 50.0), label="k")
        s1 = data.draw(st.floats(1e-6, 10.0), label="sla1")
        s2 = data.draw(st.floats(1e-6, 10.0), label="sla2")
        tight, loose = min(s1, s2), max(s1, s2)
        d_tight = engine.decide(bw, k=k, sla_s=tight)
        d_loose = engine.decide(bw, k=k, sla_s=loose)
        assert d_tight.accuracy <= d_loose.accuracy
        if d_tight.feasible:
            assert d_loose.feasible
            if engine.has_exits:
                assert d_tight.exit_index <= d_loose.exit_index

    @given(data=st.data(), setup=random_exit_engine())
    @settings(max_examples=30, deadline=None)
    def test_sla_none_is_the_plain_scan(self, data, setup):
        """``sla_s=None`` is Algorithm 1 on the backbone bit-for-bit: same
        point, same latency, same candidate vector, no other exit
        evaluated."""
        from repro.core.partition_algorithm import partition_decision

        engine, _ = setup
        bw = data.draw(st.floats(1e5, 1e8), label="bw")
        k = data.draw(st.floats(1.0, 50.0), label="k")
        plain = partition_decision(engine.device_times, engine.edge_times,
                                   engine.sizes, bw, k=k)
        ed = engine.decide(bw, k=k, sla_s=None)
        assert ed.exit_index is None
        assert ed.feasible is True
        assert ed.accuracy == engine.exit_accuracy()
        assert ed.point == plain.point
        assert ed.predicted_latency == plain.predicted_latency
        assert np.array_equal(ed.candidates, plain.candidates)
        assert list(ed.cells) == [(None, None, "fp32", False)]


class TestCodecDifferential:
    """The codec and mode axes of the scan vs the scalar oracle.

    Random codec subsets (in random preference order), whole or chunked
    uploads, ``offload_only``, SLA on or off (over random exit sets), a
    download term and a link penalty: the decision, its per-stage times
    and every ``(exit, codec, mode)`` cell — infeasible (``inf``)
    streamed entries included — must match bitwise.
    """

    @given(data=st.data(), setup=random_exit_engine())
    @settings(max_examples=40, deadline=None)
    def test_codec_grid_matches_brute_force(self, data, setup):
        from repro.network.streaming import StreamingConfig

        engine, _ = setup
        codecs = data.draw(st.lists(
            st.sampled_from(["fp32", "zlib", "fp16", "int8"]),
            min_size=1, max_size=4, unique=True), label="codecs")
        streaming = StreamingConfig(
            codecs=tuple(codecs), allow_lossy=True,
            chunk_bytes=data.draw(st.sampled_from([None, 1024]),
                                  label="chunk_bytes"))
        bw = data.draw(st.floats(1e5, 1e8), label="bw")
        k = data.draw(st.floats(1.0, 50.0), label="k")
        sla = data.draw(
            st.one_of(st.none(), st.floats(1e-6, 10.0)), label="sla")
        offload_only = data.draw(st.booleans(), label="offload_only")
        down = data.draw(st.one_of(st.none(), st.floats(1e5, 1e9)),
                         label="bandwidth_down")
        extra = data.draw(st.floats(0.0, 0.05), label="extra")

        got = engine.decide(bw, k=k, bandwidth_down=down,
                            offload_only=offload_only, extra_latency_s=extra,
                            sla_s=sla, streaming=streaming)
        ref = oracle(engine, [bw], [k], [extra], bandwidth_down=down,
                     offload_only=offload_only, sla_s=sla,
                     streaming=streaming, fleet=False)
        assert_same_decision(got, ref)
        modes = 1 if streaming.chunk_bytes is None else 2
        exits = engine.num_exits if sla is not None else 1
        assert len(got.cells) == exits * len(codecs) * modes

    @pytest.mark.parametrize("model", ["resnet18", "squeezenet"])
    def test_zoo_codec_grid_matches_brute_force(self, exit_engine_for, model):
        """Zoo cuts carry several crossing tensors of different sizes and
        producer ops — the per-tensor wire and decode terms, their wire
        order and the release schedule all matter here, on every exit."""
        from repro.network.streaming import StreamingConfig

        engine = exit_engine_for(model)
        streaming = StreamingConfig(codecs=("zlib", "fp32", "int8"),
                                    chunk_bytes=16 * 1024, allow_lossy=True)
        for bw, k, sla in ((2e6, 1.0, None), (8e6, 3.0, 0.1), (5e7, 1.5, 1e-6)):
            got = engine.decide(bw, k=k, sla_s=sla, streaming=streaming)
            ref = oracle(engine, [bw], [k], sla_s=sla, streaming=streaming,
                         fleet=False)
            assert_same_decision(got, ref)

    def test_streamed_cells_can_be_infeasible(self):
        """The oracle agrees on the ``inf`` entries of a streamed cell: the
        cuts that fit one chunk (here the small tail tensors)."""
        from repro.core.engine import LoADPartEngine
        from repro.network.streaming import StreamingConfig

        b = GraphBuilder("pinned", (1, 8, 8, 8))  # 2 KiB input
        x = b.conv(b.input, 8, kernel=3, padding=1, name="conv")
        b.output(b.relu(x, name="relu"))
        graph = b.graph
        n = len(graph)
        engine = LoADPartEngine(graph,
                                _TimesPredictor("device", np.full(n, 1e-2)),
                                _TimesPredictor("edge", np.full(n, 1e-4)))
        streaming = StreamingConfig(codecs=("fp32", "zlib"), chunk_bytes=1024)
        got = engine.decide(1e6, streaming=streaming)
        assert_same_decision(got, oracle(engine, [1e6], [1.0],
                                         streaming=streaming, fleet=False))
        zlib_stream = got.cells[(None, None, "zlib", True)].candidates
        assert np.isinf(zlib_stream[-1]) and np.isinf(zlib_stream).any()
        assert np.isfinite(got.cells[(None, None, "fp32", True)].candidates[0])


class TestFleetDifferential:
    """The server axis of the scan vs the exhaustive heterogeneous oracle.

    Every random scenario draws per-server profiles (predictor scale,
    bandwidth prior, link position), load factors and live bandwidth
    estimates, then demands *bitwise* agreement — point, server,
    predicted latency and every per-server cell — between the scan and
    the explicit ``(point, server)`` enumeration, including the
    all-servers-masked and ``point == n`` edges.  The direct-summation
    objective must agree numerically at every candidate the scan produced.
    """

    @given(data=st.data(), graph=random_dag())
    @settings(max_examples=40, deadline=None)
    def test_heterogeneous_scan_matches_brute_force(self, data, graph):
        from repro.core.engine import LoADPartEngine, ServerProfile, fleet_objective
        from repro.profiling.predictor import ScaledPredictor

        seed = data.draw(st.integers(0, 2**31), label="times_seed")
        rng = np.random.default_rng(seed)
        n = len(graph)
        edge_base = _TimesPredictor("edge", rng.random(n) * 0.01)
        engine = LoADPartEngine(
            graph, _TimesPredictor("device", rng.random(n)), edge_base)

        num = data.draw(st.integers(1, 4), label="num_servers")
        profiles, bandwidths, ks = [], [], []
        for s in range(num):
            scale = data.draw(
                st.one_of(st.none(), st.floats(0.25, 4.0)), label=f"scale{s}")
            prior = data.draw(
                st.one_of(st.none(), st.floats(1e5, 1e8)), label=f"prior{s}")
            profiles.append(ServerProfile(
                edge_predictor=(None if scale is None
                                else ScaledPredictor(edge_base, scale)),
                bandwidth_bps=prior,
                extra_latency_s=data.draw(st.floats(0.0, 0.05),
                                          label=f"extra{s}"),
            ))
            live_bw = data.draw(
                st.one_of(st.none(), st.floats(1e5, 1e8)), label=f"bw{s}")
            if live_bw is None and prior is None:
                live_bw = 8e6  # someone must know a bandwidth
            bandwidths.append(live_bw)
            ks.append(data.draw(st.floats(1.0, 50.0), label=f"k{s}"))
        allowed = data.draw(
            st.one_of(st.none(),
                      st.lists(st.integers(0, num - 1), max_size=num)),
            label="allowed")
        offload_only = data.draw(st.booleans(), label="offload_only")

        got = engine.decide_fleet(
            bandwidths, ks, allowed=allowed, offload_only=offload_only,
            profiles=profiles)
        ref = oracle(
            engine, bandwidths, ks, allowed=allowed,
            offload_only=offload_only, profiles=profiles)
        assert_same_decision(got, ref)
        servers = range(num) if allowed is None else sorted(set(allowed))
        assert [row.server for row in got.cells.values()] == list(servers)
        for row in got.cells.values():
            s = row.server
            # Independent restatement of Problem (1) at spot-check points.
            bw_s = (bandwidths[s] if bandwidths[s] is not None
                    else profiles[s].bandwidth_bps)
            for p in {0, n // 2, n, row.point}:
                direct = fleet_objective(
                    engine, p, bw_s, k=ks[s],
                    extra_latency_s=profiles[s].extra_latency_s,
                    profile=profiles[s])
                assert direct == pytest.approx(float(row.candidates[p]),
                                               rel=1e-9, abs=1e-12)

    @given(data=st.data(), graph=random_dag())
    @settings(max_examples=25, deadline=None)
    def test_uniform_profiles_are_the_homogeneous_scan(self, data, graph):
        """Identical profiles reproduce the profile-free scan bit-for-bit."""
        from repro.core.engine import LoADPartEngine, ServerProfile
        from repro.profiling.predictor import ScaledPredictor

        seed = data.draw(st.integers(0, 2**31), label="times_seed")
        rng = np.random.default_rng(seed)
        n = len(graph)
        edge_base = _TimesPredictor("edge", rng.random(n) * 0.01)
        engine = LoADPartEngine(
            graph, _TimesPredictor("device", rng.random(n)), edge_base)
        num = data.draw(st.integers(1, 3), label="num_servers")
        bandwidths = [data.draw(st.floats(1e5, 1e8), label=f"bw{s}")
                      for s in range(num)]
        ks = [data.draw(st.floats(1.0, 50.0), label=f"k{s}")
              for s in range(num)]
        plain = engine.decide_fleet(bandwidths, ks)
        for uniform in (ServerProfile(),
                        ServerProfile(edge_predictor=ScaledPredictor(
                            edge_base, 1.0))):
            dressed = engine.decide_fleet(
                bandwidths, ks, profiles=[uniform] * num)
            assert_same_decision(dressed, plain)
