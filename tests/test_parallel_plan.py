"""Branch-parallel plans: differential bit-identity and concurrency safety.

The parallel contract is strict: a plan compiled with
``ParallelConfig(threads=t)`` must produce output **byte-for-byte equal**
to the serial planned backend (and therefore to the naive backend) for
every model, batch size, partition point and thread count.  Only the
interleaving of independent chains may change — never a kernel, never a
reduction order.  The concurrency layer (plan caches, the per-plan
execution lock) is hammered from real threads.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

from repro.graph.partitioner import GraphPartitioner
from repro.models import build_model
from repro.nn import GraphExecutor, SegmentExecutor, parallel
from repro.nn.parallel import (
    PARALLEL_THREADS_ENV,
    CompileOnceCache,
    ParallelConfig,
    ParallelPlanRunner,
    default_parallelism,
)
from repro.nn.plan import GraphPlan
from repro.runtime.multi import MultiClientSystem
from repro.runtime.server import EdgeServer
from repro.runtime.system import OffloadingSystem, SystemConfig
from tests.helpers import (
    SWEEP_ZOO,
    assert_per_sample_bit_identical,
    naive_reference,
    sample_inputs,
    sampled_points,
)

THREAD_COUNTS = (1, 2, 8)


class TestParallelZooSweep:
    """parallel == serial planned == naive, byte for byte, across the zoo."""

    @pytest.mark.parametrize("batch", [1, 4])
    @pytest.mark.parametrize("model_name", SWEEP_ZOO)
    def test_full_graph_bit_identical(self, model_name, batch):
        graph = build_model(model_name)
        serial = GraphExecutor(graph, seed=0, backend="planned", batch=batch)
        # serial planned == naive, per sample (the established contract) ...
        out_serial = assert_per_sample_bit_identical(graph, serial, batch)
        # ... and parallel == serial planned, for every thread count.
        for threads in THREAD_COUNTS:
            parallel = GraphExecutor(
                graph, seed=0, params=serial.params, backend="planned",
                batch=batch, parallelism=ParallelConfig(threads=threads),
            )
            xs = sample_inputs(graph, batch)
            x = np.concatenate(xs, axis=0) if batch > 1 else xs[0]
            out = parallel.run(x)
            assert out.tobytes() == out_serial.tobytes(), \
                f"{model_name} batch={batch} threads={threads} diverged"
            # Workspace reuse across runs must stay deterministic too.
            assert parallel.run(x).tobytes() == out_serial.tobytes()

    @pytest.mark.parametrize("model_name", SWEEP_ZOO)
    def test_partitioned_segments_bit_identical(self, model_name):
        graph = build_model(model_name)
        partitioner = GraphPartitioner(graph)
        x = sample_inputs(graph, 1)[0]
        naive_full = naive_reference(graph, GraphExecutor(
            graph, seed=0, backend="planned").params)
        params = naive_full._params
        for point in sampled_points(graph, count=2):
            partitioned = partitioner.partition(point)
            # Head: naive vs serial planned vs parallel.
            head_naive = SegmentExecutor(partitioned.head, params=params)
            boundary = {name: x for name in partitioned.head.boundary_inputs}
            head_ref = head_naive.run(boundary)
            head_par = SegmentExecutor(
                partitioned.head, params=params, backend="planned",
                parallelism=ParallelConfig(threads=2),
            ).run(boundary)
            for name, ref in head_ref.items():
                assert np.array_equal(head_par[name], ref), \
                    f"{model_name} head point={point} tensor {name}"
            # Tail: fed by the head's transfers, swept over thread counts.
            transfers = {
                name: (x if name == graph.input_name else head_ref[name])
                for name in partitioned.transfer_specs
            }
            tail_boundary = {
                name: transfers[name]
                for name in partitioned.tail.boundary_inputs
            }
            tail_ref = SegmentExecutor(
                partitioned.tail, params=params).run(tail_boundary)
            tail_serial = SegmentExecutor(
                partitioned.tail, params=params, backend="planned",
            ).run(tail_boundary)
            for threads in THREAD_COUNTS:
                tail_par = SegmentExecutor(
                    partitioned.tail, params=params, backend="planned",
                    parallelism=ParallelConfig(threads=threads),
                ).run(tail_boundary)
                for name, ref in tail_ref.items():
                    assert np.array_equal(tail_serial[name], ref)
                    assert tail_par[name].tobytes() == tail_serial[name].tobytes(), \
                        f"{model_name} tail point={point} threads={threads} {name}"

    def test_branchy_models_slice_into_many_chains(self):
        for name, expect_parallel in (("squeezenet", True), ("inception_v3", True),
                                      ("resnet18", True), ("alexnet", False)):
            plan = GraphPlan(build_model(name), parallel=ParallelConfig(threads=2))
            assert plan.chain_info is not None
            if expect_parallel:
                assert plan.stats.chains > 1, name
            else:
                assert plan.stats.chains == 1, name

    def test_serial_compile_is_untouched_by_chain_analysis(self):
        """parallel=None keeps the exact serial allocation (no regions,
        no pinning) — the committed BENCH_executor numbers depend on it."""
        plan = GraphPlan(build_model("squeezenet"))
        assert plan.stats.pinned_buffers == 0
        assert plan.chain_info is not None  # analysis still observable


class TestParallelKnobs:
    def test_naive_backend_rejects_parallelism(self):
        graph = build_model("alexnet")
        with pytest.raises(ValueError, match="planned"):
            GraphExecutor(graph, backend="naive",
                          parallelism=ParallelConfig(threads=2))

    def test_threads_must_be_positive(self):
        with pytest.raises(ValueError):
            ParallelConfig(threads=0)

    def test_env_default_applies_to_planned_only(self, monkeypatch):
        monkeypatch.setenv(PARALLEL_THREADS_ENV, "3")
        assert default_parallelism() == ParallelConfig(threads=3)
        graph = build_model("alexnet")
        planned = GraphExecutor(graph, backend="planned")
        assert planned.parallelism == ParallelConfig(threads=3)
        naive = GraphExecutor(graph, backend="naive")
        assert naive.parallelism is None

    def test_env_unset_or_zero_means_serial(self, monkeypatch):
        monkeypatch.delenv(PARALLEL_THREADS_ENV, raising=False)
        assert default_parallelism() is None
        monkeypatch.setenv(PARALLEL_THREADS_ENV, "0")
        assert default_parallelism() is None

    def test_env_garbage_raises(self, monkeypatch):
        monkeypatch.setenv(PARALLEL_THREADS_ENV, "many")
        with pytest.raises(ValueError, match=PARALLEL_THREADS_ENV):
            default_parallelism()

    def test_system_config_requires_planned_backend(self):
        with pytest.raises(ValueError, match="planned"):
            SystemConfig(backend="naive", parallelism=ParallelConfig(threads=2))

    def test_runner_validates_chain_deps(self):
        with pytest.raises(ValueError):
            ParallelPlanRunner([[lambda: None]], [{0}], threads=2)  # self-dep
        with pytest.raises(ValueError):
            ParallelPlanRunner([[lambda: None]], [{5}], threads=2)  # dangling

    def test_runner_runs_each_chain_once_when_chains_finish_early(self, monkeypatch):
        # An inline pool runs each chain inside ``submit`` (re-entrant locks
        # let it), so chain 0 has finished and released chain 2 before the
        # start-up pass over the chains reaches it: chain 2 must still run
        # exactly once.  With real threads this is the first-run race of a
        # fresh pool, whose slow thread start-up lets early chains finish.
        class InlinePool:
            def submit(self, fn, *args):
                fn(*args)

        monkeypatch.setattr(parallel, "threading", SimpleNamespace(
            Lock=threading.RLock, Event=threading.Event))
        runs = [0, 0, 0]

        def step(c):
            def fn():
                runs[c] += 1
            return fn

        runner = ParallelPlanRunner([[step(0)], [step(1)], [step(2)]],
                                    [set(), set(), {0}], threads=2)
        runner._pool = InlinePool()
        runner.run()
        assert runs == [1, 1, 1]

    def test_runner_propagates_chain_errors(self):
        def boom():
            raise RuntimeError("kernel exploded")

        runner = ParallelPlanRunner([[boom], [lambda: None]], [set(), set()],
                                    threads=2)
        with pytest.raises(RuntimeError, match="kernel exploded"):
            runner.run()


class TestCompileOnceCache:
    def test_exactly_one_build_per_key_under_contention(self):
        cache = CompileOnceCache()
        built = []
        build_lock = threading.Lock()
        barrier = threading.Barrier(16)

        def factory(key):
            with build_lock:
                built.append(key)
            return object()

        def worker(i):
            barrier.wait()
            key = i % 4
            return key, cache.get_or_create(key, lambda: factory(key))

        with ThreadPoolExecutor(max_workers=16) as pool:
            results = list(pool.map(worker, range(16)))

        assert sorted(built) == [0, 1, 2, 3]  # exactly one build per key
        assert cache.builds == 4 and cache.hits == 12
        by_key = {}
        for key, value in results:
            # No torn state: every caller of a key sees the same object.
            assert by_key.setdefault(key, value) is value

    def test_failed_build_propagates_and_retries(self):
        cache = CompileOnceCache()
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) == 1:
                raise OSError("transient")
            return "ok"

        with pytest.raises(OSError):
            cache.get_or_create("k", flaky)
        assert "k" not in cache
        assert cache.get_or_create("k", flaky) == "ok"
        assert "k" in cache

    def test_server_plan_cache_compiles_once_per_key(self, squeezenet_engine):
        server = EdgeServer(squeezenet_engine, backend="planned",
                            functional=True,
                            parallelism=ParallelConfig(threads=2))
        n = squeezenet_engine.num_nodes
        keys = [(n // 3, 1), (n // 3, 2), (2 * n // 3, 1)]
        barrier = threading.Barrier(12)

        def worker(i):
            barrier.wait()
            point, batch = keys[i % len(keys)]
            return (point, batch), server._tail_executor(point, batch)

        with ThreadPoolExecutor(max_workers=12) as pool:
            results = list(pool.map(worker, range(12)))

        assert server._tail_executors.builds == len(keys)
        by_key = {}
        for key, executor in results:
            assert by_key.setdefault(key, executor) is executor

    def test_concurrent_tail_execution_is_deterministic(self, squeezenet_engine):
        """Many threads through one cached parallel plan: the per-plan
        execution lock must keep every result equal to a solo run."""
        server = EdgeServer(squeezenet_engine, backend="planned",
                            functional=True,
                            parallelism=ParallelConfig(threads=2))
        graph = squeezenet_engine.graph
        point = squeezenet_engine.num_nodes // 2
        partitioned = server.cache.get(point)
        rng = np.random.default_rng(9)
        boundaries = []
        for _ in range(8):
            boundaries.append({
                name: rng.standard_normal(spec.shape).astype(np.float32)
                for name, spec in partitioned.tail.boundary_inputs.items()
            })
        refs = [
            SegmentExecutor(partitioned.tail, params=server.model_params).run(b)
            for b in boundaries
        ]
        executor = server._tail_executor(point)
        barrier = threading.Barrier(8)

        def worker(i):
            barrier.wait()
            return executor.run(boundaries[i])

        with ThreadPoolExecutor(max_workers=8) as pool:
            outs = list(pool.map(worker, range(8)))
        out_name = graph.output_name
        for out, ref in zip(outs, refs):
            assert np.array_equal(out[out_name], ref[out_name])


class TestFleetReproducibility:
    """Same seed => identical FleetResult regardless of thread count."""

    def _run(self, engine, parallelism):
        config = SystemConfig(
            seed=4, policy="full", functional=True, backend="planned",
            parallelism=parallelism,
        )
        system = MultiClientSystem(engine, 3, config=config)
        result = system.run(0.4)
        outputs = tuple(
            c.last_output.tobytes() if c.last_output is not None else None
            for c in system.clients
        )
        return result, outputs

    def test_fleet_identical_across_thread_counts(self, squeezenet_engine):
        base, base_outputs = self._run(squeezenet_engine, None)
        assert base.total_requests > 0
        for threads in (2, 8):
            result, outputs = self._run(squeezenet_engine,
                                        ParallelConfig(threads=threads))
            assert outputs == base_outputs
            assert len(result.timelines) == len(base.timelines)
            for got, want in zip(result.timelines, base.timelines):
                assert [r.request_id for r in got] == [r.request_id for r in want]
                assert [r.partition_point for r in got] == \
                    [r.partition_point for r in want]
                assert [r.total_s for r in got] == [r.total_s for r in want]

    def test_single_system_identical_across_thread_counts(self, squeezenet_engine):
        def run(parallelism):
            system = OffloadingSystem(squeezenet_engine, config=SystemConfig(
                seed=11, backend="planned", functional=True,
                parallelism=parallelism,
            ))
            timeline = system.run(0.5, max_requests=8)
            out = system.device.last_output
            return timeline, out.tobytes() if out is not None else None

        base_tl, base_out = run(None)
        par_tl, par_out = run(ParallelConfig(threads=4))
        assert par_out == base_out
        assert [r.total_s for r in par_tl] == [r.total_s for r in base_tl]
        assert [r.partition_point for r in par_tl] == \
            [r.partition_point for r in base_tl]
