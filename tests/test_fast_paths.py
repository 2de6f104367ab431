"""Differential tests: each simulator fast path against the loop it replaced.

- Cost sampling draws every node's noise in one vector ``lognormal`` call
  over cached per-node means; it must equal the per-node scalar loop bit
  for bit, and leave the generator in the same state.
- :class:`SharedLoadTracker` and :class:`LoadFactorMonitor` keep their
  window sums across reads; every read must equal a fresh left-to-right
  re-sum of the window.
- :class:`BandwidthEstimator` takes a plain sorted-list median and clamps
  with ``min``/``max``; both must equal the ``np.median`` / ``np.clip``
  formulation.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.load_factor import LoadFactorMonitor
from repro.experiments.context import default_engine, default_exit_engine
from repro.hardware.device_model import DeviceModel, DeviceParams
from repro.hardware.gpu_model import GpuModel, GpuParams
from repro.network.estimator import BandwidthEstimator
from repro.runtime.multi import SharedLoadTracker

ZOO = ("alexnet", "squeezenet", "resnet18", "mobilenet_v1", "inception_v3")
EXIT_FAMILIES = ("squeezenet", "resnet18", "mobilenet_v1")
SIGMAS = (0.0, 0.04, 0.05, 0.3)


def engines():
    """Zoo engines plus every exit sub-engine of the exit families."""
    out = [default_engine(name) for name in ZOO]
    for name in EXIT_FAMILIES:
        engine = default_exit_engine(name)
        out.extend(engine.exit_engine(i) for i in range(engine.num_exits))
    return out


@pytest.fixture(scope="module")
def all_engines(trained_report):
    return engines()


def same_float(a: float, b: float) -> bool:
    return type(a) is type(b) and (a == b or (math.isnan(a) and math.isnan(b)))


class TestVectorSampling:
    @given(which=st.integers(0, 10**6), point_frac=st.floats(0.0, 1.0),
           edge=st.sampled_from([None, "empty_head", "empty_tail"]),
           sigma=st.sampled_from(SIGMAS), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_device_head_equals_scalar_loop(self, all_engines, which,
                                            point_frac, edge, sigma, seed):
        engine = all_engines[which % len(all_engines)]
        n = engine.num_nodes
        point = {None: int(point_frac * n), "empty_head": 0,
                 "empty_tail": n}[edge]
        model = DeviceModel(DeviceParams(noise_sigma=sigma))
        scalar_rng = np.random.default_rng(seed)
        vector_rng = np.random.default_rng(seed)
        expected = sum(model.sample_time(p, scalar_rng)
                       for p in engine.profiles[:point])
        got = model.sample_graph_time(engine.mean_times(model)[:point],
                                      vector_rng)
        assert got == expected and float(got) == float(expected)
        assert scalar_rng.random() == vector_rng.random()

    @given(which=st.integers(0, 10**6), point_frac=st.floats(0.0, 1.0),
           edge=st.sampled_from([None, "empty_head", "empty_tail"]),
           sigma=st.sampled_from(SIGMAS), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_gpu_tail_equals_scalar_loop(self, all_engines, which, point_frac,
                                         edge, sigma, seed):
        engine = all_engines[which % len(all_engines)]
        n = engine.num_nodes
        point = {None: int(point_frac * n), "empty_head": 0,
                 "empty_tail": n}[edge]
        model = GpuModel(GpuParams(noise_sigma=sigma))
        scalar_rng = np.random.default_rng(seed)
        vector_rng = np.random.default_rng(seed)
        expected = [model.sample_time(p, scalar_rng)
                    for p in engine.profiles[point:]]
        got = model.sample_kernel_times(engine.mean_times(model)[point:],
                                        vector_rng)
        assert len(got) == len(expected)
        assert all(same_float(g, e) for g, e in zip(got, expected))
        assert scalar_rng.random() == vector_rng.random()

    def test_means_cached_per_model_parameters(self, squeezenet_engine):
        a, b = DeviceModel(), DeviceModel()
        assert squeezenet_engine.mean_times(a) is squeezenet_engine.mean_times(b)
        quiet = DeviceModel(DeviceParams(noise_sigma=0.0))
        slow = DeviceModel(DeviceParams(conv_rate=1e9))
        assert not np.array_equal(squeezenet_engine.mean_times(slow),
                                  squeezenet_engine.mean_times(a))
        assert squeezenet_engine.mean_times(quiet) is not squeezenet_engine.mean_times(a)
        gpu = squeezenet_engine.mean_times(GpuModel())
        assert gpu.tolist() == GpuModel().kernel_times(squeezenet_engine.profiles)
        assert not gpu.flags.writeable


# -- window sums ----------------------------------------------------------------

def loop_sum(values) -> float:
    total = 0.0
    for value in values:
        total += value
    return total


class ResummingTracker(SharedLoadTracker):
    """The tracker as it was on Python < 3.12: every read re-sums the
    window left to right."""

    def utilization(self, now_s: float) -> float:
        self._evict(now_s)
        busy = loop_sum(b for _, b in self._busy)
        return min(busy / self.window_s, 1.0)


class ResummingMonitor(LoadFactorMonitor):
    """The monitor as it was on Python < 3.12: every refresh re-sums the
    window left to right."""

    def refresh(self, now_s: float) -> float:
        self._evict(now_s)
        if self._records:
            actual = loop_sum(r[1] for r in self._records)
            predicted = loop_sum(r[2] for r in self._records)
            self._value = min(max(actual / predicted, 1.0), self._max_factor)
        return self._value


times = st.floats(0.0, 20.0)
durations = st.floats(0.0, 0.5) | st.sampled_from([0.0, 1e-9, 0.1, 0.2, 0.3])
tracker_ops = st.lists(st.one_of(
    st.tuples(st.just("record"), times, durations),
    st.tuples(st.just("read"), times),
), max_size=60)
monitor_ops = st.lists(st.one_of(
    st.tuples(st.just("record"), times, durations,
              st.floats(1e-4, 0.5) | st.sampled_from([0.1, 0.2, 0.3])),
    st.tuples(st.just("read"), times),
    st.tuples(st.just("reset"),),
), max_size=60)


class TestWindowSums:
    @given(ops=tracker_ops, window=st.sampled_from([0.5, 1.0, 3.0]),
           drift=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_tracker_reads_equal_resum(self, ops, window, drift):
        fast, ref = SharedLoadTracker(window), ResummingTracker(window)
        clock = 0.0
        for op in ops:
            # ``drift`` makes times mostly increase (real runs); otherwise
            # records and reads arrive in any order.
            t = (clock := clock + op[1] / 10) if drift else op[1]
            if op[0] == "record":
                fast.record(t, op[2])
                ref.record(t, op[2])
            else:
                assert fast.utilization(t) == ref.utilization(t)
        assert fast.utilization(clock) == ref.utilization(clock)

    @given(ops=monitor_ops, window=st.sampled_from([0.5, 1.0, 5.0]),
           drift=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_monitor_refreshes_equal_resum(self, ops, window, drift):
        fast, ref = LoadFactorMonitor(window), ResummingMonitor(window)
        clock = 0.0
        for op in ops:
            if op[0] == "reset":
                fast.reset()
                ref.reset()
                continue
            t = (clock := clock + op[1] / 10) if drift else op[1]
            if op[0] == "record":
                fast.record(t, op[2], op[3])
                ref.record(t, op[2], op[3])
            else:
                assert fast.refresh(t) == ref.refresh(t)
            assert fast.sample_count == ref.sample_count
        assert fast.refresh(clock) == ref.refresh(clock)

    def test_resum_after_eviction_equals_running_total(self):
        # 0.1 + 0.2 + 0.3 left to right is 0.6000000000000001; Python
        # >= 3.12's compensated built-in sum gives 0.6.  The re-sum after an
        # eviction must agree with the append-only running total on every
        # interpreter.
        expected = 0.1 + 0.2 + 0.3
        running, evicted = SharedLoadTracker(3.0), SharedLoadTracker(3.0)
        evicted.record(0.0, 0.5)
        for tracker in (running, evicted):
            for busy in (0.1, 0.2, 0.3):
                tracker.record(5.0, busy)
        assert running.utilization(5.0) == evicted.utilization(5.0) == expected / 3.0

        running, evicted = LoadFactorMonitor(5.0), LoadFactorMonitor(5.0)
        evicted.record(0.0, 0.5, 0.5)
        for monitor in (running, evicted):
            for actual in (0.1, 0.2, 0.3):
                monitor.record(10.0, actual, 0.125)
        assert running.refresh(10.0) == evicted.refresh(10.0) == expected / 0.375


# -- bandwidth estimator ----------------------------------------------------------

class NumpyEstimator(BandwidthEstimator):
    """The estimator as it was: ``np.median`` and ``np.clip``."""

    def estimate(self) -> float:
        self._evict(self._last_time_s)
        if not self._window:
            return self._initial
        return float(np.median([s.bandwidth_bps for s in self._window]))

    def next_probe_bytes(self) -> int:
        target = self.estimate() * self._probe_target_duration_s / 8
        return int(np.clip(target, self._min_probe_bytes, self._max_probe_bytes))


estimator_ops = st.lists(st.one_of(
    st.tuples(st.sampled_from(["probe", "passive", "failure"]),
              st.floats(0.0, 30.0),
              st.integers(0, 8 * 1024 * 1024),
              st.floats(0.0, 2.0) | st.sampled_from([math.inf, 1e-6, 0.05])),
    st.tuples(st.just("reset"),),
), max_size=40)


class TestEstimator:
    @given(ops=estimator_ops, window_size=st.integers(1, 8),
           window_s=st.sampled_from([None, 0.5, 2.0, 10.0]),
           initial=st.sampled_from([8e6, 1e3, 3.3e7]))
    @settings(max_examples=200, deadline=None)
    def test_median_and_probe_size_equal_numpy(self, ops, window_size,
                                               window_s, initial):
        kwargs = dict(window_size=window_size, window_s=window_s,
                      initial_estimate_bps=initial)
        fast, ref = BandwidthEstimator(**kwargs), NumpyEstimator(**kwargs)
        for op in ops:
            for est in (fast, ref):
                if op[0] == "reset":
                    est.reset()
                else:
                    add = {"probe": est.add_probe, "passive": est.add_passive,
                           "failure": est.add_failure}[op[0]]
                    add(op[1], op[2], op[3])
            got, expected = fast.estimate(), ref.estimate()
            assert same_float(got, expected)
            assert fast.next_probe_bytes() == ref.next_probe_bytes()
            assert fast.sample_count == ref.sample_count
