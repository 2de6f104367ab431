"""Three-tier (device/edge/cloud) partitioning extension."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.multi_tier import (
    multi_tier_objective,
    MultiTierDecision,
    multi_tier_brute_force,
    multi_tier_decision,
)


def random_instance(seed, n=None):
    rng = np.random.default_rng(seed)
    n = n or int(rng.integers(1, 30))
    device = rng.random(n).tolist()
    edge = (rng.random(n) * 0.1).tolist()
    cloud = (rng.random(n) * 0.02).tolist()
    sizes = rng.integers(0, 10**6, n + 1).tolist()
    return device, edge, cloud, sizes


class TestAgainstBruteForce:
    @given(seed=st.integers(0, 2**31), b1=st.floats(1e5, 1e8),
           b2=st.floats(1e5, 1e9), ke=st.floats(1.0, 50.0), kc=st.floats(1.0, 10.0))
    @settings(max_examples=100, deadline=None)
    def test_optimal_value_matches(self, seed, b1, b2, ke, kc):
        device, edge, cloud, sizes = random_instance(seed)
        fast = multi_tier_decision(device, edge, cloud, sizes, b1, b2, ke, kc)
        brute = multi_tier_brute_force(device, edge, cloud, sizes, b1, b2, ke, kc)
        assert fast.predicted_latency == pytest.approx(brute.predicted_latency, rel=1e-9)

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=50, deadline=None)
    def test_points_are_consistent_with_value(self, seed):
        device, edge, cloud, sizes = random_instance(seed)
        d = multi_tier_decision(device, edge, cloud, sizes, 8e6, 50e6)
        p, q, n = d.device_point, d.edge_point, len(device)
        # Recompute the objective at the returned points.
        value = sum(device[:p])
        if not (p == n and q == n):
            value += sizes[p] * 8 / 8e6 + sum(edge[p:q])
            if q < n:
                value += sizes[q] * 8 / 50e6 + sum(cloud[q:])
        assert d.predicted_latency == pytest.approx(value, rel=1e-9)
        assert 0 <= p <= q <= n
        assert (d.device_nodes, d.edge_nodes, d.cloud_nodes) == (p, q - p, n - q)


class TestStructure:
    def test_dead_cloud_link_reduces_to_two_tier(self, alexnet_engine):
        """With an unusable edge->cloud link, the result is Algorithm 1's."""
        e = alexnet_engine
        cloud = (np.asarray(e.edge_times) / 3).tolist()
        three = multi_tier_decision(
            list(e.device_times), list(e.edge_times), cloud, list(e.sizes),
            8e6, 1.0,  # 1 bit/s to the cloud
        )
        two = e.decide(8e6)
        assert not three.uses_cloud
        assert three.device_point == two.point
        assert three.predicted_latency == pytest.approx(two.predicted_latency, rel=1e-9)

    def test_fast_cloud_pulls_work_from_edge(self, alexnet_engine):
        e = alexnet_engine
        cloud = (np.asarray(e.edge_times) / 10).tolist()
        three = multi_tier_decision(
            list(e.device_times), list(e.edge_times), cloud, list(e.sizes),
            8e6, 1e9,  # effectively free edge->cloud hop
        )
        assert three.uses_cloud
        assert three.cloud_nodes > 0

    def test_loaded_edge_skipped_entirely(self, alexnet_engine):
        """Saturated edge, fast cloud: the tensor transits the edge."""
        e = alexnet_engine
        cloud = (np.asarray(e.edge_times)).tolist()
        three = multi_tier_decision(
            list(e.device_times), list(e.edge_times), cloud, list(e.sizes),
            8e6, 1e8, k_edge=500.0, k_cloud=1.0,
        )
        assert three.edge_nodes == 0
        assert three.uses_cloud or three.is_local

    def test_terrible_everything_goes_local(self, alexnet_engine):
        e = alexnet_engine
        cloud = (np.asarray(e.edge_times)).tolist()
        three = multi_tier_decision(
            list(e.device_times), list(e.edge_times), cloud, list(e.sizes),
            1e3, 1e3, k_edge=100.0, k_cloud=100.0,
        )
        assert three.is_local
        assert three.predicted_latency == pytest.approx(float(np.sum(e.device_times)))


class TestValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            multi_tier_decision([1.0], [1.0, 2.0], [1.0], [1, 0], 1e6, 1e6)

    def test_sizes_length(self):
        with pytest.raises(ValueError):
            multi_tier_decision([1.0], [1.0], [1.0], [1], 1e6, 1e6)

    def test_bad_bandwidth(self):
        with pytest.raises(ValueError):
            multi_tier_decision([1.0], [1.0], [1.0], [1, 0], 0.0, 1e6)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            multi_tier_decision([1.0], [1.0], [1.0], [1, 0], 1e6, 1e6, k_edge=0.5)

    def test_negative_times(self):
        with pytest.raises(ValueError):
            multi_tier_decision([-1.0], [1.0], [1.0], [1, 0], 1e6, 1e6)


class TestObjective:
    """``multi_tier_objective``: the explicit cost any (p, q) placement pays."""

    def test_decision_value_is_achieved_by_its_points(self):
        for seed in range(20):
            device, edge, cloud, sizes = random_instance(seed)
            d = multi_tier_decision(device, edge, cloud, sizes, 8e6, 50e6,
                                    k_edge=2.0, k_cloud=1.5)
            value = multi_tier_objective(
                d.device_point, d.edge_point, device, edge, cloud, sizes,
                8e6, 50e6, k_edge=2.0, k_cloud=1.5)
            assert value == pytest.approx(d.predicted_latency, rel=1e-12)

    @given(seed=st.integers(0, 2**31), b1=st.floats(1e5, 1e8),
           b2=st.floats(1e5, 1e9), ke=st.floats(1.0, 50.0), kc=st.floats(1.0, 10.0))
    @settings(max_examples=60, deadline=None)
    def test_decision_is_never_beaten_by_any_placement(self, seed, b1, b2, ke, kc):
        device, edge, cloud, sizes = random_instance(seed, n=8)
        d = multi_tier_decision(device, edge, cloud, sizes, b1, b2, ke, kc)
        n = len(device)
        best = min(
            multi_tier_objective(p, q, device, edge, cloud, sizes,
                                 b1, b2, k_edge=ke, k_cloud=kc)
            for p in range(n + 1) for q in range(p, n + 1))
        assert d.predicted_latency == pytest.approx(best, rel=1e-9)

    def test_fully_local_placement(self):
        device, edge, cloud, sizes = random_instance(3)
        n = len(device)
        assert multi_tier_objective(n, n, device, edge, cloud, sizes,
                                    8e6, 50e6) == pytest.approx(sum(device))

    def test_validation(self):
        device, edge, cloud, sizes = random_instance(3)
        n = len(device)
        with pytest.raises(ValueError):
            multi_tier_objective(2, 1, device, edge, cloud, sizes, 8e6, 50e6)
        with pytest.raises(ValueError):
            multi_tier_objective(0, n + 1, device, edge, cloud, sizes, 8e6, 50e6)


class TestExtraLatencies:
    """Per-hop link penalties on the device->edge and edge->cloud uplinks."""

    @given(seed=st.integers(0, 2**31), b1=st.floats(1e5, 1e8),
           b2=st.floats(1e5, 1e9), e1=st.floats(0.0, 0.2),
           e2=st.floats(0.0, 0.2))
    @settings(max_examples=60, deadline=None)
    def test_scan_matches_brute_force_with_extras(self, seed, b1, b2, e1, e2):
        device, edge, cloud, sizes = random_instance(seed)
        fast = multi_tier_decision(
            device, edge, cloud, sizes, b1, b2,
            extra_latency_edge_s=e1, extra_latency_cloud_s=e2)
        brute = multi_tier_brute_force(
            device, edge, cloud, sizes, b1, b2,
            extra_latency_edge_s=e1, extra_latency_cloud_s=e2)
        assert fast.predicted_latency == pytest.approx(
            brute.predicted_latency, rel=1e-9)

    def test_zero_extras_bit_identical_to_default(self):
        for seed in range(10):
            device, edge, cloud, sizes = random_instance(seed)
            base = multi_tier_decision(device, edge, cloud, sizes, 8e6, 50e6)
            zero = multi_tier_decision(
                device, edge, cloud, sizes, 8e6, 50e6,
                extra_latency_edge_s=0.0, extra_latency_cloud_s=0.0)
            assert zero.device_point == base.device_point
            assert zero.edge_point == base.edge_point
            assert zero.predicted_latency == base.predicted_latency  # bitwise

    def test_hop_charged_only_when_taken(self):
        device, edge, cloud, sizes = random_instance(4)
        n = len(device)
        for (p, q) in [(0, n // 2), (0, n), (n // 2, n), (n, n)]:
            plain = multi_tier_objective(p, q, device, edge, cloud, sizes,
                                         8e6, 50e6)
            priced = multi_tier_objective(
                p, q, device, edge, cloud, sizes, 8e6, 50e6,
                extra_latency_edge_s=0.5, extra_latency_cloud_s=0.25)
            expected = plain
            if not (p == n and q == n):
                expected += 0.5            # device->edge hop taken
                if q < n:
                    expected += 0.25       # edge->cloud hop taken
            assert priced == pytest.approx(expected, rel=1e-12)

    def test_huge_cloud_penalty_keeps_work_off_the_cloud(self):
        device, edge, cloud, sizes = random_instance(4)
        n = len(device)
        d = multi_tier_decision(device, edge, cloud, sizes, 8e6, 50e6,
                                extra_latency_cloud_s=1e9)
        assert d.edge_point == n   # two-tier split: cloud never entered
        d2 = multi_tier_decision(device, edge, cloud, sizes, 8e6, 50e6,
                                 extra_latency_edge_s=1e9,
                                 extra_latency_cloud_s=1e9)
        assert (d2.device_point, d2.edge_point) == (n, n)  # fully local

    def test_negative_extras_rejected(self):
        with pytest.raises(ValueError):
            multi_tier_decision([1.0], [1.0], [1.0], [1, 0], 1e6, 1e6,
                                extra_latency_edge_s=-0.1)
        with pytest.raises(ValueError):
            multi_tier_decision([1.0], [1.0], [1.0], [1, 0], 1e6, 1e6,
                                extra_latency_cloud_s=-0.1)


class TestExitRule:
    """``multi_tier_exit_decision``: the engine's exit rule lifted to the
    device/edge/cloud chain."""

    def _workloads(self, seed, exits=3):
        rng = np.random.default_rng(seed)
        workloads = []
        for e in range(exits):
            # Later exits carry more nodes: a longer backbone prefix.
            n = 4 + 4 * e
            workloads.append((
                rng.random(n).tolist(),
                (rng.random(n) * 0.1).tolist(),
                (rng.random(n) * 0.02).tolist(),
                rng.integers(0, 10**6, n + 1).tolist(),
            ))
        return workloads

    def test_sla_none_is_the_final_scan(self):
        from repro.core.multi_tier import multi_tier_exit_decision

        workloads = self._workloads(0)
        d = multi_tier_exit_decision(workloads, None, 8e6, 50e6, k_edge=2.0)
        direct = multi_tier_decision(*workloads[-1], 8e6, 50e6, k_edge=2.0)
        assert d.exit_index == len(workloads) - 1
        assert d.feasible is True
        assert d.decision == direct
        assert d.decisions[:-1] == (None,) * (len(workloads) - 1)

    @given(seed=st.integers(0, 2**31), sla=st.floats(1e-4, 20.0),
           b1=st.floats(1e5, 1e8), b2=st.floats(1e5, 1e9))
    @settings(max_examples=50, deadline=None)
    def test_rule_matches_explicit_enumeration(self, seed, sla, b1, b2):
        from repro.core.multi_tier import multi_tier_exit_decision

        workloads = self._workloads(seed)
        d = multi_tier_exit_decision(workloads, sla, b1, b2)
        per_exit = [multi_tier_decision(*w, b1, b2) for w in workloads]
        assert d.decisions == tuple(per_exit)
        feasible = [e for e, pd in enumerate(per_exit)
                    if pd.predicted_latency <= sla]
        if feasible:
            assert d.feasible is True
            assert d.exit_index == max(feasible)
        else:
            assert d.feasible is False
            lat = [pd.predicted_latency for pd in per_exit]
            assert d.exit_index == lat.index(min(lat))
        assert d.decision == per_exit[d.exit_index]

    def test_validation(self):
        from repro.core.multi_tier import multi_tier_exit_decision

        with pytest.raises(ValueError, match="empty"):
            multi_tier_exit_decision([], 1.0, 8e6, 50e6)
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="sla_s"):
                multi_tier_exit_decision(self._workloads(1), bad, 8e6, 50e6)
