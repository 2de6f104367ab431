"""Three-tier partitioning: device -> edge -> cloud (AAIoT-style extension).

The paper cites AAIoT's dynamic programming for splitting a DNN across
multi-layered IoT architectures.  This module extends Algorithm 1 to the
three-tier chain

    device --B1--> edge server --B2--> cloud

with two partition points ``p <= q`` on the topological order: positions
``1..p`` run on the device, ``p+1..q`` on the edge, ``q+1..n`` in the
cloud.  The objective generalises Problem (1)::

    t(p, q) =  sum_{i<=p} f(L_i)  +  s_p / B1
             + k_e * sum_{p<i<=q} g_e(L_i)  +  s_q / B2
             + k_c * sum_{i>q} g_c(L_i)

A naive scan is O(n^2); the decomposition below is O(n): for a fixed ``q``
the optimal ``p`` minimises ``h(p) = prefix_f[p] + s_p/B1 - k_e*G_e[p]``,
which does not depend on ``q``, so one forward pass maintaining the
running argmin of ``h`` suffices — the same prefix/suffix trick that makes
Algorithm 1 linear, applied twice.

Degenerate placements fall out naturally: ``p == q`` skips the edge tier
entirely (device -> cloud), and ``q == n`` skips the cloud (exactly
Algorithm 1 without its download term).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.engine import check_sla, pick_exit


@dataclass(frozen=True)
class MultiTierDecision:
    """Result of the three-tier scan."""

    device_point: int   # p: last position on the device (0 = none)
    edge_point: int     # q: last position on the edge (q == p -> edge skipped)
    predicted_latency: float
    device_nodes: int
    edge_nodes: int
    cloud_nodes: int

    @property
    def uses_edge(self) -> bool:
        return self.edge_nodes > 0

    @property
    def uses_cloud(self) -> bool:
        return self.cloud_nodes > 0

    @property
    def is_local(self) -> bool:
        return self.edge_nodes == 0 and self.cloud_nodes == 0


def multi_tier_decision(
    device_times: Sequence[float],
    edge_times: Sequence[float],
    cloud_times: Sequence[float],
    sizes: Sequence[int],
    bandwidth_device_edge: float,
    bandwidth_edge_cloud: float,
    k_edge: float = 1.0,
    k_cloud: float = 1.0,
    extra_latency_edge_s: float = 0.0,
    extra_latency_cloud_s: float = 0.0,
) -> MultiTierDecision:
    """O(n) optimal two-cut placement across device/edge/cloud.

    ``extra_latency_edge_s`` / ``extra_latency_cloud_s`` are fixed link
    base latencies charged once per hop actually taken (the heterogeneous
    fleet's per-server link position, generalised to the tier chain): the
    first on every placement that leaves the device, the second on every
    placement that reaches the cloud.  Fully-local placement pays
    neither; the 0.0 defaults reproduce the original scan exactly.
    """
    n = len(device_times)
    if len(edge_times) != n or len(cloud_times) != n:
        raise ValueError("per-tier time arrays must share length")
    if len(sizes) != n + 1:
        raise ValueError(f"sizes must have length n+1={n + 1}")
    if bandwidth_device_edge <= 0 or bandwidth_edge_cloud <= 0:
        raise ValueError("bandwidths must be positive")
    if k_edge < 1.0 or k_cloud < 1.0:
        raise ValueError("load factors must be >= 1")
    if extra_latency_edge_s < 0 or extra_latency_cloud_s < 0:
        raise ValueError("extra latencies must be non-negative")

    f = np.asarray(device_times, dtype=np.float64)
    g_e = np.asarray(edge_times, dtype=np.float64)
    g_c = np.asarray(cloud_times, dtype=np.float64)
    if np.any(f < 0) or np.any(g_e < 0) or np.any(g_c < 0):
        raise ValueError("times must be non-negative")
    s = np.asarray(sizes, dtype=np.float64)

    prefix_f = np.concatenate(([0.0], np.cumsum(f)))       # prefix_f[p]
    prefix_ge = np.concatenate(([0.0], np.cumsum(g_e)))    # G_e[q]
    suffix_gc = np.concatenate((np.cumsum(g_c[::-1])[::-1], [0.0]))  # C[q]

    # The link base latencies fold straight into the hop cost vectors;
    # the fully-local overwrite below keeps placement (n, n) clean.
    up1 = s * 8 / bandwidth_device_edge + extra_latency_edge_s
    up2 = s * 8 / bandwidth_edge_cloud + extra_latency_cloud_s

    # h(p): the q-independent part of the objective.
    h = prefix_f + up1 - k_edge * prefix_ge

    best = None
    best_pq = (0, 0)
    best_h = np.inf
    best_h_p = 0
    for q in range(n + 1):
        # p may equal q (edge skipped: pay s_p/B1 then s_q/B2 at the same
        # position, i.e. the tensor transits the edge without compute).
        if h[q] <= best_h:
            best_h = float(h[q])
            best_h_p = q
        if q == n:
            # Cloud skipped: no second hop, no cloud time.  The candidate
            # objectives are exactly Algorithm 1's; include pure local too.
            totals = prefix_f[: n + 1] + up1[: n + 1] + k_edge * (prefix_ge[n] - prefix_ge[: n + 1])
            totals[n] = prefix_f[n]  # fully local: no hop at all
            p_local = int(len(totals) - 1 - np.argmin(totals[::-1]))
            value = float(totals[p_local])
            if best is None or value <= best:
                best = value
                best_pq = (p_local, n)
            continue
        value = best_h + k_edge * prefix_ge[q] + up2[q] + k_cloud * suffix_gc[q]
        if best is None or value < best:
            best = value
            best_pq = (best_h_p, q)

    p, q = best_pq
    assert best is not None
    return MultiTierDecision(
        device_point=p,
        edge_point=q,
        predicted_latency=best,
        device_nodes=p,
        edge_nodes=q - p,
        cloud_nodes=n - q,
    )


@dataclass(frozen=True)
class MultiTierExitDecision:
    """Result of the SLA-aware exit rule over per-exit three-tier scans."""

    exit_index: int
    feasible: bool
    decision: MultiTierDecision
    decisions: tuple


def multi_tier_exit_decision(
    exit_workloads: Sequence[tuple],
    sla_s: float | None,
    bandwidth_device_edge: float,
    bandwidth_edge_cloud: float,
    k_edge: float = 1.0,
    k_cloud: float = 1.0,
    extra_latency_edge_s: float = 0.0,
    extra_latency_cloud_s: float = 0.0,
) -> MultiTierExitDecision:
    """The engine's exit rule lifted to the device/edge/cloud chain.

    ``exit_workloads`` holds one ``(device_times, edge_times, cloud_times,
    sizes)`` tuple per exit, earliest first, final exit last.  Each exit
    gets its own O(n) two-cut scan; the exit axis then resolves exactly
    like the engine's decisions — :func:`~repro.core.engine.pick_exit`:
    latest exit whose optimum meets the SLA, else the globally fastest
    exit (strict ``<``, earliest on ties); ``sla_s`` must be positive
    and finite.  ``sla_s=None`` evaluates only the final exit, making the
    wrapper a zero-cost alias of :func:`multi_tier_decision`.
    """
    if not exit_workloads:
        raise ValueError("exit_workloads must not be empty")

    def scan(workload):
        device_times, edge_times, cloud_times, sizes = workload
        return multi_tier_decision(
            device_times, edge_times, cloud_times, sizes,
            bandwidth_device_edge, bandwidth_edge_cloud,
            k_edge=k_edge, k_cloud=k_cloud,
            extra_latency_edge_s=extra_latency_edge_s,
            extra_latency_cloud_s=extra_latency_cloud_s,
        )

    last = len(exit_workloads) - 1
    if sla_s is None:
        d = scan(exit_workloads[last])
        return MultiTierExitDecision(
            exit_index=last, feasible=True, decision=d,
            decisions=(None,) * last + (d,))
    check_sla(sla_s)
    decisions = tuple(scan(w) for w in exit_workloads)
    chosen, feasible = pick_exit(
        sla_s, [d.predicted_latency for d in decisions])
    return MultiTierExitDecision(
        exit_index=chosen, feasible=feasible, decision=decisions[chosen],
        decisions=decisions)


def multi_tier_objective(
    p: int,
    q: int,
    device_times: Sequence[float],
    edge_times: Sequence[float],
    cloud_times: Sequence[float],
    sizes: Sequence[int],
    bandwidth_device_edge: float,
    bandwidth_edge_cloud: float,
    k_edge: float = 1.0,
    k_cloud: float = 1.0,
    extra_latency_edge_s: float = 0.0,
    extra_latency_cloud_s: float = 0.0,
) -> float:
    """Evaluate ``t(p, q)`` for one explicit two-cut placement.

    The single source of truth for the three-tier objective: both the O(n)
    scan and the brute-force reference must agree with this evaluator on
    the placements they return, which is what the equivalence property
    tests assert.
    """
    n = len(device_times)
    if not 0 <= p <= q <= n:
        raise ValueError(f"need 0 <= p <= q <= n, got p={p}, q={q}, n={n}")
    f = np.asarray(device_times, dtype=np.float64)
    g_e = np.asarray(edge_times, dtype=np.float64)
    g_c = np.asarray(cloud_times, dtype=np.float64)
    s = np.asarray(sizes, dtype=np.float64)
    value = float(f[:p].sum())
    if p == n and q == n:
        return value  # fully local: no hop at all
    value += s[p] * 8 / bandwidth_device_edge + extra_latency_edge_s
    value += k_edge * float(g_e[p:q].sum())
    if q < n:
        value += s[q] * 8 / bandwidth_edge_cloud + extra_latency_cloud_s
        value += k_cloud * float(g_c[q:].sum())
    return value


def multi_tier_brute_force(
    device_times: Sequence[float],
    edge_times: Sequence[float],
    cloud_times: Sequence[float],
    sizes: Sequence[int],
    bandwidth_device_edge: float,
    bandwidth_edge_cloud: float,
    k_edge: float = 1.0,
    k_cloud: float = 1.0,
    extra_latency_edge_s: float = 0.0,
    extra_latency_cloud_s: float = 0.0,
) -> MultiTierDecision:
    """O(n^2) reference implementation (tests and sanity checks)."""
    n = len(device_times)
    best, best_pq = None, (0, 0)
    for q in range(n + 1):
        for p in range(q + 1):
            value = multi_tier_objective(
                p, q, device_times, edge_times, cloud_times, sizes,
                bandwidth_device_edge, bandwidth_edge_cloud,
                k_edge=k_edge, k_cloud=k_cloud,
                extra_latency_edge_s=extra_latency_edge_s,
                extra_latency_cloud_s=extra_latency_cloud_s,
            )
            if best is None or value < best - 1e-15:
                best, best_pq = value, (p, q)
    p, q = best_pq
    assert best is not None
    return MultiTierDecision(p, q, best, p, q - p, n - q)
