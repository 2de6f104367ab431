"""Algorithm 1 of the paper: the partition decision.

Solves Problem (1): pick the partition point ``p`` on the topological order
``L_0 .. L_n`` minimising

    t_p = sum_{i<=p} f(L_i)  +  s_p / B_u  +  sum_{i>p} g(L_i, k)  +  s_n / B_d

with ``p = n`` meaning local inference (no network terms).  Prefix sums of
``f`` and suffix sums of ``g`` make the scan O(n) time and O(n) space.

Following the paper's implementation (§IV): ``g(L_i, k) = k * M_edge(L_i)``,
so the suffix array is computed once from ``M_edge`` and ``k`` multiplies it
at decision time; the download term ``s_n / B_d`` is ignored by default
because the result tensor of a discriminative DNN is tiny.

The tie-break matches the pseudo-code exactly: ``curVal <= minVal`` keeps
updating, so among equal-latency points the *latest* one wins (preferring
local execution when offloading buys nothing).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence, Tuple

import numpy as np


#: Coordinates of one cell of the decision grid: ``(exit_index, server,
#: codec, streamed)``.  An axis the scan did not open is ``None`` (exit,
#: server) or the default (``"fp32"``, ``False``).
Cell = Tuple[int | None, int | None, str, bool]


@dataclass(frozen=True)
class PartitionDecision:
    """Result of one partition decision.

    ``point`` is the chosen ``p`` (0 = full offloading, n = local
    inference); ``predicted_latency`` its objective value; ``candidates``
    the full objective vector (index = partition point) of the winning
    grid cell, useful for plotting Fig. 1-style landscapes.  Algorithm 1
    alone fills only these three.

    The engine's grid scan (:meth:`~repro.core.engine.LoADPartEngine.decide`
    and :meth:`~repro.core.engine.LoADPartEngine.decide_fleet`) fills the
    rest: ``server`` is the chosen fleet index (``None`` for local
    inference or a single-server scan); ``exit_index`` the chosen early
    exit (``None`` unless an SLA opened the exit axis of an exit-carrying
    engine); ``accuracy`` that exit's declared accuracy; ``feasible``
    whether the prediction meets ``sla_s``; ``codec``/``streamed``/
    ``chunks``/``wire_bytes`` the upload; ``predicted_*_s`` the per-stage
    breakdown; and ``cells`` maps every evaluated :data:`Cell` to its own
    row decision (that cell's best point), for tests and the gateway's
    near-tie rotation.
    """

    point: int
    predicted_latency: float
    candidates: np.ndarray
    server: int | None = None
    exit_index: int | None = None
    accuracy: float = 1.0
    sla_s: float | None = None
    feasible: bool = True
    codec: str = "fp32"
    streamed: bool = False
    chunks: int = 1
    wire_bytes: int | None = None
    predicted_device_s: float = 0.0
    predicted_encode_s: float = 0.0
    predicted_upload_s: float = 0.0
    predicted_decode_s: float = 0.0
    predicted_server_s: float = 0.0
    cells: Mapping[Cell, "PartitionDecision"] = field(default_factory=dict)

    @property
    def is_local(self) -> bool:
        return self.point == len(self.candidates) - 1

    @property
    def is_full_offload(self) -> bool:
        return self.point == 0


def compute_prefix_device(device_times: Sequence[float]) -> np.ndarray:
    """``prefix[i] = sum_{j<i} f(L_j)`` for i in 0..n (f(L_0)=0 is implicit)."""
    arr = np.asarray(device_times, dtype=np.float64)
    if np.any(arr < 0):
        raise ValueError("device times must be non-negative")
    prefix = np.zeros(len(arr) + 1)
    np.cumsum(arr, out=prefix[1:])
    return prefix


def compute_suffix_edge(edge_times: Sequence[float]) -> np.ndarray:
    """``suffix[i] = sum_{j>=i} M_edge(L_j)`` for i in 0..n (+ suffix[n]=0).

    Index convention: ``suffix[p]`` is the *unit-k* server time of the tail
    when partitioning after point ``p`` (nodes at positions p+1..n, i.e.
    array indices p..n-1).
    """
    arr = np.asarray(edge_times, dtype=np.float64)
    if np.any(arr < 0):
        raise ValueError("edge times must be non-negative")
    suffix = np.zeros(len(arr) + 1)
    np.cumsum(arr[::-1], out=suffix[:-1][::-1])
    return suffix


def partition_decision(
    device_times: Sequence[float],
    edge_times: Sequence[float],
    sizes: Sequence[int],
    bandwidth_up: float,
    k: float = 1.0,
    bandwidth_down: float | None = None,
    output_bytes: int = 0,
    prefix: np.ndarray | None = None,
    suffix: np.ndarray | None = None,
    offload_only: bool = False,
    extra_latency_s: float = 0.0,
) -> PartitionDecision:
    """Run Algorithm 1.

    Parameters
    ----------
    device_times, edge_times:
        Per-node predictions ``M_user(L_i)`` / ``M_edge(L_i)`` for the
        topological order (length n).
    sizes:
        Transmission sizes ``s_0..s_n`` in bytes (length n+1).
    bandwidth_up:
        Available upload bandwidth in bit/s.
    k:
        Influential factor of the server computation load (>= 1).
    bandwidth_down, output_bytes:
        Optional download term ``s_n / B_d``; ignored when
        ``bandwidth_down`` is None, as in the paper's implementation.
    prefix, suffix:
        Precomputed arrays (see :class:`~repro.core.engine.LoADPartEngine`),
        avoiding the O(n) cumsum on every call.
    offload_only:
        Exclude ``p = n`` (local inference) from the scan — the paper's
        fig. 6 setting, which measures *offloaded* latency even where
        staying local would win.
    extra_latency_s:
        Fixed per-request link latency charged to every *offloading*
        candidate (``p < n``) — the base latency of the server's
        :class:`~repro.network.channel.NetworkParams`.  In a multi-server
        fleet this is what distinguishes a nearby server from a far one at
        equal bandwidth; the default 0.0 adds exactly nothing, keeping
        single-server decisions bit-identical to the paper's.
    """
    n = len(device_times)
    if len(edge_times) != n:
        raise ValueError("device_times and edge_times must have the same length")
    if len(sizes) != n + 1:
        raise ValueError(f"sizes must have length n+1={n + 1}, got {len(sizes)}")
    if bandwidth_up <= 0:
        raise ValueError("upload bandwidth must be positive")
    if k < 1.0:
        raise ValueError(f"the influential factor k must be >= 1, got {k}")
    if extra_latency_s < 0:
        raise ValueError("extra_latency_s must be non-negative")
    if prefix is None:
        prefix = compute_prefix_device(device_times)
    if suffix is None:
        suffix = compute_suffix_edge(edge_times)

    download = 0.0
    if bandwidth_down is not None:
        if bandwidth_down <= 0:
            raise ValueError("download bandwidth must be positive")
        download = output_bytes * 8 / bandwidth_down

    bits = np.asarray(sizes, dtype=np.float64) * 8
    candidates = objective_vector(prefix, suffix, bits, bandwidth_up, k,
                                  download, extra_latency_s)
    best = latest_argmin(candidates, offload_only)
    return PartitionDecision(
        point=best,
        predicted_latency=float(candidates[best]),
        candidates=candidates,
    )


def objective_vector(prefix: np.ndarray, suffix: np.ndarray, bits: np.ndarray,
                     bandwidth_up: float, k: float, download: float = 0.0,
                     extra_latency_s: float = 0.0) -> np.ndarray:
    """Problem (1) at every partition point, from the prefix/suffix arrays.

    ``bits`` is the upload size ``s_p * 8`` per point.  ``candidates[n]``
    is pure local inference: no network, no server term (``suffix[n] ==
    0`` by construction).
    """
    candidates = prefix + k * suffix
    candidates[:-1] += bits[:-1] / bandwidth_up + download + extra_latency_s
    return candidates


def latest_argmin(candidates: np.ndarray, offload_only: bool = False) -> int:
    """The pseudo-code's ``curVal <= minVal`` scan: the LAST minimiser,
    over every point or (``offload_only``) every point but local."""
    scan = candidates[:-1] if offload_only else candidates
    return int(len(scan) - 1 - np.argmin(scan[::-1]))
