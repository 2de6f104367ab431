"""Protocol records exchanged between the device and the edge server."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict

#: Request outcome taxonomy shared by :class:`OffloadReply` and
#: :class:`InferenceRecord`:
#:
#: - ``ok`` — completed on the first attempt (offloaded or locally, as decided).
#: - ``retried`` — offload completed after at least one retry.
#: - ``fallback_local`` — offload path failed (timeouts, dead server, open
#:   circuit breaker); the device degraded to full local execution.
#: - ``rejected`` — the server's admission control turned the request away
#:   (BusyReply) and the retry budget ran out; resolved locally.
#: - ``failed`` — a non-resilient client hit a fault it cannot handle: the
#:   request never completes (``total_s`` is ``inf``).
STATUSES = ("ok", "retried", "fallback_local", "rejected", "failed")


@dataclass(frozen=True)
class OffloadReply:
    """Server's answer to one offloading request."""

    request_id: int
    partition_point: int
    server_exec_s: float       # time at the server incl. contention (and,
                               # under dynamic batching, queueing delay)
    result_bytes: int          # size of the result tensor to download
    cache_hit: bool            # server-side partition cache
    partition_overhead_s: float
    queue_s: float = 0.0       # batching queue delay folded into server_exec_s
    batch_size: int = 1        # requests co-executed in this batch
    status: str = "ok"
    #: GPU occupancy of this request.  Under arrival-gated (streamed)
    #: execution the *exposed* ``server_exec_s`` can be much smaller than
    #: the compute actually burned, because tail segments overlapped the
    #: upload; this field carries the busy time for load accounting.
    #: ``None`` means no overlap happened: busy time == ``server_exec_s``.
    gpu_busy_s: float | None = None
    #: Early exit whose tail this reply executed; ``None`` means the full
    #: network (exit-free request), matching every pre-exit record.
    exit_index: int | None = None
    #: Tail-segment output tensors (producer name -> array) when the system
    #: runs in functional mode; None in pure-simulation runs.  Excluded from
    #: equality/repr so timing-level semantics are unchanged.
    tensors: Dict[str, Any] | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class BusyReply:
    """Admission-control rejection: the server's queue is full.

    Instead of absorbing unbounded load (and letting every client's latency
    diverge), a bounded server sheds it — the client should retry after
    ``retry_after_s`` or fall back to local execution.
    """

    request_id: int
    retry_after_s: float
    status: str = "rejected"


@dataclass(frozen=True)
class LoadReply:
    """Server's answer to the device profiler's load query (§IV)."""

    k: float
    gpu_utilization: float


@dataclass(frozen=True)
class ProbeReport:
    """Decomposition of one two-size supervisor health probe.

    The supervisor times a small ping upload and a bulk upload on the
    same tick; their *difference* isolates the transfer term (the link's
    base latency cancels), so ``bandwidth_bps`` is latency-corrected and
    ``latency_s`` is the residual base latency implied by the ping —
    the raw material of the learned per-server link penalties.
    ``accepted`` records whether the link estimator kept the latency
    sample or rejected it as an outlier.
    """

    server_id: int
    time_s: float
    ping_s: float              # elapsed of the small ping upload
    bulk_s: float              # elapsed of the bulk probe upload
    bulk_bytes: int
    latency_s: float           # implied link base latency (>= 0)
    bandwidth_bps: float       # latency-corrected bandwidth sample
    accepted: bool


@dataclass(frozen=True, slots=True)
class InferenceRecord:
    """Everything measured about one end-to-end inference.

    Slotted: a run keeps every record, thousands per simulated second,
    and dropping the per-instance ``__dict__`` trims each by about a tenth.
    """

    request_id: int
    start_s: float
    partition_point: int
    estimated_bandwidth_bps: float
    k_used: float
    device_s: float
    upload_s: float
    server_s: float
    download_s: float
    overhead_s: float
    total_s: float
    load_level: str
    device_cache_hit: bool
    server_cache_hit: bool
    server_queue_s: float = 0.0   # batching queue delay (part of server_s)
    batch_size: int = 1           # requests co-executed with this one
    status: str = "ok"            # one of STATUSES
    codec: str = "fp32"           # wire codec of the upload (streaming path)
    chunks: int = 1               # upload chunks (1 = monolithic transfer)
    #: Device-side encode time charged before the upload starts, and the
    #: *exposed* server-side decode time beyond the upload's end (per-tensor
    #: decodes that overlapped the stream are already hidden).  Both are 0
    #: on the classic fp32 monolithic path, keeping
    #: ``total = device + encode + upload + decode + server + download +
    #: overhead + wasted`` backward compatible.
    encode_s: float = 0.0
    decode_s: float = 0.0
    retries: int = 0              # offload attempts beyond the first
    timeout_s: float = 0.0        # per-attempt deadline (0 = no deadline)
    #: Wall time burned on failed attempts before the recorded (final) one:
    #: timeouts waited out, backoff sleeps, busy-rejection round trips.  The
    #: waiting is latency the user experienced, so it is part of
    #: ``total_s`` (total = device + encode + upload + decode + server
    #: + download + overhead + wasted).
    wasted_s: float = 0.0
    #: Edge server this request was (last) sent to; ``None`` for requests
    #: resolved purely locally (no server involved).  The single-server
    #: runtime stamps 0, so fleet-routed and direct records compare equal.
    server_id: int | None = None
    #: Per-request latency SLA this request carried (``None`` = no SLA;
    #: every pre-exit record compares equal to the defaults below).
    sla_s: float | None = None
    #: Early exit the request was served at (``None`` = full network).
    exit_index: int | None = None
    #: ``total_s <= sla_s`` for SLA-carrying requests, ``None`` otherwise.
    met_sla: bool | None = None

    @property
    def is_local(self) -> bool:
        return self.upload_s == 0.0 and self.server_s == 0.0

    @property
    def completed(self) -> bool:
        """True when the request produced a result (locally or offloaded)."""
        return self.status != "failed" and math.isfinite(self.total_s)

    @property
    def fell_back(self) -> bool:
        """True when the request was resolved by degrading to local."""
        return self.status in ("fallback_local", "rejected")
