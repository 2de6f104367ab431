"""In-memory span tracer that wraps the repo's public functions from outside.

The benchmark never edits ``src/``: a traced repetition installs wrappers on
the attributes callers actually resolve (a class attribute for methods, the
importing module's namespace for functions imported by name), records one
span per call, and restores the original attributes afterwards.  Hot scalar
functions get counters only, so tracing does not swamp the run.

A span is ``(name, start, end, parent, root)``: ``parent`` and ``root`` are
indices into :attr:`Tracer.spans` (``-1`` for no parent).  A span's layer is
the part of its name before the first dot; a layer's self time is its
spans' durations minus the time covered by their child spans.  A root span
that starts a simulated request (``request_inference``, or
``begin_inference``/``complete_inference``) or a real inference carries the
request's key, so every span of one request shares it.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
import weakref
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

LAYERS = ("core", "graph", "profiling", "hardware", "network", "runtime", "nn")

Span = Tuple[str, float, float, int, int]


class Tracer:
    """Collects spans and counters while :attr:`active`."""

    def __init__(self) -> None:
        self.active = False
        self.spans: List[Span] = []
        self.counters: Counter = Counter()
        #: Request key per root span index.
        self.request_keys: Dict[int, str] = {}
        self._stack: List[int] = []
        self._counters_at_mark: Counter = Counter()
        self._clients: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        # Per-tracker latest recorded timestamp, for the causality counters.
        self._tracker_latest: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        stack = self._stack
        index = len(self.spans)
        parent = stack[-1] if stack else -1
        self.spans.append((name, 0.0, 0.0, parent, stack[0] if stack else index))
        stack.append(index)
        return index

    def _close(self, index: int, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, _s, _e, parent, root = self.spans[index]
        self.spans[index] = (name, start, end, parent, root)

    def call(self, name: str, fn: Callable, args, kwargs):
        index = self._open(name)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index, start)

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        """A span opened by the benchmark's own code; yields its index."""
        if not self.active:
            yield -1
            return
        index = self._open(name)
        start = time.perf_counter()
        try:
            yield index
        finally:
            self._close(index, start)

    def name_request(self, index: int, key: str) -> None:
        if index >= 0 and self.spans[index][3] < 0:
            self.request_keys[index] = key

    def client_label(self, device) -> int:
        """A stable number per simulated client, in first-seen order."""
        label = self._clients.get(device)
        if label is None:
            label = self._clients[device] = len(self._clients)
        return label

    def mark(self) -> int:
        """Index separating spans (and counts) recorded so far from later
        ones; see :meth:`split`."""
        self._counters_at_mark = self.counters.copy()
        return len(self.spans)

    # -- summaries ---------------------------------------------------------

    def durations(self, name: str, top_level_in_layer: bool = False) -> List[float]:
        """Durations of every span called ``name`` (optionally only those
        not nested in another span of the same layer)."""
        layer = name.split(".", 1)[0]
        out = []
        for span_name, start, end, parent, _root in self.spans:
            if span_name != name:
                continue
            if (top_level_in_layer and parent >= 0
                    and self.spans[parent][0].split(".", 1)[0] == layer):
                continue
            out.append(end - start)
        return out

    def self_times(self) -> Dict[str, float]:
        """Total self time per layer, in seconds."""
        child_time = [0.0] * len(self.spans)
        for _name, start, end, parent, _root in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for i, (name, start, end, _parent, _root) in enumerate(self.spans):
            totals[name.split(".", 1)[0]] += (end - start) - child_time[i]
        return dict(totals)

    def split(self, cut: int) -> Tuple["Tracer", "Tracer"]:
        """The spans before and after ``cut``, as two stand-alone tracers.

        ``cut`` must be a :meth:`mark` taken with no span open, so no span
        of one side refers to the other.
        """
        before, after = Tracer(), Tracer()
        before.spans = self.spans[:cut]
        before.request_keys = {i: k for i, k in self.request_keys.items() if i < cut}
        before.counters = self._counters_at_mark.copy()
        after.spans = [(n, s, e, p - cut if p >= 0 else -1, r - cut)
                       for n, s, e, p, r in self.spans[cut:]]
        after.request_keys = {i - cut: k for i, k in self.request_keys.items()
                              if i >= cut}
        after.counters = self.counters - self._counters_at_mark
        return before, after

    def counts(self) -> Counter:
        """Calls per span name plus the counters: what must repeat exactly
        when the same work is traced twice."""
        counts = Counter(name for name, *_rest in self.spans)
        counts.update(self.counters)
        return counts

    def write_jsonl(self, path) -> None:
        """Spans, one JSON object a line."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, root) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "request": self.request_keys.get(root),
                }) + "\n")


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------

def _span_wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    if inspect.iscoroutinefunction(fn):
        # The span covers the awaited call, not the creation of the
        # coroutine.  It stays open across suspensions: work the event loop
        # runs meanwhile (the in-process server) nests under it.
        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            if not tracer.active:
                return await fn(*args, **kwargs)
            index = tracer._open(name)
            start = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                tracer._close(index, start)
        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        return tracer.call(name, fn, args, kwargs)
    return wrapper


def _request_wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """A span that, when it is a root, is keyed by (client, request id)."""
    @functools.wraps(fn)
    def wrapper(device, *args, **kwargs):
        if not tracer.active:
            return fn(device, *args, **kwargs)
        index = len(tracer.spans)
        result = tracer.call(name, fn, (device,) + args, kwargs)
        tracer.name_request(
            index, f"client{tracer.client_label(device)}/{result.request_id}")
        return result
    return wrapper


def _counter_wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.active:
            tracer.counters[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def _tracker_record(tracer: Tracer, _name: str, fn: Callable) -> Callable:
    """Counts busy-time records stamped earlier than one already seen."""
    @functools.wraps(fn)
    def record(tracker, time_s, busy_s):
        if tracer.active:
            latest = tracer._tracker_latest.get(tracker)
            if latest is not None and time_s < latest:
                tracer.counters["tracker_out_of_order"] += 1
            tracer._tracker_latest[tracker] = (
                time_s if latest is None else max(latest, time_s))
        return fn(tracker, time_s, busy_s)
    return record


def _tracker_read(tracer: Tracer, _name: str, fn: Callable) -> Callable:
    """Counts utilisation reads, and those that see busy time stamped
    later than the read."""
    @functools.wraps(fn)
    def utilization(tracker, now_s):
        if tracer.active:
            tracer.counters["tracker_reads"] += 1
            latest = tracer._tracker_latest.get(tracker)
            if latest is not None and latest > now_s:
                tracer.counters["tracker_future_reads"] += 1
        return fn(tracker, now_s)
    return utilization


_KINDS = {
    "span": _span_wrapper,
    "request": _request_wrapper,
    "count": _counter_wrapper,
    "tracker_record": _tracker_record,
    "tracker_read": _tracker_read,
}


def _targets() -> Sequence[Tuple[object, str, str, str]]:
    """``(owner, attribute, kind, span or counter name)`` per call site.

    Owners are the objects callers resolve the name on: classes for
    methods (a subclass override is wrapped on its own, beside its base),
    and ``repro.runtime.transport`` for ``decode_any``, which that module
    imports into its own namespace.
    """
    from repro.core.engine import LoADPartEngine
    from repro.graph.graph import ComputationGraph
    from repro.graph.partitioner import GraphPartitioner
    from repro.hardware.device_model import DeviceModel
    from repro.hardware.gpu_model import GpuModel
    from repro.hardware.gpu_scheduler import GpuScheduler
    from repro.network.channel import Channel
    from repro.network.codec import TensorCodec
    from repro.network.estimator import BandwidthEstimator
    from repro.nn.plan import CompiledPlan, PlanStream
    from repro.profiling.offline import OfflineProfiler
    from repro.runtime import transport
    from repro.runtime.client import UserDevice
    from repro.runtime.gateway import EdgeGateway, GatewayDevice
    from repro.runtime.multi import SharedEdgeServer, SharedLoadTracker
    from repro.runtime.supervisor import FleetSupervisor

    return (
        (LoADPartEngine, "decide", "span", "core.decide"),
        (LoADPartEngine, "decide_fleet", "span", "core.decide_fleet"),
        (LoADPartEngine, "decide_exit_fleet", "span", "core.decide_exit_fleet"),
        (LoADPartEngine, "decide_joint", "span", "core.decide_joint"),
        (ComputationGraph, "cuts", "span", "graph.cuts"),
        (GraphPartitioner, "__init__", "span", "graph.partitioner_build"),
        (GraphPartitioner, "partition", "span", "graph.partition"),
        (OfflineProfiler, "run", "span", "profiling.train"),
        (DeviceModel, "sample_graph_time", "span", "hardware.sample"),
        (GpuModel, "sample_kernel_times", "span", "hardware.sample"),
        (GpuScheduler, "execute", "span", "hardware.gpu_execute"),
        (DeviceModel, "sample_time", "count", "hardware.sample_time"),
        (GpuModel, "sample_time", "count", "hardware.sample_time"),
        (BandwidthEstimator, "estimate", "span", "network.estimate"),
        (Channel, "try_upload", "span", "network.upload"),
        (Channel, "try_upload_stream", "span", "network.upload"),
        (TensorCodec, "wire_bytes", "count", "network.wire_bytes"),
        (TensorCodec, "encode", "span", "network.encode"),
        (transport, "decode_any", "span", "network.decode"),
        (UserDevice, "request_inference", "request", "runtime.request"),
        (UserDevice, "begin_inference", "request", "runtime.begin"),
        (GatewayDevice, "begin_inference", "request", "runtime.begin"),
        (UserDevice, "complete_inference", "request", "runtime.complete"),
        (UserDevice, "profiler_tick", "span", "runtime.profiler_tick"),
        (EdgeGateway, "route", "span", "runtime.route"),
        (EdgeGateway, "route_exit", "span", "runtime.route"),
        (SharedEdgeServer, "handle_offload", "span", "runtime.server_handle"),
        (SharedEdgeServer, "handle_offload_batch", "span",
         "runtime.server_handle_batch"),
        (FleetSupervisor, "tick", "span", "runtime.supervisor_tick"),
        (SharedLoadTracker, "record", "tracker_record", ""),
        (SharedLoadTracker, "utilization", "tracker_read", ""),
        (transport.TransportClient, "offload", "span", "runtime.transport"),
        (CompiledPlan, "__init__", "span", "nn.compile"),
        (CompiledPlan, "execute", "span", "nn.execute"),
        (PlanStream, "feed", "span", "nn.execute"),
        (PlanStream, "finish", "span", "nn.execute"),
    )


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every target, activate ``tracer``, and restore on exit.

    Originals come from the owner's own ``__dict__``, and exactly those
    objects are put back, so nothing of the tracer outlives the block.
    """
    saved = []
    try:
        for owner, attr, kind, name in _targets():
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _KINDS[kind](tracer, name, original))
        tracer.active = True
        yield tracer
    finally:
        tracer.active = False
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def p50(values: Sequence[float]) -> float:
    """Median, or 0.0 for no values (a layer the workload never called)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return float((ordered[mid - 1] + ordered[mid]) / 2)
