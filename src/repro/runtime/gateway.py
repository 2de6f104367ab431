"""Sharded edge fleet: a gateway fronting N edge servers.

The runtime so far is one device ↔ one edge server; a crash leaves only
local fallback.  This module shards the edge side: N
:class:`~repro.runtime.multi.SharedEdgeServer` instances — each with its
own GPU, load-factor monitor, fault plan and link — sit behind an
:class:`EdgeGateway` that routes every offload by solving the joint
``(partition point, server)`` decision
(:meth:`~repro.core.engine.LoADPartEngine.decide_fleet`): Algorithm 1's
prefix/suffix arrays are scanned once per candidate server with that
server's influential factor ``k_s``, bandwidth estimate and link base
latency, and the global minimum wins.  Per-server inputs come from the
:class:`~repro.runtime.supervisor.FleetSupervisor`; where the supervisor
has no data (probing disabled, or a cold start) the client's own §IV
estimates are the fallback — which is exactly what makes a 1-server
gateway with probes disabled *byte-identical* to the direct
client↔server path.

Failover: a retry of a failed request re-enters the router, which
excludes the previously-routed server (as a preference, not a hard ban —
a 1-server fleet still retries its only server), so retries re-route to
a live sibling instead of falling straight back to local.  Dead servers
(missed heartbeats, open per-server breakers) leave the candidate pool
entirely until the supervisor's probes revive them.

Admission lives at the gateway: an ``admission_limit`` bounds how many
offloads each server is routed per sliding window, so a saturated server
is simply skipped and the request re-planned on the next-best
``(point, server)``; only when *every* live server is saturated does the
gateway resolve the request locally (counted in ``rejected_count``).

Per-server link base latencies enter the decision *relative to the
fleet minimum*: a common offset cannot change any within-server argmin
but would bias local-vs-offload against the whole fleet in a way the
single-server Algorithm 1 never charges, so the nearest server is the
zero-extra reference and farther servers pay the difference.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.engine import LoADPartEngine, ServerProfile
from repro.core.partition_algorithm import PartitionDecision
from repro.network.channel import Channel, NetworkParams
from repro.network.faults import FaultyChannel, ServerFaultPlan
from repro.network.traces import BandwidthTrace, ConstantTrace
from repro.runtime.client import UserDevice
from repro.runtime.events import EventLoop
from repro.runtime.messages import BusyReply, InferenceRecord
from repro.runtime.multi import FleetResult, SharedEdgeServer, SharedLoadTracker
from repro.runtime.server import EdgeServer
from repro.runtime.supervisor import FleetSupervisor, SupervisorConfig
from repro.runtime.system import SystemConfig, Timeline


@dataclass(frozen=True)
class GatewayConfig:
    """Knobs of the fleet gateway.

    ``probes`` is the supervisor configuration; ``None`` disables the
    supervisor loop entirely (no probes, no RNG draws — required for the
    degenerate 1-server identity).  ``admission_limit`` bounds routed
    offloads per server per ``admission_window_s`` sliding window
    (``None`` = unbounded, the default).
    """

    probes: SupervisorConfig | None = None
    admission_limit: int | None = None
    admission_window_s: float = 0.25
    #: Servers whose predicted latency is within this relative band of
    #: the best one rotate round-robin instead of always losing to the
    #: earliest index.  The supervisor's ``k_s`` only refreshes once per
    #: probe period, so between probes a saturated homogeneous fleet
    #: looks near-identical from every client; a strict argmin would
    #: herd every offload onto one server per probe window.  0 restores
    #: exact-tie-only rotation.
    rebalance_tolerance: float = 0.05

    def __post_init__(self) -> None:
        if self.probes is not None and not isinstance(self.probes, SupervisorConfig):
            raise ValueError("probes must be a SupervisorConfig or None")
        if self.admission_limit is not None and self.admission_limit < 1:
            raise ValueError("admission_limit must be >= 1 (or None)")
        if self.admission_window_s <= 0:
            raise ValueError("admission_window_s must be positive")
        if self.rebalance_tolerance < 0:
            raise ValueError("rebalance_tolerance must be non-negative")


class GatewayPort:
    """The gateway-side proxy of one edge server.

    Quacks like an :class:`~repro.runtime.server.EdgeServer` to the
    device (``handle_offload`` / ``handle_load_query`` / attribute
    delegation), while reporting every observed outcome to the
    supervisor — a crashed server's silence, a BusyReply, a healthy
    answer.  Observation never touches any RNG stream, so routing
    through a port is invisible to the simulation's determinism.
    """

    def __init__(self, server: EdgeServer, supervisor: FleetSupervisor) -> None:
        self._server = server
        self._supervisor = supervisor
        self.server_id = server.server_id

    def handle_offload(self, now_s: float, request_id: int, point: int,
                       tensors=None, arrivals=None, exit_index=None):
        reply = self._server.handle_offload(
            now_s, request_id, point, tensors=tensors, arrivals=arrivals,
            exit_index=exit_index)
        if reply is None:
            self._supervisor.note_failure(self.server_id, now_s)
        elif isinstance(reply, BusyReply):
            self._supervisor.note_busy(self.server_id, now_s)
        else:
            self._supervisor.note_ok(self.server_id, now_s)
        return reply

    def handle_load_query(self, now_s: float):
        reply = self._server.handle_load_query(now_s)
        if reply is None:
            self._supervisor.note_failure(self.server_id, now_s)
        else:
            self._supervisor.note_ok(self.server_id, now_s)
        return reply

    def __getattr__(self, name: str):
        return getattr(self._server, name)


class EdgeGateway:
    """Routes each offload to the best ``(partition point, server)``."""

    def __init__(
        self,
        engine: LoADPartEngine,
        servers: Sequence[EdgeServer],
        channels: Sequence[Channel],
        config: GatewayConfig | None = None,
        supervisor_seed: int = 0,
        profiles: Sequence[ServerProfile | None] | None = None,
    ) -> None:
        if not servers:
            raise ValueError("need at least one server")
        if len(servers) != len(channels):
            raise ValueError("one channel per server required")
        if profiles is not None and len(profiles) != len(servers):
            raise ValueError("profiles must name one entry per server")
        self.engine = engine
        self.config = config or GatewayConfig()
        self.channels = list(channels)
        #: Per-server :class:`~repro.core.engine.ServerProfile` sequence
        #: (``None`` = homogeneous fleet, today's behaviour bit-for-bit).
        self.profiles = list(profiles) if profiles is not None else None
        self.supervisor = FleetSupervisor(
            servers, channels,
            config=self.config.probes or SupervisorConfig(),
            seed=supervisor_seed,
        )
        self.probing_enabled = self.config.probes is not None
        self.ports = [GatewayPort(s, self.supervisor) for s in servers]
        self._ids = [s.server_id for s in servers]
        # Relative link penalties: nearest server is the zero reference.
        # This is the *config prior*; with probing + link learning the
        # supervisor's learned latencies replace it (see :meth:`route`).
        bases = [c.params.base_latency_s for c in channels]
        floor = min(bases)
        self._extra_latency = [b - floor for b in bases]
        self._admitted: Dict[int, Deque[float]] = {
            sid: deque() for sid in self._ids}
        #: Rotation counter for the equal-cost tie-break (see :meth:`route`).
        self._rotation = 0
        #: Smooth-WRR credit per server index, for load-weighted rotation.
        self._credits: Dict[int, float] = {}
        self.routed_counts: Dict[int, int] = {sid: 0 for sid in self._ids}
        #: Requests resolved locally because every live server was saturated.
        self.rejected_count = 0
        self.last_decision: PartitionDecision | None = None

    def _extra_latencies(self) -> List[float]:
        """Per-server relative link penalties for the fleet scan.

        With probing and link learning on, each server's penalty is the
        supervisor's learned base latency relative to the fleet's learned
        minimum; before any probe lands the learned estimate *is* the
        channel prior, so this degrades gracefully to the config values.
        With probes disabled (or ``learn_links=False``) the config prior
        is used directly — no supervisor state is read at all, keeping
        the degenerate path untouched.
        """
        if not (self.probing_enabled and self.supervisor.config.learn_links):
            return self._extra_latency
        learned = [self.supervisor.latency_for(sid) for sid in self._ids]
        floor = min(learned)
        return [lat - floor for lat in learned]

    def _index(self, server_id: int) -> int:
        return self._ids.index(server_id)

    def _has_room(self, server_id: int, now_s: float) -> bool:
        limit = self.config.admission_limit
        if limit is None:
            return True
        window = self._admitted[server_id]
        while window and window[0] < now_s - self.config.admission_window_s:
            window.popleft()
        return len(window) < limit

    def _bandwidth_prior(self, index: int, client_fallback: float) -> float:
        """Bandwidth fallback for one server with no supervisor samples.

        A profile's ``bandwidth_bps`` prior beats the requesting client's
        own estimate (which was measured against whichever server that
        client last talked to); without a profile, the client estimate is
        all there is — today's behaviour.
        """
        if self.profiles is not None:
            profile = self.profiles[index]
            if profile is not None and profile.bandwidth_bps is not None:
                return profile.bandwidth_bps
        return client_fallback

    def _pick_tied(self, ties: List[int], ks: Sequence[float]) -> int:
        """Pick one server index from the near-tie band.

        Equal weights (every tied server reports the same ``k_s`` — the
        homogeneous fleet between probe refreshes, or probing disabled)
        take the original round-robin path unchanged.  Otherwise servers
        rotate by predicted residual capacity ``1/k_s`` via smooth
        weighted round-robin: each tied server earns its weight in
        credits, the richest (ties → lowest index) pays the round's total
        and wins — over time server ``i`` receives a ``w_i / Σw`` share
        of the near-tie traffic instead of a flat ``1/len(ties)``.
        """
        weights = [1.0 / max(float(ks[i]), 1.0) for i in ties]
        if len(set(weights)) <= 1:
            index = ties[self._rotation % len(ties)]
            self._rotation += 1
            return index
        for i, w in zip(ties, weights):
            self._credits[i] = self._credits.get(i, 0.0) + w
        index = max(ties, key=lambda i: (self._credits[i], -i))
        self._credits[index] -= sum(weights)
        return index

    def _local_decision(self, sla_s: float | None) -> PartitionDecision:
        """Local resolution: the scan over no server at all, so every exit
        offers only its local candidate (and an SLA still picks the exit)."""
        return self.engine.decide_fleet((), (), sla_s=sla_s)

    def route(self, now_s: float, bandwidth_fallback: float, k_fallback: float,
              exclude: Sequence[int] = (), sla_s: float | None = None,
              ) -> Tuple[int | None, PartitionDecision]:
        """Pick ``(server, decision)`` for one offload request.

        ``bandwidth_fallback`` / ``k_fallback`` are the requesting
        client's own §IV estimates, used for any server the supervisor
        has no fresh data about.  ``exclude`` lists servers the caller
        would rather avoid (the previously-failed server of a retry); it
        is a preference — when it empties the candidate pool, the full
        pool is used instead.  ``sla_s`` opens the engine's exit axis: the
        joint ``(exit, point, server)`` decision.  Returns ``(None, local
        decision)`` when the whole fleet is dark or saturated, or when
        local inference wins on merit.

        Near-tie rotation happens *within* the chosen exit's per-server
        cells, and — when the decision meets its SLA — only among servers
        still predicted to meet it, so rotation never trades a met
        deadline for load spreading.
        """
        sup = self.supervisor
        for sid in self._ids:
            sup.detect_restart(sid, now_s)
        pool = [sid for sid in self._ids if sup.routable(sid)]
        if not pool:
            # Breakers all open: fall back to merely not-dead servers so a
            # lone-server fleet keeps retrying its only path.
            pool = list(sup.live_servers())
        if not pool:
            self.last_decision = None
            return None, self._local_decision(sla_s)
        preferred = [sid for sid in pool if sid not in exclude] or pool
        admitted = [sid for sid in preferred if self._has_room(sid, now_s)]
        if not admitted:
            admitted = [sid for sid in pool if self._has_room(sid, now_s)]
        if not admitted:
            self.rejected_count += 1
            self.last_decision = None
            return None, self._local_decision(sla_s)

        bandwidths = [
            sup.bandwidth_for(sid, self._bandwidth_prior(i, bandwidth_fallback))
            for i, sid in enumerate(self._ids)]
        ks = [sup.k_for(sid, now_s, k_fallback) for sid in self._ids]
        decision = self.engine.decide_fleet(
            bandwidths, ks,
            extra_latencies_s=self._extra_latencies(),
            allowed=[self._index(sid) for sid in admitted],
            profiles=self.profiles,
            sla_s=sla_s,
        )
        self.last_decision = decision
        if decision.server is None:
            return None, decision  # local inference won on merit
        # Rotate among near-tied servers (see
        # ``GatewayConfig.rebalance_tolerance``): a strictly-better
        # server (beyond the band) still wins outright, and a 1-server
        # fleet has no siblings to rotate to — the degenerate identity
        # is untouched.
        band = decision.predicted_latency * (1.0 + self.config.rebalance_tolerance)
        if sla_s is not None and decision.feasible:
            band = min(band, sla_s)
        ties = [row for row in decision.cells.values()
                if row.exit_index == decision.exit_index and not row.is_local
                and row.predicted_latency <= band]
        index = self._pick_tied([row.server for row in ties], ks)
        sid = self._ids[index]
        if self.config.admission_limit is not None:
            self._admitted[sid].append(now_s)
        self.routed_counts[sid] += 1
        return sid, next(row for row in ties if row.server == index)

    #: The SLA-aware name of :meth:`route` (the per-layer benchmark traces
    #: both).
    route_exit = route


class GatewayDevice(UserDevice):
    """A user device whose offloads go through an :class:`EdgeGateway`.

    The device is its own decision policy: :meth:`decide` asks the
    gateway to route, and routing mutates the device's ``server`` /
    ``channel`` to the chosen sibling *before* the upload starts — the
    decision IS the routing step, exactly where the single-server runtime
    runs Algorithm 1.
    """

    def __init__(self, engine: LoADPartEngine, gateway: EdgeGateway,
                 **kwargs) -> None:
        super().__init__(engine, gateway.ports[0], gateway.channels[0],
                         policy=None, **kwargs)
        self.gateway = gateway
        self.policy = self
        self._now_s = 0.0
        self._retrying = False
        self._routed_request_id: int | None = None
        self._routed_server_id: int | None = None

    def begin_inference(self, now_s: float, *, request_id: int | None = None,
                        force_local: bool = False,
                        sla_budget_s: float | None = None):
        self._now_s = now_s
        self._retrying = (request_id is not None
                          and request_id == self._routed_request_id)
        result = super().begin_inference(now_s, request_id=request_id,
                                         force_local=force_local,
                                         sla_budget_s=sla_budget_s)
        if not force_local and not isinstance(result, InferenceRecord):
            self._routed_request_id = result.request_id
        return result

    def decide(self, bandwidth_up: float, k: float = 1.0, *,
               sla_s: float | None = None, streaming=None) -> PartitionDecision:
        """Route one request (``streaming`` is rejected before any device
        exists, see :class:`GatewayFleetSystem`)."""
        exclude: Tuple[int, ...] = ()
        if self._retrying and self._routed_server_id is not None:
            exclude = (self._routed_server_id,)
        sid, decision = self.gateway.route(
            self._now_s, bandwidth_up, k, exclude=exclude, sla_s=sla_s)
        if sid is not None:
            index = self.gateway._index(sid)
            self.server = self.gateway.ports[index]
            self.channel = self.gateway.channels[index]
            self._routed_server_id = sid
        return decision


class GatewayFleetSystem:
    """N clients × M servers behind one gateway, on one event loop.

    The sequential driver mirrors
    :class:`~repro.runtime.multi.MultiClientSystem` exactly — same client
    seeds, same profiler stagger, same global-time-order request loop —
    so a 1-server fleet with probing disabled produces records
    byte-identical to the direct path.  Each server gets its own
    :class:`~repro.runtime.multi.SharedLoadTracker` (contention is
    per-GPU), its own channel (per-link fault streams via
    :meth:`~repro.network.faults.FaultPlan.for_server`), and a
    ``config.seed``-derived RNG that matches the direct path for server 0.
    """

    def __init__(
        self,
        engine: LoADPartEngine,
        num_clients: int,
        num_servers: int = 1,
        bandwidth_trace: BandwidthTrace | None = None,
        config: SystemConfig | None = None,
        gateway_config: GatewayConfig | None = None,
        server_faults: Sequence[ServerFaultPlan | None] | None = None,
        network_params: Sequence[NetworkParams] | None = None,
        tracker_window_s: float = 3.0,
        profiles: Sequence[ServerProfile | None] | None = None,
        gpu_models: Sequence[object | None] | None = None,
        bandwidth_traces: Sequence[BandwidthTrace] | None = None,
    ) -> None:
        if num_clients < 1:
            raise ValueError("need at least one client")
        if num_servers < 1:
            raise ValueError("need at least one server")
        self.config = config or SystemConfig()
        if self.config.batching is not None:
            raise ValueError("dynamic batching is not supported behind the "
                             "gateway; use MultiClientSystem")
        if self.config.streaming is not None:
            raise ValueError("streaming uploads are not supported behind the "
                             "gateway yet")
        if server_faults is not None and len(server_faults) != num_servers:
            raise ValueError("server_faults must name one plan per server")
        if network_params is not None and len(network_params) != num_servers:
            raise ValueError("network_params must name one entry per server")
        if profiles is not None and len(profiles) != num_servers:
            raise ValueError("profiles must name one entry per server")
        if gpu_models is not None and len(gpu_models) != num_servers:
            raise ValueError("gpu_models must name one entry per server")
        if bandwidth_traces is not None and len(bandwidth_traces) != num_servers:
            raise ValueError("bandwidth_traces must name one entry per server")
        self.engine = engine
        self.num_servers = num_servers

        trace = bandwidth_trace or ConstantTrace(8e6)
        servers: List[SharedEdgeServer] = []
        channels: List[Channel] = []
        self.trackers: List[SharedLoadTracker] = []
        for s in range(num_servers):
            tracker = SharedLoadTracker(window_s=tracker_window_s)
            self.trackers.append(tracker)
            fault_plan = None
            if server_faults is not None:
                fault_plan = server_faults[s]
            elif self.config.server_faults is not None and s == 0:
                # A single plan in the SystemConfig lands on server 0 (the
                # direct path's only server); siblings stay healthy.
                fault_plan = self.config.server_faults
            servers.append(SharedEdgeServer(
                engine,
                tracker,
                monitor_window_s=self.config.monitor_window_s,
                watchdog_threshold=self.config.watchdog_threshold,
                watchdog_period_s=self.config.watchdog_period_s,
                # Server 0 matches the direct path's seed; siblings get
                # widely-separated streams.
                seed=self.config.seed + 100 + 1000 * s,
                backend=self.config.backend,
                functional=self.config.functional,
                model_seed=self.config.seed,
                fault_plan=fault_plan,
                parallelism=self.config.parallelism,
                server_id=s,
                # Heterogeneous truth and belief: the GPU model is what
                # the simulated silicon *does*; the profile is what the
                # router (and the server's own k monitor) *believes*.
                gpu_model=(gpu_models[s] if gpu_models is not None else None),
                profile=(profiles[s] if profiles is not None else None),
            ))
            server_trace = (bandwidth_traces[s] if bandwidth_traces is not None
                            else trace)
            params = (network_params[s] if network_params is not None
                      else NetworkParams())
            if self.config.faults is not None:
                channels.append(FaultyChannel(
                    server_trace, self.config.faults.for_server(s), params))
            else:
                channels.append(Channel(server_trace, params))
        self.servers = servers
        self.channels = channels
        self.gateway = EdgeGateway(
            engine, servers, channels,
            config=gateway_config,
            supervisor_seed=self.config.seed + 300,
            profiles=profiles,
        )
        self.policy = self.config.policy
        if self.config.policy != "loadpart":
            raise ValueError("the fleet gateway requires policy='loadpart' "
                             "(the joint (point, server) scan)")
        self.clients: List[GatewayDevice] = []
        sla_classes = self.config.sla_classes
        for i in range(num_clients):
            self.clients.append(GatewayDevice(
                engine,
                self.gateway,
                seed=self.config.seed + 200 + i,
                backend=self.config.backend,
                functional=self.config.functional,
                model_seed=self.config.seed,
                resilience=self.config.resilience,
                parallelism=self.config.parallelism,
                sla_s=(sla_classes[i % len(sla_classes)]
                       if sla_classes else None),
            ))
        self.loop = EventLoop()

    @property
    def supervisor(self) -> FleetSupervisor:
        return self.gateway.supervisor

    def run(self, duration_s: float) -> FleetResult:
        """Simulate all clients issuing requests back-to-back."""
        loop = self.loop
        records: List[List[InferenceRecord]] = [[] for _ in self.clients]

        for i, client in enumerate(self.clients):
            client.profiler_tick(0.0)
            # Stagger profiler periods so clients don't probe in lockstep
            # (identical to MultiClientSystem).
            offset = (i + 1) * self.config.profiler_period_s / (len(self.clients) + 1)
            loop.schedule_every(
                self.config.profiler_period_s,
                lambda c=client: c.profiler_tick(loop.now),
                start_s=offset,
            )
        for server in self.servers:
            loop.schedule_every(
                self.config.watchdog_period_s,
                lambda s=server: s.watchdog_tick(loop.now))
        if self.gateway.probing_enabled:
            probe_period = self.supervisor.config.probe_period_s
            self.supervisor.tick(0.0)
            loop.schedule_every(probe_period,
                                lambda: self.supervisor.tick(loop.now))

        next_at = [i * 0.003 for i in range(len(self.clients))]
        while True:
            idx = int(np.argmin(next_at))
            t = next_at[idx]
            if t >= duration_s:
                break
            loop.run_until(t)
            record = self.clients[idx].request_inference(t)
            records[idx].append(record)
            next_at[idx] = t + record.total_s + self.config.think_time_s
        return FleetResult(
            timelines=tuple(Timeline(r) for r in records),
            policy=self.policy,
            num_servers=self.num_servers,
        )
