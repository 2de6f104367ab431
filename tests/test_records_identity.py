"""Records-identity pins: two tiny fleets whose every record is hashed.

The simulator's hot path (cost sampling, window sums, the bandwidth
estimator, partition caches) is free to get faster, but not to change one
random draw or one floating-point sum.  These digests were computed before
the hot path was vectorised; any rewrite that shifts an RNG draw, reorders
a sum or changes a cache hit flips them.
"""

from __future__ import annotations

import hashlib
from dataclasses import astuple

from repro.network.faults import ServerFaultPlan
from repro.network.streaming import StreamingConfig
from repro.network.traces import ConstantTrace, StepTrace
from repro.runtime.batching import BatchingConfig
from repro.runtime.gateway import GatewayConfig, GatewayFleetSystem
from repro.runtime.multi import MultiClientSystem
from repro.runtime.resilience import ResilienceConfig
from repro.runtime.supervisor import SupervisorConfig
from repro.runtime.system import SystemConfig

GATEWAY_DIGEST = "23676a7d1cfca51519ab451c0c3d1bf8997586261a39d802fcdbd10a2bf4bb89"
STREAM_DIGEST = "ad96a15873ee90e5f45e0d797be3d1b638a03f43a087b0e01b319d49f2ad8ecb"
SAME_INSTANT_DIGEST = "e81ce37e03c041f81cb32486d595e24f06f210d1299cc166b40def871316df29"


def digest(result) -> str:
    h = hashlib.sha256()
    for timeline in result.timelines:
        for record in timeline:
            h.update(repr(astuple(record)).encode())
            h.update(b"\n")
    return h.hexdigest()


def test_gateway_fleet_records_pinned(squeezenet_exit_engine):
    horizon = 3.0
    faults = [None] * 4
    faults[0] = ServerFaultPlan(crash_windows=((horizon / 3, 2 * horizon / 3),))
    system = GatewayFleetSystem(
        squeezenet_exit_engine, 24, num_servers=4,
        bandwidth_trace=ConstantTrace(50e6),
        config=SystemConfig(seed=5, think_time_s=0.5,
                            resilience=ResilienceConfig(max_retries=2),
                            sla_classes=(None, 0.15)),
        gateway_config=GatewayConfig(
            probes=SupervisorConfig(probe_period_s=0.5)),
        server_faults=faults,
    )
    assert digest(system.run(horizon)) == GATEWAY_DIGEST


def test_batched_streaming_fleet_records_pinned(engine_for):
    horizon = 6.0
    steps = [(0.0, 8e6), (horizon / 3, 2e6), (2 * horizon / 3, 32e6)]
    system = MultiClientSystem(
        engine_for("resnet18"), 4, bandwidth_trace=StepTrace(steps),
        config=SystemConfig(seed=5, think_time_s=0.2,
                            streaming=StreamingConfig(),
                            batching=BatchingConfig()),
    )
    assert digest(system.run(horizon)) == STREAM_DIGEST


def test_start_after_same_instant_probe_pinned(squeezenet_engine):
    """A client start and a periodic probe share one instant: the probe,
    armed one period earlier, runs first and the start sees its result.
    Scheduling every start up front flips this order (and the digest)."""
    system = GatewayFleetSystem(
        squeezenet_engine, 4, num_servers=2,
        bandwidth_trace=ConstantTrace(50e6),
        config=SystemConfig(seed=3, think_time_s=0.05),
        gateway_config=GatewayConfig(
            probes=SupervisorConfig(probe_period_s=0.003)),
    )
    ticks = []
    tick = system.supervisor.tick

    def logged_tick(now_s):
        ticks.append(now_s)
        tick(now_s)
    system.supervisor.tick = logged_tick
    result = system.run(0.3)
    # Client 2 starts at 2 * 3 ms, exactly when the second probe fires.
    start = result.timelines[2].records[0].start_s
    assert start == 0.006 and ticks[2] == start
    assert digest(result) == SAME_INSTANT_DIGEST
