"""The benchmark's three workloads, their output checks and their metrics.

Every workload is a closed loop driven from this one process: each client
(or the single real client) waits for its reply before it sends again.

- ``gateway_crash_sla`` — 1000 clients behind a 4-server gateway, cost
  models only, server 0 crashed for the middle third of the horizon.
- ``stream_batch``      — 40 streaming clients on the event-driven batched
  request loop while the uplink steps 8 -> 2 -> 32 Mbps.
- ``real_offload``      — real partitioned inference over the asyncio
  transport, four models in sequence.

A simulated workload repeats a fixed set of scenarios (sub-seeds of the
run's seed); each repetition builds its system from scratch (timed as
set-up) and then runs it (timed as the measured phase).  Simulated-time
metrics, counts and the records digest come from the first pass over the
scenario set, so they depend on the seed alone; every repeated scenario
must reproduce its records byte for byte.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import math
import pathlib
import resource
import time
from dataclasses import astuple, dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

# Imported up front so that no set-up timing includes an import.
from repro.core.engine import LoADPartEngine
from repro.graph.partitioner import GraphPartitioner
from repro.models import build_exit_model, build_model
from repro.network.faults import ServerFaultPlan
from repro.network.streaming import StreamingConfig
from repro.network.traces import ConstantTrace, StepTrace
from repro.nn.executor import GraphExecutor, SegmentExecutor
from repro.profiling.offline import OfflineProfiler
from repro.runtime.batching import BatchingConfig
from repro.runtime.gateway import GatewayConfig, GatewayFleetSystem
from repro.runtime.messages import STATUSES
from repro.runtime.multi import MultiClientSystem
from repro.runtime.resilience import ResilienceConfig
from repro.runtime.supervisor import SupervisorConfig
from repro.runtime.system import SystemConfig
from repro.runtime.transport import TransportClient, TransportServer
from tracing import LAYERS, Tracer, installed, p50

#: Predictor bundle every experiment in the repo trains (samples, seed).
TRAIN_SAMPLES = 250
TRAIN_SEED = 7
#: Weights of the real models (both endpoints build them from this seed).
MODEL_SEED = 0

GATEWAY = {
    "model": "squeezenet", "clients": 1000, "servers": 4,
    "bandwidth_bps": 50e6, "think_s": 6.0, "horizon_s": 30.0,
    "probe_period_s": 0.5, "sla_classes": (None, 0.15), "max_retries": 2,
    "scenarios": 3,
}
STREAM = {
    "model": "resnet18", "clients": 40, "think_s": 0.2, "horizon_s": 20.0,
    "steps_bps": (8e6, 2e6, 32e6), "deadline_s": 1.0, "scenarios": 1,
}
REAL = {
    "models": ("alexnet", "squeezenet", "resnet18", "mobilenet_v1"),
    "bandwidths_bps": (1e6, 8e6, 64e6), "inputs": 2, "setups": 3,
    "min_rounds": 11, "deadline_s": 0.25,
}
TINY = {
    "gateway_crash_sla": {"clients": 24, "horizon_s": 3.0, "scenarios": 2},
    "stream_batch": {"clients": 4, "horizon_s": 2.0},
    "real_offload": {"models": ("squeezenet",), "setups": 2, "min_rounds": 2},
}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def train_predictors():
    return OfflineProfiler(samples_per_category=TRAIN_SAMPLES,
                           seed=TRAIN_SEED).run()


# ---------------------------------------------------------------------------
# output checks on simulated records
# ---------------------------------------------------------------------------

STAGES = ("device", "encode", "upload", "decode", "server", "download",
          "overhead", "wasted")


def records_digest(records) -> str:
    """SHA-256 over every field of every record, in the order they were recorded."""
    h = hashlib.sha256()
    for record in records:
        h.update(repr(astuple(record)).encode())
        h.update(b"\n")
    return h.hexdigest()


def record_violations(records, num_exits: int) -> int:
    """Records that break an invariant or did not complete.

    Completed records: the stages sum to ``total_s`` and none is negative.
    Every record: ``status`` is a known status and ``exit_index`` names an
    exit of the engine.
    """
    bad = 0
    for r in records:
        stages = [getattr(r, f"{s}_s") for s in STAGES]
        ok = r.status in STATUSES and (
            r.exit_index is None or 0 <= r.exit_index < num_exits)
        if r.completed:
            ok = ok and min(stages) >= 0.0 and math.isclose(
                sum(stages), r.total_s, rel_tol=1e-9, abs_tol=1e-12)
        else:
            ok = False
        bad += not ok
    return bad


def percentile_ms(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) * 1e3


def sim_summary(records, engine, deadline_s: float | None) -> Dict[str, float]:
    """Simulated-time end-to-end and per-layer figures from records.

    ``deadline_s`` applies a benchmark latency limit to every request;
    ``None`` uses the per-request SLA classes the records carry (requests
    without one are not counted).  Failed requests miss their deadline
    and count as missing from the latency percentiles.
    """
    done = [r for r in records if r.completed]
    lat = [r.total_s for r in done]
    if deadline_s is None:
        carrying = [r for r in records if r.sla_s is not None]
        met = sum(1 for r in carrying if r.met_sla)
    else:
        carrying = records
        met = sum(1 for r in done if r.total_s <= deadline_s)
    offloaded = [r for r in done if not r.is_local]
    out = {
        "latency_p50_ms": percentile_ms(lat, 50),
        "latency_tail_ms": percentile_ms(lat, 99),
        "availability": len(done) / len(records),
        "sla_attainment": met / len(carrying),
        "mean_accuracy": float(np.mean(
            [engine.exit_accuracy(r.exit_index) for r in done])),
        "runtime.local_fraction": sum(r.is_local for r in records) / len(records),
        "runtime.retries": float(sum(r.retries for r in records)),
        "runtime.fallbacks": float(sum(r.status == "fallback_local" for r in records)),
        "runtime.rejects": float(sum(r.status == "rejected" for r in records)),
        "runtime.k_used_p50": float(np.median([r.k_used for r in records])),
        "runtime.batch_size_mean": (float(np.mean([r.batch_size for r in offloaded]))
                                    if offloaded else 0.0),
        "runtime.queue_wait_ms": (percentile_ms([r.server_queue_s for r in offloaded], 50)
                                  if offloaded else 0.0),
    }
    for stage in STAGES:
        out[f"runtime.stage_{stage}_ms"] = float(
            np.mean([getattr(r, f"{stage}_s") for r in done])) * 1e3
    return out


# ---------------------------------------------------------------------------
# simulated workloads
# ---------------------------------------------------------------------------

@dataclass
class Rep:
    """One repetition of a simulated scenario: a fresh set-up, one run."""
    scenario: int
    traced: bool
    setup_s: float
    run_s: float
    records: list
    digest: str
    #: Traced repetitions only: set-up and measured spans, apart.
    setup_trace: Tracer | None = None
    run_trace: Tracer | None = None


def build_gateway(cfg: dict, sim_seed: int):
    report = train_predictors()
    graph, branches = build_exit_model(cfg["model"])
    engine = LoADPartEngine(graph, report.user_predictor,
                            report.edge_predictor, exits=branches)
    horizon = cfg["horizon_s"]
    faults = [None] * cfg["servers"]
    faults[0] = ServerFaultPlan(crash_windows=((horizon / 3, 2 * horizon / 3),))
    system = GatewayFleetSystem(
        engine, cfg["clients"], num_servers=cfg["servers"],
        bandwidth_trace=ConstantTrace(cfg["bandwidth_bps"]),
        config=SystemConfig(
            seed=sim_seed, think_time_s=cfg["think_s"],
            resilience=ResilienceConfig(max_retries=cfg["max_retries"]),
            sla_classes=cfg["sla_classes"]),
        gateway_config=GatewayConfig(probes=SupervisorConfig(
            probe_period_s=cfg["probe_period_s"])),
        server_faults=faults,
    )
    return engine, system


def build_stream(cfg: dict, sim_seed: int):
    report = train_predictors()
    engine = LoADPartEngine(build_model(cfg["model"]), report.user_predictor,
                            report.edge_predictor)
    horizon = cfg["horizon_s"]
    steps = [(i * horizon / len(cfg["steps_bps"]), bw)
             for i, bw in enumerate(cfg["steps_bps"])]
    system = MultiClientSystem(
        engine, cfg["clients"], bandwidth_trace=StepTrace(steps),
        config=SystemConfig(seed=sim_seed, think_time_s=cfg["think_s"],
                            streaming=StreamingConfig(),
                            batching=BatchingConfig()),
    )
    return engine, system


SIMULATED = {
    "gateway_crash_sla": (build_gateway, GATEWAY),
    "stream_batch": (build_stream, STREAM),
}


def one_rep(build, cfg: dict, sim_seed: int, scenario: int,
            tracer: Tracer | None):
    """Build and run one scenario, traced when ``tracer`` is given."""
    t0 = time.perf_counter()
    engine, system = build(cfg, sim_seed)
    t1 = time.perf_counter()
    cut = tracer.mark() if tracer is not None else 0
    result = system.run(cfg["horizon_s"])
    t2 = time.perf_counter()
    records = [r for timeline in result.timelines for r in timeline]
    rep = Rep(scenario=scenario, traced=tracer is not None, setup_s=t1 - t0,
              run_s=t2 - t1, records=records, digest=records_digest(records))
    if tracer is not None:
        rep.setup_trace, rep.run_trace = tracer.split(cut)
    return rep, engine


def median_run_s(reps: Sequence[Rep], k: int) -> float:
    """Host time of one pass over the scenario set: per scenario, the
    median over its repetitions, so repeats steady the figure without
    re-weighting the scenarios."""
    return sum(float(np.median([r.run_s for r in reps if r.scenario == j]))
               for j in range(k))


def run_simulated(name: str, seed: int, seconds: float, trace: bool,
                  tiny: bool) -> dict:
    build, cfg = SIMULATED[name]
    cfg = dict(cfg, **(TINY[name] if tiny else {}))
    k = cfg["scenarios"]
    sim_seeds = [(seed * k + j) * 100_000 for j in range(k)]
    # Untraced runs cycle through the scenarios until the time is spent:
    # at least one full pass plus one repeat (the determinism check).
    # Traced runs trace one pass plus a repeat of the first scenario (the
    # counts must repeat), and run an untraced twin of it (the records must
    # not change, and the twin is the overhead baseline).
    if trace:
        plan = [(0, False)] + [(j, True) for j in range(k)] + [(0, True)]
    else:
        plan = [(j, False) for j in range(k)] + [(0, False)]
    reps: List[Rep] = []
    engine = None
    start = time.perf_counter()
    while plan or time.perf_counter() - start < seconds:
        if plan:
            j, traced = plan.pop(0)
        elif trace:  # more twins of the first scenario, for the overhead
            j, traced = 0, not reps[-1].traced
        else:
            j, traced = len(reps) % k, False
        gc.collect()  # each repetition starts from a collected heap
        if traced:
            tracer = Tracer()
            with installed(tracer):
                rep, engine = one_rep(build, cfg, sim_seeds[j], j, tracer)
        else:
            rep, engine = one_rep(build, cfg, sim_seeds[j], j, None)
        reps.append(rep)

    errors = []
    first: Dict[int, Rep] = {}
    first_traced: Dict[int, Rep] = {}
    for rep in reps:
        ref = first.setdefault(rep.scenario, rep)
        if rep.digest != ref.digest:
            errors.append(f"scenario {rep.scenario}: a "
                          f"{'traced' if rep.traced else 'untraced'} repeat "
                          "changed the records")
        if rep.traced:
            ref = first_traced.setdefault(rep.scenario, rep)
            if rep.run_trace.counts() != ref.run_trace.counts():
                errors.append(f"scenario {rep.scenario}: traced counts changed")

    base = [first[j] for j in range(k)]
    records = [r for rep in base for r in rep.records]
    summary = sim_summary(records, engine, cfg.get("deadline_s"))
    failed = sum(record_violations(rep.records, engine.num_exits) for rep in reps)
    untraced = [r for r in reps if not r.traced]
    # A traced run reports layer figures; its end-to-end figures (shown in
    # the report only) include the tracing cost.
    timed = reps if trace else untraced
    metrics = {
        "setup_s": float(np.median([r.setup_s for r in timed])),
        "req_per_s": len(records) / median_run_s(timed, k),
        "latency_p50_ms": summary["latency_p50_ms"],
        "latency_tail_ms": summary["latency_tail_ms"],
        "availability": summary["availability"],
        "sla_attainment": summary["sla_attainment"],
        "mean_accuracy": summary["mean_accuracy"],
        "peak_rss_mb": peak_rss_mb(),
    }
    info = {
        "records_digest": hashlib.sha256(
            "".join(rep.digest for rep in base).encode()).hexdigest(),
        "repetitions": [
            {"scenario": r.scenario, "traced": r.traced,
             "setup_s": round(r.setup_s, 4), "run_s": round(r.run_s, 4),
             "requests": len(r.records)} for r in reps],
        "workload_names": {
            "sim_req_per_s": metrics["req_per_s"],
            "sim_latency_p50_ms": metrics["latency_p50_ms"],
            "sim_latency_p99_ms": metrics["latency_tail_ms"],
        },
    }
    layer: Dict[str, float] = {}
    if trace:
        traced = [first_traced[j] for j in range(k)]
        runs = [r.run_trace for r in traced]
        layer = common_layer_metrics(runs, sum(len(r.records) for r in traced))
        layer.update(setup_layer_metrics([r.setup_trace for r in traced]))
        layer.update({key: value for key, value in summary.items()
                      if key.startswith("runtime.")})
        layer.update({key: 0.0 for key in REAL_ONLY})
        twin = [r for r in reps if r.traced and r.scenario == 0]
        layer["trace.overhead_pct"] = overhead_pct(
            float(np.median([r.run_s for r in untraced if r.scenario == 0])),
            float(np.median([r.run_s for r in twin])))
        info["trace_file"] = write_spans(name, seed, runs[0])
    return {
        "attempted": sum(len(rep.records) for rep in reps), "failed": failed,
        "correct": failed == 0 and not errors, "errors": errors,
        "metrics": metrics, "layer": layer, "info": info,
    }


def overhead_pct(plain_s: float, traced_s: float) -> float:
    """Throughput lost to tracing: (untraced - traced) / untraced rate."""
    return (1.0 - plain_s / traced_s) * 100.0


# ---------------------------------------------------------------------------
# per-layer figures from traces
# ---------------------------------------------------------------------------

#: Layer figures only the real workload exercises (0 on the simulator).
REAL_ONLY = (
    "network.encode_ms", "network.encode_calls", "network.decode_ms",
    "network.decode_calls", "network.wire_kb", "runtime.transport_rtt_ms",
    "runtime.transport_self_ms", "runtime.tail_exposed_ms", "nn.head_ms",
    "nn.tail_ms", "nn.local_ms")

#: Record-derived layer figures only the simulator has (0 on real_offload).
SIM_ONLY = (
    ("runtime.retries", "runtime.fallbacks", "runtime.rejects",
     "runtime.k_used_p50", "runtime.batch_size_mean", "runtime.queue_wait_ms")
    + tuple(f"runtime.stage_{stage}_ms" for stage in STAGES))


def common_layer_metrics(runs: Sequence[Tracer], requests: int) -> Dict[str, float]:
    """Per-call p50s, call counts, per-run totals and per-layer self time
    over the measured phase of traced runs serving ``requests`` requests."""
    def durs(name: str, top: bool = False) -> List[float]:
        return [d for t in runs for d in t.durations(name, top)]

    def calls(name: str) -> float:
        return float(sum(t.counters.get(name, 0) for t in runs))

    out: Dict[str, float] = {}
    for entry in ("decide_fleet", "decide_exit_fleet", "decide_joint"):
        # Top-level calls only: decide_exit_fleet scans decide_fleet per exit.
        d = durs(f"core.{entry}", top=True)
        out[f"core.{entry}_us"] = p50(d) * 1e6
        out[f"core.{entry}_calls"] = float(len(d))
    sample = durs("hardware.sample")
    out["hardware.sample_s"] = sum(sample) / len(runs)
    out["hardware.sample_calls"] = float(len(sample))
    est = durs("network.estimate")
    out["network.estimate_us"] = p50(est) * 1e6
    out["network.estimate_calls"] = float(len(est))
    out["network.wire_bytes_calls"] = calls("network.wire_bytes")
    route = durs("runtime.route")
    out["runtime.route_us"] = p50(route) * 1e6
    out["runtime.route_calls"] = float(len(route))
    batches = durs("runtime.server_handle_batch")
    handle = durs("runtime.server_handle") + batches
    out["runtime.server_handle_us"] = p50(handle) * 1e6
    out["runtime.server_handle_calls"] = float(len(handle))
    out["runtime.batch_flushes"] = float(len(batches))
    out["runtime.supervisor_tick_s"] = sum(durs("runtime.supervisor_tick")) / len(runs)
    for key in ("tracker_reads", "tracker_out_of_order", "tracker_future_reads"):
        out[f"runtime.{key}"] = calls(key)
    totals: Dict[str, float] = {}
    for t in runs:
        for layer_name, seconds in t.self_times().items():
            totals[layer_name] = totals.get(layer_name, 0.0) + seconds
    for layer_name in LAYERS:
        out[f"{layer_name}.self_ms_per_req"] = (
            totals.get(layer_name, 0.0) / max(requests, 1) * 1e3)
    return out


def setup_layer_metrics(setups: Sequence[Tracer]) -> Dict[str, float]:
    """Set-up figures: per set-up totals, median over the traced set-ups."""
    def med(name: str, count: bool = False) -> float:
        return float(np.median([
            len(t.durations(name)) if count else sum(t.durations(name))
            for t in setups]))

    return {
        "graph.cuts_calls": med("graph.cuts", count=True),
        "graph.partitioner_build_s": med("graph.partitioner_build"),
        "profiling.train_s": med("profiling.train"),
        "nn.compile_s": med("nn.compile"),
    }


def write_spans(name: str, seed: int, tracer: Tracer) -> str:
    """Write one traced run's spans once, at the end, under
    ``.perfbench_out/``; returns the path relative to the checkout."""
    root = pathlib.Path(__file__).resolve().parent.parent
    out = root / ".perfbench_out"
    out.mkdir(exist_ok=True)
    path = out / f"{name}-seed{seed}.jsonl"
    tracer.write_jsonl(path)
    return str(path.relative_to(root))


# ---------------------------------------------------------------------------
# real partitioned inference over the asyncio transport
# ---------------------------------------------------------------------------

@dataclass
class RealModel:
    """One model's engine, server, planned reference and head plans."""
    name: str
    graph: object
    engine: object
    server: object
    partitioner: object
    params: dict
    inputs: List[np.ndarray]
    references: List[np.ndarray]
    heads: Dict[int, tuple] = field(default_factory=dict)

    def head(self, point: int):
        """``(partition, planned head executor)`` of cut ``point``."""
        if point not in self.heads:
            part = self.partitioner.partition(point)
            self.heads[point] = (part, SegmentExecutor(
                part.head, params=self.params, backend="planned"))
        return self.heads[point]


@dataclass
class RealSample:
    """One real inference as the client saw it."""
    model: str
    point: int
    local: bool
    wall_s: float
    ok: bool
    head_s: float
    rtt_s: float = 0.0
    server_s: float = 0.0
    tail_s: float = 0.0
    wire_bytes: int = 0


async def real_setup(cfg: dict, seed: int, tracer: Tracer):
    """Train, build engines, compile plans and start one server per model.

    Ends with one warm-up pass over every (bandwidth, arm), so each head
    and tail plan the measured rounds use is compiled here.  Returns the
    models, the streaming config and the (checked) warm-up samples.
    """
    report = train_predictors()
    rng = np.random.default_rng(seed)
    models = []
    for name in cfg["models"]:
        graph = build_model(name)
        engine = LoADPartEngine(graph, report.user_predictor,
                                report.edge_predictor)
        inputs = [rng.standard_normal(graph.input_spec.shape).astype(np.float32)
                  for _ in range(cfg["inputs"])]
        # The monolithic planned executor is the reference; only its
        # parameters (shared with the heads) and outputs are kept.
        reference = GraphExecutor(graph, seed=MODEL_SEED, backend="planned")
        references = [reference.run(x) for x in inputs]
        params = reference.params
        del reference
        server = TransportServer(name, seed=MODEL_SEED)
        await server.start()
        models.append(RealModel(
            name=name, graph=graph, engine=engine, server=server,
            partitioner=GraphPartitioner(graph), params=params,
            inputs=inputs, references=references))
    streaming = StreamingConfig()
    warm: List[RealSample] = []
    for model in models:
        await real_block(model, cfg, streaming, tracer, warm)
    return models, streaming, warm


async def real_teardown(models: Sequence[RealModel]) -> None:
    for model in models:
        client = await TransportClient.connect(model.server.host,
                                               model.server.port)
        try:
            await client.shutdown_server()
        finally:
            await client.close()
        await model.server.wait_closed()


async def real_block(model: RealModel, cfg: dict, streaming, tracer: Tracer,
                     samples: List[RealSample]) -> None:
    """One connection's requests to one model's server: every bandwidth
    belief, offloaded once as monolithic fp32 and once with the engine's
    codec.  A local decision sends nothing, so it has no second arm."""
    client = await TransportClient.connect(model.server.host, model.server.port)
    try:
        for b, bandwidth in enumerate(cfg["bandwidths_bps"]):
            for arm in (0, 1):
                idx = (2 * b + arm) % len(model.inputs)
                sample = await real_inference(
                    model, client, bandwidth, arm, idx, streaming, tracer)
                samples.append(sample)
                if sample.local:
                    break
    finally:
        await client.close()


async def real_inference(model: RealModel, client, bandwidth: float, arm: int,
                         idx: int, streaming, tracer: Tracer) -> RealSample:
    """Decide, run the head, ship the cut (or finish locally), check."""
    graph = model.graph
    x = model.inputs[idx]
    t0 = time.perf_counter()
    with tracer.span("bench.inference") as root:
        joint = model.engine.decide_joint(bandwidth, streaming=streaming)
        point = joint.point
        local = point == model.engine.num_nodes
        part, head = model.head(point)
        th = time.perf_counter()
        with tracer.span("nn.local" if local else "nn.head"):
            outputs = ({} if part.head.is_empty
                       else head.run({graph.input_name: x}))
        sample = RealSample(model=model.name, point=point, local=local,
                            wall_s=0.0, ok=False,
                            head_s=time.perf_counter() - th)
        if local:
            result = outputs[graph.output_name]
        else:
            boundary = {name: (x if name == graph.input_name else outputs[name])
                        for name in part.transfer_specs}
            streamed = arm == 1 and joint.streamed
            tr = time.perf_counter()
            outcome = await client.offload(
                point, boundary, codec="fp32" if arm == 0 else joint.codec,
                chunk_bytes=streaming.chunk_bytes if streamed else None,
                order=[nm for nm, _nb, _op in model.engine.cut_tensors(point)])
            sample.rtt_s = time.perf_counter() - tr
            sample.server_s = outcome.server_s
            sample.tail_s = outcome.tail_s
            sample.wire_bytes = outcome.wire_bytes
            result = outcome.result
    sample.wall_s = time.perf_counter() - t0
    tracer.name_request(root, f"{model.name}/{idx}/{bandwidth:g}/{arm}")
    reference = model.references[idx]
    sample.ok = result.dtype == reference.dtype and np.array_equal(result, reference)
    return sample


def run_real(seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    cfg = dict(REAL, **(TINY["real_offload"] if tiny else {}))
    return asyncio.run(_run_real(cfg, seed, seconds, trace))


async def _run_real(cfg: dict, seed: int, seconds: float, trace: bool) -> dict:
    start = time.perf_counter()
    idle = Tracer()
    setup_times: List[float] = []
    setup_traces: List[Tracer] = []
    warm: List[RealSample] = []
    plain: List[RealSample] = []
    traced: List[RealSample] = []
    round_traces: List[Tracer] = []
    plain_s = traced_s = 0.0
    rounds = 0
    # Each set-up serves an equal share of the rounds.  Autotuning can pick
    # different kernels in each set-up; pooling their rounds keeps one
    # unlucky compile from setting a run's latency.  Set-ups run one at a
    # time: two copies of every model's weights would double peak memory.
    setups = cfg["setups"]
    per_setup = -(-cfg["min_rounds"] // setups)
    for s in range(setups):
        gc.collect()
        t0 = time.perf_counter()
        if trace and s == setups - 1:
            tracer = Tracer()
            with installed(tracer):
                models, streaming, checked = await real_setup(cfg, seed, tracer)
            setup_traces.append(tracer)
        else:
            models, streaming, checked = await real_setup(cfg, seed, idle)
        setup_times.append(time.perf_counter() - t0)
        warm.extend(checked)
        # The full network serves every inference: no exit is taken.
        accuracy = float(np.mean([m.engine.exit_accuracy() for m in models]))
        # Measured rounds: every model in turn, one connection open at a
        # time.  Traced runs alternate untraced and traced rounds.
        share_end = start + seconds * (s + 1) / setups
        served = 0
        try:
            while served < per_setup or time.perf_counter() < share_end:
                t0 = time.perf_counter()
                if trace and rounds % 2 == 1:
                    tracer = Tracer()
                    with installed(tracer):
                        for model in models:
                            await real_block(model, cfg, streaming, tracer, traced)
                    traced_s += time.perf_counter() - t0
                    round_traces.append(tracer)
                else:
                    for model in models:
                        await real_block(model, cfg, streaming, idle, plain)
                    plain_s += time.perf_counter() - t0
                rounds += 1
                served += 1
        finally:
            await real_teardown(models)
        del models

    samples = warm + plain + traced
    failed = sum(not s.ok for s in samples)
    errors = [f"{failed} replies differ from the planned reference"] if failed else []
    # Every round does the same work, so traced rounds count alike.
    if any(t.counts() != round_traces[0].counts() for t in round_traces):
        errors.append("traced rounds counted different calls")
    wall = [s.wall_s for s in plain]
    metrics = {
        "setup_s": float(np.median(setup_times)),
        "req_per_s": len(plain) / plain_s,
        "latency_p50_ms": percentile_ms(wall, 50),
        "latency_tail_ms": percentile_ms(wall, 95),
        "availability": (len(samples) - failed) / len(samples),
        "sla_attainment": sum(w <= cfg["deadline_s"] for w in wall) / len(wall),
        "mean_accuracy": accuracy,
        "peak_rss_mb": peak_rss_mb(),
    }
    info = {
        "setups_s": [round(t, 4) for t in setup_times],
        "rounds": rounds,
        "decisions": sorted({(s.model, s.point, s.local) for s in samples}),
        "workload_names": {
            "inferences_per_s": metrics["req_per_s"],
            "wall_latency_p50_ms": metrics["latency_p50_ms"],
            "wall_latency_p95_ms": metrics["latency_tail_ms"],
        },
    }
    layer: Dict[str, float] = {}
    if trace:
        layer = real_layer_metrics(round_traces, setup_traces, traced)
        layer["trace.overhead_pct"] = overhead_pct(
            plain_s / len(plain), traced_s / len(traced))
        info["trace_file"] = write_spans("real_offload", seed, round_traces[0])
    return {
        "attempted": len(samples), "failed": failed,
        "correct": failed == 0 and not errors,
        "errors": errors, "metrics": metrics, "layer": layer, "info": info,
    }


def real_layer_metrics(rounds: Sequence[Tracer], setups: Sequence[Tracer],
                       samples: Sequence[RealSample]) -> Dict[str, float]:
    out = common_layer_metrics(rounds, len(samples))
    out.update(setup_layer_metrics(setups))
    offloaded = [s for s in samples if not s.local]
    enc = [d for t in rounds for d in t.durations("network.encode")]
    dec = [d for t in rounds for d in t.durations("network.decode")]
    # Server tail per request: plan execution inside the client's round trip.
    tails = []
    for t in rounds:
        per_rtt: Dict[int, float] = {}
        for name, s0, e0, parent, _root in t.spans:
            if name == "nn.execute" and parent >= 0 \
                    and t.spans[parent][0] == "runtime.transport":
                per_rtt[parent] = per_rtt.get(parent, 0.0) + (e0 - s0)
        tails.extend(per_rtt.values())
    out.update({
        "network.encode_ms": p50(enc) * 1e3,
        "network.encode_calls": float(len(enc)),
        "network.decode_ms": p50(dec) * 1e3,
        "network.decode_calls": float(len(dec)),
        "network.wire_kb": p50([s.wire_bytes / 1e3 for s in offloaded]),
        "runtime.transport_rtt_ms": p50([s.rtt_s for s in offloaded]) * 1e3,
        "runtime.transport_self_ms": p50(
            [s.rtt_s - s.server_s for s in offloaded]) * 1e3,
        "runtime.tail_exposed_ms": p50([s.tail_s for s in offloaded]) * 1e3,
        "nn.head_ms": p50([s.head_s for s in offloaded]) * 1e3,
        "nn.tail_ms": p50(tails) * 1e3,
        "nn.local_ms": p50([s.head_s for s in samples if s.local]) * 1e3,
        "runtime.local_fraction": sum(s.local for s in samples) / len(samples),
    })
    out.update({key: 0.0 for key in SIM_ONLY})
    return out
