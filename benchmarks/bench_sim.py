"""Simulator throughput: fleet construction time and simulated requests/s.

Three fleet drivers at 100, 1k and 10k clients, squeezenet on a constant
50 Mbps uplink:

- ``direct``  — :class:`~repro.runtime.multi.MultiClientSystem`, every
  client talking to one shared edge server;
- ``batched`` — the same fleet with dynamic batching at the server;
- ``gateway`` — :class:`~repro.runtime.gateway.GatewayFleetSystem`, four
  servers behind the health-probing gateway.

Each cell builds the fleet from a trained engine (timed: ``build_s``) and
runs it (timed: ``run_s``); ``req_per_s`` is simulated requests per
wall-clock second of the run.  Timings are the minimum over
``--repeats`` fresh builds and runs, and every repeat must reproduce the
first one's records exactly.

The offered load is the same at every fleet size: think time grows with
the client count (6 ms per client), and the horizon covers the 3 ms
per-client start stagger plus 12 s, so every cell serves a few thousand
requests and the 10k-client cell one request per client.

Host speed is cancelled by a fixed reference workload (a scalar Python
loop with one NumPy draw per step, the simulator's own instruction mix,
none of it repository code), its fastest time sampled between the cells:
``req_per_ref`` = ``req_per_s`` × ``reference_s`` and ``build_per_ref`` =
``build_s`` / ``reference_s`` are what ``tools/bench_compare.py`` gates,
the same way the executor gate compares naive/planned speedup ratios
instead of milliseconds.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_sim.py
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import pathlib
import platform
import time
from dataclasses import astuple

import numpy as np

DEFAULT_OUTPUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_sim.json"

MODEL = "squeezenet"
DRIVERS = ("direct", "batched", "gateway")
CLIENTS = (100, 1000, 10000)
BANDWIDTH_BPS = 50e6
THINK_PER_CLIENT_S = 0.006
SETTLE_S = 12.0
STAGGER_S = 0.003
GATEWAY_SERVERS = 4
REFERENCE_STEPS = 200_000


def reference_s(repeats: int = 3) -> float:
    """Fastest of ``repeats`` runs of the fixed reference loop, seconds."""
    best = float("inf")
    for _ in range(repeats):
        rng = np.random.default_rng(0)
        acc = 0.0
        start = time.perf_counter()
        for i in range(REFERENCE_STEPS):
            acc += float(rng.random()) * (i % 7)
        best = min(best, time.perf_counter() - start)
    return best


def build_fleet(driver: str, engine, clients: int, seed: int):
    from repro.network.traces import ConstantTrace
    from repro.runtime.batching import BatchingConfig
    from repro.runtime.gateway import GatewayFleetSystem
    from repro.runtime.multi import MultiClientSystem
    from repro.runtime.system import SystemConfig

    config = SystemConfig(
        seed=seed, think_time_s=THINK_PER_CLIENT_S * clients,
        batching=BatchingConfig() if driver == "batched" else None)
    trace = ConstantTrace(BANDWIDTH_BPS)
    if driver == "gateway":
        return GatewayFleetSystem(engine, clients, num_servers=GATEWAY_SERVERS,
                                  bandwidth_trace=trace, config=config)
    return MultiClientSystem(engine, clients, bandwidth_trace=trace,
                             config=config)


def digest(result) -> str:
    h = hashlib.sha256()
    for timeline in result.timelines:
        for record in timeline:
            h.update(repr(astuple(record)).encode())
    return h.hexdigest()


def measure(driver: str, engine, clients: int, seed: int, repeats: int) -> dict:
    horizon = STAGGER_S * clients + SETTLE_S
    build_s = run_s = float("inf")
    digests = set()
    requests = 0
    for _ in range(repeats):
        gc.collect()  # every repeat starts from a collected heap
        t0 = time.perf_counter()
        system = build_fleet(driver, engine, clients, seed)
        t1 = time.perf_counter()
        result = system.run(horizon)
        t2 = time.perf_counter()
        build_s, run_s = min(build_s, t1 - t0), min(run_s, t2 - t1)
        requests = sum(len(t) for t in result.timelines)
        digests.add(digest(result))
        del system, result
    return {
        "driver": driver, "clients": clients, "horizon_s": horizon,
        "requests": requests, "build_s": build_s, "run_s": run_s,
        "req_per_s": requests / run_s, "deterministic": len(digests) == 1,
        "records_digest": digests.pop() if len(digests) == 1 else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--clients", type=int, nargs="*", default=list(CLIENTS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--output", type=pathlib.Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)

    from repro.experiments.context import default_engine

    engine = default_engine(MODEL)
    # Shared hosts jitter on sub-second scales, uncorrelated between the
    # reference and a cell, so each side takes its fastest time: the
    # reference is sampled before every cell and after the last one.
    ref = reference_s()
    results = {}
    for clients in args.clients:
        for driver in DRIVERS:
            results[f"{driver}@{clients}"] = measure(
                driver, engine, clients, args.seed, args.repeats)
            ref = min(ref, reference_s())
    for name, cell in results.items():
        cell["req_per_ref"] = cell["req_per_s"] * ref
        cell["build_per_ref"] = cell["build_s"] / ref
        print(f"{name:14s} build {cell['build_s'] * 1e3:8.1f} ms  "
              f"{cell['requests']:6d} requests in {cell['run_s']:6.2f} s = "
              f"{cell['req_per_s']:7.0f} req/s  ({cell['req_per_ref']:6.1f} "
              f"per reference run)"
              f"{'' if cell['deterministic'] else '  NONDETERMINISTIC'}")
    print(f"reference workload {ref * 1e3:.1f} ms")

    report = {
        "benchmark": "sim",
        "model": MODEL,
        "seed": args.seed,
        "repeats": args.repeats,
        "reference_s": ref,
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpus": os.cpu_count(),
        },
        "results": results,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"-> {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
