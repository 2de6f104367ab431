"""Early exits under SLA load: joint (exit, point) vs full-network-only.

Eight clients share one edge server over an 8 Mbps uplink, with two SLA
classes assigned round-robin: a *strict* deadline the full network cannot
meet end-to-end at this bandwidth, and a *slack* deadline it meets
comfortably.  Two arms run the identical workload:

- ``full_net_only`` — the paper's engine with no exit branches: every
  request runs the full network at Algorithm 1's best partition point.
  Strict-class requests miss their deadline structurally; the SLA stamp
  records the damage.
- ``exits``         — the exit-carrying engine: ``decide(..., sla_s=...)``
  picks the latest (most accurate) exit whose best partition meets the
  per-request SLA.  Strict traffic lands on an early exit and makes its deadline at a
  declared accuracy cost; slack traffic keeps the final exit — the full
  network, byte-identical weights — at full accuracy.

The report also re-checks the degenerate identity (the exit-carrying
engine with ``sla_classes=None`` produces records *equal*, field for
field, to the plain engine's) so the gate catches any drift in the
zero-cost guarantee for exit-free traffic.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_exits.py
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform

import numpy as np

DEFAULT_OUTPUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_exits.json"

MODEL = "mobilenet_v1"
CLIENTS = 8
DURATION_S = 8.0
BANDWIDTH_BPS = 8e6
THINK_TIME_S = 0.1
SLA_STRICT_S = 0.1
SLA_SLACK_S = 0.35
IDENTITY_CLIENTS = 3
IDENTITY_DURATION_S = 2.0


def _class_row(records, accuracy_of) -> dict:
    completed = [r for r in records if r.completed]
    lat = np.array([r.total_s for r in completed])
    exits: dict = {}
    for r in records:
        key = "full" if r.exit_index is None else str(r.exit_index)
        exits[key] = exits.get(key, 0) + 1
    accs = [accuracy_of(r.exit_index) for r in completed]
    return {
        "issued": len(records),
        "completed": len(completed),
        "attainment": (round(sum(1 for r in records if r.met_sla)
                             / len(records), 4) if records else None),
        "mean_ms": round(float(lat.mean()) * 1e3, 2) if len(lat) else None,
        "p95_ms": round(float(np.percentile(lat, 95)) * 1e3, 2)
        if len(lat) else None,
        "mean_accuracy": round(float(np.mean(accs)), 4) if accs else None,
        "min_accuracy": round(float(np.min(accs)), 4) if accs else None,
        "exit_counts": exits,
    }


def run_arm(engine, accuracy_of, seed: int, duration_s: float) -> dict:
    from repro.network.traces import ConstantTrace
    from repro.runtime.multi import MultiClientSystem
    from repro.runtime.system import SystemConfig

    config = SystemConfig(
        seed=seed,
        think_time_s=THINK_TIME_S,
        sla_classes=(SLA_STRICT_S, SLA_SLACK_S),
    )
    result = MultiClientSystem(
        engine, CLIENTS, bandwidth_trace=ConstantTrace(BANDWIDTH_BPS),
        config=config).run(duration_s)
    records = [r for t in result.timelines for r in t]
    return {
        "overall_attainment": round(result.sla_attainment(), 4),
        "strict": _class_row(
            [r for r in records if r.sla_s == SLA_STRICT_S], accuracy_of),
        "slack": _class_row(
            [r for r in records if r.sla_s == SLA_SLACK_S], accuracy_of),
    }


def check_degenerate_identity(plain_engine, exit_engine, seed: int) -> bool:
    """Exit-carrying engine, no SLA classes: records must equal the plain
    engine's, field for field — the exit axis is free until asked for."""
    from repro.runtime.multi import MultiClientSystem
    from repro.runtime.system import SystemConfig

    config = SystemConfig(seed=seed)
    base = MultiClientSystem(
        plain_engine, IDENTITY_CLIENTS, config=config).run(IDENTITY_DURATION_S)
    degen = MultiClientSystem(
        exit_engine, IDENTITY_CLIENTS, config=config).run(IDENTITY_DURATION_S)
    return all(tb.records == td.records
               for tb, td in zip(base.timelines, degen.timelines))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--duration", type=float, default=DURATION_S)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--output", type=pathlib.Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)

    from repro.core.engine import LoADPartEngine
    from repro.models import build_exit_model, build_model
    from repro.profiling.offline import OfflineProfiler

    report_prof = OfflineProfiler(samples_per_category=150, seed=3).run()
    plain = LoADPartEngine(build_model(MODEL), report_prof.user_predictor,
                           report_prof.edge_predictor)
    graph, branches = build_exit_model(MODEL)
    exits = LoADPartEngine(graph, report_prof.user_predictor,
                           report_prof.edge_predictor, exits=branches)

    # Accuracy proxy per served exit; the plain arm always runs the full
    # network, so its records score the final exit's accuracy.
    def accuracy_of(exit_index):
        return exits.exit_accuracy(exit_index)

    arms = {
        "full_net_only": run_arm(plain, accuracy_of, args.seed, args.duration),
        "exits": run_arm(exits, accuracy_of, args.seed, args.duration),
    }
    degenerate_identical = check_degenerate_identity(plain, exits, args.seed)

    for name, row in arms.items():
        print(f"{name:14s} strict att {row['strict']['attainment']:.3f} "
              f"(p95 {row['strict']['p95_ms']} ms, "
              f"acc {row['strict']['mean_accuracy']})  "
              f"slack att {row['slack']['attainment']:.3f} "
              f"(acc {row['slack']['min_accuracy']})")
    print(f"degenerate identity: {degenerate_identical}")

    report = {
        "benchmark": "exits",
        "model": MODEL,
        "clients": CLIENTS,
        "duration_s": args.duration,
        "bandwidth_mbps": BANDWIDTH_BPS / 1e6,
        "sla_strict_s": SLA_STRICT_S,
        "sla_slack_s": SLA_SLACK_S,
        "seed": args.seed,
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        # Gate metrics: under strict deadlines the exit-carrying engine
        # must strictly beat the full-network-only arm on attainment,
        # slack traffic must keep the full network's accuracy (and lose
        # no attainment), and exit-free traffic must stay byte-identical.
        "exits_strict_attainment": arms["exits"]["strict"]["attainment"],
        "full_strict_attainment": arms["full_net_only"]["strict"]["attainment"],
        "exits_slack_attainment": arms["exits"]["slack"]["attainment"],
        "full_slack_attainment": arms["full_net_only"]["slack"]["attainment"],
        "exits_slack_min_accuracy": arms["exits"]["slack"]["min_accuracy"],
        "full_net_accuracy": accuracy_of(None),
        "degenerate_identical": degenerate_identical,
        "results": [{"arm": name, **row} for name, row in arms.items()],
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nstrict attainment {report['full_strict_attainment']:.3f} -> "
          f"{report['exits_strict_attainment']:.3f} with exits; slack "
          f"accuracy {report['exits_slack_min_accuracy']} -> {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
