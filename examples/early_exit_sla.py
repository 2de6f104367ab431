"""Early exits under mixed SLAs: degrade accuracy, never miss a deadline.

Eight MobileNetV1 clients share one edge server over an 8 Mbps uplink.
Half carry a strict 100 ms deadline the full network cannot meet at this
bandwidth; half carry a slack 350 ms deadline it meets comfortably.  The
same workload runs twice:

- the paper's engine (full network only): strict clients miss every
  deadline — the best partition point simply is not fast enough;
- the exit-carrying engine: ``decide(bandwidth, k, sla_s=...)`` opens
  the exit axis of the decision scan and picks, per request, the latest
  (most accurate) exit whose best partition meets that request's SLA.  Strict traffic lands on an early exit and makes its deadline at
  a declared accuracy cost; slack traffic keeps the final exit — the
  full network, byte-identical weights — at full accuracy.

Run:  python examples/early_exit_sla.py
"""

from repro import LoADPartEngine, OfflineProfiler, SystemConfig, build_model
from repro.models import build_exit_model
from repro.network.traces import ConstantTrace
from repro.runtime.multi import MultiClientSystem

CLIENTS = 8
DURATION_S = 8.0
BANDWIDTH_BPS = 8e6
SLA_STRICT_S = 0.1
SLA_SLACK_S = 0.35


def run(engine):
    config = SystemConfig(seed=7, think_time_s=0.1,
                          sla_classes=(SLA_STRICT_S, SLA_SLACK_S))
    result = MultiClientSystem(engine, CLIENTS,
                               bandwidth_trace=ConstantTrace(BANDWIDTH_BPS),
                               config=config).run(DURATION_S)
    return [r for t in result.timelines for r in t]


def describe(label, records, accuracy_of):
    print(f"\n{label}:")
    for name, sla in (("strict", SLA_STRICT_S), ("slack", SLA_SLACK_S)):
        rows = [r for r in records if r.sla_s == sla]
        met = sum(1 for r in rows if r.met_sla)
        exits = sorted({"full" if r.exit_index is None else r.exit_index
                        for r in rows})
        acc = min(accuracy_of(r.exit_index) for r in rows if r.completed)
        print(f"  {name} ({sla * 1e3:.0f} ms): {met}/{len(rows)} deadlines "
              f"met, served at exit(s) {exits}, accuracy proxy >= {acc:.2f}")


def main() -> None:
    report = OfflineProfiler(samples_per_category=150, seed=3).run()
    plain = LoADPartEngine(build_model("mobilenet_v1"),
                           report.user_predictor, report.edge_predictor)
    graph, branches = build_exit_model("mobilenet_v1")
    exits = LoADPartEngine(graph, report.user_predictor,
                           report.edge_predictor, exits=branches)

    print(f"{CLIENTS} clients, {BANDWIDTH_BPS / 1e6:.0f} Mbps shared uplink, "
          f"SLA classes {SLA_STRICT_S * 1e3:.0f} ms / "
          f"{SLA_SLACK_S * 1e3:.0f} ms round-robin")

    full_records = run(plain)
    exit_records = run(exits)

    describe("full network only", full_records, exits.exit_accuracy)
    describe("joint (exit, point) decisions", exit_records,
             exits.exit_accuracy)

    strict = [r for r in exit_records if r.sla_s == SLA_STRICT_S]
    assert all(r.met_sla for r in strict)
    slack = [r for r in exit_records if r.sla_s == SLA_SLACK_S]
    assert all(r.exit_index == exits.num_exits - 1 for r in slack)
    print("\nthe exit engine met every strict deadline by trading declared "
          "accuracy,\nwhile slack traffic kept the full network.")


if __name__ == "__main__":
    main()
