"""Gates of ``tools/bench_compare.py``: simulator throughput, and the fleet
and early-exit reports against their committed baselines."""

from __future__ import annotations

import importlib.util
import copy
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bench_compare():
    spec = importlib.util.spec_from_file_location(
        "bench_compare", ROOT / "tools" / "bench_compare.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def cell(clients: int, req_per_ref: float, build_per_ref: float,
         deterministic: bool = True) -> dict:
    return {"driver": "direct", "clients": clients, "req_per_s": req_per_ref * 10,
            "req_per_ref": req_per_ref, "build_s": build_per_ref / 10,
            "build_per_ref": build_per_ref, "deterministic": deterministic}


def report(**cells) -> dict:
    return {"benchmark": "sim", "results": cells}


BASE = report(**{"direct@1000": cell(1000, 500.0, 0.05),
                 "direct@10000": cell(10000, 400.0, 2.0)})


class TestSimGate:
    def test_within_threshold_passes(self, bench_compare):
        cand = report(**{"direct@1000": cell(1000, 420.0, 0.5),
                         "direct@10000": cell(10000, 390.0, 3.9)})
        assert bench_compare.compare_sim(BASE, cand, 0.3) == []

    def test_slower_requests_fail(self, bench_compare):
        cand = report(**{"direct@1000": cell(1000, 300.0, 0.05),
                         "direct@10000": cell(10000, 400.0, 2.0)})
        [msg] = bench_compare.compare_sim(BASE, cand, 0.3)
        assert msg.startswith("direct@1000:")

    def test_doubled_build_fails_at_10k_clients(self, bench_compare):
        cand = report(**{"direct@1000": cell(1000, 500.0, 0.5),
                         "direct@10000": cell(10000, 400.0, 4.2)})
        [msg] = bench_compare.compare_sim(BASE, cand, 0.3)
        assert msg.startswith("direct@10000: construction")

    def test_nondeterministic_cell_fails(self, bench_compare):
        cand = report(**{"direct@1000": cell(1000, 500.0, 0.05, False)})
        [msg] = bench_compare.compare_sim(BASE, cand, 0.3)
        assert "different records" in msg

    def test_committed_report_passes_against_itself(self, bench_compare, tmp_path):
        committed = ROOT / "BENCH_sim.json"
        assert bench_compare.main([str(committed), str(committed)]) == 0
        other = tmp_path / "other.json"
        other.write_text(json.dumps({"benchmark": "fleet", "results": []}))
        with pytest.raises(SystemExit):
            bench_compare.main([str(committed), str(other)])


def committed(name: str) -> dict:
    return json.loads((ROOT / name).read_text())


def arm(report_: dict, name: str) -> dict:
    return next(r for r in report_["results"] if r["arm"] == name)


class TestFleetBaselineGate:
    def test_committed_report_passes_against_itself(self, bench_compare):
        base = committed("BENCH_fleet.json")
        assert bench_compare.compare_fleet(base, base, 0.15) == []

    def test_p95_rise_within_threshold_passes(self, bench_compare):
        base = committed("BENCH_fleet.json")
        cand = copy.deepcopy(base)
        arm(cand, "fleet4")["p95_ms"] *= 1.10
        assert bench_compare.compare_fleet(base, cand, 0.15) == []

    def test_p95_rise_over_threshold_fails(self, bench_compare):
        # fleet4 still beats fleet1, so only the baseline gate can fire.
        base = committed("BENCH_fleet.json")
        cand = copy.deepcopy(base)
        arm(cand, "fleet4")["p95_ms"] *= 1.20
        [msg] = bench_compare.compare_fleet(base, cand, 0.15)
        assert msg.startswith("fleet4 p95_ms")

    def test_availability_drop_fails(self, bench_compare):
        # The naive arm has no candidate-only gate at all.
        base = committed("BENCH_fleet.json")
        cand = copy.deepcopy(base)
        arm(cand, "naive_direct")["availability"] = 0.8
        [msg] = bench_compare.compare_fleet(base, cand, 0.15)
        assert msg.startswith("naive_direct availability")


class TestExitsBaselineGate:
    def test_committed_report_passes_against_itself(self, bench_compare):
        base = committed("BENCH_exits.json")
        assert bench_compare.compare_exits(base, base, 0.15) == []

    def test_p95_rise_over_threshold_fails(self, bench_compare):
        base = committed("BENCH_exits.json")
        cand = copy.deepcopy(base)
        arm(cand, "exits")["strict"]["p95_ms"] *= 1.20
        [msg] = bench_compare.compare_exits(base, cand, 0.15)
        assert msg.startswith("exits strict p95_ms")

    def test_attainment_and_accuracy_drops_fail(self, bench_compare):
        base = committed("BENCH_exits.json")
        cand = copy.deepcopy(base)
        arm(cand, "full_net_only")["overall_attainment"] = 0.45
        arm(cand, "exits")["strict"]["mean_accuracy"] = 0.5
        msgs = bench_compare.compare_exits(base, cand, 0.15)
        assert [m.split(" -> ")[0] for m in msgs] == [
            "full_net_only overall_attainment 0.5",
            "exits strict mean_accuracy 0.54"]
