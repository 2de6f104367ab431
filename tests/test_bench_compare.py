"""The simulator-throughput gate of ``tools/bench_compare.py``."""

from __future__ import annotations

import importlib.util
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
