"""Extension — transmission codecs (fp32/fp16/int8 uploads).

Not a paper figure: quantifies how compressing the intermediate tensors
shifts the partition landscape (related-work direction the paper cites:
reducing what crosses the link).  Each column is the engine's codec axis
narrowed to one codec, so encode/decode time is priced in.
"""

import numpy as np
import pytest

from repro.core.engine import LoADPartEngine
from repro.experiments.reporting import render_table
from repro.models import build_model
from repro.network.codec import TensorCodec
from repro.network.streaming import StreamingConfig


@pytest.fixture(scope="module")
def engine(trained_report):
    return LoADPartEngine(build_model("squeezenet"),
                          trained_report.user_predictor,
                          trained_report.edge_predictor)


def codec_only(name: str) -> StreamingConfig:
    """The engine's codec axis narrowed to one whole-tensor codec."""
    return StreamingConfig(codecs=(name,), chunk_bytes=None, allow_lossy=True)


def test_codec_encode_speed(benchmark):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1, 128, 28, 28)).astype(np.float32)
    codec = TensorCodec("int8")
    encoded = benchmark(codec.encode, x)
    assert encoded.nbytes == x.size


def test_codec_partition_landscape(benchmark, engine, save_report):
    def compute():
        rows = []
        n = engine.num_nodes
        for bw in (1e6, 2e6, 4e6, 8e6):
            row = [f"{bw / 1e6:g}"]
            for name in ("fp32", "fp16", "int8"):
                decision = engine.decide(bw, streaming=codec_only(name))
                mode = "local" if decision.point == n else (
                    "full" if decision.point == 0 else f"p={decision.point}"
                )
                row.append(f"{mode} ({decision.predicted_latency * 1e3:.0f}ms)")
            rows.append(tuple(row))
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    save_report(
        "ext_codec",
        render_table(["Mbps", "fp32 uploads", "fp16 uploads", "int8 uploads"], rows),
    )
    # int8 must enable offloading at some bandwidth where fp32 stays local.
    rescued = any("local" in r[1] and "local" not in r[3] for r in rows)
    assert rescued
