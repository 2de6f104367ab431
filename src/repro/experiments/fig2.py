"""Fig. 2 — motivation: full-offload latency under background load levels.

AlexNet, VGG16 and ResNet101 are fully offloaded to the edge server (input
shape 1x3x224x224, 8 Mbps) while the GPU runs background load at 30%, 50%,
70%, 90%, 100%(l) and 100%(h).  The paper samples each end-to-end latency
1000 times and shows: flat averages below ~50%, rising averages and strong
fluctuation at >=90%, and a dramatic difference between 100%(l) and
100%(h) despite equal utilisation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.experiments.reporting import ms, render_table
from repro.hardware.background import IDLE, LoadLevel, fig2_levels
from repro.hardware.gpu_model import GpuModel
from repro.hardware.gpu_scheduler import GpuScheduler
from repro.models import build_model
from repro.network.channel import Channel
from repro.network.traces import ConstantTrace
from repro.profiling.features import profile_graph

FIG2_MODELS = ("alexnet", "vgg16", "resnet101")


@dataclass(frozen=True)
class LevelStats:
    level: str
    mean_s: float
    std_s: float
    p5_s: float
    p95_s: float


@dataclass(frozen=True)
class Fig2Result:
    samples_per_level: int
    stats: Dict[str, Tuple[LevelStats, ...]]  # model -> per-level stats


def run_fig2(
    models: Sequence[str] = FIG2_MODELS,
    samples: int = 1000,
    bandwidth_bps: float = 8e6,
    seed: int = 0,
    include_idle: bool = True,
) -> Fig2Result:
    gpu = GpuModel()
    scheduler = GpuScheduler()
    channel = Channel(ConstantTrace(bandwidth_bps))
    levels: List[LoadLevel] = ([IDLE] if include_idle else []) + fig2_levels()
    stats: Dict[str, Tuple[LevelStats, ...]] = {}
    for model in models:
        graph = build_model(model)
        means = np.array(gpu.kernel_times(profile_graph(graph)))
        upload = channel.mean_upload_time(graph.input_spec.nbytes, 0.0)
        download = channel.mean_download_time(graph.output_spec.nbytes, 0.0)
        rng = np.random.default_rng(seed)
        per_level: List[LevelStats] = []
        for level in levels:
            lat = np.empty(samples)
            for i in range(samples):
                kernels = gpu.sample_kernel_times(means, rng)
                lat[i] = upload + scheduler.execute(kernels, level, rng) + download
            per_level.append(
                LevelStats(
                    level=level.name,
                    mean_s=float(lat.mean()),
                    std_s=float(lat.std()),
                    p5_s=float(np.percentile(lat, 5)),
                    p95_s=float(np.percentile(lat, 95)),
                )
            )
        stats[model] = tuple(per_level)
    return Fig2Result(samples_per_level=samples, stats=stats)


def format_fig2(result: Fig2Result) -> str:
    blocks = []
    for model, per_level in result.stats.items():
        table = render_table(
            ["load", "mean(ms)", "std(ms)", "p5(ms)", "p95(ms)"],
            [(s.level, ms(s.mean_s), ms(s.std_s), ms(s.p5_s), ms(s.p95_s)) for s in per_level],
        )
        blocks.append(f"{model} (n={result.samples_per_level} per level)\n{table}")
    blocks.append(
        "paper: averages flat below 50%, rising and fluctuating above 90%; "
        "100%(h) far worse than 100%(l) at equal utilisation"
    )
    return "\n\n".join(blocks)
