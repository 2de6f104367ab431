"""Device cost model: structure, calibration bands, noise."""

import numpy as np
import pytest

from repro.hardware.device_model import DeviceModel, DeviceParams, lognormal_factor
from repro.models import build_model
from repro.profiling.features import profile_graph
from tests.test_features import make_profile


@pytest.fixture(scope="module")
def device():
    return DeviceModel()


class TestStructure:
    def test_uncategorised_nodes_are_free(self, device):
        p = make_profile("flatten", (1, 8, 4, 4))
        assert device.mean_time(p) == 0.0

    def test_monotone_in_flops(self, device):
        small = make_profile("conv2d", (1, 64, 28, 28), out_channels=64, kernel=3, padding=1)
        large = make_profile("conv2d", (1, 64, 28, 28), out_channels=256, kernel=3, padding=1)
        assert device.mean_time(large) > device.mean_time(small)

    def test_few_channel_penalty(self, device):
        # Same FLOPs, different channel balance: 3-in is less efficient.
        few = make_profile("conv2d", (1, 3, 56, 56), out_channels=64, kernel=3, padding=1)
        many = make_profile("conv2d", (1, 64, 56, 56), out_channels=3, kernel=3, padding=1)
        assert few.flops == many.flops
        assert device.mean_time(few) > device.mean_time(many)

    def test_cache_spill_penalty(self, device):
        # Equal FLOPs; the large-map config has a far bigger working set.
        big_map = make_profile("conv2d", (1, 16, 112, 112), out_channels=64, kernel=3, padding=1)
        small_map = make_profile("conv2d", (1, 256, 28, 28), out_channels=64, kernel=3, padding=1)
        assert big_map.flops == small_map.flops
        per_flop_big = device.mean_time(big_map) / big_map.flops
        per_flop_small = device.mean_time(small_map) / small_map.flops
        assert per_flop_big > per_flop_small

    def test_setup_cost_amortises(self, device):
        tiny = make_profile("conv2d", (1, 64, 14, 14), out_channels=16, kernel=1)
        per_flop_tiny = device.mean_time(tiny) / tiny.flops
        big = make_profile("conv2d", (1, 256, 56, 56), out_channels=256, kernel=3, padding=1)
        per_flop_big = device.mean_time(big) / big.flops
        assert per_flop_tiny > 3 * per_flop_big

    def test_matmul_includes_weight_streaming(self, device):
        p = make_profile("matmul", (1, 9216), out_features=4096)
        weight_stream = p.param_bytes / device.params.mem_bandwidth
        assert device.mean_time(p) > weight_stream

    def test_pointwise_cache_discount(self):
        params = DeviceParams()
        device = DeviceModel(params)
        pw = make_profile("conv2d", (1, 728, 37, 37), out_channels=728, kernel=1)
        spatial = make_profile("conv2d", (1, 728, 37, 37), out_channels=728, kernel=3, padding=1)
        # The 3x3 has 9x the FLOPs; per-FLOP it must still be slower than
        # the streaming 1x1 at this working-set size.
        assert device.mean_time(spatial) / spatial.flops > device.mean_time(pw) / pw.flops


class TestCalibration:
    """Local-inference times against the paper's stated values."""

    @pytest.mark.parametrize("model,lo,hi", [
        ("alexnet", 0.20, 0.40),     # Figs. 1/7 imply a few hundred ms
        ("vgg16", 4.6, 6.5),         # paper: ~5.2 s
        ("xception", 1.5, 2.6),      # paper: ~1.8 s
        ("resnet18", 0.40, 0.61),    # must be under the 8 Mbps full-offload time
        ("squeezenet", 0.15, 0.40),
        ("resnet50", 0.8, 1.7),
    ])
    def test_local_inference_bands(self, device, model, lo, hi):
        total = device.mean_graph_time(profile_graph(build_model(model)))
        assert lo <= total <= hi, f"{model}: {total:.3f}s outside [{lo}, {hi}]"

    def test_resnet18_local_beats_8mbps_offload(self, device):
        """§V-B/V-C: ResNet18 runs locally at 8 Mbps."""
        graph = build_model("resnet18")
        local = device.mean_graph_time(profile_graph(graph))
        upload = graph.input_spec.nbytes * 8 / 8e6
        assert local < upload

    def test_vgg_prefix_dwarfs_1mbps_upload(self, device):
        """§V-B: any VGG16 prefix on the device loses to uploading raw input."""
        graph = build_model("vgg16")
        profiles = profile_graph(graph)
        upload_1mbps = graph.input_spec.nbytes * 8 / 1e6
        sizes = graph.transmission_sizes()
        device_prefix = 0.0
        for i, profile in enumerate(profiles, start=1):
            device_prefix += device.mean_time(profile)
            if sizes[i] < graph.input_spec.nbytes:
                # Earliest viable partition point: prefix must already lose.
                assert device_prefix + sizes[i] * 8 / 1e6 > upload_1mbps
                break


class TestNoise:
    def test_lognormal_factor_mean_one(self, rng):
        samples = [lognormal_factor(rng, 0.1) for _ in range(4000)]
        assert np.mean(samples) == pytest.approx(1.0, abs=0.01)

    def test_zero_sigma_is_deterministic(self, rng):
        assert lognormal_factor(rng, 0.0) == 1.0

    def test_sample_time_close_to_mean(self, device, rng):
        p = make_profile("conv2d", (1, 64, 28, 28), out_channels=64, kernel=3, padding=1)
        samples = [device.sample_time(p, rng) for _ in range(500)]
        assert np.mean(samples) == pytest.approx(device.mean_time(p), rel=0.02)

    def test_sample_graph_time_positive(self, device, rng, chain_graph):
        means = np.array([device.mean_time(p) for p in profile_graph(chain_graph)])
        assert device.sample_graph_time(means, rng) > 0
