"""Transmission codecs: wire sizes, numerics, decision impact."""

import numpy as np
import pytest

from repro.core.engine import LoADPartEngine
from repro.models import build_model
from repro.network.codec import TensorCodec
from repro.network.streaming import StreamingConfig


class TestWireSizes:
    def test_ratios(self):
        assert TensorCodec("fp32").compression_ratio == 1.0
        assert TensorCodec("fp16").compression_ratio == 2.0
        assert TensorCodec("int8").compression_ratio == 4.0

    def test_wire_bytes(self):
        assert TensorCodec("int8").wire_bytes(4000) == 1000
        assert TensorCodec("fp16").wire_bytes(4000) == 2000
        assert TensorCodec("fp32").wire_bytes(4000) == 4000

    def test_unknown_codec(self):
        with pytest.raises(ValueError, match="unknown codec"):
            TensorCodec("bf16")

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            TensorCodec("fp16").wire_bytes(-1)


class TestNumerics:
    def test_fp32_round_trip_exact(self, rng):
        x = rng.standard_normal((4, 8)).astype(np.float32)
        codec = TensorCodec("fp32")
        np.testing.assert_array_equal(codec.round_trip(x), x)

    def test_fp16_round_trip_close(self, rng):
        x = rng.standard_normal((16, 16)).astype(np.float32)
        assert TensorCodec("fp16").max_abs_error(x) < 5e-3

    def test_int8_round_trip_bounded_by_step(self, rng):
        x = (rng.standard_normal((32, 32)) * 10).astype(np.float32)
        codec = TensorCodec("int8")
        step = (x.max() - x.min()) / 255.0
        assert codec.max_abs_error(x) <= step * 0.51

    def test_int8_constant_tensor(self):
        x = np.full((4, 4), 3.14, dtype=np.float32)
        codec = TensorCodec("int8")
        np.testing.assert_allclose(codec.round_trip(x), x, atol=1e-6)

    def test_encoded_payload_sizes(self, rng):
        x = rng.standard_normal((10, 10)).astype(np.float32)
        assert TensorCodec("fp32").encode(x).nbytes == 400
        assert TensorCodec("fp16").encode(x).nbytes == 200
        assert TensorCodec("int8").encode(x).nbytes == 100

    def test_codec_mismatch_rejected(self, rng):
        x = rng.standard_normal((2, 2)).astype(np.float32)
        enc = TensorCodec("fp16").encode(x)
        with pytest.raises(ValueError, match="mismatch"):
            TensorCodec("int8").decode(enc)

    def test_top1_preserved_through_int8_boundary(self, rng):
        """Quantising the boundary tensor rarely flips the classification."""
        from repro.graph.partitioner import GraphPartitioner
        from repro.nn import GraphExecutor, SegmentExecutor

        graph = build_model("squeezenet")
        executor = GraphExecutor(graph, seed=3)
        x = rng.standard_normal(graph.input_spec.shape).astype(np.float32)
        reference = executor.run(x)
        part = GraphPartitioner(graph).partition(47)
        head = SegmentExecutor(part.head, params=executor.params)
        boundary = head.run({graph.input_name: x})
        codec = TensorCodec("int8")
        decoded = {k: codec.round_trip(v) for k, v in boundary.items()}
        tail = SegmentExecutor(part.tail, params=executor.params)
        result = tail.run(decoded)[graph.output_name]
        assert np.argmax(result) == np.argmax(reference)


ALL_CODECS = sorted(TensorCodec.BYTES_PER_ELEMENT)

#: Input dtypes a caller may legitimately hand to ``encode`` — every codec
#: normalises to float32 first, so the round trip is judged against the
#: float32 view of the input.
INPUT_DTYPES = (np.float32, np.float64, np.float16)


def _inputs(rng, dtype):
    """(label, array) cases: contiguous, three non-contiguous views, empties."""
    base = (rng.standard_normal((6, 8, 10)) * 4).astype(dtype)
    return [
        ("contiguous", base),
        ("strided", base[::2, :, ::3]),
        ("transposed", base.transpose(2, 0, 1)),
        ("reversed", base[:, ::-1, :]),
        ("zero_rows", base[:0]),
        ("empty", np.empty((0,), dtype=dtype)),
    ]


class TestRoundTripMatrix:
    """Every codec × input dtype × (non-)contiguity × zero-size."""

    @pytest.mark.parametrize("dtype", INPUT_DTYPES,
                             ids=[np.dtype(d).name for d in INPUT_DTYPES])
    @pytest.mark.parametrize("name", ALL_CODECS)
    def test_round_trip(self, rng, name, dtype):
        codec = TensorCodec(name)
        for label, x in _inputs(rng, dtype):
            ref = np.ascontiguousarray(x, dtype=np.float32)
            out = codec.round_trip(x)
            assert out.shape == ref.shape, (label, out.shape)
            assert out.dtype == np.float32
            if codec.lossless:
                # Byte-identical, not merely close.
                assert out.tobytes() == ref.tobytes(), (name, label)
            else:
                bound = codec.error_bound(ref)
                err = float(np.abs(out - ref).max()) if ref.size else 0.0
                assert err <= bound, (name, label, err, bound)

    @pytest.mark.parametrize("name", ALL_CODECS)
    def test_zero_size_tensors(self, name):
        codec = TensorCodec(name)
        for shape in ((0,), (0, 4), (3, 0, 5)):
            x = np.empty(shape, dtype=np.float32)
            enc = codec.encode(x)
            assert enc.shape == shape
            out = codec.decode(enc)
            assert out.shape == shape and out.size == 0
            assert codec.max_abs_error(x) == 0.0
            assert codec.error_bound(x) >= 0.0
            assert codec.wire_bytes(0) == 0

    @pytest.mark.parametrize("name", ALL_CODECS)
    def test_error_bound_dominates_observed_error(self, rng, name):
        codec = TensorCodec(name)
        for scale in (1e-3, 1.0, 1e3):
            x = (rng.standard_normal((32, 32)) * scale).astype(np.float32)
            assert codec.max_abs_error(x) <= codec.error_bound(x)
        if codec.lossless:
            assert codec.error_bound(rng.standard_normal((4, 4))
                                     .astype(np.float32)) == 0.0

    def test_special_values_survive_lossless(self):
        x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan,
                      np.float32(1e-45), 3.14], dtype=np.float32)
        for name in ("fp32", "zlib"):
            out = TensorCodec(name).round_trip(x)
            assert out.tobytes() == x.tobytes()

    def test_decode_any_round_trips_every_codec(self, rng):
        from repro.network.codec import decode_any

        x = rng.standard_normal((5, 7)).astype(np.float32)
        for name in ALL_CODECS:
            codec = TensorCodec(name)
            out = decode_any(codec.encode(x))
            assert float(np.abs(out - x).max()) <= codec.error_bound(x)


def _codec_only(name):
    """The codec axis narrowed to one whole-tensor codec."""
    return StreamingConfig(codecs=(name,), chunk_bytes=None, allow_lossy=True)


class TestDecisionImpact:
    def test_compression_shifts_point_earlier(self, trained_report):
        """Cheaper uploads never push the partition point later."""
        engine = LoADPartEngine(build_model("squeezenet"),
                                trained_report.user_predictor,
                                trained_report.edge_predictor)
        points = {name: engine.decide(4e6, streaming=_codec_only(name)).point
                  for name in ("fp32", "fp16", "int8")}
        assert points["int8"] <= points["fp16"] <= points["fp32"]

    def test_int8_rescues_low_bandwidth_offloading(self, trained_report):
        """At 2 Mbps SqueezeNet is local with fp32 uploads but can offload
        partially once uploads shrink 4x."""
        engine = LoADPartEngine(build_model("squeezenet"),
                                trained_report.user_predictor,
                                trained_report.edge_predictor)
        n = engine.num_nodes
        assert engine.decide(2e6).point == n
        int8 = engine.decide(2e6, streaming=_codec_only("int8"))
        assert int8.codec == "int8"
        assert int8.point < n
