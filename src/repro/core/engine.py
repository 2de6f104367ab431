"""``LoADPartEngine``: the per-model decision engine of §IV.

Binds together a computation graph, the trained prediction models
(M_user, M_edge) and the cut analysis.  The prefix and suffix arrays of
Algorithm 1 are computed exactly once at construction; every decision is
then one scan over the grid

    (exit, server, codec, mode) × partition point

where each ``(exit, server, codec, mode)`` cell contributes one O(n)
objective vector over the partition points, with the cell's bandwidth
estimate and load factor ``k`` multiplied onto the suffix sum exactly as
the paper's implementation does.  An axis the caller leaves closed
collapses to one value: without an SLA only the final exit is scanned,
:meth:`~LoADPartEngine.decide` has one implicit server, and without a
:class:`~repro.network.streaming.StreamingConfig` the only cell is the
monolithic identity codec — so plain ``decide`` is Algorithm 1, bit for
bit the same candidate vector.

Tie rules, axis by axis: within one vector the latest point wins
(Algorithm 1's ``<=``); across the ``(server, codec, mode)`` cells of one
exit the first in scan order wins (strict ``<``: earliest server, then
the earlier codec of ``StreamingConfig.codecs``, then mono before
stream); across exits, :func:`pick_exit`'s SLA rule.

A codec's mono vector adds its declared encode/decode times to Algorithm
1 and uploads its wire size.  A streamed vector additionally credits
upload/compute overlap using the *release schedule* of the tail — tail
node ``j`` cannot start before the last crossing tensor it (transitively,
in execution order) depends on has arrived, so the pipelined finish time
is

    max over release breakpoints v of
        frac_v * t_up + decode_cum_v + k * suffix[jstart_v]

where ``frac_v`` is the cumulative wire fraction at which crossing
tensor ``v`` completes.  The load factor ``k`` still scales every
server-side compute term; decode runs on the server CPU and is charged
unscaled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.partition_algorithm import (
    Cell,
    PartitionDecision,
    compute_prefix_device,
    compute_suffix_edge,
    latest_argmin,
    objective_vector,
)
from repro.graph.exits import ExitBranch, validate_exits
from repro.graph.graph import ComputationGraph
from repro.profiling.features import NodeProfile, profile_graph
from repro.profiling.predictor import LatencyPredictor


@dataclass(frozen=True)
class ServerProfile:
    """Hardware and link description of one edge server in a fleet.

    ``edge_predictor`` is that server's own M_edge bundle (``None`` means
    the engine's shared predictor — the homogeneous default);
    ``bandwidth_bps`` is a link-bandwidth *prior* used when no live
    estimate is available; ``extra_latency_s`` is the server's relative
    link position (one-way base latency above the nearest server's),
    likewise a prior that a supervisor's learned estimate overrides.

    A fleet where every profile is ``ServerProfile()`` is bit-identical
    to passing no profiles at all.
    """

    edge_predictor: object | None = None
    bandwidth_bps: float | None = None
    extra_latency_s: float = 0.0

    def __post_init__(self) -> None:
        if self.edge_predictor is not None and self.edge_predictor.side != "edge":
            raise ValueError("a ServerProfile predictor must be the 'edge' side")
        if self.bandwidth_bps is not None and self.bandwidth_bps <= 0:
            raise ValueError("bandwidth_bps prior must be positive")
        if not math.isfinite(self.extra_latency_s) or self.extra_latency_s < 0:
            raise ValueError("extra_latency_s must be non-negative and finite")


#: One server column of the grid: ``(server index or None, bandwidth_up,
#: k, extra_latency_s, profile)``.
Link = Tuple[int | None, float, float, float, ServerProfile | None]


def check_sla(sla_s: float) -> None:
    """An SLA is a positive, finite deadline in seconds."""
    if not math.isfinite(sla_s) or sla_s <= 0:
        raise ValueError(f"sla_s must be positive and finite, got {sla_s}")


def pick_exit(sla_s: float, latencies: Sequence[float]) -> Tuple[int, bool]:
    """The exit rule: ``(exit index, feasible)`` for per-exit latencies.

    Latest (most accurate) exit meeting the SLA — accuracies are
    nondecreasing in exit order, so "latest feasible" is "most accurate
    feasible".  If none does, the fastest exit overall, ``feasible=False``
    (the request is still served as fast as possible) — strict ``<`` on a
    forward scan, so the earliest exit wins latency ties.  With this
    fallback a *tighter* SLA can never select a *later* exit (SLA
    monotonicity): the global argmin's latency is a lower bound on every
    feasible latency at any looser SLA.
    """
    for e in range(len(latencies) - 1, -1, -1):
        if latencies[e] <= sla_s:
            return e, True
    fastest = 0
    for e in range(1, len(latencies)):
        if latencies[e] < latencies[fastest]:
            fastest = e
    return fastest, False


class LoADPartEngine:
    """Decision engine for one DNN on one (device, server) pair."""

    def __init__(
        self,
        graph: ComputationGraph,
        user_predictor: LatencyPredictor,
        edge_predictor: LatencyPredictor,
        exits: Sequence[ExitBranch] | None = None,
    ) -> None:
        if user_predictor.side != "device":
            raise ValueError("user_predictor must be the 'device' side")
        if edge_predictor.side != "edge":
            raise ValueError("edge_predictor must be the 'edge' side")
        graph.validate()
        self.graph = graph
        self.profiles: List[NodeProfile] = profile_graph(graph)
        self.device_times = user_predictor.predict_nodes(self.profiles)
        self.edge_times = edge_predictor.predict_nodes(self.profiles)
        self._cuts = graph.cuts()
        self.sizes = [cut.upload_bytes for cut in self._cuts]
        self.output_bytes = graph.output_spec.nbytes
        self._prefix = compute_prefix_device(self.device_times)
        self._suffix = compute_suffix_edge(self.edge_times)
        # Per-profile suffix arrays for heterogeneous fleets, keyed by
        # predictor identity (the cache holds a strong reference, so ids
        # cannot be recycled while an entry lives).
        self._profile_suffix_cache: Dict[int, Tuple[object, np.ndarray]] = {}
        # Lazy codec caches: codecs by name, per-codec vectors over points,
        # per-(codec, point) crossing-tensor terms, per-point cut-tensor
        # metadata and release-schedule breakpoints.
        self._codec_cache: Dict[str, object] = {}
        self._terms_cache: Dict[str, Tuple[np.ndarray, ...]] = {}
        self._tensor_cache: Dict[Tuple[str, int], Tuple[int, list, list]] = {}
        self._cut_tensor_cache: Dict[int, Tuple[Tuple[str, int, str], ...]] = {}
        self._release_cache: Dict[int, Tuple[Tuple[int, int], ...]] = {}
        # Early exits: one sub-engine per exit branch over the same
        # predictor bundle — independent per-exit prefix/suffix arrays,
        # computed once here.  The final exit's engine IS this engine
        # (its graph is the backbone), so every exit-free code path is
        # untouched by construction.
        self.exits: Tuple[ExitBranch, ...] = validate_exits(graph, exits or ())
        self._exit_engines: Tuple[LoADPartEngine, ...] = tuple(
            LoADPartEngine(b.graph, user_predictor, edge_predictor)
            for b in self.exits[:-1]) + (self,)

    @property
    def num_nodes(self) -> int:
        return len(self.profiles)

    # -- early exits ---------------------------------------------------------

    @property
    def has_exits(self) -> bool:
        return bool(self.exits)

    @property
    def num_exits(self) -> int:
        return len(self._exit_engines)

    def exit_engine(self, index: int) -> "LoADPartEngine":
        """The sub-engine of exit ``index`` (the last one is ``self``)."""
        return self._exit_engines[index]

    def exit_accuracy(self, index: int | None = None) -> float:
        """Declared accuracy proxy of exit ``index`` (default: final).

        An exit-free engine reports 1.0 — the full network is the only
        (and therefore the most accurate) exit.
        """
        if not self.exits:
            return 1.0
        return self.exits[-1 if index is None else index].accuracy

    # -- decisions -----------------------------------------------------------

    def decide(
        self,
        bandwidth_up: float,
        k: float = 1.0,
        bandwidth_down: float | None = None,
        offload_only: bool = False,
        extra_latency_s: float = 0.0,
        profile: ServerProfile | None = None,
        *,
        sla_s: float | None = None,
        streaming=None,
    ) -> PartitionDecision:
        """Pick the partition point for one (device, server) pair.

        With the defaults this is Algorithm 1.  ``extra_latency_s`` is a
        fixed per-request penalty on every offloading candidate (a
        server's link base latency); ``profile`` substitutes that
        server's own edge predictor for the suffix array (the device
        prefix never changes — the device is ours).

        ``sla_s`` opens the exit axis: every exit sub-graph is scanned
        and :func:`pick_exit` chooses among them (``ValueError`` unless
        positive and finite).  ``streaming`` opens the codec and mode
        axes: every codec of ``streaming.codecs``, monolithic and — with
        ``chunk_bytes`` set — streamed.  ``StreamingConfig(codecs=
        ("fp32",), chunk_bytes=None)`` reproduces the plain scan verbatim.
        """
        links = self._links([bandwidth_up], [k], [extra_latency_s], [profile],
                            None, fleet=False)
        return self._scan(links, sla_s, streaming, bandwidth_down, offload_only)

    def decide_fleet(
        self,
        bandwidths_up: Sequence[float | None],
        ks: Sequence[float],
        extra_latencies_s: Sequence[float] | None = None,
        bandwidth_down: float | None = None,
        allowed: Sequence[int] | None = None,
        offload_only: bool = False,
        profiles: Sequence[ServerProfile | None] | None = None,
        *,
        sla_s: float | None = None,
    ) -> PartitionDecision:
        """Jointly pick ``(partition point, server)`` across an edge fleet.

        The server axis gets one column per server ``s`` with its own
        influential factor ``k_s``, bandwidth estimate and link base
        latency.  A winning ``point == n`` means local inference and
        ``server is None`` — every server's vector contains the identical
        local candidate, so local wins only when no server beats it.

        ``profiles`` makes the fleet heterogeneous: server ``s``'s column
        uses *its own* edge predictor's suffix array (cached per
        predictor), its profile's bandwidth prior when
        ``bandwidths_up[s]`` is ``None``, and its profile's link position
        when ``extra_latencies_s`` is omitted.  Uniform default profiles
        reproduce the homogeneous scan bit-for-bit.

        ``allowed`` restricts the scan to a subset of server indices (the
        gateway drops dead/saturated servers); an empty ``allowed`` yields
        the pure local decision.  With one allowed server and zero extra
        latency this reduces bit-for-bit to :meth:`decide`.  ``sla_s``
        opens the exit axis exactly as in :meth:`decide`.
        """
        links = self._links(bandwidths_up, ks, extra_latencies_s, profiles,
                            allowed)
        return self._scan(links, sla_s, None, bandwidth_down, offload_only)

    def decide_exit_fleet(self, sla_s: float | None,
                          bandwidths_up: Sequence[float | None],
                          ks: Sequence[float], **kwargs) -> PartitionDecision:
        """:meth:`decide_fleet` with the SLA first (the name the per-layer
        benchmark traces)."""
        return self.decide_fleet(bandwidths_up, ks, sla_s=sla_s, **kwargs)

    def decide_joint(self, bandwidth_up: float, k: float = 1.0, streaming=None,
                     **kwargs) -> PartitionDecision:
        """:meth:`decide` with ``streaming`` third (the name the per-layer
        benchmark traces)."""
        return self.decide(bandwidth_up, k=k, streaming=streaming, **kwargs)

    def _links(
        self,
        bandwidths_up: Sequence[float | None],
        ks: Sequence[float],
        extra_latencies_s: Sequence[float] | None,
        profiles: Sequence[ServerProfile | None] | None,
        allowed: Sequence[int] | None,
        fleet: bool = True,
    ) -> List[Link]:
        """Resolve and validate the server columns of one scan.

        Fills ``None`` bandwidth entries from the profile prior and
        defaults the extra-latency vector from the profiles' link
        positions.  :func:`brute_force` calls this too, so the reference
        implementation cannot diverge on resolution rules.  Columns of a
        single-server scan (``fleet=False``) carry server ``None``.
        """
        num = len(bandwidths_up)
        if len(ks) != num:
            raise ValueError("bandwidths_up and ks must have the same length")
        if profiles is None:
            profiles = [None] * num
        elif len(profiles) != num:
            raise ValueError("profiles must match bandwidths_up")
        if extra_latencies_s is None:
            extra_latencies_s = [
                0.0 if p is None else p.extra_latency_s for p in profiles
            ]
        elif len(extra_latencies_s) != num:
            raise ValueError("extra_latencies_s must match bandwidths_up")
        bandwidths = list(bandwidths_up)
        for s, (bw, p) in enumerate(zip(bandwidths, profiles)):
            if bw is None:
                if p is None or p.bandwidth_bps is None:
                    raise ValueError(
                        f"server {s} has no bandwidth estimate and its "
                        "profile carries no prior"
                    )
                bandwidths[s] = p.bandwidth_bps
        servers = range(num) if allowed is None else sorted(set(allowed))
        links: List[Link] = []
        for s in servers:
            if not 0 <= s < num:
                raise ValueError(f"allowed indices must be in [0, {num})")
            bw, k, extra = bandwidths[s], ks[s], extra_latencies_s[s]
            if bw <= 0:
                raise ValueError("upload bandwidth must be positive")
            if k < 1.0:
                raise ValueError(f"the influential factor k must be >= 1, got {k}")
            if extra < 0:
                raise ValueError("extra_latency_s must be non-negative")
            links.append((s if fleet else None, bw, k, extra, profiles[s]))
        return links

    def _scan(self, links: Sequence[Link], sla_s: float | None, streaming,
              bandwidth_down: float | None,
              offload_only: bool) -> PartitionDecision:
        """The one decision scan over ``(exit, server, codec, mode)``."""
        if sla_s is not None:
            check_sla(sla_s)
        if bandwidth_down is not None and bandwidth_down <= 0:
            raise ValueError("download bandwidth must be positive")
        codecs = ("fp32",) if streaming is None else streaming.codecs
        modes = ((False,) if streaming is None or streaming.chunk_bytes is None
                 else (False, True))
        engines = self._exit_engines if sla_s is not None else self._exit_engines[-1:]
        first = self.num_exits - len(engines)
        open_exits = bool(self.exits) and sla_s is not None
        cells: Dict[Cell, PartitionDecision] = {}
        winners = []  # per exit: (winning row, its bandwidth, k, suffix)
        for e, eng in enumerate(engines, first):
            exit_index = e if open_exits else None
            accuracy = self.exit_accuracy(e)
            download = (0.0 if bandwidth_down is None
                        else eng.output_bytes * 8 / bandwidth_down)
            best, best_value = None, math.inf
            for server, bw, k, extra, profile in links:
                suffix = eng._suffix_for(profile)
                for name in codecs:
                    for streamed in modes:
                        vec = (eng._stream_vector(name, bw, k, suffix, download,
                                                  extra, streaming)
                               if streamed else
                               eng._mono_vector(name, bw, k, suffix, download,
                                                extra))
                        point = latest_argmin(vec, offload_only)
                        value = float(vec[point])
                        row = PartitionDecision(
                            point=point, predicted_latency=value,
                            candidates=vec, server=server,
                            exit_index=exit_index, accuracy=accuracy,
                            sla_s=sla_s,
                            feasible=sla_s is None or value <= sla_s,
                            codec=name, streamed=streamed)
                        cells[(exit_index, server, name, streamed)] = row
                        if value < best_value:
                            best, best_value = (row, bw, k, suffix), value
            if best is None:
                # No server to offload to: the local candidate is all
                # there is.
                n = eng.num_nodes
                local = np.full(n + 1, np.inf)
                local[n] = eng._prefix[n]
                best = (PartitionDecision(n, float(local[n]), local),
                        1.0, 1.0, eng._suffix)
            winners.append(best)

        chosen, feasible = (0, True) if sla_s is None else pick_exit(
            sla_s, [row.predicted_latency for row, *_ in winners])
        row, bw, k, suffix = winners[chosen]
        return engines[chosen]._decision(
            row.point, row.predicted_latency, row.candidates, row.codec,
            row.streamed, bw, k, suffix, streaming,
            server=None if row.is_local else row.server,
            exit_index=first + chosen if open_exits else None,
            accuracy=self.exit_accuracy(first + chosen), sla_s=sla_s,
            feasible=feasible, cells=cells)

    def _decision(self, point: int, value: float, candidates: np.ndarray,
                  codec_name: str, streamed: bool, bandwidth_up: float,
                  k: float, suffix: np.ndarray, streaming,
                  **fields) -> PartitionDecision:
        """A decision at one ``(point, codec, mode)``, with its per-stage
        predicted times."""
        codec = self.codec(codec_name)
        wire_b = int(self._wire_sizes(codec_name)[point])
        chunks = streaming.num_chunks(wire_b) if streamed else 1
        upload_s = 0.0
        if point < self.num_nodes:
            upload_s = wire_b * 8 / bandwidth_up
            if streamed:
                upload_s += (chunks - 1) * streaming.chunk_overhead_s
        raw_b = float(self.sizes[point])
        return PartitionDecision(
            point=point,
            predicted_latency=value,
            candidates=candidates,
            codec=codec_name,
            streamed=streamed,
            chunks=chunks,
            wire_bytes=wire_b,
            predicted_device_s=float(self._prefix[point]),
            predicted_encode_s=float(codec.encode_time_s(raw_b)),
            predicted_upload_s=upload_s,
            predicted_decode_s=float(codec.decode_time_s(raw_b)),
            predicted_server_s=float(k * suffix[point]),
            **fields,
        )

    def joint_at(self, point: int, codec_name: str, streamed: bool,
                 bandwidth_up: float, k: float = 1.0,
                 streaming=None,
                 bandwidth_down: float | None = None) -> PartitionDecision:
        """A decision pinned to ``(point, codec, mode)``.

        Runs the same scan as :meth:`decide` but skips the argmin:
        benchmarks and tests use this to compare arms at one fixed cut
        (e.g. streaming+zlib vs monolithic fp32 at the same
        transfer-dominated point).
        """
        self._check_point(point)
        d = self.decide(bandwidth_up, k=k, streaming=streaming,
                        bandwidth_down=bandwidth_down)
        key = (None, None, codec_name, streamed)
        if key not in d.cells:
            raise ValueError(
                f"no candidate vector for {key}; the scan offers {list(d.cells)}")
        candidates = d.cells[key].candidates
        value = float(candidates[point])
        if not math.isfinite(value):
            raise ValueError(
                f"{key} is infeasible at point {point} (e.g. a streamed "
                "mode whose cut fits one chunk)")
        return self._decision(point, value, candidates, codec_name, streamed,
                              bandwidth_up, k, self._suffix, streaming,
                              cells=d.cells)

    def _suffix_for(self, profile: ServerProfile | None) -> np.ndarray:
        """Suffix array for one server profile (cached per predictor)."""
        if profile is None or profile.edge_predictor is None:
            return self._suffix
        predictor = profile.edge_predictor
        key = id(predictor)
        entry = self._profile_suffix_cache.get(key)
        if entry is None or entry[0] is not predictor:
            suffix = compute_suffix_edge(predictor.predict_nodes(self.profiles))
            entry = (predictor, suffix)
            self._profile_suffix_cache[key] = entry
        return entry[1]

    # -- codec and streaming terms -------------------------------------------

    def codec(self, name: str):
        """Cached :class:`~repro.network.codec.TensorCodec` by name."""
        if name not in self._codec_cache:
            # Deferred import: repro.core loads before repro.network in the
            # package __init__ chain.
            from repro.network.codec import TensorCodec

            self._codec_cache[name] = TensorCodec(name)
        return self._codec_cache[name]

    def cut_tensors(self, point: int) -> Tuple[Tuple[str, int, str], ...]:
        """Crossing tensors of cut ``point`` in *wire* order.

        Each entry is ``(producer_name, fp32_bytes, producer_op)``; the
        graph input is reported with op ``"input"``.  Tensors are ordered
        by the position of their first consumer in the tail — the device
        serializes the tensor the server needs soonest first, which is
        what makes arrival-gated overlap possible at all (production
        order would often ship the immediately-needed tensor *last*).
        Ties break on production order, so single-tensor cuts and chain
        graphs are unaffected.
        """
        self._check_point(point)
        if point not in self._cut_tensor_cache:
            graph = self.graph
            order = graph.topological_order()
            first_consumer = {}
            for j in range(point, len(order)):
                for dep in graph.node(order[j]).inputs:
                    first_consumer.setdefault(dep, j)
            tensors = []
            for prod_idx, name in enumerate(self._cuts[point].crossing):
                if name == graph.input_name:
                    entry = (name, graph.input_spec.nbytes, "input")
                else:
                    node = graph.node(name)
                    entry = (name, node.output.nbytes, node.op)
                tensors.append(
                    (first_consumer.get(name, len(order)), prod_idx, entry))
            tensors.sort(key=lambda t: t[:2])
            self._cut_tensor_cache[point] = tuple(e for _f, _p, e in tensors)
        return self._cut_tensor_cache[point]

    def _release_entries(self, point: int) -> Tuple[Tuple[int, int], ...]:
        """Release schedule of the tail at cut ``point``.

        Entries ``(v, jstart)``: the run of tail nodes starting at
        topological index ``jstart`` cannot begin before crossing tensor
        ``v`` (index into :meth:`cut_tensors`) has arrived.  The release
        index is a running maximum over execution order, so entries are
        strictly increasing in both components.
        """
        if point not in self._release_cache:
            order = self.graph.topological_order()
            idx = {name: i for i, (name, _nb, _op) in
                   enumerate(self.cut_tensors(point))}
            entries = []
            release = -1
            for j in range(point, len(order)):
                node = self.graph.node(order[j])
                needed = max((idx[dep] for dep in node.inputs if dep in idx),
                             default=-1)
                if needed > release:
                    release = needed
                    entries.append((release, j))
            self._release_cache[point] = tuple(entries)
        return self._release_cache[point]

    def release_schedule(self, point: int) -> Tuple[Tuple[str, int], ...]:
        """Arrival gates of the tail at cut ``point``, by tensor *name*.

        Each entry ``(tensor_name, jstart)`` says: the run of tail nodes
        starting at topological index ``jstart`` cannot begin before the
        crossing tensor ``tensor_name`` is available on the server.  This
        is :meth:`_release_entries` translated for the runtime, which keys
        uploaded tensors by producer name.
        """
        names = [name for name, _nb, _op in self.cut_tensors(point)]
        return tuple((names[v], j) for v, j in self._release_entries(point))

    def _codec_terms(self, name: str) -> Tuple[np.ndarray, ...]:
        """Per-point vectors of codec ``name``, computed once.

        ``(wire, bits, encode_s, codec_s)``: declared wire bytes, wire
        bits, encode seconds, and encode + decode seconds (``None`` for a
        codec that costs exactly nothing, the identity).
        """
        if name not in self._terms_cache:
            codec = self.codec(name)
            if name == "fp32":
                # Identity codec: the wire size IS the raw cut size (the
                # per-tensor sum, by the definition of the cuts).
                wire = np.asarray(self.sizes, dtype=np.int64)
            else:
                wire = np.asarray(
                    [self._tensor_terms(name, p)[0]
                     for p in range(self.num_nodes + 1)], dtype=np.int64)
            raw = np.asarray(self.sizes, dtype=np.float64)
            enc = codec.encode_time_s(raw)
            dec = codec.decode_time_s(raw)
            codec_s = enc + dec if enc.any() or dec.any() else None
            self._terms_cache[name] = (wire, wire.astype(np.float64) * 8,
                                       enc, codec_s)
        return self._terms_cache[name]

    def _wire_sizes(self, codec_name: str) -> np.ndarray:
        """Declared wire bytes per partition point for ``codec_name``."""
        return self._codec_terms(codec_name)[0]

    def _tensor_terms(self, name: str, point: int) -> Tuple[int, list, list]:
        """Crossing-tensor terms of cut ``point`` under codec ``name``.

        ``(total wire bytes, cumulative wire fraction per tensor, decode
        seconds per tensor)``, in wire order, computed once per
        ``(codec, point)``: the total is the last entry of the
        cumulative per-tensor wire sizes.
        """
        key = (name, point)
        if key not in self._tensor_cache:
            codec = self.codec(name)
            tensors = self.cut_tensors(point)
            cum = np.cumsum([codec.wire_bytes(nb, op) for _n, nb, op in tensors],
                            dtype=np.int64)
            total = int(cum[-1]) if len(cum) else 0
            self._tensor_cache[key] = (
                total,
                (cum / cum[-1]).tolist() if total else [],
                [codec.decode_time_s(float(nb)) for _n, nb, _op in tensors])
        return self._tensor_cache[key]

    def _mono_vector(self, name: str, bandwidth_up: float, k: float,
                     suffix: np.ndarray, download: float,
                     extra: float) -> np.ndarray:
        """Objective vector of one whole-tensor upload with codec ``name``:
        Algorithm 1 on the wire sizes, plus encode/decode time."""
        _wire, bits, _enc, codec_s = self._codec_terms(name)
        vec = objective_vector(self._prefix, suffix, bits, bandwidth_up, k,
                               download, extra)
        if codec_s is not None:
            vec += codec_s
        return vec

    def _stream_vector(self, name: str, bandwidth_up: float, k: float,
                       suffix: np.ndarray, download: float, extra: float,
                       streaming) -> np.ndarray:
        """Objective vector of one chunked upload with codec ``name`` (see
        the module docstring); ``inf`` where the cut fits one chunk."""
        n = self.num_nodes
        enc = self._codec_terms(name)[2]
        vec = np.full(n + 1, np.inf)
        for p in range(n):
            total, fracs, decode_s = self._tensor_terms(name, p)
            chunks = streaming.num_chunks(total)
            if chunks <= 1:
                continue  # single chunk == the monolithic candidate
            t_stream = (total * 8 / bandwidth_up
                        + (chunks - 1) * streaming.chunk_overhead_s)
            # Per-tensor availability on the server: tensor v is decodable
            # once its last byte lands (its wire-prefix fraction of the
            # stream) and the decoder — which works through tensors in
            # wire order — gets to it.
            avail = []
            busy = 0.0
            for frac, dec in zip(fracs, decode_s):
                busy = max(frac * t_stream, busy) + dec
                avail.append(busy)
            finish = 0.0
            for v, jstart in self._release_entries(p):
                finish = max(finish, avail[v] + k * suffix[jstart])
            vec[p] = self._prefix[p] + enc[p] + finish + download + extra
        return vec

    # -- component predictions, used by the runtime and the experiments -----

    def predicted_device_time(self, point: int) -> float:
        """Predicted device time of the head (positions 1..point)."""
        self._check_point(point)
        return float(self._prefix[point])

    def predicted_server_time(
        self, point: int, k: float = 1.0,
        profile: ServerProfile | None = None,
    ) -> float:
        """Predicted server time of the tail under load factor ``k``.

        ``profile`` evaluates the tail under that server's own predictor
        — a server monitoring its *own* load must compare observations
        against its own hardware model, or slow silicon masquerades as
        queueing (see :class:`~repro.runtime.server.EdgeServer`).
        """
        self._check_point(point)
        return float(k * self._suffix_for(profile)[point])

    def predicted_upload_time(self, point: int, bandwidth_up: float) -> float:
        self._check_point(point)
        if point == self.num_nodes:
            return 0.0
        return self.sizes[point] * 8 / bandwidth_up

    def predicted_total_time(self, point: int, bandwidth_up: float,
                             k: float = 1.0) -> float:
        """Predicted end-to-end latency of partition ``point`` (Problem (1)).

        The same objective value Algorithm 1 minimises — device prefix plus
        upload plus ``k``-scaled server suffix.  The resilient client derives
        its per-attempt offload deadline from this prediction
        (``margin × predicted_total``): a request that overshoots its own
        prediction several-fold is lost, not merely slow.
        """
        self._check_point(point)
        if bandwidth_up <= 0:
            raise ValueError("upload bandwidth must be positive")
        return float(
            self._prefix[point]
            + self.predicted_upload_time(point, bandwidth_up)
            + k * self._suffix[point]
        )

    def tail_profiles(self, point: int) -> Sequence[NodeProfile]:
        """Node profiles of the server-side tail for partition ``point``."""
        self._check_point(point)
        return self.profiles[point:]

    def head_profiles(self, point: int) -> Sequence[NodeProfile]:
        self._check_point(point)
        return self.profiles[:point]

    def _check_point(self, point: int) -> None:
        if not 0 <= point <= self.num_nodes:
            raise ValueError(f"partition point {point} out of range [0, {self.num_nodes}]")


# -- differential references for the decision scan ---------------------------
#
# The scan must agree with two independent implementations:
# ``fleet_objective`` restates Problem (1) for a single ``(point, server)``
# pair by direct summation (no prefix/suffix arrays — numerically close,
# not bit-equal), and ``brute_force`` enumerates every cell of the grid
# with scalar loops that mirror the scan's vector arithmetic operation for
# operation (bit-equal).


def fleet_objective(
    engine: LoADPartEngine,
    point: int,
    bandwidth_up: float,
    k: float = 1.0,
    extra_latency_s: float = 0.0,
    bandwidth_down: float | None = None,
    profile: ServerProfile | None = None,
) -> float:
    """Problem (1) for one ``(point, server)`` candidate, summed directly.

    Deliberately avoids the engine's precomputed arrays: the device head
    and server tail are plain Python sums over the predictor outputs, so
    a bookkeeping bug in the prefix/suffix indexing cannot hide in both
    implementations at once.  Compare with ``isclose`` — summation order
    differs from the cumsum by design.
    """
    engine._check_point(point)
    device = sum(float(t) for t in engine.device_times[:point])
    if profile is not None and profile.edge_predictor is not None:
        edge_times = profile.edge_predictor.predict_nodes(engine.profiles)
    else:
        edge_times = engine.edge_times
    total = device + k * sum(float(t) for t in edge_times[point:])
    if point < engine.num_nodes:
        total += engine.sizes[point] * 8 / bandwidth_up + extra_latency_s
        if bandwidth_down is not None:
            total += engine.output_bytes * 8 / bandwidth_down
    return total


def brute_force(
    engine: LoADPartEngine,
    bandwidths_up: Sequence[float | None],
    ks: Sequence[float],
    extra_latencies_s: Sequence[float] | None = None,
    bandwidth_down: float | None = None,
    allowed: Sequence[int] | None = None,
    offload_only: bool = False,
    profiles: Sequence[ServerProfile | None] | None = None,
    *,
    sla_s: float | None = None,
    streaming=None,
    fleet: bool = True,
) -> PartitionDecision:
    """Exhaustive scalar reference for the decision scan.

    With ``fleet=True`` it mirrors :meth:`LoADPartEngine.decide_fleet`;
    with ``fleet=False`` and one-entry sequences, :meth:`~LoADPartEngine.
    decide` (whose ``streaming`` axis it covers too).  Every ``(exit,
    server, codec, mode, point)`` cell is evaluated with explicit scalar
    loops in the scan's IEEE-754 evaluation order, wire sizes are summed
    per tensor straight from the codec (no cached totals), a streamed
    finish time maximises over *every* gated tail node (not just the
    release breakpoints), and each axis's tie rule is restated — ``<=``
    forward within a vector, strict ``<`` across cells, backward search
    then strict-``<`` fallback across exits — so the result, every cell
    row and the per-stage times must match the scan *bitwise*.
    """
    links = engine._links(bandwidths_up, ks, extra_latencies_s, profiles,
                          allowed, fleet=fleet)
    if sla_s is not None:
        check_sla(sla_s)
    codecs = ("fp32",) if streaming is None else streaming.codecs
    modes = ((False,) if streaming is None or streaming.chunk_bytes is None
             else (False, True))
    last = engine.num_exits - 1
    exits = range(last + 1) if sla_s is not None else [last]
    open_exits = engine.has_exits and sla_s is not None
    cells: Dict[Cell, PartitionDecision] = {}
    bests = []
    for e in exits:
        eng = engine.exit_engine(e)
        n = eng.num_nodes
        prefix = eng._prefix
        order = eng.graph.topological_order()
        download = (0.0 if bandwidth_down is None
                    else eng.output_bytes * 8 / bandwidth_down)
        best, best_value = None, math.inf
        for server, bw, k, extra, profile in links:
            suffix = eng._suffix_for(profile)
            for name in codecs:
                codec = eng.codec(name)
                for streamed in modes:
                    vals = np.empty(n + 1, dtype=np.float64)
                    sp, sv = 0, math.inf
                    for p in range(n + 1):
                        tensors = eng.cut_tensors(p)
                        wires = [codec.wire_bytes(nb, op) for _t, nb, op in tensors]
                        raw = float(eng.sizes[p])
                        if not streamed:
                            c = prefix[p] + k * suffix[p]
                            if p < n:
                                c = c + (sum(wires) * 8 / bw + download + extra)
                            c = c + (codec.encode_time_s(raw)
                                     + codec.decode_time_s(raw))
                        else:
                            c = math.inf
                            total = sum(wires)
                            chunks = streaming.num_chunks(total)
                            if p < n and chunks > 1:
                                t_stream = (total * 8 / bw + (chunks - 1)
                                            * streaming.chunk_overhead_s)
                                avail, busy, cum = [], 0.0, 0
                                for (_t, nb, _op), w in zip(tensors, wires):
                                    cum += w
                                    busy = (max(cum / total * t_stream, busy)
                                            + codec.decode_time_s(float(nb)))
                                    avail.append(busy)
                                index = {t: v for v, (t, _nb, _op)
                                         in enumerate(tensors)}
                                finish, release = 0.0, -1
                                for j in range(p, n):
                                    for dep in eng.graph.node(order[j]).inputs:
                                        release = max(release, index.get(dep, -1))
                                    if release >= 0:
                                        finish = max(finish, avail[release]
                                                     + k * suffix[j])
                                c = (prefix[p] + codec.encode_time_s(raw)
                                     + finish + download + extra)
                        vals[p] = c
                        if (p < n or not offload_only) and c <= sv:
                            sp, sv = p, c
                    value = float(vals[sp])
                    exit_index = e if open_exits else None
                    row = PartitionDecision(
                        point=sp, predicted_latency=value, candidates=vals,
                        server=server, exit_index=exit_index,
                        accuracy=engine.exit_accuracy(e), sla_s=sla_s,
                        feasible=sla_s is None or value <= sla_s,
                        codec=name, streamed=streamed)
                    cells[(exit_index, server, name, streamed)] = row
                    if value < best_value:
                        best, best_value = (row, bw, k, suffix), value
        if best is None:
            local = np.full(n + 1, math.inf)
            local[n] = prefix[n]
            best = (PartitionDecision(n, float(prefix[n]), local),
                    1.0, 1.0, eng._suffix)
        bests.append(best)

    latencies = [row.predicted_latency for row, *_ in bests]
    chosen, feasible = 0, True
    if sla_s is not None:
        feasible = False
        for i in range(len(latencies) - 1, -1, -1):
            if latencies[i] <= sla_s:
                chosen, feasible = i, True
                break
        else:
            for i in range(1, len(latencies)):
                if latencies[i] < latencies[chosen]:
                    chosen = i
    e = exits[chosen]
    eng = engine.exit_engine(e)
    n = eng.num_nodes
    row, bw, k, suffix = bests[chosen]
    point, name, streamed = row.point, row.codec, row.streamed
    codec = eng.codec(name)
    wire_b = sum(codec.wire_bytes(nb, op) for _t, nb, op in eng.cut_tensors(point))
    chunks = streaming.num_chunks(wire_b) if streamed else 1
    upload_s = 0.0
    if point < n:
        upload_s = wire_b * 8 / bw
        if streamed:
            upload_s += (chunks - 1) * streaming.chunk_overhead_s
    raw = float(eng.sizes[point])
    return PartitionDecision(
        point=point, predicted_latency=row.predicted_latency,
        candidates=row.candidates,
        server=None if point == n else row.server,
        exit_index=e if open_exits else None,
        accuracy=engine.exit_accuracy(e), sla_s=sla_s,
        feasible=feasible, codec=name, streamed=streamed, chunks=chunks,
        wire_bytes=wire_b, predicted_device_s=float(eng._prefix[point]),
        predicted_encode_s=float(codec.encode_time_s(raw)),
        predicted_upload_s=upload_s,
        predicted_decode_s=float(codec.decode_time_s(raw)),
        predicted_server_s=float(k * suffix[point]), cells=cells)
