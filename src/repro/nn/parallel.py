"""Branch-parallel plan execution: chains, thread pools, compile-once caches.

Branchy backbones (Inception modules, SqueezeNet fire modules, ResNet
residual blocks) contain DAG branches that are mutually independent between
join points.  The plan compiler (:mod:`repro.nn.plan`) slices its compiled
step list into such *chains* using the same dependency analysis that drives
its liveness pass; this module supplies the execution side:

- :class:`ParallelConfig` — the user-facing knob
  (``SystemConfig(parallelism=ParallelConfig(threads=...))``);
- :class:`ParallelPlanRunner` — runs ready chains on a persistent,
  process-shared :class:`~concurrent.futures.ThreadPoolExecutor`;
- :class:`SampleParallelRunner` — the 2-D (sample × chain) extension for
  batched plans: per-sample step slices are independent by construction,
  so their chain DAGs fold into one task graph on the same shared pool;
- :class:`CompileOnceCache` — a thread-safe build-once cache for compiled
  executors (the server's tail-plan cache is raced by parallel chains and
  the batching event loop).

Threads — not processes — are the right tool here because the hot kernels
(im2col copies into preallocated scratch, and above all the per-sample
GEMMs/GEMVs) release the GIL inside BLAS, so independent chains genuinely
overlap on multicore hosts while sharing one address space (the plan's
workspace arena, weights, and padded staging buffers need no pickling or
duplication).

Bit-identity is preserved by construction: chain slicing never changes
*what* a step computes or the order of steps *within* a chain — only the
interleaving of steps across independent chains, and no step reads a
tensor produced by a concurrently runnable chain (that is exactly the
dependency cut the slicer makes).  The arena gives concurrently live
intermediates chain-private regions, so no two simultaneously running
steps ever share scratch storage.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import (
    Callable, Collection, Dict, Hashable, List, Sequence, Set, TypeVar,
)

__all__ = [
    "PARALLEL_THREADS_ENV",
    "CompileOnceCache",
    "GatedRun",
    "ParallelConfig",
    "ParallelPlanRunner",
    "SampleParallelRunner",
    "default_parallelism",
    "shared_pool",
]

#: Environment switch: default thread count for planned executors that were
#: not given an explicit :class:`ParallelConfig` (used by CI to push the
#: whole tier-1 suite through the branch-parallel path).
PARALLEL_THREADS_ENV = "REPRO_PARALLEL_THREADS"


@dataclass(frozen=True)
class ParallelConfig:
    """Opt-in branch-parallel execution of compiled plans.

    ``threads`` is the worker count of the shared chain pool.  ``threads=1``
    keeps execution on the calling thread (chain slicing still happens and
    is observable in :class:`~repro.nn.plan.PlanStats`, but scheduling is
    serial) — useful as the control arm of differential tests.

    ``sample_parallel`` extends the chain scheduler to the batch axis:
    plans compiled for ``batch > 1`` with ``threads > 1`` slice into
    **per-sample** step lists (every kernel in the planned backend reduces
    strictly within one sample, so samples are independent by
    construction) and the scheduler runs (sample, chain) tasks on the same
    shared pool — 2-D scheduling bounded by one worker budget.  With
    ``threads=1`` the fused batched compile is kept (per-sample kernel
    granularity costs overhead that only pays off when samples overlap).
    ``sample_parallel=False`` keeps batched plans on the single
    chain-sliced step list over the whole batch, the control arm of the
    per-sample differential tests.
    """

    threads: int = 2
    sample_parallel: bool = True

    def __post_init__(self) -> None:
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")


def default_parallelism() -> ParallelConfig | None:
    """The :envvar:`REPRO_PARALLEL_THREADS` default, or None when unset."""
    raw = os.environ.get(PARALLEL_THREADS_ENV, "")
    if raw in ("", "0"):
        return None
    try:
        threads = int(raw)
    except ValueError:
        raise ValueError(
            f"{PARALLEL_THREADS_ENV} must be an integer, got {raw!r}"
        ) from None
    return ParallelConfig(threads=threads)


# ---------------------------------------------------------------------------
# persistent thread pools
# ---------------------------------------------------------------------------

_POOLS: Dict[int, ThreadPoolExecutor] = {}
_POOLS_LOCK = threading.Lock()


def shared_pool(threads: int) -> ThreadPoolExecutor:
    """The process-wide chain pool for ``threads`` workers.

    Pools are persistent (created once, reused by every plan compiled with
    the same thread count) so repeated ``run`` calls never pay thread
    startup, and a fleet of executors does not multiply OS threads.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    with _POOLS_LOCK:
        pool = _POOLS.get(threads)
        if pool is None:
            pool = ThreadPoolExecutor(
                max_workers=threads, thread_name_prefix=f"repro-chains-{threads}"
            )
            _POOLS[threads] = pool
        return pool


# ---------------------------------------------------------------------------
# the chain runner
# ---------------------------------------------------------------------------


class ParallelPlanRunner:
    """Executes a plan's chains on the shared pool, respecting chain deps.

    ``chains`` is a list of step sequences (zero-arg callables, already
    bound over their buffers); ``chain_deps[c]`` names the chains that must
    finish before chain ``c`` may start.  One ``run()`` call schedules every
    dependency-free chain immediately and releases successors as their
    predecessors complete; it returns when all chains have finished.

    A runner instance belongs to one plan and must not be entered
    concurrently — the plan's workspace is single-occupancy (callers hold
    the plan's execution lock).  Plans must also not nest parallel plans
    inside chain steps: the pool is shared, and nesting could exhaust it.
    """

    def __init__(self, chains: Sequence[Sequence[Callable[[], None]]],
                 chain_deps: Sequence[Set[int]], threads: int) -> None:
        if len(chain_deps) != len(chains):
            raise ValueError("chain_deps must match chains one-to-one")
        self._chains = [list(steps) for steps in chains]
        self._deps = [frozenset(d) for d in chain_deps]
        for c, deps in enumerate(self._deps):
            bad = [d for d in deps if not 0 <= d < len(chains) or d == c]
            if bad:
                raise ValueError(f"chain {c} has invalid dependencies {bad}")
        self._succs: List[List[int]] = [[] for _ in chains]
        for c, deps in enumerate(self._deps):
            for d in deps:
                self._succs[d].append(c)
        self.threads = threads
        self._pool = shared_pool(threads)

    def run(self) -> None:
        """Run every chain once; raises the first chain failure, if any."""
        self.begin().finish()

    def begin(self, chain_gates: Sequence[Collection[str]] | None = None
              ) -> "GatedRun":
        """Start one gated execution of the chain DAG.

        ``chain_gates[c]`` names the external *gates* task ``c`` must wait
        for (on top of its chain dependencies); the caller releases them
        one by one via :meth:`GatedRun.release` as, e.g., boundary tensors
        arrive over a streaming transport, and collects completion with
        :meth:`GatedRun.finish`.  ``None`` gates nothing — dependency-free
        chains are submitted immediately, which is exactly :meth:`run`.
        """
        return GatedRun(self, chain_gates)


class GatedRun:
    """One in-flight execution of a runner's chain DAG, with release gates.

    Task ``c`` becomes ready when its chain dependencies have finished
    *and* every gate name in its ``chain_gates[c]`` has been
    :meth:`release`-d.  Gates are how a streaming transport starts tail
    chains as their boundary tensors arrive: gating only delays task
    starts — it never changes a step's work or within-chain order, so
    results stay bit-identical to an ungated run.

    Instances are single-use (one ``finish`` per ``begin``) and must only
    be released/finished by the thread(s) owning the plan's workspace.
    """

    def __init__(self, runner: ParallelPlanRunner,
                 chain_gates: Sequence[Collection[str]] | None = None) -> None:
        n = len(runner._chains)
        if chain_gates is None:
            chain_gates = [()] * n
        if len(chain_gates) != n:
            raise ValueError("chain_gates must match chains one-to-one")
        self._runner = runner
        self._lock = threading.Lock()
        self._done = threading.Event()
        self._remaining = [len(d) for d in runner._deps]
        self._waiters: Dict[str, List[int]] = {}
        for c, gates in enumerate(chain_gates):
            for g in set(gates):
                self._remaining[c] += 1
                self._waiters.setdefault(g, []).append(c)
        self._pending_gates: Set[str] = set(self._waiters)
        self._state: Dict[str, object] = {"left": n, "error": None, "futures": []}
        if n == 0:
            self._done.set()
            return
        # Collect the initially ready tasks before submitting any: a task
        # submitted here can finish and release a successor (submitting it
        # itself) before a scan over ``_remaining`` would reach it.
        for c in [c for c in range(n) if self._remaining[c] == 0]:
            self._submit(c)

    def _submit(self, c: int) -> None:
        state = self._state
        with self._lock:
            if state["error"] is not None:
                return
            state["futures"].append(self._runner._pool.submit(self._run_chain, c))

    def _run_chain(self, c: int) -> None:
        state = self._state
        try:
            for fn in self._runner._chains[c]:
                fn()
        except BaseException as exc:  # propagate to finish()
            with self._lock:
                if state["error"] is None:
                    state["error"] = exc
            self._done.set()
            return
        ready = []
        with self._lock:
            state["left"] -= 1
            for s in self._runner._succs[c]:
                self._remaining[s] -= 1
                if self._remaining[s] == 0:
                    ready.append(s)
            if state["left"] == 0:
                self._done.set()
        for s in ready:
            self._submit(s)

    def release(self, name: str) -> None:
        """Release every task gated on ``name`` (unknown names are no-ops)."""
        ready = []
        with self._lock:
            self._pending_gates.discard(name)
            for c in self._waiters.pop(name, ()):
                self._remaining[c] -= 1
                if self._remaining[c] == 0:
                    ready.append(c)
        for c in ready:
            self._submit(c)

    def finish(self) -> None:
        """Wait for every task to finish; re-raises the first chain failure."""
        with self._lock:
            pending = sorted(self._pending_gates)
            error = self._state["error"]
        if pending and error is None:
            # Waiting would deadlock: gated tasks can never become ready.
            raise RuntimeError(f"gated run finished with unreleased gates {pending}")
        self._done.wait()
        state = self._state
        if state["error"] is not None:
            # Let in-flight chains drain before handing the (now possibly
            # inconsistent) workspace back — a later run recompiles nothing
            # but must not race stragglers.
            with self._lock:
                futures = list(state["futures"])
            for fut in futures:
                fut.exception()
            raise state["error"]


class SampleParallelRunner(ParallelPlanRunner):
    """2-D (sample × chain) scheduler for batched plans.

    A batched plan compiled with ``sample_parallel`` holds one chain-sliced
    step list **per sample**; the sample copies are mutually independent by
    construction (every planned kernel reduces strictly within a sample and
    each sample allocates from its own ``(sample, chain)`` arena regions).
    This runner folds the per-sample chain DAGs into one task graph — chain
    ``c`` of sample ``s`` becomes task ``s * chains_per_sample + c``, with
    dependencies only inside its own sample — and schedules it on the same
    shared pool as plain chain parallelism, so one worker budget bounds
    both axes and a branchy batched plan overlaps samples *and* branches.
    """

    def __init__(self, sample_chains: Sequence[Sequence[Sequence[Callable[[], None]]]],
                 sample_deps: Sequence[Sequence[Set[int]]], threads: int) -> None:
        if len(sample_chains) != len(sample_deps):
            raise ValueError("sample_chains must match sample_deps one-to-one")
        if not sample_chains:
            raise ValueError("need at least one sample")
        chains: List[Sequence[Callable[[], None]]] = []
        deps: List[Set[int]] = []
        for per_chain, per_deps in zip(sample_chains, sample_deps):
            offset = len(chains)
            chains.extend(per_chain)
            deps.extend({offset + d for d in ds} for ds in per_deps)
        super().__init__(chains, deps, threads)
        self.samples = len(sample_chains)


# ---------------------------------------------------------------------------
# thread-safe compile-once cache
# ---------------------------------------------------------------------------

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class _Cell:
    __slots__ = ("event", "value", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value = None
        self.error: BaseException | None = None


class CompileOnceCache:
    """Keyed build-once cache safe under concurrent lookups.

    Exactly one caller per key runs the factory; every other caller blocks
    until the build finishes and then shares the same object (torn state is
    impossible: the key is published before the build, the value only
    after).  A failed build propagates its exception to all waiters and
    evicts the key so a later call may retry.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._cells: Dict[Hashable, _Cell] = {}
        self.builds = 0
        self.hits = 0

    def get_or_create(self, key: K, factory: Callable[[], V]) -> V:
        with self._lock:
            cell = self._cells.get(key)
            if cell is None:
                cell = _Cell()
                self._cells[key] = cell
                builder = True
                self.builds += 1
            else:
                builder = False
                self.hits += 1
        if not builder:
            cell.event.wait()
            if cell.error is not None:
                raise cell.error
            return cell.value
        try:
            cell.value = factory()
        except BaseException as exc:
            cell.error = exc
            with self._lock:
                # Evict so the next caller can retry a transient failure.
                if self._cells.get(key) is cell:
                    del self._cells[key]
            cell.event.set()
            raise
        cell.event.set()
        return cell.value

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            cell = self._cells.get(key)
        return cell is not None and cell.event.is_set() and cell.error is None

    def __len__(self) -> int:
        with self._lock:
            return len(self._cells)

    def clear(self) -> None:
        with self._lock:
            self._cells.clear()
