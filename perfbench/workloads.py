"""The four benchmark workloads, their golden outputs and per-layer
extraction.

Each workload has ``setup(seed)`` (everything before the first timed
operation), ``teardown(state)``, ``measure(state, seconds, tracer)``
returning a :class:`Phase`, ``patch(tracer)`` installing the span
wrappers of its layers, and ``layers(state, tracer, phase)`` returning
the per-layer metrics of a traced phase.

The GEMM and STREAM traces do not depend on the seed; the seed drives
the sampling RNG, the simulated PCP node and the fetch schedule (the
pmid order every fetch requests).
"""

from __future__ import annotations

import asyncio
import dataclasses
import random
import statistics
import time
import traceback
from typing import Callable, Dict, List, Optional

from repro.engine import pipeline as pipeline_mod
from repro.engine.pipeline import PipelinedExactEngine
from repro.engine.stream import resolve_policies
from repro.kernels import Gemm, StreamKernel
from repro.machine import cache as cache_mod
from repro.machine.cache import CacheSim
from repro.machine.config import CacheConfig, get_machine
from repro.machine.node import Node
from repro.machine.store import StorePolicy
from repro.noise import QUIET
from repro.papi import sampling as sampling_mod
from repro.papi.sampling import SamplingConfig, SamplingObserver
from repro.pcp import protocol
from repro.pcp import session as session_mod
from repro.pcp.aserver import AsyncPMCDServer
from repro.pcp.pmcd import start_pmcd_for_node
from repro.pcp.pmda import PerfeventPMDA, PmcdPMDA
from repro.pcp.session import connect
from repro.pmu.events import pcp_metric_name
from repro.units import KIB, MIB

from .pcploop import closed_loop
from .spans import Tracer, overlap_length, tail_percentile, union_length

#: Sampling period of the stream workload and the estimate bound the
#: sampling subsystem already promises (DESIGN.md §6.4).
SAMPLE_PERIOD = 64
ESTIMATE_BOUND = 0.05
#: Kernel run once during set-up so the worker pool is spawned and
#: lazy initialisation is done before timing.
WARMUP_GEMM_N = 16
PCP_CLIENTS = 2
#: Width of the fetch loop's reporting windows, seconds.
WINDOW_S = 1.0


@dataclasses.dataclass
class Phase:
    """What one measured phase produced."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = dataclasses.field(default_factory=list)
    #: Seconds per operation (a GEMM pass, an observed STREAM segment,
    #: or a fetch), grouped by time window: one group for a run of
    #: passes, one per window of the fetch loop.
    op_windows: List[List[float]] = dataclasses.field(default_factory=list)
    #: Work units per second: one value per operation or per window.
    work_rates: List[float] = dataclasses.field(default_factory=list)
    facts: Dict[str, object] = dataclasses.field(default_factory=dict)
    #: Workload-specific objects the layer extraction needs.
    last: Dict[str, object] = dataclasses.field(default_factory=dict)

    @property
    def work_per_s(self) -> float:
        return statistics.median(self.work_rates)

    def end_to_end(self) -> Dict[str, float]:
        """Medians over windows of each window's rate, median latency
        and tail latency (see :func:`tail_percentile`). All 0 when no
        operation completed (the run has failed then)."""
        if not self.work_rates or not all(self.op_windows):
            return dict.fromkeys(("work_per_s", "op_p50_us", "op_p99_us"),
                                 0.0)
        return {
            "work_per_s": self.work_per_s,
            "op_p50_us": 1e6 * statistics.median(
                statistics.median(ops) for ops in self.op_windows),
            "op_p99_us": 1e6 * statistics.median(
                tail_percentile(ops)[1] for ops in self.op_windows),
        }


def _rows(result, self_, addr, *rest) -> int:
    return len(addr)


def _expanded_rows(result, *args) -> int:
    return len(result[0])


def patch_cache_layers(tracer: Tracer) -> None:
    """Time the cache layer's public entry points. Call after set-up:
    a pool forked earlier keeps the unpatched code, so worker-side
    time comes from ``last_pipeline_stats`` instead."""
    tracer.patch(CacheSim, "access_batch", "cache.access_batch", _rows)
    tracer.patch(CacheSim, "access_batch_probed",
                 "cache.access_batch_probed", _rows)
    tracer.patch(CacheSim, "flush", "cache.flush")
    for module in (cache_mod, pipeline_mod, sampling_mod):
        tracer.patch(module, "expand_to_sectors", "cache.expand",
                     _expanded_rows)


def patch_pcp_layers(tracer: Tracer) -> None:
    tracer.patch(protocol, "encode_response", "pcp.codec.encode")
    tracer.patch(protocol, "decode_request", "pcp.codec.decode")
    tracer.patch(session_mod, "encode_request", "pcp.codec.encode")
    tracer.patch(session_mod, "decode_response", "pcp.codec.decode")
    tracer.patch(AsyncPMCDServer, "_dispatch", "pcp.pmcd.handle")
    for agent in (PerfeventPMDA, PmcdPMDA):
        tracer.patch(agent, "fetch", "pcp.pmda.fetch")


def _timed_passes(one_pass: Callable[[], tuple], seconds: float,
                  phase: Phase, max_passes: Optional[int] = None) -> None:
    """Run passes until the next one would overrun ``seconds`` (at
    least one). ``one_pass`` returns ``(ops, errors)`` with ``ops`` a
    list of ``(seconds, work)``; an exception is a failed pass and ends
    the phase."""
    ops: List[tuple] = []
    started = time.perf_counter()
    while True:
        phase.attempted += 1
        pass_started = time.perf_counter()
        try:
            pass_ops, errors = one_pass()
        except Exception:
            phase.failed += 1
            phase.errors.append(traceback.format_exc())
            break
        wall = time.perf_counter() - pass_started
        if errors:
            phase.failed += 1
            phase.errors.extend(errors)
        ops.extend(pass_ops)
        if max_passes is not None and phase.attempted >= max_passes:
            break
        if time.perf_counter() - started + wall > seconds:
            break
    phase.op_windows = [[op_s for op_s, _ in ops]] if ops else []
    phase.work_rates = [work / op_s for op_s, work in ops]


def _mismatches(expected: Dict[str, int], got: Dict[str, int]) -> List[str]:
    return [f"{key}: expected {value:,}, got {got.get(key)!r}"
            for key, value in expected.items() if got.get(key) != value]


# ------------------------------------------------------------ engine
@dataclasses.dataclass(frozen=True)
class EngineWorkload:
    """``Gemm(n)`` through the default ``PipelinedExactEngine``."""

    name: str
    n: int
    cache_bytes: int
    golden: Dict[str, int]
    #: Also require traffic to equal the kernel's ``expected_traffic()``.
    analytic: bool = False

    def setup(self, seed: int) -> PipelinedExactEngine:
        engine = PipelinedExactEngine(
            CacheConfig(capacity_bytes=self.cache_bytes))
        try:
            engine.run_kernel(Gemm(WARMUP_GEMM_N))
        except BaseException:
            engine.close()
            raise
        return engine

    def patch(self, tracer: Tracer) -> None:
        patch_cache_layers(tracer)

    def teardown(self, engine: PipelinedExactEngine) -> None:
        leaked = engine.close()
        if leaked:
            raise RuntimeError(f"engine workers {leaked} had to be killed")

    def check(self, traffic, stats: Dict[str, int], rows: int,
              kernel) -> List[str]:
        got = {"accesses": rows, "hits": stats["hits"],
               "misses": stats["misses"], "read_bytes": traffic.read_bytes,
               "write_bytes": traffic.write_bytes}
        errors = _mismatches(self.golden, got)
        if self.analytic and traffic != kernel.expected_traffic():
            errors.append(f"traffic {traffic} != expected_traffic() "
                          f"{kernel.expected_traffic()}")
        return [f"{self.name}: {e}" for e in errors]

    def _pass(self, engine: PipelinedExactEngine,
              tracer: Optional[Tracer]):
        kernel = Gemm(self.n)
        started = time.perf_counter()
        segments = kernel.segments(engine.segment_rows)
        if tracer is None:
            traffic = engine.run_nest(kernel.streams(), segments)
        else:
            segments = tracer.iter_spans("kernels.segments", segments, len)
            with tracer.span("engine.run"):
                traffic = engine.run_nest(kernel.streams(), segments)
        wall = time.perf_counter() - started
        rows = engine.last_pipeline_stats["rows"]
        return [(wall, rows)], self.check(traffic, engine.last_stats, rows,
                                          kernel)

    def measure(self, engine, seconds: float,
                tracer: Optional[Tracer] = None) -> Phase:
        phase = Phase()
        _timed_passes(lambda: self._pass(engine, tracer), seconds, phase,
                      max_passes=1 if tracer is not None else None)
        stats = engine.last_pipeline_stats or {}
        phase.facts = {"engine_mode": stats.get("mode"),
                       "n_workers": stats.get("n_workers")}
        return phase

    def layers(self, engine, tracer: Tracer, phase: Phase
               ) -> Dict[str, float]:
        stats = engine.last_pipeline_stats
        worker_busy = sum(stats["worker_busy_s"])
        out = _kernel_and_expand_layers(tracer)
        out.update({
            "engine.run.busy_s": tracer.busy_s("engine.run"),
            "engine.self_s": tracer.self_s("engine.run"),
            "engine.producer_s": stats["producer_s"],
            "engine.producer_stall_s": stats["producer_stall_s"],
            "engine.worker_busy_s": worker_busy,
            "engine.utilization": stats["utilization"],
            "engine.mean_queue_depth": stats["mean_queue_depth"],
            "engine.segments": stats["segments"],
        })
        busy = tracer.busy_s("cache.access_batch")
        calls = tracer.calls("cache.access_batch")
        rows = tracer.counts["cache.access_batch.rows"]
        if stats["mode"] == "pool":
            # Worker-side simulation is invisible to parent spans.
            busy += worker_busy
            calls += stats["segments"] * stats["n_workers"]
            rows += stats["expanded_rows"]
        hits, misses = engine.last_stats["hits"], engine.last_stats["misses"]
        out.update(_cache_layers(busy, calls, rows, hits, misses))
        return out


def _kernel_and_expand_layers(tracer: Tracer) -> Dict[str, float]:
    return {
        "kernels.segments.busy_s": tracer.busy_s("kernels.segments"),
        "kernels.segments.count": tracer.calls("kernels.segments"),
        "kernels.rows": tracer.counts["kernels.segments.rows"],
        "cache.expand.busy_s": tracer.busy_s("cache.expand"),
        "cache.expand.rows": tracer.counts["cache.expand.rows"],
        "cache.flush.busy_s": tracer.busy_s("cache.flush"),
    }


def _cache_layers(busy: float, calls: int, rows: int, hits: int,
                  misses: int) -> Dict[str, float]:
    return {
        "cache.access_batch.busy_s": busy,
        "cache.access_batch.calls": calls,
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.ns_per_access": busy / rows * 1e9 if rows else 0.0,
    }


GEMM_THRASH = EngineWorkload(
    name="gemm-thrash", n=128, cache_bytes=128 * KIB,
    golden={"accesses": 4_210_688, "hits": 3_903_556, "misses": 307_132,
            "read_bytes": 19_656_448, "write_bytes": 131_072})

GEMM_CALM = EngineWorkload(
    name="gemm-calm", n=320, cache_bytes=4 * MIB, analytic=True,
    golden={"accesses": 65_638_400, "hits": 65_600_000, "misses": 38_400,
            "read_bytes": 2_457_600, "write_bytes": 819_200})


# ---------------------------------------------------------- sampling
@dataclasses.dataclass(frozen=True)
class SamplingWorkload:
    """``SamplingObserver`` on STREAM triad: stores bypass the cache
    through the write-combining buffer."""

    name: str = "stream-sampled"
    n: int = 1_000_000
    cache_bytes: int = 512 * KIB
    golden = {"accesses": 3_000_000, "read_bytes": 16_000_000,
              "write_bytes": 8_000_000}

    def setup(self, seed: int) -> Dict[str, object]:
        warm = StreamKernel("triad", 1000)
        SamplingObserver(CacheConfig(capacity_bytes=self.cache_bytes),
                         warm.streams(),
                         SamplingConfig(period=SAMPLE_PERIOD, seed=seed)
                         ).observe_kernel(warm)
        return {"seed": seed}

    def teardown(self, state) -> None:
        pass

    def patch(self, tracer: Tracer) -> None:
        patch_cache_layers(tracer)

    def check(self, observer: SamplingObserver, kernel) -> List[str]:
        exact = observer.exact_traffic()
        got = {"accesses": observer.accesses_observed,
               "read_bytes": exact.read_bytes,
               "write_bytes": exact.write_bytes}
        errors = _mismatches(self.golden, got)
        if exact != kernel.expected_traffic():
            errors.append(f"exact traffic {exact} != expected_traffic() "
                          f"{kernel.expected_traffic()}")
        total = observer.relative_errors()["total"]
        if not total <= ESTIMATE_BOUND:
            errors.append(f"estimate error {total:.4%} exceeds "
                          f"{ESTIMATE_BOUND:.0%}")
        return [f"{self.name}: {e}" for e in errors]

    def _pass(self, state, phase: Phase, tracer: Optional[Tracer]):
        """One observed kernel. Each segment is one operation (emit it,
        then observe it): three per pass, so a run has enough
        operations for a median."""
        kernel = StreamKernel("triad", self.n)
        observer = SamplingObserver(
            CacheConfig(capacity_bytes=self.cache_bytes), kernel.streams(),
            SamplingConfig(period=SAMPLE_PERIOD, seed=state["seed"]))
        segments = kernel.segments()
        if tracer is not None:
            bypass = {name for name, policy in resolve_policies(
                kernel.streams()).items() if policy is StorePolicy.BYPASS}
            segments = tracer.iter_spans("kernels.segments", segments, len)
        ops = []
        started = time.perf_counter()
        for segment in segments:
            if tracer is None:
                observer.observe(segment)
            else:
                with tracer.span("sampling.observe"):
                    observer.observe(segment)
                tracer.count("cache.bypass_rows", sum(
                    int(segment.is_write[segment.stream_id == i].sum())
                    for i, name in enumerate(segment.streams)
                    if name in bypass))
            now = time.perf_counter()
            ops.append((now - started, len(segment)))
            started = now
        observer.finish()
        if tracer is None:
            errors = observer.relative_errors()
        else:
            with tracer.span("sampling.estimate"):
                observer.estimated_traffic()
                errors = observer.relative_errors()
        phase.last["observer"] = observer
        phase.facts["est_rel_error"] = errors["total"]
        return ops, self.check(observer, kernel)

    def measure(self, state, seconds: float,
                tracer: Optional[Tracer] = None) -> Phase:
        phase = Phase()
        _timed_passes(lambda: self._pass(state, phase, tracer), seconds,
                      phase, max_passes=1 if tracer is not None else None)
        return phase

    def layers(self, state, tracer: Tracer, phase: Phase
               ) -> Dict[str, float]:
        observer = phase.last["observer"]
        overhead = observer.overhead()
        kept, dropped = overhead["records_kept"], overhead["records_dropped"]
        out = _kernel_and_expand_layers(tracer)
        busy = (tracer.busy_s("cache.access_batch")
                + tracer.busy_s("cache.access_batch_probed"))
        rows = (tracer.counts["cache.access_batch.rows"]
                + tracer.counts["cache.access_batch_probed.rows"])
        out.update(_cache_layers(busy, tracer.calls("cache.access_batch"),
                                 rows, observer.sim.stats_hits,
                                 observer.sim.stats_misses))
        out.update({
            "cache.access_batch.busy_s": tracer.busy_s("cache.access_batch"),
            "cache.access_batch_probed.busy_s":
                tracer.busy_s("cache.access_batch_probed"),
            "cache.access_batch_probed.calls":
                tracer.calls("cache.access_batch_probed"),
            "cache.bypass_rows": tracer.counts["cache.bypass_rows"],
            "sampling.observe.busy_s": tracer.busy_s("sampling.observe"),
            "sampling.observe.calls": tracer.calls("sampling.observe"),
            "sampling.self_s": tracer.self_s("sampling.observe"),
            "sampling.estimate.busy_s": tracer.busy_s("sampling.estimate"),
            "sampling.samples": overhead["samples"],
            "sampling.replay_slices": overhead["replay_slices"],
            "sampling.records_kept": kept,
            "sampling.records_dropped": dropped,
            "sampling.records_kept_ratio":
                kept / (kept + dropped) if kept + dropped else 0.0,
            "sampling.est_rel_error": phase.facts["est_rel_error"],
        })
        return out


STREAM_SAMPLED = SamplingWorkload()


# --------------------------------------------------------------- pcp
@dataclasses.dataclass
class PcpState:
    loop: asyncio.AbstractEventLoop
    pmcd: object
    server: AsyncPMCDServer
    sessions: list
    pmids: List[int]


@dataclasses.dataclass(frozen=True)
class PcpFetchWorkload:
    """Closed loop over TCP: ``PCP_CLIENTS`` async contexts, one fetch
    of the four nest-counter metrics in flight each. Server and
    clients share one event loop in one process."""

    name: str = "pcp-fetch"
    n_metrics: int = 4

    def metric_names(self, node: Node, seed: int) -> List[str]:
        channels = node.config.socket.n_memory_channels
        names = [pcp_metric_name(channel, write)
                 for channel in range(channels)
                 for write in (False, True)][:self.n_metrics]
        random.Random(seed).shuffle(names)
        return names

    async def _open(self, seed: int):
        node = Node(get_machine("summit"), seed=seed, noise=QUIET)
        pmcd = start_pmcd_for_node(node, round_trip_seconds=0.0)
        server = await AsyncPMCDServer(pmcd).start()
        sessions = [connect(server.address, mode="async", request_timeout=10.0)
                    for _ in range(PCP_CLIENTS)]
        try:
            pmids = None
            for session in sessions:
                await session.open()
                pmids = await session.lookup_names(
                    self.metric_names(node, seed))
        except BaseException:
            await self._close(sessions, server)
            raise
        return pmcd, server, sessions, pmids

    @staticmethod
    async def _close(sessions, server) -> None:
        await asyncio.gather(*(s.close() for s in sessions),
                             return_exceptions=True)
        await server.stop()

    def setup(self, seed: int) -> PcpState:
        loop = asyncio.new_event_loop()
        try:
            return PcpState(loop, *loop.run_until_complete(self._open(seed)))
        except BaseException:
            loop.close()
            raise

    def patch(self, tracer: Tracer) -> None:
        patch_pcp_layers(tracer)

    def teardown(self, state: PcpState) -> None:
        try:
            state.loop.run_until_complete(
                self._close(state.sessions, state.server))
        finally:
            state.loop.close()

    def measure(self, state: PcpState, seconds: float,
                tracer: Optional[Tracer] = None) -> Phase:
        before = state.server.stats.snapshot()
        fetches_before = state.pmcd.stats.fetches
        result = state.loop.run_until_complete(
            closed_loop(state.sessions, state.pmids, seconds))
        after = state.server.stats.snapshot()
        phase = Phase(attempted=result.attempted, failed=result.failed,
                      errors=[f"{self.name}: {e}" for e in result.errors])
        # Whole windows of about WINDOW_S each; medians over windows
        # keep a short stall on the shared host from moving the result.
        n_windows = max(1, int(result.elapsed_s // WINDOW_S))
        width = result.elapsed_s / n_windows
        windows: List[List[float]] = [[] for _ in range(n_windows)]
        for done, latency in zip(result.done_at, result.round_trip):
            windows[min(n_windows - 1, int(done // width))].append(latency)
        phase.work_rates = [len(ops) / width for ops in windows]
        phase.op_windows = [ops or [width] for ops in windows]
        if result.unrecovered:
            phase.errors.append(
                f"{self.name}: {result.unrecovered} unrecovered clients")
        phase.last = {
            "fetches": state.pmcd.stats.fetches - fetches_before,
            **{key: after[key] - before[key]
               for key in ("batches", "coalesced")},
            "max_queue_depth": after["max_queue_depth"],
        }
        return phase

    def layers(self, state: PcpState, tracer: Tracer, phase: Phase
               ) -> Dict[str, float]:
        handle = [(s.start, s.end) for s in tracer.named("pcp.pmcd.handle")]
        lower = [(s.start, s.end) for s in tracer.spans
                 if s.name in ("pcp.pmda.fetch", "pcp.codec.encode",
                               "pcp.codec.decode")]
        fetches = phase.last["fetches"]
        return {
            "pcp.codec.encode.busy_s": tracer.busy_s("pcp.codec.encode"),
            "pcp.codec.decode.busy_s": tracer.busy_s("pcp.codec.decode"),
            "pcp.codec.pdus": tracer.calls("pcp.codec.encode"),
            "pcp.pmcd.handle.busy_s": tracer.busy_s("pcp.pmcd.handle"),
            "pcp.pmcd.handle.calls": tracer.calls("pcp.pmcd.handle"),
            "pcp.pmda.fetch.busy_s": tracer.busy_s("pcp.pmda.fetch"),
            "pcp.pmda.fetch.calls": tracer.calls("pcp.pmda.fetch"),
            "pcp.fabric.batches": phase.last["batches"],
            "pcp.fabric.coalesced": phase.last["coalesced"],
            "pcp.fabric.coalesce_ratio":
                phase.last["coalesced"] / fetches if fetches else 0.0,
            "pcp.fabric.max_queue_depth": phase.last["max_queue_depth"],
            "pcp.fabric.self_s":
                union_length(handle) - overlap_length(handle, lower),
        }


PCP_FETCH = PcpFetchWorkload()

WORKLOADS = {w.name: w for w in (GEMM_THRASH, GEMM_CALM, STREAM_SAMPLED,
                                 PCP_FETCH)}
