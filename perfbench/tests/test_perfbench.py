"""Tests for the benchmark's own code.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import asyncio
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

from perfbench.pcploop import closed_loop
from perfbench.spans import (Span, Tracer, overlap_length, self_times,
                             tail_percentile, union_length)
from perfbench.workloads import GEMM_CALM, GEMM_THRASH, STREAM_SAMPLED
from repro.kernels import Gemm, StreamKernel
from repro.machine.cache import TrafficCounters
from repro.machine.config import get_machine
from repro.machine.node import Node
from repro.noise import QUIET
from repro.pcp.aserver import AsyncPMCDServer
from repro.pcp.faults import FaultInjector
from repro.pcp.pmcd import start_pmcd_for_node
from repro.pcp.session import connect
from repro.pmu.events import pcp_metric_name

ROOT = Path(__file__).resolve().parents[2]


# ------------------------------------------------------------ spans
def test_interval_arithmetic():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert overlap_length([(0, 4)], [(1, 2), (3, 6), (1.5, 2.5)]) == 2.5
    assert overlap_length([(0, 1)], []) == 0


def test_self_time_of_nested_spans():
    spans = [
        Span("root", 0.0, 10.0, None, 1, "r"),
        Span("a", 1.0, 4.0, 1, 2, "r"),
        Span("b", 3.0, 6.0, 1, 3, "r"),      # overlaps its sibling a
        Span("a.inner", 2.0, 3.0, 2, 4, "r"),
        Span("outside", 20.0, 21.0, None, 5, "r"),
    ]
    own = self_times(spans)
    assert own == {1: 5.0, 2: 2.0, 3: 3.0, 4: 1.0, 5: 1.0}


def test_tracer_records_parents_and_self_time():
    tracer = Tracer("t")
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        items = list(tracer.iter_spans("gen", [[1, 2], [3]], len))
    assert items == [[1, 2], [3]]
    outer = tracer.named("outer")[0]
    assert {s.parent for s in tracer.spans if s.name != "outer"} == {
        outer.span_id}
    assert tracer.calls("gen") == 2
    assert tracer.counts["gen.rows"] == 3
    assert 0 <= tracer.self_s("outer") <= outer.duration
    assert tracer.self_s("outer") == pytest.approx(
        outer.duration - tracer.busy_s("inner") - tracer.busy_s("gen"))


def test_patch_records_spans_and_restore_undoes_it():
    owner = types.SimpleNamespace()

    def double(x):
        return 2 * x

    owner.double = double
    tracer = Tracer("t")
    tracer.patch(owner, "double", "twice", rows=lambda result, x: x)
    assert owner.double(3) == 6
    assert tracer.calls("twice") == 1 and tracer.counts["twice.rows"] == 3
    tracer.restore()
    assert owner.double is double


def test_async_patch_is_a_span_around_the_await():
    class Owner:
        async def work(self):
            await asyncio.sleep(0.01)
            return 1

    tracer = Tracer("t")
    tracer.patch(Owner, "work", "w")
    try:
        assert asyncio.run(Owner().work()) == 1
    finally:
        tracer.restore()
    assert tracer.calls("w") == 1 and tracer.busy_s("w") >= 0.005


# ------------------------------------------------------- percentiles
def test_tail_percentile_needs_ten_samples_beyond():
    values = list(range(1, 1001))
    assert tail_percentile(values) == (99.0, 990)
    # One sample fewer leaves only nine beyond p99: fall back to p90.
    assert tail_percentile(values[:999]) == (90.0, 900)
    assert tail_percentile(list(range(1, 21))) == (50.0, 10)
    # Too small for any tail: the median, marked as unsupported.
    assert tail_percentile([5, 1, 3]) == (None, 3)


# ------------------------------------------------------ golden checks
def _thrash_got(**change):
    golden = dict(GEMM_THRASH.golden)
    golden.update(change)
    traffic = TrafficCounters(read_bytes=golden["read_bytes"],
                              write_bytes=golden["write_bytes"])
    return traffic, {"hits": golden["hits"], "misses": golden["misses"]}, \
        golden["accesses"]


def test_engine_golden_check_passes_exact_values():
    traffic, stats, rows = _thrash_got()
    assert GEMM_THRASH.check(traffic, stats, rows, Gemm(128)) == []


@pytest.mark.parametrize("field", ["read_bytes", "write_bytes"])
def test_one_byte_traffic_change_fails_engine_golden_check(field):
    traffic, stats, rows = _thrash_got(
        **{field: GEMM_THRASH.golden[field] + 1})
    errors = GEMM_THRASH.check(traffic, stats, rows, Gemm(128))
    assert len(errors) == 1 and field in errors[0]


def test_one_byte_change_fails_analytic_check_too():
    golden = GEMM_CALM.golden
    traffic = TrafficCounters(read_bytes=golden["read_bytes"],
                              write_bytes=golden["write_bytes"] - 1)
    stats = {"hits": golden["hits"], "misses": golden["misses"]}
    errors = GEMM_CALM.check(traffic, stats, golden["accesses"], Gemm(320))
    assert len(errors) == 2
    assert any("expected_traffic" in e for e in errors)


def _fake_observer(read_bytes, total_error=0.01):
    exact = TrafficCounters(read_bytes=read_bytes, write_bytes=8_000_000)
    return types.SimpleNamespace(
        accesses_observed=3_000_000, exact_traffic=lambda: exact,
        relative_errors=lambda: {"total": total_error})


def test_sampling_golden_check():
    kernel = StreamKernel("triad", 1_000_000)
    assert STREAM_SAMPLED.check(_fake_observer(16_000_000), kernel) == []
    assert len(STREAM_SAMPLED.check(_fake_observer(16_000_001),
                                    kernel)) == 2
    errors = STREAM_SAMPLED.check(_fake_observer(16_000_000, 0.051), kernel)
    assert len(errors) == 1 and "exceeds" in errors[0]


# -------------------------------------------------------- closed loop
async def _loop_against_server(duration_s, drops=0, refuse=False):
    node = Node(get_machine("summit"), seed=3, noise=QUIET)
    pmcd = start_pmcd_for_node(node, round_trip_seconds=0.0)
    injector = FaultInjector()
    server = await AsyncPMCDServer(pmcd, fault_injector=injector).start()
    sessions = [connect(server.address, mode="async", request_timeout=5.0)
                for _ in range(2)]
    try:
        for session in sessions:
            await session.open()
        pmids = await sessions[0].lookup_names(
            [pcp_metric_name(0, False), pcp_metric_name(0, True)])
        injector.drop_connections(drops)
        if refuse:
            pmcd.running = False
        return await closed_loop(sessions, pmids, duration_s)
    finally:
        for session in sessions:
            await session.close()
        await server.stop()


def test_closed_loop_counts_refused_fetches_as_failed():
    result = asyncio.run(_loop_against_server(0.2, refuse=True))
    assert result.attempted > 0
    assert result.failed == result.attempted
    assert len(result.round_trip) == 0 and result.unrecovered == 0


def test_closed_loop_counts_errored_fetches_as_failed():
    result = asyncio.run(_loop_against_server(0.3, drops=3))
    assert result.failed == 3
    assert result.ok == len(result.round_trip) == result.attempted - 3
    assert result.ok > 0 and result.unrecovered == 0


def test_closed_loop_counts_cross_wired_replies_as_failed():
    class Swapped:
        last_fetch_timestamp = 0.0

        async def fetch(self, pmids):
            return {pmid: {"cpu0": 1} for pmid in reversed(pmids)}

    result = asyncio.run(closed_loop([Swapped()], [1, 2], 0.05))
    assert result.attempted > 0
    assert result.failed == result.cross_wired == result.attempted


# ---------------------------------------------------------- command
def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable] + spec["command"][1:] + ["--workload", "gemm-calm", "--seed", "1", "--seconds", "1",
           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
