"""Concurrency: many sync sessions against one live TCP pmcd fabric.

Service invariants under concurrent load:

* no lost or cross-wired responses (every fetch answers exactly the
  PMIDs asked on that connection),
* monotone fetch timestamps per client,
* coalescing invokes the PMDA strictly fewer times than the naive
  per-request count,
* clean shutdown with all sockets closed.
"""

import socket
import threading
import time

import pytest

from repro.machine.config import SUMMIT
from repro.machine.node import Node
from repro.noise import QUIET
from repro.pcp import connect
from repro.pcp.aserver import AsyncPMCDServer
from repro.pcp.faults import FaultInjector
from repro.pcp.pmcd import start_pmcd_for_node
from repro.pmu.events import pcp_metric_name

ALL_METRICS = [pcp_metric_name(channel, write)
               for channel in range(8) for write in (False, True)]


@pytest.fixture
def node():
    return Node(SUMMIT, seed=11, noise=QUIET)


@pytest.fixture
def server(node):
    server = AsyncPMCDServer(start_pmcd_for_node(node)).start_in_thread()
    yield server
    server.stop_in_thread()


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.005)
    return predicate()


def run_sync_clients(n_clients, n_fetches, seed, coalesce=True):
    """N threads of sync sessions against a thread-hosted fabric.

    Every client resolves the 16-metric nest set plus one
    client-specific metric, then alternates fetching the shared set
    (coalescible across clients) and its own single PMID (must never
    be answered with another client's response).
    """
    node = Node(SUMMIT, seed=seed, noise=QUIET)
    pmcd = start_pmcd_for_node(node)
    server = AsyncPMCDServer(pmcd, coalesce=coalesce).start_in_thread()
    n_channels = node.config.socket.n_memory_channels
    report = {"errors": [], "cross_wired": 0, "non_monotone": 0}
    lock = threading.Lock()
    barrier = threading.Barrier(n_clients)

    def client(index):
        own_metric = pcp_metric_name(index % n_channels,
                                     write=bool(index % 2))
        try:
            with connect(server, cache_lookups=True, max_retries=3,
                         backoff_base_seconds=0.005) as session:
                shared = session.lookup_names(ALL_METRICS)
                own = session.lookup_names([own_metric])
                barrier.wait()
                last = None
                for i in range(n_fetches):
                    pmids = own if i % 2 else shared
                    values = session.fetch(pmids)
                    stamp = session.last_fetch_timestamp
                    with lock:
                        report["cross_wired"] += set(values) != set(pmids)
                        report["non_monotone"] += (last is not None
                                                   and stamp < last)
                    last = stamp
        except Exception as exc:
            with lock:
                report["errors"].append(f"client {index}: {exc!r}")

    threads = [threading.Thread(target=client, args=(i,), daemon=True)
               for i in range(n_clients)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        hung = sum(thread.is_alive() for thread in threads)
        if hung:
            report["errors"].append(f"{hung} client(s) hung")
        report.update(server.stats.snapshot())
    finally:
        server.stop_in_thread()
    report["pmda_fetch_calls"] = pmcd.stats.pmda_fetch_calls
    # Serving each fetch PDU on its own: half the fetches carry the
    # 16-metric shared set, half one PMID.
    report["naive_pmda_calls"] = n_clients * (
        (n_fetches - n_fetches // 2) * len(ALL_METRICS) + n_fetches // 2)
    return report


class TestStressRun:
    def test_eight_clients_no_cross_wiring(self):
        report = run_sync_clients(n_clients=8, n_fetches=12, seed=3)
        assert report["errors"] == []
        assert report["cross_wired"] == 0
        assert report["non_monotone"] == 0
        assert report["responses"] >= 8 * 12
        assert report["connections"] >= 8

    @pytest.mark.slow
    def test_sixteen_clients_sustained(self):
        report = run_sync_clients(n_clients=16, n_fetches=64, seed=5)
        assert report["errors"] == []
        assert report["cross_wired"] == 0
        assert report["non_monotone"] == 0

    def test_coalescing_disabled_still_correct(self):
        report = run_sync_clients(n_clients=4, n_fetches=8, seed=7,
                                  coalesce=False)
        assert report["errors"] == []
        assert report["cross_wired"] == 0
        assert report["coalesced"] == 0
        # Without coalescing every fetch PDU pays its own PMDA reads.
        assert report["pmda_fetch_calls"] == report["naive_pmda_calls"]


class TestCoalescing:
    def test_concurrent_identical_fetches_share_one_pmda_read(self, node):
        """A slow PMDA read holds the perfevent shard while 8 clients
        fetch the same PMIDs; once it returns the queued batch is
        served with ONE PMDA read per PMID — strictly fewer than the
        naive per-request count."""
        n_clients = 8
        injector = FaultInjector()
        server = AsyncPMCDServer(start_pmcd_for_node(node),
                                 fault_injector=injector).start_in_thread()
        sessions = [connect(server) for _ in range(n_clients + 1)]
        try:
            pmids = sessions[0].lookup_names(ALL_METRICS)
            for session in sessions[1:]:
                assert session.lookup_names(ALL_METRICS) == pmids
            calls_before = server.pmcd.stats.pmda_fetch_calls
            injector.slow_pmda(1, seconds=1.0)
            blocker = threading.Thread(
                target=sessions[n_clients].fetch, args=(pmids[:1],))
            blocker.start()
            assert wait_until(lambda: injector.injected == 1)
            results = [None] * n_clients
            errors = []

            def fetch(i):
                try:
                    results[i] = sessions[i].fetch(pmids)
                except Exception as exc:
                    errors.append(exc)

            threads = [threading.Thread(target=fetch, args=(i,))
                       for i in range(n_clients)]
            for t in threads:
                t.start()
            # All 8 fetches pile up behind the shard the blocker holds.
            assert wait_until(lambda: server.queue_depth() == n_clients)
            for t in threads + [blocker]:
                t.join(timeout=10)
                assert not t.is_alive()
        finally:
            for session in sessions:
                session.close()
            server.stop_in_thread()
        assert not errors
        naive = n_clients * len(pmids)
        actual = server.pmcd.stats.pmda_fetch_calls - calls_before
        assert actual == 1 + len(pmids)   # one read per PMID, shared
        assert actual - 1 < naive         # strictly fewer than naive
        assert server.stats.coalesced == n_clients - 1
        # Every client still got its own complete answer.
        for values in results:
            assert set(values) == set(pmids)

    def test_distinct_pmid_sets_not_coalesced(self, server):
        with connect(server) as session:
            pmids = session.lookup_names(ALL_METRICS)
            session.fetch(pmids[:4])
            session.fetch(pmids[4:8])
        assert server.stats.coalesced == 0


class TestTimestampsAndShutdown:
    def test_monotone_timestamps_single_client(self, server, node):
        with connect(server) as session:
            pmids = session.lookup_names(ALL_METRICS[:2])
            stamps = []
            for _ in range(5):
                session.fetch(pmids)
                stamps.append(session.last_fetch_timestamp)
                node.advance(0.5)
        assert stamps == sorted(stamps)

    def test_clean_shutdown_closes_sockets(self, node):
        server = AsyncPMCDServer(start_pmcd_for_node(node)).start_in_thread()
        sessions = [connect(server) for _ in range(4)]
        for session in sessions:
            session.lookup_names(ALL_METRICS[:1])
        address = server.address
        loop_thread = server._thread
        server.stop_in_thread()
        assert server.open_connections == 0
        assert not loop_thread.is_alive()
        with pytest.raises(OSError):
            socket.create_connection(address, timeout=0.5)
        for session in sessions:
            session.close()

    def test_queue_depth_counter_surfaces(self, server):
        with connect(server) as session:
            # Lookups are served inline; a fetch goes through a shard
            # queue, so it is what moves the depth counter.
            session.fetch(session.lookup_names(ALL_METRICS[:1]))
        snapshot = server.stats.snapshot()
        assert snapshot["max_queue_depth"] >= 1
        assert snapshot["requests"] >= 1
        assert snapshot["latency_max_usec"] >= 0
