"""Cache-tier failure paths: a broken tier must never break a query.

Three contracts, each against real sockets:

- server down at session construction → silent degrade to local caches,
  counted in ``cachenet_fallbacks``;
- server dies mid-run → retry, then fall back, and the run's canonical
  results stay byte-identical to a local-only run;
- protocol-version mismatch → loud :class:`CacheProtocolError` at
  construction (a deployment error is not a transient).
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.cachenet import (CacheClient, CacheProtocolError,
                            CacheTierServer, CacheUnavailable)
from repro.core.answer_cache import AnswerCache
from repro.llm.brain import SimulatedBrain
from repro.session import Session
from repro.testing.workloads import workload

#: A TCP port with nothing listening (discard-protocol port; closed on
#: any sane test host, and connection-refused is instant on loopback).
DEAD_URL = "tcp://127.0.0.1:9"


def canonical(report) -> str:
    return json.dumps(report.canonical_results(), sort_keys=True)


def impatient(session: Session) -> Session:
    """Tighten the session's tier client so failures cost milliseconds."""
    client = session._cache_client
    client.retries = 0
    client.connect_timeout = 0.2
    client.request_timeout = 0.5
    client.down_cooldown = 30.0  # stay down for the rest of the test
    return session


def test_server_down_at_construction_degrades_and_counts(artwork_lake):
    session = impatient(Session(artwork_lake, cache_url=DEAD_URL))
    # The session still put its caches in front of the tier (it may come
    # up later) and the failed probe was counted, not raised.
    assert session.plan_cache.tier is session._cache_client
    assert session.answer_cache.tier is session._cache_client
    assert session.metrics()["counters"]["cachenet_fallbacks"] >= 1
    assert session.cachenet_stats() is None
    result = session.query("How many paintings are there?")
    assert result.ok
    fallbacks = session.metrics()["counters"]["cachenet_fallbacks"]
    assert fallbacks >= 2  # the probe plus at least one degraded lookup
    session.close()


def test_server_death_mid_run_keeps_results_byte_identical(artwork_lake):
    queries = workload("artwork")[:4]
    with Session(artwork_lake) as local_session:
        baseline = canonical(local_session.batch(queries))

    server = CacheTierServer(bind="tcp://127.0.0.1:0").start()
    try:
        # A fleet member warms the tier so the victim really uses it.
        with Session(artwork_lake, cache_url=server.url) as producer:
            producer.batch(queries)

        # A touch of planner latency keeps the batch in flight long
        # enough that the timer genuinely fires mid-run.
        victim = impatient(Session(
            artwork_lake, cache_url=server.url,
            brain=SimulatedBrain(latency_seconds=0.02)))
        killer = threading.Timer(0.05, server.stop)
        killer.start()
        try:
            report = victim.batch(queries)
        finally:
            killer.cancel()
        assert canonical(report) == baseline
        assert report.num_errors == 0
        victim.close()
    finally:
        server.stop()


def test_client_fails_fast_during_cooldown():
    server = CacheTierServer(bind="tcp://127.0.0.1:0").start()
    client = CacheClient(server.url, retries=0, connect_timeout=0.2,
                         request_timeout=0.5, down_cooldown=30.0)
    client.ensure_connected()
    server.stop()
    with pytest.raises(CacheUnavailable):
        client.request({"op": "stats"})
    # Inside the cooldown window nothing touches the network at all.
    started = time.perf_counter()
    with pytest.raises(CacheUnavailable, match="cooling off"):
        client.request({"op": "stats"})
    assert time.perf_counter() - started < 0.05
    client.close()


def test_peers_fail_fast_while_one_thread_probes():
    """While one thread runs the reconnection probe (connect attempts
    plus backoff sleeps), the other threads sharing the client must fail
    fast instead of serializing behind the probe's lock."""
    client = CacheClient(DEAD_URL, retries=2, backoff=0.3,
                         connect_timeout=0.2, down_cooldown=30.0)

    def probe() -> None:
        try:
            client.request({"op": "stats"})
        except CacheUnavailable:
            pass

    prober = threading.Thread(target=probe)
    prober.start()
    time.sleep(0.15)  # the probe marked the client down and is backing off
    started = time.perf_counter()
    with pytest.raises(CacheUnavailable, match="cooling off"):
        client.request({"op": "stats"})
    assert time.perf_counter() - started < 0.1
    prober.join()
    client.close()


def test_remote_caches_degrade_to_local_when_tier_dies():
    server = CacheTierServer(bind="tcp://127.0.0.1:0").start()
    client = CacheClient(server.url, retries=0, connect_timeout=0.2,
                         request_timeout=0.5, down_cooldown=30.0)
    cache = AnswerCache(8, tier=client)
    cache.put(("fp", "warm", "int"), 1)
    server.stop()
    client._drop_socket()
    # Locally-fronted entries keep answering; new traffic degrades to
    # plain local LRU semantics.
    assert cache.get(("fp", "warm", "int")) == 1
    cache.put(("fp", "late", "int"), 2)
    assert cache.get(("fp", "late", "int")) == 2
    client.close()


def test_protocol_mismatch_fails_session_construction(artwork_lake,
                                                      monkeypatch):
    server = CacheTierServer(bind="tcp://127.0.0.1:0").start()
    try:
        import repro.cachenet.client as client_module
        monkeypatch.setattr(
            client_module, "hello_request",
            lambda: {"op": "hello", "protocol": "repro-cachenet",
                     "version": 999})
        with pytest.raises(CacheProtocolError, match="upgrade the older"):
            Session(artwork_lake, cache_url=server.url)
    finally:
        server.stop()
