"""The cache tier must be invisible in results across every backend.

Acceptance contract for the shared tier: serial, thread, and process
backends produce byte-identical canonical results whether ``cache_url``
is unset, points at a warm tier, or points at a server that dies
mid-run.  Warmth may only move time, never answers.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.cachenet import CacheTierServer
from repro.datasets import load_lake
from repro.session import Session
from repro.testing.workloads import workload

BACKENDS = (("serial", 1), ("thread", 3), ("process", 3))


def canonical(report) -> str:
    return json.dumps(report.canonical_results(), sort_keys=True)


@pytest.fixture(scope="module")
def artwork_lake():
    # Shadows the conftest fixture: the process backend needs a lake
    # that carries its generation spec, which load_lake provides.
    return load_lake("artwork")


@pytest.fixture(scope="module")
def artwork_baseline(artwork_lake):
    """Canonical local-only serial results for the artwork workload."""
    queries = workload("artwork")
    with Session(artwork_lake) as session:
        report = session.batch(queries)
    assert report.num_errors == 0
    return queries, canonical(report)


@pytest.mark.parametrize("backend,workers", BACKENDS)
def test_warm_tier_parity_across_backends(artwork_lake, artwork_baseline,
                                          backend, workers):
    queries, baseline = artwork_baseline
    server = CacheTierServer(bind="tcp://127.0.0.1:0").start()
    try:
        with Session(artwork_lake, cache_url=server.url) as producer:
            producer.batch(queries)
        with Session(artwork_lake, cache_url=server.url) as session:
            report = session.batch(queries, workers=workers,
                                   backend=backend)
            counters = session.metrics()["counters"]
        assert canonical(report) == baseline
        assert report.num_errors == 0
        # The tier really served this run (directly, or through the
        # worker lanes whose counters merge back into the session's).
        assert counters.get("cachenet_hits", 0) >= 1
    finally:
        server.stop()


@pytest.mark.parametrize("backend,workers", (("serial", 1), ("thread", 3)))
def test_tier_killed_mid_run_parity(artwork_lake, artwork_baseline,
                                    backend, workers):
    queries, baseline = artwork_baseline
    server = CacheTierServer(bind="tcp://127.0.0.1:0").start()
    try:
        with Session(artwork_lake, cache_url=server.url) as producer:
            producer.batch(queries[:3])  # partially warm: the run must
            # survive losing a tier it was actively both hitting and
            # missing against.
        session = Session(artwork_lake, cache_url=server.url)
        client = session._cache_client
        client.retries = 0
        client.connect_timeout = 0.2
        client.request_timeout = 0.5
        client.down_cooldown = 30.0
        killer = threading.Timer(0.02, server.stop)
        killer.start()
        try:
            report = session.batch(queries, workers=workers,
                                   backend=backend)
        finally:
            killer.cancel()
        assert canonical(report) == baseline
        assert report.num_errors == 0
        session.close()
    finally:
        server.stop()  # idempotent; the timer usually won the race
