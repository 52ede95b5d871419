"""The query service end-to-end: submit/poll/stream over real sockets,
admission control, failure paths, and graceful drain.

Each test boots a real server (:class:`~repro.serve.app.ServerHandle`,
ephemeral port) over the session-scoped rotowire lake and talks plain
``http.client`` — no test doubles between the suite and the wire
format.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import socket
import threading
import time

import pytest

from repro.core.plan import QueryResult
from repro.datasets import load_lake
from repro.llm.brain import SimulatedBrain
from repro.serve.app import ServeConfig, ServerHandle
from repro.session import Session

POLL_S = 0.01
DEADLINE_S = 30.0


@pytest.fixture
def serve(rotowire_lake):
    """Factory fixture: boot a server with given knobs, drain at teardown."""
    handles = []

    def boot(session: Session | None = None, **config) -> ServerHandle:
        config.setdefault("port", 0)
        handle = ServerHandle(session or Session(rotowire_lake),
                              ServeConfig(**config)).start()
        handles.append(handle)
        return handle

    yield boot
    for handle in handles:
        handle.drain(timeout=60)


class Client:
    """Minimal keep-alive JSON client for the tests."""

    def __init__(self, handle: ServerHandle, token: str = "test"):
        self.conn = http.client.HTTPConnection("127.0.0.1", handle.port,
                                               timeout=30)
        self.token = token

    def request(self, method: str, path: str, body: dict | None = None):
        self.conn.request(
            method, path,
            body=json.dumps(body) if body is not None else None,
            headers={"x-api-token": self.token})
        response = self.conn.getresponse()
        text = response.read().decode("utf-8")
        return (response.status, dict(response.getheaders()),
                json.loads(text) if text.strip() else {})

    def poll_done(self, job_id: str) -> dict:
        deadline = time.perf_counter() + DEADLINE_S
        while time.perf_counter() < deadline:
            status, _, body = self.request("GET", f"/queries/{job_id}")
            assert status == 200
            if body["status"] in ("done", "cancelled"):
                return body
            time.sleep(POLL_S)
        raise AssertionError(f"job {job_id} did not finish in {DEADLINE_S}s")

    def close(self) -> None:
        self.conn.close()


def test_submit_poll_roundtrip_matches_direct_query(serve, rotowire_lake):
    handle = serve()
    client = Client(handle)
    status, _, body = client.request(
        "POST", "/queries", {"query": "How many players are taller than 200?"})
    assert status == 202
    assert body["status"] == "queued"
    assert body["links"]["self"] == f"/queries/{body['id']}"
    done = client.poll_done(body["id"])
    assert done["ok"] is True
    assert done["result"]["kind"] == "value"
    expected = Session(rotowire_lake).query(
        "How many players are taller than 200?")
    assert done["result"]["value"] == expected.to_dict()["value"]
    # the poll carries the answer only; ?trace=1 adds the lossless trace
    assert done["result"]["trace"] is None
    status, _, traced = client.request("GET",
                                       f"/queries/{body['id']}?trace=1")
    assert status == 200
    assert traced["result"]["trace"]["telemetry"]["spans"]
    assert {**traced["result"], "trace": None} == done["result"]
    restored = QueryResult.from_dict(traced["result"])
    assert restored.value == expected.value
    assert QueryResult.from_dict(done["result"]).value == expected.value
    client.close()


def test_event_stream_carries_lifecycle_and_spans(serve):
    handle = serve()
    client = Client(handle)
    _, _, body = client.request(
        "POST", "/queries", {"query": "Who is the tallest player?"})
    client.poll_done(body["id"])
    # Stream after completion: the full log replays, then the stream ends.
    stream = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=30)
    stream.request("GET", f"/queries/{body['id']}/events")
    response = stream.getresponse()
    assert response.status == 200
    assert response.getheader("Content-Type") == "application/x-ndjson"
    events = [json.loads(line)
              for line in response.read().decode("utf-8").splitlines()]
    kinds = [event["event"] for event in events]
    assert kinds[0] == "queued" and kinds[1] == "started"
    assert kinds[-1] == "done"
    stages = [event["span"]["stage"] for event in events
              if event["event"] == "span"]
    assert "planning" in stages
    assert any(stage.startswith("operator:") for stage in stages)
    stream.close()
    client.close()


def test_event_stream_is_live_during_execution(serve, rotowire_lake):
    # A slow brain keeps the query running while the stream is attached,
    # so at least the early spans must arrive before the job finishes.
    session = Session(rotowire_lake,
                      brain=SimulatedBrain(latency_seconds=0.15))
    handle = serve(session, workers=1)
    client = Client(handle)
    _, _, body = client.request(
        "POST", "/queries", {"query": "Who is the tallest player?"})
    stream = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=30)
    stream.request("GET", f"/queries/{body['id']}/events")
    response = stream.getresponse()
    first = json.loads(response.readline())
    assert first["event"] == "queued"
    # Reading incrementally: a span line arrives while still running.
    saw_span_live = False
    while True:
        event = json.loads(response.readline())
        if event["event"] == "span":
            status, _, polled = client.request(
                "GET", f"/queries/{body['id']}")
            saw_span_live = saw_span_live or polled["status"] == "running"
        if event["event"] == "done":
            break
    assert saw_span_live
    stream.close()
    client.close()


def test_full_queue_rejects_with_429_and_retry_after(serve, rotowire_lake):
    session = Session(rotowire_lake,
                      brain=SimulatedBrain(latency_seconds=0.2))
    handle = serve(session, workers=1, queue_depth=1, per_client_limit=10,
                   retry_after_s=2.0)
    client = Client(handle)
    # Occupy the single worker + fill the queue slot, then overflow.
    responses = [client.request(
        "POST", "/queries", {"query": "Who is the tallest player?"})
        for _ in range(6)]
    statuses = [status for status, _, _ in responses]
    assert 202 in statuses and 429 in statuses
    rejected = [(headers, body) for status, headers, body in responses
                if status == 429]
    for headers, body in rejected:
        assert headers["Retry-After"] == "2"
        assert body["error"] in ("queue_full", "client_limit")
    # No 5xx, and every accepted job resolves.
    assert all(status in (202, 429) for status in statuses)
    for status, _, body in responses:
        if status == 202:
            client.poll_done(body["id"])
    metrics = json.loads(json.dumps(
        client.request("GET", "/metrics")[2]))
    assert metrics["counters"]["serve_admission_rejections_total"] == len(
        rejected)
    client.close()


def test_per_client_limits_are_isolated_between_clients(serve,
                                                        rotowire_lake):
    session = Session(rotowire_lake,
                      brain=SimulatedBrain(latency_seconds=0.2))
    handle = serve(session, workers=1, queue_depth=10, per_client_limit=1)
    alice, bob = Client(handle, "alice"), Client(handle, "bob")
    status_a1, _, body_a1 = alice.request(
        "POST", "/queries", {"query": "Who is the tallest player?"})
    status_a2, _, body_a2 = alice.request(
        "POST", "/queries", {"query": "Who is the tallest player?"})
    # Alice is at her limit; Bob is not affected by Alice's occupancy.
    status_b, _, body_b = bob.request(
        "POST", "/queries", {"query": "Who is the tallest player?"})
    assert status_a1 == 202
    assert status_a2 == 429 and body_a2["error"] == "client_limit"
    assert status_b == 202
    alice.poll_done(body_a1["id"])
    bob.poll_done(body_b["id"])
    # With her job resolved, Alice is admitted again.
    status_a3, _, body_a3 = alice.request(
        "POST", "/queries", {"query": "Who is the tallest player?"})
    assert status_a3 == 202
    alice.poll_done(body_a3["id"])
    alice.close()
    bob.close()


@pytest.mark.parametrize("lane_backend", ["thread", "process"])
def test_job_timeout_resolves_with_worker_error_event(serve, rotowire_lake,
                                                      lane_backend):
    # A process lane rebuilds the lake from its generation recipe, which
    # the hand-assembled fixture lake does not carry.
    lake = rotowire_lake if lane_backend == "thread" else load_lake("rotowire")
    session = Session(lake, brain=SimulatedBrain(latency_seconds=0.5))
    # Server default is generous; the request tightens its own budget
    # (a requested timeout can only tighten, never loosen the default).
    handle = serve(session, workers=1, job_timeout_s=30.0,
                   lane_backend=lane_backend)
    client = Client(handle)
    _, _, body = client.request(
        "POST", "/queries",
        {"query": "Who is the tallest player?", "timeout_s": 0.05})
    done = client.poll_done(body["id"])
    assert done["ok"] is False
    assert done["result"]["kind"] == "error"
    assert "timed out" in done["result"]["error"]  # the slim form says why
    _, _, traced = client.request("GET", f"/queries/{body['id']}?trace=1")
    errors = traced["result"]["trace"]["errors"]
    assert len(errors) == 1
    assert errors[0]["phase"] == "worker"
    assert "timed out" in errors[0]["message"]
    assert errors[0]["worker_id"] == 0
    # The worker lane was replaced: a follow-up on the default budget
    # still succeeds even though the timed-out engine was abandoned.
    _, _, retry = client.request(
        "POST", "/queries", {"query": "Who is the tallest player?"})
    assert client.poll_done(retry["id"])["ok"] is True
    metrics = client.request("GET", "/metrics")[2]
    assert metrics["counters"]["serve_job_timeouts_total"] == 1
    client.close()


def test_cancel_queued_job_and_cancel_conflicts(serve, rotowire_lake):
    session = Session(rotowire_lake,
                      brain=SimulatedBrain(latency_seconds=0.3))
    handle = serve(session, workers=1, queue_depth=10)
    client = Client(handle)
    _, _, running = client.request(
        "POST", "/queries", {"query": "Who is the tallest player?"})
    _, _, queued = client.request(
        "POST", "/queries", {"query": "Who is the tallest player?"})
    status, _, body = client.request("DELETE", f"/queries/{queued['id']}")
    assert status == 200 and body["status"] == "cancelled"
    done = client.poll_done(queued["id"])
    assert done["status"] == "cancelled"
    finished = client.poll_done(running["id"])
    assert finished["ok"] is True
    # Finished jobs can no longer be cancelled.
    status, _, body = client.request("DELETE", f"/queries/{running['id']}")
    assert status == 409
    assert client.request("DELETE", "/queries/nope")[0] == 404
    client.close()


def test_graceful_drain_finishes_inflight_and_flushes_caches(
        serve, rotowire_lake, tmp_path):
    plan_file = tmp_path / "plans.json"
    answer_file = tmp_path / "answers.json"
    session = Session(rotowire_lake,
                      brain=SimulatedBrain(latency_seconds=0.1))
    handle = serve(session, workers=2,
                   plan_cache_file=str(plan_file),
                   answer_cache_file=str(answer_file))
    client = Client(handle)
    submitted = [client.request(
        "POST", "/queries", {"query": "How many players are taller than 200?"})
        for _ in range(3)]
    assert all(status == 202 for status, _, _ in submitted)
    drained = handle.drain(timeout=60)
    assert drained is True
    # Drain stopped admission but resolved everything already accepted,
    # and the caches hit their persistence files.
    assert plan_file.exists() and answer_file.exists()
    plans = json.loads(plan_file.read_text())
    assert plans["entries"]
    manager = handle.server.jobs
    assert all(job.finished for job in manager.jobs())
    assert all(job.status == "done" for job in manager.jobs())
    client.close()


def test_draining_server_rejects_submits_with_503(serve, rotowire_lake):
    handle = serve(Session(rotowire_lake))
    client = Client(handle)
    handle.server.jobs.admission.start_draining()
    status, _, body = client.request(
        "POST", "/queries", {"query": "Who is the tallest player?"})
    assert status == 503 and body["error"] == "draining"
    status, _, body = client.request("GET", "/healthz")
    assert status == 200 and body["status"] == "draining"
    client.close()


def test_concurrent_submits_from_two_clients_all_resolve(serve,
                                                         rotowire_lake):
    handle = serve(Session(rotowire_lake), workers=2, queue_depth=32,
                   per_client_limit=4)
    results: dict[str, list] = {"a": [], "b": []}

    def hammer(token: str) -> None:
        client = Client(handle, token)
        for _ in range(4):
            status, _, body = client.request(
                "POST", "/queries",
                {"query": "How many players are taller than 200?"})
            assert status in (202, 429)
            if status == 202:
                results[token].append(client.poll_done(body["id"]))
        client.close()

    threads = [threading.Thread(target=hammer, args=(token,))
               for token in ("a", "b")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    finished = results["a"] + results["b"]
    assert finished
    assert all(done["ok"] for done in finished)
    values = {done["result"]["value"] for done in finished}
    assert len(values) == 1  # every client saw the same answer


def test_http_errors_and_validation(serve):
    handle = serve()
    client = Client(handle)
    assert client.request("GET", "/nope")[0] == 404
    assert client.request("PUT", "/queries/abc")[0] == 405
    status, _, body = client.request("POST", "/queries", {"query": ""})
    assert status == 400
    status, _, body = client.request("POST", "/queries",
                                     {"query": "x", "bogus": 1})
    assert status == 400 and "bogus" in body["detail"]
    status, _, body = client.request(
        "POST", "/queries", {"query": "x", "timeout_s": -1})
    assert status == 400
    # Raw garbage body
    client.conn.request("POST", "/queries", body=b"not json",
                        headers={"Content-Type": "application/json"})
    response = client.conn.getresponse()
    response.read()
    assert response.status == 400
    client.close()


@pytest.mark.parametrize("timeout_s", (float("nan"), float("inf")))
def test_non_finite_timeout_is_rejected_and_replaces_no_lane(serve,
                                                             timeout_s):
    # json.dumps writes NaN / Infinity, and the server's json parses them.
    handle = serve(workers=1)
    client = Client(handle)
    status, _, body = client.request(
        "POST", "/queries",
        {"query": "Who is the tallest player?", "timeout_s": timeout_s})
    assert status == 400 and "timeout_s" in body["detail"]
    _, _, ok = client.request(
        "POST", "/queries", {"query": "Who is the tallest player?"})
    assert client.poll_done(ok["id"])["ok"] is True
    counters = client.request("GET", "/metrics")[2]["counters"]
    assert "serve_job_timeouts_total" not in counters
    assert "serve_worker_failures_total" not in counters
    client.close()


def _raw_exchange(handle: ServerHandle, request: bytes) -> bytes:
    """Send *request* bytes as they are; everything the server answers
    before it closes the connection."""
    with socket.create_connection(("127.0.0.1", handle.port),
                                  timeout=30) as sock:
        sock.sendall(request)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


_OVERLONG = b"a" * (70 * 1024)  # past the stream reader's 64 KiB line limit


@pytest.mark.parametrize("request_bytes", [
    b"GET /" + _OVERLONG + b" HTTP/1.1\r\n\r\n",
    b"GET /healthz HTTP/1.1\r\nX-Padding: " + _OVERLONG + b"\r\n\r\n",
    b"POST /queries HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
], ids=["long-request-line", "long-header-line", "negative-length"])
def test_malformed_request_is_answered_400(serve, request_bytes):
    handle = serve()
    assert _raw_exchange(handle, request_bytes).startswith(
        b"HTTP/1.1 400 ")
    client = Client(handle)
    assert client.request("GET", "/healthz")[0] == 200
    client.close()


def test_metrics_endpoint_matches_render_snapshot(serve, rotowire_lake):
    from repro.obs import render_snapshot
    session = Session(rotowire_lake)
    handle = serve(session)
    client = Client(handle)
    _, _, body = client.request(
        "POST", "/queries", {"query": "Who is the tallest player?"})
    client.poll_done(body["id"])
    raw = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=30)
    raw.request("GET", "/metrics")
    text = raw.getresponse().read().decode("utf-8")
    # Byte-identical to the shared helper over the same session state:
    # the registry's metrics plus the local caches' figures.
    assert text == render_snapshot(session.observability_snapshot())
    snapshot = json.loads(text)
    assert snapshot["counters"]["queries_total"] == 1
    assert snapshot["local_caches"]["plan"]["misses"] == 1
    assert "serve_queue_wait" in snapshot["histograms"]
    assert "serve_job_latency" in snapshot["histograms"]
    raw.close()
    client.close()


def test_shutdown_flushes_caches_exactly_once(serve, rotowire_lake,
                                              tmp_path, capsys):
    """Every shutdown path converges on one flush: a drain racing a
    signal (or a second explicit drain) must not save the caches twice.
    """
    plan_file = tmp_path / "plans.json"
    session = Session(rotowire_lake)
    handle = serve(session, plan_cache_file=str(plan_file))
    client = Client(handle)
    _, _, body = client.request(
        "POST", "/queries", {"query": "How many players are taller than 200?"})
    client.poll_done(body["id"])
    client.close()

    saves = []
    original = Session.save_plan_cache

    def counting_save(self, path):
        saves.append(path)
        return original(self, path)

    Session.save_plan_cache = counting_save
    try:
        assert handle.drain(timeout=60) is True
        # A racing signal handler lands here after the drain already
        # flushed; the once-guard absorbs it.
        handle.server._flush_caches()
        handle.server._flush_caches()
    finally:
        Session.save_plan_cache = original
    assert saves == [str(plan_file)]
    assert plan_file.exists()
    # The flush log names the entry count and destination.
    out = capsys.readouterr().out
    assert f"flushed 1 plan-cache entries -> {plan_file}" in out


def test_racing_drains_converge_without_deadlock(serve, rotowire_lake,
                                                 tmp_path):
    """Two drains in flight at once — SIGTERM and SIGINT both firing, or
    an explicit drain racing a signal.  The loser must wait for the
    winner without holding the drain lock, or the winner's cache flush
    (which runs on an executor thread) deadlocks against it and the
    server never stops."""
    plan_file = tmp_path / "plans.json"
    session = Session(rotowire_lake)
    handle = serve(session, plan_cache_file=str(plan_file))
    client = Client(handle)
    _, _, body = client.request(
        "POST", "/queries", {"query": "How many players are taller than 200?"})
    client.poll_done(body["id"])
    client.close()

    drains: list[asyncio.Task] = []

    def race() -> None:
        # Both start in one loop turn, so neither can finish (and let the
        # loop close) before the other is scheduled.
        drains.extend(asyncio.ensure_future(handle.server.drain_and_stop())
                      for _ in range(2))

    handle._loop.call_soon_threadsafe(race)
    handle._thread.join(timeout=30)
    assert not handle._thread.is_alive()
    assert [drain.result() for drain in drains] == [True, True]
    assert handle.server._stopped.is_set()
    assert plan_file.exists()  # the one flush still happened


def test_draining_a_stopped_server_returns_true(serve):
    """A second drain finds the loop closed: it must neither schedule onto
    it nor raise."""
    handle = serve()
    assert handle.drain(timeout=60) is True
    assert handle._loop.is_closed()
    assert handle.drain(timeout=60) is True


def test_serve_with_cache_tier_shares_warmth(serve, rotowire_lake):
    """A server built with cache_url pulls plans another session left in
    the tier, and /metrics exposes both client counters and the server's
    own STATS block."""
    from repro.cachenet import CacheTierServer
    tier = CacheTierServer(bind="tcp://127.0.0.1:0").start()
    try:
        query = "How many players are taller than 200?"
        with Session(rotowire_lake, cache_url=tier.url) as producer:
            producer.query(query)
        session = Session(rotowire_lake, cache_url=tier.url)
        handle = serve(session)
        client = Client(handle)
        _, _, body = client.request("POST", "/queries", {"query": query})
        done = client.poll_done(body["id"])
        assert done["ok"] is True
        raw = http.client.HTTPConnection("127.0.0.1", handle.port,
                                         timeout=30)
        raw.request("GET", "/metrics")
        snapshot = json.loads(raw.getresponse().read().decode("utf-8"))
        assert snapshot["counters"]["cachenet_hits"] >= 1
        assert snapshot["cachenet_server"]["plan"]["entries"] >= 1
        raw.close()
        client.close()
    finally:
        tier.stop()
