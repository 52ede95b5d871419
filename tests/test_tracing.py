"""Distributed tracing end to end: context propagation across every
process boundary, trace export/inspection, and the serve endpoints.

The boundary tests pin one hop each — HTTP header → job, job → process
worker lane, lane → cachenet RPC — by asserting the *same trace id* on
both sides; the acceptance test runs the full chain (serve with process
lanes, live cache tier, JSONL export) and checks the exported span tree
contains all three layers.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.cachenet import CacheTierServer
from repro.cachenet.protocol import (PROTOCOL_NAME, PROTOCOL_VERSION,
                                     FrameError, read_frame, write_frame)
from repro.obs import (QueryTelemetry, StageTrace, TraceBuffer,
                       TraceContext, TraceContextError, TraceExporter,
                       TracePipeline, build_trace_record, render_prometheus,
                       render_trace_record)
from repro.obs.tracecli import main as trace_main
from repro.session import Session

from test_serve import Client, serve  # noqa: F401 - fixture reuse

QUERY = "How many players are taller than 200?"


# ----------------------------------------------------------------------
# TraceContext: traceparent parsing and derivation
# ----------------------------------------------------------------------

def test_traceparent_roundtrip():
    context = TraceContext.new()
    parsed = TraceContext.parse_traceparent(context.to_traceparent())
    assert parsed.trace_id == context.trace_id
    assert parsed.span_id == context.span_id


def test_child_shares_trace_id_with_fresh_span_id():
    context = TraceContext.new()
    child = context.child()
    assert child.trace_id == context.trace_id
    assert child.span_id != context.span_id


@pytest.mark.parametrize("header", [
    "",
    "not-a-traceparent",
    "00-zzzz-1234567890abcdef-01",                      # non-hex trace id
    "00-" + "a" * 31 + "-" + "b" * 16 + "-01",          # short trace id
    "00-" + "a" * 32 + "-" + "b" * 15 + "-01",          # short span id
    "01-" + "a" * 32 + "-" + "b" * 16 + "-01",          # unknown version
    "00-" + "0" * 32 + "-" + "b" * 16 + "-01",          # all-zero trace id
    "00-" + "a" * 32 + "-" + "0" * 16 + "-01",          # all-zero span id
])
def test_malformed_traceparent_rejected(header):
    with pytest.raises(TraceContextError):
        TraceContext.parse_traceparent(header)


# ----------------------------------------------------------------------
# Boundary 1: HTTP traceparent header → serve job
# ----------------------------------------------------------------------

def _submit_with_traceparent(handle, header: str):
    client = Client(handle)
    client.conn.request(
        "POST", "/queries", body=json.dumps({"query": QUERY}),
        headers={"x-api-token": "test", "traceparent": header})
    response = client.conn.getresponse()
    body = json.loads(response.read().decode("utf-8"))
    return client, response.status, body


def test_serve_header_joins_job_to_callers_trace(serve):  # noqa: F811
    handle = serve(slow_query_ms=10_000.0)
    caller = TraceContext.new()
    client, status, body = _submit_with_traceparent(
        handle, caller.to_traceparent())
    assert status == 202
    assert body["trace_id"] == caller.trace_id
    assert body["links"]["trace"] == f"/traces/{caller.trace_id}"
    client.poll_done(body["id"])

    status, _, record = client.request(
        "GET", f"/traces/{caller.trace_id}")
    assert status == 200
    assert record["trace_id"] == caller.trace_id
    root = record["spans"][0]
    assert root["name"] == "serve.request"
    # The job's root span links back to the caller's own span id.
    assert root["parent_span_id"] == caller.span_id
    assert record["attributes"]["job_id"] == body["id"]
    assert record["slow"] is False
    # Engine stages rode the same trace as child spans of the root.
    names = {span["name"] for span in record["spans"]}
    assert "queue.wait" in names
    assert "planning" in names


def test_serve_rejects_malformed_traceparent(serve):  # noqa: F811
    handle = serve()
    client, status, body = _submit_with_traceparent(handle, "garbage")
    assert status == 400
    assert body["error"] == "bad_traceparent"
    # Nothing was admitted.
    status, _, listing = client.request("GET", "/traces")
    assert status == 200 and listing["count"] == 0


# ----------------------------------------------------------------------
# Boundary 2: job → process worker lane (across the pipe)
# ----------------------------------------------------------------------

def test_worker_lane_joins_parent_trace(monkeypatch):
    from test_exec_backends import make_worker_payload

    from repro.exec import procworker
    monkeypatch.setattr(procworker, "_STATE", {})
    session = Session("rotowire")
    procworker.initialize_worker(make_worker_payload(session))
    context = TraceContext.new()

    payload = procworker.run_worker_query(QUERY, context)
    assert payload["ok"]
    assert payload["result"]["trace"]["trace_id"] == context.trace_id

    # A trace-less call still works and mints its own id.
    bare = procworker.run_worker_query(QUERY)
    assert bare["ok"]
    assert bare["result"]["trace"]["trace_id"] != context.trace_id


# ----------------------------------------------------------------------
# Boundary 3: worker lane → cachenet RPC
# ----------------------------------------------------------------------

def test_cachenet_rpcs_join_query_trace():
    server = CacheTierServer(bind="tcp://127.0.0.1:0").start()
    try:
        session = Session("rotowire", cache_url=server.url)
        context = TraceContext.new()
        result = session.query(QUERY, trace_context=context)
        assert result.ok
        assert result.trace.trace_id == context.trace_id
        rpc_spans = [span for span in result.telemetry.spans
                     if span.stage.startswith("cachenet:")]
        assert rpc_spans, "no cachenet RPC spans on the query telemetry"
        for span in rpc_spans:
            assert span.notes["trace_id"] == context.trace_id
            assert "server_ms" in span.notes
        # The server saw (and counted) the trace-carrying requests.
        stats = session.cachenet_stats()
        assert stats["traced_requests_total"] >= len(rpc_spans)
        session.close()
    finally:
        server.stop()


def test_cachenet_spans_dropped_from_canonical_parity():
    server = CacheTierServer(bind="tcp://127.0.0.1:0").start()
    try:
        session = Session("rotowire", cache_url=server.url)
        result = session.query(QUERY)
        assert any(span.stage.startswith("cachenet:")
                   for span in result.telemetry.spans)
        canonical = result.telemetry.canonicalize(
            result.telemetry.to_dict())
        assert not any(span["stage"].startswith("cachenet:")
                       for span in canonical["spans"])
        session.close()
    finally:
        server.stop()


# ----------------------------------------------------------------------
# Acceptance: the full chain, exported
# ----------------------------------------------------------------------

def test_serve_process_lanes_export_cachenet_child_spans(
        serve, tmp_path):  # noqa: F811
    spool = tmp_path / "traces.jsonl"
    server = CacheTierServer(bind="tcp://127.0.0.1:0").start()
    try:
        session = Session("rotowire", cache_url=server.url)
        handle = serve(session=session, workers=1,
                       lane_backend="process",
                       trace_export_file=str(spool))
        client = Client(handle)
        status, _, body = client.request(
            "POST", "/queries", {"query": QUERY})
        assert status == 202
        done = client.poll_done(body["id"])
        assert done["ok"] is True
        # The lane ran in another process; its trace came back over the
        # pipe and through the pipeline into the export spool.
        records = TraceExporter.read(str(spool))
        assert len(records) == 1
        record = records[0]
        assert record["trace_id"] == body["trace_id"]
        names = [span["name"] for span in record["spans"]]
        assert names[0] == "serve.request"
        assert "queue.wait" in names
        assert "planning" in names
        assert any(name.startswith("cachenet:") for name in names), names
        # Every child hangs off the root span of this trace.
        root_id = record["root_span_id"]
        assert all(span["parent_span_id"] == root_id
                   for span in record["spans"][1:])
        # The span events streamed to the job mirror the lane's stages.
        # A plan lookup is one batched lookup, like an answer lookup.
        assert "cachenet:mget" in names
        session.close()
    finally:
        server.stop()


# ----------------------------------------------------------------------
# Export machinery: ring, spool rotation, slow log, pipeline
# ----------------------------------------------------------------------

def _record(trace_id: str | None = None, duration_ms: float = 5.0,
            status: str = "ok") -> dict:
    context = (TraceContext(trace_id=trace_id, span_id="ab" * 8)
               if trace_id else TraceContext.new())
    return build_trace_record(context, QUERY, None, status=status,
                              duration_ms=duration_ms)


def test_trace_buffer_evicts_and_filters():
    buffer = TraceBuffer(capacity=2)
    first = _record("aa" * 16, duration_ms=1.0)
    buffer.add(first)
    buffer.add(_record("bb" * 16, duration_ms=50.0))
    buffer.add(_record("cc" * 16, duration_ms=100.0, status="error"))
    assert len(buffer) == 2
    assert buffer.get("aa" * 16) is None           # evicted, oldest first
    assert buffer.get("bb" * 16) is not None
    slow = buffer.recent(min_duration_ms=60.0)
    assert [t["trace_id"] for t in slow] == ["cc" * 16]
    errors = buffer.recent(status="error")
    assert [t["trace_id"] for t in errors] == ["cc" * 16]


def test_exporter_rotates_at_size_cap(tmp_path):
    spool = tmp_path / "traces.jsonl"
    exporter = TraceExporter(str(spool), max_bytes=4096)
    for index in range(32):
        exporter.export(_record(f"{index:032x}"))
    assert spool.exists() and (tmp_path / "traces.jsonl.1").exists()
    live = TraceExporter.read(str(spool))
    rotated = TraceExporter.read(str(spool) + ".1")
    assert live and rotated
    # One generation kept: the two files hold a duplicate-free,
    # in-order suffix of the exports, ending at the newest record.
    ids = [int(r["trace_id"], 16) for r in rotated + live]
    assert ids == sorted(set(ids))
    assert ids[-1] == 31
    assert ids == list(range(ids[0], 32))


def test_slow_query_threshold_flags_records():
    pipeline = TracePipeline(slow_query_ms=10.0)
    flags = [pipeline.record(_record(tid * 16, duration_ms=ms)).get("slow")
             for tid, ms in (("aa", 5.0), ("bb", 10.0), ("cc", 30.0))]
    assert flags == [False, True, True]
    # Without a threshold no record carries the key.
    assert "slow" not in TracePipeline().record(_record("dd" * 16,
                                                        duration_ms=99.0))


def test_pipeline_counts_into_metrics():
    from repro.obs import MetricsRegistry
    metrics = MetricsRegistry()
    pipeline = TracePipeline(slow_query_ms=10.0, metrics=metrics)
    pipeline.record(_record("aa" * 16, duration_ms=5.0))
    pipeline.record(_record("bb" * 16, duration_ms=50.0))
    counters = metrics.snapshot()["counters"]
    assert counters["traces_recorded_total"] == 2
    assert counters["slow_queries_total"] == 1


# ----------------------------------------------------------------------
# Prometheus exposition
# ----------------------------------------------------------------------

def test_render_prometheus_exposes_counters_and_histograms():
    session = Session("rotowire")
    session.query(QUERY)
    text = render_prometheus(session.observability_snapshot())
    assert "# TYPE repro_queries_total counter" in text
    assert "repro_queries_total 1" in text
    assert 'le="+Inf"' in text
    assert "_seconds_bucket{" in text
    # Every sample line is name [labels] value — no stray formatting.
    for line in text.splitlines():
        if line and not line.startswith("#"):
            assert len(line.rsplit(" ", 1)) == 2
    session.close()


def test_metrics_endpoint_prometheus_format(serve):  # noqa: F811
    handle = serve()
    client = Client(handle)
    client.conn.request("GET", "/metrics?format=prometheus",
                        headers={"x-api-token": "test"})
    response = client.conn.getresponse()
    text = response.read().decode("utf-8")
    assert response.status == 200
    assert response.getheader("Content-Type").startswith(
        "text/plain; version=0.0.4")
    assert "repro_serve_requests_total" in text
    # JSON stays the default.
    status, _, body = client.request("GET", "/metrics")
    assert status == 200 and "counters" in body
    # Unknown formats are a client error, not a silent default.
    status, _, body = client.request("GET", "/metrics?format=xml")
    assert status == 400


# ----------------------------------------------------------------------
# /traces endpoints + slow-query threshold over HTTP
# ----------------------------------------------------------------------

def test_traces_endpoint_filters_and_404(serve):  # noqa: F811
    handle = serve(slow_query_ms=0.001)
    client = Client(handle)
    status, _, body = client.request("POST", "/queries", {"query": QUERY})
    assert status == 202
    client.poll_done(body["id"])

    status, _, listing = client.request("GET", "/traces")
    assert status == 200 and listing["count"] == 1
    summary = listing["traces"][0]
    assert summary["trace_id"] == body["trace_id"]
    assert summary["slow"] is True            # threshold is ~zero

    status, _, filtered = client.request(
        "GET", "/traces?min_duration_ms=1000000")
    assert status == 200 and filtered["count"] == 0
    status, _, slow = client.request("GET", "/traces?slow=1")
    assert status == 200 and slow["count"] == 1

    status, _, _body = client.request("GET", "/traces/" + "0" * 32)
    assert status == 404
    status, _, _body = client.request("GET", "/traces?limit=bogus")
    assert status == 400


# ----------------------------------------------------------------------
# Bounded STATS scrape: a wedged cache server cannot stall /metrics
# ----------------------------------------------------------------------

def test_observability_snapshot_bounded_by_hung_cache_server():
    # A tier that completes the handshake and answers the session's
    # construction-time STATS probe, then goes silent.  The scrape's
    # STATS request therefore reaches a live, healthy-looking connection
    # and must wait out the scrape budget — not the client's default
    # timeout and retries, and not a post-failure cooldown.
    wedge = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    wedge.bind(("127.0.0.1", 0))
    wedge.listen(8)
    port = wedge.getsockname()[1]
    accepted = []

    def serve_then_wedge():
        try:
            while True:
                conn, _ = wedge.accept()
                accepted.append(conn)
                read_frame(conn)
                write_frame(conn, {"ok": True, "protocol": PROTOCOL_NAME,
                                   "version": PROTOCOL_VERSION})
                if len(accepted) == 1:
                    read_frame(conn)    # the construction-time STATS probe
                    write_frame(conn, {"ok": True, "stats": {}})
                # ...and from here on, say nothing.
        except (OSError, FrameError):
            pass

    thread = threading.Thread(target=serve_then_wedge, daemon=True)
    thread.start()
    budget = Session.CACHENET_STATS_TIMEOUT
    try:
        session = Session("rotowire", cache_url=f"tcp://127.0.0.1:{port}")
        assert session.metrics_registry.counters().get(
            "cachenet_fallbacks", 0) == 0      # the tier looked healthy
        started = time.perf_counter()
        snapshot = session.observability_snapshot()
        elapsed = time.perf_counter() - started
        assert "cachenet_server" not in snapshot     # degraded, not hung
        assert 0.9 * budget <= elapsed < 5 * budget + 1.0, elapsed
        session.close()
    finally:
        wedge.close()
        for conn in accepted:
            conn.close()


# ----------------------------------------------------------------------
# `repro trace` CLI over an exported spool
# ----------------------------------------------------------------------

def test_trace_cli_show_tail_top(tmp_path, capsys):
    spool = tmp_path / "traces.jsonl"
    exporter = TraceExporter(str(spool))
    exporter.export(_record("aa" * 16, duration_ms=5.0))
    exporter.export(_record("bb" * 16, duration_ms=50.0))

    assert trace_main(["show", "--file", str(spool), "aa"]) == 0
    out = capsys.readouterr().out
    assert ("aa" * 16) in out and QUERY in out

    assert trace_main(["show", "--file", str(spool)]) == 0
    assert ("bb" * 16) in capsys.readouterr().out   # newest by default

    assert trace_main(["tail", "--file", str(spool), "-n", "1"]) == 0
    assert ("bb" * 16) in capsys.readouterr().out

    assert trace_main(["top", "--file", str(spool), "-n", "1"]) == 0
    assert ("bb" * 16) in capsys.readouterr().out   # slowest first

    assert trace_main(["show", "--file", str(spool), "ff"]) == 1
    assert "no trace matching" in capsys.readouterr().err


def test_render_trace_record_shows_span_tree():
    context = TraceContext.new()
    session = Session("rotowire")
    result = session.query(QUERY, trace_context=context)
    record = build_trace_record(
        context, QUERY, result.telemetry, status="ok", duration_ms=12.5,
        root_name="query")
    text = render_trace_record(record)
    assert context.trace_id in text
    assert "planning" in text
    session.close()


def test_span_tree_renderings_are_pinned():
    # README documents render_tree(); both renderers share one span-line
    # format, step grouping and counters line, byte for byte.
    telemetry = QueryTelemetry(
        spans=[StageTrace("discovery", 1.5, 120, 30, 0.0021,
                          notes={"memo": "absent"}),
               StageTrace("planning", 2.25, 300, 80, 0.0045),
               StageTrace("mapping", 0.5, 90, 12, 0.00102, step_index=1),
               StageTrace("operator:SQL", 3.125, step_index=1,
                          notes={"engine": "colexec", "rows": 4}),
               StageTrace("operator:Plot", 0.75, step_index=2)],
        counters={"plan_cache_misses": 1, "sql_engine_colexec": 1})
    body = (
        "├─ discovery                     1.50ms    120 in /   30 out  "
        "$0.002100  [memo='absent']\n"
        "├─ planning                      2.25ms    300 in /   80 out  "
        "$0.004500\n"
        "├─ step 1\n"
        "│  ├─ mapping                       0.50ms     90 in /   12 out  "
        "$0.001020\n"
        "│  ├─ operator:SQL                  3.12ms      0 in /    0 out  "
        "$0.000000  [engine='colexec', rows=4]\n"
        "├─ step 2\n"
        "│  ├─ operator:Plot                 0.75ms      0 in /    0 out  "
        "$0.000000\n"
        "└─ counters: plan_cache_misses=1, sql_engine_colexec=1")
    assert telemetry.render_tree() == (
        "spans: 5, tokens: 510 in / 122 out, cost: $0.007620\n" + body)
    record = build_trace_record(
        TraceContext(trace_id="ab" * 16, span_id="cd" * 8), "How tall?",
        telemetry, status="ok", duration_ms=9.5,
        attributes={"job": "q1", "client": "x"},
        extra_spans=[{"name": "serve.queue_wait", "duration_ms": 0.25}])
    assert render_trace_record(record) == (
        f"trace {'ab' * 16}  status=ok  9.50ms  $0.007620\n"
        "query: 'How tall?'\n"
        "attributes: client=x, job=q1\n"
        "query                         9.50ms    510 in /  122 out  "
        "$0.007620\n"
        "├─ serve.queue_wait              0.25ms      0 in /    0 out  "
        "$0.000000\n" + body)
