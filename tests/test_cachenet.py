"""The shared cache tier: protocol framing, server ops, remote caches.

Server-side tests drive a real :class:`~repro.cachenet.CacheTierServer`
over real sockets (ephemeral TCP ports, plus one unix-socket case);
protocol tests use a plain ``socket.socketpair`` so framing is exercised
without a server at all.
"""

import json
import socket
import threading
import time

import pytest
from _caches import CACHE_CLASSES, key, value

from repro.cachenet import (CacheClient, CacheProtocolError,
                            CacheTierServer, CacheUnavailable, FrameError,
                            parse_cache_url)
from repro.cachenet.protocol import (MAX_FRAME_BYTES, read_frame,
                                     write_frame)
from repro.core.answer_cache import MISS, AnswerCache
from repro.core.batch import PlanCache
from repro.core.plan import BoundPlan
from repro.data.datatypes import decode_scalar, encode_scalar
from repro.obs import MetricsRegistry
from repro.session import Session


@pytest.fixture()
def server():
    tier = CacheTierServer(bind="tcp://127.0.0.1:0").start()
    yield tier
    tier.stop()


QUERY = "How many paintings are there?"


def _ipv6_loopback_available() -> bool:
    if not socket.has_ipv6:
        return False
    try:
        probe = socket.socket(socket.AF_INET6, socket.SOCK_STREAM)
        probe.bind(("::1", 0))
        probe.close()
        return True
    except OSError:
        return False


def put_answers(client: CacheClient, entries) -> int:
    """Store ``(key, answer)`` pairs with one ``mput``, encoded the way
    a tier-backed :class:`AnswerCache` sends them."""
    return client.mput("answer", [
        {"key": list(key), "value": encode_scalar(answer)}
        for key, answer in entries])


def get_answers(client: CacheClient, keys) -> list[tuple[bool, object]]:
    """``(hit, decoded answer)`` per key from one ``mget``."""
    return [(True, decode_scalar(reply.get("value"))) if reply.get("hit")
            else (False, None)
            for reply in client.mget("answer",
                                     [{"key": list(key)} for key in keys])]


def put_plan(client: CacheClient, ns: str, query: str, plan) -> dict:
    """One single-key ``put`` into the plan space (the v1 frame shape)."""
    return client.request({"op": "put", "space": "plan", "ns": ns,
                           "key": query, "value": plan.to_dict()})


def get_plan(client: CacheClient, ns: str, query: str) -> dict | None:
    """The plan dict one single-key ``get`` returns, or ``None``."""
    reply = client.request({"op": "get", "space": "plan", "ns": ns,
                            "key": query})
    return reply["value"] if reply["hit"] else None


def make_plan(description="count paintings"):
    return BoundPlan.from_dict({
        "thought": "one SQL aggregate does it",
        "steps": [{"index": 0, "description": description,
                   "inputs": ["paintings"], "output": "result",
                   "new_columns": [], "params": {}}],
    })


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------

class TestFraming:
    def test_round_trip(self):
        a, b = socket.socketpair()
        write_frame(a, {"op": "hello", "n": 1})
        assert read_frame(b) == {"op": "hello", "n": 1}
        a.close()
        assert read_frame(b) is None  # clean EOF at a frame boundary
        b.close()

    def test_eof_mid_frame_is_an_error(self):
        a, b = socket.socketpair()
        a.sendall(b"\x00\x00\x00\xff{\"tru")  # header promises 255 bytes
        a.close()
        with pytest.raises(FrameError, match="mid-frame|header and body"):
            read_frame(b)
        b.close()

    def test_non_object_and_non_json_frames_rejected(self):
        for body in (b"[1,2]", b"nonsense"):
            a, b = socket.socketpair()
            a.sendall(len(body).to_bytes(4, "big") + body)
            with pytest.raises(FrameError):
                read_frame(b)
            a.close()
            b.close()

    def test_oversized_frame_rejected_without_reading_it(self):
        a, b = socket.socketpair()
        a.sendall((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
        with pytest.raises(FrameError, match="exceeds"):
            read_frame(b)
        a.close()
        b.close()

    def test_parse_cache_url_forms(self):
        assert parse_cache_url("unix:///tmp/x.sock") == \
            ("unix", "/tmp/x.sock")
        assert parse_cache_url("tcp://host:9") == ("tcp", ("host", 9))
        assert parse_cache_url("host:9") == ("tcp", ("host", 9))
        for bad in ("unix://", "nope", "host:notaport"):
            with pytest.raises(ValueError):
                parse_cache_url(bad)

    def test_parse_cache_url_ipv6_forms(self):
        # Bracketed IPv6 literals parse into the bare host; unbracketed
        # ones would mis-split into garbage, so they are rejected loudly
        # instead of failing later at connect time.
        assert parse_cache_url("tcp://[::1]:9009") == \
            ("tcp", ("::1", 9009))
        assert parse_cache_url("[fe80::2]:7") == ("tcp", ("fe80::2", 7))
        for bad in ("tcp://::1:9009", "tcp://[::1]9009", "tcp://[]:9"):
            with pytest.raises(ValueError, match="bracket"):
                parse_cache_url(bad)


# ----------------------------------------------------------------------
# Server operations
# ----------------------------------------------------------------------

class TestServerOps:
    def test_handshake_required_before_any_op(self, server):
        family, address = parse_cache_url(server.url)
        sock = socket.create_connection(address, timeout=5)
        write_frame(sock, {"op": "stats"})
        reply = read_frame(sock)
        assert reply["ok"] is False and "handshake" in reply["error"]
        sock.close()

    def test_plan_space_round_trip_and_stats(self, server):
        client = CacheClient(server.url)
        plan = make_plan()
        assert put_plan(client, "lake-fp", QUERY, plan)["ok"]
        assert get_plan(client, "lake-fp", QUERY) == plan.to_dict()
        assert get_plan(client, "other-fp", QUERY) is None
        stats = client.stats()
        assert stats["plan"]["entries"] == 1
        assert stats["plan"]["hits"] == 1 and stats["plan"]["misses"] == 1
        client.close()

    def test_answer_space_round_trips_typed_scalars(self, server):
        client = CacheClient(server.url)
        # None is a legitimate cached answer ("the text does not say").
        values = (42, 1.5, "blue", None, True)
        entries = [(("fp", f"q-{value!r}", "any"), value) for value in values]
        assert put_answers(client, entries) == len(values)
        keys = [key for key, _ in entries] + [("fp", "never-asked", "any")]
        assert get_answers(client, keys) == (
            [(True, value) for value in values] + [(False, None)])
        client.close()

    def test_mget_mput_batch_round_trip(self, server):
        client = CacheClient(server.url)
        stored = client.mput("answer", [
            {"key": ["fp", f"q{i}", "int"], "value": i} for i in range(5)])
        assert stored == 5
        results = client.mget(
            "answer", [{"key": ["fp", "q1", "int"]},
                       {"key": ["fp", "q9", "int"]}])
        assert results[0] == {"ok": True, "hit": True, "value": 1}
        assert results[1] == {"ok": True, "hit": False}
        # A plan mget names each item's namespace; a request-level "ns"
        # is the default for items without one.
        assert put_plan(client, "lake-fp", QUERY, make_plan())["ok"]
        results = client.mget("plan", [{"key": QUERY, "ns": "lake-fp"},
                                       {"key": QUERY}], ns="other-fp")
        assert results[0]["hit"] and not results[1]["hit"]
        client.close()

    def test_mget_answers_as_one_get_per_key(self):
        """A batched ``mget`` replies byte for byte as a ``get`` per item
        would, with one hit or miss per key and the same LRU order; an
        item's ``ns`` and ``space`` override the request's."""
        def filled() -> CacheTierServer:
            tier = CacheTierServer(bind="tcp://127.0.0.1:0")
            for i in range(6):
                tier._dispatch("put", {"space": "answer",
                                       "key": ["fp", f"q{i}", "int"],
                                       "value": i})
            for ns in ("lake-a", "lake-b"):
                tier._dispatch("put", {"space": "plan", "ns": ns,
                                       "key": QUERY,
                                       "value": make_plan(ns).to_dict()})
            return tier

        request = {"space": "answer", "ns": "lake-a", "keys": [
            {"key": ["fp", "q3", "int"]}, {"key": ["fp", "q9", "int"]},
            {"key": ["fp", "q0", "int"]}, {"key": ["fp", "q3", "int"]},
            {"space": "plan", "key": QUERY},
            {"space": "plan", "key": QUERY, "ns": "lake-b"},
            {"space": "plan", "key": QUERY, "ns": "lake-c"},
            {"key": ["fp", "q5", "int"]}]}
        batched, single = filled(), filled()
        reply = batched._dispatch("mget", dict(request, op="mget"))
        expected = {"ok": True, "results": [
            single._dispatch("get", {**request, **item})
            for item in request["keys"]]}
        assert json.dumps(reply) == json.dumps(expected)
        assert [result["hit"] for result in reply["results"]] == [
            True, False, True, True, True, True, False, True]
        assert reply["results"][5]["value"]["steps"][0]["description"] \
            == "lake-b"
        for space in ("answer", "plan"):
            assert (batched._spaces[space].stats()
                    == single._spaces[space].stats())
            assert (batched._spaces[space].items()
                    == single._spaces[space].items())

    def test_a_malformed_mget_item_looks_no_key_up(self):
        tier = CacheTierServer(bind="tcp://127.0.0.1:0")
        tier._dispatch("put", {"space": "answer",
                               "key": ["fp", "q1", "int"], "value": 1})
        before = tier._spaces["answer"].stats()
        reply = tier._dispatch("mget", {"space": "answer", "keys": [
            {"key": ["fp", "q1", "int"]}, {"key": ["fp", "q2"]}]})
        assert not reply["ok"] and reply["error"].startswith("bad mget")
        # Every key is read before any is looked up: the good item
        # counted no hit.
        assert tier._spaces["answer"].stats() == before

    def test_mput_stores_as_one_put_per_entry(self):
        """A batched ``mput`` leaves the entries, LRU order and stats a
        ``put`` per item would, evictions included; an item's ``ns`` and
        ``space`` override the request's."""
        request = {"space": "answer", "ns": "lake-a", "entries": [
            {"key": ["fp", "q3", "int"], "value": 3},
            {"space": "plan", "key": QUERY,
             "value": make_plan("lake-a").to_dict()},
            {"key": ["fp", "q0", "int"], "value": 0},
            {"space": "plan", "key": QUERY, "ns": "lake-b",
             "value": make_plan("lake-b").to_dict()},
            {"key": ["fp", "q1", "int"], "value": 1},
            {"key": ["fp", "q3", "int"], "value": 33},
            {"key": ["fp", "q5", "int"], "value": 5}]}
        batched, single = (CacheTierServer(bind="tcp://127.0.0.1:0",
                                           answer_capacity=3)
                           for _ in range(2))
        reply = batched._dispatch("mput", dict(request, op="mput"))
        assert reply == {"ok": True, "stored": 7}
        for item in request["entries"]:
            assert single._dispatch("put", {**request, **item}) == {
                "ok": True}
        for space in ("answer", "plan"):
            assert (batched._spaces[space].items()
                    == single._spaces[space].items())
        assert batched.stats() == single.stats()
        assert [key for key, _ in batched._spaces["answer"].items()] == [
            ("fp", "q1", "int"), ("fp", "q3", "int"), ("fp", "q5", "int")]
        assert batched.stats()["answer"]["evictions"] == 1

    @pytest.mark.parametrize("bad", [
        {"key": ["fp", "q2"], "value": 2},
        {"space": "plan", "key": QUERY, "value": None}])
    def test_a_malformed_mput_entry_stores_nothing(self, bad):
        tier = CacheTierServer(bind="tcp://127.0.0.1:0")
        reply = tier._dispatch("mput", {"space": "answer", "ns": "x",
                                        "entries": [
            {"key": ["fp", "q1", "int"], "value": 1}, bad]})
        assert not reply["ok"] and reply["error"].startswith("bad mput")
        # Every entry is decoded before any is stored.
        assert tier._spaces["answer"].items() == []
        assert tier._spaces["plan"].items() == []

    def test_lru_bound_evicts_oldest(self):
        server = CacheTierServer(bind="tcp://127.0.0.1:0",
                                 answer_capacity=3).start()
        try:
            client = CacheClient(server.url)
            put_answers(client, [(("fp", f"q{i}", "int"), i)
                                 for i in range(5)])
            stats = client.stats()
            assert stats["answer"]["entries"] == 3
            assert stats["answer"]["evictions"] == 2
            assert get_answers(client, [("fp", "q0", "int"),
                                        ("fp", "q4", "int")]) == [
                (False, None), (True, 4)]
            client.close()
        finally:
            server.stop()

    def test_malformed_request_answers_instead_of_killing_connection(
            self, server):
        client = CacheClient(server.url)
        reply = client.request({"op": "get", "space": "plan"})  # no key/ns
        assert reply["ok"] is False and "bad get request" in reply["error"]
        reply = client.request({"op": "get", "space": "martian",
                                "ns": "x", "key": "y"})
        assert reply["ok"] is False
        reply = client.request({"op": "teleport"})
        assert reply["ok"] is False and "unknown op" in reply["error"]
        # The connection survived all three.
        assert client.stats()["protocol"] == "repro-cachenet/1"
        client.close()

    def test_put_validates_plan_payloads_at_the_wire(self, server):
        client = CacheClient(server.url)
        reply = client.request({"op": "put", "space": "plan", "ns": "x",
                                "key": "q",
                                "value": {"steps": [{"bogus": 1}]}})
        assert reply["ok"] is False
        assert client.stats()["plan"]["entries"] == 0
        client.close()

    def test_unexpected_validation_error_still_answers(self, server):
        client = CacheClient(server.url)
        # LogicalPlan.from_dict(None) raises AttributeError, outside the
        # KeyError/TypeError/ValueError family — the reply must still be
        # an error frame, not a dropped connection the client would burn
        # retries re-dialing.
        reply = client.request({"op": "put", "space": "plan", "ns": "x",
                                "key": "q", "value": None})
        assert reply["ok"] is False and "bad put request" in reply["error"]
        assert client.stats()["plan"]["entries"] == 0
        client.close()

    def test_oversized_request_fails_fast_and_keeps_connection(
            self, server):
        import repro.cachenet.protocol as protocol
        # Backoff chosen so any accidental retry blows the time budget.
        client = CacheClient(server.url, retries=2, backoff=5.0)
        client.ensure_connected()
        sock = client._sock
        original = protocol.MAX_FRAME_BYTES
        protocol.MAX_FRAME_BYTES = 64
        try:
            started = time.perf_counter()
            with pytest.raises(CacheUnavailable, match="frame limit"):
                client.request({"op": "put", "space": "answer",
                                "key": ["fp", "q", "str"],
                                "value": "x" * 200})
            assert time.perf_counter() - started < 1.0  # no retries
        finally:
            protocol.MAX_FRAME_BYTES = original
        # The healthy connection was kept, not dropped, and the client
        # was not marked down: the next request works immediately.
        assert client._sock is sock
        assert client.stats()["answer"]["entries"] == 0
        client.close()

    def test_wildcard_bind_renders_connectable_url(self):
        server = CacheTierServer(bind="tcp://0.0.0.0:0").start()
        try:
            # A client cannot dial a wildcard; url maps it to loopback.
            assert server.url.startswith("tcp://127.0.0.1:")
            client = CacheClient(server.url)
            client.ensure_connected()
            client.close()
        finally:
            server.stop()

    @pytest.mark.skipif(not _ipv6_loopback_available(),
                        reason="no IPv6 loopback on this host")
    def test_ipv6_bind_round_trip(self):
        server = CacheTierServer(bind="tcp://[::1]:0").start()
        try:
            assert server.url.startswith("tcp://[::1]:")
            client = CacheClient(server.url)
            put_answers(client, [(("fp", "q", "int"), 6)])
            assert get_answers(client, [("fp", "q", "int")]) == [(True, 6)]
            client.close()
        finally:
            server.stop()

    def test_unix_socket_transport(self, tmp_path):
        path = tmp_path / "tier.sock"
        server = CacheTierServer(bind=f"unix://{path}").start()
        try:
            assert server.url == f"unix://{path}"
            client = CacheClient(server.url)
            put_answers(client, [(("fp", "q", "int"), 7)])
            assert get_answers(client, [("fp", "q", "int")]) == [(True, 7)]
            client.close()
        finally:
            server.stop()
        assert not path.exists()  # socket file cleaned up


# ----------------------------------------------------------------------
# Persistence: the tier reuses the standard cache-file formats
# ----------------------------------------------------------------------

class TestPersistence:
    def test_flush_writes_standard_formats_loadable_by_local_caches(
            self, tmp_path):
        plan_file = tmp_path / "plans.json"
        answer_file = tmp_path / "answers.json"
        server = CacheTierServer(bind="tcp://127.0.0.1:0",
                                 plan_file=str(plan_file),
                                 answer_file=str(answer_file)).start()
        try:
            client = CacheClient(server.url)
            plan = make_plan()
            put_plan(client, "lake-fp", QUERY, plan)
            put_answers(client, [(("fp", "q", "int"), 3)])
            reply = client.flush()
            reply.pop("server_ms", None)
            assert reply == {"ok": True, "plans": 1, "answers": 1}
            client.close()
        finally:
            server.stop()
        # The files are the v1 formats the process-local caches speak.
        plans = PlanCache.load(plan_file)
        assert plans.get((QUERY, "lake-fp")).to_dict() == plan.to_dict()
        answers = AnswerCache.load(answer_file)
        assert answers.get(("fp", "q", "int")) == 3

    @pytest.mark.parametrize("cache_cls", CACHE_CLASSES,
                             ids=lambda cls: cls.space.name)
    def test_boot_from_a_file_keeps_the_configured_capacity(self, tmp_path,
                                                            cache_cls):
        """The file's own capacity (a smaller session cache's, say)
        never shrinks or grows the space the operator configured."""
        small = cache_cls(2)
        for tag in ("a", "b"):
            small.put(key(small, tag), value(small, tag))
        path = tmp_path / "small.json"
        small.save(path)
        name = cache_cls.space.name
        server = CacheTierServer(bind="tcp://127.0.0.1:0",
                                 **{f"{name}_capacity": 4096,
                                    f"{name}_file": str(path)}).start()
        try:
            client = CacheClient(server.url)
            assert client.stats()[name]["capacity"] == 4096
            assert client.stats()[name]["entries"] == 2
            tier_backed = cache_cls(8, tier=client)
            tier_backed.put_many((key(small, tag), value(small, tag))
                                 for tag in "cdefg")
            assert client.stats()[name]["entries"] == 7
            assert client.stats()[name]["evictions"] == 0
            client.close()
        finally:
            server.stop()
        # stop() flushed all seven at the configured capacity; a space
        # smaller than the file keeps the file's newest entries.
        assert json.loads(path.read_text())["capacity"] == 4096
        server = CacheTierServer(bind="tcp://127.0.0.1:0",
                                 **{f"{name}_capacity": 1,
                                    f"{name}_file": str(path)})
        stored = server.plans if name == "plan" else server.answers
        assert stored.capacity == 1
        assert [k for k, _ in stored.items()] == [key(small, "g")]

    def test_server_boots_warm_from_session_saved_files(self, tmp_path,
                                                        artwork_lake):
        plan_file = tmp_path / "plans.json"
        session = Session(artwork_lake)
        session.query("How many paintings are there?")
        assert session.save_plan_cache(plan_file) == 1
        session.close()
        server = CacheTierServer(bind="tcp://127.0.0.1:0",
                                 plan_file=str(plan_file)).start()
        try:
            client = CacheClient(server.url)
            assert client.stats()["plan"]["entries"] == 1
            fetched = get_plan(client, artwork_lake.name,
                               "How many paintings are there?")
            assert fetched is not None
            client.close()
        finally:
            server.stop()


# ----------------------------------------------------------------------
# Tier-backed caches
# ----------------------------------------------------------------------

class TestRemoteCaches:
    def test_local_front_absorbs_repeat_gets(self, server):
        client = CacheClient(server.url)
        cache = AnswerCache(8, tier=client)
        cache.put(("fp", "q", "int"), 5)
        requests_after_put = server.stats()["requests_total"]
        for _ in range(10):
            assert cache.get(("fp", "q", "int")) == 5
        # All ten hits were absorbed locally; no further wire traffic.
        assert server.stats()["requests_total"] == requests_after_put
        client.close()

    def test_remote_hit_fills_local_front_and_counts_metrics(self, server):
        writer = AnswerCache(8, tier=CacheClient(server.url))
        writer.put(("fp", "q", "int"), 5)
        metrics = MetricsRegistry()
        reader = AnswerCache(8, tier=CacheClient(server.url, metrics=metrics),
                             metrics=metrics)
        assert reader.get(("fp", "q", "int")) == 5   # tier hit
        assert reader.get(("fp", "q", "int")) == 5   # local hit
        assert reader.get(("fp", "other", "int")) is MISS
        counters = metrics.snapshot()["counters"]
        assert counters["cachenet_hits"] == 1
        assert counters["cachenet_misses"] == 1
        hist = metrics.snapshot()["histograms"]["cachenet_rpc_latency"]
        assert hist["count"] >= 2
        assert reader.hits == 2 and reader.misses == 1

    def test_remote_plan_cache_shares_plans_across_instances(self, server):
        plan = make_plan()
        key = (QUERY, "lake-fp")
        writer = PlanCache(8, tier=CacheClient(server.url))
        writer.put(key, plan)
        reader = PlanCache(8, tier=CacheClient(server.url))
        sent = []
        original = reader.tier.request

        def request(payload, **kwargs):
            sent.append(payload)
            return original(payload, **kwargs)
        reader.tier.request = request
        fetched = reader.get(key)
        assert fetched is not None
        assert fetched.to_dict() == plan.to_dict()
        assert reader.get(key) is fetched      # the local front answers
        assert reader.get(("unknown query", "lake-fp")) is None
        # A plan lookup is a one-key mget, namespaced by the lake name.
        assert [(p["op"], p["space"], p["keys"]) for p in sent] == [
            ("mget", "plan", [{"key": QUERY, "ns": "lake-fp"}]),
            ("mget", "plan", [{"key": "unknown query", "ns": "lake-fp"}])]
        assert reader.snapshot() == (2, 1, 0)

    def test_remote_caches_save_in_standard_format(self, server, tmp_path):
        cache = AnswerCache(8, tier=CacheClient(server.url))
        cache.put(("fp", "q", "int"), 5)
        path = tmp_path / "answers.json"
        assert cache.save(path) == 1
        assert json.loads(path.read_text())["format"] == \
            "repro-answer-cache/v1"
        assert AnswerCache.load(path).get(("fp", "q", "int")) == 5


# ----------------------------------------------------------------------
# Sessions sharing warmth through the tier
# ----------------------------------------------------------------------

class TestSessionIntegration:
    def test_second_session_starts_warm_from_the_tier(self, server,
                                                      artwork_lake):
        query = "How many paintings are there?"
        first = Session(artwork_lake, cache_url=server.url)
        first.query(query)
        first.close()

        second = Session(artwork_lake, cache_url=server.url)
        result = second.query(query)
        assert result.ok
        counters = second.metrics()["counters"]
        assert counters["cachenet_hits"] >= 1
        assert second.plan_cache.hits >= 1  # served through the drop-in
        second.close()

    def test_observability_snapshot_carries_server_stats(self, server,
                                                         artwork_lake):
        session = Session(artwork_lake, cache_url=server.url)
        session.query("How many paintings are there?")
        snapshot = session.observability_snapshot()
        assert snapshot["cachenet_server"]["plan"]["entries"] >= 1
        assert "cachenet_hit_rate" in snapshot["derived"]
        # The plain metrics snapshot stays purely local.
        assert "cachenet_server" not in session.metrics()
        session.close()

    def test_loaded_cache_files_are_published_to_the_tier(
            self, server, artwork_lake, tmp_path):
        query = "How many paintings are there?"
        producer = Session(artwork_lake)
        producer.query(query)
        plan_file = tmp_path / "plans.json"
        producer.save_plan_cache(plan_file)
        producer.close()

        publisher = Session(artwork_lake, cache_url=server.url)
        assert publisher.load_plan_cache(plan_file) == 1
        assert isinstance(publisher.plan_cache, PlanCache)
        assert publisher.plan_cache.tier is publisher._cache_client
        publisher.close()
        client = CacheClient(server.url)
        assert client.stats()["plan"]["entries"] == 1
        client.close()

    def test_publish_chunks_large_loaded_files(self, server, artwork_lake,
                                               tmp_path, monkeypatch):
        """A warm file bigger than one mput batch publishes as several
        bounded frames — never one frame over the protocol limit — and
        every entry still reaches the tier."""
        local = Session(artwork_lake)
        for i in range(40):
            local.answer_cache.put((f"fp{i}", "q", "int"), i)
        answer_file = tmp_path / "answers.json"
        assert local.save_answer_cache(answer_file) == 40
        local.close()

        monkeypatch.setattr(Session, "PUBLISH_BATCH_BYTES", 256)
        publisher = Session(artwork_lake, cache_url=server.url)
        batches = []
        original_mput = publisher._cache_client.mput

        def counting_mput(space, entries, ns=None):
            batches.append(len(entries))
            return original_mput(space, entries, ns=ns)

        monkeypatch.setattr(publisher._cache_client, "mput", counting_mput)
        assert publisher.load_answer_cache(answer_file) == 40
        publisher.close()
        assert len(batches) > 1    # chunked, not one oversized frame
        assert sum(batches) == 40  # nothing silently dropped
        client = CacheClient(server.url)
        assert client.stats()["answer"]["entries"] == 40
        client.close()

    def test_explicit_cache_instances_win_over_cache_url(self, server,
                                                         artwork_lake):
        local = PlanCache(4)
        session = Session(artwork_lake, cache_url=server.url,
                          plan_cache=local)
        assert session.plan_cache is local
        assert session.answer_cache.tier is session._cache_client
        session.close()


# ----------------------------------------------------------------------
# Concurrency: many clients, one tier
# ----------------------------------------------------------------------

def test_concurrent_clients_hammering_one_server(server):
    errors = []

    def worker(worker_id: int) -> None:
        try:
            client = CacheClient(server.url)
            for i in range(20):
                key = ("fp", f"w{worker_id}-q{i}", "int")
                put_answers(client, [(key, i)])
                assert get_answers(client, [key]) == [(True, i)]
            client.close()
        except Exception as exc:  # noqa: BLE001 - collected for the assert
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    stats = server.stats()
    assert stats["answer"]["hits"] == 160
    assert stats["connections_total"] == 8


def test_version_mismatch_closes_with_clear_error(server, monkeypatch):
    # Speak a bumped protocol version by patching the handshake frame the
    # client sends; the server must refuse and say which side to upgrade.
    import repro.cachenet.client as client_module
    monkeypatch.setattr(
        client_module, "hello_request",
        lambda: {"op": "hello", "protocol": "repro-cachenet",
                 "version": 999})
    client = CacheClient(server.url)
    with pytest.raises(CacheProtocolError, match="upgrade the older"):
        client.ensure_connected()
    # A protocol mismatch is terminal, not retried: the client closes.
    with pytest.raises(CacheUnavailable, match="closed"):
        client.request({"op": "stats"})
