"""Client side of the cache tier: RPC plumbing + drop-in caches.

:class:`CacheClient` owns one socket to a :class:`~repro.cachenet.server.
CacheTierServer` — lazy connect, version handshake, bounded connect and
request timeouts, retry-with-backoff, and a cooldown "down" state so a
dead server costs one failed connect per cooldown window instead of one
per lookup.  Transport failures surface as
:class:`~repro.cachenet.protocol.CacheUnavailable`; a protocol/version
mismatch surfaces as :class:`~repro.cachenet.protocol.CacheProtocolError`
and is deliberately *not* retried or absorbed (see the protocol module).

:class:`RemotePlanCache` and :class:`RemoteAnswerCache` subclass the
process-local caches, so everything that takes a ``PlanCache`` /
``AnswerCache`` — the engine, ``execute_batch``, worker lanes, ``save``
persistence — takes them unchanged.  The inherited LRU acts as a local
write-through front: a ``get`` that hits locally never touches the wire;
a local miss asks the tier and installs the reply locally; a ``put``
installs locally then forwards best-effort.  When the tier is
unreachable both degrade to plain local caches, counting each degraded
operation in ``cachenet_fallbacks`` — a down server slows warm-up, it
never fails a query.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Iterable, Sequence

from repro.cachenet.protocol import (CacheUnavailable, FrameError,
                                     check_hello_reply, hello_request,
                                     parse_cache_url, read_frame,
                                     write_frame)
from repro.core.answer_cache import MISS, AnswerCache, AnswerKey
from repro.core.batch import PlanCache
from repro.core.plan import BoundPlan, LogicalPlan
from repro.data.datatypes import decode_scalar, encode_scalar
from repro.obs.context import current_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import StageTrace


class CacheClient:
    """One connection to the cache tier, shared by both remote caches.

    Thread-safe: the strict request/response protocol is serialized
    under one lock, so any number of engine threads may share a client.
    All timeouts are bounded; *retries* transport failures are absorbed
    with *backoff* sleeps in between, after which the client enters a
    *down_cooldown*-second down state in which every call fails fast
    with :class:`CacheUnavailable` (no connect attempts) — then the next
    call probes again.
    """

    def __init__(self, url: str, connect_timeout: float = 0.5,
                 request_timeout: float = 2.0, retries: int = 2,
                 backoff: float = 0.05, down_cooldown: float = 1.0,
                 metrics: MetricsRegistry | None = None):
        self.url = url
        self.connect_timeout = connect_timeout
        self.request_timeout = request_timeout
        self.retries = retries
        self.backoff = backoff
        self.down_cooldown = down_cooldown
        self.metrics = metrics
        self._family, self._address = parse_cache_url(url)
        self._lock = threading.RLock()
        self._sock: socket.socket | None = None
        self._down_until = 0.0
        self._closed = False

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------

    def _connect(self,
                 request_timeout: float | None = None) -> socket.socket:
        if self._family == "unix":
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self.connect_timeout)
            try:
                sock.connect(self._address)
            except OSError:
                sock.close()
                raise
        else:
            # create_connection resolves hostnames and handles IPv4 and
            # IPv6 literals alike (cleaning up after itself on failure).
            sock = socket.create_connection(
                self._address, timeout=self.connect_timeout)
        sock.settimeout(request_timeout if request_timeout is not None
                        else self.request_timeout)
        try:
            write_frame(sock, hello_request())
            reply = read_frame(sock)
        except (OSError, FrameError):
            sock.close()
            raise
        if reply is None:
            sock.close()
            raise ConnectionError(f"cache server at {self.url} closed the "
                                  f"connection during the handshake")
        try:
            check_hello_reply(reply, self.url)  # CacheProtocolError is
        except Exception:                       # terminal: don't retry it
            sock.close()
            self._closed = True
            raise
        return sock

    def _drop_socket(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def request(self, payload: dict, *, timeout: float | None = None,
                retries: int | None = None) -> dict:
        """One RPC round trip; retries transport failures, never protocol
        errors.  Raises :class:`CacheUnavailable` when the tier cannot be
        reached (including while in the post-failure down state).

        The down/closed checks run *before* the socket lock, and the
        backoff sleeps run *outside* it, so while one thread probes a
        dead server its peers fail fast in parallel instead of queueing
        behind the probe; a reconnect attempt additionally pre-marks the
        client down (cleared on success) so even threads that raced past
        the entry check bail out on their next call.

        *timeout*/*retries* override the per-request socket timeout and
        retry count for this one call — the bounded-scrape path
        (:meth:`~repro.session.Session.cachenet_stats`) uses them so a
        hung server can never stall a ``/metrics`` scrape for the full
        default budget.

        When a distributed trace is active on this thread
        (:func:`~repro.obs.context.current_trace`), the request carries
        the trace as a ``trace`` field and the completed round trip is
        recorded as a ``cachenet:<op>`` span in that query's telemetry.
        """
        if self._closed:
            raise CacheUnavailable(
                f"cache client for {self.url} is closed")
        if time.monotonic() < self._down_until:
            raise CacheUnavailable(
                f"cache server at {self.url} is down (cooling off)")
        op = payload.get("op")
        active = current_trace() if op and op != "hello" else None
        if active is not None:
            payload = {**payload, "trace": active.context.to_dict()}
        attempts = (self.retries if retries is None else retries) + 1
        last_error: Exception | None = None
        for attempt in range(attempts):
            if attempt:
                time.sleep(self.backoff * attempt)
            with self._lock:
                if self._closed:
                    raise CacheUnavailable(
                        f"cache client for {self.url} is closed")
                try:
                    if self._sock is None:
                        # Probing: concurrent callers see the down mark
                        # and fail fast while this thread reconnects.
                        self._down_until = (time.monotonic()
                                            + self.down_cooldown)
                        self._sock = self._connect(timeout)
                        self._down_until = 0.0
                    self._sock.settimeout(
                        timeout if timeout is not None
                        else self.request_timeout)
                    started = time.perf_counter()
                    try:
                        write_frame(self._sock, payload)
                    except FrameError as exc:
                        # Raised by the local size check before any bytes
                        # hit the wire: the payload itself violates the
                        # protocol, so no retry can succeed and the
                        # (healthy) connection is worth keeping.
                        raise CacheUnavailable(
                            f"request to {self.url} exceeds the protocol "
                            f"frame limit: {exc}") from exc
                    reply = read_frame(self._sock)
                    if reply is None:
                        raise ConnectionError(
                            f"cache server at {self.url} closed the "
                            f"connection mid-request")
                    elapsed = time.perf_counter() - started
                    if self.metrics is not None:
                        self.metrics.observe("cachenet_rpc_latency",
                                             elapsed)
                    if active is not None:
                        self._record_rpc_span(active, op, elapsed, reply)
                    return reply
                except (OSError, FrameError, ConnectionError) as exc:
                    last_error = exc
                    self._drop_socket()
                    if self.metrics is not None:
                        self.metrics.increment("cachenet_rpc_errors")
        self._down_until = time.monotonic() + self.down_cooldown
        raise CacheUnavailable(
            f"cache server at {self.url} unreachable after "
            f"{attempts} attempts: {last_error}") from last_error

    @staticmethod
    def _record_rpc_span(active, op: str, elapsed: float,
                         reply: dict) -> None:
        """One ``cachenet:<op>`` child span into the active query's
        telemetry.  These spans are locality-dependent (they exist only
        when the local front cache missed) and are dropped from the
        canonical cross-backend form, so wall-clock notes are fine here.
        """
        notes: dict = {"op": op,
                       "trace_id": active.context.trace_id}
        server_ms = reply.get("server_ms")
        if isinstance(server_ms, (int, float)):
            notes["server_ms"] = server_ms
        try:
            active.telemetry.add_span(StageTrace(
                stage=f"cachenet:{op}",
                duration_ms=elapsed * 1000.0, notes=notes))
        except Exception:  # noqa: BLE001 - tracing must never fail an RPC
            pass

    def ensure_connected(self) -> None:
        """Probe the tier now (connect + handshake).

        Raises :class:`CacheUnavailable` when the server is down and
        :class:`~repro.cachenet.protocol.CacheProtocolError` on a version
        mismatch — the session uses this to distinguish "degrade quietly"
        from "fail loudly" at construction time.
        """
        self.request({"op": "stats"})

    def close(self) -> None:
        with self._lock:
            self._drop_socket()
            self._closed = True

    # ------------------------------------------------------------------
    # Typed operations
    # ------------------------------------------------------------------

    def get_plan(self, ns: str, query: str) -> dict | None:
        """The tier's plan dict for (*ns*, *query*), or ``None``."""
        reply = self.request({"op": "get", "space": "plan", "ns": ns,
                              "key": query})
        return reply.get("value") if reply.get("hit") else None

    def put_plan(self, ns: str, query: str, plan_dict: dict) -> None:
        self.request({"op": "put", "space": "plan", "ns": ns,
                      "key": query, "value": plan_dict})

    def mget(self, space: str, keys: list, ns: str | None = None) -> list:
        request = {"op": "mget", "space": space,
                   "keys": [{"key": key} for key in keys]}
        if ns is not None:
            request["ns"] = ns
        return self.request(request).get("results", [])

    def mput(self, space: str, entries: list[dict],
             ns: str | None = None) -> int:
        request = {"op": "mput", "space": space, "entries": entries}
        if ns is not None:
            request["ns"] = ns
        return self.request(request).get("stored", 0)

    def invalidate_plans(self, ns: str) -> int:
        """Drop the tier's plans for lake namespace *ns*; returns count."""
        reply = self.request({"op": "invalidate", "space": "plan",
                              "ns": ns})
        return reply.get("dropped", 0)

    def stats(self, timeout: float | None = None,
              retries: int | None = None) -> dict:
        """The server's own STATS snapshot (entries, hits, counters).

        *timeout*/*retries* bound this one call — metrics scrapes pass a
        small budget so a hung server degrades the scrape instead of
        stalling it.
        """
        reply = self.request({"op": "stats"}, timeout=timeout,
                             retries=retries)
        return reply.get("stats", {})

    def flush(self) -> dict:
        """Ask the server to persist both spaces now."""
        return self.request({"op": "flush"})


class _RemoteCacheMixin:
    """Shared bookkeeping for the two remote drop-ins."""

    _client: CacheClient
    _metrics: MetricsRegistry | None

    def _metric(self, name: str, value: int = 1) -> None:
        if self._metrics is not None and value:
            self._metrics.increment(name, value)

    @property
    def client(self) -> CacheClient:
        return self._client


class RemotePlanCache(_RemoteCacheMixin, PlanCache):
    """A :class:`PlanCache` backed by the shared tier.

    Keys stay ``(query, lake fingerprint)``; the fingerprint doubles as
    the tier namespace, so invalidating a changed lake drops exactly its
    plans.  Entries fetched from the tier re-enter through
    :meth:`BoundPlan.from_dict` — the wire carries dicts (the plan dict,
    with the bound replies under its additive ``"bindings"`` key), the
    cache holds validated IR.
    """

    def __init__(self, client: CacheClient, capacity: int = 128,
                 metrics: MetricsRegistry | None = None):
        super().__init__(capacity)
        self._client = client
        self._metrics = metrics

    def _local_put(self, key: tuple[str, str], plan: BoundPlan) -> None:
        """Plain LRU insert: no remote forwarding, no hit/miss counting
        (used to install tier replies without echoing them back)."""
        with self._lock:
            self._entries[key] = plan
            self._entries.move_to_end(key)
            if len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1

    def get(self, key: tuple[str, str]) -> BoundPlan | None:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._hits += 1
                return self._entries[key]
        query, fingerprint = key
        try:
            value = self._client.get_plan(ns=fingerprint, query=query)
        except CacheUnavailable:
            self._metric("cachenet_fallbacks")
            value = None
        else:
            self._metric("cachenet_hits" if value is not None
                         else "cachenet_misses")
        if value is not None:
            plan = BoundPlan.from_dict(value)
            self._local_put(key, plan)
            with self._lock:
                self._hits += 1
            return plan
        with self._lock:
            self._misses += 1
        return None

    def put(self, key: tuple[str, str],
            plan: BoundPlan | LogicalPlan) -> None:
        plan = BoundPlan.of(plan)
        self._local_put(key, plan)
        query, fingerprint = key
        try:
            self._client.put_plan(ns=fingerprint, query=query,
                                  plan_dict=plan.to_dict())
        except CacheUnavailable:
            self._metric("cachenet_fallbacks")


class RemoteAnswerCache(_RemoteCacheMixin, AnswerCache):
    """An :class:`AnswerCache` backed by the shared tier.

    Keys are ``(object content fingerprint, question, answer type)`` —
    self-invalidating, so the tier needs no answer-space invalidation
    protocol: changed content produces new keys.  Values cross the wire
    through :func:`encode_scalar`/:func:`decode_scalar`, the same codec
    the file persistence uses.
    """

    def __init__(self, client: CacheClient, capacity: int = 65536,
                 metrics: MetricsRegistry | None = None):
        super().__init__(capacity)
        self._client = client
        self._metrics = metrics

    def get_many(self, keys: Sequence[AnswerKey]) -> list[object]:
        """Local front first; the keys it lacks go to the tier in one
        ``mget``, and what the tier holds is installed locally.  Each key
        counts one hit or one miss wherever it was found; a tier that is
        down costs one ``cachenet_fallbacks`` and reads as all-missed."""
        with self._lock:
            found = self._take(keys)
        absent = [slot for slot, answer in enumerate(found)
                  if answer is MISS]
        if not absent:
            return found
        try:
            replies = self._client.mget(
                "answer", [list(keys[slot]) for slot in absent])
        except CacheUnavailable:
            self._metric("cachenet_fallbacks")
            replies = []
        fetched = []
        for slot, reply in zip(absent, replies):
            if reply.get("hit"):
                found[slot] = decode_scalar(reply.get("value"))
                fetched.append((keys[slot], found[slot]))
        self._metric("cachenet_hits", len(fetched))
        self._metric("cachenet_misses", len(replies) - len(fetched))
        self.install(fetched)
        with self._lock:
            self._hits += len(fetched)
            self._misses += len(absent) - len(fetched)
        return found

    def install(self, entries: Iterable[tuple[AnswerKey, object]]) -> None:
        """Store in the local front only — for entries the tier already
        holds or is sent separately (never forwarded, never journaled
        by a worker lane as fresh inference)."""
        AnswerCache.put_many(self, entries)

    def put_many(self,
                 entries: Iterable[tuple[AnswerKey, object]]) -> None:
        """Install locally, then forward in one best-effort ``mput``."""
        entries = list(entries)
        if not entries:
            return
        self.install(entries)
        try:
            self._client.mput("answer", [
                {"key": list(key), "value": encode_scalar(answer)}
                for key, answer in entries])
        except CacheUnavailable:
            self._metric("cachenet_fallbacks")
