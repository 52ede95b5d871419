"""Client side of the cache tier: the RPC plumbing.

:class:`CacheClient` owns one socket to a :class:`~repro.cachenet.server.
CacheTierServer` — lazy connect, version handshake, bounded connect and
request timeouts, retry-with-backoff, and a cooldown "down" state so a
dead server costs one failed connect per cooldown window instead of one
per lookup.  Transport failures surface as
:class:`~repro.cachenet.protocol.CacheUnavailable`; a protocol/version
mismatch surfaces as :class:`~repro.cachenet.protocol.CacheProtocolError`
and is deliberately *not* retried or absorbed (see the protocol module).

A :class:`CacheClient` passed as ``tier=`` to a
:class:`~repro.core.batch.PlanCache` or
:class:`~repro.core.answer_cache.AnswerCache` turns that cache into a
local write-through front over the tier (:mod:`repro.core.cache`): its
misses go out as one ``mget``, its puts as one ``mput``, and an
unreachable tier degrades it to a plain local cache.
"""

from __future__ import annotations

import socket
import threading
import time

from repro.cachenet.protocol import (CacheUnavailable, FrameError,
                                     check_hello_reply, hello_request,
                                     parse_cache_url, read_frame,
                                     write_frame)
from repro.obs.context import current_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import StageTrace


class CacheClient:
    """One connection to the cache tier, shared by a session's caches.

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

    def mget(self, space: str, keys: list[dict],
             ns: str | None = None) -> list:
        """One reply per ``{"key": ..., "ns": ...}`` item of *keys*, from
        one round trip; *ns* is the default for items without one."""
        request = {"op": "mget", "space": space, "keys": keys}
        if ns is not None:
            request["ns"] = ns
        return self.request(request).get("results", [])

    def mput(self, space: str, entries: list[dict],
             ns: str | None = None) -> int:
        """Store every ``{"key": ..., "ns": ..., "value": ...}`` entry in
        one round trip; returns how many the tier took."""
        request = {"op": "mput", "space": space, "entries": entries}
        if ns is not None:
            request["ns"] = ns
        return self.request(request).get("stored", 0)

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
        """Ask the server to persist the plan and answer spaces now."""
        return self.request({"op": "flush"})

