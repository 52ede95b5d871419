"""The shared cache tier server (``repro cache-server``).

One :class:`CacheTierServer` holds the fleet's warm state: a ``plan``
space and an ``answer`` space, stored in the very same
:class:`~repro.core.batch.PlanCache` / :class:`~repro.core.answer_cache.
AnswerCache` structures every process already uses locally — which is
what makes file persistence free (``--plan-file`` / ``--answer-file``
write the exact ``repro-plan-cache/v1`` / ``repro-answer-cache/v1``
formats, so a tier snapshot and a ``--plan-cache-file`` from any session
are interchangeable).  Values are validated on the way in: a ``put`` into
the plan space round-trips through
:meth:`~repro.core.plan.BoundPlan.from_dict` (the plan dict plus its
optional ``"bindings"``), so a corrupt payload is rejected at the wire
instead of poisoning every future replica.

The server is deliberately stdlib-threads-plus-sockets: one daemon
thread per connection over :mod:`socketserver`, one strict
request/response loop per thread (see :mod:`repro.cachenet.protocol`),
all state behind the caches' own locks.  Requests are a few hundred
bytes of JSON and the store operations are dict lookups, so fan-in from
M servers × N lanes is bounded by socket throughput, not compute.

Run it standalone::

    repro cache-server --bind tcp://127.0.0.1:9009 \
        --plan-file tier-plans.json --answer-file tier-answers.json

or embed it (tests, benchmarks)::

    server = CacheTierServer(bind="tcp://127.0.0.1:0").start()
    session = Session("artwork", cache_url=server.url)
"""

from __future__ import annotations

import argparse
import signal
import socket
import socketserver
import threading
import time
from pathlib import Path

from repro.cachenet.protocol import (PROTOCOL_NAME, PROTOCOL_VERSION,
                                     FrameError, parse_cache_url,
                                     read_frame, write_frame)
from repro.core.answer_cache import AnswerCache
from repro.core.batch import PlanCache
from repro.core.plan import BoundPlan
from repro.data.datatypes import decode_scalar, encode_scalar

DEFAULT_PLAN_CAPACITY = 4096
DEFAULT_ANSWER_CAPACITY = 65536


class _ConnectionHandler(socketserver.BaseRequestHandler):
    """One client connection: handshake first, then request/response."""

    def handle(self) -> None:  # noqa: D102 - socketserver contract
        tier: CacheTierServer = self.server.tier  # type: ignore[attr-defined]
        tier._count("connections_total")
        with tier._connections_lock:
            tier._open_connections.add(self.request)
        try:
            self._serve_requests(tier)
        finally:
            with tier._connections_lock:
                tier._open_connections.discard(self.request)

    def _serve_requests(self, tier: "CacheTierServer") -> None:
        handshook = False
        while True:
            try:
                request = read_frame(self.request)
            except FrameError:
                return  # garbage traffic; drop the connection
            except OSError:
                return  # socket severed under us (server stopping)
            if request is None:
                return
            tier._count("requests_total")
            op = request.get("op")
            # Distributed-trace propagation: callers may attach their
            # TraceContext as a "trace" field; the server counts traced
            # requests (stats stays wall-clock free) and reports its own
            # handling time back so client-side cachenet spans can split
            # wire time from server time.
            if isinstance(request.get("trace"), dict):
                tier._count("traced_requests_total")
            if op == "hello":
                reply = tier._handle_hello(request)
                handshook = reply.get("ok", False)
            elif not handshook:
                reply = {"ok": False, "error": "handshake required: send "
                                               "'hello' first"}
            else:
                started = time.perf_counter()
                reply = tier._dispatch(op, request)
                reply["server_ms"] = round(
                    (time.perf_counter() - started) * 1000.0, 3)
            try:
                write_frame(self.request, reply)
            except OSError:
                return


class _ThreadingTCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class _ThreadingTCP6Server(_ThreadingTCPServer):
    address_family = socket.AF_INET6


if hasattr(socketserver, "UnixStreamServer"):
    class _ThreadingUnixServer(socketserver.ThreadingMixIn,
                               socketserver.UnixStreamServer):
        daemon_threads = True
else:  # pragma: no cover - platforms without AF_UNIX
    _ThreadingUnixServer = None


class CacheTierServer:
    """The shared plan/answer cache tier behind a socket.

    *bind* is a cachenet URL (``tcp://host:port``, port 0 for ephemeral,
    or ``unix:///path.sock``).  *plan_file* / *answer_file* enable
    persistence: loaded at construction when present, written by the
    ``flush`` operation, and written again on :meth:`stop` — in the
    standard cache-file formats, atomically (temp file + ``os.replace``).
    """

    def __init__(self, bind: str = "tcp://127.0.0.1:9009",
                 plan_capacity: int = DEFAULT_PLAN_CAPACITY,
                 answer_capacity: int = DEFAULT_ANSWER_CAPACITY,
                 plan_file: str | None = None,
                 answer_file: str | None = None,
                 quiet: bool = True):
        self.bind = bind
        self.plan_file = plan_file
        self.answer_file = answer_file
        self.quiet = quiet
        self.plans = (PlanCache.load(plan_file)
                      if plan_file and Path(plan_file).exists()
                      else PlanCache(plan_capacity))
        self.answers = (AnswerCache.load(answer_file)
                        if answer_file and Path(answer_file).exists()
                        else AnswerCache(answer_capacity))
        self._counters: dict[str, int] = {}
        self._counter_lock = threading.Lock()
        self._server: socketserver.BaseServer | None = None
        self._thread: threading.Thread | None = None
        self._unix_path: str | None = None
        self._stopped = threading.Event()
        self._open_connections: set = set()
        self._connections_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "CacheTierServer":
        """Bind and serve on a background thread; returns ``self``."""
        family, address = parse_cache_url(self.bind)
        if family == "unix":
            if _ThreadingUnixServer is None:  # pragma: no cover
                raise OSError("this platform has no AF_UNIX sockets; "
                              "use a tcp:// bind")
            path = Path(address)
            if path.exists():
                path.unlink()  # stale socket from a killed predecessor
            self._server = _ThreadingUnixServer(str(path),
                                                _ConnectionHandler)
            self._unix_path = str(path)
        else:
            host = address[0]
            server_cls = (_ThreadingTCP6Server if ":" in host
                          else _ThreadingTCPServer)
            self._server = server_cls(address, _ConnectionHandler)
        self._server.tier = self  # type: ignore[attr-defined]
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        name="repro-cachenet",
                                        daemon=True)
        self._thread.start()
        self._say(f"cachenet serving on {self.url} "
                  f"[plan_capacity={self.plans.capacity} "
                  f"answer_capacity={self.answers.capacity} "
                  f"plans={len(self.plans)} answers={len(self.answers)}]")
        return self

    @property
    def url(self) -> str:
        """A cachenet URL clients can actually dial.

        Wildcard binds (``0.0.0.0`` / ``::``) are rendered as the
        matching loopback — a client cannot connect to a wildcard —
        and IPv6 hosts come back bracketed, so the value always
        round-trips through :func:`parse_cache_url`.
        """
        if self._unix_path is not None:
            return f"unix://{self._unix_path}"
        if self._server is not None:
            host, port = self._server.server_address[:2]
            if host in ("0.0.0.0", ""):
                host = "127.0.0.1"
            elif host == "::":
                host = "::1"
            if ":" in host:
                host = f"[{host}]"
            return f"tcp://{host}:{port}"
        return self.bind

    def stop(self) -> None:
        """Flush (when persistence is configured) and stop serving."""
        if self._stopped.is_set():
            return
        self._stopped.set()
        if self.plan_file or self.answer_file:
            self.flush()
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
        # Sever established connections too, so a stopped server looks
        # exactly like a dead process to its clients (handler threads
        # would otherwise keep serving already-open sockets forever).
        with self._connections_lock:
            open_connections = list(self._open_connections)
        for connection in open_connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                connection.close()
            except OSError:
                pass
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        if self._unix_path is not None:
            Path(self._unix_path).unlink(missing_ok=True)

    def flush(self) -> tuple[int, int]:
        """Persist both spaces; returns ``(plans, answers)`` written."""
        self._count("flushes_total")
        plans_written = answers_written = 0
        if self.plan_file:
            plans_written = self.plans.save(self.plan_file)
        if self.answer_file:
            answers_written = self.answers.save(self.answer_file)
        self._say(f"flushed {plans_written} plans -> {self.plan_file}, "
                  f"{answers_written} answers -> {self.answer_file}")
        return plans_written, answers_written

    # ------------------------------------------------------------------
    # Request dispatch (called from connection-handler threads)
    # ------------------------------------------------------------------

    def _handle_hello(self, request: dict) -> dict:
        if (request.get("protocol") != PROTOCOL_NAME
                or request.get("version") != PROTOCOL_VERSION):
            return {"ok": False, "protocol": PROTOCOL_NAME,
                    "version": PROTOCOL_VERSION,
                    "error": f"protocol mismatch: server speaks "
                             f"{PROTOCOL_NAME} v{PROTOCOL_VERSION}, "
                             f"client sent {request.get('protocol')!r} "
                             f"v{request.get('version')!r}; upgrade the "
                             f"older side"}
        return {"ok": True, "protocol": PROTOCOL_NAME,
                "version": PROTOCOL_VERSION}

    def _dispatch(self, op: object, request: dict) -> dict:
        try:
            if op == "get":
                return self._handle_get(request)
            if op == "put":
                return self._handle_put(request)
            if op == "mget":
                return {"ok": True,
                        "results": [self._handle_get({**request, **item})
                                    for item in request.get("keys", [])]}
            if op == "mput":
                for item in request.get("entries", []):
                    self._handle_put({**request, **item})
                return {"ok": True,
                        "stored": len(request.get("entries", []))}
            if op == "invalidate":
                return self._handle_invalidate(request)
            if op == "stats":
                return {"ok": True, "stats": self.stats()}
            if op == "flush":
                plans, answers = self.flush()
                return {"ok": True, "plans": plans, "answers": answers}
            return {"ok": False, "error": f"unknown op {op!r}"}
        except Exception as exc:  # noqa: BLE001 - reply, don't die
            # A malformed request must answer, not kill the connection:
            # whatever plan/scalar validation raises (KeyError,
            # AttributeError, a ReproError subclass, ...) becomes an
            # error reply instead of a dropped socket the client would
            # burn retries re-dialing.
            return {"ok": False,
                    "error": f"bad {op} request: "
                             f"{type(exc).__name__}: {exc}"}

    def _handle_get(self, request: dict) -> dict:
        space = request["space"]
        if space == "plan":
            plan = self.plans.get((request["key"], request["ns"]))
            if plan is None:
                return {"ok": True, "hit": False}
            return {"ok": True, "hit": True, "value": plan.to_dict()}
        if space == "answer":
            fingerprint, question, answer_type = request["key"]
            answer = self.answers.get((fingerprint, question, answer_type))
            if answer is AnswerCache.MISS:
                return {"ok": True, "hit": False}
            return {"ok": True, "hit": True,
                    "value": encode_scalar(answer)}
        raise ValueError(f"unknown space {space!r}")

    def _handle_put(self, request: dict) -> dict:
        space = request["space"]
        if space == "plan":
            # from_dict round-trip: validation at the wire, and the GET
            # path serves a canonical re-encoding, never raw client bytes.
            plan = BoundPlan.from_dict(request["value"])
            self.plans.put((request["key"], request["ns"]), plan)
            return {"ok": True}
        if space == "answer":
            fingerprint, question, answer_type = request["key"]
            self.answers.put((fingerprint, question, answer_type),
                             decode_scalar(request["value"]))
            return {"ok": True}
        raise ValueError(f"unknown space {space!r}")

    def _handle_invalidate(self, request: dict) -> dict:
        space = request["space"]
        self._count("invalidations_total")
        if space == "plan":
            ns = request.get("ns")
            dropped = self.plans.drop_fingerprint(ns)
            return {"ok": True, "dropped": dropped}
        if space == "answer":
            dropped = len(self.answers)
            self.answers.clear()
            return {"ok": True, "dropped": dropped}
        raise ValueError(f"unknown space {space!r}")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Counter snapshot: per-space entries/hits/misses/evictions plus
        server-level request counters.  Deterministically ordered and
        wall-clock free, so two identical runs snapshot identically."""
        plan_hits, plan_misses, plan_evictions = self.plans.snapshot()
        ans_hits, ans_misses, ans_evictions = self.answers.snapshot()
        with self._counter_lock:
            counters = {name: self._counters[name]
                        for name in sorted(self._counters)}
        return {
            "protocol": f"{PROTOCOL_NAME}/{PROTOCOL_VERSION}",
            "plan": {"entries": len(self.plans),
                     "capacity": self.plans.capacity,
                     "hits": plan_hits, "misses": plan_misses,
                     "evictions": plan_evictions},
            "answer": {"entries": len(self.answers),
                       "capacity": self.answers.capacity,
                       "hits": ans_hits, "misses": ans_misses,
                       "evictions": ans_evictions},
            **counters,
        }

    def _count(self, name: str) -> None:
        with self._counter_lock:
            self._counters[name] = self._counters.get(name, 0) + 1

    def _say(self, message: str) -> None:
        if not self.quiet:
            print(f"[cachenet] {message}", flush=True)


# ----------------------------------------------------------------------
# CLI (``repro cache-server``)
# ----------------------------------------------------------------------

def build_arg_parser() -> argparse.ArgumentParser:
    from repro.cliargs import positive_int
    parser = argparse.ArgumentParser(
        prog="repro cache-server",
        description="Serve the shared plan/answer cache tier every lane, "
                    "process, and replica can warm from "
                    "(length-prefixed-JSON protocol; see docs/caching.md).")
    parser.add_argument("--bind", default="tcp://127.0.0.1:9009",
                        help="bind address: tcp://host:port (port 0 is "
                             "ephemeral) or unix:///path.sock "
                             "(default: tcp://127.0.0.1:9009)")
    parser.add_argument("--plan-capacity", type=positive_int,
                        default=DEFAULT_PLAN_CAPACITY,
                        help=f"LRU bound of the plan space (default: "
                             f"{DEFAULT_PLAN_CAPACITY})")
    parser.add_argument("--answer-capacity", type=positive_int,
                        default=DEFAULT_ANSWER_CAPACITY,
                        help=f"LRU bound of the answer space (default: "
                             f"{DEFAULT_ANSWER_CAPACITY})")
    parser.add_argument("--plan-file", metavar="PATH", default=None,
                        help="plan-space persistence file (standard "
                             "repro-plan-cache/v1 format): loaded at boot "
                             "if present, written on 'flush' and SIGTERM")
    parser.add_argument("--answer-file", metavar="PATH", default=None,
                        help="answer-space persistence file (standard "
                             "repro-answer-cache/v1 format): loaded at "
                             "boot if present, written on 'flush' and "
                             "SIGTERM")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    server = CacheTierServer(
        bind=args.bind, plan_capacity=args.plan_capacity,
        answer_capacity=args.answer_capacity, plan_file=args.plan_file,
        answer_file=args.answer_file, quiet=False)
    server.start()
    done = threading.Event()

    def _shutdown(signum: int, _frame: object) -> None:
        print(f"[cachenet] signal {signum}: flushing and stopping",
              flush=True)
        done.set()

    signal.signal(signal.SIGTERM, _shutdown)
    signal.signal(signal.SIGINT, _shutdown)
    done.wait()
    server.stop()
    print("[cachenet] stopped", flush=True)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
