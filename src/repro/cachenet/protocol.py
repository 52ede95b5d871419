"""The cachenet wire protocol: length-prefixed JSON frames.

One frame is a 4-byte big-endian length followed by that many bytes of
UTF-8 JSON.  Every payload the tier moves — logical plans, modality
answers — is already losslessly JSON-serializable (the PR 3 plan IR,
:func:`~repro.data.datatypes.encode_scalar`), so the protocol never needs
a binary encoding; the framing only exists so a stream socket carries
discrete messages.

A connection is a strict request/response sequence initiated by the
client, and the first request MUST be ``hello`` carrying
:data:`PROTOCOL_VERSION` — the server refuses every other operation until
the handshake succeeds, and refuses the handshake itself on a version
mismatch, so an old client talking to a new server (or vice versa) fails
with one clear error instead of corrupt cache traffic.

Operations (the ``op`` field of a request):

=============  ========================================================
``hello``      version handshake; must be first on every connection
``get``        one lookup: ``space`` + ``ns`` + ``key`` → hit/value
``put``        one insert: ``space`` + ``ns`` + ``key`` + ``value``
``mget``       batched ``get`` over ``keys`` (one round trip)
``mput``       batched ``put`` over ``entries``
``stats``      the server's counter snapshot (entries, hits, misses, …)
``flush``      persist the plan and answer spaces to their files now
=============  ========================================================

Additive fields (version-compatible, ignored by peers that predate
them): any non-``hello`` request MAY carry a ``trace`` object —
``{"trace_id": <32 hex>, "span_id": <16 hex>}``, the caller's
:class:`~repro.obs.TraceContext` — so the server can attribute its
handling to the caller's distributed trace; any non-``hello`` reply MAY
carry ``server_ms``, the server-side handling time of that request,
which clients fold into their ``cachenet:<op>`` spans.

Spaces mirror the process-local caches: ``plan`` entries are
namespaced by the lake name, ``answer`` keys are per-object content
fingerprints, and ``render`` keys are the scene keys of lazy images,
whose values are their raster digests.  None serves a stale value: a
plan entry's replies are reused only for digest-identical prompts, a
changed object has another answer key, and a changed scene or renderer
another scene key.  A server that predates the ``render`` space answers
its requests with an error reply, which a client reads as all misses.
"""

from __future__ import annotations

import json
import socket
import struct

from repro.errors import ReproError

#: Bumped on any incompatible change to the frame or message shapes.
#: Client and server compare this in the ``hello`` handshake and refuse
#: to talk across a mismatch.
PROTOCOL_VERSION = 1

#: Identifies the protocol family in the handshake (guards against a
#: cachenet client accidentally pointed at some other JSON service).
PROTOCOL_NAME = "repro-cachenet"

#: The cache spaces the tier serves.
SPACES = ("plan", "answer", "render")

#: Hard bound on one frame; a 32 MiB frame is already far beyond any
#: legitimate plan or answer payload, so anything bigger is a framing
#: error (or garbage traffic), not data.
MAX_FRAME_BYTES = 32 * 1024 * 1024

_LENGTH = struct.Struct(">I")


class CacheNetError(ReproError):
    """Base class for every cachenet failure."""


class CacheUnavailable(CacheNetError):
    """The tier could not be reached (down, timed out, connection lost).

    Recoverable by design: clients catch this and degrade to local-only
    operation, so an unreachable tier slows warm-up but never fails a
    query.
    """


class CacheProtocolError(CacheNetError):
    """The peer speaks a different protocol (or version).

    Deliberately *not* recoverable by degradation — a version mismatch is
    a deployment error that must surface, not be silently absorbed as
    cache misses.
    """


class FrameError(CacheNetError):
    """A frame violated the length-prefixed JSON contract."""


def write_frame(sock: socket.socket, payload: dict) -> None:
    """Send one JSON frame over *sock*."""
    data = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(data) > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {len(data)} bytes exceeds the "
                         f"{MAX_FRAME_BYTES}-byte protocol limit")
    sock.sendall(_LENGTH.pack(len(data)) + data)


def _read_exactly(sock: socket.socket, count: int) -> bytes | None:
    """*count* bytes from *sock*; ``None`` on EOF at a frame boundary."""
    chunks: list[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 65536))
        if not chunk:
            if chunks:
                raise FrameError("connection closed mid-frame")
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(sock: socket.socket) -> dict | None:
    """Read one JSON frame; ``None`` when the peer closed cleanly."""
    header = _read_exactly(sock, _LENGTH.size)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {length} bytes exceeds the "
                         f"{MAX_FRAME_BYTES}-byte protocol limit")
    body = _read_exactly(sock, length)
    if body is None:
        raise FrameError("connection closed between header and body")
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"frame is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise FrameError(f"frame must be a JSON object, got "
                         f"{type(payload).__name__}")
    return payload


def hello_request() -> dict:
    """The handshake frame a client opens every connection with."""
    return {"op": "hello", "protocol": PROTOCOL_NAME,
            "version": PROTOCOL_VERSION}


def check_hello_reply(reply: dict, url: str) -> None:
    """Validate a server's handshake reply; raises on any mismatch."""
    if not reply.get("ok"):
        raise CacheProtocolError(
            f"cache server at {url} rejected the handshake: "
            f"{reply.get('error', 'no reason given')}")
    if (reply.get("protocol") != PROTOCOL_NAME
            or reply.get("version") != PROTOCOL_VERSION):
        raise CacheProtocolError(
            f"cache server at {url} speaks "
            f"{reply.get('protocol')!r} v{reply.get('version')!r}, this "
            f"client speaks {PROTOCOL_NAME!r} v{PROTOCOL_VERSION}; "
            f"upgrade the older side")


def parse_cache_url(url: str) -> tuple[str, object]:
    """``(family, address)`` for a cachenet URL.

    Accepted forms: ``unix:///path/to.sock``, ``tcp://host:port``, and
    the bare ``host:port`` shorthand (TCP).  TCP hosts are hostnames,
    IPv4 literals, or *bracketed* IPv6 literals (``tcp://[::1]:9009``);
    an unbracketed host containing ``:`` is rejected rather than
    mis-split into garbage.  Returns ``("unix", path)`` or
    ``("tcp", (host, port))``.
    """
    original = url
    if url.startswith("unix://"):
        path = url[len("unix://"):]
        if not path:
            raise ValueError(f"cache url {original!r} names no socket "
                             f"path")
        return "unix", path
    if url.startswith("tcp://"):
        url = url[len("tcp://"):]
    if url.startswith("["):
        host, bracket, rest = url[1:].partition("]")
        if not bracket or not host or not rest.startswith(":"):
            raise ValueError(
                f"cache url {original!r}: a bracketed IPv6 host must "
                f"look like [host]:port")
        port_text = rest[1:]
    else:
        host, sep, port_text = url.rpartition(":")
        if not sep or not host:
            raise ValueError(
                f"cache url {original!r} is not unix:///path, "
                f"tcp://host:port, or host:port")
        if ":" in host:
            raise ValueError(
                f"cache url {original!r}: IPv6 hosts must be bracketed "
                f"([host]:port)")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"cache url port {port_text!r} is not an "
                         f"integer") from None
    return "tcp", (host, port)
