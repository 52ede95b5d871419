"""repro.cachenet — the shared cache tier.

A stdlib-only cache server plus its client, so every lane, process, and
replica shares one warm set of plans and modality answers instead of
re-paying warm-up per process: a session's caches take the client as
their ``tier`` (:mod:`repro.core.cache`).  See
:mod:`repro.cachenet.protocol` for the wire contract,
:mod:`repro.cachenet.server` for the tier itself, and
:mod:`repro.cachenet.client` for ``Session(cache_url=...)``'s plumbing.
"""

from repro.cachenet.client import CacheClient
from repro.cachenet.protocol import (PROTOCOL_NAME, PROTOCOL_VERSION,
                                     CacheNetError, CacheProtocolError,
                                     CacheUnavailable, FrameError,
                                     parse_cache_url)
from repro.cachenet.server import CacheTierServer

__all__ = [
    "CacheClient",
    "CacheNetError",
    "CacheProtocolError",
    "CacheTierServer",
    "CacheUnavailable",
    "FrameError",
    "PROTOCOL_NAME",
    "PROTOCOL_VERSION",
    "parse_cache_url",
]
