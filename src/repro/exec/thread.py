"""The thread backend: N engines on a worker-thread pool."""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.core.batch import BatchReport, execute_batch
from repro.exec.base import ExecutionBackend, register_backend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.session import Session


class ThreadBackend(ExecutionBackend):
    """Drain the workload through a thread pool of per-worker engines.

    One engine per worker thread (engines carry per-query mutable state), all
    sharing the session's thread-safe plan and answer caches.  It scales
    latency-bound work — simulated or real LLM round trips sleep without
    holding the GIL — but CPU-bound table work serializes on the GIL; use
    the process backend for that.
    """

    name = "thread"

    def run(self, session: "Session", queries: Sequence[str],
            workers: int) -> BatchReport:
        report = execute_batch(session.engine_pool(workers), queries,
                               session.plan_cache, session.answer_cache)
        # execute_batch stamps "serial" for a one-engine pool; an explicit
        # thread run reports as what the caller asked for.
        report.backend = self.name
        return report


register_backend(ThreadBackend.name, ThreadBackend)
