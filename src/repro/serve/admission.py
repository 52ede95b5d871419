"""Admission control for the query service: who gets into the queue.

One :class:`AdmissionController` guards the job queue of a
:class:`~repro.serve.jobs.JobManager` with three gates, checked in order
on every submit:

1. **drain** — a draining server admits nothing (HTTP 503);
2. **queue depth** — at most ``queue_depth`` jobs may be *waiting*
   (running jobs don't count); beyond that, HTTP 429 with a
   ``Retry-After`` hint;
3. **per-client concurrency** — at most ``per_client_limit`` in-flight
   (queued + running) jobs per API token; beyond that, 429 too.

Every rejection increments ``serve_admission_rejections_total`` (plus a
per-reason counter) in the session's
:class:`~repro.obs.MetricsRegistry`, so a dashboard can tell back
pressure (queue_full) from a noisy neighbour (client_limit).

Nothing paces job *starts*: a lane takes the next queued job as soon as
it is free, so a warm service's closed-loop throughput follows the
host's CPU speed (the lanes and the HTTP loop share one interpreter).
"""

from __future__ import annotations

import threading

from repro.obs import MetricsRegistry

#: Rejection reasons an :class:`AdmissionError` can carry.
REJECTION_REASONS = ("queue_full", "client_limit", "draining")


class AdmissionError(Exception):
    """A submit was rejected before entering the queue."""

    def __init__(self, reason: str, detail: str,
                 retry_after_s: float | None = None):
        super().__init__(detail)
        self.reason = reason
        self.detail = detail
        self.retry_after_s = retry_after_s
        #: HTTP status the app layer maps this to.
        self.status = 503 if reason == "draining" else 429


class AdmissionController:
    """Thread-safe occupancy book-keeping + the three admission gates."""

    def __init__(self, queue_depth: int, per_client_limit: int,
                 retry_after_s: float = 1.0,
                 metrics: MetricsRegistry | None = None):
        if queue_depth <= 0:
            raise ValueError(f"queue_depth must be positive: {queue_depth}")
        if per_client_limit <= 0:
            raise ValueError(
                f"per_client_limit must be positive: {per_client_limit}")
        self.queue_depth = queue_depth
        self.per_client_limit = per_client_limit
        self.retry_after_s = retry_after_s
        self._metrics = metrics
        self._lock = threading.Lock()
        self._queued = 0
        self._running = 0
        self._inflight: dict[str, int] = {}
        self._draining = False

    # ------------------------------------------------------------------
    # Gates
    # ------------------------------------------------------------------

    def admit(self, client: str) -> None:
        """Reserve one queue slot for *client* or raise AdmissionError."""
        with self._lock:
            if self._draining:
                self._reject("draining")
                raise AdmissionError(
                    "draining", "server is draining; not accepting queries")
            if self._queued >= self.queue_depth:
                self._reject("queue_full")
                raise AdmissionError(
                    "queue_full",
                    f"job queue is full ({self.queue_depth} waiting)",
                    retry_after_s=self.retry_after_s)
            if self._inflight.get(client, 0) >= self.per_client_limit:
                self._reject("client_limit")
                raise AdmissionError(
                    "client_limit",
                    f"client {client!r} already has "
                    f"{self.per_client_limit} jobs in flight",
                    retry_after_s=self.retry_after_s)
            self._queued += 1
            self._inflight[client] = self._inflight.get(client, 0) + 1

    def _reject(self, reason: str) -> None:
        if self._metrics is not None:
            self._metrics.increment("serve_admission_rejections_total")
            self._metrics.increment(
                f"serve_admission_rejections_{reason}")

    # ------------------------------------------------------------------
    # Occupancy transitions (called by the job manager)
    # ------------------------------------------------------------------

    def mark_started(self) -> None:
        """A queued job moved onto a worker (queued → running)."""
        with self._lock:
            self._queued -= 1
            self._running += 1

    def release_running(self, client: str) -> None:
        """A running job finished (success, error, or timeout)."""
        with self._lock:
            self._running -= 1
            self._release_client(client)

    def release_queued(self, client: str) -> None:
        """A queued job was cancelled before reaching a worker."""
        with self._lock:
            self._queued -= 1
            self._release_client(client)

    def _release_client(self, client: str) -> None:
        count = self._inflight.get(client, 0) - 1
        if count > 0:
            self._inflight[client] = count
        else:
            self._inflight.pop(client, None)

    # ------------------------------------------------------------------
    # Drain + introspection
    # ------------------------------------------------------------------

    def start_draining(self) -> None:
        with self._lock:
            self._draining = True

    def occupancy(self) -> dict:
        """Current queue occupancy (the ``/healthz`` payload core)."""
        with self._lock:
            return {"queued": self._queued, "running": self._running,
                    "clients": len(self._inflight),
                    "queue_depth": self.queue_depth,
                    "per_client_limit": self.per_client_limit,
                    "draining": self._draining}

