"""The query service: a long-lived :class:`~repro.session.Session`
behind an async HTTP server.

The ROADMAP's "Session as a long-lived server" item, as three layers:

- :mod:`repro.serve.app` — the stdlib asyncio HTTP front
  (``repro serve``): submit/poll/cancel, an NDJSON span-event stream,
  ``/healthz`` + ``/metrics``, graceful SIGTERM drain;
- :mod:`repro.serve.jobs` — the bounded background job queue, drained
  by worker threads that each drive one :mod:`repro.exec.lanes` lane
  (an in-process engine or a worker process), with per-job timeouts
  that replace a wedged lane;
- :mod:`repro.serve.admission` — queue-depth and per-client admission
  gates (429 + ``Retry-After`` back pressure).

Served latency and capacity are measured by the ``serve-open`` workload
of the repository benchmark (``bench/run.py``).
"""

from repro.serve.admission import AdmissionController, AdmissionError
from repro.serve.app import QueryServer, ServeConfig, ServerHandle
from repro.serve.jobs import Job, JobManager
from repro.serve.schemas import SchemaError, SubmitRequest, parse_submit

__all__ = [
    "AdmissionController",
    "AdmissionError",
    "Job",
    "JobManager",
    "QueryServer",
    "SchemaError",
    "ServeConfig",
    "ServerHandle",
    "SubmitRequest",
    "parse_submit",
]
