"""Pluggable execution backends for batch workloads, and worker lanes.

Importing this package registers the three built-in backends —
``serial``, ``thread``, and ``process`` — into the backend registry;
:meth:`repro.session.Session.batch` resolves its ``backend=`` argument
here.  See :mod:`repro.exec.base` for the protocol and the backend
matrix, and :mod:`repro.exec.lanes` for the worker-lane runtime shared
by the process backend and the query service.
"""

from repro.exec.base import (BackendError, ExecutionBackend, backend_names,
                             create_backend, register_backend)
from repro.exec.lanes import (LANE_KINDS, Lane, LaneFailure,
                              default_start_method)
from repro.exec.process import ProcessBackend
from repro.exec.serial import SerialBackend
from repro.exec.thread import ThreadBackend

__all__ = [
    "BackendError",
    "ExecutionBackend",
    "LANE_KINDS",
    "Lane",
    "LaneFailure",
    "ProcessBackend",
    "SerialBackend",
    "ThreadBackend",
    "backend_names",
    "create_backend",
    "default_start_method",
    "register_backend",
]
