"""The :class:`ExecutionBackend` protocol and backend registry.

An execution backend is a strategy for draining one batch workload
through one :class:`~repro.session.Session`: it decides *where* the
per-query engines live (the calling thread, a thread pool, worker
processes) while the session keeps owning *what* runs (lake, brain,
configuration, caches).  All backends must produce identical
:class:`~repro.core.batch.BatchReport` results for the same workload —
:meth:`BatchReport.canonical_results` is the comparison form — so
switching backends is purely a performance decision:

- ``serial`` — one engine, the calling thread.  Lowest overhead,
  baseline for every speedup claim.
- ``thread`` — N engines on a thread pool sharing the session's caches.
  Scales latency-bound work (remote planner calls, I/O); saturates the
  GIL on CPU-bound table work.
- ``process`` — N single-process worker lanes, each rebuilding the lake
  from its :class:`~repro.datasets.LakeSpec` and running a full engine
  with shared-nothing local caches.  Scales CPU-bound work past the GIL
  at the cost of per-process memory and startup.

Backends register under a short name via :func:`register_backend`;
:meth:`repro.session.Session.batch` resolves ``backend="..."`` through
:func:`create_backend`.  Stateful backends (the process lanes) live on
the session so consecutive batches reuse warm workers; sessions close
them via :meth:`ExecutionBackend.close`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Callable, ClassVar, Sequence

from repro.core.batch import BatchReport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.session import Session


class BackendError(ValueError):
    """A backend cannot run the requested batch (bad name, missing spec)."""


class ExecutionBackend(ABC):
    """One strategy for executing a batch workload."""

    #: registry name of the backend ("serial" / "thread" / "process" / ...)
    name: ClassVar[str] = ""

    @abstractmethod
    def run(self, session: "Session", queries: Sequence[str],
            workers: int) -> BatchReport:
        """Drain *queries* for *session* using up to *workers* workers.

        Results and per-query stats are reported in submission order, so
        reports from different backends are line-for-line comparable.
        """

    def close(self) -> None:
        """Release backend resources (worker pools, connections)."""


_FACTORIES: dict[str, Callable[[], ExecutionBackend]] = {}


def register_backend(name: str,
                     factory: Callable[[], ExecutionBackend]) -> None:
    """Register a backend *factory* under *name* (last writer wins).

    The name becomes valid everywhere a backend is selected —
    ``Session.batch(backend=name)`` and ``repro batch --backend name`` —
    with no further wiring; the three
    built-ins register themselves exactly this way when
    :mod:`repro.exec` is imported.
    """
    _FACTORIES[name] = factory


def backend_names() -> tuple[str, ...]:
    """All registered backend names, sorted."""
    return tuple(sorted(_FACTORIES))


def create_backend(name: str) -> ExecutionBackend:
    """Instantiate the backend registered under *name*."""
    if name not in _FACTORIES:
        raise BackendError(
            f"unknown execution backend {name!r}; available: "
            f"{', '.join(backend_names())}")
    return _FACTORIES[name]()
