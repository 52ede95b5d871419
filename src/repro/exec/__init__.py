"""Worker lanes: the one runtime behind batches and the query service.

:meth:`repro.session.Session.batch` drains its ``thread`` and
``process`` batches over lanes (:func:`repro.exec.lanes.run_batch`), and
``repro serve`` drives the same lanes one job at a time.  See
:mod:`repro.exec.lanes` for the lane kinds, the failure policy and the
batch affinity rule.
"""

from repro.exec.lanes import (LANE_KINDS, BackendError, Lane, LaneFailure,
                              default_start_method)

__all__ = [
    "BackendError",
    "LANE_KINDS",
    "Lane",
    "LaneFailure",
    "default_start_method",
]
