"""Reproduction of CAESURA: language models as multi-modal query planners.

The public surface is the :class:`Session` facade plus the types it
returns; everything else is internal and may change between releases::

    from repro import Session

    session = Session("rotowire")
    result = session.query("How many players are taller than 200?")
    print(result.value)
"""

from importlib.metadata import PackageNotFoundError, version as _version

try:
    __version__ = _version("caesura-repro")
except PackageNotFoundError:  # running from a source tree without install
    __version__ = "0.0.0+uninstalled"

from repro.core.answer_cache import AnswerCache
from repro.core.batch import BatchReport, PlanCache, QueryStats
from repro.core.engine import Engine, EngineConfig
from repro.core.interfaces import (Executor, Mapper, Planner, PromptMapper,
                                   PromptPlanner, RegistryExecutor)
from repro.core.plan import (ErrorEvent, LogicalPlan, LogicalStep,
                             Observation, PhysicalStep, PlanTrace,
                             QueryResult)
from repro.data.catalog import DataLake
from repro.data.table import Table
from repro.datasets import DATASET_NAMES, load_lake
from repro.obs import (CostModel, MetricsRegistry, QueryTelemetry,
                       StageTrace, TelemetryConfig)
from repro.plotting.spec import PlotSpec
from repro.session import Session

__all__ = [
    "AnswerCache",
    "BatchReport",
    "CostModel",
    "DATASET_NAMES",
    "DataLake",
    "Engine",
    "EngineConfig",
    "ErrorEvent",
    "Executor",
    "LogicalPlan",
    "LogicalStep",
    "Mapper",
    "MetricsRegistry",
    "Observation",
    "PhysicalStep",
    "PlanCache",
    "PlanTrace",
    "Planner",
    "PlotSpec",
    "PromptMapper",
    "PromptPlanner",
    "QueryResult",
    "QueryStats",
    "QueryTelemetry",
    "RegistryExecutor",
    "Session",
    "StageTrace",
    "Table",
    "TelemetryConfig",
    "__version__",
    "load_lake",
]
