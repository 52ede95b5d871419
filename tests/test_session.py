"""Tests for the Session facade and the pluggable engine roles."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import EngineConfig, Session
from repro.core.interfaces import RegistryExecutor, StepExecution
from repro.llm.brain import SimulatedBrain
from repro.operators.base import DEFAULT_REGISTRY

QUERY = "How many players are taller than 200?"
BATCH = [QUERY, "Who is the tallest player?", QUERY,
         "Plot the average height of players per position."]


def test_session_loads_lake_by_name():
    session = Session("rotowire")
    result = session.query(QUERY)
    assert result.ok and result.kind == "value"


def test_session_query_and_batch_share_caches(rotowire_lake):
    session = Session(rotowire_lake)
    first = session.query(QUERY)
    assert first.ok and not first.telemetry.plan_cache_hit
    second = session.query(QUERY)
    assert second.ok and second.telemetry.plan_cache_hit
    # .batch rides the same plan cache.
    report = session.batch([QUERY, QUERY])
    assert report.cache_hits == 2 and report.cache_misses == 0


def test_session_batch_parallel_matches_serial(rotowire_lake):
    serial = Session(rotowire_lake).batch(BATCH)
    parallel = Session(rotowire_lake).batch(BATCH, workers=3)
    assert serial.num_errors == parallel.num_errors == 0
    for mine, theirs in zip(parallel.results, serial.results):
        assert mine.describe() == theirs.describe()


def test_session_engine_pool_is_reused(rotowire_lake):
    session = Session(rotowire_lake)
    session.batch(BATCH, workers=2)
    lanes_after_two = list(session._lanes["thread"])
    assert len(lanes_after_two) == 2
    session.batch(BATCH, workers=2)
    assert session._lanes["thread"] == lanes_after_two  # no new lanes
    session.batch(BATCH[:1], workers=4)
    assert session._lanes["thread"][:2] == lanes_after_two  # only grows
    session.close()


def test_session_config_and_brain_are_honoured(rotowire_lake):
    session = Session(rotowire_lake, brain=SimulatedBrain(),
                      config=EngineConfig(use_discovery=False))
    result = session.query(QUERY)
    assert result.ok
    assert result.trace.timings.get("discovery", 0.0) == 0.0
    assert "discovery" not in session.last_transcript.labels()


def test_session_last_transcript_records_phases(rotowire_lake):
    session = Session(rotowire_lake)
    session.query(QUERY)
    labels = session.last_transcript.labels()
    assert "discovery" in labels
    assert "planning" in labels
    assert any(label.startswith("mapping:") for label in labels)


def test_session_rejects_non_positive_workers(rotowire_lake):
    with pytest.raises(ValueError):
        Session(rotowire_lake).batch(BATCH, workers=0)


class _SpyExecutor(RegistryExecutor):
    """Counts executions — a stand-in for a custom execution backend."""

    def __init__(self):
        super().__init__(DEFAULT_REGISTRY.copy())
        self.executed: list[str] = []

    def execute(self, decision, context) -> StepExecution:
        execution = super().execute(decision, context)
        self.executed.append(execution.operator)
        return execution


def test_session_accepts_custom_executor(rotowire_lake):
    executor = _SpyExecutor()
    session = Session(rotowire_lake, executor=executor)
    result = session.query(QUERY)
    assert result.ok
    assert executor.executed == result.trace.operators_used()


def test_public_surface_exports():
    for name in ("Session", "EngineConfig", "load_lake", "QueryResult",
                 "PlanTrace", "BatchReport", "PlanCache", "Table",
                 "PlotSpec", "Planner", "Mapper", "Executor"):
        assert hasattr(repro, name), name
    assert isinstance(repro.__version__, str) and repro.__version__


def test_import_repro_loads_no_lane_runtime():
    """Batches import the worker lanes lazily, so starting the package
    pays for neither ``repro.exec`` nor ``multiprocessing``."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro; "
         "print(sorted(m for m in sys.modules "
         "if m.split('.')[0] == 'multiprocessing' "
         "or m.startswith('repro.exec')))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert loaded.strip() == "[]"
