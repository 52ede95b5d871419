"""Failure injection: poisoned plan-cache entries, and planners for
process-backend tests.

The planners live in an importable module (not inline in a test) because
the process backend pickles the session's planner into each worker
initializer — classes defined inside a test function cannot cross that
boundary.  Each planner wraps the default prompt planner and misbehaves
only for queries carrying its marker, so the rest of a workload runs
normally.
"""

from __future__ import annotations

import os
import time

from repro.core.interfaces import PromptPlanner
from repro.core.plan import BoundPlan, BoundReply, LogicalPlan
from repro.core.prompts import build_planning_prompt
from repro.llm.brain import SimulatedBrain
from repro.llm.interface import Transcript

POISON_MARKER = "POISON"
EXIT_MARKER = "HARD-EXIT"
SLEEP_MARKER = "SLOW"


def poisoned_entry(lake, query: str, plan: LogicalPlan) -> BoundPlan:
    """A plan-cache entry whose planning reply is *plan*'s text, bound
    under the digest of the planning prompt *query* sends on *lake*: the
    engine serves it as if the model had answered *plan*."""
    hints = PromptPlanner(SimulatedBrain()).discover(lake, query,
                                                     Transcript())
    prompt = build_planning_prompt(lake, query, hints)
    return BoundPlan(plan, planning=BoundReply(
        prompt.digest, plan.render(), prompt.section_digests()))


class PoisonPlanner(PromptPlanner):
    """Raises a non-Repro exception for queries containing the marker.

    The crash happens wherever the planner runs — worker *and* parent —
    modelling a genuinely poisoned query (the in-parent fallback must
    fail too, without killing the batch).
    """

    def plan(self, lake, query, hints, transcript, **kwargs):
        if POISON_MARKER in query:
            raise RuntimeError(f"poisoned query: {query!r}")
        return super().plan(lake, query, hints, transcript, **kwargs)


class WorkerOnlyPoisonPlanner(PromptPlanner):
    """Crashes only in a process whose pid differs from *parent_pid*.

    Models a worker-environment failure (OOM kill, corrupted worker
    state): the worker crashes, the in-parent fallback succeeds.
    """

    def __init__(self, model, parent_pid: int):
        super().__init__(model)
        self.parent_pid = parent_pid

    def plan(self, lake, query, hints, transcript, **kwargs):
        if POISON_MARKER in query and os.getpid() != self.parent_pid:
            raise RuntimeError(f"worker-only crash: {query!r}")
        return super().plan(lake, query, hints, transcript, **kwargs)


class HardExitPlanner(PromptPlanner):
    """Kills the worker process outright for marked queries.

    ``os._exit`` bypasses all exception handling, so the worker process
    is gone — the strongest crash the backend must survive.
    """

    def __init__(self, model, parent_pid: int):
        super().__init__(model)
        self.parent_pid = parent_pid

    def plan(self, lake, query, hints, transcript, **kwargs):
        if EXIT_MARKER in query and os.getpid() != self.parent_pid:
            os._exit(13)
        return super().plan(lake, query, hints, transcript, **kwargs)


class SleepyPlanner(PromptPlanner):
    """Sleeps far past any reasonable timeout for marked worker queries."""

    def __init__(self, model, parent_pid: int, seconds: float = 30.0):
        super().__init__(model)
        self.parent_pid = parent_pid
        self.seconds = seconds

    def plan(self, lake, query, hints, transcript, **kwargs):
        if SLEEP_MARKER in query and os.getpid() != self.parent_pid:
            time.sleep(self.seconds)
        return super().plan(lake, query, hints, transcript, **kwargs)
