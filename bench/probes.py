"""Layer probes: span recorders wrapped around the engine's public callables.

The benchmark measures layers from outside — nothing under ``src/`` knows
it is being traced.  :data:`PROBES` is the one table of
``(layer, span, module, attribute)`` targets; :class:`Tracer` swaps each
target for a recording wrapper while a traced run is measured and puts
the original back afterwards.  A target that no longer resolves (a later
PR renamed or deleted it) is reported in :attr:`Tracer.missing` and its
metrics read 0 — a missing probe never fails a run.

Two recorder kinds:

- ``span`` — one record per call: name, start, end, parent, query id.
  A layer's *self time* is its span minus the part its children cover.
- ``tally`` — calls too frequent to keep one by one (an answer-cache
  lookup per image, a cachenet RPC per lookup): count and total time are
  folded into the enclosing span's ``tallies`` and subtracted from its
  self time.
"""

from __future__ import annotations

import collections
import functools
import importlib
import itertools
import json
import threading
import time
from dataclasses import dataclass
from typing import Callable

from harness import percentile


def _operator_name(_args, _kwargs, result) -> dict:
    return {"operator": result.operator}


def _rpc_bytes(args, _kwargs, result) -> dict:
    # Frames are length-prefixed compact JSON; recomputing the encoding
    # here keeps the probe outside the client (traced runs only).
    sent = len(json.dumps(args[1], separators=(",", ":"))) + 4
    received = len(json.dumps(result, separators=(",", ":"))) + 4
    return {"bytes": sent + received}


@dataclass(frozen=True)
class Probe:
    """One wrapped callable."""

    layer: str
    span: str
    module: str
    attribute: str               # "function" or "Class.method"
    kind: str = "span"           # "span" | "tally"
    #: optional ``(args, kwargs, result) -> dict`` adding attributes to a
    #: span, or numeric extras summed into a tally.
    annotate: Callable | None = None
    #: keep every duration of a tally (for a percentile).
    keep_samples: bool = False


PROBES: tuple[Probe, ...] = (
    Probe("core", "engine.query", "repro.core.engine", "Engine.query"),
    Probe("core", "discovery", "repro.core.interfaces",
          "PromptPlanner.discover"),
    Probe("core", "planning", "repro.core.interfaces", "PromptPlanner.plan"),
    Probe("core", "mapping", "repro.core.interfaces", "PromptMapper.map_step"),
    Probe("llm", "llm.complete", "repro.llm.brain", "SimulatedBrain.complete"),
    Probe("core", "plan_cache.get", "repro.core.batch", "PlanCache.get"),
    Probe("core", "plan_cache.put", "repro.core.batch", "PlanCache.put"),
    Probe("core", "plan_cache.get", "repro.cachenet.client",
          "RemotePlanCache.get"),
    Probe("core", "plan_cache.put", "repro.cachenet.client",
          "RemotePlanCache.put"),
    Probe("core", "answer_cache.get", "repro.core.answer_cache",
          "AnswerCache.get", kind="tally"),
    Probe("core", "answer_cache.put", "repro.core.answer_cache",
          "AnswerCache.put", kind="tally"),
    Probe("core", "answer_cache.get", "repro.cachenet.client",
          "RemoteAnswerCache.get", kind="tally"),
    Probe("core", "answer_cache.put", "repro.cachenet.client",
          "RemoteAnswerCache.put", kind="tally"),
    Probe("core", "persist.save", "repro.core.batch", "PlanCache.save"),
    Probe("core", "persist.save", "repro.core.answer_cache",
          "AnswerCache.save"),
    Probe("operators", "operator", "repro.core.interfaces",
          "RegistryExecutor.execute", annotate=_operator_name),
    Probe("relational", "colexec", "repro.relational.colexec", "execute"),
    Probe("relational", "colexec", "repro.relational.colexec", "join_tables"),
    Probe("relational", "sqlite", "repro.relational.sqlexec",
          "SQLBridge.execute"),
    Probe("data", "fingerprint", "repro.data.table", "Table.fingerprint",
          kind="tally"),
    Probe("data", "result_to_dict", "repro.core.plan", "QueryResult.to_dict"),
    Probe("vision", "vision.infer", "repro.vision.blip", "Blip2Sim.answer",
          kind="tally"),
    Probe("vision", "vision.infer", "repro.vision.blip",
          "Blip2Sim.matches_description", kind="tally"),
    Probe("text", "text.infer", "repro.text.qa", "BartQASim.answer",
          kind="tally"),
    Probe("cachenet", "cachenet.rpc", "repro.cachenet.client",
          "CacheClient.request", kind="tally", annotate=_rpc_bytes,
          keep_samples=True),
)


def resolve(probe: Probe) -> tuple[object, str, Callable]:
    """``(owner, attribute name, current callable)`` of a probe target.

    Raises :class:`LookupError` when the module, class or attribute is
    gone.
    """
    try:
        owner: object = importlib.import_module(probe.module)
        *path, name = probe.attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        target = getattr(owner, name)
    except (ImportError, AttributeError) as exc:
        raise LookupError(f"{probe.module}:{probe.attribute}") from exc
    if not callable(target):
        raise LookupError(f"{probe.module}:{probe.attribute} is not callable")
    return owner, name, target


class _Frame:
    """An open span on one thread's stack."""

    __slots__ = ("span_id", "query_id", "child_ms", "tallies")

    def __init__(self, span_id: int, query_id: int):
        self.span_id = span_id
        self.query_id = query_id
        self.child_ms = 0.0
        self.tallies: dict[str, list[float]] = {}


class Tracer:
    """Installs :data:`PROBES`, keeps spans in memory, writes them at exit."""

    def __init__(self, probes: tuple[Probe, ...] = PROBES):
        self.probes = probes
        self.spans: list[dict] = []
        self.samples: dict[str, list[float]] = {}
        self.missing: list[str] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._installed: list[tuple[object, str, Callable]] = []
        self._epoch = time.perf_counter()

    # ------------------------------------------------------------------

    def install(self) -> None:
        for probe in self.probes:
            try:
                owner, name, target = resolve(probe)
            except LookupError as exc:
                self.missing.append(str(exc))
                continue
            wrapper = (self._span_wrapper(probe, target)
                       if probe.kind == "span"
                       else self._tally_wrapper(probe, target))
            self._installed.append((owner, name, target))
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        while self._installed:
            owner, name, target = self._installed.pop()
            setattr(owner, name, target)

    def _stack(self) -> list[_Frame]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _span_wrapper(self, probe: Probe, target: Callable) -> Callable:
        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            frame = _Frame(span_id,
                           parent.query_id if parent else span_id)
            stack.append(frame)
            attrs: dict = {}
            started = time.perf_counter()
            try:
                result = target(*args, **kwargs)
                if probe.annotate is not None:
                    attrs = probe.annotate(args, kwargs, result)
                return result
            except BaseException as exc:
                attrs = {"raised": type(exc).__name__}
                raise
            finally:
                ended = time.perf_counter()
                stack.pop()
                duration_ms = (ended - started) * 1000.0
                if parent is not None:
                    parent.child_ms += duration_ms
                self.spans.append({
                    "id": span_id,
                    "parent": parent.span_id if parent else None,
                    "query": frame.query_id,
                    "layer": probe.layer,
                    "name": probe.span,
                    "start_ms": (started - self._epoch) * 1000.0,
                    "end_ms": (ended - self._epoch) * 1000.0,
                    "self_ms": duration_ms - frame.child_ms,
                    "tallies": frame.tallies,
                    "attrs": attrs,
                })
        return wrapper

    def _tally_wrapper(self, probe: Probe, target: Callable) -> Callable:
        samples = (self.samples.setdefault(probe.span, [])
                   if probe.keep_samples else None)

        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            result = target(*args, **kwargs)
            duration_ms = (time.perf_counter() - started) * 1000.0
            extras = (probe.annotate(args, kwargs, result)
                      if probe.annotate is not None else None)
            stack = self._stack()
            if not stack:
                # Outside every span the caller is the benchmark itself
                # (the answer check fingerprints result tables): not a
                # layer's work.
                return result
            frame = stack[-1]
            frame.child_ms += duration_ms
            self._fold(frame.tallies, probe.span, duration_ms, extras)
            if samples is not None:
                samples.append(duration_ms)
            return result
        return wrapper

    @staticmethod
    def _fold(tallies: dict, span: str, duration_ms: float,
              extras: dict | None) -> None:
        entry = tallies.get(span)
        if entry is None:
            entry = tallies[span] = [0, 0.0]
        entry[0] += 1
        entry[1] += duration_ms
        if extras:
            for key, value in extras.items():
                name = f"{span}.{key}"
                extra = tallies.get(name)
                if extra is None:
                    extra = tallies[name] = [0, 0.0]
                extra[0] += 1
                extra[1] += value

    # ------------------------------------------------------------------

    def totals(self) -> "Totals":
        return Totals(self.spans)

    def write(self, path) -> int:
        """Dump every span as one JSON line; returns the span count."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, separators=(",", ":")))
                handle.write("\n")
        return len(self.spans)


class Totals:
    """Sums over a traced run, keyed by span name.

    An ``operator`` span is also summed under ``operator:<name>``, and a
    ``colexec`` call that did not decline under ``colexec:served``.
    """

    def __init__(self, spans: list[dict]):
        self.count: collections.Counter = collections.Counter()
        self.total_ms: collections.Counter = collections.Counter()
        self.self_ms: collections.Counter = collections.Counter()
        self.tally_count: collections.Counter = collections.Counter()
        self.tally_sum: collections.Counter = collections.Counter()
        for span in spans:
            keys = [span["name"]]
            attrs = span["attrs"]
            if "operator" in attrs:
                keys.append(f"operator:{attrs['operator']}")
            if span["name"] == "colexec" and "raised" not in attrs:
                keys.append("colexec:served")
            for key in keys:
                self.count[key] += 1
                self.total_ms[key] += span["end_ms"] - span["start_ms"]
                self.self_ms[key] += span["self_ms"]
            for tally, (count, total) in span["tallies"].items():
                self.tally_count[tally] += count
                self.tally_sum[tally] += total


def layer_metrics(totals: Totals, samples: dict[str, list[float]],
                  queries: int, rounds: int,
                  llm: tuple[int, int, int]) -> dict[str, float]:
    """Per-layer figures of one traced measurement, per answered query.

    ``*_ms_per_query`` of a ``core`` phase is self time (its LLM call and
    cache probes are reported on their own lines); an operator's figure
    is its whole span, engines and cache probes included — the
    ``relational``, ``vision``, ``text`` and ``cachenet`` lines say how
    it splits.
    """
    per_query = 1.0 / max(1, queries)
    count, total_ms = totals.count, totals.total_ms

    def self_ms(name: str) -> float:
        return totals.self_ms[name] * per_query

    def tally_ms(name: str) -> float:
        return totals.tally_sum[name] * per_query

    def per_call(sums: collections.Counter, calls: collections.Counter,
                 name: str) -> float:
        return sums[name] / max(1, calls[name])

    def operator_ms(*names: str) -> float:
        return sum(total_ms[f"operator:{name}"] for name in names) * per_query

    engine_ms = total_ms["engine.query"]
    calls, tokens_in, tokens_out = llm
    return {
        "llm.calls_per_query": calls * per_query,
        "llm.tokens_in_per_query": tokens_in * per_query,
        "llm.tokens_out_per_query": tokens_out * per_query,
        "llm.self_ms_per_query": self_ms("llm.complete"),
        "core.discovery_ms_per_query": self_ms("discovery"),
        "core.planning_ms_per_query": self_ms("planning"),
        "core.mapping_ms_per_query": self_ms("mapping"),
        "core.engine_self_ms_per_query": self_ms("engine.query"),
        "core.plan_cache.get_ms_per_query":
            total_ms["plan_cache.get"] * per_query,
        "core.answer_cache.lookups_per_query":
            totals.tally_count["answer_cache.get"] * per_query,
        "core.answer_cache.get_ms_per_query": tally_ms("answer_cache.get"),
        "core.answer_cache.put_ms_per_query": tally_ms("answer_cache.put"),
        "core.persist.save_ms_per_round":
            total_ms["persist.save"] / max(1, rounds),
        "operators.sql_ms_per_query": operator_ms("SQL"),
        "operators.join_ms_per_query": operator_ms("Join"),
        "operators.visual_qa_ms_per_query":
            operator_ms("Visual Question Answering", "Image Select"),
        "operators.text_qa_ms_per_query":
            operator_ms("Text Question Answering"),
        "operators.python_ms_per_query": operator_ms("Python"),
        "operators.plot_ms_per_query": operator_ms("Plot"),
        "operators.steps_per_query":
            count["operator"] * per_query,
        "relational.stmts_per_query": count["colexec"] * per_query,
        "relational.colexec_share":
            count["colexec:served"] / max(1, count["colexec"]),
        "relational.colexec_ms_per_stmt":
            per_call(total_ms, count, "colexec:served"),
        "relational.sqlite_ms_per_stmt":
            per_call(total_ms, count, "sqlite"),
        "data.fingerprint_calls_per_query":
            totals.tally_count["fingerprint"] * per_query,
        "data.fingerprint_ms_per_query": tally_ms("fingerprint"),
        "data.result_to_dict_ms_per_query":
            total_ms["result_to_dict"] * per_query,
        "vision.images_inferred_per_query":
            totals.tally_count["vision.infer"] * per_query,
        "vision.infer_ms_per_image":
            per_call(totals.tally_sum, totals.tally_count, "vision.infer"),
        "text.docs_inferred_per_query":
            totals.tally_count["text.infer"] * per_query,
        "text.infer_ms_per_doc":
            per_call(totals.tally_sum, totals.tally_count, "text.infer"),
        "cachenet.rpcs_per_query":
            totals.tally_count["cachenet.rpc"] * per_query,
        "cachenet.rpc_ms_p50": percentile(samples["cachenet.rpc"], 50)
        if samples.get("cachenet.rpc") else 0.0,
        "cachenet.bytes_per_query":
            totals.tally_sum["cachenet.rpc.bytes"] * per_query,
        "harness.unattributed_share":
            totals.self_ms["engine.query"] / engine_ms if engine_ms else 0.0,
    }
