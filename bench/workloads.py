"""The five workloads.

Each drives the system only through public entry points
(``repro.Session``, ``repro.load_lake``, ``repro.serve.ServerHandle`` /
``ServeConfig``, ``repro.cachenet.CacheTierServer``,
``repro.llm.brain.SimulatedBrain``).  ``setup`` builds everything a
workload needs (lakes, sessions, a tier or server, a warm-up pass);
``measure`` runs whole blocks — every block of a workload is the same
multiset of queries in a seeded order — until the requested seconds are
used up; ``release`` tears down.

Why these five, and what each is expected to move, is written next to
each class and in ``bench/README.md``.
"""

from __future__ import annotations

import collections
import contextlib
import gc
import http.client
import json
import os
import random
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro import Session, load_lake
from repro.cachenet import CacheTierServer
from repro.core.plan import QueryResult
from repro.llm.brain import SimulatedBrain
from repro.obs import TelemetryConfig
from repro.serve.app import ServeConfig, ServerHandle

import queries as qs
from harness import (Block, calibrate, percentile, speed_factor,
                     summarize_blocks)

OUT_DIR = Path(__file__).resolve().parent / "out"


class CountingBrain:
    """The LLM bill: wraps a brain and counts calls and tokens.

    Passed as ``Session(brain=...)``; counts under the wrapped brain's own
    ``cost_model``, the same estimator the engine prices spans with.
    """

    def __init__(self, inner: SimulatedBrain):
        self.inner = inner
        self.name = inner.name
        self.cost_model = inner.cost_model
        self._lock = threading.Lock()
        self.calls = 0
        self.tokens_in = 0
        self.tokens_out = 0

    def complete(self, messages) -> str:
        response = self.inner.complete(messages)
        token_in, token_out = self.cost_model.usage(messages, response)
        with self._lock:
            self.calls += 1
            self.tokens_in += token_in
            self.tokens_out += token_out
        return response

    def snapshot(self) -> tuple[int, int, int]:
        with self._lock:
            return self.calls, self.tokens_in, self.tokens_out


@dataclass
class Measurement:
    """What one call of ``measure`` observed."""

    #: queries_per_s, query_ms_p50, query_ms_p95, cpu_ms_per_query
    e2e: dict[str, float]
    #: raw twins, speed factors, block and sample counts
    harness: dict[str, float]
    #: layer figures the workload can read off public counters
    layers: dict[str, float] = field(default_factory=dict)
    queries: int = 0
    rounds: int = 0
    llm: tuple[int, int, int] = (0, 0, 0)


def _timed_query(session: Session, text: str):
    """``(result, wall ms, cpu ms)`` of one in-process query."""
    cpu_started = time.process_time()
    started = time.perf_counter()
    result = session.query(text)
    wall_ms = (time.perf_counter() - started) * 1000.0
    cpu_ms = (time.process_time() - cpu_started) * 1000.0
    return result, wall_ms, cpu_ms


@contextlib.contextmanager
def _timed_extra(block: Block):
    """Time non-query work of a round into *block*."""
    cpu_started, started = time.process_time(), time.perf_counter()
    yield
    block.extra_ms += (time.perf_counter() - started) * 1000.0
    block.cpu_ms += (time.process_time() - cpu_started) * 1000.0


def _cache_counters(sessions) -> dict[str, int]:
    totals = collections.Counter()
    for session in sessions:
        plan, answer = session.plan_cache, session.answer_cache
        totals["plan_hits"] += plan.hits
        totals["plan_misses"] += plan.misses
        totals["plan_evictions"] += plan.evictions
        totals["answer_hits"] += answer.hits
        totals["answer_misses"] += answer.misses
    return totals


def _rate(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def _cache_layers(delta: dict[str, int], queries: int) -> dict[str, float]:
    return {
        "core.plan_cache.hit_rate": _rate(delta["plan_hits"],
                                          delta["plan_misses"]),
        "core.plan_cache.evictions_per_kquery":
            1000.0 * delta["plan_evictions"] / max(1, queries),
        "core.answer_cache.hit_rate": _rate(delta["answer_hits"],
                                            delta["answer_misses"]),
    }


class Workload:
    """Base: one brain for the whole run, timed lake loads."""

    name = ""

    def __init__(self) -> None:
        self.brain = CountingBrain(SimulatedBrain())
        self.load_lake_s = 0.0

    def load(self, dataset: str, scale: float):
        started = time.perf_counter()
        lake = load_lake(dataset, scale=scale)
        self.load_lake_s += time.perf_counter() - started
        return lake

    def unique_queries(self) -> list[qs.Query]:
        raise NotImplementedError

    def scales(self) -> dict[str, float]:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def release(self) -> None:
        raise NotImplementedError

    def measure(self, seconds: float, rng: random.Random,
                checker: qs.AnswerChecker) -> Measurement:
        raise NotImplementedError

    def extra_layers(self, rng: random.Random,
                     checker: qs.AnswerChecker) -> dict[str, float]:
        """Layer figures that need an untraced experiment of their own."""
        return {}


# ----------------------------------------------------------------------
# Closed loop, one client, in process, steady state
# ----------------------------------------------------------------------

class _CycleWorkload(Workload):
    """Blocks are Zipf cycles over long-lived warm sessions."""

    cycle_len = 0
    #: Fixes the popularity ranking.  A latency percentile of a mixed
    #: stream jumps between two query types when its rank falls on the
    #: boundary between them (40 % swings were seen), so each ranking was
    #: picked to put the p50 and the p95 rank well inside one popular
    #: type's share of the cycle; ``harness.p50_cliff`` / ``p95_cliff``
    #: show when that stops being true.
    rank_seed = 0
    cal_every = 20

    def setup(self) -> None:
        self.load_lake_s = 0.0
        self.sessions = {
            dataset: Session(self.load(dataset, scale), brain=self.brain)
            for dataset, scale in self.scales().items()}
        self.queries = self.unique_queries()
        self.cycle = qs.zipf_cycle(len(self.queries), self.cycle_len,
                                   self.rank_seed)
        # Warm-up pass: every unique query once, so lazy initialisation
        # is done and both caches hold what they will hold.
        for dataset, text in self.queries:
            self.sessions[dataset].query(text)

    def release(self) -> None:
        for session in self.sessions.values():
            session.close()
        self.sessions = {}

    def run_block(self, sessions, rng: random.Random,
                  checker: qs.AnswerChecker) -> Block:
        block = Block()
        order = qs.shuffled(self.cycle, rng)
        gc.collect()
        for position, index in enumerate(order, start=1):
            query = self.queries[index]
            result, wall_ms, cpu_ms = _timed_query(sessions[query[0]],
                                                   query[1])
            if checker.check(query, result):
                block.latency_ms.append(wall_ms)
                block.cpu_ms += cpu_ms
            if position % self.cal_every == 0:
                block.cal_ms.append(calibrate())
        return block

    def measure(self, seconds: float, rng: random.Random,
                checker: qs.AnswerChecker) -> Measurement:
        before = _cache_counters(self.sessions.values())
        llm_before = self.brain.snapshot()
        blocks: list[Block] = []
        deadline = time.perf_counter() + seconds
        while not blocks or time.perf_counter() < deadline:
            blocks.append(self.run_block(self.sessions, rng, checker))
        after = _cache_counters(self.sessions.values())
        return _from_blocks(blocks, self.brain, llm_before,
                            {k: after[k] - before[k] for k in after})


def _from_blocks(blocks: list[Block], brain: CountingBrain,
                 llm_before: tuple[int, int, int],
                 cache_delta: dict[str, int]) -> Measurement:
    summary = summarize_blocks(blocks)
    e2e = {name: summary.pop(name)
           for name in ("queries_per_s", "query_ms_p50", "query_ms_p95",
                        "cpu_ms_per_query")}
    answered = sum(len(block.latency_ms) for block in blocks)
    llm = tuple(now - then
                for now, then in zip(brain.snapshot(), llm_before))
    return Measurement(e2e=e2e, harness=summary,
                       layers=_cache_layers(cache_delta, answered),
                       queries=answered, rounds=len(blocks), llm=llm)


class WarmMixed(_CycleWorkload):
    """The steady state of a long-lived service: every plan and every
    modality answer is a cache read, so time is engine overhead, mapping
    on plan-cache hits, and answer-cache probes."""

    name = "warm-mixed"
    cycle_len = 400
    rank_seed = 28

    def scales(self) -> dict[str, float]:
        return {"artwork": 2, "rotowire": 5}

    def unique_queries(self) -> list[qs.Query]:
        return qs.warm_mixed_queries()

    def extra_layers(self, rng: random.Random, checker: qs.AnswerChecker,
                     blocks: int = 3) -> dict[str, float]:
        """``obs.telemetry_share``: the share of a block's calibrated time
        that span telemetry costs — *blocks* cycles with telemetry on
        against as many with it off, interleaved, over the same warm
        caches."""
        off = {dataset: Session(session.lake, brain=self.brain,
                                plan_cache=session.plan_cache,
                                answer_cache=session.answer_cache,
                                telemetry=TelemetryConfig(enabled=False))
               for dataset, session in self.sessions.items()}
        for dataset, text in self.queries:
            off[dataset].query(text)

        def calibrated_ms(block: Block) -> float:
            return block.busy_ms * block.factor

        on_ms, off_ms = [], []
        for _ in range(blocks):
            on_ms.append(calibrated_ms(
                self.run_block(self.sessions, rng, checker)))
            off_ms.append(calibrated_ms(self.run_block(off, rng, checker)))
        return {"obs.telemetry_share":
                1.0 - statistics.median(off_ms) / statistics.median(on_ms)}


class RelationalScale(_CycleWorkload):
    """The mirror of warm-mixed: 18k-row tables and relational-only
    queries, so ``relational`` + ``data`` do the work; 161 unique artwork
    queries against that session's 128-entry plan cache, so hits, misses
    and evictions all occur."""

    name = "relational-scale"
    cycle_len = 320
    rank_seed = 133

    def scales(self) -> dict[str, float]:
        return {"artwork": 150, "rotowire": 50}

    def unique_queries(self) -> list[qs.Query]:
        return qs.relational_queries()


# ----------------------------------------------------------------------
# Closed loop, one client, in process, a fresh replica per round
# ----------------------------------------------------------------------

class _RoundWorkload(Workload):
    """Blocks are rounds: fresh lakes (untimed) and fresh sessions, every
    query asked exactly once."""

    def scales(self) -> dict[str, float]:
        return {"artwork": 2, "rotowire": 2}

    def unique_queries(self) -> list[qs.Query]:
        return qs.first_ask_queries()

    def open_sessions(self, lakes) -> dict[str, Session]:
        raise NotImplementedError

    def close_sessions(self, sessions) -> None:
        """Timed end-of-round work, then closing."""
        for session in sessions.values():
            session.close()

    def run_round(self, rng: random.Random, checker: qs.AnswerChecker,
                  ) -> tuple[Block, dict[str, int]]:
        # Fresh lakes: images and tables memoise rasters and
        # fingerprints, which a new replica would not have.
        lakes = {dataset: load_lake(dataset, scale=scale)
                 for dataset, scale in self.scales().items()}
        queries = self.unique_queries()
        order = qs.shuffled(list(range(len(queries))), rng)
        block = Block()
        gc.collect()
        with _timed_extra(block):
            sessions = self.open_sessions(lakes)
        for index in order:
            query = queries[index]
            result, wall_ms, cpu_ms = _timed_query(sessions[query[0]],
                                                   query[1])
            if checker.check(query, result):
                block.latency_ms.append(wall_ms)
                block.cpu_ms += cpu_ms
            block.cal_ms.append(calibrate())
        counters = _cache_counters(sessions.values())
        for session in sessions.values():
            for name, value in session.metrics()["counters"].items():
                if name.startswith("cachenet_"):
                    counters[name] += value
        with _timed_extra(block):
            self.close_sessions(sessions)
        return block, counters

    def measure(self, seconds: float, rng: random.Random,
                checker: qs.AnswerChecker) -> Measurement:
        llm_before = self.brain.snapshot()
        blocks: list[Block] = []
        totals: collections.Counter = collections.Counter()
        deadline = time.perf_counter() + seconds
        while not blocks or time.perf_counter() < deadline:
            block, counters = self.run_round(rng, checker)
            blocks.append(block)
            totals.update(counters)
        measurement = _from_blocks(blocks, self.brain, llm_before, totals)
        lookups = (totals["answer_hits"] + totals["answer_misses"]
                   + totals["plan_hits"] + totals["plan_misses"])
        remote = totals["cachenet_hits"] + totals["cachenet_misses"]
        measurement.layers["cachenet.local_hit_rate"] = (
            1.0 - remote / lookups if lookups and remote else 0.0)
        measurement.layers["cachenet.fallbacks"] = float(
            totals["cachenet_fallbacks"])
        return measurement


class ColdFirstAsk(_RoundWorkload):
    """The write side of the caches warm-mixed reads, plus LLM planning
    and real modality inference: 0 % plan hits, every image and report
    inferred once, then both caches saved to disk."""

    name = "cold-first-ask"

    def setup(self) -> None:
        self.load_lake_s = 0.0
        self.tmp = OUT_DIR / f"tmp-{os.getpid()}"
        self.tmp.mkdir(parents=True, exist_ok=True)
        # One untimed round: process-wide lazy initialisation (imports,
        # compiled patterns, sqlite) belongs to set-up, not to round 1.
        self.run_round(random.Random(0),
                       qs.AnswerChecker(qs.load_golden(self.name)))

    def release(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def open_sessions(self, lakes) -> dict[str, Session]:
        return {dataset: Session(lake, brain=self.brain)
                for dataset, lake in lakes.items()}

    def close_sessions(self, sessions) -> None:
        for dataset, session in sessions.items():
            session.save_plan_cache(self.tmp / f"plans-{dataset}.json")
            session.save_answer_cache(self.tmp / f"answers-{dataset}.json")
        super().close_sessions(sessions)


class ReplicaJoin(_RoundWorkload):
    """The same cache reads as warm-mixed, but a fresh replica's first
    lookup of every key is a cachenet RPC to a warm tier on loopback."""

    name = "replica-join"

    def setup(self) -> None:
        self.load_lake_s = 0.0
        self.tier = CacheTierServer(bind="tcp://127.0.0.1:0").start()
        # Fill the tier the way a fleet would: one replica answers the
        # queries cold and publishes plans and answers as it goes.
        lakes = {dataset: self.load(dataset, scale)
                 for dataset, scale in self.scales().items()}
        sessions = self.open_sessions(lakes)
        for dataset, text in self.unique_queries():
            sessions[dataset].query(text)
        for session in sessions.values():
            session.close()

    def release(self) -> None:
        self.tier.stop()

    def open_sessions(self, lakes) -> dict[str, Session]:
        return {dataset: Session(lake, brain=self.brain,
                                 cache_url=self.tier.url)
                for dataset, lake in lakes.items()}


# ----------------------------------------------------------------------
# The query service: closed-loop capacity, then open-loop latency
# ----------------------------------------------------------------------

@dataclass
class _Job:
    query: qs.Query
    latency_ms: float            # closed: from send; open: from due time
    sent_to_done_ms: float
    submit_ms: float
    late_ms: float
    poll_ms: list[float]
    body: bytes                  # final GET response
    block: int = 0               # open loop: which cycle it arrived in
    payload: dict = field(default_factory=dict)   # decoded after the clock


class _SpeedSampler(threading.Thread):
    """Calibrates while other threads carry the load.

    Between phases the process sleeps and the core clocks down, so
    kernel runs taken there do not describe the speed the server ran at.
    This thread runs the kernel every *period_s* during the phases and
    times it in its own CPU time, which waiting for the interpreter lock
    does not inflate.  It costs about 1 % of one core.
    """

    def __init__(self, period_s: float = 0.1):
        super().__init__(name="bench-speed-sampler", daemon=True)
        self.period_s = period_s
        self.samples: list[float] = []
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(self.period_s):
            self.samples.append(calibrate(time.thread_time))

    def stop(self) -> list[float]:
        self._halt.set()
        self.join()
        return self.samples


class _Http:
    """One keep-alive connection with its own API token."""

    def __init__(self, port: int, token: str):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        self.headers = {"x-api-token": token,
                        "Content-Type": "application/json"}

    def request(self, method: str, path: str,
                body: dict | None = None) -> tuple[int, bytes, float]:
        started = time.perf_counter()
        self.conn.request(method, path,
                          body=json.dumps(body) if body is not None else None,
                          headers=self.headers)
        response = self.conn.getresponse()
        data = response.read()
        return (response.status, data,
                (time.perf_counter() - started) * 1000.0)

    def close(self) -> None:
        self.conn.close()


class ServeOpen(Workload):
    """The only workload with LLM round-trip latency, HTTP, admission and
    queueing: a warm session behind ``repro.serve`` with a 5 ms simulated
    LLM, driven closed-loop (capacity) and then open-loop (latency at a
    fixed arrival rate, timed from each job's due time)."""

    name = "serve-open"
    llm_latency_s = 0.005
    clients = 2
    rate_per_s = 30.0
    poll_s = 0.002
    closed_share = 0.3
    job_deadline_s = 30.0
    cycle_len = 60
    rank_seed = 133     # see _CycleWorkload.rank_seed

    def scales(self) -> dict[str, float]:
        return {"artwork": 2}

    def unique_queries(self) -> list[qs.Query]:
        return qs.serve_queries()

    def setup(self) -> None:
        self.load_lake_s = 0.0
        self.brain.inner.latency_seconds = 0.0
        self.session = Session(self.load("artwork", self.scales()["artwork"]),
                               brain=self.brain)
        self.queries = self.unique_queries()
        self.cycle = qs.zipf_cycle(len(self.queries), self.cycle_len,
                                   self.rank_seed)
        for _dataset, text in self.queries:
            self.session.query(text)
        self.brain.inner.latency_seconds = self.llm_latency_s
        self.handle = ServerHandle(self.session, ServeConfig(
            port=0, workers=2, queue_depth=64, per_client_limit=64)).start()

    def release(self) -> None:
        self.handle.drain(timeout=30)
        self.session.close()

    # -- load generation ------------------------------------------------

    def _cycle(self, rng: random.Random) -> list[qs.Query]:
        """One seeded permutation of the Zipf cycle."""
        return [self.queries[index]
                for index in qs.shuffled(self.cycle, rng)]

    def _poll(self, client: _Http, job_id: str) -> tuple[bool, bytes, float]:
        status, body, ms = client.request("GET", f"/queries/{job_id}")
        done = status != 200 or json.loads(body)["status"] in (
            "done", "cancelled")
        return done, body, ms

    def _closed_loop(self, seconds: float, rng: random.Random,
                     failures: list[str]) -> tuple[list[_Job], float]:
        """Each client sends its next query when the previous one is done;
        the clients share one stream and stop at the first cycle boundary
        after *seconds*, so the phase runs whole cycles."""
        jobs: list[list[_Job]] = [[] for _ in range(self.clients)]
        deadline = time.perf_counter() + seconds
        backlog: list[qs.Query] = []
        backlog_lock = threading.Lock()

        def next_query() -> qs.Query | None:
            with backlog_lock:
                if not backlog:
                    if time.perf_counter() >= deadline:
                        return None
                    backlog.extend(self._cycle(rng))
                return backlog.pop()

        def client_loop(index: int) -> None:
            client = _Http(self.handle.port, f"bench-closed-{index}")
            try:
                while (query := next_query()) is not None:
                    started = time.perf_counter()
                    status, body, submit_ms = client.request(
                        "POST", "/queries", {"query": query[1]})
                    if status != 202:
                        failures.append(f"submit refused with {status}")
                        continue
                    job_id = json.loads(body)["id"]
                    polls: list[float] = []
                    while True:
                        done, body, ms = self._poll(client, job_id)
                        polls.append(ms)
                        if done:
                            break
                        if time.perf_counter() - started > \
                                self.job_deadline_s:
                            failures.append(f"job {job_id} timed out")
                            body = b""
                            break
                        time.sleep(self.poll_s)
                    latency = (time.perf_counter() - started) * 1000.0
                    if body:
                        jobs[index].append(_Job(
                            query, latency, latency, submit_ms, 0.0, polls,
                            body))
            finally:
                client.close()

        started = time.perf_counter()
        threads = [threading.Thread(target=client_loop, args=(index,))
                   for index in range(self.clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        return [job for per_client in jobs for job in per_client], elapsed

    def _open_loop(self, seconds: float, rng: random.Random,
                   failures: list[str]) -> list[_Job]:
        """Poisson arrivals at a fixed rate on one connection, completion
        polled on another; a job's latency runs from its due time.  The
        phase is the whole number of cycles nearest to *seconds*; a cycle
        is one block."""
        cycles = max(2, round(self.rate_per_s * seconds / len(self.cycle)))
        stream = [query for _ in range(cycles) for query in self._cycle(rng)]
        schedule = qs.poisson_schedule(self.rate_per_s, len(stream), rng)
        pending: collections.deque = collections.deque()
        submitted = threading.Event()
        jobs: list[_Job] = []
        origin = time.perf_counter()

        def submit_loop() -> None:
            client = _Http(self.handle.port, "bench-open")
            try:
                for position, (due, query) in enumerate(zip(schedule,
                                                            stream)):
                    wait = origin + due - time.perf_counter()
                    if wait > 0:
                        time.sleep(wait)
                    sent = time.perf_counter()
                    status, body, submit_ms = client.request(
                        "POST", "/queries", {"query": query[1]})
                    if status != 202:
                        failures.append(f"submit refused with {status}")
                        continue
                    pending.append({
                        "id": json.loads(body)["id"], "query": query,
                        "block": position // len(self.cycle),
                        "due": origin + due, "sent": sent,
                        "submit_ms": submit_ms, "polls": []})
            finally:
                client.close()
                submitted.set()

        def poll_loop() -> None:
            client = _Http(self.handle.port, "bench-open")
            try:
                while pending or not submitted.is_set():
                    # FIFO dispatch onto two lanes: only the two oldest
                    # outstanding jobs can be running.
                    for entry in list(pending)[:2]:
                        done, body, ms = self._poll(client, entry["id"])
                        entry["polls"].append(ms)
                        now = time.perf_counter()
                        if done:
                            pending.remove(entry)
                            jobs.append(_Job(
                                entry["query"],
                                (now - entry["due"]) * 1000.0,
                                (now - entry["sent"]) * 1000.0,
                                entry["submit_ms"],
                                (entry["sent"] - entry["due"]) * 1000.0,
                                entry["polls"], body, entry["block"]))
                        elif now - entry["sent"] > self.job_deadline_s:
                            pending.remove(entry)
                            failures.append(f"job {entry['id']} timed out")
                    time.sleep(self.poll_s)
            finally:
                client.close()

        threads = [threading.Thread(target=submit_loop),
                   threading.Thread(target=poll_loop)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return jobs

    # -- measurement ----------------------------------------------------

    def measure(self, seconds: float, rng: random.Random,
                checker: qs.AnswerChecker) -> Measurement:
        before = _cache_counters([self.session])
        llm_before = self.brain.snapshot()
        failures: list[str] = []
        sampler = _SpeedSampler()
        gc.collect()
        cpu_started = time.process_time()
        sampler.start()
        closed, closed_s = self._closed_loop(seconds * self.closed_share,
                                             rng, failures)
        opened = self._open_loop(seconds * (1.0 - self.closed_share), rng,
                                 failures)
        cal = sampler.stop()
        cpu_ms = (time.process_time() - cpu_started) * 1000.0 - sum(cal)

        # Answers are checked after the clock stops: decoding results on
        # the load threads would compete with the server for the GIL.
        good_closed = [job for job in closed if self._check(job, checker)]
        good_open = [job for job in opened if self._check(job, checker)]
        for reason in failures:
            checker.fail(reason)
        if not good_closed or not good_open:
            raise RuntimeError(f"serve-open answered nothing: "
                               f"{checker.first_failure}")
        answered = len(good_closed) + len(good_open)
        # Speed over the run, in ten slices, for the contamination flag.
        slice_len = max(1, len(cal) // 10)
        factors = [speed_factor(cal[i:i + slice_len])
                   for i in range(0, len(cal), slice_len)]
        latencies = [job.latency_ms for job in good_open]
        blocks: dict[int, list[float]] = collections.defaultdict(list)
        for job in good_open:
            blocks[job.block].append(job.latency_ms)
        # Per cycle, then the median over cycles: a stall of the whole
        # box spoils the cycle it hits, not the run.
        e2e = {
            "queries_per_s": len(good_closed) / closed_s,
            "query_ms_p50": statistics.median(
                percentile(block, 50) for block in blocks.values()),
            "query_ms_p95": statistics.median(
                percentile(block, 95) for block in blocks.values()),
            "cpu_ms_per_query": cpu_ms * speed_factor(cal) / answered,
        }
        harness = {
            "raw_queries_per_s": e2e["queries_per_s"],
            "raw_query_ms_p50": e2e["query_ms_p50"],
            "p50_cliff": percentile(latencies, 55)
            / percentile(latencies, 45) - 1.0,
            "p95_cliff": percentile(latencies, 97.5)
            / percentile(latencies, 92.5) - 1.0,
            "calib_ms_p50": statistics.median(cal),
            "speed_factor_min": min(factors),
            "speed_factor_max": max(factors),
            "blocks": len(blocks),
            "samples_per_block": len(self.cycle),
        }
        after = _cache_counters([self.session])
        layers = _cache_layers({k: after[k] - before[k] for k in after},
                               answered)
        layers.update(self._serve_layers(good_closed, good_open, failures,
                                         len(closed) + len(opened)))
        llm = tuple(now - then for now, then
                    in zip(self.brain.snapshot(), llm_before))
        return Measurement(e2e=e2e, harness=harness, layers=layers,
                           queries=answered, rounds=len(blocks), llm=llm)

    @staticmethod
    def _check(job: _Job, checker: qs.AnswerChecker) -> bool:
        payload = job.payload = json.loads(job.body)
        if payload.get("status") != "done" or "result" not in payload:
            checker.fail(f"{job.query[1]}: job ended "
                         f"{payload.get('status', payload)}")
            return False
        return checker.check(job.query,
                             QueryResult.from_dict(payload["result"]))

    @staticmethod
    def _serve_layers(closed: list[_Job], opened: list[_Job],
                      failures: list[str], finished: int) -> dict[str, float]:
        jobs = closed + opened
        queue_wait = [job.payload["queue_wait_ms"] for job in opened]
        run = [job.payload["run_ms"] for job in opened]
        overhead = [job.sent_to_done_ms - wait - ran
                    for job, wait, ran in zip(opened, queue_wait, run)]
        return {
            "serve.http_requests_per_job":
                sum(1 + len(job.poll_ms) for job in jobs) / len(jobs),
            "serve.submit_ms_p50":
                percentile([job.submit_ms for job in jobs], 50),
            "serve.poll_ms_p50":
                percentile([ms for job in jobs for ms in job.poll_ms], 50),
            "serve.queue_wait_ms_p50": percentile(queue_wait, 50),
            "serve.queue_wait_ms_p95": percentile(queue_wait, 95),
            "serve.run_ms_p50": percentile(run, 50),
            "serve.overhead_ms_p50": percentile(overhead, 50),
            "serve.result_bytes_per_job":
                sum(len(job.body) for job in jobs) / len(jobs),
            "serve.rejected_share":
                sum("refused" in reason for reason in failures)
                / max(1, finished + len(failures)),
            "serve.late_ms_p95":
                percentile([job.late_ms for job in opened], 95),
        }


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (WarmMixed, RelationalScale, ColdFirstAsk,
                              ReplicaJoin, ServeOpen)}
