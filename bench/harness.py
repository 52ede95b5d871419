"""Measurement primitives: calibration, blocks, percentiles, context.

The box this benchmark runs on is a small shared VM whose vCPU changes
speed from second to second (identical blocks of one warm workload ran
at 415-536 q/s inside a single quiet session), so wall-clock numbers
from two runs of the same code do not agree.  Everything CPU-bound is
therefore reported in *calibrated* time: a fixed kernel
(:func:`calibrate`, about 1 ms) runs on the load thread between
queries, every timed block is scaled by ``CAL_REF_MS / median(kernel ms
in that block)``, and statistics are taken over the scaled blocks.  The
scaled unit reads "milliseconds on a machine where the kernel takes
exactly ``CAL_REF_MS``".  Calibration cancels a uniform CPU slowdown
(frequency, steal); it does not cancel cache or memory-bandwidth
contention, which hits the kernel and the engine differently.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

#: The kernel duration calibrated time is expressed in.  Fixed: changing
#: it rescales every calibrated metric and voids recorded baselines.
CAL_REF_MS = 1.0

#: A run whose fastest and slowest blocks differ by more than this
#: factor is flagged ``contaminated`` (still reported).
CONTAMINATED_RATIO = 2.0

_CAL_FLOATS = np.linspace(0.0, 1.0, 60_000)
_CAL_INTS = (np.arange(20_000, dtype=np.int64)[::-1] * 7919) % 977


def calibrate(clock=time.perf_counter) -> float:
    """Run the fixed calibration kernel once; returns its duration in ms.

    Three parts, weighted like the engine's own instruction mix: a
    pure-Python dict/str loop (the planner, mapper and prompt code), a
    numpy multiply-add-sum over 60k float64 (columnar kernels) and a
    stable argsort over 20k int64 (joins, GROUP BY).

    *clock* is wall time on a load thread that runs alone; a sampler
    beside other threads passes ``time.thread_time``, which leaves out
    the waits for the interpreter lock.
    """
    started = clock()
    table: dict[str, int] = {}
    for i in range(3000):
        table[str(i % 97)] = i
    float((_CAL_FLOATS * 1.0001 + 0.5).sum())
    np.argsort(_CAL_INTS, kind="stable")
    return (clock() - started) * 1000.0


def speed_factor(cal_ms: list[float]) -> float:
    """Multiplier turning raw time into calibrated time for one block."""
    if not cal_ms:
        raise ValueError("a block needs at least one calibration sample")
    return CAL_REF_MS / statistics.median(cal_ms)


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (*q* in (0, 100]) of *samples*."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass
class Block:
    """One timed block: per-query samples plus interleaved calibration.

    ``extra_ms`` is timed work that is not a query (session construction,
    cache saves): it counts toward throughput, and its CPU toward
    ``cpu_ms``, but not toward the latency percentiles.
    """

    latency_ms: list[float] = field(default_factory=list)
    cpu_ms: float = 0.0
    cal_ms: list[float] = field(default_factory=list)
    extra_ms: float = 0.0

    @property
    def factor(self) -> float:
        return speed_factor(self.cal_ms)

    @property
    def busy_ms(self) -> float:
        return sum(self.latency_ms) + self.extra_ms


def summarize_blocks(blocks: list[Block]) -> dict[str, float]:
    """Calibrated end-to-end figures plus their raw twins.

    Every block of a workload runs the same multiset of queries, so
    blocks are comparable: each statistic is taken inside a block on
    calibrated samples, and the run reports the median over blocks —
    one noisy block (a neighbour's burst) moves nothing.
    """
    usable = [b for b in blocks if b.latency_ms]
    if not usable:
        raise ValueError("no block answered a single query")

    def over_blocks(stat) -> float:
        return statistics.median(stat(b) for b in usable)

    factors = [b.factor for b in usable]
    pooled = [ms * b.factor for b in usable for ms in b.latency_ms]
    return {
        "queries_per_s": over_blocks(
            lambda b: len(b.latency_ms) / (b.busy_ms * b.factor / 1000.0)),
        "query_ms_p50": over_blocks(
            lambda b: percentile(b.latency_ms, 50) * b.factor),
        "query_ms_p95": over_blocks(
            lambda b: percentile(b.latency_ms, 95) * b.factor),
        "cpu_ms_per_query": over_blocks(
            lambda b: b.cpu_ms * b.factor / len(b.latency_ms)),
        "raw_queries_per_s": over_blocks(
            lambda b: len(b.latency_ms) / (b.busy_ms / 1000.0)),
        "raw_query_ms_p50": over_blocks(
            lambda b: percentile(b.latency_ms, 50)),
        # How steeply latency changes around each reported percentile: a
        # large value means the percentile sits on the boundary between
        # two query types and will jump between runs.
        "p50_cliff": percentile(pooled, 55) / percentile(pooled, 45) - 1.0,
        "p95_cliff": percentile(pooled, 97.5) / percentile(pooled, 92.5)
        - 1.0,
        "calib_ms_p50": statistics.median(
            ms for b in usable for ms in b.cal_ms),
        "speed_factor_min": min(factors),
        "speed_factor_max": max(factors),
        "blocks": len(usable),
        "samples_per_block": statistics.median(
            len(b.latency_ms) for b in usable),
    }


def calibrated_seconds(raw_s: float, cal_ms: list[float]) -> float:
    """Scale one raw duration by the calibration taken around it."""
    return raw_s * speed_factor(cal_ms)


def peak_rss_mb() -> float:
    """High-water resident set of this process, in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def loadavg() -> list[float] | None:
    try:
        with open("/proc/loadavg", encoding="ascii") as handle:
            return [float(part) for part in handle.read().split()[:3]]
    except OSError:
        return None


def git_commit(root: str) -> str | None:
    """HEAD of *root* read straight from ``.git`` (no subprocess); ``None``
    in an exported checkout."""
    git_dir = os.path.join(root, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="ascii") as handle:
            head = handle.read().strip()
        if not head.startswith("ref:"):
            return head
        ref = head.split(None, 1)[1]
        with open(os.path.join(git_dir, ref), encoding="ascii") as handle:
            return handle.read().strip()
    except OSError:
        return None


def run_context(root: str, seed: int) -> dict:
    """Where and how a result was measured; stored beside every record."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(root),
        "seed": seed,
        "cal_ref_ms": CAL_REF_MS,
        "loadavg_before": loadavg(),
    }
