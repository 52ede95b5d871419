"""The session-level metrics registry: counters and latency histograms.

One :class:`MetricsRegistry` lives on each :class:`~repro.session.Session`
and accumulates across every query and batch of that session — the
numbers a ``/metrics`` endpoint of the ROADMAP's query service would
scrape.  Engines record into it after every query (counts, cache
locality, token/cost totals, per-phase latencies); the process backend's
worker lanes keep a local registry, take what it recorded after every
query and ship it back over the pipe (:meth:`take` / :meth:`merge`), so
the parent registry stays complete under every execution backend.

Thread safety: one internal lock guards all state — any number of
concurrent thread-backend engines may record into one registry.

Determinism: :meth:`snapshot` is a pure, stable function of the registry
state — keys sorted, bucket bounds fixed, derived rates computed with
fixed rounding — so two identical runs produce identical counter
snapshots and repeated snapshots of one registry are byte-identical.
(Latency sums are wall-clock and therefore vary run to run; counts and
counters do not.)
"""

from __future__ import annotations

import json
import re
import threading

#: Upper bounds (seconds) of the latency histogram buckets; the implicit
#: final bucket is ``+inf``.  Fixed so snapshots are comparable across
#: sessions, processes, and commits.
LATENCY_BUCKETS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
                   0.5, 1.0, 2.5, 5.0, 10.0)


def render_snapshot(snapshot: dict) -> str:
    """Canonical JSON text of a metrics snapshot.

    Sorted keys, two-space indent, trailing newline — the one encoding
    shared by the service's ``GET /metrics`` endpoint and ``repro batch
    --metrics-file``, so a scraped snapshot and a dumped file diff
    cleanly against each other.
    """
    return json.dumps(snapshot, indent=2, sort_keys=True) + "\n"


#: Prometheus metric names allow ``[a-zA-Z_:][a-zA-Z0-9_:]*``; anything
#: else in a counter name is folded to ``_``.
_PROM_BAD = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    sanitized = _PROM_BAD.sub("_", name)
    if not sanitized or sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return f"repro_{sanitized}"


def _prom_value(value: float) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def render_prometheus(snapshot: dict) -> str:
    """A metrics snapshot in Prometheus text exposition format (0.0.4).

    Counters render as ``counter`` samples (a ``{label="value"}`` suffix
    in a counter's name becomes the sample's label set), derived rates
    as ``gauge``,
    histograms as the standard ``_bucket``/``_sum``/``_count`` triple
    (bucket counts are already cumulative in the snapshot).  The
    ``local_caches`` block of
    :meth:`~repro.session.Session.observability_snapshot` renders as
    ``repro_local_cache_*`` gauges labelled ``{space="..."}`` and its
    ``memo_builds`` as ``repro_memo_builds_total{kind="..."}``; the nested
    ``cachenet_server`` block a tier-backed session's snapshot includes
    is flattened to ``repro_cachenet_server_*`` gauges, numeric leaves
    only.  Serve with ``GET /metrics?format=prometheus``; content type
    ``text/plain; version=0.0.4``.
    """
    lines: list[str] = []

    def emit(name: str, kind: str, samples: list[str]) -> None:
        lines.append(f"# TYPE {name} {kind}")
        lines.extend(samples)

    counters = dict(snapshot.get("counters", {}))
    for kind, count in snapshot.get("memo_builds", {}).items():
        counters[f'memo_builds_total{{kind="{kind}"}}'] = count
    family = None
    for name in sorted(counters):
        value = counters[name]
        if not isinstance(value, (int, float)):
            continue
        # A counter name may carry a label set (``name{reason="..."}``);
        # the labelled samples of one family share its TYPE line.
        base, brace, labels = name.partition("{")
        metric = _prom_name(base)
        sample = f"{metric}{brace}{labels} {_prom_value(value)}"
        if metric == family:
            lines.append(sample)
        else:
            emit(metric, "counter", [sample])
            family = metric
    for name in sorted(snapshot.get("histograms", {})):
        histogram = snapshot["histograms"][name]
        metric = _prom_name(name + "_seconds")
        samples = []
        for bound, count in histogram.get("buckets", {}).items():
            samples.append(f'{metric}_bucket{{le="{bound}"}} {count}')
        samples.append(f"{metric}_sum "
                       f"{_prom_value(histogram.get('sum_seconds', 0.0))}")
        samples.append(f"{metric}_count {histogram.get('count', 0)}")
        emit(metric, "histogram", samples)
    for name in sorted(snapshot.get("derived", {})):
        value = snapshot["derived"][name]
        if not isinstance(value, (int, float)):
            continue
        metric = _prom_name(name)
        emit(metric, "gauge", [f"{metric} {_prom_value(value)}"])
    caches = sorted(snapshot.get("local_caches", {}).items())
    for field in sorted({field for _, stats in caches for field in stats}):
        metric = _prom_name(f"local_cache_{field}")
        emit(metric, "gauge", [f'{metric}{{space="{space}"}} '
                               f'{_prom_value(stats[field])}'
                               for space, stats in caches])
    server = snapshot.get("cachenet_server")
    if isinstance(server, dict):
        for name in sorted(server):
            value = server[name]
            if isinstance(value, bool) or not isinstance(value,
                                                         (int, float)):
                continue
            metric = _prom_name(f"cachenet_server_{name}")
            emit(metric, "gauge", [f"{metric} {_prom_value(value)}"])
    return "\n".join(lines) + "\n"


class _Histogram:
    """Fixed-bucket latency histogram (cumulative counts on snapshot)."""

    __slots__ = ("counts", "total", "sum_seconds")

    def __init__(self) -> None:
        self.counts = [0] * (len(LATENCY_BUCKETS) + 1)
        self.total = 0
        self.sum_seconds = 0.0

    def observe(self, seconds: float) -> None:
        for i, bound in enumerate(LATENCY_BUCKETS):
            if seconds <= bound:
                self.counts[i] += 1
                break
        else:
            self.counts[-1] += 1
        self.total += 1
        self.sum_seconds += seconds

    def merge(self, other: "_Histogram") -> None:
        for i, value in enumerate(other.counts):
            self.counts[i] += value
        self.total += other.total
        self.sum_seconds += other.sum_seconds


class MetricsRegistry:
    """Thread-safe counters + latency histograms with deterministic
    snapshots."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._histograms: dict[str, _Histogram] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def increment(self, name: str, value: float = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def observe(self, name: str, seconds: float) -> None:
        with self._lock:
            self._observe(name, seconds)

    def record(self, increments: list[tuple[str, float]],
               observations: list[tuple[str, float]]) -> None:
        """Apply one query's counter *increments* and latency
        *observations*, in order, under one lock: the same sums as one
        :meth:`increment` / :meth:`observe` call each."""
        with self._lock:
            counters = self._counters
            for name, value in increments:
                counters[name] = counters.get(name, 0) + value
            for name, seconds in observations:
                self._observe(name, seconds)

    def _observe(self, name: str, seconds: float) -> None:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = _Histogram()
        histogram.observe(seconds)

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------

    def counters(self) -> dict[str, float]:
        """A consistent copy of the counter map (keys sorted)."""
        with self._lock:
            return {name: self._counters[name]
                    for name in sorted(self._counters)}

    def snapshot(self) -> dict:
        """The full metrics record, JSON-safe and deterministically
        ordered.

        ``counters`` and ``histograms`` are sorted by name; each
        histogram reports cumulative bucket counts keyed by the (fixed)
        bucket bound plus ``+Inf``; ``derived`` holds the rates the
        ROADMAP's observability item names — cache hit rates and
        queries/s (total queries over summed query wall-clock).
        """
        with self._lock:
            counters = {name: round(self._counters[name], 8)
                        for name in sorted(self._counters)}
            histograms = {}
            for name in sorted(self._histograms):
                histogram = self._histograms[name]
                cumulative = 0
                buckets = {}
                for bound, count in zip(LATENCY_BUCKETS, histogram.counts):
                    cumulative += count
                    buckets[f"{bound:g}"] = cumulative
                buckets["+Inf"] = cumulative + histogram.counts[-1]
                histograms[name] = {
                    "count": histogram.total,
                    "sum_seconds": round(histogram.sum_seconds, 6),
                    "buckets": buckets,
                }
        return {"counters": counters, "histograms": histograms,
                "derived": self._derived(counters, histograms)}

    @staticmethod
    def _derived(counters: dict, histograms: dict) -> dict:
        def rate(hits: str, misses: str) -> float:
            lookups = counters.get(hits, 0) + counters.get(misses, 0)
            return round(counters.get(hits, 0) / lookups, 4) if lookups \
                else 0.0

        total_latency = histograms.get("latency_total", {})
        elapsed = total_latency.get("sum_seconds", 0.0)
        queries = counters.get("queries_total", 0)
        return {
            "plan_cache_hit_rate": rate("plan_cache_hits",
                                        "plan_cache_misses"),
            "answer_cache_hit_rate": rate("answer_cache_hits",
                                          "answer_cache_misses"),
            "cachenet_hit_rate": rate("cachenet_hits", "cachenet_misses"),
            "queries_per_second": (round(queries / elapsed, 3)
                                   if elapsed > 0 else 0.0),
        }

    # ------------------------------------------------------------------
    # Cross-process transport (what a worker lane ships per query)
    # ------------------------------------------------------------------

    def take(self) -> dict:
        """Everything recorded since the last take, and an empty registry.

        A worker lane takes after every query and ships the take back
        with the result; the parent folds it in with :meth:`merge`.
        """
        with self._lock:
            taken = {"counters": self._counters,
                     "histograms": self._histograms}
            self._counters, self._histograms = {}, {}
        return taken

    def merge(self, taken: dict) -> None:
        """Fold a :meth:`take` (e.g. from a worker lane) into this
        registry."""
        with self._lock:
            for name, value in taken["counters"].items():
                self._counters[name] = self._counters.get(name, 0) + value
            for name, other in taken["histograms"].items():
                histogram = self._histograms.get(name)
                if histogram is None:
                    histogram = self._histograms[name] = _Histogram()
                histogram.merge(other)
