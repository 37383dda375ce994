"""Service-level metrics registry.

Aggregates per-query :class:`~repro.engine.metrics.RuntimeMetrics` and
the serving-layer counters an operator dashboard needs: cache hit ratio,
optimize vs. execute latency, and estimated vs. measured cost (the
Figure 5 validation, now tracked continuously in production instead of
once per benchmark).  A bounded ring of recent per-query records
supports the ``stats`` protocol request without unbounded growth; a
second bounded ring holds the slow-query log (queries over the
configured latency threshold, or whose measured cost diverged from the
estimate by more than the misestimate ratio).  :meth:`to_prometheus`
renders everything in the Prometheus text exposition format.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

from repro.engine.metrics import RuntimeMetrics

__all__ = [
    "LATENCY_BUCKETS",
    "LatencyHistogram",
    "QueryRecord",
    "ServiceMetrics",
]


@dataclass
class QueryRecord:
    """One served query, as remembered by the metrics ring."""

    canonical: str
    cache_status: str
    estimated_cost: float
    measured_cost: float
    optimize_seconds: float
    execute_seconds: float
    rows: int
    request_id: str = ""
    #: Time spent waiting for the service's store lock before
    #: execution started; not part of ``execute_seconds``.
    wait_lock_seconds: float = 0.0
    #: Engine batch size the request ran with, so slow-log entries and
    #: telemetry attribute latency regressions to the right pipeline
    #: configuration (0 = unknown, for records predating the field).
    batch_size: int = 0
    #: Engine batch layout the request ran with (``"row"`` or
    #: ``"columnar"``; "" = unknown, for records predating the field).
    batch_layout: str = ""
    #: Shard width the request ran with (1 = single-process).  The
    #: per-shard counters below belong to *this* request alone — they
    #: are read from the request's own engine, whose shard sessions are
    #: private, so two concurrent sharded queries never bleed work into
    #: each other's records.
    shards: int = 1
    exchange_tuples: int = 0
    exchange_bytes: int = 0
    #: Logical reads per shard index, for this request only.
    reads_by_shard: Dict[int, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        payload = {
            "query": self.canonical,
            "cache": self.cache_status,
            "estimated_cost": round(self.estimated_cost, 2),
            "measured_cost": round(self.measured_cost, 2),
            "optimize_ms": round(self.optimize_seconds * 1000, 3),
            "execute_ms": round(self.execute_seconds * 1000, 3),
            "wait_lock_ms": round(self.wait_lock_seconds * 1000, 3),
            "rows": self.rows,
            "request_id": self.request_id,
            "batch_size": self.batch_size,
            "batch_layout": self.batch_layout,
            "shards": self.shards,
        }
        if self.shards > 1:
            payload["exchange_tuples"] = self.exchange_tuples
            payload["exchange_bytes"] = self.exchange_bytes
            payload["reads_by_shard"] = {
                str(shard): reads
                for shard, reads in sorted(self.reads_by_shard.items())
            }
        return payload


#: Upper bounds (seconds) of the execute-latency histogram.  Unlike the
#: windowed percentile summary, the bucket counters are cumulative
#: since process start — Prometheus can ``rate()`` and aggregate them
#: across scrapes and restarts.
LATENCY_BUCKETS = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


class LatencyHistogram:
    """Fixed-bucket cumulative histogram (Prometheus ``_bucket``/``le``
    exposition).  Not thread-safe on its own; the owning registry's
    lock covers it."""

    def __init__(self, buckets=LATENCY_BUCKETS) -> None:
        self.buckets = tuple(buckets)
        self.counts = [0] * len(self.buckets)
        self.total = 0
        self.sum = 0.0

    def observe(self, seconds: float) -> None:
        self.total += 1
        self.sum += seconds
        for index, bound in enumerate(self.buckets):
            if seconds <= bound:
                self.counts[index] += 1

    def snapshot(self) -> dict:
        cumulative = {}
        for bound, count in zip(self.buckets, self.counts):
            cumulative[f"{bound:g}"] = count
        cumulative["+Inf"] = self.total
        return {
            "buckets": cumulative,
            "sum": round(self.sum, 6),
            "count": self.total,
        }

    def exposition(self, name: str, help_text: str) -> List[str]:
        lines = [
            f"# HELP {name} {help_text}",
            f"# TYPE {name} histogram",
        ]
        for bound, count in zip(self.buckets, self.counts):
            lines.append(f'{name}_bucket{{le="{bound:g}"}} {count}')
        lines.append(f'{name}_bucket{{le="+Inf"}} {self.total}')
        lines.append(f"{name}_sum {_number(self.sum)}")
        lines.append(f"{name}_count {self.total}")
        return lines


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _percentile(values: List[float], fraction: float) -> float:
    """Linear interpolation between closest ranks (the ``inclusive``
    method of :func:`statistics.quantiles`): the p-quantile sits at
    position ``p * (n - 1)`` of the sorted sample, interpolated
    between its floor and ceiling neighbours."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = fraction * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    weight = position - lower
    return ordered[lower] * (1.0 - weight) + ordered[upper] * weight


class ServiceMetrics:
    """Thread-safe aggregation of everything the service observes."""

    def __init__(self, window: int = 256, slow_window: int = 64) -> None:
        self._lock = threading.Lock()
        self.requests = 0
        self.executed = 0
        self.errors = 0
        self.timeouts = 0
        self.cancelled = 0
        self.rejected = 0
        self.slow_queries = 0
        self.counters: Dict[str, int] = {}
        self.optimize_seconds = 0.0
        self.execute_seconds = 0.0
        self.runtime = RuntimeMetrics()
        self.recent: Deque[QueryRecord] = deque(maxlen=window)
        #: The slow-query log: record dicts plus why they qualified.
        self.slow: Deque[dict] = deque(maxlen=slow_window)
        #: Cumulative execute-latency histogram (dashboards aggregate
        #: the bucket counters across restarts; the percentile summary
        #: above only covers the recent window).
        self.latency_histogram = LatencyHistogram()
        #: Cumulative fixpoint-round latency histogram, fed by the live
        #: progress tracker (one observation per semi-naive round).
        self.round_histogram = LatencyHistogram()
        #: Labelled gauges: name -> (help text, {labels-tuple: value}).
        #: The feedback loop publishes per-query-class misestimate
        #: ratios here.
        self.gauges: Dict[str, tuple] = {}

    # -- recording ----------------------------------------------------------

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def record_request(self) -> None:
        with self._lock:
            self.requests += 1

    def record_rejection(self) -> None:
        with self._lock:
            self.rejected += 1

    def record_timeout(self) -> None:
        with self._lock:
            self.timeouts += 1

    def record_cancel(self) -> None:
        with self._lock:
            self.cancelled += 1

    def record_error(self) -> None:
        with self._lock:
            self.errors += 1

    def record_execution(
        self,
        record: QueryRecord,
        runtime: Optional[RuntimeMetrics] = None,
    ) -> None:
        with self._lock:
            self.executed += 1
            self.optimize_seconds += record.optimize_seconds
            self.execute_seconds += record.execute_seconds
            self.latency_histogram.observe(record.execute_seconds)
            if runtime is not None:
                self.runtime.merge(runtime)
            self.recent.append(record)

    def set_gauge(
        self,
        name: str,
        value: float,
        help_text: str = "",
        labels: Optional[Dict[str, str]] = None,
    ) -> None:
        """Publish one labelled gauge sample (overwrites the previous
        value for the same label set)."""
        label_key = tuple(sorted((labels or {}).items()))
        with self._lock:
            help_known, samples = self.gauges.get(name, ("", {}))
            samples = dict(samples)
            samples[label_key] = value
            self.gauges[name] = (help_text or help_known, samples)

    def replace_gauge(
        self,
        name: str,
        help_text: str,
        samples: Dict[tuple, float],
    ) -> None:
        """Replace *every* sample of a labelled gauge at once.

        Scrape-time refreshers that publish per-query-class gauges use
        this instead of repeated :meth:`set_gauge` calls: a class that
        fell out of the summary disappears instead of exposing its
        stale last value forever, and the publisher can enforce a label
        cardinality cap by simply not including the tail classes.
        ``samples`` maps sorted label tuples (as built by
        :meth:`set_gauge`) to values; an empty dict drops the gauge."""
        with self._lock:
            if samples:
                self.gauges[name] = (help_text, dict(samples))
            else:
                self.gauges.pop(name, None)

    def observe_round(
        self,
        seconds: float,
        barrier_fraction: Optional[float] = None,
        skew: Optional[float] = None,
        shards: int = 1,
    ) -> None:
        """Record one semi-naive fixpoint round: its latency into the
        round histogram, and — for distributed rounds — the fraction of
        the round the coordinator spent blocked on the barrier and the
        observed max/mean shard skew as gauges."""
        with self._lock:
            self.round_histogram.observe(seconds)
        # set_gauge takes the same (non-reentrant) lock — call it after
        # releasing ours.
        if barrier_fraction is not None:
            self.set_gauge(
                "fixpoint_barrier_wait_fraction",
                max(0.0, min(1.0, barrier_fraction)),
                "Fraction of the last distributed round the coordinator "
                "spent blocked on the shard barrier.",
                labels={"shards": str(shards)},
            )
        if skew is not None:
            self.set_gauge(
                "fixpoint_shard_skew",
                max(1.0, skew),
                "Observed max/mean shard load of the last distributed "
                "round.",
                labels={"shards": str(shards)},
            )

    def record_slow(self, record: QueryRecord, reasons: List[str]) -> None:
        """Admit one query into the slow-query log."""
        with self._lock:
            self.slow_queries += 1
            entry = record.to_dict()
            entry["reasons"] = list(reasons)
            self.slow.append(entry)

    # -- reporting ----------------------------------------------------------

    def snapshot(self) -> dict:
        """A JSON-serializable summary for the ``stats`` request."""
        with self._lock:
            execute_times = [r.execute_seconds for r in self.recent]
            ratios = [
                r.measured_cost / r.estimated_cost
                for r in self.recent
                if r.estimated_cost > 0 and r.measured_cost > 0
            ]
            return {
                "requests": self.requests,
                "executed": self.executed,
                "errors": self.errors,
                "timeouts": self.timeouts,
                "cancelled": self.cancelled,
                "rejected": self.rejected,
                "slow_queries": self.slow_queries,
                "counters": dict(self.counters),
                "optimize_seconds": round(self.optimize_seconds, 6),
                "execute_seconds": round(self.execute_seconds, 6),
                "execute_p50_ms": round(
                    _percentile(execute_times, 0.50) * 1000, 3
                ),
                "execute_p95_ms": round(
                    _percentile(execute_times, 0.95) * 1000, 3
                ),
                "measured_over_estimated": (
                    round(sum(ratios) / len(ratios), 4) if ratios else None
                ),
                "fix_iterations": self.runtime.fix_iterations,
                "exchange_rounds": self.runtime.exchange_rounds,
                "exchange_tuples": self.runtime.exchange_tuples,
                "exchange_bytes": self.runtime.exchange_bytes,
                "page_reads": self.runtime.buffer.physical_reads,
                "predicate_evals": self.runtime.predicate_evals,
                "latency_histogram": self.latency_histogram.snapshot(),
                "round_latency_histogram": self.round_histogram.snapshot(),
                "recent": [r.to_dict() for r in list(self.recent)[-10:]],
                "slow": list(self.slow),
            }

    def to_prometheus(self) -> str:
        """The Prometheus text exposition format (version 0.0.4), for
        the ``metrics`` protocol request and the HTTP ``/metrics``
        endpoint of ``repro serve --metrics-port``."""
        with self._lock:
            execute_times = [r.execute_seconds for r in self.recent]
            counters = dict(self.counters)
            lines: List[str] = []

            def counter(name: str, help_text: str, value) -> None:
                lines.append(f"# HELP repro_{name} {help_text}")
                lines.append(f"# TYPE repro_{name} counter")
                lines.append(f"repro_{name} {_number(value)}")

            counter("requests_total", "Query requests received.", self.requests)
            counter("queries_executed_total", "Queries executed to completion.", self.executed)
            counter("errors_total", "Requests failed with an error.", self.errors)
            counter("timeouts_total", "Queries cancelled by timeout.", self.timeouts)
            counter("cancelled_total", "Queries cancelled by the client.", self.cancelled)
            counter("rejected_total", "Queries rejected by admission control.", self.rejected)
            counter("slow_queries_total", "Queries admitted to the slow-query log.", self.slow_queries)
            counter("optimize_seconds_total", "Time spent optimizing.", self.optimize_seconds)
            counter("execute_seconds_total", "Time spent executing.", self.execute_seconds)
            counter("page_reads_total", "Physical page reads.", self.runtime.buffer.physical_reads)
            counter("predicate_evals_total", "Predicate evaluations.", self.runtime.predicate_evals)
            counter("fix_iterations_total", "Semi-naive fixpoint iterations.", self.runtime.fix_iterations)
            counter("exchange_rounds_total", "Distributed fixpoint scatter-gather rounds.", self.runtime.exchange_rounds)
            counter("exchange_tuples_total", "Tuples moved through the delta exchange (both legs).", self.runtime.exchange_tuples)
            counter("exchange_bytes_total", "Bytes moved through the delta exchange (both legs).", self.runtime.exchange_bytes)

            if self.runtime.tuples_by_shard or self.runtime.reads_by_shard:
                lines.append("# HELP repro_shard_tuples_total Tuples produced per shard across distributed fixpoints.")
                lines.append("# TYPE repro_shard_tuples_total counter")
                for shard, value in sorted(self.runtime.tuples_by_shard.items()):
                    lines.append(
                        f'repro_shard_tuples_total{{shard="{shard}"}} '
                        f"{_number(value)}"
                    )
                lines.append("# HELP repro_shard_reads_total Logical page reads per shard across distributed fixpoints.")
                lines.append("# TYPE repro_shard_reads_total counter")
                for shard, value in sorted(self.runtime.reads_by_shard.items()):
                    lines.append(
                        f'repro_shard_reads_total{{shard="{shard}"}} '
                        f"{_number(value)}"
                    )

            lines.append("# HELP repro_cache_lookups_total Plan cache lookups by outcome.")
            lines.append("# TYPE repro_cache_lookups_total counter")
            for name, value in sorted(counters.items()):
                if name.startswith("cache_"):
                    status = name[len("cache_"):]
                    lines.append(
                        f'repro_cache_lookups_total{{status="{status}"}} '
                        f"{_number(value)}"
                    )

            # Feedback-loop counters (zero until the loop acts, but
            # always exposed so dashboards can alert on them).
            counter(
                "recalibrations_total",
                "Online cost-model recalibrations performed.",
                counters.get("recalibrations", 0),
            )
            counter(
                "plan_regressions_total",
                "Plan changes flagged as latency regressions.",
                counters.get("plan_regressions", 0),
            )
            counter(
                "plans_pinned_total",
                "Plans pinned against drift re-optimization.",
                counters.get("plans_pinned", 0),
            )

            # Overhead-governor counters: zero until an observability
            # budget is configured, but always exposed so dashboards
            # can alert the moment a deployment turns the governor on.
            counter(
                "anomalies_total",
                "Anomalies raised by the per-class EWMA+MAD detector.",
                counters.get("anomalies", 0),
            )
            counter(
                "flight_bundles_total",
                "Flight-recorder diagnostic bundles recorded.",
                counters.get("flight_bundles", 0),
            )
            counter(
                "obs_committed_total",
                "Buffered trace/profile runs committed by tail sampling.",
                counters.get("obs_committed", 0),
            )
            counter(
                "obs_dropped_total",
                "Buffered trace/profile runs dropped at completion.",
                counters.get("obs_dropped", 0),
            )

            for name, (help_text, samples) in sorted(self.gauges.items()):
                lines.append(f"# HELP repro_{name} {help_text}")
                lines.append(f"# TYPE repro_{name} gauge")
                for label_key, value in sorted(samples.items()):
                    if label_key:
                        rendered = ",".join(
                            f'{key}="{_escape_label(str(val))}"'
                            for key, val in label_key
                        )
                        lines.append(
                            f"repro_{name}{{{rendered}}} {_number(value)}"
                        )
                    else:
                        lines.append(f"repro_{name} {_number(value)}")

            lines.extend(
                self.latency_histogram.exposition(
                    "repro_execute_latency_hist_seconds",
                    "Execute latency histogram (cumulative since start).",
                )
            )

            lines.extend(
                self.round_histogram.exposition(
                    "repro_fixpoint_round_seconds",
                    "Semi-naive fixpoint round latency histogram "
                    "(cumulative since start).",
                )
            )

            lines.append("# HELP repro_execute_latency_seconds Execute latency over the recent window.")
            lines.append("# TYPE repro_execute_latency_seconds summary")
            for q in (0.5, 0.95, 0.99):
                lines.append(
                    f'repro_execute_latency_seconds{{quantile="{q}"}} '
                    f"{_number(_percentile(execute_times, q))}"
                )
            lines.append(
                "repro_execute_latency_seconds_sum "
                f"{_number(sum(execute_times))}"
            )
            lines.append(
                f"repro_execute_latency_seconds_count {len(execute_times)}"
            )
            return "\n".join(lines) + "\n"


def _number(value) -> str:
    """Prometheus sample values: integers stay bare, floats use repr."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))
