"""The query service: an in-process core plus a socket front-end.

:class:`QueryService` wraps the existing :class:`~repro.core.Optimizer`
/ :class:`~repro.engine.Engine` stack into a long-running server loop:
canonicalize → plan-cache probe (with cost-drift invalidation) →
optimize on miss → admission control → execute under a cancellation
token → record metrics.  It is fully usable in-process (tests,
benchmarks, embedding); :class:`QueryServer` exposes it over TCP with
the line-JSON protocol of :mod:`repro.service.protocol`, one thread per
request via a ``ThreadPoolExecutor``.

Concurrency model: the simulated object store (pages, buffer pool,
temp registration) is a single shared mutable structure, so plan
execution and optimization serialize on one store lock — like a
single-writer storage engine behind a concurrent front door.  Parsing,
canonicalization, protocol handling and queueing all overlap; the
admission controller bounds how many requests may wait on the store at
once.
"""

from __future__ import annotations

import itertools
import socket
import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.baselines import cost_controlled_optimizer
from repro.core.optimizer import Optimizer, OptimizerConfig
from repro.core.strategies import STRATEGY_NAMES
from repro.cost.model import DetailedCostModel
from repro.cost.params import CostParameters
from repro.cost.recost import recost_plan
from repro.engine.batch import BATCH_LAYOUTS, default_batch_size
from repro.engine.cancel import CancellationToken
from repro.engine.context import validate_choice
from repro.engine.evaluator import Engine
from repro.errors import ProtocolError, ReproError, ServiceError
from repro.lang.compile import compile_text
from repro.obs.anomaly import AnomalyConfig, AnomalyDetector
from repro.obs.explain import build_explain, render_explain
from repro.obs.feedback import (
    FeedbackConfig,
    FeedbackManager,
    build_observation,
)
from repro.obs.governor import GovernorConfig, ObservabilityGovernor
from repro.obs.history import plan_fingerprint, q_error, query_class
from repro.obs.log import get_logger
from repro.obs.profile import PlanProfiler
from repro.obs.progress import ProgressTracker
from repro.obs.recorder import FlightRecorder, build_bundle
from repro.obs.sampler import FULL_DETAIL, SamplingDecision
from repro.obs.trace import Tracer
from repro.physical.storage import Oid, StoredRecord
from repro.service import protocol
from repro.service.admission import AdmissionController, AdmissionPolicy
from repro.service.metrics import QueryRecord, ServiceMetrics
from repro.service.plan_cache import RECALIBRATION, CacheKey, CachedPlan, PlanCache
from repro.service.protocol import placeholder_names, substitute_params

__all__ = ["ServiceConfig", "QueryService", "QueryServer", "MetricsServer"]

#: Structured service log (JSON or key=value depending on
#: ``repro.obs.log.configure_logging``); records carry request ids and
#: query classes as fields, not formatted into the message.
_LOG = get_logger("service")


@dataclass
class ServiceConfig:
    """All serving knobs in one place."""

    cache_capacity: int = 64
    #: Tolerated relative drift of a cached plan's estimate under fresh
    #: statistics before the plan is re-optimized.
    drift_ratio: float = 0.5
    cost_budget: Optional[float] = None
    max_concurrent: int = 4
    queue_timeout: float = 5.0
    default_timeout: Optional[float] = None
    max_timeout: Optional[float] = None
    max_fix_iterations: int = 256
    #: Default fixpoint parallelism for requests that do not override
    #: it; the per-request ``parallelism`` field wins, and either way
    #: the grant is capped by ``max_concurrent`` (a parallel query
    #: reserves one admission slot per worker).
    parallelism: int = 1
    #: Default engine batch size for requests that do not override it
    #: (the per-request ``batch_size`` field wins); ``None`` defers to
    #: the engine default (``REPRO_BATCH_SIZE`` or 256).
    batch_size: Optional[int] = None
    #: Default engine batch layout (``"row"`` or ``"columnar"``) for
    #: requests that do not override it (the per-request
    #: ``batch_layout`` field wins); ``None`` defers to the engine
    #: default (``REPRO_BATCH_LAYOUT`` or columnar).  ``"row"`` pins
    #: the row-list compatibility semantics bit-for-bit.
    batch_layout: Optional[str] = None
    #: Default shard fan-out for requests that do not override it (the
    #: per-request ``shards`` field wins); at 1 no shard cluster is
    #: built and execution has exact single-process semantics.  Like
    #: parallelism, a shards-N request reserves N admission slots — a
    #: distributed query occupies N workers' worth of machine.
    shards: int = 1
    metrics_window: int = 256
    max_rows: Optional[int] = None
    #: A query slower than this (seconds) enters the slow-query log;
    #: ``None`` disables latency-based logging.
    slow_query_seconds: Optional[float] = 1.0
    #: A query whose measured cost exceeds its estimate by more than
    #: this factor (either direction) enters the slow-query log —
    #: cost-model misestimates are an observability signal even when
    #: the query itself was fast.  ``None`` disables the check.
    misestimate_ratio: Optional[float] = 10.0
    #: The feedback loop (telemetry store + online recalibration +
    #: plan-regression detection).  Recording is cheap — per-plan
    #: estimates are computed once per plan, per-query appends reuse
    #: counters the engine already keeps — but it can be switched off
    #: entirely for a pure-throughput deployment.
    feedback_enabled: bool = True
    #: Per-plan telemetry ring size.
    history_window: int = 128
    #: Bound on the number of tracked plan fingerprints.
    history_max_plans: int = 256
    #: JSONL file telemetry persists to (and is reloaded from on
    #: startup); ``None`` keeps history in memory only.
    history_path: Optional[str] = None
    #: A re-optimized plan whose median measured latency is worse than
    #: the old plan's by more than this factor is flagged.
    regression_ratio: float = 1.5
    #: Executions of the new plan required before the verdict.
    regression_min_runs: int = 3
    #: Observations required before ``recalibrate`` will fit.
    recalibrate_min_samples: int = 8
    #: Profile every Nth query for per-operator actual costs (0 records
    #: per-operator cardinalities only).
    profile_sample_every: int = 0
    #: Automatically pin the prior plan when a regression is flagged.
    auto_pin: bool = False
    #: Observability budget: the fraction of query wall time the
    #: overhead governor may spend on tracing and profiling.  ``None``
    #: (the default) disables the governor — the legacy
    #: ``profile_sample_every`` path decides profiling instead, and
    #: responses carry no ``obs`` echo (pre-governor payload shape).
    obs_budget: Optional[float] = None
    #: Span cap for the per-request buffered tracer.  Tail sampling
    #: buffers spans in memory until the query completes, so the
    #: buffer must be bounded or a runaway fixpoint would trade the
    #: overhead budget for memory instead.
    trace_max_spans: int = 4096
    #: Robust z-score above which a per-class metric is anomalous.
    anomaly_threshold: float = 4.0
    #: Baseline samples required before a class can raise anomalies.
    anomaly_min_samples: int = 8
    #: Directory flight-recorder bundles are written to; ``None``
    #: keeps the most recent bundles in memory for the ``diagnose``
    #: op only.
    bundle_dir: Optional[str] = None
    #: Total and per-query-class caps on recorded bundles (an anomaly
    #: storm must not fill the disk or drown out other classes).
    bundle_limit: int = 64
    bundle_per_class: int = 4
    #: Size cap in bytes for the telemetry JSONL sink; on overflow the
    #: file is compacted oldest-first.  ``None`` leaves it unbounded.
    history_max_bytes: Optional[int] = None
    #: The seeded generator recipe the serving database was built from
    #: (``{"db", "seed", "lineages", "generations", ...}``).  Embedded
    #: in flight-recorder bundles so ``repro replay`` can rebuild a
    #: bit-identical store; ``None`` produces bundles that replay only
    #: against a caller-supplied database.
    database_config: Optional[dict] = None
    #: Default transformPT search strategy
    #: (:data:`repro.core.strategies.STRATEGY_NAMES`; the per-request
    #: ``strategy`` field wins).  ``None`` keeps the paper's II
    #: reoptimization.
    strategy: Optional[str] = None

    def __post_init__(self) -> None:
        validate_choice("strategy", self.strategy, STRATEGY_NAMES)
        validate_choice("batch_layout", self.batch_layout, BATCH_LAYOUTS)


@dataclass
class Session:
    """One client session: a namespace of prepared statements."""

    id: str
    statements: Dict[str, str] = field(default_factory=dict)
    _counter: "itertools.count[int]" = field(
        default_factory=lambda: itertools.count(1)
    )

    def prepare(self, text: str) -> str:
        statement_id = f"s{next(self._counter)}"
        self.statements[statement_id] = text
        return statement_id


class QueryService:
    """The serving core: cache, admission, metrics, sessions."""

    def __init__(self, database, config: Optional[ServiceConfig] = None) -> None:
        self.database = database
        self.physical = database.physical
        self.config = config or ServiceConfig()
        self.cache = PlanCache(
            capacity=self.config.cache_capacity,
            drift_ratio=self.config.drift_ratio,
        )
        self.admission = AdmissionController(
            AdmissionPolicy(
                cost_budget=self.config.cost_budget,
                max_concurrent=self.config.max_concurrent,
                queue_timeout=self.config.queue_timeout,
                default_timeout=self.config.default_timeout,
                max_timeout=self.config.max_timeout,
            )
        )
        self.metrics = ServiceMetrics(window=self.config.metrics_window)
        self.feedback: Optional[FeedbackManager] = None
        if self.config.feedback_enabled:
            self.feedback = FeedbackManager(
                FeedbackConfig(
                    history_window=self.config.history_window,
                    max_plans=self.config.history_max_plans,
                    persist_path=self.config.history_path,
                    regression_ratio=self.config.regression_ratio,
                    regression_min_runs=self.config.regression_min_runs,
                    recalibrate_min_samples=self.config.recalibrate_min_samples,
                    profile_sample_every=self.config.profile_sample_every,
                    auto_pin=self.config.auto_pin,
                    history_max_bytes=self.config.history_max_bytes,
                )
            )
        #: The overhead governor and anomaly detector: built only when
        #: an observability budget is configured; ``None`` keeps the
        #: pre-governor behavior byte-for-byte.
        self.governor: Optional[ObservabilityGovernor] = None
        self.anomalies: Optional[AnomalyDetector] = None
        if self.config.obs_budget:
            self.governor = ObservabilityGovernor(
                GovernorConfig(budget=self.config.obs_budget)
            )
            self.anomalies = AnomalyDetector(
                AnomalyConfig(
                    threshold=self.config.anomaly_threshold,
                    min_samples=self.config.anomaly_min_samples,
                )
            )
        #: Flight recorder: always constructed (memory-only without a
        #: bundle directory) so the ``diagnose`` op works everywhere.
        self.recorder = FlightRecorder(
            directory=self.config.bundle_dir,
            max_bundles=self.config.bundle_limit,
            per_class=self.config.bundle_per_class,
        )
        #: Recalibrated unit costs, hot-swapped by ``recalibrate(apply)``;
        #: ``None`` means the defaults the optimizer was built with.
        self._cost_params: Optional[CostParameters] = None
        #: Entries evicted by a recalibration recost pass, awaiting
        #: their replacement plan (consumed on the next cache miss so
        #: the regression detector can compare old vs. new).
        self._replanned: Dict[CacheKey, CachedPlan] = {}
        self._sessions: Dict[str, Session] = {}
        self._sessions_lock = threading.Lock()
        #: Serializes every touch of the shared store/schema/statistics.
        self._store_lock = threading.RLock()
        #: Shard clusters by width, built lazily on the first request
        #: that asks for that fan-out (replicas are zero-copy, so a
        #: cluster is cheap; per-request state lives in shard sessions,
        #: so one cluster serves concurrent queries).
        self._clusters: Dict[int, object] = {}
        #: Request ids: a random per-service prefix plus a counter is
        #: as unique as a uuid per request but far cheaper to mint.
        self._request_prefix = uuid.uuid4().hex[:8]
        self._request_counter = itertools.count(1)
        #: Live fixpoint introspection: every served query registers a
        #: progress handle here; the ``progress`` op (and ``repro top``)
        #: read its snapshot, and each round feeds the round-latency
        #: histogram and skew/barrier gauges.
        self.progress = ProgressTracker(on_round=self._observe_round)
        self.started_at = time.time()

    def _observe_round(self, record: dict) -> None:
        """Progress-tracker callback: fold one fixpoint round into the
        service metrics (histogram + gauges)."""
        seconds = float(record.get("ms", 0.0)) / 1000.0
        barrier_ms = record.get("barrier_wait_ms")
        barrier_fraction = None
        if barrier_ms is not None and seconds > 0:
            barrier_fraction = (float(barrier_ms) / 1000.0) / seconds
        self.metrics.observe_round(
            seconds,
            barrier_fraction=barrier_fraction,
            skew=record.get("skew"),
            shards=int(record.get("shards", 1)),
        )

    def _next_request_id(self) -> str:
        return f"{self._request_prefix}{next(self._request_counter):08x}"

    # -- sessions -----------------------------------------------------------

    def open_session(self) -> str:
        session = Session(uuid.uuid4().hex[:12])
        with self._sessions_lock:
            self._sessions[session.id] = session
        return session.id

    def close_session(self, session_id: str) -> bool:
        with self._sessions_lock:
            return self._sessions.pop(session_id, None) is not None

    def _session(self, session_id: Optional[str]) -> Session:
        if not session_id:
            raise ProtocolError("this operation requires a session (hello first)")
        with self._sessions_lock:
            session = self._sessions.get(session_id)
        if session is None:
            raise ProtocolError(f"unknown session {session_id!r}")
        return session

    # -- prepared statements ------------------------------------------------

    def prepare(self, session_id: Optional[str], text: str) -> dict:
        session = self._session(session_id)
        statement_id = session.prepare(text)
        return {
            "statement": statement_id,
            "parameters": placeholder_names(text),
        }

    # -- the serving path ---------------------------------------------------

    def run_query(
        self,
        text: str,
        params: Optional[dict] = None,
        timeout: Optional[float] = None,
        parallelism: Optional[int] = None,
        batch_size: Optional[int] = None,
        shards: Optional[int] = None,
        strategy: Optional[str] = None,
        batch_layout: Optional[str] = None,
    ) -> dict:
        """Serve one query text end to end; raises ReproError subclasses
        on failure (the protocol layer maps them to error codes).
        ``parallelism`` overrides the service default for this request
        (the grant is capped by the admission controller's slot count);
        ``batch_size`` overrides the engine batch size; ``batch_layout``
        overrides the operator exchange layout (``"row"`` pins the
        row-list compatibility semantics); ``shards`` overrides the
        shard fan-out (capped by the same slot count — admission weighs
        a request by max(parallelism, shards)); ``strategy`` overrides
        the transformPT search strategy used on a plan-cache miss."""
        self.metrics.record_request()
        try:
            return self._run_query(
                text, params, timeout, parallelism, batch_size, shards,
                strategy, batch_layout,
            )
        except ReproError as error:
            self._count_failure(error)
            raise

    def _count_failure(self, error: ReproError) -> None:
        from repro.errors import (
            AdmissionError,
            ExecutionCancelled,
            ExecutionTimeout,
        )

        if isinstance(error, ExecutionTimeout):
            self.metrics.record_timeout()
        elif isinstance(error, ExecutionCancelled):
            self.metrics.record_cancel()
        elif isinstance(error, AdmissionError):
            self.metrics.record_rejection()
        else:
            self.metrics.record_error()

    def _default_params(self) -> CostParameters:
        """Built-in unit costs, at the service's default parallelism —
        the parallel-Fix cost variant must see the worker count the
        engine will actually use, or transformPT's push comparison
        would be priced for the wrong machine."""
        params = CostParameters()
        params.parallelism = max(1, self.config.parallelism)
        params.batch_size = self.config.batch_size or default_batch_size()
        params.shards = max(1, self.config.shards)
        return params

    def _current_model(self) -> Optional[DetailedCostModel]:
        """The recalibrated cost model, or ``None`` for the defaults
        (callees build a default model lazily when they need one)."""
        if self._cost_params is None:
            if self.config.parallelism <= 1 and self.config.shards <= 1:
                return None
            return DetailedCostModel(self.physical, self._default_params())
        return DetailedCostModel(self.physical, self._cost_params)

    def _optimizer(self, strategy: Optional[str] = None):
        """A fresh optimizer honouring the hot-swapped parameters.

        ``strategy`` (a :data:`STRATEGY_NAMES` name) overrides the
        configured default; ``"ii"``/``None`` keep the paper's
        cost-controlled II optimizer."""
        name = strategy or self.config.strategy
        if name is not None and name != "ii":
            return Optimizer(
                self.physical,
                self._current_model(),
                OptimizerConfig(strategy=name),
            )
        return cost_controlled_optimizer(self.physical, self._current_model())

    def _model_for(self, width: int) -> Optional[DetailedCostModel]:
        """A cost model priced for ``width`` shards (per-request
        EXPLAIN/trace fan-out), falling back to the serving default."""
        if width <= 1:
            return self._current_model()
        from dataclasses import replace

        params = replace(
            self._cost_params or self._default_params(), shards=width
        )
        return DetailedCostModel(self.physical, params)

    def _cluster_for(self, width: int):
        """The shared shard cluster for ``width`` shards, built lazily
        on first use.  Callers hold ``_store_lock`` (cluster
        construction snapshots the store's extent tables)."""
        if width <= 1:
            return None
        cluster = self._clusters.get(width)
        if cluster is None:
            # Imported here, not at module top: repro.dist uses the
            # service protocol's framing, so a top-level import would
            # be circular.
            from repro.dist import ShardCluster

            cluster = ShardCluster(self.physical, width)
            self._clusters[width] = cluster
        return cluster

    def _run_query(
        self,
        text: str,
        params: Optional[dict],
        timeout: Optional[float],
        parallelism: Optional[int] = None,
        batch_size: Optional[int] = None,
        shards: Optional[int] = None,
        strategy: Optional[str] = None,
        batch_layout: Optional[str] = None,
    ) -> dict:
        substituted = substitute_params(text, params)
        validate_choice("strategy", strategy, STRATEGY_NAMES)
        validate_choice("batch_layout", batch_layout, BATCH_LAYOUTS)
        feedback = self.feedback
        fingerprint: Optional[str] = None
        optimize_started = time.perf_counter()
        with self._store_lock:
            key = self.cache.key_for(substituted, self.physical)
            if strategy is not None and strategy != (
                self.config.strategy or "ii"
            ):
                # A strategy override must not collide with plans
                # cached under the default (or another) strategy:
                # suffix the canonical text, like a different query.
                key = (f"{key[0]}\n-- strategy={strategy}", key[1])
            lookup = self.cache.lookup(key, self.physical, self._current_model())
            if lookup.entry is not None:
                plan, estimated = lookup.entry.plan, lookup.entry.cost
                plans_costed = 0
                fingerprint = lookup.entry.fingerprint
                if feedback is not None and fingerprint is None:
                    fingerprint = feedback.register_plan(
                        key[0], plan, estimated
                    )
                    lookup.entry.fingerprint = fingerprint
            else:
                graph = compile_text(substituted, self.database.catalog)
                optimizer = self._optimizer(strategy)
                result = optimizer.optimize(graph)
                plan, estimated = result.plan, result.cost
                plans_costed = result.plans_costed
                entry = self.cache.store(key, plan, estimated, self.physical)
                if feedback is not None:
                    fingerprint = feedback.register_plan(
                        key[0], plan, estimated, optimizer.cost_model
                    )
                    entry.fingerprint = fingerprint
                    # A drift eviction (this lookup) or a recalibration
                    # recost pass (earlier) replaced a cached plan: put
                    # the replacement on regression watch.
                    old = lookup.evicted or self._replanned.pop(key, None)
                    if old is not None:
                        feedback.plan_changed(
                            key[0],
                            old.plan,
                            old.cost,
                            plan,
                            estimated,
                            lookup.reason or RECALIBRATION,
                        )
        optimize_elapsed = time.perf_counter() - optimize_started
        self.metrics.count(f"cache_{lookup.status}")

        self.admission.admit(estimated)
        effective_timeout = self.admission.effective_timeout(timeout)
        token = CancellationToken(effective_timeout)
        # Minted before execution so the running query is addressable:
        # shard-worker thread names, exchange frames, dist log lines and
        # the live progress view all carry this id while the query runs.
        request_id = self._next_request_id()
        query_cls = query_class(key[0])
        decision = FULL_DETAIL
        if self.governor is not None:
            decision = self.governor.decide(query_cls)
        profiler: Optional[PlanProfiler] = None
        tracer: Optional[Tracer] = None
        if self.governor is not None:
            if decision.sampled:
                # Buffered observability: the trace and profile
                # accumulate in memory and are committed or dropped at
                # completion (tail sampling) — the anomaly verdict is
                # only known once the query has run.
                profiler = PlanProfiler()
                tracer = Tracer(
                    trace_id=request_id,
                    max_spans=self.config.trace_max_spans,
                )
        elif feedback is not None and feedback.should_profile():
            profiler = PlanProfiler()
        requested = (
            parallelism if parallelism is not None else self.config.parallelism
        )
        requested_shards = (
            shards if shards is not None else self.config.shards
        )
        # A parallelism-N (or shards-N) request reserves N slots —
        # whichever dimension is wider — capped by the slot pool, and
        # the engine runs with exactly the granted widths.
        weight = max(requested, requested_shards)
        with self.admission.slot(weight=weight) as granted:
            granted_parallelism = min(requested, granted)
            granted_shards = min(requested_shards, granted)
            lock_started = time.perf_counter()
            with self._store_lock:
                # The execute clock starts once the lock is held, so
                # contention reads as lock wait, not as execution.
                execute_started = time.perf_counter()
                wait_lock_elapsed = execute_started - lock_started
                engine = Engine(
                    self.physical,
                    max_fix_iterations=self.config.max_fix_iterations,
                    parallelism=granted_parallelism,
                    batch_size=(
                        batch_size
                        if batch_size is not None
                        else self.config.batch_size
                    ),
                    batch_layout=(
                        batch_layout
                        if batch_layout is not None
                        else self.config.batch_layout
                    ),
                    shards=granted_shards,
                    cluster=self._cluster_for(granted_shards),
                )
                engine.request_id = request_id
                if tracer is not None:
                    engine.tracer = tracer
                handle = self.progress.begin(
                    request_id, query=key[0], shards=granted_shards
                )
                engine.progress = handle
                try:
                    execution = engine.execute(
                        plan, cancel=token, profiler=profiler
                    )
                finally:
                    self.progress.finish(handle)
            execute_elapsed = time.perf_counter() - execute_started

        measured = execution.metrics.measured_cost()
        record = QueryRecord(
            canonical=key[0],
            cache_status=lookup.status,
            estimated_cost=estimated,
            measured_cost=measured,
            optimize_seconds=optimize_elapsed,
            execute_seconds=execute_elapsed,
            rows=len(execution.rows),
            request_id=request_id,
            wait_lock_seconds=wait_lock_elapsed,
            batch_size=engine.batch_size,
            batch_layout=engine.batch_layout,
            shards=granted_shards,
            exchange_tuples=execution.metrics.exchange_tuples,
            exchange_bytes=execution.metrics.exchange_bytes,
            reads_by_shard=dict(execution.metrics.reads_by_shard),
        )
        self.metrics.record_execution(record, execution.metrics)
        slow_reasons = self._slow_reasons(record)
        obs_echo = self._settle_observability(
            decision,
            query_cls,
            record,
            execution,
            profiler,
            tracer,
            slow_reasons,
            plan=plan,
            fingerprint=fingerprint,
            query_text=substituted,
            knobs={
                "parallelism": granted_parallelism,
                "batch_size": engine.batch_size,
                "batch_layout": engine.batch_layout,
                "shards": granted_shards,
                "max_fix_iterations": self.config.max_fix_iterations,
            },
        )
        if slow_reasons:
            self.metrics.record_slow(record, slow_reasons)
        if feedback is not None and fingerprint is not None:
            self._feed_back(
                key,
                fingerprint,
                record,
                execution,
                profiler,
                weight=decision.weight,
                committed=decision.sampled,
            )

        rows = execution.rows
        truncated = False
        if self.config.max_rows is not None and len(rows) > self.config.max_rows:
            rows = rows[: self.config.max_rows]
            truncated = True
        response = {
            "request_id": record.request_id,
            "rows": [_jsonable_row(row) for row in rows],
            "row_count": len(execution.rows),
            "truncated": truncated,
            "cache": lookup.status,
            "estimated_cost": round(estimated, 2),
            "measured_cost": round(measured, 2),
            "plans_costed": plans_costed,
            "optimize_ms": round(optimize_elapsed * 1000, 3),
            "execute_ms": round(execute_elapsed * 1000, 3),
            "wait_lock_ms": round(wait_lock_elapsed * 1000, 3),
            "fix_iterations": execution.metrics.fix_iterations,
            "parallelism": granted_parallelism,
            "batch_size": engine.batch_size,
            "batch_layout": engine.batch_layout,
            "shards": granted_shards,
        }
        if obs_echo is not None:
            response["obs"] = obs_echo
        return response

    def _check_slow(self, record: QueryRecord) -> None:
        """Route latency outliers and cost misestimates to the slow log."""
        reasons = self._slow_reasons(record)
        if reasons:
            self.metrics.record_slow(record, reasons)

    def _slow_reasons(self, record: QueryRecord) -> List[str]:
        """Why (if at all) this query belongs in the slow-query log.

        Returned as a mutable list so the observability settlement can
        append anomaly verdicts before the single ``record_slow`` call."""
        reasons: List[str] = []
        threshold = self.config.slow_query_seconds
        if threshold is not None and record.execute_seconds > threshold:
            reasons.append(
                f"execute took {record.execute_seconds * 1000:.1f}ms "
                f"(threshold {threshold * 1000:.0f}ms)"
            )
        ratio_cap = self.config.misestimate_ratio
        if (
            ratio_cap is not None
            and record.estimated_cost > 0
            and record.measured_cost > 0
        ):
            ratio = record.measured_cost / record.estimated_cost
            if ratio > ratio_cap or ratio < 1.0 / ratio_cap:
                reasons.append(
                    f"measured/estimated cost ratio {ratio:.2f} "
                    f"outside [1/{ratio_cap:g}, {ratio_cap:g}]"
                )
        return reasons

    def _settle_observability(
        self,
        decision: SamplingDecision,
        query_cls: str,
        record: QueryRecord,
        execution,
        profiler: Optional[PlanProfiler],
        tracer: Optional[Tracer],
        slow_reasons: List[str],
        *,
        plan,
        fingerprint: Optional[str],
        query_text: str,
        knobs: dict,
    ) -> Optional[dict]:
        """Close the observability loop for one completed query.

        Scores the run against its class baselines, commits or drops
        the buffered trace/profile (tail sampling: keep full detail
        only for anomalous, slow, or head-sampled runs), charges the
        governor for the detail actually spent, and — on anomaly —
        snapshots a flight-recorder bundle.  Returns the ``obs`` echo
        for the response, or ``None`` when the governor is off (legacy
        payload shape)."""
        if self.governor is None:
            return None
        metrics = execution.metrics
        misestimate = None
        if record.estimated_cost > 0 and record.measured_cost > 0:
            misestimate = q_error(record.estimated_cost, record.measured_cost)
        skew = metrics.observed_skew() if metrics.shards_used > 1 else None
        barrier = None
        if metrics.shards_used > 1 and record.execute_seconds > 0:
            barrier = min(
                1.0, metrics.barrier_wait_seconds / record.execute_seconds
            )
        anomalies = self.anomalies.observe(
            query_cls,
            record.execute_seconds,
            misestimate=misestimate,
            skew=skew,
            barrier_wait=barrier,
        )
        # Tail-sampling verdict: anomaly beats slow beats the head
        # sample the run was admitted under.
        commit_reason: Optional[str] = None
        if decision.sampled:
            if anomalies:
                commit_reason = "anomaly"
            elif slow_reasons:
                commit_reason = "slow"
            else:
                commit_reason = decision.reason
        bundle_path: Optional[str] = None
        if anomalies:
            self.governor.note_anomaly(query_cls)
            self.metrics.count("anomalies", len(anomalies))
            slow_reasons.extend(anomaly.describe() for anomaly in anomalies)
            if self.feedback is not None:
                self.feedback.store.record_event(
                    "anomaly",
                    request_id=record.request_id,
                    query_class=query_cls,
                    anomalies=[anomaly.to_dict() for anomaly in anomalies],
                )
            _LOG.warning(
                "anomaly detected",
                extra={
                    "request_id": record.request_id,
                    "query_class": query_cls,
                    "metrics": [anomaly.metric for anomaly in anomalies],
                },
            )
            if decision.sampled and self.recorder.admit(query_cls):
                bundle = build_bundle(
                    reason="anomaly",
                    query_text=query_text,
                    canonical=record.canonical,
                    query_cls=query_cls,
                    plan=plan,
                    fingerprint=fingerprint or plan_fingerprint(plan),
                    estimated_cost=record.estimated_cost,
                    rows=execution.rows,
                    measured_cost=record.measured_cost,
                    execute_seconds=record.execute_seconds,
                    fix_iterations=metrics.fix_iterations,
                    knobs=knobs,
                    physical=self.physical,
                    database=self.config.database_config,
                    cost_parameters=self._cost_params,
                    request_id=record.request_id,
                    anomalies=[anomaly.to_dict() for anomaly in anomalies],
                    sampling=decision.to_dict(),
                    trace=tracer.to_dict() if tracer is not None else None,
                    profile=profiler.to_dict() if profiler is not None else None,
                    telemetry=(
                        self.feedback.store.snapshot(record.canonical, 1)
                        if self.feedback is not None
                        else None
                    ),
                    baselines=self.anomalies.snapshot().get("classes", {}).get(
                        query_cls
                    ),
                )
                recorded_before = self.recorder.written
                bundle_path = self.recorder.record(bundle)
                if self.recorder.written > recorded_before:
                    self.metrics.count("flight_bundles")
        # Charge what this run's detail actually cost, then settle the
        # commit-or-drop so the spent fraction steers later decisions.
        probes = metrics.obs_probes if profiler is not None else 0
        spans = tracer.span_count() if tracer is not None else 0
        self.governor.charge(
            query_cls, record.execute_seconds, probes=probes, spans=spans
        )
        committed = commit_reason is not None
        self.governor.settle(committed)
        self.metrics.count("obs_committed" if committed else "obs_dropped")
        echo = decision.to_dict()
        echo["committed"] = committed
        if commit_reason is not None:
            echo["commit_reason"] = commit_reason
        if anomalies:
            echo["anomalies"] = [anomaly.to_dict() for anomaly in anomalies]
        if bundle_path is not None:
            echo["bundle"] = bundle_path
        return echo

    def _feed_back(
        self,
        key: CacheKey,
        fingerprint: str,
        record: QueryRecord,
        execution,
        profiler: Optional[PlanProfiler],
        weight: float = 1.0,
        committed: bool = True,
    ) -> None:
        """Record one execution into the telemetry store and act on a
        regression verdict (slow-log entry, counters, optional
        auto-pin).  ``weight``/``committed`` carry the governor's
        sampling design into the observation so recalibration can
        weight head-sampled runs back to an unbiased estimate and skip
        unobserved ones."""
        observation = build_observation(
            record.request_id,
            record.estimated_cost,
            record.measured_cost,
            record.execute_seconds,
            record.rows,
            execution.metrics,
            profiler,
            weight=weight,
            committed=committed,
        )
        regression = self.feedback.observe(key[0], fingerprint, observation)
        if regression is None:
            return
        self.metrics.count("plan_regressions")
        self.metrics.record_slow(
            record,
            [
                "plan_regression: new plan "
                f"{regression['new_fingerprint']} is "
                f"{regression['latency_ratio']}x slower than prior plan "
                f"{regression['old_fingerprint']} "
                f"(median {regression['new_median_ms']}ms vs "
                f"{regression['old_median_ms']}ms)"
            ],
        )
        if self.config.auto_pin:
            try:
                self._pin_locked(key, revert=True)
            except ReproError:
                pass  # the old plan no longer costs/fits; keep the new one

    def execute_statement(
        self,
        session_id: Optional[str],
        statement_id: str,
        params: Optional[dict] = None,
        timeout: Optional[float] = None,
        parallelism: Optional[int] = None,
        batch_size: Optional[int] = None,
        shards: Optional[int] = None,
        strategy: Optional[str] = None,
        batch_layout: Optional[str] = None,
    ) -> dict:
        session = self._session(session_id)
        template = session.statements.get(statement_id)
        if template is None:
            raise ProtocolError(f"unknown statement {statement_id!r}")
        return self.run_query(
            template, params, timeout, parallelism, batch_size, shards,
            strategy, batch_layout,
        )

    # -- maintenance / observability ---------------------------------------

    def refresh_statistics(self) -> dict:
        """Re-ANALYZE the store (after data mutations); cached plans are
        then subject to drift checks on their next lookup."""
        with self._store_lock:
            self.physical.refresh_statistics()
        return {"refreshed": True}

    def _require_feedback(self) -> FeedbackManager:
        if self.feedback is None:
            raise ServiceError(
                "the feedback loop is disabled (feedback_enabled=False)"
            )
        return self.feedback

    def recalibrate(self, apply: bool = False) -> dict:
        """Fit fresh cost-model unit weights from the accumulated
        telemetry; with ``apply``, hot-swap them into the serving path
        and re-cost the plan cache under the new model (entries whose
        estimate drifts beyond the ratio are re-optimized on their next
        request, under regression watch)."""
        feedback = self._require_feedback()
        base = self._cost_params or self._default_params()
        _weights, params, report = feedback.recalibrate(base)
        self.metrics.count("recalibrations")
        payload = {"applied": False, **report}
        if apply:
            with self._store_lock:
                self._cost_params = params
                evicted = self.cache.recost_all(
                    self.physical, DetailedCostModel(self.physical, params)
                )
                for key, entry, _fresh in evicted:
                    self._replanned[key] = entry
            payload["applied"] = True
            payload["plans_invalidated"] = len(evicted)
        return payload

    def reset_calibration(self) -> dict:
        """Drop hot-swapped parameters, back to the built-in defaults."""
        with self._store_lock:
            was_applied = self._cost_params is not None
            self._cost_params = None
        return {"reset": was_applied}

    def pin_query(
        self,
        text: str,
        params: Optional[dict] = None,
        revert: bool = False,
    ) -> dict:
        """Pin a query's cached plan against drift re-optimization;
        with ``revert``, reinstall the *prior* plan of its last flagged
        regression and pin that."""
        substituted = substitute_params(text, params)
        with self._store_lock:
            key = self.cache.key_for(substituted, self.physical)
            return self._pin_locked(key, revert=revert)

    def _pin_locked(self, key: CacheKey, revert: bool) -> dict:
        # Re-entrant: callers may already hold the (R)lock.
        with self._store_lock:
            return self._pin_impl(key, revert)

    def _pin_impl(self, key: CacheKey, revert: bool) -> dict:
        feedback = self.feedback
        if revert:
            if feedback is None:
                raise ServiceError("pin revert requires the feedback loop")
            change = feedback.regression_for(key[0])
            if change is None:
                raise ServiceError(
                    "no flagged plan regression to revert for this query"
                )
            cost = change.old_cost
            try:
                cost = recost_plan(
                    change.old_plan, self.physical, self._current_model()
                )
            except ReproError:
                pass  # keep the plan-time estimate
            entry = self.cache.store(
                key, change.old_plan, cost, self.physical, pinned=True
            )
            entry.fingerprint = change.old_fingerprint
            self.metrics.count("plans_pinned")
            feedback.record_pin(key[0], change.old_fingerprint, True)
            return {
                "pinned": True,
                "reverted": True,
                "fingerprint": change.old_fingerprint,
                "estimated_cost": round(cost, 2),
            }
        if not self.cache.pin(key, True):
            raise ServiceError("no cached plan for this query to pin")
        entry = self.cache.entry(key)
        fingerprint = entry.fingerprint if entry is not None else None
        self.metrics.count("plans_pinned")
        if feedback is not None:
            feedback.record_pin(key[0], fingerprint or "", True)
        return {"pinned": True, "reverted": False, "fingerprint": fingerprint}

    def unpin_query(self, text: str, params: Optional[dict] = None) -> dict:
        substituted = substitute_params(text, params)
        with self._store_lock:
            key = self.cache.key_for(substituted, self.physical)
            found = self.cache.pin(key, False)
        if self.feedback is not None and found:
            entry = self.cache.entry(key)
            self.feedback.record_pin(
                key[0], (entry.fingerprint if entry else None) or "", False
            )
        return {"pinned": False, "found": found}

    def history(self, query: Optional[str] = None, limit: int = 20) -> dict:
        """The ``history`` protocol payload: per-query plan histories
        (estimated vs. measured, per operator) plus control-loop state."""
        feedback = self._require_feedback()
        self._refresh_feedback_gauges()
        return {
            "history": feedback.store.snapshot(query, limit),
            "feedback": feedback.snapshot(),
        }

    #: Per-query-class gauge samples published on scrape are capped at
    #: this many classes (most-run first): Prometheus label cardinality
    #: must stay bounded no matter how many distinct query shapes a
    #: client sends.
    GAUGE_CLASS_CAP = 32

    def _refresh_feedback_gauges(self) -> None:
        """Publish per-query-class misestimate gauges from telemetry
        (done on scrape, not per request — the summary walks history).
        The full sample set is replaced each time, so classes that fell
        out of the telemetry window disappear instead of exposing a
        stale value forever."""
        if self.feedback is None:
            return
        entries = sorted(
            self.feedback.misestimate_by_query().items(),
            key=lambda item: item[1].get("runs", 0),
            reverse=True,
        )[: self.GAUGE_CLASS_CAP]
        cost_samples: Dict[tuple, float] = {}
        operator_samples: Dict[tuple, float] = {}
        for query_cls, entry in entries:
            label_key = (("query_class", query_cls),)
            if entry["cost_misestimate"] is not None:
                cost_samples[label_key] = entry["cost_misestimate"]
            if entry["operator_misestimate"] is not None:
                operator_samples[label_key] = entry["operator_misestimate"]
        self.metrics.replace_gauge(
            "misestimate_ratio",
            "Mean estimated-vs-measured cost q-error per query class.",
            cost_samples,
        )
        self.metrics.replace_gauge(
            "operator_misestimate_ratio",
            "Mean per-operator misestimate q-error per query class.",
            operator_samples,
        )

    def _refresh_obs_gauges(self) -> None:
        """Publish the governor's budget/spend as gauges on scrape."""
        if self.governor is None:
            return
        self.metrics.set_gauge(
            "obs_budget_fraction",
            self.governor.config.budget,
            "Configured observability budget (fraction of wall time).",
        )
        self.metrics.set_gauge(
            "obs_spent_fraction",
            self.governor.spent_fraction(),
            "EWMA fraction of wall time currently spent on "
            "observability detail.",
        )

    def stats(self) -> dict:
        payload = {
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "service": self.metrics.snapshot(),
            "cache": self.cache.snapshot(),
            "admission": self.admission.snapshot(),
        }
        if self.feedback is not None:
            payload["feedback"] = self.feedback.snapshot()
        if self.governor is not None:
            payload["governor"] = self.governor.snapshot()
        return payload

    def governor_stats(self) -> dict:
        """The ``governor`` protocol payload: the overhead governor's
        budget/spend/per-class sampling state, the anomaly detector's
        baselines, and the flight recorder's bundle ledger."""
        payload: dict = {
            "enabled": self.governor is not None,
            "recorder": self.recorder.snapshot(),
        }
        if self.governor is not None:
            payload["governor"] = self.governor.snapshot()
        if self.anomalies is not None:
            payload["anomalies"] = self.anomalies.snapshot()
        return payload

    def diagnose_query(
        self,
        text: str,
        params: Optional[dict] = None,
        timeout: Optional[float] = None,
        shards: Optional[int] = None,
    ) -> dict:
        """On-demand flight recording: run the query once at full
        observability detail — bypassing the governor's sampling — and
        record a ``diagnose`` bundle, exactly as an anomaly would."""
        substituted = substitute_params(text, params)
        request_id = self._next_request_id()
        width = max(1, shards or self.config.shards)
        tracer = Tracer(
            trace_id=request_id, max_spans=self.config.trace_max_spans
        )
        profiler = PlanProfiler()
        with self._store_lock:
            key = self.cache.key_for(substituted, self.physical)
            graph = compile_text(substituted, self.database.catalog)
            optimizer = cost_controlled_optimizer(
                self.physical, self._model_for(width)
            )
            with tracer.span("optimize"):
                result = optimizer.optimize(graph)
            token = CancellationToken(
                self.admission.effective_timeout(timeout)
            )
            engine = Engine(
                self.physical,
                max_fix_iterations=self.config.max_fix_iterations,
                shards=width,
                cluster=self._cluster_for(width),
            )
            engine.request_id = request_id
            engine.tracer = tracer
            started = time.perf_counter()
            with tracer.span("execute"):
                execution = engine.execute(
                    result.plan, cancel=token, profiler=profiler
                )
            elapsed = time.perf_counter() - started
        measured = execution.metrics.measured_cost()
        query_cls = query_class(key[0])
        bundle = build_bundle(
            reason="diagnose",
            query_text=substituted,
            canonical=key[0],
            query_cls=query_cls,
            plan=result.plan,
            fingerprint=plan_fingerprint(result.plan),
            estimated_cost=result.cost,
            rows=execution.rows,
            measured_cost=measured,
            execute_seconds=elapsed,
            fix_iterations=execution.metrics.fix_iterations,
            knobs={
                "parallelism": 1,
                "batch_size": engine.batch_size,
                "batch_layout": engine.batch_layout,
                "shards": width,
                "max_fix_iterations": self.config.max_fix_iterations,
            },
            physical=self.physical,
            database=self.config.database_config,
            cost_parameters=self._cost_params,
            request_id=request_id,
            sampling={
                "mode": "full",
                "sampled": True,
                "weight": 1.0,
                "reason": "diagnose",
            },
            trace=tracer.to_dict(),
            profile=profiler.to_dict(),
            telemetry=(
                self.feedback.store.snapshot(key[0], 1)
                if self.feedback is not None
                else None
            ),
            baselines=(
                self.anomalies.snapshot().get("classes", {}).get(query_cls)
                if self.anomalies is not None
                else None
            ),
        )
        recorded_before = self.recorder.written
        path = self.recorder.record(bundle)
        if self.recorder.written > recorded_before:
            self.metrics.count("flight_bundles")
        _LOG.info(
            "diagnose bundle recorded",
            extra={
                "request_id": request_id,
                "query_class": query_cls,
                "bundle": path,
            },
        )
        return {
            "request_id": request_id,
            "bundle": path,
            "query_class": query_cls,
            "row_count": len(execution.rows),
            "estimated_cost": round(result.cost, 2),
            "measured_cost": round(measured, 2),
            "execute_ms": round(elapsed * 1000, 3),
            "plan_fingerprint": bundle["plan"]["fingerprint"],
            "answer_fingerprint": bundle["execution"]["answer_fingerprint"],
            "recorder": self.recorder.snapshot(),
        }

    def close(self) -> None:
        """Release resources (flush and close the telemetry sink)."""
        if self.feedback is not None:
            self.feedback.close()

    def explain_query(
        self,
        text: str,
        params: Optional[dict] = None,
        analyze: bool = False,
        timeout: Optional[float] = None,
        shards: Optional[int] = None,
    ) -> dict:
        """``EXPLAIN [ANALYZE]``: optimize (always from scratch — the
        point is to audit the optimizer, not the cache) and, when
        ``analyze`` is set, execute under a profiler so every operator
        carries actual rows/cost/time next to the estimates.  With
        ``shards`` > 1 the plan is both costed *and* executed at that
        fan-out, so sharded Fix nodes carry distributed est-vs-act
        terms (network/disk/skew)."""
        substituted = substitute_params(text, params)
        request_id = self._next_request_id()
        width = max(1, shards or 1)
        with self._store_lock:
            graph = compile_text(substituted, self.database.catalog)
            optimizer = cost_controlled_optimizer(
                self.physical, self._model_for(width)
            )
            result = optimizer.optimize(graph)
            profiler: Optional[PlanProfiler] = None
            rows = None
            if analyze:
                token = CancellationToken(
                    self.admission.effective_timeout(timeout)
                )
                profiler = PlanProfiler()
                engine = Engine(
                    self.physical,
                    max_fix_iterations=self.config.max_fix_iterations,
                    shards=width,
                    cluster=self._cluster_for(width),
                )
                engine.request_id = request_id
                execution = engine.execute(
                    result.plan, cancel=token, profiler=profiler
                )
                rows = len(execution.rows)
            tree = build_explain(result.plan, optimizer.cost_model, profiler)
        payload = {
            "request_id": request_id,
            "shards": width,
            "analyzed": analyze,
            "estimated_cost": round(result.cost, 2),
            "plans_costed": result.plans_costed,
            "plan": render_explain(tree),
            "tree": tree.to_dict(),
            "candidates": [
                {"description": description, "cost": round(cost, 2)}
                for description, cost in result.candidates
            ],
        }
        if rows is not None:
            payload["row_count"] = rows
        return payload

    def trace_query(
        self,
        text: str,
        params: Optional[dict] = None,
        execute: bool = True,
        timeout: Optional[float] = None,
        shards: Optional[int] = None,
    ) -> dict:
        """Full-pipeline trace: optimizer spans/events plus (when
        ``execute`` is set) the per-operator runtime profile.  With
        ``shards`` > 1 the query executes distributed and the tracer is
        handed to the engine, so the exported Chrome trace carries one
        lane per shard next to the coordinator lane."""
        substituted = substitute_params(text, params)
        request_id = self._next_request_id()
        width = max(1, shards or 1)
        tracer = Tracer(trace_id=request_id if width > 1 else None)
        with self._store_lock:
            graph = compile_text(substituted, self.database.catalog)
            optimizer = cost_controlled_optimizer(
                self.physical, self._model_for(width)
            )
            with tracer.span("optimize"):
                result = optimizer.optimize(graph, tracer=tracer)
            profiler: Optional[PlanProfiler] = None
            if execute:
                token = CancellationToken(
                    self.admission.effective_timeout(timeout)
                )
                profiler = PlanProfiler()
                engine = Engine(
                    self.physical,
                    max_fix_iterations=self.config.max_fix_iterations,
                    shards=width,
                    cluster=self._cluster_for(width),
                )
                engine.request_id = request_id
                engine.tracer = tracer
                with tracer.span("execute"):
                    engine.execute(
                        result.plan, cancel=token, profiler=profiler
                    )
        payload = {
            "request_id": request_id,
            "shards": width,
            "estimated_cost": round(result.cost, 2),
            "trace": tracer.to_dict(),
            "chrome_trace": tracer.to_chrome_trace(),
        }
        if profiler is not None:
            payload["profile"] = profiler.to_dict()
        return payload

    def metrics_text(self) -> str:
        """The Prometheus exposition of the service counters."""
        self._refresh_feedback_gauges()
        self._refresh_obs_gauges()
        return self.metrics.to_prometheus()

    # -- protocol dispatch --------------------------------------------------

    def handle(self, request: dict) -> dict:
        """Serve one protocol request dict → response dict (never
        raises; errors become ``ok: false`` responses).  A client
        ``id`` field is echoed back verbatim on every response —
        success or error — so pipelined clients can correlate."""
        client_id = request.get("id") if isinstance(request, dict) else None
        try:
            op = request.get("op")
            if not isinstance(op, str):
                raise ProtocolError("request must carry a string 'op'")
            handler = getattr(self, f"_op_{op}", None)
            if handler is None:
                raise ProtocolError(f"unknown op {op!r}")
            payload = handler(request)
            response = {"ok": True}
            response.update(payload)
        except ReproError as error:
            response = protocol.error_response(
                protocol.error_code_for(error), str(error)
            )
        except Exception as error:  # pragma: no cover - defensive
            self.metrics.record_error()
            response = protocol.error_response(protocol.INTERNAL, str(error))
        if client_id is not None:
            response["id"] = client_id
        return response

    def _op_ping(self, request: dict) -> dict:
        return {"pong": True}

    def _op_hello(self, request: dict) -> dict:
        return {"session": self.open_session()}

    def _op_close(self, request: dict) -> dict:
        return {"closed": self.close_session(request.get("session") or "")}

    def _op_query(self, request: dict) -> dict:
        text = request.get("text")
        if not isinstance(text, str):
            raise ProtocolError("query requires a string 'text'")
        return self.run_query(
            text,
            request.get("params"),
            _timeout_field(request),
            _parallelism_field(request),
            _batch_size_field(request),
            _shards_field(request),
            _strategy_field(request),
            _batch_layout_field(request),
        )

    def _op_prepare(self, request: dict) -> dict:
        text = request.get("text")
        if not isinstance(text, str):
            raise ProtocolError("prepare requires a string 'text'")
        return self.prepare(request.get("session"), text)

    def _op_execute(self, request: dict) -> dict:
        statement = request.get("statement")
        if not isinstance(statement, str):
            raise ProtocolError("execute requires a string 'statement'")
        return self.execute_statement(
            request.get("session"),
            statement,
            request.get("params"),
            _timeout_field(request),
            _parallelism_field(request),
            _batch_size_field(request),
            _shards_field(request),
            _strategy_field(request),
            _batch_layout_field(request),
        )

    def _op_stats(self, request: dict) -> dict:
        return self.stats()

    def _op_refresh_stats(self, request: dict) -> dict:
        return self.refresh_statistics()

    def _op_explain(self, request: dict) -> dict:
        text = request.get("text")
        if not isinstance(text, str):
            raise ProtocolError("explain requires a string 'text'")
        return self.explain_query(
            text,
            request.get("params"),
            analyze=bool(request.get("analyze")),
            timeout=_timeout_field(request),
            shards=_shards_field(request),
        )

    def _op_trace(self, request: dict) -> dict:
        text = request.get("text")
        if not isinstance(text, str):
            raise ProtocolError("trace requires a string 'text'")
        return self.trace_query(
            text,
            request.get("params"),
            execute=request.get("execute", True) is not False,
            timeout=_timeout_field(request),
            shards=_shards_field(request),
        )

    def _op_progress(self, request: dict) -> dict:
        """Live introspection for ``repro top``: per-query fixpoint
        rounds plus the admission slot picture."""
        payload = self.progress.snapshot()
        payload["admission"] = self.admission.snapshot()
        payload["uptime_seconds"] = round(time.time() - self.started_at, 3)
        return {"progress": payload}

    def _op_metrics(self, request: dict) -> dict:
        return {"metrics": self.metrics_text()}

    def _op_history(self, request: dict) -> dict:
        query = request.get("query")
        if query is not None and not isinstance(query, str):
            raise ProtocolError("history 'query' must be a string")
        limit = request.get("limit", 20)
        if not isinstance(limit, int) or limit <= 0:
            raise ProtocolError("history 'limit' must be a positive integer")
        return self.history(query, limit)

    def _op_recalibrate(self, request: dict) -> dict:
        return self.recalibrate(apply=bool(request.get("apply")))

    def _op_pin(self, request: dict) -> dict:
        text = request.get("text")
        if not isinstance(text, str):
            raise ProtocolError("pin requires a string 'text'")
        return self.pin_query(
            text, request.get("params"), revert=bool(request.get("revert"))
        )

    def _op_unpin(self, request: dict) -> dict:
        text = request.get("text")
        if not isinstance(text, str):
            raise ProtocolError("unpin requires a string 'text'")
        return self.unpin_query(text, request.get("params"))

    def _op_governor(self, request: dict) -> dict:
        return self.governor_stats()

    def _op_diagnose(self, request: dict) -> dict:
        text = request.get("text")
        if not isinstance(text, str):
            raise ProtocolError("diagnose requires a string 'text'")
        return self.diagnose_query(
            text,
            request.get("params"),
            timeout=_timeout_field(request),
            shards=_shards_field(request),
        )


def _parallelism_field(request: dict) -> Optional[int]:
    parallelism = request.get("parallelism")
    if parallelism is None:
        return None
    if isinstance(parallelism, bool) or not isinstance(parallelism, int) \
            or parallelism < 1:
        raise ProtocolError("parallelism must be a positive integer")
    return parallelism


def _batch_size_field(request: dict) -> Optional[int]:
    batch_size = request.get("batch_size")
    if batch_size is None:
        return None
    if isinstance(batch_size, bool) or not isinstance(batch_size, int) \
            or batch_size < 1:
        raise ProtocolError("batch_size must be a positive integer")
    return batch_size


def _shards_field(request: dict) -> Optional[int]:
    shards = request.get("shards")
    if shards is None:
        return None
    if isinstance(shards, bool) or not isinstance(shards, int) \
            or shards < 1:
        raise ProtocolError("shards must be a positive integer")
    return shards


def _batch_layout_field(request: dict) -> Optional[str]:
    batch_layout = request.get("batch_layout")
    if batch_layout is None:
        return None
    try:
        validate_choice("batch_layout", batch_layout, BATCH_LAYOUTS)
    except ValueError as error:
        raise ProtocolError(str(error)) from None
    return batch_layout


def _strategy_field(request: dict) -> Optional[str]:
    strategy = request.get("strategy")
    if strategy is None:
        return None
    try:
        validate_choice("strategy", strategy, STRATEGY_NAMES)
    except ValueError as error:
        raise ProtocolError(str(error)) from None
    return strategy


def _timeout_field(request: dict) -> Optional[float]:
    timeout = request.get("timeout")
    if timeout is None:
        return None
    if not isinstance(timeout, (int, float)) or timeout <= 0:
        raise ProtocolError("timeout must be a positive number of seconds")
    return float(timeout)


def _jsonable_row(row: dict) -> dict:
    return {key: _jsonable(value) for key, value in row.items()}


def _jsonable(value):
    if isinstance(value, StoredRecord):
        return {"oid": str(value.oid), **_jsonable_row(value.values)}
    if isinstance(value, Oid):
        return str(value)
    if isinstance(value, (tuple, list)):
        return [_jsonable(item) for item in value]
    return value


class QueryServer:
    """TCP front door: line-JSON protocol over a listening socket."""

    def __init__(
        self,
        service: QueryService,
        host: str = "127.0.0.1",
        port: int = 0,
        max_workers: int = 8,
        allow_shutdown: bool = True,
    ) -> None:
        self.service = service
        self.allow_shutdown = allow_shutdown
        self._listener = socket.create_server((host, port))
        self._listener.settimeout(0.2)
        self.host, self.port = self._listener.getsockname()[:2]
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-serve"
        )
        self._stopping = threading.Event()
        self._accept_thread: Optional[threading.Thread] = None

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Start accepting connections in a background thread."""
        if self._accept_thread is not None:
            raise ServiceError("server already started")
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-accept", daemon=True
        )
        self._accept_thread.start()

    def serve_forever(self) -> None:
        """Start and block until :meth:`stop` is called."""
        self.start()
        self._stopping.wait()

    def stop(self) -> None:
        self._stopping.set()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
        self._pool.shutdown(wait=True)
        self._listener.close()
        self.service.close()

    # -- connection handling ------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                connection, _peer = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            self._pool.submit(self._serve_connection, connection)

    def _serve_connection(self, connection: socket.socket) -> None:
        try:
            connection.settimeout(300)
            reader = connection.makefile("rb")
            while not self._stopping.is_set():
                line = reader.readline(protocol.MAX_LINE_BYTES + 1)
                if not line:
                    break
                response = self._serve_line(line)
                shutdown = response.pop("_shutdown", False)
                connection.sendall(protocol.encode(response))
                if shutdown:
                    self._stopping.set()
                    break
        except OSError:
            pass  # client went away mid-request
        finally:
            try:
                connection.close()
            except OSError:
                pass

    def _serve_line(self, line: bytes) -> dict:
        try:
            request = protocol.decode(line)
        except ProtocolError as error:
            return protocol.error_response(protocol.PROTOCOL, str(error))
        if request.get("op") == "shutdown":
            if not self.allow_shutdown:
                return protocol.error_response(
                    protocol.PROTOCOL, "shutdown is disabled on this server"
                )
            response = {"ok": True, "stopping": True, "_shutdown": True}
            if request.get("id") is not None:
                response["id"] = request["id"]
            return response
        return self.service.handle(request)


class MetricsServer:
    """A minimal HTTP sidecar exposing ``GET /metrics`` in Prometheus
    text format (``repro serve --metrics-port``), so a standard scraper
    can watch the service without speaking the query protocol."""

    def __init__(
        self, service: QueryService, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - http.server API
                if self.path.split("?", 1)[0] != "/metrics":
                    self.send_error(404, "only /metrics is served here")
                    return
                body = service.metrics_text().encode("utf-8")
                self.send_response(200)
                self.send_header(
                    "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
                )
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args) -> None:
                pass  # scrapes should not spam the server's stdout

        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self.host, self.port = self._httpd.server_address[:2]
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-metrics",
            daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
