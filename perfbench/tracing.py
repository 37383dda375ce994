"""Span recording around the service's layers, installed from outside.

The launcher calls :func:`install` before the server starts.  Each
wrapper replaces a public function where the service looks it up (the
``compile_text`` the server module imported, the ``PlanCache.key_for``
method, ...), so the program itself carries no tracing code.  A layer
that no longer exists is skipped and later reads as 0.

A request is the work one connection thread does from decoding a line
to encoding its response.  Its spans are ``[name, start_ns, end_ns,
parent_index]``; they stay in memory and :meth:`Recorder.dump` writes
them out, one JSON line per request, when the server has stopped."""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from typing import Callable, List, Optional

#: (module, attribute path, span name): module functions are replaced in
#: the module that calls them, methods on their class.
TARGETS = (
    ("repro.service.server", "QueryService.handle", "service.handle"),
    ("repro.service.plan_cache", "canonical_text", "lang.canonical"),
    ("repro.service.plan_cache", "PlanCache.key_for", "plan_cache.key"),
    ("repro.service.plan_cache", "schema_fingerprint", "plan_cache.schema_fp"),
    ("repro.service.plan_cache", "stats_fingerprint", "plan_cache.stats_fp"),
    ("repro.service.plan_cache", "PlanCache.lookup", "plan_cache.lookup"),
    ("repro.physical.stats", "Statistics.__init__", "physical.stats_rebuild"),
    ("repro.service.server", "compile_text", "lang.compile"),
    ("repro.core.optimizer", "Optimizer.optimize", "core.optimize"),
    ("repro.core.optimizer", "rewrite", "core.rewrite"),
    ("repro.core.translate", "Translator.translate_node", "core.translate"),
    ("repro.core.generate", "SPJGenerator.generate", "core.generate"),
    ("repro.cost.model", "DetailedCostModel.cost", "cost.model"),
    ("repro.cost.cardinality", "CardinalityEstimator.estimate", "cost.estimate"),
    ("repro.engine.evaluator", "Engine.execute", "engine.execute"),
    ("repro.engine.evaluator", "run_fixpoint", "engine.fixpoint"),
    ("repro.obs.feedback", "FeedbackManager.register_plan", "obs.feedback"),
    ("repro.obs.feedback", "FeedbackManager.observe", "obs.feedback"),
    ("repro.service.metrics", "ServiceMetrics.record_execution", "obs.metrics"),
)


class _Request:
    __slots__ = ("id", "spans", "stack", "counts")

    def __init__(self) -> None:
        self.id = None
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.counts: dict = {}


class Recorder:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.finished: List[_Request] = []
        self.installed: List[str] = []

    # -- request scope --------------------------------------------------

    def _current(self) -> Optional[_Request]:
        return getattr(self._local, "request", None)

    def _begin(self) -> _Request:
        request = _Request()
        self._local.request = request
        return request

    def _finish(self, request: _Request) -> None:
        self._local.request = None
        with self._lock:
            self.finished.append(request)

    def count(self, name: str, value: float) -> None:
        request = self._current()
        if request is not None:
            request.counts[name] = request.counts.get(name, 0) + value

    # -- spans -------------------------------------------------------------

    def _open(self, request: _Request, name: str) -> int:
        index = len(request.spans)
        parent = request.stack[-1] if request.stack else -1
        request.spans.append([name, time.perf_counter_ns(), 0, parent])
        request.stack.append(index)
        return index

    def _close(self, request: _Request, index: int) -> None:
        request.stack.pop()
        request.spans[index][2] = time.perf_counter_ns()

    def timed(self, name: str, function: Callable, after=None) -> Callable:
        """``function`` wrapped in a span; ``after(recorder, result)``
        may read counters off the result."""

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            request = self._current()
            if request is None:
                return function(*args, **kwargs)
            index = self._open(request, name)
            try:
                result = function(*args, **kwargs)
            finally:
                self._close(request, index)
            if after is not None:
                after(self, result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for module_name, path, name in TARGETS:
            self._patch(module_name, path, lambda f, n=name: self.timed(n, f, _AFTER.get(n)))
        self._install_protocol()
        self._install_search()
        self._install_admission()
        self._install_store_lock()

    def _patch(self, module_name: str, path: str, make: Callable) -> None:
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return
        *parents, attribute = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent, None)
            if owner is None:
                return
        function = owner.__dict__.get(attribute) if isinstance(owner, type) else getattr(owner, attribute, None)
        if function is None:
            return
        setattr(owner, attribute, make(function))
        self.installed.append(f"{module_name}.{path}")

    def _install_protocol(self) -> None:
        """decode starts a request, encode of its response ends it."""

        def decode(function):
            @functools.wraps(function)
            def wrapper(line):
                request = self._begin()
                index = self._open(request, "protocol.decode")
                try:
                    decoded = function(line)
                finally:
                    self._close(request, index)
                if isinstance(decoded, dict):
                    request.id = decoded.get("id")
                return decoded

            return wrapper

        def encode(function):
            @functools.wraps(function)
            def wrapper(payload):
                request = self._current()
                if request is None or request.stack:
                    return function(payload)
                index = self._open(request, "protocol.encode")
                try:
                    data = function(payload)
                finally:
                    self._close(request, index)
                request.counts["protocol.response_bytes"] = len(data)
                self._finish(request)
                return data

            return wrapper

        self._patch("repro.service.protocol", "decode", decode)
        self._patch("repro.service.protocol", "encode", encode)

    def _install_search(self) -> None:
        """The transformPT search of every strategy class."""
        try:
            import repro.core.enumerate  # noqa: F401  (registers its strategy)
            from repro.core.strategies import SearchStrategy
        except ImportError:
            return
        pending = [SearchStrategy]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if "search" in cls.__dict__:
                cls.search = self.timed("core.transform", cls.__dict__["search"])
                self.installed.append(f"{cls.__module__}.{cls.__name__}.search")

    def _install_admission(self) -> None:
        """Time spent entering ``AdmissionController.slot``."""
        recorder = self

        class TimedEnter:
            def __init__(self, inner):
                self.inner = inner

            def __enter__(self):
                request = recorder._current()
                if request is None:
                    return self.inner.__enter__()
                index = recorder._open(request, "admission.wait")
                try:
                    return self.inner.__enter__()
                finally:
                    recorder._close(request, index)

            def __exit__(self, *exc):
                return self.inner.__exit__(*exc)

        def slot(function):
            @functools.wraps(function)
            def wrapper(*args, **kwargs):
                return TimedEnter(function(*args, **kwargs))

            return wrapper

        self._patch("repro.service.admission", "AdmissionController.slot", slot)

    def _install_store_lock(self) -> None:
        """Put a timing proxy around the service's store lock, while the
        service has one: waiting to acquire it is a span of its own,
        holding it is counted per request."""
        recorder = self

        class TimedLock:
            def __init__(self, inner):
                self.inner = inner
                self.held = threading.local()

            def acquire(self, *args, **kwargs):
                request = recorder._current()
                if request is None:
                    acquired = self.inner.acquire(*args, **kwargs)
                else:
                    index = recorder._open(request, "service.lock_wait")
                    try:
                        acquired = self.inner.acquire(*args, **kwargs)
                    finally:
                        recorder._close(request, index)
                if acquired:
                    depth = getattr(self.held, "depth", 0)
                    if depth == 0:
                        self.held.since = time.perf_counter_ns()
                    self.held.depth = depth + 1
                return acquired

            def release(self):
                self.held.depth -= 1
                if self.held.depth == 0:
                    recorder.count("service.lock_hold_ns", time.perf_counter_ns() - self.held.since)
                self.inner.release()

            def __enter__(self):
                return self.acquire()

            def __exit__(self, *exc):
                self.release()

        def init(function):
            @functools.wraps(function)
            def wrapper(service, *args, **kwargs):
                function(service, *args, **kwargs)
                if hasattr(service, "_store_lock"):
                    service._store_lock = TimedLock(service._store_lock)

            return wrapper

        self._patch("repro.service.server", "QueryService.__init__", init)

    # -- output --------------------------------------------------------------

    def dump(self, path: str) -> None:
        with self._lock:
            finished = list(self.finished)
        with open(path, "w") as handle:
            handle.write(json.dumps({"installed": self.installed}) + "\n")
            for request in finished:
                handle.write(
                    json.dumps({"id": request.id, "spans": request.spans, "counts": request.counts})
                    + "\n"
                )


def _after_optimize(recorder: Recorder, result) -> None:
    recorder.count("core.plans_costed", getattr(result, "plans_costed", 0))


def _after_execute(recorder: Recorder, execution) -> None:
    metrics = getattr(execution, "metrics", None)
    buffer = getattr(metrics, "buffer", None)
    recorder.count("physical.logical_reads", getattr(buffer, "logical_reads", 0))
    recorder.count("physical.reads", getattr(buffer, "physical_reads", 0))
    recorder.count("engine.fix_rounds", getattr(metrics, "fix_iterations", 0))


_AFTER = {"core.optimize": _after_optimize, "engine.execute": _after_execute}
