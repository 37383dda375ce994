"""Served-request benchmark of the query service.

    python3 perfbench/run.py --workload warm-mix --seed 1 --seconds 30 --trace 0

Starts the service in its own process (``launcher.py``), drives it over
TCP from this process, checks every answer against
``ReferenceEvaluator.answer_set`` and prints, as its last line, one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
workload twice, untraced and then with every layer wrapped in spans
(see ``tracing.py``), and reports per-layer metrics: self times in ms
per request (a span's duration minus its children's), counts per
request, and the tracing overhead on throughput.

Reference answers are computed outside the timed window, once per
distinct text, and kept in ``.bench_build/perfbench`` keyed by a hash
of the sources, since one recursive text costs about 0.4 s.  Each run
also writes a full report there, with a pure-Python speed probe timed
before and after the run."""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
sys.path[:0] = [SRC, HERE]

from loadgen import Connection, closed_loop, open_loop, sequential  # noqa: E402
from stats import (  # noqa: E402
    Outcome,
    check_metric_names,
    error_rate,
    latencies_ms,
    percentile,
    self_times,
    span_counts,
    span_total,
)
from workloads import (  # noqa: E402
    MIN_POINT,
    MIN_RECURSIVE,
    POINT,
    QUERY_KINDS,
    RECURSIVE,
    REFRESH,
    WORKLOADS,
    build_database,
    make_plan,
    universe,
)

#: Server spawns timed per run; setup_s is their median.
SETUP_REPEATS = 3
#: A closed loop stops at this many seconds even without its minimum
#: request counts (the run then fails its percentile rule).
LOOP_LIMIT = 90.0

END_TO_END = {
    "throughput_qps": "1/s",
    "point_p50_ms": "ms",
    "point_p99_ms": "ms",
    "recursive_p50_ms": "ms",
    "recursive_p90_ms": "ms",
    "success_rate": "ratio",
    "setup_s": "s",
    "server_rss_mb": "MB",
}

#: Span names whose self time is reported as ``<name>_ms``.
TIMED_LAYERS = (
    "lang.canonical", "lang.compile", "plan_cache.key", "plan_cache.schema_fp",
    "plan_cache.stats_fp", "plan_cache.lookup", "physical.stats_rebuild",
    "core.optimize", "core.rewrite", "core.translate", "core.generate",
    "core.transform", "cost.model", "cost.estimate", "engine.execute",
    "engine.fixpoint", "service.lock_wait", "admission.wait", "obs.feedback",
    "obs.metrics", "protocol.decode", "protocol.encode",
)
#: Span names whose calls per request are reported.
COUNTED_LAYERS = {
    "physical.stats_rebuilds": "physical.stats_rebuild",
    "cost.model_calls": "cost.model",
    "cost.estimate_calls": "cost.estimate",
}
#: Layer groups for the share of a request's latency each one takes.
GROUPS = {
    "lang+plan_cache+stats": ("lang.", "plan_cache.", "physical.stats_rebuild"),
    "core+cost": ("core.", "cost."),
    "engine": ("engine.",),
    "lock+admission wait": ("service.lock_wait", "admission.wait"),
    "obs": ("obs.",),
    "protocol": ("protocol.",),
    "service other": ("service.handle",),
}

#: Which end-to-end metric each layer metric should move, on which
#: workload (written into every report).
LAYER_MAP = {
    "warm-mix: point_p50_ms, throughput_qps": [
        "lang.canonical_ms", "plan_cache.key_ms", "plan_cache.schema_fp_ms",
        "plan_cache.stats_fp_ms", "plan_cache.lookup_ms", "physical.stats_rebuilds",
        "physical.stats_rebuild_ms", "obs.feedback_ms", "obs.metrics_ms",
        "protocol.decode_ms", "protocol.encode_ms", "protocol.response_bytes",
        "loadgen.transport_ms",
    ],
    "cold-plan: throughput_qps": ["plan_cache.hit_ratio", "plan_cache.evictions"],
    "cold-plan: recursive_p50_ms, throughput_qps": [
        "lang.compile_ms", "core.optimize_ms", "core.rewrite_ms", "core.translate_ms",
        "core.generate_ms", "core.transform_ms", "core.plans_costed",
        "cost.model_calls", "cost.model_ms", "cost.estimate_calls", "cost.estimate_ms",
    ],
    "warm-mix, io-concurrent: recursive_p50_ms": [
        "engine.execute_ms", "engine.fixpoint_ms", "engine.fix_rounds",
    ],
    "io-concurrent: recursive_p50_ms": [
        "physical.buffer_hit_ratio", "physical.reads_per_req", "physical.io_wait_ms",
    ],
    "io-concurrent: point_p99_ms": [
        "service.lock_wait_ms", "service.lock_hold_ms", "admission.wait_ms",
        "admission.rejections", "loadgen.queue_ms", "point_tail.wait_share",
    ],
    "unattributed": ["service.other_ms"],
    "run validity": ["loadgen.late_p99_ms", "trace.overhead", "error_rate"],
}


def per_layer_units() -> Dict[str, str]:
    units = {f"{name}_ms": "ms" for name in TIMED_LAYERS}
    units.update({name: "1/req" for name in COUNTED_LAYERS})
    units.update(
        {
            "plan_cache.hit_ratio": "ratio",
            "plan_cache.evictions": "count",
            "core.plans_costed": "1/req",
            "engine.fix_rounds": "1/req",
            "physical.buffer_hit_ratio": "ratio",
            "physical.reads_per_req": "1/req",
            "physical.io_wait_ms": "ms",
            "service.lock_hold_ms": "ms",
            "service.other_ms": "ms",
            "admission.rejections": "count",
            "protocol.response_bytes": "B/req",
            "loadgen.transport_ms": "ms",
            "loadgen.queue_ms": "ms",
            "loadgen.late_p99_ms": "ms",
            "trace.untraced_qps": "1/s",
            "trace.traced_qps": "1/s",
            "trace.overhead": "ratio",
            "error_rate": "ratio",
            "point.front_share": "ratio",
            "recursive.optimizer_share": "ratio",
            "point_tail.wait_share": "ratio",
        }
    )
    return units


# -- reference answers ----------------------------------------------------


def row_key(row: dict) -> tuple:
    return tuple(sorted(row.items()))


def source_hash() -> str:
    """Hash of the program's sources and the database recipe, which
    together decide every reference answer."""
    paths = [os.path.join(HERE, "workloads.py")]
    for base, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        paths += [os.path.join(base, name) for name in sorted(files) if name.endswith(".py")]
    digest = hashlib.sha256()
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:16]


def reference_answers(db, texts: List[str]) -> Dict[str, frozenset]:
    """The reference answer set of every text, from the cache or the
    oracle."""
    from repro.engine.reference import ReferenceEvaluator
    from repro.lang.compile import compile_text

    path = os.path.join(OUT, f"reference-{source_hash()}.json")
    cached: Dict[str, list] = {}
    if os.path.exists(path):
        with open(path) as handle:
            cached = json.load(handle)
    missing = [text for text in texts if text not in cached]
    if missing:
        oracle = ReferenceEvaluator(db.physical)
        for text in missing:
            answer = oracle.answer_set(compile_text(text, db.catalog))
            cached[text] = sorted([list(pair) for pair in row] for row in answer)
        with open(path + ".tmp", "w") as handle:
            json.dump(cached, handle)
        os.replace(path + ".tmp", path)
    return {
        text: frozenset(tuple(tuple(pair) for pair in row) for row in cached[text])
        for text in texts
    }


def check(outcomes: List[Outcome], answers: Dict[str, frozenset]) -> Tuple[Dict[int, dict], int]:
    """Mark each outcome ok or not.  Returns the parsed responses by id
    and how many were wrong answers rather than errors."""
    replies: Dict[int, dict] = {}
    wrong = 0
    for outcome in outcomes:
        if not outcome.response:
            continue
        reply = replies[outcome.index] = json.loads(outcome.response)
        if reply.get("id") != outcome.index:
            wrong += 1
        elif not reply.get("ok"):
            pass
        elif outcome.kind == REFRESH:
            outcome.ok = reply.get("refreshed") is True
        else:
            got = frozenset(row_key(row) for row in reply.get("rows", []))
            outcome.ok = got == answers[outcome.text] and not reply.get("truncated")
            wrong += not outcome.ok
    return replies, wrong


# -- the server process ---------------------------------------------------


class Server:
    """One launcher process; ``setup_s`` runs from spawn to first pong."""

    def __init__(self, workload, trace_out: Optional[str] = None) -> None:
        command = [
            sys.executable, os.path.join(HERE, "launcher.py"),
            "--buffer-pages", str(workload.buffer_pages),
            "--io-latency", repr(workload.io_latency),
        ]
        if trace_out:
            command += ["--trace-out", trace_out]
        self.log = open(os.path.join(OUT, "server.log"), "ab")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self.log, cwd=ROOT,
            env=dict(os.environ, PYTHONHASHSEED="0"),
        )
        self.control: Optional[Connection] = None
        watchdog = threading.Timer(120, self.process.kill)
        watchdog.start()
        try:
            for line in self.process.stdout:
                match = re.search(rb" on ([0-9.]+):([0-9]+)", line)
                if match:
                    break
            else:
                raise RuntimeError("the server exited before it was serving")
            self.address = (match.group(1).decode(), int(match.group(2)))
            self.control = Connection(self.address)
            if not self.control.call({"op": "ping", "id": "ping"}).get("pong"):
                raise RuntimeError("the server did not answer ping")
            self.setup_s = time.perf_counter() - started
        except BaseException:
            self.stop()
            raise
        finally:
            watchdog.cancel()

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not found")

    def stop(self) -> None:
        try:
            if self.control is not None:
                self.control.call({"op": "shutdown", "id": "shutdown"})
                self.control.close()
            self.process.wait(timeout=60)
        except (OSError, ValueError, subprocess.TimeoutExpired):
            self.process.kill()
            self.process.wait(timeout=30)
        finally:
            self.process.stdout.close()
            self.log.close()


# -- one pass: serve the plan once ----------------------------------------


def serve(workload, plan, answers, seconds: float, trace_out: Optional[str] = None) -> dict:
    server = Server(workload, trace_out)
    try:
        control = server.control
        warm: List[Outcome] = []
        if workload.prime:
            primed = [(kind, text) for kind in QUERY_KINDS for text in plan.texts.get(kind, [])]
            warm += sequential(control, primed, 1)
        warm += sequential(control, plan.warmup, 10_000)
        warm_wrong = check(warm, answers)[1]
        before = control.call({"op": "stats", "id": "stats-before"})
        # The generator's own garbage collections would stall sends and
        # receives inside the window; it creates no reference cycles.
        gc.collect()
        gc.disable()
        if workload.loop == "open":
            connections = [Connection(server.address) for _ in range(2)]
            try:
                outcomes, start, wake_late = open_loop(connections, plan.requests, plan.due, 100_000)
            finally:
                for connection in connections:
                    connection.close()
        else:
            outcomes, start, wake_late = closed_loop(
                control, plan.requests, 100_000, seconds, enough, LOOP_LIMIT
            )
        gc.enable()
        after = control.call({"op": "stats", "id": "stats-after"})
        rss = server.peak_rss_mb()
    finally:
        gc.enable()
        server.stop()
    replies, wrong = check(outcomes, answers)
    elapsed = max(outcome.done for outcome in outcomes) - start
    return {
        "outcomes": outcomes,
        "replies": replies,
        "wrong": wrong + warm_wrong,
        "elapsed": elapsed,
        "qps": sum(outcome.ok for outcome in outcomes) / elapsed,
        "wake_late": wake_late,
        "before": before,
        "after": after,
        "rss": rss,
        "setup_s": server.setup_s,
    }


def enough(outcomes: List[Outcome]) -> bool:
    points = sum(outcome.kind == POINT for outcome in outcomes)
    recursive = sum(outcome.kind in RECURSIVE for outcome in outcomes)
    return points >= MIN_POINT and recursive >= MIN_RECURSIVE


# -- metrics --------------------------------------------------------------


def end_to_end(result: dict, setup: List[float]) -> Dict[str, float]:
    outcomes = result["outcomes"]
    point = latencies_ms(outcomes, (POINT,))
    recursive = latencies_ms(outcomes, RECURSIVE)
    return {
        "throughput_qps": result["qps"],
        "point_p50_ms": percentile(point, 0.50),
        "point_p99_ms": percentile(point, 0.99),
        "recursive_p50_ms": percentile(recursive, 0.50),
        "recursive_p90_ms": percentile(recursive, 0.90),
        "success_rate": 1.0 - error_rate(outcomes),
        "setup_s": statistics.median(setup),
        "server_rss_mb": result["rss"],
    }


def _stat(payload: dict, *path):
    """A counter of the ``stats`` response, 0 where the service no
    longer reports it."""
    for key in path:
        if not isinstance(payload, dict) or key not in payload:
            return 0
        payload = payload[key]
    return payload


def per_layer(result: dict, untraced_qps: float, trace_path: str, io_latency: float):
    """Per-layer metrics of a traced pass, plus each request class's
    latency split by layer group."""
    outcomes: List[Outcome] = result["outcomes"]
    wanted = {outcome.index for outcome in outcomes}
    records = {}
    with open(trace_path) as handle:
        installed = json.loads(handle.readline())["installed"]
        for line in handle:
            record = json.loads(line)
            if record["id"] in wanted:
                records[record["id"]] = record
    missing = wanted - set(records)
    if missing:
        raise RuntimeError(f"{len(missing)} requests left no trace")

    n = len(outcomes)
    self_ns: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    counts: Dict[str, float] = {}
    transport_ms = 0.0
    groups = {"point": {}, "recursive": {}, "point tail": {}}
    point_latencies = latencies_ms(outcomes, (POINT,))
    tail_cut = percentile(point_latencies, 0.99)
    for outcome in outcomes:
        record = records[outcome.index]
        spans = record["spans"]
        own = self_times(spans)
        for name, value in own.items():
            self_ns[name] = self_ns.get(name, 0) + value
        for name, value in span_counts(spans).items():
            calls[name] = calls.get(name, 0) + value
        for name, value in record["counts"].items():
            counts[name] = counts.get(name, 0) + value
        handle_ms = span_total(spans, "service.handle") / 1e6
        transport_ms += (outcome.done - outcome.sent) * 1000 - handle_ms
        classes = []
        if outcome.kind == POINT:
            classes.append("point")
            if outcome.latency * 1000 >= tail_cut:
                classes.append("point tail")
        elif outcome.kind in RECURSIVE:
            classes.append("recursive")
        for cls in classes:
            split = _split(own, outcome)
            bucket = groups[cls]
            for group, value in split.items():
                bucket[group] = bucket.get(group, 0.0) + value

    shares = {}
    for cls, bucket in groups.items():
        total = sum(bucket.values())
        shares[cls] = {group: value / total for group, value in sorted(bucket.items())} if total else {}

    replies = result["replies"]
    queries = [replies[o.index] for o in outcomes if o.kind in QUERY_KINDS and o.ok]
    hits = sum(reply.get("cache") in ("hit", "revalidated") for reply in queries)
    logical = counts.get("physical.logical_reads", 0)
    reads = counts.get("physical.reads", 0)
    before, after = result["before"], result["after"]
    metrics = {f"{name}_ms": self_ns.get(name, 0) / n / 1e6 for name in TIMED_LAYERS}
    metrics.update({metric: calls.get(span, 0) / n for metric, span in COUNTED_LAYERS.items()})
    metrics.update(
        {
            "plan_cache.hit_ratio": hits / len(queries) if queries else 0.0,
            "plan_cache.evictions": _stat(after, "cache", "evictions")
            - _stat(before, "cache", "evictions"),
            "core.plans_costed": counts.get("core.plans_costed", 0) / n,
            "engine.fix_rounds": counts.get("engine.fix_rounds", 0) / n,
            "physical.buffer_hit_ratio": 1.0 - reads / logical if logical else 0.0,
            "physical.reads_per_req": reads / n,
            "physical.io_wait_ms": reads / n * io_latency * 1000,
            "service.lock_hold_ms": counts.get("service.lock_hold_ns", 0) / n / 1e6,
            "service.other_ms": self_ns.get("service.handle", 0) / n / 1e6,
            "admission.rejections": sum(
                _stat(after, "admission", key) - _stat(before, "admission", key)
                for key in ("rejected_budget", "rejected_queue")
            ),
            "protocol.response_bytes": counts.get("protocol.response_bytes", 0) / n,
            "loadgen.transport_ms": transport_ms / n,
            "loadgen.queue_ms": sum(o.sent - o.due for o in outcomes) / n * 1000,
            "loadgen.late_p99_ms": percentile(result["wake_late"], 0.99) * 1000,
            "trace.untraced_qps": untraced_qps,
            "trace.traced_qps": result["qps"],
            "trace.overhead": 1.0 - result["qps"] / untraced_qps,
            "error_rate": error_rate(outcomes),
            "point.front_share": shares["point"].get("lang+plan_cache+stats", 0.0),
            "recursive.optimizer_share": shares["recursive"].get("core+cost", 0.0),
            "point_tail.wait_share": shares["point tail"].get("lock+admission wait", 0.0)
            + shares["point tail"].get("queue", 0.0),
        }
    )
    largest = {cls: max(share, key=share.get) for cls, share in shares.items() if share}
    return metrics, {"shares": shares, "largest": largest, "installed": installed}


def _split(own: Dict[str, float], outcome: Outcome) -> Dict[str, float]:
    """One request's latency in ms by layer group; what no span covers
    is the client's queue (open loop) and transport."""
    split = {}
    for group, prefixes in GROUPS.items():
        split[group] = sum(v for k, v in own.items() if k.startswith(prefixes)) / 1e6
    split["queue"] = (outcome.sent - outcome.due) * 1000
    split["transport"] = outcome.latency * 1000 - sum(split.values())
    return split


# -- driver ---------------------------------------------------------------


def machine_probe(passes: int = 5) -> float:
    """Median ms of a fixed pure-Python loop: a diagnostic of how fast
    the machine ran, stored with the results and gated on nothing."""
    times = []
    for _ in range(passes):
        started = time.perf_counter()
        total = 0
        for value in range(200_000):
            total += value * value % 7
        times.append((time.perf_counter() - started) * 1000)
    return statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    workload = WORKLOADS[args.workload]
    probe_before = machine_probe()

    db = build_database()
    composers = [record.values["name"] for record in db.store.extent("Composer").records]
    instruments = [record.values["name"] for record in db.store.extent("Instrument").records]
    texts = universe(composers, instruments)
    plan = make_plan(workload, texts, args.seed, args.seconds)
    distinct = sorted({text for kind in plan.texts.values() for text in kind})
    answers = reference_answers(
        db, sorted({text for groups in texts.values() for group in groups for text in group})
    )
    answers = {text: answers[text] for text in distinct}

    report: dict = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "layer_map": LAYER_MAP, "distinct_texts": len(distinct)}
    if args.trace:
        untraced = serve(workload, plan, answers, args.seconds)
        trace_path = os.path.join(OUT, f"spans-{workload.name}-{args.seed}.jsonl")
        result = serve(workload, plan, answers, args.seconds, trace_path)
        metrics, detail = per_layer(result, untraced["qps"], trace_path, workload.io_latency)
        units = per_layer_units()
        report.update(detail)
        wrong = untraced["wrong"] + result["wrong"]
    else:
        setup = []
        for _ in range(SETUP_REPEATS - 1):
            server = Server(workload)
            setup.append(server.setup_s)
            server.stop()
        result = serve(workload, plan, answers, args.seconds)
        setup.append(result["setup_s"])
        metrics = end_to_end(result, setup)
        units = END_TO_END
        wrong = result["wrong"]
        report["setup_samples"] = setup
    check_metric_names(metrics)
    outcomes = result["outcomes"]
    report.update(
        {
            "metrics": metrics,
            "attempted": len(outcomes),
            "by_kind": {k: sum(o.kind == k for o in outcomes) for k in (*QUERY_KINDS, REFRESH)},
            "window_s": result["elapsed"],
            "probe_ms": {"before": probe_before, "after": machine_probe()},
        }
    )
    with open(os.path.join(OUT, f"report-{workload.name}-{args.seed}-{args.trace}.json"), "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
    print(json.dumps(report["probe_ms"] | {"by_kind": report["by_kind"]}), file=sys.stderr)
    if args.trace:
        print(json.dumps({"largest share": report["largest"]}), file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": wrong == 0,
                "attempted": len(outcomes),
                "failed": sum(not outcome.ok for outcome in outcomes),
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
