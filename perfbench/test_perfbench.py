"""Self-tests of the benchmark's own code: ``python3 -m pytest perfbench``.

They need neither the program under test nor a running service."""

import json
import os
import socket
import threading
import time

import pytest

import run
from loadgen import Connection, open_loop
from stats import (
    InsufficientSamples,
    Outcome,
    check_metric_names,
    error_rate,
    percentile,
    self_times,
)
from workloads import POINT, RECURSIVE, WORKLOADS, make_plan


class TestPercentileRule:
    def test_tail_needs_ten_samples_beyond(self):
        assert percentile(list(range(1000)), 0.99) == 989
        assert percentile(list(range(100)), 0.90) == 89
        with pytest.raises(InsufficientSamples):
            percentile(list(range(999)), 0.99)
        with pytest.raises(InsufficientSamples):
            percentile(list(range(99)), 0.90)

    def test_reports_a_measured_value(self):
        values = [5.0, 1.0, 3.0] * 10
        assert percentile(values, 0.5) in values


class _SlowServer:
    """Answers each line-JSON request after ``delays[id]`` seconds."""

    def __init__(self, delays):
        self.delays = delays
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.address = self.listener.getsockname()[:2]
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        connection, _ = self.listener.accept()
        with connection, connection.makefile("rb") as reader:
            for line in reader:
                request = json.loads(line)
                time.sleep(self.delays.get(request["id"], 0.0))
                connection.sendall((json.dumps({"ok": True, "id": request["id"]}) + "\n").encode())

    def close(self):
        self.listener.close()
        self.thread.join(timeout=5)
        assert not self.thread.is_alive()


def test_open_loop_latency_is_timed_from_the_due_time():
    server = _SlowServer({0: 0.3})
    connection = Connection(server.address)
    try:
        requests = [(POINT, "a"), (POINT, "b")]
        outcomes, start, wake_late = open_loop([connection], requests, [0.0, 0.05], 0)
    finally:
        connection.close()
        server.close()
    first, second = outcomes
    # The second request was due 50 ms in but could only be sent once
    # the first was answered; its latency counts that wait.
    assert second.due == pytest.approx(start + 0.05)
    assert second.sent >= first.done
    assert second.latency == pytest.approx(second.done - second.due)
    assert second.latency >= 0.3 - 0.05 - 0.01
    # Waiting for the connection is not the generator running late.
    assert max(wake_late) < 0.05


def test_failures_count_against_attempts():
    answers = {"q": frozenset({(("name", "Bach"),)})}

    def outcome(index, reply):
        return Outcome(index, POINT, "q", 0.0, 0.0, 1.0, json.dumps(reply).encode() if reply else b"")

    outcomes = [
        outcome(1, {"ok": True, "id": 1, "rows": [{"name": "Bach"}]}),
        outcome(2, {"ok": False, "id": 2, "error": {"code": "admission_rejected"}}),
        outcome(3, {"ok": True, "id": 3, "rows": [{"name": "Handel"}]}),
        outcome(4, None),
    ]
    _replies, wrong = run.check(outcomes, answers)
    assert [o.ok for o in outcomes] == [True, False, False, False]
    assert wrong == 1
    assert error_rate(outcomes) == pytest.approx(0.75)


def test_self_time_subtracts_direct_children():
    spans = [
        ["service.handle", 0, 100, -1],
        ["plan_cache.lookup", 10, 40, 0],
        ["physical.stats_rebuild", 15, 35, 1],
        ["engine.execute", 50, 90, 0],
    ]
    assert self_times(spans) == {
        "service.handle": 30,
        "plan_cache.lookup": 10,
        "physical.stats_rebuild": 20,
        "engine.execute": 40,
    }


def test_metric_names_match_the_benchmark_file():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == run.END_TO_END
    assert per_layer == run.per_layer_units()
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    check_metric_names([*end_to_end, *per_layer])
    with pytest.raises(ValueError):
        check_metric_names(["point p99"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_plan_is_seeded_and_keeps_its_mix(name):
    texts = {
        POINT: [[f"p{i}.{s}" for s in range(4)] for i in range(64)],
        "fig3": [[f"f{i}.{t}" for t in range(6)] for i in range(12)],
        "join_push": [[f"j{i}"] for i in range(64)],
    }
    workload = WORKLOADS[name]
    first = make_plan(workload, texts, 7, 20)
    for kind, size, _skew in workload.pool:
        # Every group is drawn from before any is drawn from twice.
        picked = {text.split(".")[0] for text in first.texts[kind]}
        assert len(picked) == min(len(texts[kind]), size or len(texts[kind]))
    assert first == make_plan(workload, texts, 7, 20)
    assert first.requests != make_plan(workload, texts, 8, 20).requests
    block = dict(workload.block)
    head = first.requests[:100]
    for kind, count in block.items():
        assert sum(k == kind for k, _ in head) == count
    if workload.loop == "open":
        assert first.due == sorted(first.due) and first.due[-1] >= 20
        assert sum(k == POINT for k, _ in first.requests) >= 1000
        assert sum(k in RECURSIVE for k, _ in first.requests) >= 100
