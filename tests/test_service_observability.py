"""Service observability: request ids, the explain/trace/metrics
protocol ops, the slow-query log on the serving path, the HTTP
metrics sidecar, and the CLI entry points."""

import io
import json
import os
import time
import urllib.request

import pytest

from repro.cli import main
from repro.service import (
    MetricsServer,
    QueryServer,
    QueryService,
    ServiceClient,
    ServiceConfig,
)
from repro.workloads import MusicConfig, generate_music_database

FIG3 = """
view Influencer as
  select [master: x.master, disciple: x, gen: 1] from x in Composer
  union
  select [master: i.master, disciple: x, gen: i.gen + 1]
  from i in Influencer, x in Composer where i.disciple = x.master;

select [name: i.disciple.name, gen: i.gen]
from i in Influencer
where i.master.works.instruments.name = "harpsichord" and i.gen >= 2;
"""


def build_db():
    db = generate_music_database(
        MusicConfig(lineages=3, generations=6, works_per_composer=2, seed=21)
    )
    db.build_paper_indexes()
    return db


@pytest.fixture()
def service():
    return QueryService(build_db())


class TestRequestIds:
    def test_client_id_is_echoed(self, service):
        response = service.handle({"op": "ping", "id": "corr-77"})
        assert response["ok"] and response["id"] == "corr-77"

    def test_client_id_echoed_on_error(self, service):
        response = service.handle({"op": "no_such_op", "id": 13})
        assert response["ok"] is False and response["id"] == 13

    def test_queries_get_server_request_ids(self, service):
        first = service.handle({"op": "query", "text": FIG3})
        second = service.handle({"op": "query", "text": FIG3})
        assert first["request_id"] and second["request_id"]
        assert first["request_id"] != second["request_id"]
        recent = service.stats()["service"]["recent"]
        assert recent[-1]["request_id"] == second["request_id"]


class TestExplainOp:
    def test_explain_estimates_only(self, service):
        response = service.handle({"op": "explain", "text": FIG3})
        assert response["ok"] and response["analyzed"] is False
        assert "est rows=" in response["plan"]
        assert "act rows=" not in response["plan"]
        assert response["tree"]["plan"]["est_cost"] > 0
        assert response["candidates"]

    def test_explain_analyze_has_actuals(self, service):
        response = service.handle(
            {"op": "explain", "text": FIG3, "analyze": True}
        )
        assert response["ok"] and response["analyzed"] is True
        assert "act rows=" in response["plan"]
        assert "[base: +" in response["plan"]  # Fix per-iteration actuals
        assert response["row_count"] == response["tree"]["plan"]["actual_rows"]
        json.dumps(response["tree"])  # wire-safe

    def test_explain_requires_text(self, service):
        response = service.handle({"op": "explain"})
        assert response["ok"] is False
        assert response["error"]["code"] == "protocol_error"


class TestTraceOp:
    def test_trace_returns_spans_and_chrome(self, service):
        response = service.handle({"op": "trace", "text": FIG3})
        assert response["ok"]
        names = [s["name"] for s in response["trace"]["spans"]]
        for phase in ("optimize", "rewrite", "generatePT", "transformPT", "execute"):
            assert phase in names, names
        events = [
            e
            for s in response["trace"]["spans"]
            for e in s.get("events", [])
        ]
        assert any(e["name"] == "transformPT.push_comparison" for e in events)
        assert {"X", "i"} >= {
            e["ph"] for e in response["chrome_trace"]["traceEvents"]
        }
        assert response["profile"]["nodes"]

    def test_trace_optimize_only(self, service):
        response = service.handle(
            {"op": "trace", "text": FIG3, "execute": False}
        )
        assert response["ok"]
        names = [s["name"] for s in response["trace"]["spans"]]
        assert "execute" not in names
        assert "profile" not in response


class TestMetricsOp:
    def test_metrics_exposition(self, service):
        service.handle({"op": "query", "text": FIG3})
        response = service.handle({"op": "metrics"})
        assert response["ok"]
        assert "repro_queries_executed_total 1" in response["metrics"]

    def test_http_sidecar(self, service):
        sidecar = MetricsServer(service, port=0)
        sidecar.start()
        try:
            body = (
                urllib.request.urlopen(
                    f"http://{sidecar.address}/metrics", timeout=5
                )
                .read()
                .decode()
            )
            assert "# TYPE repro_requests_total counter" in body
            with pytest.raises(urllib.error.HTTPError) as failure:
                urllib.request.urlopen(
                    f"http://{sidecar.address}/somewhere-else", timeout=5
                )
            assert failure.value.code == 404
        finally:
            sidecar.stop()


class TestSlowQueryLog:
    def test_slow_threshold_routes_to_log(self):
        service = QueryService(
            build_db(),
            ServiceConfig(slow_query_seconds=0.0, misestimate_ratio=None),
        )
        service.handle({"op": "query", "text": FIG3})
        slow = service.stats()["service"]["slow"]
        assert len(slow) == 1
        assert "execute took" in slow[0]["reasons"][0]

    def test_misestimate_routes_to_log(self):
        service = QueryService(
            build_db(),
            ServiceConfig(slow_query_seconds=None, misestimate_ratio=1.0000001),
        )
        service.handle({"op": "query", "text": FIG3})
        slow = service.stats()["service"]["slow"]
        assert len(slow) == 1
        assert "cost ratio" in slow[0]["reasons"][0]

    def test_defaults_do_not_flag_healthy_queries(self, service):
        service.handle({"op": "query", "text": FIG3})
        assert service.stats()["service"]["slow_queries"] == 0


POINT = 'select [name: c.name] from c in Composer where c.name = "Bach";'


class _SlowLock:
    """The store lock, taking ``delay`` seconds to acquire."""

    def __init__(self, inner, delay):
        self.inner = inner
        self.delay = delay

    def acquire(self, *args, **kwargs):
        time.sleep(self.delay)
        return self.inner.acquire(*args, **kwargs)

    def release(self):
        self.inner.release()

    def __enter__(self):
        return self.acquire()

    def __exit__(self, *exc):
        self.release()


class TestLockWait:
    def test_lock_wait_is_not_execution(self):
        service = QueryService(
            build_db(),
            ServiceConfig(slow_query_seconds=0.04, misestimate_ratio=None),
        )
        service.handle({"op": "query", "text": POINT})
        service._store_lock = _SlowLock(service._store_lock, 0.05)
        response = service.handle({"op": "query", "text": POINT})
        assert response["wait_lock_ms"] >= 50
        assert response["execute_ms"] < 40
        recent = service.stats()["service"]["recent"][-1]
        assert recent["wait_lock_ms"] == response["wait_lock_ms"]
        assert recent["execute_ms"] == response["execute_ms"]
        # The slow-query log judges execution alone.
        assert service.stats()["service"]["slow_queries"] == 0

    def test_uncontended_lock_wait_is_small(self, service):
        response = service.handle({"op": "query", "text": POINT})
        assert 0 <= response["wait_lock_ms"] < 40


class TestOverTheWire:
    def test_explain_and_metrics_over_tcp(self):
        service = QueryService(build_db())
        server = QueryServer(service, port=0)
        server.start()
        client = ServiceClient("127.0.0.1", server.port)
        try:
            explain = client.request(
                {"op": "explain", "text": FIG3, "analyze": True, "id": "e1"}
            )
            assert explain["id"] == "e1" and "act rows=" in explain["plan"]
            metrics = client.request({"op": "metrics"})
            assert "repro_requests_total" in metrics["metrics"]
        finally:
            client.close()
            server.stop()


class TestCli:
    def run_cli(self, argv):
        out = io.StringIO()
        code = main(argv, out=out)
        return code, out.getvalue()

    @pytest.fixture()
    def query_file(self, tmp_path):
        path = tmp_path / "influence.oql"
        path.write_text(FIG3)
        return str(path)

    def common(self):
        return ["--lineages", "3", "--generations", "5"]

    def test_explain_analyze(self, query_file):
        code, output = self.run_cli(
            ["explain", "--analyze", query_file] + self.common()
        )
        assert code == 0
        assert "EXPLAIN ANALYZE" in output
        assert "est rows=" in output and "act rows=" in output
        assert "[base: +" in output
        assert "actuals:" in output

    def test_explain_json_export(self, query_file, tmp_path):
        target = tmp_path / "explain.json"
        code, _output = self.run_cli(
            ["explain", "--analyze", "--json", str(target), query_file]
            + self.common()
        )
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["analyzed"] is True
        assert payload["plan"]["actual_rows"] is not None

    def test_trace_chrome_output(self, query_file, tmp_path):
        target = tmp_path / "trace.json"
        code, output = self.run_cli(
            ["trace", query_file, "-o", str(target)] + self.common()
        )
        assert code == 0 and "trace written to" in output
        payload = json.loads(target.read_text())
        assert payload["traceEvents"]
        assert any(
            e["name"] == "transformPT.push_comparison"
            for e in payload["traceEvents"]
        )

    def test_trace_json_output(self, query_file, tmp_path):
        target = tmp_path / "trace.json"
        code, _output = self.run_cli(
            ["trace", query_file, "-o", str(target), "--format", "json"]
            + self.common()
        )
        assert code == 0
        payload = json.loads(target.read_text())
        assert [s["name"] for s in payload["spans"]].count("optimize") == 1
        assert payload["profile"]["nodes"]

    def test_serve_with_metrics_port(self):
        import threading

        box = []
        out = io.StringIO()
        from repro.cli import build_parser, cmd_serve

        args = build_parser().parse_args(
            [
                "serve",
                "--port",
                "0",
                "--metrics-port",
                "0",
                "--lineages",
                "2",
                "--generations",
                "4",
            ]
        )
        thread = threading.Thread(
            target=cmd_serve, args=(args, out, box), daemon=True
        )
        thread.start()
        import time

        deadline = time.time() + 30
        while len(box) < 2 and time.time() < deadline:
            time.sleep(0.05)
        assert len(box) == 2, out.getvalue()
        server, metrics_server = box
        try:
            body = (
                urllib.request.urlopen(
                    f"http://{metrics_server.address}/metrics", timeout=5
                )
                .read()
                .decode()
            )
            assert "repro_requests_total" in body
            client = ServiceClient("127.0.0.1", server.port)
            client.request({"op": "shutdown"})
            client.close()
        finally:
            thread.join(timeout=10)
        assert "metrics on http://" in out.getvalue()
