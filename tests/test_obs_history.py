"""QueryTelemetryStore unit tests: fingerprints, q-errors, the bounded
per-plan observation rings, JSONL persistence round-trips, and the
calibration-sample extraction feeding :mod:`repro.cost.calibrate`."""

import json

import pytest

from repro.core.baselines import cost_controlled_optimizer
from repro.lang import compile_text
from repro.obs.history import (
    Observation,
    OperatorActual,
    OperatorEstimate,
    PlanHistory,
    QueryTelemetryStore,
    plan_fingerprint,
    q_error,
    query_class,
)
from repro.workloads import MusicConfig, generate_music_database

SCAN = "select [name: x.name] from x in Composer where x.birthyear >= 1700;"
LOOKUP = 'select [name: x.name] from x in Composer where x.name = "Bach";'


@pytest.fixture(scope="module")
def db():
    db = generate_music_database(
        MusicConfig(lineages=3, generations=5, works_per_composer=2, seed=7)
    )
    db.build_paper_indexes()
    return db


def plan_of(db, text):
    graph = compile_text(text, db.catalog)
    return cost_controlled_optimizer(db.physical).optimize(graph).plan


def observation(
    request_id="r1",
    estimated=10.0,
    measured=12.0,
    seconds=0.002,
    rows=3,
    events=None,
    operators=None,
):
    return Observation(
        at=0.0,
        request_id=request_id,
        estimated_cost=estimated,
        measured_cost=measured,
        execute_seconds=seconds,
        rows=rows,
        events=events or {},
        operators=operators or {},
    )


class TestFingerprints:
    def test_same_plan_same_fingerprint(self, db):
        assert plan_fingerprint(plan_of(db, SCAN)) == plan_fingerprint(
            plan_of(db, SCAN)
        )

    def test_different_plans_differ(self, db):
        assert plan_fingerprint(plan_of(db, SCAN)) != plan_fingerprint(
            plan_of(db, LOOKUP)
        )

    def test_fingerprint_shape(self, db):
        fp = plan_fingerprint(plan_of(db, SCAN))
        assert len(fp) == 16
        int(fp, 16)  # hex

    def test_query_class_is_stable_and_short(self):
        assert query_class(SCAN) == query_class(SCAN)
        assert query_class(SCAN) != query_class(LOOKUP)
        assert len(query_class(SCAN)) == 8


class TestQError:
    def test_symmetric(self):
        assert q_error(10.0, 20.0) == pytest.approx(2.0)
        assert q_error(20.0, 10.0) == pytest.approx(2.0)

    def test_exact_is_one(self):
        assert q_error(5.0, 5.0) == pytest.approx(1.0)

    def test_zero_sides_are_floored(self):
        # A measured cost of zero (fully buffered, no predicate) must
        # not explode the ratio; both zero means a perfect estimate.
        assert q_error(0.0, 0.0) == 1.0
        assert q_error(3.0, 0.0) == pytest.approx(3.0)
        assert q_error(0.0, 3.0) == pytest.approx(3.0)


class TestStoreRecording:
    def test_record_appends_and_bounds_window(self):
        store = QueryTelemetryStore(window=4)
        store.register_plan(SCAN, "fp1", 10.0)
        for run in range(9):
            store.record("fp1", observation(request_id=f"r{run}"))
        history = store.plan("fp1")
        assert history.total_runs == 9
        assert len(history.observations) == 4  # ring bound

    def test_record_unknown_fingerprint_is_noop(self):
        store = QueryTelemetryStore()
        store.record("missing", observation())
        assert store.plan("missing") is None

    def test_plans_for_groups_by_canonical(self):
        store = QueryTelemetryStore()
        store.register_plan(SCAN, "fp1", 10.0)
        store.register_plan(SCAN, "fp2", 8.0)  # re-optimized plan
        store.register_plan(LOOKUP, "fp3", 1.0)
        assert [h.fingerprint for h in store.plans_for(SCAN)] == ["fp1", "fp2"]

    def test_max_plans_drops_least_recently_observed(self):
        store = QueryTelemetryStore(max_plans=2)
        store.register_plan(SCAN, "fp1", 1.0)
        store.register_plan(LOOKUP, "fp2", 1.0)
        store.record("fp1", observation())  # fp1 is now most recent
        store.register_plan("third query;", "fp3", 1.0)
        assert store.plan("fp2") is None
        assert store.plan("fp1") is not None
        assert store.dropped_plans == 1

    def test_misestimates(self):
        store = QueryTelemetryStore()
        estimates = {
            "n0": OperatorEstimate("n0", "Sel", "Sel", est_rows=10.0),
        }
        store.register_plan(SCAN, "fp1", 10.0, estimates)
        store.record(
            "fp1",
            observation(
                estimated=10.0,
                measured=20.0,
                operators={"n0": OperatorActual(rows=20.0)},
            ),
        )
        history = store.plan("fp1")
        assert history.cost_misestimate() == pytest.approx(2.0)
        ops = history.operator_misestimates()
        assert ops["n0"]["rows_q_error"] == pytest.approx(2.0)
        by_query = store.misestimate_by_query()
        assert by_query[query_class(SCAN)]["cost_misestimate"] == pytest.approx(
            2.0
        )

    def test_calibration_samples_carry_target(self):
        store = QueryTelemetryStore()
        store.register_plan(SCAN, "fp1", 10.0)
        store.record(
            "fp1",
            observation(
                measured=42.0,
                events={"physical_reads": 40.0, "predicate_evals": 20.0},
            ),
        )
        store.record("fp1", observation(events={}))  # no events -> skipped
        (sample,) = store.calibration_samples()
        assert sample["target"] == 42.0
        assert sample["physical_reads"] == 40.0


class TestPersistence:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        store = QueryTelemetryStore(persist_path=str(path))
        store.register_plan(
            SCAN,
            "fp1",
            10.0,
            {"n0": OperatorEstimate("n0", "Sel", "Sel", est_rows=5.0)},
        )
        store.record(
            "fp1",
            observation(
                events={"physical_reads": 4.0},
                operators={"n0": OperatorActual(rows=6.0)},
            ),
        )
        store.record_event("recalibration", samples=12)
        store.close()

        reloaded = QueryTelemetryStore(persist_path=str(path))
        history = reloaded.plan("fp1")
        assert history is not None
        assert history.total_runs == 1
        assert history.estimates["n0"].est_rows == 5.0
        (obs,) = list(history.observations)
        assert obs.operators["n0"].rows == 6.0
        assert [e["event"] for e in reloaded.events] == ["recalibration"]
        reloaded.close()

    def test_corrupt_lines_are_skipped(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        store = QueryTelemetryStore(persist_path=str(path))
        store.register_plan(SCAN, "fp1", 10.0)
        store.record("fp1", observation())
        store.close()
        with open(path, "a") as handle:
            handle.write("{truncated\n")
            handle.write(json.dumps({"kind": "unknown"}) + "\n")
        reloaded = QueryTelemetryStore(persist_path=str(path))
        assert reloaded.plan("fp1").total_runs == 1
        reloaded.close()

    def test_snapshot_shape(self):
        store = QueryTelemetryStore()
        store.register_plan(SCAN, "fp1", 10.0)
        store.record("fp1", observation())
        snapshot = store.snapshot()
        assert snapshot["plans"] == 1
        (entry,) = snapshot["queries"]
        assert entry["query"] == SCAN
        assert entry["plans"][0]["fingerprint"] == "fp1"
        assert entry["plans"][0]["runs"] == 1


class TestValidation:
    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            QueryTelemetryStore(window=0)

    def test_bad_max_plans_rejected(self):
        with pytest.raises(ValueError):
            QueryTelemetryStore(max_plans=0)

    def test_history_median(self):
        history = PlanHistory("fp", SCAN, 1.0)
        assert history.median_latency() is None
        for seconds in (0.004, 0.001, 0.002):
            history.observations.append(observation(seconds=seconds))
        assert history.median_latency() == pytest.approx(0.002)


def warm_run(request_id, nodes=12):
    """An observation as a warm unprofiled run produces it: fresh
    dicts whose contents repeat run after run."""
    return observation(
        request_id=request_id,
        events={f"event_{i}": float(i) for i in range(15)},
        operators={f"n{i}": OperatorActual(rows=i) for i in range(nodes)},
    )


class TestSharedObservationParts:
    def test_equal_runs_share_operators_and_events(self):
        store = QueryTelemetryStore()
        store.register_plan(SCAN, "fp1", 10.0)
        first, second = warm_run("r1"), warm_run("r2")
        store.record("fp1", first)
        store.record("fp1", second)
        assert second.operators is first.operators
        assert second.events is first.events
        changed = warm_run("r3", nodes=3)
        store.record("fp1", changed)
        assert changed.operators is not first.operators
        assert changed.events is first.events

    def test_reads_are_unchanged_by_sharing(self, tmp_path):
        """Snapshot, misestimates, calibration samples and the JSONL
        round trip agree with a reloaded store, which rebuilds every
        observation from its own line and shares nothing."""
        path = tmp_path / "telemetry.jsonl"
        store = QueryTelemetryStore(persist_path=str(path))
        store.register_plan(
            SCAN,
            "fp1",
            10.0,
            {"n1": OperatorEstimate("n1", "Sel", "Sel", est_rows=4.0)},
        )
        runs = [warm_run("r1"), warm_run("r2"), warm_run("r3", nodes=3)]
        runs.append(warm_run("r4"))
        for run in runs:
            store.record("fp1", run)
        store.close()
        reloaded = QueryTelemetryStore(persist_path=str(path))
        loaded = list(reloaded.plan("fp1").observations)
        assert [o.to_dict() for o in loaded] == [o.to_dict() for o in runs]
        assert reloaded.snapshot() == store.snapshot()
        assert reloaded.calibration_samples() == store.calibration_samples()
        assert (
            reloaded.plan("fp1").operator_misestimates()
            == store.plan("fp1").operator_misestimates()
        )
        reloaded.close()

    def test_memory_does_not_grow_with_repeated_runs(self):
        """Each further equal run retains only the observation itself,
        not another copy of its per-node and per-event payload."""
        import tracemalloc

        store = QueryTelemetryStore(window=4096)
        store.register_plan(SCAN, "fp1", 10.0)
        store.record("fp1", warm_run("warm-up"))
        runs = 2000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for index in range(runs):
                store.record("fp1", warm_run(f"r{index}"))
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(store.plan("fp1").observations) == runs + 1
        assert grown / runs < 600

    def test_no_payload_is_built_without_a_sink(self, monkeypatch):
        store = QueryTelemetryStore()
        store.register_plan(SCAN, "fp1", 10.0)

        def fail(self):
            raise AssertionError("serialized without a persist sink")

        monkeypatch.setattr(Observation, "to_dict", fail)
        store.record("fp1", warm_run("r1"))
        assert store.plan("fp1").total_runs == 1
