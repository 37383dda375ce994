"""The cardinality estimator's memo changes no cost, only the work.

``CardinalityEstimator.estimate`` memoizes per ``(node, delta_env)``
for the lifetime of one cost model, and ``Statistics`` caches the
values it derives from the store until the next refresh.  The oracle
here costs every candidate plan the II optimizer visits through one
shared model in visit order (so later candidates hit estimates made
for earlier ones), through a fresh model per plan, and through a
model whose estimator recomputes every call, and requires all three
to agree exactly.  The count tests pin the saving itself.
"""

from collections import Counter

import pytest

from repro.core import cost_controlled_optimizer
from repro.cost import CostParameters, DetailedCostModel
from repro.cost.cardinality import CardinalityEstimator
from repro.workloads import (
    MusicConfig,
    PartsConfig,
    components_of_query,
    fig3_query,
    generate_music_database,
    generate_parts_database,
    heavy_components_query,
    join_push_query,
)

#: The fig7 cost-model configurations, plus two shards so the
#: distributed-Fix breakdowns are compared too.
CONFIGS = {
    "serial": {},
    "parallel4": {"parallelism": 4},
    "shards4": {"shards": 4},
    "shards2": {"shards": 2},
}


@pytest.fixture(scope="module")
def fig7_db():
    """The fig7 database (same recipe as bench_fig7_cost_table)."""
    db = generate_music_database(
        MusicConfig(
            lineages=8,
            generations=8,
            works_per_composer=3,
            selective_fraction=0.15,
            seed=6,
        )
    )
    db.build_paper_indexes()
    return db


@pytest.fixture(scope="module")
def parts_db():
    return generate_parts_database(
        PartsConfig(assemblies=4, depth=3, fanout=3, sharing=0.2, seed=7)
    )


def _params(overrides):
    params = CostParameters()
    for name, value in overrides.items():
        setattr(params, name, value)
    return params


def _visits(physical, graph, params):
    """Every ``(plan, delta_env)`` the II optimizer costs, in order."""
    model = DetailedCostModel(physical, params)
    visits = []
    cost = model.cost

    def recording(plan, delta_env=None):
        visits.append((plan, delta_env))
        return cost(plan, delta_env)

    model.cost = recording
    cost_controlled_optimizer(physical, model).optimize(graph)
    return visits


def _priced(model, plan, delta_env):
    """Everything a model reports about one plan."""
    report = model.report(plan, delta_env)
    breakdowns = dict(model.fix_breakdowns)
    annotated, captured = model.annotated_report(plan, delta_env)
    return (
        report.total,
        report.io,
        report.cpu,
        report.rows,
        breakdowns,
        annotated.total,
        {
            node_id: (entry.cost, entry.tuples, entry.visits)
            for node_id, entry in captured.items()
        },
    )


class _Unmemoized(CardinalityEstimator):
    """The estimator with every call computed from scratch."""

    def estimate(self, node, delta_env=None):
        return self._estimate(node, delta_env or {})


def _unmemoized_model(physical, params):
    model = DetailedCostModel(physical, params)
    model.estimator = _Unmemoized(physical, model.params)
    return model


def _assert_shared_equals_fresh(physical, graph, params):
    visits = _visits(physical, graph, params)
    assert visits
    shared = DetailedCostModel(physical, params)
    for plan, delta_env in visits:
        priced = _priced(shared, plan, delta_env)
        fresh = DetailedCostModel(physical, params)
        assert priced == _priced(fresh, plan, delta_env)
        reference = _unmemoized_model(physical, params)
        assert priced == _priced(reference, plan, delta_env)


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("query", [fig3_query, join_push_query])
def test_memo_oracle_music(fig7_db, query, config_name):
    _assert_shared_equals_fresh(
        fig7_db.physical, query(), _params(CONFIGS[config_name])
    )


@pytest.mark.parametrize("config_name", ["serial", "shards2"])
@pytest.mark.parametrize(
    "query", [components_of_query, heavy_components_query]
)
def test_memo_oracle_parts_explosion(parts_db, query, config_name):
    _assert_shared_equals_fresh(
        parts_db.physical, query(), _params(CONFIGS[config_name])
    )


def test_fix_breakdowns_present_at_two_shards(fig7_db):
    """The shards=2 oracle above compares real breakdowns, not two
    empty dicts."""
    model = DetailedCostModel(fig7_db.physical, _params({"shards": 2}))
    result = cost_controlled_optimizer(fig7_db.physical, model).optimize(
        fig3_query()
    )
    model.report(result.plan)
    assert model.fix_breakdowns


# -- counts -----------------------------------------------------------------


@pytest.fixture()
def count_db():
    db = generate_music_database(
        MusicConfig(lineages=3, generations=5, works_per_composer=2, seed=99)
    )
    db.build_paper_indexes()
    return db


def _body_key(node, delta_env):
    env = delta_env or {}
    return (
        id(node),
        tuple(
            (name, tuples, tuple(shape.fields.items()), shape.invariant_satisfied)
            for name, (tuples, shape) in env.items()
        ),
    )


def test_estimate_body_runs_once_per_node_and_env(count_db, monkeypatch):
    bodies = Counter()
    calls = [0]
    body = CardinalityEstimator._estimate
    estimate = CardinalityEstimator.estimate

    def counting_body(self, node, env):
        bodies[_body_key(node, env)] += 1
        return body(self, node, env)

    def counting_estimate(self, node, delta_env=None):
        calls[0] += 1
        return estimate(self, node, delta_env)

    monkeypatch.setattr(CardinalityEstimator, "_estimate", counting_body)
    monkeypatch.setattr(CardinalityEstimator, "estimate", counting_estimate)
    result = cost_controlled_optimizer(count_db.physical).optimize(
        fig3_query()
    )
    assert bodies and max(bodies.values()) == 1
    # 8,143 calls before the memo, on this database.
    assert calls[0] <= 2000
    assert result.plans_costed == 32


def test_estimates_are_shared_not_recomputed(count_db):
    model = DetailedCostModel(count_db.physical)
    plan = cost_controlled_optimizer(count_db.physical, model).optimize(
        fig3_query()
    ).plan
    first = model.estimator.estimate(plan)
    assert model.estimator.estimate(plan) is first
    # A fresh model recomputes, to the same numbers.
    again = DetailedCostModel(count_db.physical).estimator.estimate(plan)
    assert again is not first
    assert (again.tuples, again.pages, again.deltas) == (
        first.tuples,
        first.pages,
        first.deltas,
    )


def test_optimize_starts_with_an_empty_memo(count_db):
    model = DetailedCostModel(count_db.physical)
    optimizer = cost_controlled_optimizer(count_db.physical, model)
    plan = optimizer.optimize(fig3_query()).plan
    before = model.estimator.estimate(plan)
    optimizer.optimize(fig3_query())
    assert model.estimator.estimate(plan) is not before


# -- derived statistics follow the snapshot ---------------------------------


def test_derived_statistics_read_fresh_values_after_refresh(small_db):
    from repro.physical.clustering import ClusterTree, apply_clustering

    physical = small_db.physical
    old = physical.statistics
    fraction = old.clustered_fraction("Composer", "works")
    survivors = old.chain_survivors("Composer", "master")
    assert old.chain_survivors("Composer", "master") is survivors

    # Cluster works onto their composers' pages, and hang a new
    # composer below the deepest one: one more generation.
    apply_clustering(small_db.store, ClusterTree("Composer", {"works": None}))
    depths = old.chain_depths("Composer", "master")
    records = small_db.store.extent("Composer").records
    deepest = records[depths.index(max(depths))]
    small_db.store.insert(
        "Composer", {"name": "newcomer", "master": deepest.oid}
    )

    # The old snapshot keeps answering from its own collection...
    assert old.clustered_fraction("Composer", "works") == fraction
    assert old.chain_survivors("Composer", "master") == survivors

    # ...and a refreshed one reads the store again.
    fresh = physical.refresh_statistics()
    assert fresh.clustered_fraction("Composer", "works") > fraction
    fresh_survivors = fresh.chain_survivors("Composer", "master")
    assert len(fresh_survivors) == len(survivors) + 1
    assert fresh_survivors[-1] == 1

    old.refresh()
    assert old.clustered_fraction("Composer", "works") == (
        fresh.clustered_fraction("Composer", "works")
    )
    assert old.chain_survivors("Composer", "master") == fresh_survivors
