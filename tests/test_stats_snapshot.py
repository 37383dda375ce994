"""The statistics snapshot outlives queries, and a warm request does no
front-end work.

Statistics are an ANALYZE-style snapshot of the durable extents: serving
recursive queries (whose fixpoint temps come and go) must leave the
snapshot — and the fingerprints cached on it and on the schema — exactly
as a fresh collection would have them, while ``refresh_statistics`` and
index builds still move the right fingerprint.  A plan-cache hit must
not parse, hash or collect anything."""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

import repro.service.plan_cache as plan_cache
from repro.lang.canonical import CANONICAL_MEMO_SIZE, canonical_text
from repro.lang.parser import Parser
from repro.physical.stats import Statistics
from repro.service import QueryService, ServiceConfig
from repro.workloads import MusicConfig, generate_music_database
from repro.workloads.parts import PartsConfig, generate_parts_database

INFLUENCER = """view Influencer as
  select [master: x.master, disciple: x, gen: 1] from x in Composer
  union
  select [master: i.master, disciple: x, gen: i.gen + 1]
  from i in Influencer, x in Composer where i.disciple = x.master;
"""

FIG3 = INFLUENCER + (
    "select [name: i.disciple.name, gen: i.gen] from i in Influencer "
    'where i.master.works.instruments.name = "harpsichord" and i.gen >= 2;'
)

JOIN_PUSH = INFLUENCER + (
    "select [name: i.disciple.name] from i in Influencer, c in Composer "
    'where i.master = c.master and c.name = "Bach";'
)

PARTS_EXPLOSION = """
view Contained as
  select [root: p, part: s, depth: 1]
  from p in Part, s in Part where p.subparts = s
  union
  select [root: c.root, part: s, depth: c.depth + 1]
  from c in Contained, s in Part where c.part.subparts = s;
select [name: c.part.pname, depth: c.depth]
from c in Contained
where c.root.pname = "assembly_root_0" and c.depth >= 2;
"""


def music_db():
    db = generate_music_database(
        MusicConfig(lineages=3, generations=6, works_per_composer=2, seed=21)
    )
    db.build_paper_indexes()
    return db


def parts_db():
    return generate_parts_database(PartsConfig(assemblies=2, depth=3, fanout=3))


def durable_names(physical):
    return {info.name for info in physical.entities() if info.kind != "temp"}


def assert_snapshot_is_fresh(physical):
    stats = physical.statistics
    names = durable_names(physical)
    assert not any(info.kind == "temp" for info in physical.entities())
    assert set(stats._entities) == names
    fresh = Statistics(physical.store)
    for name in names:
        assert vars(stats.entity(name)) == vars(fresh.entity(name)), name
    assert plan_cache.stats_fingerprint(physical) == plan_cache._stats_digest(
        physical, fresh
    )
    assert plan_cache.schema_fingerprint(physical) == plan_cache._schema_digest(
        physical
    )


@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize(
    "make_db,texts",
    [(music_db, (FIG3, JOIN_PUSH)), (parts_db, (PARTS_EXPLOSION,))],
    ids=["music", "parts"],
)
def test_serving_leaves_the_snapshot_alone(make_db, texts, shards):
    db = make_db()
    physical = db.physical
    service = QueryService(db, ServiceConfig(shards=shards))
    before = physical.statistics
    stats_fp = plan_cache.stats_fingerprint(physical)
    schema_fp = plan_cache.schema_fingerprint(physical)
    for _ in range(2):
        for text in texts:
            response = service.handle({"op": "query", "text": text})
            assert response["ok"], response
            assert response["row_count"] > 0
    assert physical.statistics is before
    assert before.fingerprint == stats_fp
    assert physical.fingerprint == schema_fp
    assert_snapshot_is_fresh(physical)


def test_refresh_and_index_build_move_the_right_fingerprint():
    db = music_db()
    physical = db.physical
    service = QueryService(db, ServiceConfig())
    assert service.handle({"op": "query", "text": FIG3})["ok"]
    stats_fp = plan_cache.stats_fingerprint(physical)
    schema_fp = plan_cache.schema_fingerprint(physical)

    db.store.insert(
        "Composer",
        {"name": "newcomer", "birthyear": 1990, "master": None, "works": ()},
    )
    # Data changes are invisible until the store is re-analyzed...
    assert plan_cache.stats_fingerprint(physical) == stats_fp
    old = physical.statistics
    assert service.handle({"op": "refresh_stats"})["ok"]
    # ...and then move the statistics fingerprint only.
    assert physical.statistics is not old
    assert plan_cache.stats_fingerprint(physical) != stats_fp
    assert plan_cache.schema_fingerprint(physical) == schema_fp
    assert_snapshot_is_fresh(physical)

    stats_fp = plan_cache.stats_fingerprint(physical)
    physical.build_selection_index("Composer", "birthyear")
    assert plan_cache.schema_fingerprint(physical) != schema_fp
    assert plan_cache.stats_fingerprint(physical) == stats_fp
    assert_snapshot_is_fresh(physical)

    # Refreshing the snapshot in place drops its cached fingerprint too.
    db.store.insert(
        "Composer",
        {"name": "latecomer", "birthyear": 1991, "master": None, "works": ()},
    )
    physical.statistics.refresh()
    assert plan_cache.stats_fingerprint(physical) != stats_fp
    assert_snapshot_is_fresh(physical)


def test_durable_registration_drops_the_snapshot():
    db = music_db()
    physical = db.physical
    old = physical.statistics
    schema_fp = plan_cache.schema_fingerprint(physical)
    physical.register_extent("Sketches")
    assert physical.statistics is not old
    assert plan_cache.schema_fingerprint(physical) != schema_fp


def test_snapshot_built_while_a_temp_exists_ignores_it():
    db = music_db()
    physical = db.physical
    composers = [record.oid for record in db.store.extent("Composer").records]
    temp = physical.register_temp("Influencer")
    for oid in composers:
        db.store.insert(temp.name, {"master": oid, "disciple": oid, "gen": 1})
    during = physical.refresh_statistics()
    assert temp.name not in during._entities
    # Asked for, the temp is collected lazily; dropped, it is evicted.
    assert during.instances(temp.name) == len(composers)
    physical.drop_temp(temp.name)
    assert physical.statistics is during
    assert_snapshot_is_fresh(physical)


# -- the warm path --------------------------------------------------------


def perfbench_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def benchmark_universe():
    workloads = perfbench_workloads()
    db = workloads.build_database()
    names = {
        entity: [record.values["name"] for record in db.store.extent(entity).records]
        for entity in ("Composer", "Instrument")
    }
    return db, workloads.universe(names["Composer"], names["Instrument"])


class Counter:
    def __init__(self, monkeypatch):
        self.counts = {}
        self.monkeypatch = monkeypatch

    def wrap(self, owner, attribute, name):
        function = getattr(owner, attribute)
        self.counts[name] = 0

        def counted(*args, **kwargs):
            self.counts[name] += 1
            return function(*args, **kwargs)

        self.monkeypatch.setattr(owner, attribute, counted)


def test_warm_requests_do_no_front_end_work(benchmark_universe, monkeypatch):
    db, texts = benchmark_universe
    service = QueryService(db, ServiceConfig())
    rng = random.Random(13)
    chosen = (
        [group[0] for group in rng.sample(texts["point"], 12)]
        + [group[0] for group in rng.sample(texts["fig3"], 3)]
        + [group[0] for group in rng.sample(texts["join_push"], 2)]
    )
    for text in chosen:
        assert service.handle({"op": "query", "text": text})["ok"]

    counter = Counter(monkeypatch)
    counter.wrap(Parser, "parse_program", "parse")
    counter.wrap(Statistics, "__init__", "statistics")
    counter.wrap(plan_cache, "_digest", "digest")
    for _ in range(200):
        response = service.handle({"op": "query", "text": rng.choice(chosen)})
        assert response["ok"] and response["cache"] == "hit", response
    assert counter.counts == {"parse": 0, "statistics": 0, "digest": 0}


def test_memo_matches_the_uncached_function(benchmark_universe):
    _db, texts = benchmark_universe
    uncached = canonical_text.__wrapped__
    for kind in texts.values():
        for group in kind:
            for text in group:
                expected = uncached(text)
                assert canonical_text(text) == expected
                assert canonical_text(text) == expected


def test_memo_is_bounded():
    for index in range(5000):
        canonical_text(f"select [n: c.name] from c in Composer where c.birthyear = {index};")
    assert canonical_text.cache_info().currsize <= CANONICAL_MEMO_SIZE == 1024


def test_malformed_text_raises_every_time():
    from repro.errors import LanguageError

    before = canonical_text.cache_info()
    for _ in range(3):
        with pytest.raises(LanguageError):
            canonical_text("select [n: c.name] from c in")
    after = canonical_text.cache_info()
    assert after.misses == before.misses + 3
    assert after.hits == before.hits
