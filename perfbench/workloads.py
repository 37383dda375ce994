"""The benchmark's database recipe, query texts and seeded traffic.

Every workload runs against the same seeded music database (8 lineages
x 8 generations, 2 works per composer).  The workload seed chooses
which texts a run uses, the order they are sent in and, for the open
loop, when each is due; the server only ever sees the generated
requests."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

DATABASE = {"lineages": 8, "generations": 8, "works_per_composer": 2, "seed": 1992}
#: Influencer generations run 1..7 on 8-generation lineages.
THRESHOLDS = range(1, 7)

VIEW = """view Influencer as
  select [master: x.master, disciple: x, gen: 1] from x in Composer
  union
  select [master: i.master, disciple: x, gen: i.gen + 1]
  from i in Influencer, x in Composer where i.disciple = x.master;
"""

POINT = "point"
FIG3 = "fig3"
JOIN_PUSH = "join_push"
REFRESH = "refresh_stats"
QUERY_KINDS = (POINT, FIG3, JOIN_PUSH)
RECURSIVE = (FIG3, JOIN_PUSH)

#: Requests per run below which a latency tail is not reported
#: (ten samples beyond p99 and p90 respectively).
MIN_POINT = 1000
MIN_RECURSIVE = 100


def build_database(buffer_pages: int = 256):
    """The benchmark database with the paper's indexes built."""
    from repro.workloads import MusicConfig, generate_music_database

    db = generate_music_database(MusicConfig(buffer_pages=buffer_pages, **DATABASE))
    db.build_paper_indexes()
    return db


#: Output shapes of a point selection; with four per composer, the
#: point texts alone outnumber the 64-entry plan cache four times.
POINT_SHAPES = (
    "[name: c.name, born: c.birthyear]",
    "[name: c.name]",
    "[born: c.birthyear]",
    "[composer: c.name, master: c.master.name]",
)


def point_text(name: str, shape: int = 0) -> str:
    return f'select {POINT_SHAPES[shape]} from c in Composer where c.name = "{name}";'


def fig3_text(instrument: str, threshold: int) -> str:
    return VIEW + (
        "select [name: i.disciple.name, gen: i.gen] from i in Influencer "
        f'where i.master.works.instruments.name = "{instrument}" '
        f"and i.gen >= {threshold};"
    )


def join_push_text(name: str) -> str:
    return VIEW + (
        "select [name: i.disciple.name] from i in Influencer, c in Composer "
        f'where i.master = c.master and c.name = "{name}";'
    )


def universe(composers: Sequence[str], instruments: Sequence[str]) -> Dict[str, List[List[str]]]:
    """Every text any workload can draw, by kind, in groups that differ
    in what the query touches: one group per composer or instrument."""
    return {
        POINT: [[point_text(n, s) for s in range(len(POINT_SHAPES))] for n in composers],
        FIG3: [[fig3_text(i, t) for t in THRESHOLDS] for i in instruments],
        JOIN_PUSH: [[join_push_text(n)] for n in composers],
    }


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``closed``: one client sends its next request when the previous
    #: one is answered.  ``open``: seeded Poisson arrivals at ``rate``
    #: per second over two connections, whatever the server does.
    loop: str
    buffer_pages: int
    io_latency: float
    #: Send every distinct text once before timing, so the plan cache
    #: is warm.
    prime: bool
    #: Requests of each kind in every block of 100; each block is
    #: shuffled, so the mix is exact at every scale.
    block: Tuple[Tuple[str, int], ...]
    #: Per kind: how many distinct texts a run draws (None for all) and
    #: the Zipf exponent of the draw among them (0 = uniform).
    pool: Tuple[Tuple[str, object, float], ...]
    rate: float = 0.0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "warm-mix",
            "plan-cache hit path: lang, plan_cache, physical.stats, obs and protocol "
            "self times move point_p50_ms and throughput_qps; engine moves "
            "recursive_p50_ms; the optimizer is idle",
            loop="closed",
            buffer_pages=256,
            io_latency=0.0,
            prime=True,
            # fig3 outnumbers join-push, so recursive p50 and p90 both
            # fall among fig3 requests rather than between the two modes.
            block=((POINT, 90), (FIG3, 7), (JOIN_PUSH, 3)),
            pool=((POINT, 24, 0.0), (FIG3, 18, 0.0), (JOIN_PUSH, 6, 0.0)),
        ),
        Workload(
            "cold-plan",
            "skewed draw over more texts than the 64-entry plan cache: core and cost "
            "self times and plan_cache.hit_ratio move recursive_p50_ms and "
            "throughput_qps",
            loop="closed",
            buffer_pages=256,
            io_latency=0.0,
            prime=False,
            # Over 1000 points a run; drawn uniformly from 256 texts they
            # mostly miss, so point p50 sits well inside the miss mode.
            block=((POINT, 93), (FIG3, 6), (JOIN_PUSH, 1)),
            pool=((POINT, None, 0.0), (FIG3, None, 0.3), (JOIN_PUSH, 24, 0.3)),
        ),
        Workload(
            "io-concurrent",
            "open loop on 2 connections, 4-page buffer pool, 0.5 ms reads: lock and "
            "admission waits move point_p99_ms; buffer misses and engine move "
            "recursive_p50_ms",
            loop="open",
            buffer_pages=4,
            io_latency=0.0005,
            prime=True,
            block=((POINT, 89), (JOIN_PUSH, 10), (REFRESH, 1)),
            # 63 distinct texts, so all stay in the 64-entry plan cache;
            # join-push cost varies widely by composer, so a run draws
            # from nearly all of them.
            pool=((POINT, 8, 0.0), (JOIN_PUSH, 55, 0.0)),
            # About a third of serial capacity: join-push then holds the
            # store lock ~15% of the time, so point p50 is unblocked and
            # point p99 blocked, each away from the edge between them.
            rate=90.0,
        ),
    )
}


@dataclass
class Plan:
    """One run's generated traffic; a request is ``(kind, text)``, with
    ``text`` None for refresh_stats."""

    texts: Dict[str, List[str]]
    #: Untimed requests sent first, so caches reach their steady state.
    warmup: List[Tuple[str, object]]
    #: The timed requests in send order.  A closed loop sends them
    #: until its time is up; an open loop sends each at its due time.
    requests: List[Tuple[str, object]]
    #: Due times in seconds from the start of the timed window (open
    #: loop only).
    due: List[float]


def make_plan(workload: Workload, texts: Dict[str, List[str]], seed: int, seconds: float) -> Plan:
    rng = random.Random(f"{workload.name}/{seed}")
    chosen: Dict[str, List[str]] = {}
    weights: Dict[str, List[float]] = {}
    for kind, size, skew in workload.pool:
        pool = _round_robin(texts[kind], rng)
        chosen[kind] = pool if size is None else pool[:size]
        weights[kind] = [1.0 / (rank + 1) ** skew for rank in range(len(chosen[kind]))]

    def draw_block() -> List[Tuple[str, object]]:
        block: List[Tuple[str, object]] = []
        for kind, count in workload.block:
            for _ in range(count):
                text = None if kind == REFRESH else rng.choices(chosen[kind], weights[kind])[0]
                block.append((kind, text))
        rng.shuffle(block)
        return block

    warmup = draw_block() + draw_block()
    requests: List[Tuple[str, object]] = []
    due: List[float] = []
    if workload.loop == "open":
        clock = 0.0
        while clock < seconds or not _enough(requests):
            for request in draw_block():
                clock += rng.expovariate(workload.rate)
                requests.append(request)
                due.append(clock)
    else:
        while len(requests) < 50_000:
            requests.extend(draw_block())
    return Plan(chosen, warmup, requests, due)


def _round_robin(groups: Sequence[Sequence[str]], rng: random.Random) -> List[str]:
    """All texts in a seeded order that takes one from every group
    before a second from any, so a run's first picks (its distinct
    texts, or its most popular ones) cover every group whatever the
    seed."""
    groups = [rng.sample(group, len(group)) for group in groups]
    rng.shuffle(groups)
    depth = max(map(len, groups))
    return [group[i] for i in range(depth) for group in groups if i < len(group)]


def _enough(requests: Sequence[Tuple[str, object]]) -> bool:
    points = sum(kind == POINT for kind, _ in requests)
    recursive = sum(kind in RECURSIVE for kind, _ in requests)
    return points >= MIN_POINT and recursive >= MIN_RECURSIVE
