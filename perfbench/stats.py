"""Pure helpers for the served-request benchmark: percentiles, request
outcomes and per-layer self times.  Nothing here imports the program
under test, so the self-tests run without it."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

#: A percentile is reported only when at least this many samples lie
#: beyond it, so a tail figure never rests on a handful of requests.
MIN_BEYOND = 10

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


class InsufficientSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile: the smallest measured value with at
    least ``fraction`` of the sample at or below it.  Raises
    :class:`InsufficientSamples` unless MIN_BEYOND samples lie beyond."""
    count = len(values)
    rank = max(1, math.ceil(fraction * count - 1e-9))
    if count - rank < MIN_BEYOND:
        raise InsufficientSamples(
            f"p{fraction * 100:g} of {count} samples has {count - rank} "
            f"beyond it; at least {MIN_BEYOND} are required"
        )
    return sorted(values)[rank - 1]


@dataclass
class Outcome:
    """One request as the load generator saw it.

    ``due`` is when the schedule wanted the request sent, ``sent`` when
    it was written to the socket and ``done`` when its response line
    arrived (all ``perf_counter`` seconds).  A closed loop has
    ``due == sent``."""

    index: int
    kind: str
    text: Optional[str]
    due: float
    sent: float
    done: Optional[float] = None
    response: Optional[bytes] = None
    ok: bool = False

    @property
    def latency(self) -> float:
        """Seconds from when the request was due to its response, so a
        stall that delays later sends is charged to those requests."""
        return self.done - self.due


def error_rate(outcomes: Iterable[Outcome]) -> float:
    """Failed, refused, unanswered and wrong requests over attempts."""
    outcomes = list(outcomes)
    if not outcomes:
        raise ValueError("no requests were attempted")
    return sum(not outcome.ok for outcome in outcomes) / len(outcomes)


def latencies_ms(outcomes: Iterable[Outcome], kinds: Sequence[str]) -> List[float]:
    """Latencies of the successful requests of the given kinds."""
    return [
        outcome.latency * 1000.0
        for outcome in outcomes
        if outcome.ok and outcome.kind in kinds
    ]


def self_times(spans: Sequence[Sequence]) -> Dict[str, float]:
    """Self time per span name, in the spans' time unit.

    ``spans`` are ``(name, start, end, parent)`` with ``parent`` the
    index of the enclosing span or -1.  A span's self time is its
    duration minus the durations of its direct children; children of
    one span never overlap because one thread records them in order."""
    child_time = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: Dict[str, float] = {}
    for index, (name, start, end, _parent) in enumerate(spans):
        totals[name] = totals.get(name, 0) + (end - start) - child_time[index]
    return totals


def span_counts(spans: Sequence[Sequence]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for span in spans:
        counts[span[0]] = counts.get(span[0], 0) + 1
    return counts


def span_total(spans: Sequence[Sequence], name: str) -> float:
    """Summed duration of the outermost spans called ``name``."""
    total = 0
    for span_name, start, end, parent in spans:
        if span_name != name:
            continue
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            total += end - start
    return total


def check_metric_names(names: Iterable[str]) -> None:
    for name in names:
        if not METRIC_NAME.fullmatch(name) or len(name) > 64:
            raise ValueError(f"bad metric name {name!r}")
