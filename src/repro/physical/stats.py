"""Physical statistics used by the cost model.

Provides the paper's schema parameters — ``|C|`` (pages), ``||C||``
(instances), index ``nblevels``/``nbleaves`` — plus the derived
quantities the basic-operation formulas need: attribute selectivities
(from distinct-value counts), reference fan-outs, clustering fractions
and recursion-depth estimates for fixpoint costing.

Statistics are collected by an offline pass over the store (using
``peek``, charging no simulated I/O), as a real system's ANALYZE would.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set, Tuple

from repro.physical.storage import ObjectStore, Oid

__all__ = ["EntityStatistics", "Statistics"]


MAX_TRACKED_VALUES = 512


class EntityStatistics:
    """Collected statistics for one atomic entity."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.pages = 0  # |C|
        self.instances = 0  # ||C||
        self.distinct: Dict[str, int] = {}
        self.non_null: Dict[str, int] = {}
        self.fanout: Dict[str, float] = {}  # avg refs per instance
        self.min_value: Dict[str, object] = {}
        self.max_value: Dict[str, object] = {}
        #: attr -> value -> extent frequency (capped; None when overflown)
        self.frequency: Dict[str, Optional[Dict[object, int]]] = {}
        #: attr -> value -> frequency weighted by how often the owning
        #: record is *referenced* from elsewhere — the distribution an
        #: implicit-join-expanded stream actually sees (a popular
        #: instrument shows up in many works even if the extent holds
        #: it once).
        self.weighted_frequency: Dict[str, Optional[Dict[object, float]]] = {}
        self.weighted_total: Dict[str, float] = {}

    def eq_selectivity(self, attribute: str) -> float:
        """Selectivity of ``attribute = constant`` (uniformity assumption)."""
        distinct = self.distinct.get(attribute, 0)
        if distinct <= 0 or self.instances == 0:
            return 1.0
        non_null_fraction = self.non_null.get(attribute, 0) / self.instances
        return non_null_fraction / distinct

    def range_selectivity(self, attribute: str) -> float:
        """Default selectivity of an inequality predicate (System R's 1/3)."""
        if self.instances == 0:
            return 1.0
        return 1.0 / 3.0

    def value_selectivity(self, attribute: str, value: object) -> Optional[float]:
        """Fraction of *extent* records with ``attribute = value``
        (None when frequencies were not trackable)."""
        frequencies = self.frequency.get(attribute)
        if frequencies is None or self.instances == 0:
            return None
        try:
            return frequencies.get(value, 0) / self.instances
        except TypeError:
            return None

    def weighted_value_selectivity(
        self, attribute: str, value: object
    ) -> Optional[float]:
        """Fraction of the reference-weighted stream with
        ``attribute = value`` — the right selectivity for a selection
        applied *after* an implicit join reached this entity."""
        frequencies = self.weighted_frequency.get(attribute)
        total = self.weighted_total.get(attribute, 0.0)
        if frequencies is None or total <= 0:
            return None
        try:
            return frequencies.get(value, 0.0) / total
        except TypeError:
            return None


class Statistics:
    """Whole-store statistics with recursion-depth estimation."""

    def __init__(self, store: ObjectStore) -> None:
        self._store = store
        self._entities: Dict[str, EntityStatistics] = {}
        # Values derived from the store, computed on first use and kept
        # until the next refresh, like the per-extent statistics.
        self._chain_depth_cache: Dict[Tuple[str, str], List[int]] = {}
        self._chain_survivor_cache: Dict[Tuple[str, str], List[int]] = {}
        self._clustered_cache: Dict[Tuple[str, str], float] = {}
        self.refresh()

    def refresh(self) -> None:
        """Recollect statistics for every extent."""
        self._entities.clear()
        self._chain_depth_cache.clear()
        self._chain_survivor_cache.clear()
        self._clustered_cache.clear()
        weights = self._reference_weights()
        for name in self._store.extent_names():
            self._entities[name] = self._collect(name, weights)

    def _reference_weights(self) -> Dict[Oid, int]:
        """How many times each object is referenced from any record."""
        weights: Dict[Oid, int] = {}
        for name in self._store.extent_names():
            for record in self._store.extent(name).records:
                for value in record.values.values():
                    if isinstance(value, Oid):
                        weights[value] = weights.get(value, 0) + 1
                    elif isinstance(value, (tuple, list)):
                        for element in value:
                            if isinstance(element, Oid):
                                weights[element] = weights.get(element, 0) + 1
        return weights

    def _collect(
        self, name: str, weights: Optional[Dict[Oid, int]] = None
    ) -> EntityStatistics:
        extent = self._store.extent(name)
        stats = EntityStatistics(name)
        stats.instances = len(extent)
        stats.pages = max(1, extent.page_count()) if len(extent) else 0
        distinct: Dict[str, Set[object]] = {}
        ref_counts: Dict[str, int] = {}
        weights = weights or {}
        for record in extent.records:
            record_weight = float(weights.get(record.oid, 0))
            for attribute, value in record.values.items():
                if value is None:
                    continue
                stats.non_null[attribute] = stats.non_null.get(attribute, 0) + 1
                if isinstance(value, (tuple, list)):
                    ref_counts[attribute] = ref_counts.get(attribute, 0) + len(value)
                    continue
                if isinstance(value, Oid):
                    ref_counts[attribute] = ref_counts.get(attribute, 0) + 1
                distinct.setdefault(attribute, set()).add(value)
                self._note_frequency(stats, attribute, value, record_weight)
                current_min = stats.min_value.get(attribute)
                current_max = stats.max_value.get(attribute)
                try:
                    if current_min is None or value < current_min:  # type: ignore[operator]
                        stats.min_value[attribute] = value
                    if current_max is None or value > current_max:  # type: ignore[operator]
                        stats.max_value[attribute] = value
                except TypeError:
                    pass
        for attribute, values in distinct.items():
            stats.distinct[attribute] = len(values)
        if stats.instances:
            for attribute, count in ref_counts.items():
                stats.fanout[attribute] = count / stats.instances
        return stats

    def _note_frequency(
        self,
        stats: EntityStatistics,
        attribute: str,
        value: object,
        record_weight: float,
    ) -> None:
        if isinstance(value, Oid):
            return  # reference identities are not selection constants
        frequencies = stats.frequency.setdefault(attribute, {})
        if frequencies is not None:
            try:
                frequencies[value] = frequencies.get(value, 0) + 1
            except TypeError:
                stats.frequency[attribute] = None
                frequencies = None
            if frequencies is not None and len(frequencies) > MAX_TRACKED_VALUES:
                stats.frequency[attribute] = None
        weighted = stats.weighted_frequency.setdefault(attribute, {})
        if weighted is not None:
            try:
                weighted[value] = weighted.get(value, 0.0) + record_weight
            except TypeError:
                stats.weighted_frequency[attribute] = None
                weighted = None
            if weighted is not None and len(weighted) > MAX_TRACKED_VALUES:
                stats.weighted_frequency[attribute] = None
        stats.weighted_total[attribute] = (
            stats.weighted_total.get(attribute, 0.0) + record_weight
        )

    # -- lookups ---------------------------------------------------------------

    def entity(self, name: str) -> EntityStatistics:
        if name not in self._entities:
            # Entity created after the last refresh (e.g. a temp file):
            # collect it lazily.
            self._entities[name] = self._collect(name)
        return self._entities[name]

    def pages(self, name: str) -> int:
        """``|C|`` — pages the entity occupies (at least 1 when non-empty)."""
        return self.entity(name).pages

    def instances(self, name: str) -> int:
        """``||C||`` — instance count."""
        return self.entity(name).instances

    def fanout(self, name: str, attribute: str) -> float:
        """Average number of sub-objects referenced through attribute."""
        return self.entity(name).fanout.get(attribute, 1.0)

    def eq_selectivity(self, name: str, attribute: str) -> float:
        return self.entity(name).eq_selectivity(attribute)

    def clustered_fraction(self, owner: str, attribute: str) -> float:
        """Fraction of ``owner.attribute`` references whose target sits on
        the owner's own page — the clustering payoff ``access_cost(Ci, Cj)``
        depends on (Section 3.2)."""
        key = (owner, attribute)
        if key not in self._clustered_cache:
            self._clustered_cache[key] = self._compute_clustered_fraction(
                owner, attribute
            )
        return self._clustered_cache[key]

    def _compute_clustered_fraction(self, owner: str, attribute: str) -> float:
        extent = self._store.extent(owner)
        total = 0
        colocated = 0
        for record in extent.records:
            value = record.values.get(attribute)
            oids: List[Oid]
            if isinstance(value, Oid):
                oids = [value]
            elif isinstance(value, (tuple, list)):
                oids = [v for v in value if isinstance(v, Oid)]
            else:
                continue
            for oid in oids:
                total += 1
                try:
                    target = self._store.peek(oid)
                except Exception:
                    continue
                if target.page_id == record.page_id:
                    colocated += 1
        if total == 0:
            return 0.0
        return colocated / total

    # -- recursion statistics -----------------------------------------------------

    def chain_depths(self, entity: str, attribute: str) -> List[int]:
        """Per-record chain length along a self-referencing attribute.

        The depth of a record is the longest path following
        ``attribute`` references before reaching a null (or a cycle
        back-edge, which is treated as a chain end)."""
        key = (entity, attribute)
        cached = self._chain_depth_cache.get(key)
        if cached is not None:
            return cached
        depths = self._compute_chain_depths(entity, attribute)
        self._chain_depth_cache[key] = depths
        return depths

    def chain_survivors(self, entity: str, attribute: str) -> List[int]:
        """``survivors[g]`` = number of records whose chain along
        ``attribute`` has length > ``g`` — the exact size of the
        semi-naive delta at iteration ``g+1`` of a transitive closure
        over that attribute (iteration 0 produces one tuple per record
        with a non-null reference).  The list is shared: do not mutate it."""
        key = (entity, attribute)
        if key not in self._chain_survivor_cache:
            depths = self.chain_depths(entity, attribute)
            self._chain_survivor_cache[key] = [
                sum(1 for depth in depths if depth >= g)
                for g in range(1, max(depths, default=0) + 1)
            ]
        return self._chain_survivor_cache[key]

    def chain_depth(self, entity: str, attribute: str) -> Tuple[int, float]:
        """(max, mean) length of reference chains along a self-referencing
        attribute — the estimate for the number of semi-naive iterations
        of a transitive closure over that attribute."""
        depths = self.chain_depths(entity, attribute)
        if depths:
            return (max(depths), sum(depths) / len(depths))
        return (0, 0.0)

    def _compute_chain_depths(self, entity: str, attribute: str) -> List[int]:
        extent = self._store.extent(entity)
        depth_of: Dict[Oid, int] = {}

        def depth(oid: Oid, trail: Set[Oid]) -> int:
            if oid in depth_of:
                return depth_of[oid]
            if oid in trail:
                return 0  # cycle guard: treat back-edges as chain ends
            trail.add(oid)
            record = self._store.peek(oid)
            value = record.values.get(attribute)
            result = 0
            if isinstance(value, Oid):
                result = 1 + depth(value, trail)
            elif isinstance(value, (tuple, list)):
                child_depths = [
                    1 + depth(v, trail) for v in value if isinstance(v, Oid)
                ]
                result = max(child_depths) if child_depths else 0
            trail.discard(oid)
            depth_of[oid] = result
            return result

        return [depth(record.oid, set()) for record in extent.records]

    def estimated_fixpoint_iterations(self, entity: str, attribute: str) -> int:
        """Estimated semi-naive iteration count ``n`` of Figure 5's Fix row."""
        max_depth, _mean = self.chain_depth(entity, attribute)
        return max(1, max_depth)
