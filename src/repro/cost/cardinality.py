"""Cardinality and selectivity estimation for processing trees.

Feeds the cost model with the paper's ``nbtuples``/``nbpages``
functions: per-node output cardinalities derived from entity
statistics, predicate selectivities (uniformity assumption, System R's
1/3 for inequalities), reference fan-outs for implicit joins, and — for
fixpoints — per-iteration delta sizes derived from chain-depth
statistics of the attribute the recursion advances along.

Tuple-valued bindings (produced by ``Proj`` and flowing out of ``Fix``)
carry a :class:`TupleShape` mapping each field to the class its values
come from, so predicates applied *after* a recursion can still resolve
selectivities and fan-outs (e.g. ``i.master.works.instruments.name``
knows ``master`` holds Composers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import CostModelError
from repro.cost.params import CostParameters
from repro.physical.schema import PhysicalSchema
from repro.plans.nodes import (
    EJ,
    IJ,
    PIJ,
    EntityLeaf,
    Fix,
    Materialize,
    PlanNode,
    Proj,
    RecLeaf,
    Sel,
    TempLeaf,
    UnionOp,
)
from repro.querygraph.predicates import (
    And,
    Comparison,
    Const,
    Expr,
    FunctionApp,
    Not,
    Or,
    PathRef,
    Predicate,
    TruePredicate,
)

__all__ = ["TupleShape", "VarInfo", "NodeEstimate", "CardinalityEstimator"]

DEFAULT_EQ_SELECTIVITY = 0.1
DEFAULT_JOIN_SELECTIVITY = 0.1
RANGE_SELECTIVITY = 1.0 / 3.0


@dataclass
class TupleShape:
    """Shape of tuple-valued bindings: field name -> class/entity name
    (None for atomic or unknown fields).

    ``invariant_satisfied`` lists fields whose values are known to
    already satisfy any selection applied to them inside a fixpoint
    body: when a filter on an *invariant* recursion field has been
    pushed through the recursion, every delta tuple of iteration i ≥ 1
    descends from a tuple that passed the same filter, so re-applying
    it filters nothing (selectivity 1) — it only costs evaluations.
    The cost model prices those evaluations; the cardinality model must
    not double-shrink the frontier."""

    fields: Dict[str, Optional[str]] = field(default_factory=dict)
    invariant_satisfied: frozenset = frozenset()


#: What a variable is bound to: the name of a physical entity (records),
#: a TupleShape (temp tuples), or None (unknown).
VarInfo = Union[str, TupleShape, None]


@dataclass
class NodeEstimate:
    """Estimated output of one plan node.

    ``stream_vars`` marks variables bound by dereferencing references
    (IJ/PIJ outputs): a selection on such a variable sees the
    *reference-weighted* value distribution, not the extent's — e.g.
    a popular instrument occurs in many (work, instrument) pairs even
    though the extent stores it once.
    """

    tuples: float
    pages: float
    varmap: Dict[str, VarInfo]
    #: For Fix nodes: the estimated per-iteration delta sizes.
    deltas: Optional[List[float]] = None
    stream_vars: frozenset = frozenset()


def _env_key(env: Dict[str, Tuple[float, TupleShape]]) -> tuple:
    """Hashable view of a ``delta_env``: everything an estimate reads
    from it (each name's delta size and tuple shape)."""
    return tuple(
        (name, tuples, tuple(shape.fields.items()), shape.invariant_satisfied)
        for name, (tuples, shape) in env.items()
    )


class CardinalityEstimator:
    """Estimates node output cardinalities over a physical schema."""

    def __init__(
        self, physical: PhysicalSchema, params: Optional[CostParameters] = None
    ) -> None:
        self.physical = physical
        self.params = params or CostParameters()
        self.stats = physical.statistics
        #: Estimates made so far: ``(id(node), env key)`` -> (node,
        #: estimate).  Holding the node keeps its ``id`` from being
        #: reused by another node while the entry lives.
        self._memo: Dict[Tuple[int, tuple], Tuple[PlanNode, NodeEstimate]] = {}

    # -- entry point ------------------------------------------------------------

    def estimate(
        self,
        node: PlanNode,
        delta_env: Optional[Dict[str, Tuple[float, TupleShape]]] = None,
    ) -> NodeEstimate:
        """Estimate a node's output cardinality, page count and
        variable bindings; ``delta_env`` supplies RecLeaf sizes when
        estimating inside a fixpoint body.

        Each ``(node, delta_env)`` pair is estimated once per estimator
        (see :meth:`forget`): later calls return the same
        :class:`NodeEstimate`, which callers must treat as read-only.
        The key is the node's identity, not its canonical fingerprint:
        ``varmap`` is keyed by the node's own variable names, so two
        alpha-equivalent subtrees do not share an estimate."""
        env = delta_env or {}
        key = (id(node), _env_key(env))
        hit = self._memo.get(key)
        if hit is not None and hit[0] is node:
            return hit[1]
        result = self._estimate(node, env)
        self._memo[key] = (node, result)
        return result

    def forget(self) -> None:
        """Drop every memoized estimate (and the plan nodes it holds)."""
        self._memo.clear()

    def _estimate(
        self, node: PlanNode, env: Dict[str, Tuple[float, TupleShape]]
    ) -> NodeEstimate:
        if isinstance(node, (EntityLeaf, TempLeaf)):
            return self._estimate_leaf(node)
        if isinstance(node, RecLeaf):
            if node.name not in env:
                raise CostModelError(
                    f"recursion reference {node.name!r} estimated outside "
                    "its fixpoint"
                )
            tuples, shape = env[node.name]
            return NodeEstimate(
                tuples, self._tuple_pages(tuples), {node.var: shape}
            )
        if isinstance(node, Sel):
            child = self.estimate(node.child, env)
            selectivity = self.predicate_selectivity(
                node.predicate, child.varmap, child.stream_vars
            )
            tuples = child.tuples * selectivity
            return NodeEstimate(
                tuples,
                self._tuple_pages(tuples),
                child.varmap,
                stream_vars=child.stream_vars,
            )
        if isinstance(node, Proj):
            child = self.estimate(node.child, env)
            shape = self._project_shape(node, child.varmap)
            # After a projection the bindings are keyed by field names;
            # each field acts as a variable bound to (records of) the
            # class its expression resolves to.
            varmap: Dict[str, VarInfo] = dict(shape.fields)
            return NodeEstimate(
                child.tuples, self._tuple_pages(child.tuples), varmap
            )
        if isinstance(node, IJ):
            child = self.estimate(node.child, env)
            fanout = self.path_fanout(node.source, child.varmap)
            tuples = child.tuples * fanout
            varmap = dict(child.varmap)
            varmap[node.out_var] = node.target.entity
            return NodeEstimate(
                tuples,
                self._tuple_pages(tuples),
                varmap,
                stream_vars=child.stream_vars | {node.out_var},
            )
        if isinstance(node, PIJ):
            return self._estimate_pij(node, env)
        if isinstance(node, EJ):
            return self._estimate_ej(node, env)
        if isinstance(node, UnionOp):
            left = self.estimate(node.left, env)
            right = self.estimate(node.right, env)
            tuples = left.tuples + right.tuples
            varmap = {
                key: left.varmap.get(key)
                for key in set(left.varmap) & set(right.varmap)
            }
            if not varmap:
                varmap = left.varmap
            return NodeEstimate(
                tuples,
                self._tuple_pages(tuples),
                varmap,
                stream_vars=left.stream_vars & right.stream_vars,
            )
        if isinstance(node, Fix):
            return self.estimate_fix(node, env)
        if isinstance(node, Materialize):
            child = self.estimate(node.child, env)
            shape = TupleShape(
                {
                    name: info if isinstance(info, str) else None
                    for name, info in child.varmap.items()
                }
            )
            return NodeEstimate(
                child.tuples,
                self._tuple_pages(child.tuples),
                {node.out_var: shape},
            )
        raise CostModelError(f"cannot estimate node {type(node).__name__}")

    # -- leaves -------------------------------------------------------------------

    def _estimate_leaf(self, node) -> NodeEstimate:
        if self.physical.has_entity(node.entity):
            tuples = float(self.stats.instances(node.entity))
            pages = float(max(1, self.stats.pages(node.entity)))
        else:
            tuples, pages = 0.0, 0.0
        info: VarInfo = node.entity
        return NodeEstimate(tuples, pages, {node.var: info})

    def _tuple_pages(self, tuples: float) -> float:
        return max(1.0, tuples / self.params.temp_records_per_page)

    # -- Proj shape ------------------------------------------------------------------

    def _project_shape(self, node: Proj, varmap: Dict[str, VarInfo]) -> TupleShape:
        shape = TupleShape()
        for output_field in node.fields.fields:
            shape.fields[output_field.name] = self._expr_entity(
                output_field.expr, varmap
            )
        return shape

    def _expr_entity(
        self, expr: Expr, varmap: Dict[str, VarInfo]
    ) -> Optional[str]:
        if not isinstance(expr, PathRef):
            return None
        resolved = self._resolve_path(expr, varmap)
        if resolved is None:
            return None
        terminal_entity, terminal_attr, _fanout = resolved
        if terminal_attr is None:
            return terminal_entity
        conceptual = self._conceptual_of(terminal_entity)
        if conceptual is None or self.physical.catalog is None:
            return None
        try:
            attribute = self.physical.catalog.attribute(conceptual, terminal_attr)
        except Exception:
            return None
        referenced = attribute.referenced_class()
        if referenced is None:
            return None
        try:
            return self.physical.primary_entity(referenced).name
        except Exception:
            return None

    # -- path resolution ----------------------------------------------------------------

    def _conceptual_of(self, entity: Optional[str]) -> Optional[str]:
        if entity is None or not self.physical.has_entity(entity):
            return None
        return self.physical.entity(entity).conceptual_name

    def _entity_for_class(self, class_name: str) -> Optional[str]:
        try:
            return self.physical.primary_entity(class_name).name
        except Exception:
            return None

    def _resolve_path(
        self, path: PathRef, varmap: Dict[str, VarInfo]
    ) -> Optional[Tuple[Optional[str], Optional[str], float]]:
        """Resolve a path to (entity_of_final_hop, final_attr, fanout).

        ``fanout`` is the product of reference fan-outs along the path
        (>1 when the path crosses collections); ``final_attr`` is None
        when the path ends on the variable itself.
        """
        info = varmap.get(path.var)
        if isinstance(info, TupleShape):
            if not path.attrs:
                return (None, None, 1.0)
            first, rest = path.attrs[0], path.attrs[1:]
            entity = info.fields.get(first)
            if entity is None:
                return (None, first if not rest else None, 1.0)
            if not rest:
                return (entity, None, 1.0)
            return self._walk_entity_path(entity, rest, 1.0)
        if isinstance(info, str):
            if not path.attrs:
                return (info, None, 1.0)
            return self._walk_entity_path(info, path.attrs, 1.0)
        return None

    def _walk_entity_path(
        self, entity: str, attrs: Tuple[str, ...], fanout: float
    ) -> Optional[Tuple[Optional[str], Optional[str], float]]:
        current = entity
        for position, attr in enumerate(attrs):
            is_last = position == len(attrs) - 1
            conceptual = self._conceptual_of(current)
            if conceptual is None or self.physical.catalog is None:
                return (current, attr if is_last else None, fanout)
            catalog = self.physical.catalog
            try:
                attribute = catalog.attribute(conceptual, attr)
            except Exception:
                # Possibly a method (computed attribute).
                return (current, attr, fanout)
            referenced = attribute.referenced_class()
            if referenced is None:
                if not is_last:
                    return None
                return (current, attr, fanout)
            # A single-valued reference may have fan-out < 1 (null
            # references drop bindings — inner-join semantics).
            fanout *= max(0.0, self.stats.fanout(current, attr))
            next_entity = self._entity_for_class(referenced)
            if next_entity is None:
                return (current, attr, fanout)
            if is_last:
                return (next_entity, None, fanout)
            current = next_entity
        return (current, None, fanout)

    def path_fanout(self, path: PathRef, varmap: Dict[str, VarInfo]) -> float:
        """Expected number of values reached per input binding.

        For the final hop: the final attribute's own fan-out when it is
        a reference attribute; non-null fraction otherwise."""
        resolved = self._resolve_path(path, varmap)
        if resolved is None:
            return 1.0
        entity, final_attr, fanout = resolved
        if final_attr is not None and entity is not None:
            if self.physical.has_entity(entity):
                final = self.stats.fanout(entity, final_attr)
                entity_stats = self.stats.entity(entity)
                if final_attr in entity_stats.fanout:
                    fanout *= max(0.0, final)
                elif entity_stats.instances:
                    non_null = entity_stats.non_null.get(final_attr, 0)
                    fanout *= non_null / entity_stats.instances
        return max(fanout, 0.0)

    # -- selectivity ----------------------------------------------------------------------

    def predicate_selectivity(
        self,
        predicate: Predicate,
        varmap: Dict[str, VarInfo],
        stream_vars: frozenset = frozenset(),
    ) -> float:
        """Fraction of bindings satisfying ``predicate`` (uniformity
        plus tracked value frequencies; see the module docstring)."""
        if isinstance(predicate, TruePredicate):
            return 1.0
        if isinstance(predicate, And):
            product = 1.0
            for part in predicate.parts:
                product *= self.predicate_selectivity(part, varmap, stream_vars)
            return product
        if isinstance(predicate, Or):
            miss = 1.0
            for part in predicate.parts:
                miss *= 1.0 - self.predicate_selectivity(part, varmap, stream_vars)
            return 1.0 - miss
        if isinstance(predicate, Not):
            return 1.0 - self.predicate_selectivity(
                predicate.part, varmap, stream_vars
            )
        if isinstance(predicate, Comparison):
            return self._comparison_selectivity(predicate, varmap, stream_vars)
        return DEFAULT_EQ_SELECTIVITY

    def _comparison_selectivity(
        self,
        comparison: Comparison,
        varmap: Dict[str, VarInfo],
        stream_vars: frozenset = frozenset(),
    ) -> float:
        left_path = comparison.left if isinstance(comparison.left, PathRef) else None
        right_path = (
            comparison.right if isinstance(comparison.right, PathRef) else None
        )
        left_const = (
            comparison.left if isinstance(comparison.left, Const) else None
        )
        right_const = (
            comparison.right if isinstance(comparison.right, Const) else None
        )
        if comparison.op in ("<", "<=", ">", ">="):
            return RANGE_SELECTIVITY
        if comparison.op == "!=":
            if left_path is not None and right_const is not None:
                return 1.0 - self._eq_selectivity_of(
                    left_path, varmap, stream_vars, right_const.value
                )
            return 1.0 - DEFAULT_EQ_SELECTIVITY
        # Equality.
        if left_path is not None and right_const is not None:
            return self._eq_selectivity_of(
                left_path, varmap, stream_vars, right_const.value
            )
        if right_path is not None and left_const is not None:
            return self._eq_selectivity_of(
                right_path, varmap, stream_vars, left_const.value
            )
        if left_path is not None and right_path is not None:
            return self._join_selectivity(left_path, right_path, varmap)
        return DEFAULT_EQ_SELECTIVITY

    def _eq_selectivity_of(
        self,
        path: PathRef,
        varmap: Dict[str, VarInfo],
        stream_vars: frozenset = frozenset(),
        value: object = None,
    ) -> float:
        info = varmap.get(path.var)
        if (
            isinstance(info, TupleShape)
            and path.attrs
            and path.attrs[0] in info.invariant_satisfied
        ):
            return 1.0
        resolved = self._resolve_path(path, varmap)
        if resolved is None:
            return DEFAULT_EQ_SELECTIVITY
        entity, final_attr, fanout = resolved
        if entity is None or final_attr is None:
            return DEFAULT_EQ_SELECTIVITY
        if not self.physical.has_entity(entity):
            return DEFAULT_EQ_SELECTIVITY
        base = self._value_selectivity(
            entity,
            final_attr,
            value,
            # The distribution seen by the predicate is reference-
            # weighted whenever the records were reached by
            # dereferencing (an IJ/PIJ output or a multi-hop path),
            # rather than by scanning the extent.
            weighted=path.var in stream_vars or fanout != 1.0,
        )
        if fanout > 1.0:
            # Existential semantics over fanout reached values.
            return 1.0 - (1.0 - min(1.0, base)) ** fanout
        return base

    def _value_selectivity(
        self, entity: str, attribute: str, value: object, weighted: bool
    ) -> float:
        entity_stats = self.stats.entity(entity)
        if value is not None:
            if weighted:
                estimate = entity_stats.weighted_value_selectivity(
                    attribute, value
                )
                if estimate is not None:
                    return estimate
            estimate = entity_stats.value_selectivity(attribute, value)
            if estimate is not None:
                return estimate
        return entity_stats.eq_selectivity(attribute)

    def _join_selectivity(
        self, left: PathRef, right: PathRef, varmap: Dict[str, VarInfo]
    ) -> float:
        distincts: List[float] = []
        for path in (left, right):
            resolved = self._resolve_path(path, varmap)
            if resolved is None:
                continue
            entity, final_attr, _fanout = resolved
            if entity is None or not self.physical.has_entity(entity):
                continue
            entity_stats = self.stats.entity(entity)
            if final_attr is None:
                distincts.append(float(max(1, entity_stats.instances)))
            elif final_attr in entity_stats.distinct:
                distincts.append(float(entity_stats.distinct[final_attr]))
            elif final_attr in entity_stats.fanout:
                # Reference attribute: distinct targets bounded by the
                # referenced entity's size; approximate by own count.
                distincts.append(float(max(1, entity_stats.instances)))
        if not distincts:
            return DEFAULT_JOIN_SELECTIVITY
        return 1.0 / max(distincts)

    # -- composite nodes --------------------------------------------------------------------

    def _estimate_pij(self, node: PIJ, env) -> NodeEstimate:
        child = self.estimate(node.child, env)
        index = self.physical.find_path_index(node.attributes)
        if index is not None:
            heads = max(1, self.stats.instances(index.root_entity))
            per_head = index.entry_count / heads
        else:
            per_head = 1.0
        tuples = child.tuples * per_head
        varmap = dict(child.varmap)
        for out_var, target in zip(node.out_vars, node.targets):
            varmap[out_var] = target.entity
        return NodeEstimate(
            tuples,
            self._tuple_pages(tuples),
            varmap,
            stream_vars=child.stream_vars | set(node.out_vars),
        )

    def _estimate_ej(self, node: EJ, env) -> NodeEstimate:
        left = self.estimate(node.left, env)
        right = self.estimate(node.right, env)
        varmap = dict(left.varmap)
        varmap.update(right.varmap)
        stream = left.stream_vars | right.stream_vars
        selectivity = self.predicate_selectivity(node.predicate, varmap, stream)
        tuples = left.tuples * right.tuples * selectivity
        return NodeEstimate(
            tuples, self._tuple_pages(tuples), varmap, stream_vars=stream
        )

    def estimate_fix(self, node: Fix, env) -> NodeEstimate:
        """Estimate a fixpoint: base once, then per-iteration deltas.

        Iteration count and frontier decay come from chain-depth
        statistics of the recursion attribute when available, else the
        configured defaults.  Returns the accumulated output size plus
        the per-iteration delta list (the cost model prices each
        iteration's body at its own delta size — the Fix row of
        Figure 5)."""
        from repro.engine.fixpoint import partition_parts

        base_parts, recursive_parts = partition_parts(node)
        shape = self._fix_shape(node, env)
        # Delta tuples entering a recursive part always descend from
        # tuples that already passed any filter pushed on an invariant
        # field (either in the base or in a previous round), so such
        # filters are transparent for cardinality inside the body.
        body_shape = TupleShape(
            dict(shape.fields), frozenset(node.invariant_fields)
        )

        base_tuples = 0.0
        for part in base_parts:
            base_tuples += self.estimate(part, env).tuples

        iterations, decay_schedule = self._iteration_schedule(node)
        deltas: List[float] = [base_tuples]
        total = base_tuples
        delta = base_tuples
        for iteration in range(iterations):
            produced = 0.0
            inner_env = dict(env)
            inner_env[node.name] = (delta, body_shape)
            for part in recursive_parts:
                produced += self.estimate(part, inner_env).tuples
            decay = decay_schedule[min(iteration, len(decay_schedule) - 1)]
            delta = produced * decay
            if delta < 0.5:
                break
            deltas.append(delta)
            total += delta
        varmap: Dict[str, VarInfo] = {node.out_var: shape}
        return NodeEstimate(total, self._tuple_pages(total), varmap, deltas)

    def _fix_shape(self, node: Fix, env) -> TupleShape:
        from repro.engine.fixpoint import partition_parts

        base_parts, _recursive = partition_parts(node)
        first = base_parts[0]
        if isinstance(first, Proj):
            child = self.estimate(first.child, env)
            return self._project_shape(first, child.varmap)
        return TupleShape()

    def _iteration_schedule(self, node: Fix) -> Tuple[int, List[float]]:
        entity = node.recursion_entity
        attribute = node.recursion_attribute
        if (
            entity is not None
            and attribute is not None
            and self.physical.has_entity(entity)
        ):
            survivors = self.stats.chain_survivors(entity, attribute)
            if survivors:
                decays = []
                for position in range(1, len(survivors)):
                    previous = max(1, survivors[position - 1])
                    decays.append(survivors[position] / previous)
                if not decays:
                    decays = [0.0]
                return (len(survivors), decays)
        return (
            self.params.default_fix_iterations,
            [self.params.default_delta_decay],
        )
