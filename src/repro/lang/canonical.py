"""Canonicalization of query text for plan-cache keys.

Two query texts that differ only in formatting — whitespace, comments,
redundant parentheses, the spelling of bound variables (``from x in
Composer`` vs ``from c in Composer``), or ``==`` vs ``=`` — compile to
the same query graph and deserve the same cached plan.  This module
parses the text and re-serializes the AST deterministically:

* every bound variable is renamed positionally (``v0``, ``v1``, ... in
  binding order, per statement scope), erasing alias choices;
* all layout is normalized to single spaces;
* ``==`` is folded into ``=``;
* conjunct/disjunct nesting is flattened the way the parser already
  flattens it.

View names, class names, attribute names and literals are semantic and
kept verbatim.  The result is a valid query text (it re-parses to an
equivalent program), so it doubles as a normal form for display.
"""

from __future__ import annotations

import functools
from decimal import Decimal
from typing import Dict, List

from repro.lang.ast import (
    AndNode,
    BinaryOp,
    Call,
    ComparisonNode,
    ExprNode,
    FieldNode,
    Literal,
    NotNode,
    OrNode,
    Path,
    PredicateNode,
    ProgramNode,
    SelectNode,
    SelectUnionNode,
)
from repro.lang.parser import parse

__all__ = [
    "canonical_memo_info",
    "canonical_program",
    "canonical_text",
    "render_literal",
]

#: Distinct texts :func:`canonical_text` remembers.
CANONICAL_MEMO_SIZE = 1024


@functools.lru_cache(maxsize=CANONICAL_MEMO_SIZE)
def canonical_text(text: str) -> str:
    """Parse ``text`` and return its canonical serialization.

    Raises the usual :class:`~repro.errors.LanguageError` subclasses on
    malformed input — a cache should not key on garbage.  The result
    is a pure function of the text, so it is memoized in a bounded LRU
    (``canonical_text.cache_info()``); a raising call is never cached,
    so malformed text raises every time.
    """
    return canonical_program(parse(text))


def canonical_memo_info() -> Dict[str, int]:
    """Hits, misses and size of the :func:`canonical_text` memo."""
    info = canonical_text.cache_info()
    return {
        "hits": info.hits,
        "misses": info.misses,
        "size": info.currsize,
        "capacity": CANONICAL_MEMO_SIZE,
    }


def canonical_program(program: ProgramNode) -> str:
    parts: List[str] = []
    for view in program.views:
        body = _select_union(view.body)
        parts.append(f"view {view.name} as {body};")
    parts.append(f"{_select_union(program.query)};")
    return "\n".join(parts)


def _select_union(node: SelectUnionNode) -> str:
    return " union ".join(_select(select) for select in node.selects)


def _select(node: SelectNode) -> str:
    # One rename scope per select: the language scopes range variables
    # to their select statement.
    names: Dict[str, str] = {}
    for binding in node.bindings:
        names.setdefault(binding.var, f"v{len(names)}")
    fields = ", ".join(
        f"{field.name}: {_expr(field.expr, names)}" for field in node.fields
    )
    bindings = ", ".join(
        f"{names[binding.var]} in {binding.source}"
        for binding in node.bindings
    )
    text = f"select [{fields}] from {bindings}"
    if node.predicate is not None:
        text += f" where {_predicate(node.predicate, names)}"
    return text


def _predicate(node: PredicateNode, names: Dict[str, str]) -> str:
    if isinstance(node, ComparisonNode):
        op = "=" if node.op == "==" else node.op
        return f"{_expr(node.left, names)} {op} {_expr(node.right, names)}"
    if isinstance(node, AndNode):
        return " and ".join(
            _group(part, names, (OrNode,)) for part in node.parts
        )
    if isinstance(node, OrNode):
        return " or ".join(
            _group(part, names, (AndNode,)) for part in node.parts
        )
    if isinstance(node, NotNode):
        return f"not {_group(node.part, names, (AndNode, OrNode))}"
    raise TypeError(f"unexpected predicate node {node!r}")


def _group(node: PredicateNode, names: Dict[str, str], wrap: tuple) -> str:
    text = _predicate(node, names)
    if isinstance(node, wrap):
        return f"({text})"
    return text


def _expr(node: ExprNode, names: Dict[str, str]) -> str:
    if isinstance(node, Literal):
        return render_literal(node.value)
    if isinstance(node, Path):
        root = names.get(node.var, node.var)
        return ".".join([root, *node.attrs])
    if isinstance(node, Call):
        args = ", ".join(_expr(arg, names) for arg in node.args)
        return f"{node.name}({args})"
    if isinstance(node, BinaryOp):
        left = _operand(node.left, names)
        right = _operand(node.right, names)
        return f"{left} {node.op} {right}"
    raise TypeError(f"unexpected expression node {node!r}")


def _operand(node: ExprNode, names: Dict[str, str]) -> str:
    # Parenthesize nested arithmetic so the serialization re-parses to
    # the same tree regardless of precedence.
    text = _expr(node, names)
    if isinstance(node, BinaryOp):
        return f"({text})"
    return text


def render_literal(value: object) -> str:
    """Query text for a literal value that parses back to the same
    type and value (finite numbers only)."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    text = repr(value)
    if isinstance(value, float):
        # The lexer reads neither exponents nor floats without a
        # decimal point: spell the shortest round-trip digits out
        # positionally (1e-07 -> 0.0000001) and keep one point.
        text = format(Decimal(text), "f")
        if "." not in text:
            text += ".0"
    # Parenthesized, a sign can never fuse with a preceding "-" into a
    # comment, whatever text the literal is spliced next to.
    return f"({text})" if text.startswith("-") else text
