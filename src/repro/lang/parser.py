"""Recursive-descent parser for the query language.

Grammar (informal)::

    program      := view_def* select_union ';'?
    view_def     := 'view' IDENT 'as' select_union ';'
    select_union := select ('union' select)*
    select       := 'select' projection 'from' bindings ('where' predicate)?
    projection   := '[' field (',' field)* ']' | expr
    field        := IDENT ':' expr
    bindings     := IDENT 'in' IDENT (',' IDENT 'in' IDENT)*
    predicate    := or ;  or := and ('or' and)* ;  and := unary ('and' unary)*
    unary        := 'not' unary | '(' predicate ')' | comparison
    comparison   := expr ('='|'=='|'!='|'<'|'<='|'>'|'>=') expr
    expr         := term (('+'|'-') term)* ; term := factor (('*'|'/') factor)*
    factor       := literal | '-' NUMBER | path | call | '(' expr ')'

A bare projection expression (``select x.name from ...``) names its
field after the final path component.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import ParseError
from repro.lang.ast import (
    AndNode,
    BinaryOp,
    BindingNode,
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
    ViewDefNode,
)
from repro.lang.lexer import Token, tokenize

__all__ = ["parse", "Parser"]

COMPARISON_OPS = {"=", "==", "!=", "<", "<=", ">", ">="}


def parse(text: str) -> ProgramNode:
    """Parse a full program (views + one query)."""
    return Parser(tokenize(text)).parse_program()


class Parser:
    """Recursive-descent parser over a token list."""

    def __init__(self, tokens: List[Token]) -> None:
        self._tokens = tokens
        self._position = 0

    # -- token plumbing -----------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        index = min(self._position + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._peek()
        if token.kind != "eof":
            self._position += 1
        return token

    def _expect(self, kind: str, value: Optional[str] = None) -> Token:
        token = self._peek()
        if not token.is_(kind, value):
            wanted = value if value is not None else kind
            raise ParseError(
                f"expected {wanted!r}, found {token.value!r}",
                token.line,
                token.column,
            )
        return self._advance()

    def _accept(self, kind: str, value: Optional[str] = None) -> Optional[Token]:
        if self._peek().is_(kind, value):
            return self._advance()
        return None

    def _save(self) -> int:
        return self._position

    def _restore(self, mark: int) -> None:
        self._position = mark

    # -- program -----------------------------------------------------------------

    def parse_program(self) -> ProgramNode:
        views: List[ViewDefNode] = []
        while self._peek().is_("keyword", "view"):
            views.append(self._parse_view())
        query = self._parse_select_union()
        self._accept("punct", ";")
        token = self._peek()
        if not token.is_("eof"):
            raise ParseError(
                f"unexpected trailing input {token.value!r}",
                token.line,
                token.column,
            )
        return ProgramNode(tuple(views), query)

    def _parse_view(self) -> ViewDefNode:
        self._expect("keyword", "view")
        name = self._expect("ident").value
        self._expect("keyword", "as")
        body = self._parse_select_union()
        self._expect("punct", ";")
        return ViewDefNode(name, body)

    def _parse_select_union(self) -> SelectUnionNode:
        selects = [self._parse_select()]
        while self._accept("keyword", "union"):
            selects.append(self._parse_select())
        return SelectUnionNode(tuple(selects))

    def _parse_select(self) -> SelectNode:
        self._expect("keyword", "select")
        fields = self._parse_projection()
        self._expect("keyword", "from")
        bindings = self._parse_bindings()
        predicate: Optional[PredicateNode] = None
        if self._accept("keyword", "where"):
            predicate = self._parse_predicate()
        return SelectNode(tuple(fields), tuple(bindings), predicate)

    def _parse_projection(self) -> List[FieldNode]:
        if self._accept("punct", "["):
            fields = [self._parse_field()]
            while self._accept("punct", ","):
                fields.append(self._parse_field())
            self._expect("punct", "]")
            return fields
        expr = self._parse_expr()
        return [FieldNode(self._implicit_field_name(expr), expr)]

    def _implicit_field_name(self, expr: ExprNode) -> str:
        if isinstance(expr, Path):
            return expr.attrs[-1] if expr.attrs else expr.var
        if isinstance(expr, Call):
            return expr.name
        return "value"

    def _parse_field(self) -> FieldNode:
        name = self._expect("ident").value
        self._expect("punct", ":")
        return FieldNode(name, self._parse_expr())

    def _parse_bindings(self) -> List[BindingNode]:
        bindings = [self._parse_binding()]
        while self._accept("punct", ","):
            bindings.append(self._parse_binding())
        return bindings

    def _parse_binding(self) -> BindingNode:
        var = self._expect("ident").value
        self._expect("keyword", "in")
        source = self._expect("ident").value
        return BindingNode(var, source)

    # -- predicates ----------------------------------------------------------------------

    def _parse_predicate(self) -> PredicateNode:
        return self._parse_or()

    def _parse_or(self) -> PredicateNode:
        parts = [self._parse_and()]
        while self._accept("keyword", "or"):
            parts.append(self._parse_and())
        if len(parts) == 1:
            return parts[0]
        return OrNode(tuple(parts))

    def _parse_and(self) -> PredicateNode:
        parts = [self._parse_unary()]
        while self._accept("keyword", "and"):
            parts.append(self._parse_unary())
        if len(parts) == 1:
            return parts[0]
        return AndNode(tuple(parts))

    def _parse_unary(self) -> PredicateNode:
        if self._accept("keyword", "not"):
            return NotNode(self._parse_unary())
        if self._peek().is_("punct", "("):
            # '(' is ambiguous: parenthesized predicate or arithmetic
            # grouping inside a comparison.  Try the predicate reading
            # first; on failure, backtrack to a comparison.
            mark = self._save()
            try:
                self._expect("punct", "(")
                inner = self._parse_predicate()
                self._expect("punct", ")")
                return inner
            except ParseError:
                self._restore(mark)
        return self._parse_comparison()

    def _parse_comparison(self) -> PredicateNode:
        left = self._parse_expr()
        token = self._peek()
        if token.kind == "op" and token.value in COMPARISON_OPS:
            self._advance()
            right = self._parse_expr()
            return ComparisonNode(token.value, left, right)
        raise ParseError(
            f"expected a comparison operator, found {token.value!r}",
            token.line,
            token.column,
        )

    # -- expressions -----------------------------------------------------------------------

    def _parse_expr(self) -> ExprNode:
        left = self._parse_term()
        while True:
            token = self._peek()
            if token.kind == "op" and token.value in ("+", "-"):
                self._advance()
                left = BinaryOp(token.value, left, self._parse_term())
            else:
                return left

    def _parse_term(self) -> ExprNode:
        left = self._parse_factor()
        while True:
            token = self._peek()
            if token.kind == "op" and token.value in ("*", "/"):
                self._advance()
                left = BinaryOp(token.value, left, self._parse_factor())
            else:
                return left

    def _parse_factor(self) -> ExprNode:
        token = self._peek()
        if token.kind == "number":
            self._advance()
            return Literal(_number(token.value))
        if token.is_("op", "-") and self._peek(1).kind == "number":
            # A negative constant is one literal, not an expression.
            self._advance()
            return Literal(-_number(self._advance().value))
        if token.kind == "string":
            self._advance()
            return Literal(token.value)
        if token.is_("keyword", "true"):
            self._advance()
            return Literal(True)
        if token.is_("keyword", "false"):
            self._advance()
            return Literal(False)
        if token.is_("keyword", "null"):
            self._advance()
            return Literal(None)
        if token.is_("punct", "("):
            self._advance()
            inner = self._parse_expr()
            self._expect("punct", ")")
            return inner
        if token.kind == "ident":
            return self._parse_path_or_call()
        raise ParseError(
            f"unexpected token {token.value!r}", token.line, token.column
        )

    def _parse_path_or_call(self) -> ExprNode:
        name = self._expect("ident").value
        if self._peek().is_("punct", "("):
            self._advance()
            args: List[ExprNode] = []
            if not self._peek().is_("punct", ")"):
                args.append(self._parse_expr())
                while self._accept("punct", ","):
                    args.append(self._parse_expr())
            self._expect("punct", ")")
            return Call(name, tuple(args))
        attrs: List[str] = []
        while self._peek().is_("punct", "."):
            self._advance()
            attrs.append(self._expect("ident").value)
        return Path(name, tuple(attrs))


def _number(text: str):
    return float(text) if "." in text else int(text)
