"""Recursive-descent parser for the SQL subset plus CADVIEW extensions.

Accepts the statements shown verbatim in the paper, including its
informal touches:

* numeric literals may carry a ``K`` suffix (``10K`` == 10000) or ``M``
  (``1M`` == 1000000) — the paper writes ``Mileage BETWEEN 10K AND 30K``;
* bare identifiers on the right-hand side of comparisons are string
  values (the paper writes ``Transmission = Automatic``);
* keywords are case-insensitive; identifiers keep their case.

Grammar (informal)::

    statement   := select | create_cadview | highlight | reorder
    select      := SELECT cols FROM ident [WHERE expr]
                   [ORDER BY key (, key)*] [LIMIT int]
    cols        := '*' | ident (',' ident)*
    expr        := term (OR term)*
    term        := factor (AND factor)*
    factor      := NOT factor | '(' expr ')' | comparison
    comparison  := ident ('='|'<>'|'!='|'<'|'<='|'>'|'>=') value
                 | ident BETWEEN value AND value
                 | ident IN '(' value (',' value)* ')'
                 | ident IS [NOT] NULL
                 | TRUE
    value       := number | string | ident
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from repro.errors import ParseError
from repro.query.ast import (
    CreateCadViewStatement,
    DescribeStatement,
    DropCadViewStatement,
    ExplainStatement,
    HighlightSimilarStatement,
    OrderKey,
    ReorderRowsStatement,
    SelectStatement,
    ShowCadViewsStatement,
    Statement,
)
from repro.query.predicates import (
    And, Between, Cmp, Eq, In, IsMissing, Ne, Not, Or, Predicate, TruePred,
)

__all__ = ["parse", "parse_predicate", "tokenize", "Token"]


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?\s*[KkMm]?(?![\w.]))
  | (?P<string>'(?:[^']|'')*')
  | (?P<ident>[A-Za-z_][A-Za-z0-9_.\-]*)
  | (?P<op><>|!=|<=|>=|=|<|>)
  | (?P<punct>[(),*;])
    """,
    re.VERBOSE,
)

_KEYWORDS = {
    "SELECT", "FROM", "WHERE", "AND", "OR", "NOT", "BETWEEN", "IN", "IS",
    "NULL", "TRUE", "LIMIT", "ORDER", "BY", "ASC", "DESC", "CREATE",
    "CADVIEW", "AS", "SET", "PIVOT", "COLUMNS", "IUNITS", "HIGHLIGHT",
    "SIMILAR", "REORDER", "ROWS", "SIMILARITY", "DESCRIBE", "SHOW",
    "CADVIEWS", "DROP", "EXPLAIN", "ANALYZE", "CHECK",
}


class Token:
    """One lexer token: kind in {number, string, ident, keyword, op, punct}.

    ``pos``/``end`` are the start/end character offsets in the source
    text, recorded so parse errors and analyzer diagnostics can point at
    the exact span.
    """

    __slots__ = ("kind", "value", "pos", "end")

    def __init__(self, kind: str, value, pos: int, end: Optional[int] = None):
        self.kind = kind
        self.value = value
        self.pos = pos
        self.end = end if end is not None else pos + len(str(value))

    @property
    def span(self) -> Tuple[int, int]:
        """The (start, end) character offsets of this token."""
        return (self.pos, self.end)

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.value!r})"


def tokenize(text: str) -> List[Token]:
    """Lex ``text`` into tokens, raising :class:`ParseError` on junk."""
    tokens: List[Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError("unexpected character", text, pos)
        kind = m.lastgroup
        raw = m.group()
        end = m.end()
        if kind == "ws":
            pass
        elif kind == "number":
            raw = raw.strip()
            mult = 1.0
            if raw[-1] in "KkMm":
                mult = 1_000.0 if raw[-1] in "Kk" else 1_000_000.0
                raw = raw[:-1].strip()
            tokens.append(Token("number", float(raw) * mult, pos, end))
        elif kind == "string":
            tokens.append(
                Token("string", raw[1:-1].replace("''", "'"), pos, end)
            )
        elif kind == "ident":
            upper = raw.upper()
            if upper in _KEYWORDS:
                tokens.append(Token("keyword", upper, pos, end))
            else:
                tokens.append(Token("ident", raw, pos, end))
        else:
            tokens.append(Token(kind, raw, pos, end))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.i = 0

    # -- token helpers ------------------------------------------------

    def _peek(self) -> Optional[Token]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _next(self) -> Token:
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of statement", self.text,
                             len(self.text))
        self.i += 1
        return tok

    def _accept_keyword(self, *words: str) -> bool:
        tok = self._peek()
        if tok is not None and tok.kind == "keyword" and tok.value in words:
            self.i += 1
            return True
        return False

    def _expect_keyword(self, word: str) -> None:
        tok = self._next()
        if tok.kind != "keyword" or tok.value != word:
            raise ParseError(f"expected {word}", self.text, tok.pos)

    def _expect_punct(self, ch: str) -> None:
        tok = self._next()
        if tok.kind != "punct" or tok.value != ch:
            raise ParseError(f"expected {ch!r}", self.text, tok.pos)

    def _accept_punct(self, ch: str) -> bool:
        tok = self._peek()
        if tok is not None and tok.kind == "punct" and tok.value == ch:
            self.i += 1
            return True
        return False

    def _expect_ident_token(self) -> Token:
        tok = self._next()
        if tok.kind != "ident":
            raise ParseError("expected identifier", self.text, tok.pos)
        return tok

    def _expect_number(self) -> float:
        tok = self._next()
        if tok.kind != "number":
            raise ParseError("expected number", self.text, tok.pos)
        return tok.value

    def _expect_positive_int(self, clause: str) -> int:
        """A sizing clause value: a whole number >= 1.

        ``LIMIT COLUMNS 0`` / ``IUNITS 0`` would build a degenerate view
        (no Compare Attributes, or rows with no IUnits) that every
        downstream phase mishandles — reject them here, at the point
        with the best error position.
        """
        tok = self._peek()
        value = self._expect_number()
        if value != int(value) or int(value) < 1:
            raise ParseError(
                f"{clause} must be a whole number >= 1, got {value:g}",
                self.text, tok.pos if tok is not None else -1,
            )
        return int(value)

    def _expect_op(self, *ops: str) -> str:
        tok = self._next()
        if tok.kind != "op" or tok.value not in ops:
            raise ParseError(f"expected one of {ops}", self.text, tok.pos)
        return tok.value

    # -- entry point -----------------------------------------------------

    def statement(self) -> Statement:
        stmt = self._statement_body()
        self._accept_punct(";")
        if self._peek() is not None:
            raise ParseError("trailing input", self.text, self._peek().pos)
        return stmt

    def _statement_body(self) -> Statement:
        tok = self._peek()
        if tok is None:
            raise ParseError("empty statement", self.text, 0)
        if tok.kind != "keyword":
            raise ParseError("statement must start with a keyword",
                             self.text, tok.pos)
        if tok.value == "EXPLAIN":
            self._next()
            analyze = self._accept_keyword("ANALYZE")
            check = (not analyze) and self._accept_keyword("CHECK")
            inner = self._statement_body()
            if isinstance(inner, ExplainStatement):
                raise ParseError("EXPLAIN cannot be nested",
                                 self.text, tok.pos)
            return ExplainStatement(inner, analyze, check)
        if tok.value == "SELECT":
            stmt: Statement = self._select()
        elif tok.value == "CREATE":
            stmt = self._create_cadview()
        elif tok.value == "HIGHLIGHT":
            stmt = self._highlight()
        elif tok.value == "REORDER":
            stmt = self._reorder()
        elif tok.value == "DESCRIBE":
            self._next()
            table_tok = self._expect_ident_token()
            stmt = DescribeStatement(
                table_tok.value, spans={"table": table_tok.span}
            )
        elif tok.value == "SHOW":
            self._next()
            self._expect_keyword("CADVIEWS")
            stmt = ShowCadViewsStatement()
        elif tok.value == "DROP":
            self._next()
            self._expect_keyword("CADVIEW")
            name_tok = self._expect_ident_token()
            stmt = DropCadViewStatement(
                name_tok.value, spans={"view": name_tok.span}
            )
        else:
            raise ParseError(f"unsupported statement {tok.value}",
                             self.text, tok.pos)
        return stmt

    # -- SELECT -----------------------------------------------------------

    def _column_list(self, spans: dict) -> Tuple[str, ...]:
        if self._accept_punct("*"):
            return ()
        tokens = [self._expect_ident_token()]
        while self._accept_punct(","):
            tokens.append(self._expect_ident_token())
        for i, tok in enumerate(tokens):
            spans[f"select.{i}"] = tok.span
        return tuple(t.value for t in tokens)

    def _order_keys(self, spans: dict) -> Tuple[OrderKey, ...]:
        keys = []
        while True:
            tok = self._expect_ident_token()
            ascending = True
            if self._accept_keyword("ASC"):
                ascending = True
            elif self._accept_keyword("DESC"):
                ascending = False
            spans[f"order.{len(keys)}"] = tok.span
            keys.append(OrderKey(tok.value, ascending))
            if not self._accept_punct(","):
                break
        return tuple(keys)

    def _select(self) -> SelectStatement:
        spans: dict = {}
        self._expect_keyword("SELECT")
        columns = self._column_list(spans)
        self._expect_keyword("FROM")
        table_tok = self._expect_ident_token()
        spans["table"] = table_tok.span
        where = self.expr() if self._accept_keyword("WHERE") else None
        order: Tuple[OrderKey, ...] = ()
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            order = self._order_keys(spans)
        limit = None
        if self._accept_keyword("LIMIT"):
            tok = self._peek()
            limit = int(self._expect_number())
            if tok is not None:
                spans["limit"] = tok.span
        return SelectStatement(
            table_tok.value, columns, where, order, limit, spans=spans
        )

    # -- CREATE CADVIEW --------------------------------------------------

    def _create_cadview(self) -> CreateCadViewStatement:
        spans: dict = {}
        self._expect_keyword("CREATE")
        self._expect_keyword("CADVIEW")
        name_tok = self._expect_ident_token()
        spans["name"] = name_tok.span
        self._expect_keyword("AS")
        self._expect_keyword("SET")
        self._expect_keyword("PIVOT")
        self._expect_op("=")
        pivot_tok = self._expect_ident_token()
        spans["pivot"] = pivot_tok.span
        self._expect_keyword("SELECT")
        select = self._column_list(spans)
        self._expect_keyword("FROM")
        table_tok = self._expect_ident_token()
        spans["table"] = table_tok.span
        where = self.expr() if self._accept_keyword("WHERE") else None
        limit_columns = None
        iunits = None
        if self._accept_keyword("LIMIT"):
            self._expect_keyword("COLUMNS")
            tok = self._peek()
            limit_columns = self._expect_positive_int("LIMIT COLUMNS")
            if tok is not None:
                spans["limit_columns"] = tok.span
        if self._accept_keyword("IUNITS"):
            tok = self._peek()
            iunits = self._expect_positive_int("IUNITS")
            if tok is not None:
                spans["iunits"] = tok.span
        order: Tuple[OrderKey, ...] = ()
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            order = self._order_keys(spans)
        return CreateCadViewStatement(
            name_tok.value, pivot_tok.value, table_tok.value, select, where,
            limit_columns, iunits, order, spans=spans,
        )

    # -- HIGHLIGHT SIMILAR IUNITS ----------------------------------------

    def _similarity_args(self, want: int) -> List[Token]:
        self._expect_keyword("SIMILARITY")
        open_tok = self._peek()
        self._expect_punct("(")
        args: List[Token] = []
        while True:
            tok = self._next()
            if tok.kind in ("ident", "string", "number"):
                args.append(tok)
            else:
                raise ParseError("bad SIMILARITY argument", self.text, tok.pos)
            if not self._accept_punct(","):
                break
        self._expect_punct(")")
        if len(args) != want:
            raise ParseError(
                f"SIMILARITY takes {want} argument(s), got {len(args)}",
                self.text,
                open_tok.pos if open_tok is not None else -1,
            )
        return args

    def _highlight(self) -> HighlightSimilarStatement:
        self._expect_keyword("HIGHLIGHT")
        self._expect_keyword("SIMILAR")
        self._expect_keyword("IUNITS")
        self._expect_keyword("IN")
        view_tok = self._expect_ident_token()
        self._expect_keyword("WHERE")
        value_tok, iunit_tok = self._similarity_args(2)
        if iunit_tok.kind != "number":
            raise ParseError(
                "SIMILARITY's second argument must be an IUnit number",
                self.text, iunit_tok.pos,
            )
        op = self._expect_op(">", ">=")
        threshold_tok = self._peek()
        threshold = self._expect_number()
        if op == ">":
            # normalize to >= with an open-interval epsilon-free semantics:
            # callers compare with >= on the stored threshold and we keep
            # strictness by storing the raw value; the view operation uses >=.
            pass
        spans = {
            "view": view_tok.span,
            "pivot_value": value_tok.span,
            "iunit_id": iunit_tok.span,
        }
        if threshold_tok is not None:
            spans["threshold"] = threshold_tok.span
        return HighlightSimilarStatement(
            view_tok.value, str(value_tok.value), int(iunit_tok.value),
            float(threshold), spans=spans,
        )

    # -- REORDER ROWS -------------------------------------------------------

    def _reorder(self) -> ReorderRowsStatement:
        self._expect_keyword("REORDER")
        self._expect_keyword("ROWS")
        self._expect_keyword("IN")
        view_tok = self._expect_ident_token()
        self._expect_keyword("ORDER")
        self._expect_keyword("BY")
        (value_tok,) = self._similarity_args(1)
        descending = True
        if self._accept_keyword("ASC"):
            descending = False
        else:
            self._accept_keyword("DESC")
        return ReorderRowsStatement(
            view_tok.value, str(value_tok.value), descending,
            spans={"view": view_tok.span, "pivot_value": value_tok.span},
        )

    # -- WHERE expressions -------------------------------------------------

    def expr(self) -> Predicate:
        node = self._term()
        terms = [node]
        while self._accept_keyword("OR"):
            terms.append(self._term())
        return terms[0] if len(terms) == 1 else Or(terms)

    def _term(self) -> Predicate:
        node = self._factor()
        factors = [node]
        while self._accept_keyword("AND"):
            factors.append(self._factor())
        return factors[0] if len(factors) == 1 else And(factors)

    def _factor(self) -> Predicate:
        if self._accept_keyword("NOT"):
            return Not(self._factor())
        if self._accept_punct("("):
            node = self.expr()
            self._expect_punct(")")
            return node
        if self._accept_keyword("TRUE"):
            return TruePred()
        return self._comparison()

    def _value_token(self) -> Token:
        tok = self._next()
        if tok.kind in ("number", "string", "ident"):
            return tok
        raise ParseError("expected a value", self.text, tok.pos)

    @staticmethod
    def _with_span(pred: Predicate, tok: Token) -> Predicate:
        """Stamp the attribute token's span onto a leaf predicate.

        Stored as a plain attribute (not part of predicate equality)
        so analyzer diagnostics can point at the attribute name.
        """
        pred.attr_span = tok.span  # type: ignore[attr-defined]
        return pred

    def _comparison(self) -> Predicate:
        attr_tok = self._expect_ident_token()
        attr = attr_tok.value
        if self._accept_keyword("BETWEEN"):
            lo = self._expect_number()
            self._expect_keyword("AND")
            hi = self._expect_number()
            return self._with_span(Between(attr, lo, hi), attr_tok)
        if self._accept_keyword("IN"):
            self._expect_punct("(")
            values = [self._value_token().value]
            while self._accept_punct(","):
                values.append(self._value_token().value)
            self._expect_punct(")")
            return self._with_span(In(attr, values), attr_tok)
        if self._accept_keyword("IS"):
            if self._accept_keyword("NOT"):
                self._expect_keyword("NULL")
                return Not(self._with_span(IsMissing(attr), attr_tok))
            self._expect_keyword("NULL")
            return self._with_span(IsMissing(attr), attr_tok)
        op = self._expect_op("=", "<>", "!=", "<", "<=", ">", ">=")
        value_tok = self._value_token()
        value = value_tok.value
        if op == "=":
            return self._with_span(Eq(attr, value), attr_tok)
        if op in ("<>", "!="):
            return self._with_span(Ne(attr, value), attr_tok)
        try:
            number = float(value)
        except (TypeError, ValueError):
            raise ParseError(
                f"{op!r} needs a numeric right-hand side, got {value!r}",
                self.text, value_tok.pos,
            ) from None
        return self._with_span(Cmp(attr, op, number), attr_tok)


def parse(text: str) -> Statement:
    """Parse one statement (SELECT / CREATE CADVIEW / HIGHLIGHT / REORDER)."""
    return _Parser(text).statement()


def parse_predicate(text: str) -> Predicate:
    """Parse a bare WHERE-clause expression into a :class:`Predicate`."""
    parser = _Parser(text)
    node = parser.expr()
    if parser._peek() is not None:
        raise ParseError("trailing input", text, parser._peek().pos)
    return node
