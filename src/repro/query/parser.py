"""Recursive-descent parser: query text → algebra expression.

Grammar (keywords case-insensitive)::

    query        :=  block ( ("UNION" ["OUTER"] | "OUTER" "UNION" | "EXCEPT") block )*
    block        :=  "SELECT" select_list "FROM" from_clause
                     [ "WHERE" predicate ] [ "GUARD" name_list ]
                     [ "TAG" NAME "=" literal ]
    select_list  :=  "*" | name_list
    from_clause  :=  join_expr ( "," join_expr )*                 -- "," is ×
    join_expr    :=  NAME ( ["NATURAL"] "JOIN" NAME [ "ON" "(" name_list ")" ] )*
    predicate    :=  or_expr
    or_expr      :=  and_expr ( "OR" and_expr )*
    and_expr     :=  not_expr ( "AND" not_expr )*
    not_expr     :=  "NOT" not_expr | primary
    primary      :=  "(" predicate ")" | "HAS" name_list | comparison
    comparison   :=  NAME op (literal | NAME)  |  NAME "IN" "(" literal_list ")"
    op           :=  "=" | "!=" | "<>" | "<" | "<=" | ">" | ">="
    literal      :=  NUMBER | STRING | "TRUE" | "FALSE" | "NULL"

The operator order inside a block is: FROM (products / joins), WHERE (selection),
GUARD (type guard), TAG (extension), SELECT (projection) — i.e. the projection is
applied last, as in SQL.
"""

from __future__ import annotations

from typing import List, Optional

from repro.algebra.expressions import (
    Expression,
    Extension,
    Difference,
    NaturalJoin,
    OuterUnion,
    Product,
    Projection,
    RelationRef,
    Selection,
    TypeGuardNode,
    Union,
)
from repro.algebra.predicates import (
    And,
    AttributeComparison,
    Comparison,
    Not,
    Or,
    Predicate,
    PresencePredicate,
)
from repro.query.lexer import LITERAL_KINDS, QuerySyntaxError, Token, tokenize


def parse_query(text: str) -> Expression:
    """Parse query text into an algebra expression."""
    return parse_tokens(tokenize(text))


def parse_tokens(tokens: List[Token]) -> Expression:
    """Parse a token list; a literal token's value is taken as it is, so a
    caller may put placeholders where the constants were."""
    parser = _Parser(tokens)
    expression = parser.parse_query()
    parser.expect("EOF")
    return expression


class _Parser:
    def __init__(self, tokens: List[Token]):
        self._tokens = tokens
        self._index = 0

    # -- token helpers ---------------------------------------------------------------

    @property
    def current(self) -> Token:
        return self._tokens[self._index]

    def advance(self) -> Token:
        token = self.current
        self._index += 1
        return token

    def check(self, kind: str) -> bool:
        return self.current.kind == kind

    def accept(self, kind: str) -> Optional[Token]:
        if self.check(kind):
            return self.advance()
        return None

    def expect(self, kind: str) -> Token:
        if not self.check(kind):
            raise QuerySyntaxError(
                "expected {} but found {}".format(kind, self.current.describe())
            )
        return self.advance()

    # -- grammar ---------------------------------------------------------------------------

    def parse_query(self) -> Expression:
        expression = self.parse_block()
        while True:
            if self.accept("UNION"):
                outer = bool(self.accept("OUTER"))
                right = self.parse_block()
                expression = OuterUnion(expression, right) if outer else Union(expression, right)
            elif self.check("OUTER"):
                self.advance()
                self.expect("UNION")
                expression = OuterUnion(expression, self.parse_block())
            elif self.accept("EXCEPT"):
                expression = Difference(expression, self.parse_block())
            else:
                return expression

    def parse_block(self) -> Expression:
        self.expect("SELECT")
        projection = self.parse_select_list()
        self.expect("FROM")
        expression = self.parse_from_clause()
        if self.accept("WHERE"):
            expression = Selection(expression, self.parse_predicate())
        if self.accept("GUARD"):
            expression = TypeGuardNode(expression, self.parse_name_list())
        if self.accept("TAG"):
            attribute = self.expect("NAME").value
            self.expect_operator("=")
            expression = Extension(expression, attribute, self.parse_literal())
        if projection is not None:
            expression = Projection(expression, projection)
        return expression

    def parse_select_list(self) -> Optional[List[str]]:
        if self.accept("STAR"):
            return None
        return self.parse_name_list()

    def parse_name_list(self) -> List[str]:
        names = [self.expect("NAME").value]
        while self.accept("COMMA"):
            names.append(self.expect("NAME").value)
        return names

    def parse_from_clause(self) -> Expression:
        expression = self.parse_join_expression()
        while self.accept("COMMA"):
            expression = Product(expression, self.parse_join_expression())
        return expression

    def parse_join_expression(self) -> Expression:
        expression: Expression = RelationRef(self.expect("NAME").value)
        while True:
            if self.accept("NATURAL"):
                self.expect("JOIN")
            elif self.accept("JOIN"):
                pass
            else:
                return expression
            right = RelationRef(self.expect("NAME").value)
            on = None
            if self.accept("ON"):
                self.expect("LPAREN")
                on = self.parse_name_list()
                self.expect("RPAREN")
            expression = NaturalJoin(expression, right, on=on)

    # -- predicates ----------------------------------------------------------------------------

    def parse_predicate(self) -> Predicate:
        return self.parse_or()

    def parse_or(self) -> Predicate:
        operands = [self.parse_and()]
        while self.accept("OR"):
            operands.append(self.parse_and())
        return operands[0] if len(operands) == 1 else Or(*operands)

    def parse_and(self) -> Predicate:
        operands = [self.parse_not()]
        while self.accept("AND"):
            operands.append(self.parse_not())
        return operands[0] if len(operands) == 1 else And(*operands)

    def parse_not(self) -> Predicate:
        if self.accept("NOT"):
            return Not(self.parse_not())
        return self.parse_primary()

    def parse_primary(self) -> Predicate:
        if self.accept("LPAREN"):
            predicate = self.parse_predicate()
            self.expect("RPAREN")
            return predicate
        if self.accept("HAS"):
            return PresencePredicate(self.parse_name_list())
        return self.parse_comparison()

    def parse_comparison(self) -> Predicate:
        attribute = self.expect("NAME").value
        if self.accept("IN"):
            self.expect("LPAREN")
            values = [self.parse_literal()]
            while self.accept("COMMA"):
                values.append(self.parse_literal())
            self.expect("RPAREN")
            return Comparison(attribute, "in", values)
        operator = self.expect("OP").value
        if self.check("NAME"):
            other = self.advance().value
            return AttributeComparison(attribute, operator, other)
        return Comparison(attribute, operator, self.parse_literal())

    def expect_operator(self, symbol: str) -> None:
        token = self.expect("OP")
        if token.value != symbol:
            raise QuerySyntaxError("expected {!r} but found {}".format(symbol, token.describe()))

    def parse_literal(self):
        if self.current.kind in LITERAL_KINDS:
            return self.advance().value
        raise QuerySyntaxError("expected a literal but found {}".format(self.current.describe()))
