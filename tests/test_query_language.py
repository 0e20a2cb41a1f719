"""Tests for the textual query language (lexer, parser, end-to-end execution)."""

import pytest

from repro.algebra import (
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
from repro.algebra.predicates import And, AttributeComparison, Comparison, Not, Or, PresencePredicate
from repro.model.attributes import attrset
from repro.query import parse_query, tokenize
from repro.query.lexer import QuerySyntaxError


class TestLexer:
    def test_keywords_are_case_insensitive(self):
        kinds = [t.kind for t in tokenize("select From WHERE")]
        assert kinds == ["SELECT", "FROM", "WHERE", "EOF"]

    def test_names_numbers_strings(self):
        tokens = tokenize("salary 42 3.5 'it''s'")
        assert [(t.kind, t.value) for t in tokens[:-1]] == [
            ("NAME", "salary"), ("NUMBER", 42), ("NUMBER", 3.5), ("STRING", "it's"),
        ]

    def test_operators_and_punctuation(self):
        tokens = tokenize("a >= 1, (b <> 2) *")
        kinds = [t.kind for t in tokens]
        assert "OP" in kinds and "COMMA" in kinds and "LPAREN" in kinds and "STAR" in kinds

    def test_negative_number(self):
        tokens = tokenize("x = -5")
        assert tokens[2].value == -5

    def test_comments_are_skipped(self):
        tokens = tokenize("SELECT * -- a comment\nFROM t")
        assert [t.kind for t in tokens] == ["SELECT", "STAR", "FROM", "NAME", "EOF"]

    def test_unterminated_string(self):
        with pytest.raises(QuerySyntaxError):
            tokenize("'oops")

    def test_unexpected_character(self):
        with pytest.raises(QuerySyntaxError):
            tokenize("a ; b")

    def test_malformed_number(self):
        with pytest.raises(QuerySyntaxError):
            tokenize("x = 3.")


class TestParserStructure:
    def test_select_star(self):
        expression = parse_query("SELECT * FROM employees")
        assert isinstance(expression, RelationRef) and expression.name == "employees"

    def test_projection(self):
        expression = parse_query("SELECT name, salary FROM employees")
        assert isinstance(expression, Projection)
        assert expression.attributes == attrset(["name", "salary"])

    def test_where_builds_selection(self):
        expression = parse_query("SELECT * FROM employees WHERE salary > 5000")
        assert isinstance(expression, Selection)
        assert isinstance(expression.predicate, Comparison)

    def test_guard_clause(self):
        expression = parse_query("SELECT * FROM employees GUARD typing_speed, name")
        assert isinstance(expression, TypeGuardNode)
        assert expression.attributes == attrset(["typing_speed", "name"])

    def test_tag_clause(self):
        expression = parse_query("SELECT * FROM employees TAG source = 'hr'")
        assert expression.operator == "extend"
        assert expression.attribute == "source" and expression.value == "hr"

    def test_product_from_comma(self):
        expression = parse_query("SELECT * FROM a, b")
        assert isinstance(expression, Product)

    def test_join_with_on(self):
        expression = parse_query("SELECT * FROM a JOIN b ON (id)")
        assert isinstance(expression, NaturalJoin)
        assert expression.on == attrset(["id"])

    def test_natural_join_without_on(self):
        expression = parse_query("SELECT * FROM a NATURAL JOIN b")
        assert isinstance(expression, NaturalJoin) and expression.on is None

    def test_union_and_outer_union(self):
        assert isinstance(parse_query("SELECT * FROM a UNION SELECT * FROM b"), Union)
        assert isinstance(parse_query("SELECT * FROM a OUTER UNION SELECT * FROM b"), OuterUnion)
        assert isinstance(parse_query("SELECT * FROM a UNION OUTER SELECT * FROM b"), OuterUnion)

    def test_except(self):
        assert isinstance(parse_query("SELECT * FROM a EXCEPT SELECT * FROM b"), Difference)

    def test_predicate_combinators(self):
        expression = parse_query(
            "SELECT * FROM t WHERE NOT (a = 1 OR b = 2) AND c != 3"
        )
        predicate = expression.predicate
        assert isinstance(predicate, And)
        assert any(isinstance(op, Not) for op in predicate.operands)

    def test_has_predicate(self):
        expression = parse_query("SELECT * FROM t WHERE HAS typing_speed, products")
        assert isinstance(expression.predicate, PresencePredicate)

    def test_in_predicate(self):
        expression = parse_query("SELECT * FROM t WHERE jobtype IN ('a', 'b')")
        assert expression.predicate.op == "in" and expression.predicate.value == ["a", "b"]

    def test_attribute_comparison(self):
        expression = parse_query("SELECT * FROM t WHERE a = b")
        assert isinstance(expression.predicate, AttributeComparison)

    def test_literals(self):
        expression = parse_query("SELECT * FROM t WHERE a = TRUE AND b = NULL AND c = -2.5")
        comparisons = expression.predicate.operands
        assert comparisons[0].value is True
        assert comparisons[1].value is None
        assert comparisons[2].value == -2.5

    def test_projection_applied_last(self):
        expression = parse_query("SELECT name FROM t WHERE a = 1 GUARD b")
        assert isinstance(expression, Projection)
        assert isinstance(expression.child, TypeGuardNode)
        assert isinstance(expression.child.child, Selection)


class TestParserErrors:
    def test_missing_from(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("SELECT *")

    def test_trailing_garbage(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("SELECT * FROM t nonsense")

    def test_bad_tag(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("SELECT * FROM t TAG x > 1")

    def test_missing_literal(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("SELECT * FROM t WHERE a =")

    def test_unbalanced_parenthesis(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("SELECT * FROM t WHERE (a = 1")


class TestEndToEnd:
    def test_query_matches_hand_built_expression(self, employee_database):
        text = ("SELECT name, typing_speed FROM employees "
                "WHERE salary > 5000 AND jobtype = 'secretary' GUARD typing_speed")
        via_text = employee_database.query(text, optimize=False)
        hand_built = Projection(
            TypeGuardNode(
                Selection(RelationRef("employees"),
                          Comparison("salary", ">", 5000) & Comparison("jobtype", "=", "secretary")),
                ["typing_speed"],
            ),
            ["name", "typing_speed"],
        )
        via_algebra = employee_database.execute(hand_built, optimize=False)
        assert via_text.tuples == via_algebra.tuples

    def test_query_goes_through_the_optimizer(self, employee_database):
        text = ("SELECT * FROM employees "
                "WHERE salary > 5000 AND jobtype = 'secretary' GUARD typing_speed")
        optimized = employee_database.query(text)
        unoptimized = employee_database.query(text, optimize=False)
        assert optimized.tuples == unoptimized.tuples
        assert optimized.stats.total_work < unoptimized.stats.total_work

    def test_union_of_shapes(self, employee_database):
        text = ("SELECT * FROM employees WHERE jobtype = 'secretary' "
                "UNION SELECT * FROM employees WHERE jobtype = 'salesman'")
        result = employee_database.query(text)
        assert all(t["jobtype"] in ("secretary", "salesman") for t in result)

    def test_except(self, employee_database):
        everyone = employee_database.query("SELECT * FROM employees")
        rest = employee_database.query(
            "SELECT * FROM employees EXCEPT SELECT * FROM employees WHERE jobtype = 'secretary'")
        assert len(rest) == len(everyone) - sum(1 for t in everyone if t["jobtype"] == "secretary")

    def test_has_predicate_acts_as_guard(self, employee_database):
        result = employee_database.query("SELECT * FROM employees WHERE HAS sales_commission")
        assert all("sales_commission" in t for t in result)
        assert all(t["jobtype"] == "salesman" for t in result)

    def test_tagged_union_restores_dependencies(self, employee_database):
        text = ("SELECT * FROM employees WHERE jobtype = 'secretary' TAG origin = 'a' "
                "UNION SELECT * FROM employees WHERE jobtype = 'salesman' TAG origin = 'b'")
        expression = parse_query(text)
        dependencies = expression.known_dependencies(employee_database)
        assert any("origin" in d.lhs for d in dependencies)

    def test_in_and_projection(self, employee_database):
        result = employee_database.query(
            "SELECT jobtype FROM employees WHERE jobtype IN ('secretary', 'salesman')")
        assert {t["jobtype"] for t in result} <= {"secretary", "salesman"}


class TestTokenPositions:
    def test_a_string_token_records_where_it_starts(self):
        tokens = tokenize("a = 'x' 'it''s'")
        assert [(t.kind, t.value, t.position) for t in tokens[2:4]] == [
            ("STRING", "x", 4), ("STRING", "it's", 8)]

    def test_syntax_errors_point_at_the_offending_literal(self):
        with pytest.raises(QuerySyntaxError) as error:
            parse_query("SELECT * FROM r WHERE a = 'x' 'y'")
        assert "STRING('y') at position 30" in str(error.value)

    def test_every_token_position_is_its_first_character(self):
        text = "SELECT  a,b FROM r -- c 'd'\n WHERE a<=-1.5 AND b<>'z' OR c IN (TRUE, NULL)"
        for token in tokenize(text)[:-1]:
            again = tokenize(text[token.position:])[0]
            assert (again.kind, again.value, again.position) == (
                token.kind, token.value, 0)
