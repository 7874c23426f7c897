"""Unit tests for the SQL emitter."""


from repro.query.predicate import (
    AnyPredicate,
    RangePredicate,
    SetPredicate,
)
from repro.query.query import ConjunctiveQuery
from repro.query.sql import (
    count_to_sql,
    predicate_to_sql,
    query_to_sql,
    quote_identifier,
    quote_literal,
)


class TestQuoting:
    def test_identifier(self):
        assert quote_identifier("Eye color") == '"Eye color"'

    def test_identifier_escapes_quotes(self):
        assert quote_identifier('we"ird') == '"we""ird"'

    def test_literal_escapes_quotes(self):
        assert quote_literal("O'Brien") == "'O''Brien'"


class TestPredicateToSql:
    def test_closed_range_uses_between(self):
        sql = predicate_to_sql(RangePredicate("Age", 17, 90))
        assert sql == '"Age" BETWEEN 17 AND 90'

    def test_open_bound_uses_comparison(self):
        sql = predicate_to_sql(
            RangePredicate("Age", 17, 90, closed_low=False)
        )
        assert sql == '"Age" > 17 AND "Age" <= 90'

    def test_one_sided_range(self):
        sql = predicate_to_sql(
            RangePredicate("x", float("-inf"), 3, closed_low=False)
        )
        assert sql == '"x" <= 3'

    def test_float_bounds(self):
        sql = predicate_to_sql(RangePredicate("x", 1.5, 2.5))
        assert "1.5" in sql and "2.5" in sql
        params: list[float] = []
        sql = predicate_to_sql(RangePredicate("x", 1.5, 7, closed_low=False), params)
        assert sql == '"x" > ? AND "x" <= 7'
        assert params == [1.5]

    def test_set_predicate(self):
        sql = predicate_to_sql(SetPredicate("Sex", ["Male", "Female"]))
        assert sql == "\"Sex\" IN ('Female', 'Male')"

    def test_any_predicate(self):
        assert predicate_to_sql(AnyPredicate("x")) == "TRUE"

    def test_double_infinite_range_is_true(self):
        sql = predicate_to_sql(
            RangePredicate(
                "x", float("-inf"), float("inf"),
                closed_low=False, closed_high=False,
            )
        )
        assert sql == "TRUE"


class TestQueryToSql:
    def test_full_query(self):
        query = ConjunctiveQuery(
            [
                RangePredicate("Age", 17, 90),
                AnyPredicate("Salary"),
                SetPredicate("Sex", ["Male"]),
            ]
        )
        sql = query_to_sql(query, "survey")
        assert sql == (
            'SELECT * FROM "survey" WHERE "Age" BETWEEN 17 AND 90 '
            "AND \"Sex\" IN ('Male')"
        )

    def test_unrestricted_query_has_no_where(self):
        sql = query_to_sql(ConjunctiveQuery([AnyPredicate("x")]), "t")
        assert sql == 'SELECT * FROM "t"'

    def test_count_query(self):
        query = ConjunctiveQuery([SetPredicate("c", ["a"])])
        assert count_to_sql(query, "t") == (
            "SELECT COUNT(*) FROM \"t\" WHERE \"c\" IN ('a')"
        )
