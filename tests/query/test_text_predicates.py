"""Text predicates: tokenizing, masks, parsing, wire shape, registry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dataset.column import CategoricalColumn, NumericColumn
from repro.dataset.table import Table
from repro.errors import ConfigError, ParseError, PredicateError
from repro.query.parser import parse_predicate, parse_query
from repro.query.predicate import (
    AnyPredicate,
    ContainsPredicate,
    MatchPredicate,
    Predicate,
    register_predicate_kind,
    registered_predicate_kinds,
    tokenize_text,
)
from repro.query.sql import predicate_to_sql, query_to_sql


@pytest.fixture
def docs_table() -> Table:
    """Five short documents plus a numeric column to cut on."""
    return Table(
        [
            NumericColumn("hours", [1.0, 2.0, 3.0, 4.0, 5.0]),
            CategoricalColumn.from_values(
                "title",
                [
                    "disk outage in cluster",
                    "Disk latency spike",
                    "network timeout error",
                    "error: disk timeout",
                    "all systems nominal",
                ],
            ),
        ],
        name="docs",
    )


class TestTokenize:
    def test_lowercases_and_splits_on_non_alnum(self):
        assert tokenize_text("Error: Disk-Timeout!") == (
            "error",
            "disk",
            "timeout",
        )

    def test_keeps_digits(self):
        assert tokenize_text("node42 down") == ("node42", "down")

    def test_empty_text_has_no_tokens(self):
        assert tokenize_text("") == ()
        assert tokenize_text("!!! --- ???") == ()

    def test_preserves_duplicates_and_order(self):
        assert tokenize_text("a b a") == ("a", "b", "a")


class TestContainsMask:
    def test_case_insensitive_substring(self, docs_table):
        mask = ContainsPredicate("title", "disk").mask(docs_table)
        assert mask.tolist() == [True, True, False, True, False]

    def test_no_matching_label(self, docs_table):
        mask = ContainsPredicate("title", "kernel panic").mask(docs_table)
        assert not mask.any()
        assert mask.dtype == np.bool_

    def test_empty_needle_rejected(self):
        with pytest.raises(PredicateError):
            ContainsPredicate("title", "")


class TestMatchMask:
    def test_conjunctive_token_semantics(self, docs_table):
        mask = MatchPredicate("title", "disk timeout").mask(docs_table)
        # Only the label containing BOTH tokens survives.
        assert mask.tolist() == [False, False, False, True, False]

    def test_token_match_is_not_substring(self, docs_table):
        # "out" appears inside "outage"/"timeout" but is not a token.
        assert not MatchPredicate("title", "out").mask(docs_table).any()
        contains = ContainsPredicate("title", "out").mask(docs_table)
        assert contains.any()

    def test_tokenless_terms_rejected(self):
        with pytest.raises(PredicateError):
            MatchPredicate("title", "!!!")

    def test_terms_deduplicated_in_order(self):
        predicate = MatchPredicate("title", "timeout disk Timeout")
        assert predicate.terms == ("timeout", "disk")


class TestParser:
    def test_parse_contains_single_quotes(self):
        predicate = parse_predicate("title: contains 'disk'")
        assert isinstance(predicate, ContainsPredicate)
        assert predicate.needle == "disk"

    def test_parse_match_double_quotes(self):
        predicate = parse_predicate('title: match "error timeout"')
        assert isinstance(predicate, MatchPredicate)
        assert predicate.terms == ("error", "timeout")

    def test_operator_is_case_insensitive(self):
        predicate = parse_predicate("title: MATCH 'outage'")
        assert isinstance(predicate, MatchPredicate)

    def test_mixed_query_round_trips_through_describe(self):
        query = parse_query("hours: [1, 4]\ntitle: contains 'disk'")
        again = parse_query(query.describe())
        assert again.to_dict() == query.to_dict()

    def test_unquoted_text_body_is_rejected(self):
        with pytest.raises(ParseError):
            parse_predicate("title: contains disk")


class TestWire:
    def test_contains_round_trip(self):
        predicate = ContainsPredicate("title", "Disk")
        again = Predicate.from_dict(predicate.to_dict())
        assert isinstance(again, ContainsPredicate)
        assert again.to_dict() == predicate.to_dict()

    def test_match_round_trip(self):
        predicate = MatchPredicate("title", "error timeout")
        again = Predicate.from_dict(predicate.to_dict())
        assert isinstance(again, MatchPredicate)
        assert again.terms == predicate.terms

    def test_unknown_kind_is_typed_error(self):
        with pytest.raises(PredicateError, match="kind"):
            Predicate.from_dict({"kind": "regex", "attribute": "t"})


class TestAlgebra:
    def test_contains_intersect_absorbs_superstring(self):
        broad = ContainsPredicate("title", "disk")
        narrow = ContainsPredicate("title", "disk outage")
        assert broad.intersect(narrow) is narrow
        assert narrow.intersect(broad) is narrow

    def test_contains_intersect_unrelated_raises(self):
        left = ContainsPredicate("title", "disk")
        right = ContainsPredicate("title", "network")
        with pytest.raises(PredicateError):
            left.intersect(right)

    def test_match_intersect_unions_tokens(self):
        left = MatchPredicate("title", "disk")
        right = MatchPredicate("title", "timeout")
        merged = left.intersect(right)
        assert isinstance(merged, MatchPredicate)
        assert merged.terms == ("disk", "timeout")

    def test_any_is_identity(self, docs_table):
        predicate = MatchPredicate("title", "disk")
        assert predicate.intersect(AnyPredicate("title")) is predicate


class TestSqlPushdown:
    def test_contains_renders_and_quotes(self):
        sql = predicate_to_sql(ContainsPredicate("title", "o'clock"))
        assert sql == "contains(\"title\", 'o''clock')"

    def test_match_renders_joined_terms(self):
        sql = predicate_to_sql(MatchPredicate("title", "Error Timeout"))
        assert sql == "\"title\" MATCH 'error timeout'"

    def test_query_to_sql_mixes_kinds(self):
        query = parse_query("hours: [1, 4]\ntitle: contains 'disk'")
        sql = query_to_sql(query, "docs")
        assert '"hours" BETWEEN 1 AND 4' in sql
        assert "contains(\"title\", 'disk')" in sql

    def test_sql_agrees_with_mask(self, docs_table):
        from repro.db.connection import SqlConnection

        connection = SqlConnection({"docs": docs_table})
        for text in ("title: match 'disk timeout'", "title: contains 'DISK'"):
            query = parse_query(text)
            result = connection.query(query_to_sql(query, "docs"))
            assert result.n_rows == query.count(docs_table)


class TestRegistry:
    def test_builtin_kinds_registered(self):
        kinds = registered_predicate_kinds()
        assert "contains" in kinds
        assert "match" in kinds

    def test_duplicate_registration_is_config_error(self):
        with pytest.raises(ConfigError, match="already registered"):
            register_predicate_kind(
                "contains", lambda data: ContainsPredicate("t", "x")
            )

    def test_invalid_kind_and_builder_rejected(self):
        with pytest.raises(ConfigError):
            register_predicate_kind("", lambda data: None)  # type: ignore[arg-type,return-value]
        with pytest.raises(ConfigError):
            register_predicate_kind("custom", None)  # type: ignore[arg-type]

    def test_overwrite_registers_and_restores(self):
        sentinel = ContainsPredicate("title", "sentinel")
        original = dict(
            __import__(
                "repro.query.predicate", fromlist=["_PREDICATE_KINDS"]
            )._PREDICATE_KINDS
        )
        try:
            register_predicate_kind(
                "contains", lambda data: sentinel, overwrite=True
            )
            assert Predicate.from_dict({"kind": "contains"}) is sentinel
        finally:
            register_predicate_kind(
                "contains", original["contains"], overwrite=True
            )
