"""Tests for the predicate expression language and the dense-retrieval
stack — previously only exercised indirectly."""

import pytest

from repro.errors import ExpressionError, RetrievalError
from repro.relational import evaluate_predicate, parse_expression
from repro.retrieval import HashEmbedder, VectorIndex, tokenize


# ----------------------------------------------------------------------
# expressions
# ----------------------------------------------------------------------


def test_comparisons_and_boolean_operators():
    row = {"height": 201, "team": "Heat"}
    assert evaluate_predicate("height > 200 AND team = 'Heat'", row)
    assert not evaluate_predicate("height > 200 AND team = 'Bulls'", row)
    assert evaluate_predicate("height < 100 OR NOT team = 'Bulls'", row)
    assert evaluate_predicate("(height >= 201) AND (height <= 201)", row)
    assert evaluate_predicate("height != 200", row)


def test_null_like_in_between():
    assert evaluate_predicate("x IS NULL", {"x": None})
    assert evaluate_predicate("x IS NOT NULL", {"x": 1})
    assert evaluate_predicate("name LIKE 'An%'", {"name": "Ann"})
    assert not evaluate_predicate("name NOT LIKE 'An%'", {"name": "Ann"})
    assert evaluate_predicate("team IN ('Heat', 'Bulls')", {"team": "Heat"})
    assert evaluate_predicate("h BETWEEN 180 AND 210", {"h": 201})
    assert not evaluate_predicate("h BETWEEN 180 AND 200", {"h": 201})


def test_column_references_can_be_qualified():
    expr = parse_expression("p.height > 200")
    assert expr.evaluate({"height": 205})
    assert expr.evaluate({"p.height": 205})
    assert expr.referenced_columns() == {"height"}  # bare name


def test_expression_errors():
    with pytest.raises(ExpressionError):
        parse_expression("height >")
    with pytest.raises(ExpressionError):
        parse_expression("height ~ 3")
    with pytest.raises(ExpressionError):
        evaluate_predicate("missing = 1", {"present": 1})


# ----------------------------------------------------------------------
# retrieval
# ----------------------------------------------------------------------


def test_tokenize_drops_stopwords():
    assert tokenize("How many paintings are in the museum?") == \
        ["paintings", "museum"]


def test_embedder_similarity_orders_related_texts():
    embedder = HashEmbedder(dim=512)
    related = embedder.similarity("paintings of the museum",
                                  "museum paintings and artists")
    unrelated = embedder.similarity("paintings of the museum",
                                    "basketball game score report")
    assert related > unrelated
    with pytest.raises(ValueError):
        HashEmbedder(dim=0)


def test_vector_index_top_k():
    index = VectorIndex()
    index.add("paintings", "metadata about paintings and artists")
    index.add("reports", "textual reports of basketball games")
    index.add("teams", "basketball teams and their cities")
    assert len(index) == 3
    hits = index.search("which artist painted the most paintings", k=2)
    assert hits[0].key == "paintings"
    assert len(hits) <= 2


def test_vector_index_empty_search_raises():
    with pytest.raises(RetrievalError):
        VectorIndex().search("anything")
