"""The Python operator against a per-row reference loop.

Every code-generation recipe runs over a column with ``None``s and must
give exactly what applying the compiled transform row by row gives: the
same values, the same inferred dtype, the same column store and the same
observation text.  Failures name the first failing row; modality columns
and forbidden code are refused.
"""

from __future__ import annotations

import pytest

from repro.data.columns import ColumnBuilder
from repro.data.datatypes import DataType, infer_type
from repro.data.schema import ColumnSpec, Schema
from repro.data.table import Table
from repro.errors import OperatorError, SandboxViolationError
from repro.operators.base import ExecutionContext
from repro.operators.python_udf import PythonOperator
from repro.udf.codegen import generate_udf
from repro.udf.sandbox import compile_udf

DT = DataType

TABLE = Table(
    Schema([ColumnSpec("inception", DT.STRING),
            ColumnSpec("title", DT.STRING),
            ColumnSpec("count", DT.INTEGER),
            ColumnSpec("price", DT.FLOAT),
            ColumnSpec("report", DT.TEXT)]),
    {"inception": ["1889-01-15", None, "1503-06-01", "1900-12-31",
                   "2000-01-01", None, "1889-01-15", "0999-03-03"],
     "title": ["The Starry Night", None, "Mona Lisa", "", "Guernica",
               "Room 101 of 7", "  spaced   words  ", "The Starry Night"],
     "count": [3, None, -7, 0, 12, None, 3, 2 ** 40],
     "price": [1.5, None, -0.0, 2.25, float("inf"), 1e-300, None, 3.0],
     "report": ["r"] * 8})

#: (description, input column) — one per recipe of repro.udf.codegen.
RECIPES = [
    ("extract the century", "inception"),
    ("extract the decade", "inception"),
    ("extract the year", "inception"),
    ("convert the title to uppercase", "title"),
    ("convert the title to lowercase", "title"),
    ("compute the length of the title", "title"),
    ("take the first word of the title", "title"),
    ("take the last word of the title", "title"),
    ("extract the number from the title", "title"),
    ("divide the count by 4", "count"),
    ("multiply the price by 2.5", "price"),
    ("add 10 to the count", "count"),
]


def reference_dtype(values: list[object]) -> DataType:
    """The per-value typing rule (infer_type per value, int+float widen)."""
    seen = {infer_type(value) for value in values if value is not None}
    if not seen:
        return DT.STRING
    if seen == {DT.INTEGER, DT.FLOAT}:
        return DT.FLOAT
    (dtype,) = seen
    return dtype


def reference_samples(values: list[object], limit: int = 3) -> list[object]:
    seen: list[object] = []
    for value in values:
        if value is not None and value not in seen:
            seen.append(value)
        if len(seen) >= limit:
            break
    return seen


def run(description: str, column: str, table: Table = TABLE):
    context = ExecutionContext(tables={"paintings": table})
    return PythonOperator().run(
        context, ["paintings", column, "derived", description])


@pytest.mark.parametrize("description,column", RECIPES)
def test_recipe_matches_a_per_row_loop(description, column):
    udf = generate_udf(description)
    transform = compile_udf(udf.source)
    expected = [None if value is None else transform(value)
                for value in TABLE.column(column)]
    dtype = reference_dtype(expected)
    builder = ColumnBuilder(dtype)
    for value in expected:
        builder.append(value)
    reference = builder.finish()

    result = run(description, column)
    table = result.table
    assert table.column_names == TABLE.column_names + ["derived"]
    assert table.dtype("derived") is dtype
    stored = table.storage("derived")
    assert type(stored) is type(reference)
    assert ([(type(v), repr(v)) for v in stored.iter_values()]
            == [(type(v), repr(v)) for v in expected])
    assert result.observation == (
        "New column 'derived' has been added via generated Python code:\n"
        f"{udf.source}Example values: {reference_samples(expected)}")
    # Nulls stay null and every other input column is untouched.
    assert all(out is None for out, src in zip(stored.iter_values(),
                                               TABLE.column(column))
               if src is None)
    for name in TABLE.column_names:
        assert table.storage(name) is TABLE.storage(name)


def test_recipes_cover_every_codegen_intent():
    sources = {generate_udf(description).source.splitlines()[1]
               for description, _ in RECIPES}
    assert len(sources) == len(RECIPES)


def test_failing_value_names_the_first_failing_row():
    table = Table(Schema([ColumnSpec("inception", DT.STRING)]),
                  {"inception": ["1889-01-15", None, "circa", "undated"]})
    with pytest.raises(OperatorError) as info:
        run("extract the century", "inception", table)
    message = str(info.value)
    assert "row 2" in message and "'circa'" in message
    assert "undated" not in message


def test_modality_input_is_rejected():
    with pytest.raises(OperatorError, match="relational columns only"):
        run("convert to uppercase", "report")


def test_unknown_column_and_description_are_operator_errors():
    with pytest.raises(OperatorError, match="no column"):
        run("extract the year", "missing")
    with pytest.raises(OperatorError, match="no code-generation recipe"):
        run("summon a dragon", "title")


@pytest.mark.parametrize("source,reason", [
    ("def transform(value):\n    import os\n    return value\n",
     "forbidden construct: Import"),
    ("def transform(value):\n    return value.__class__\n",
     "forbidden attribute access"),
    ("@staticmethod\ndef transform(value):\n    return value\n",
     "decorators are not allowed"),
])
def test_sandbox_rejects_forbidden_code(source, reason):
    with pytest.raises(SandboxViolationError, match=reason):
        compile_udf(source)
