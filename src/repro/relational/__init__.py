"""Relational engine: expressions, SQL guard, sqlite bridge, columnar executor."""

from repro.relational.expressions import (Expr, evaluate_predicate,
                                          parse_expression)
from repro.relational.guard import validate_select_only
from repro.relational.sqlexec import ObjectStore, SQLExecutor, run_sql

__all__ = [
    "Expr",
    "ObjectStore",
    "SQLExecutor",
    "evaluate_predicate",
    "parse_expression",
    "run_sql",
    "validate_select_only",
]
