"""Relational engine: SQL guard, sqlite bridge, columnar executor."""

from repro.relational.guard import validate_select_only
from repro.relational.sqlexec import SQLBridge, run_sql

__all__ = [
    "SQLBridge",
    "run_sql",
    "validate_select_only",
]
