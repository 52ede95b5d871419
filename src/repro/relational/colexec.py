"""Columnar SQL execution: run the engine's SELECT dialect without sqlite.

The mapping phase emits SQL from a closed grammar (single-table filters,
USING / ON equi-joins, grouped and whole-table aggregates, ORDER BY +
LIMIT superlatives, DISTINCT projections).  This module parses that
dialect and executes it directly over :class:`repro.data.table.Table`
column storage — vectorized numpy kernels over the typed buffers of
:mod:`repro.data.columns`, dictionary-coded string predicates — without
copying a single row into sqlite.

Byte-identical output is the contract.  Results reproduce the sqlite
bridge exactly: the same cell values (dates as ISO strings, bools as
ints), the same inferred result dtypes, the same row order (sqlite's
left-row-major joins, NULLs-first ascending sorts, first-occurrence
DISTINCT), the same duplicate-name suffixing.  Any statement — or data
shape — outside the envelope where that equivalence is *proven* raises
:class:`UnsupportedSQL` and the caller falls back to the bridge, so
correctness never depends on this module being clever enough.

Two execution engines share the parser and the guards:

``columnar``
    Filters via numpy masks over typed column buffers; aggregates and
    ordering over adapted (sqlite-representation) values.

``native``
    The same parsed statement routed through the row-wise operators in
    :mod:`repro.relational.ops` (``select`` / ``join`` /
    ``group_aggregate`` / ``distinct``), then adapted.  This is the
    third corner of the differential fuzzer's triangle.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from datetime import date
from typing import Callable, Sequence

import numpy as np

from repro.data.columns import (BoolColumn, Column, DateColumn, FloatColumn,
                                IntColumn, ObjectColumn, StringColumn,
                                build_column)
from repro.data.datatypes import DataType
from repro.data.schema import ColumnSpec, Schema
from repro.data.table import Table
from repro.relational import ops
from repro.relational.expressions import (Between, BoolOp, ColumnRef,
                                          Comparison, Expr, InList, IsNull,
                                          Like, Literal)
from repro.relational.sqlexec import _adapt_cell, _infer_sql_dtype

_INT64_MIN = -(2 ** 63)
_INT64_MAX = 2 ** 63 - 1
# Above 2**53 a float cannot represent every integer, so Python's exact
# int arithmetic and sqlite's double-based AVG start disagreeing.
_EXACT_FLOAT_INT = 2 ** 53


class UnsupportedSQL(Exception):
    """Statement (or data shape) outside the columnar executor's envelope."""


# ----------------------------------------------------------------------
# Tokenizer
# ----------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<number>-?\d+\.\d+|-?\d+)
      | (?P<string>'(?:[^']|'')*')
      | (?P<ident>"(?:[^"]|"")*")
      | (?P<op><>|!=|<=|>=|=|<|>)
      | (?P<punct>[(),.*])
      | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
    )""",
    re.VERBOSE,
)

_KEYWORDS = frozenset({
    "select", "distinct", "from", "where", "group", "by", "order", "limit",
    "asc", "desc", "join", "cross", "on", "using", "as", "and", "or", "not",
    "between", "like", "in", "is", "null",
    "count", "sum", "avg", "min", "max",
})

_AGG_FUNCS = ("count", "sum", "avg", "min", "max")


def _tokenize(sql: str) -> list[tuple[str, object]]:
    tokens: list[tuple[str, object]] = []
    pos = 0
    text = sql.strip().rstrip(";").rstrip()
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            if not text[pos:].strip():
                break
            raise UnsupportedSQL(f"cannot tokenize SQL at {text[pos:pos+20]!r}")
        pos = match.end()
        if match.group("number") is not None:
            raw = match.group("number")
            tokens.append(("num", float(raw) if "." in raw else int(raw)))
        elif match.group("string") is not None:
            tokens.append(("str", match.group("string")[1:-1].replace("''", "'")))
        elif match.group("ident") is not None:
            tokens.append(("ident", match.group("ident")[1:-1].replace('""', '"')))
        elif match.group("op") is not None:
            tokens.append(("op", match.group("op")))
        elif match.group("punct") is not None:
            tokens.append(("punct", match.group("punct")))
        else:
            tokens.append(("word", match.group("word")))
    return tokens


# ----------------------------------------------------------------------
# Statement IR
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AggItem:
    func: str                      # count | sum | avg | min | max
    column: tuple[str | None, str] | None  # (qualifier, name); None = COUNT(*)
    distinct: bool
    alias: str


@dataclass(frozen=True)
class ColItem:
    qualifier: str | None
    name: str
    alias: str | None

    @property
    def output_name(self) -> str:
        return self.alias if self.alias is not None else self.name


@dataclass(frozen=True)
class JoinClause:
    right: str
    using: str | None = None
    # ON form: <left_qual>.<left_col> = <right_qual>.<right_col>
    on: tuple[str, str, str, str] | None = None


@dataclass(frozen=True)
class SelectStatement:
    table: str
    join: JoinClause | None
    star: bool
    items: tuple[object, ...]      # ColItem | AggItem, empty when star
    distinct: bool
    where: Expr | None
    group_by: tuple[str | None, str] | None
    order_by: tuple[str | None, str, bool] | None  # (qual, name, descending)
    limit: int | None


class _Parser:
    def __init__(self, tokens: list[tuple[str, object]], source: str):
        self._tokens = tokens
        self._source = source
        self._pos = 0

    def _fail(self, why: str) -> UnsupportedSQL:
        return UnsupportedSQL(f"{why} (query: {self._source})")

    def _peek(self, ahead: int = 0) -> tuple[str, object] | None:
        index = self._pos + ahead
        return self._tokens[index] if index < len(self._tokens) else None

    def _next(self) -> tuple[str, object]:
        token = self._peek()
        if token is None:
            raise self._fail("unexpected end of statement")
        self._pos += 1
        return token

    def _accept_word(self, word: str) -> bool:
        token = self._peek()
        if token and token[0] == "word" and str(token[1]).lower() == word:
            self._pos += 1
            return True
        return False

    def _expect_word(self, word: str) -> None:
        if not self._accept_word(word):
            raise self._fail(f"expected {word.upper()}")

    def _accept_punct(self, punct: str) -> bool:
        token = self._peek()
        if token and token == ("punct", punct):
            self._pos += 1
            return True
        return False

    def _expect_punct(self, punct: str) -> None:
        if not self._accept_punct(punct):
            raise self._fail(f"expected {punct!r}")

    def _ident(self) -> str:
        token = self._next()
        if token[0] == "ident":
            return str(token[1])
        if token[0] == "word" and str(token[1]).lower() not in _KEYWORDS:
            return str(token[1])
        raise self._fail(f"expected identifier, found {token[1]!r}")

    def _colref(self) -> tuple[str | None, str]:
        first = self._ident()
        if self._accept_punct("."):
            return first, self._ident()
        return None, first

    def _alias(self, required: bool) -> str | None:
        if self._accept_word("as"):
            return self._ident()
        if required:
            raise self._fail("aggregate items need an AS alias")
        return None

    # -- select list ----------------------------------------------------

    def _select_item(self) -> object:
        token = self._peek()
        following = self._peek(1)
        if (token is not None and token[0] == "word"
                and str(token[1]).lower() in _AGG_FUNCS
                and following == ("punct", "(")):
            func = str(self._next()[1]).lower()
            self._expect_punct("(")
            distinct = False
            column: tuple[str | None, str] | None
            if func == "count" and self._accept_punct("*"):
                column = None
            else:
                distinct = self._accept_word("distinct")
                if distinct and func != "count":
                    raise self._fail("DISTINCT only supported inside COUNT")
                column = self._colref()
            self._expect_punct(")")
            alias = self._alias(required=True)
            return AggItem(func, column, distinct, alias)
        qualifier, name = self._colref()
        return ColItem(qualifier, name, self._alias(required=False))

    # -- WHERE expressions ----------------------------------------------

    def _literal(self) -> object:
        token = self._next()
        if token[0] in ("num", "str"):
            return token[1]
        raise self._fail(f"expected literal, found {token[1]!r}")

    def _predicate(self) -> Expr:
        if self._accept_punct("("):
            inner = self._or_expr()
            self._expect_punct(")")
            return inner
        token = self._peek()
        if token is not None and (
                token[0] in ("num", "str")
                or (token[0] == "word"
                    and str(token[1]).lower() in ("not", "null"))):
            raise self._fail("only <column> <op> <literal> predicates "
                             "are supported")
        qualifier, name = self._colref()
        if qualifier is not None:
            raise self._fail("qualified columns in WHERE are not supported")
        column = ColumnRef(name)
        token = self._peek()
        if token is None:
            raise self._fail("dangling column reference in WHERE")
        if token[0] == "op":
            op = str(self._next()[1])
            return Comparison(op, column, Literal(self._literal()))
        if token[0] == "word":
            word = str(token[1]).lower()
            if word == "between":
                self._next()
                low = self._literal()
                self._expect_word("and")
                return Between(column, Literal(low),
                               Literal(self._literal()))
            if word == "is":
                self._next()
                negated = self._accept_word("not")
                self._expect_word("null")
                return IsNull(column, negated=negated)
            negated = False
            if word == "not":
                self._next()
                token = self._peek()
                word = (str(token[1]).lower()
                        if token and token[0] == "word" else "")
                negated = True
            if word == "like":
                self._next()
                pattern = self._next()
                if pattern[0] != "str":
                    raise self._fail("LIKE needs a string pattern")
                return Like(column, str(pattern[1]), negated=negated)
            if word == "in":
                self._next()
                self._expect_punct("(")
                values = [self._literal()]
                while self._accept_punct(","):
                    values.append(self._literal())
                self._expect_punct(")")
                return InList(column, tuple(values), negated=negated)
        raise self._fail("unsupported predicate shape")

    def _and_expr(self) -> Expr:
        operands = [self._predicate()]
        while self._accept_word("and"):
            operands.append(self._predicate())
        return operands[0] if len(operands) == 1 else BoolOp("and",
                                                             tuple(operands))

    def _or_expr(self) -> Expr:
        operands = [self._and_expr()]
        while self._accept_word("or"):
            operands.append(self._and_expr())
        return operands[0] if len(operands) == 1 else BoolOp("or",
                                                             tuple(operands))

    # -- the statement --------------------------------------------------

    def parse(self) -> SelectStatement:
        self._expect_word("select")
        distinct = self._accept_word("distinct")
        star = False
        items: list[object] = []
        if self._accept_punct("*"):
            star = True
        else:
            items.append(self._select_item())
            while self._accept_punct(","):
                items.append(self._select_item())
        self._expect_word("from")
        table = self._ident()

        join: JoinClause | None = None
        if self._accept_word("join"):
            right = self._ident()
            self._expect_word("using")
            self._expect_punct("(")
            key = self._ident()
            self._expect_punct(")")
            join = JoinClause(right, using=key)
        elif self._accept_word("cross"):
            self._expect_word("join")
            right = self._ident()
            self._expect_word("on")
            left_qual, left_col = self._colref()
            token = self._next()
            if token != ("op", "="):
                raise self._fail("join ON only supports equality")
            right_qual, right_col = self._colref()
            if left_qual is None or right_qual is None:
                raise self._fail("join ON needs qualified columns")
            join = JoinClause(right, on=(left_qual, left_col,
                                         right_qual, right_col))

        where = self._or_expr() if self._accept_word("where") else None

        group_by: tuple[str | None, str] | None = None
        if self._accept_word("group"):
            self._expect_word("by")
            group_by = self._colref()
            if self._peek() == ("punct", ","):
                raise self._fail("multi-column GROUP BY is not supported")

        order_by: tuple[str | None, str, bool] | None = None
        if self._accept_word("order"):
            self._expect_word("by")
            qualifier, name = self._colref()
            descending = False
            if self._accept_word("desc"):
                descending = True
            else:
                self._accept_word("asc")
            order_by = (qualifier, name, descending)
            if self._peek() == ("punct", ","):
                raise self._fail("multi-column ORDER BY is not supported")

        limit: int | None = None
        if self._accept_word("limit"):
            token = self._next()
            if token[0] != "num" or not isinstance(token[1], int) \
                    or token[1] < 0:
                raise self._fail("LIMIT needs a non-negative integer")
            limit = token[1]

        if self._peek() is not None:
            raise self._fail(f"trailing tokens from {self._peek()[1]!r}")
        if distinct and order_by is not None:
            raise self._fail("DISTINCT with ORDER BY is not supported")
        return SelectStatement(table, join, star, tuple(items), distinct,
                               where, group_by, order_by, limit)


def parse_select(sql: str) -> SelectStatement:
    """Parse *sql*; raises :class:`UnsupportedSQL` outside the dialect."""
    return _Parser(_tokenize(sql), sql).parse()


# ----------------------------------------------------------------------
# Adapted column access (sqlite cell representation)
# ----------------------------------------------------------------------

_SCALARS = (int, float, str)


def _adapted_column(table: Table, name: str) -> list[object]:
    """The column in sqlite's cell representation (bool→int, date→ISO).

    For int / float / string columns the memoized ``materialize()`` list
    *is* the adapted form, so repeated queries over a warm lake pay
    nothing.  Bool / date / object adaptations are memoized on the table
    (immutable once built) for the same reason.  Raises
    :class:`UnsupportedSQL` for object cells sqlite could not have bound
    either.
    """
    storage = table.storage(name)
    if isinstance(storage, (IntColumn, FloatColumn, StringColumn)):
        return storage.materialize()
    cache = getattr(table, "_sql_adapted", None)
    if cache is None:
        cache = table._sql_adapted = {}
    cached = cache.get(name)
    if cached is not None:
        return cached
    if isinstance(storage, BoolColumn):
        adapted = [None if v is None else int(v)
                   for v in storage.iter_values()]
    elif isinstance(storage, DateColumn):
        adapted = [None if v is None else v.isoformat()
                   for v in storage.iter_values()]
    else:
        adapted = []
        for value in storage.materialize():
            if value is None or type(value) in _SCALARS:
                adapted.append(value)
            elif isinstance(value, (bool, date)):
                adapted.append(_adapt_cell(value))
            else:
                raise UnsupportedSQL(
                    f"column {name!r} holds non-SQL values "
                    f"({type(value).__name__})")
    cache[name] = adapted
    return adapted


def _column_kind(values: Sequence[object]) -> str:
    """``num`` / ``str`` / ``empty`` over adapted values."""
    kinds = {type(v) for v in values if v is not None}
    if not kinds:
        return "empty"
    if kinds <= {int, float}:
        return "num"
    if kinds == {str}:
        return "str"
    return "other"


def _strict_iso_date(text: str) -> date | None:
    """Parse *text* as a zero-padded ISO date, else ``None``.

    Only for exact ISO literals is ordinal comparison equivalent to the
    lexicographic TEXT comparison sqlite performs on stored date strings.
    """
    try:
        parsed = date.fromisoformat(text)
    except (ValueError, TypeError):
        return None
    return parsed if parsed.isoformat() == text else None


# ----------------------------------------------------------------------
# Predicate guards
# ----------------------------------------------------------------------


def _literal_class(value: object) -> str:
    if type(value) in (int, float):
        return "num"
    if type(value) is str:
        return "str"
    raise UnsupportedSQL(f"unsupported literal {value!r}")


class _Source:
    """One statement's source table plus per-column adapted caches."""

    def __init__(self, table: Table):
        self.table = table
        self._adapted: dict[str, list[object]] = {}
        self._kinds: dict[str, str] = {}

    def adapted(self, name: str) -> list[object]:
        cached = self._adapted.get(name)
        if cached is None:
            cached = _adapted_column(self.table, name)
            self._adapted[name] = cached
        return cached

    def kind(self, name: str) -> str:
        cached = self._kinds.get(name)
        if cached is None:
            storage = self.table.storage(name)
            if isinstance(storage, (IntColumn, FloatColumn, BoolColumn)):
                cached = "num"
            elif isinstance(storage, (StringColumn, DateColumn)):
                cached = "str"
            else:
                cached = _column_kind(self.adapted(name))
            if len(storage) == 0:
                cached = "empty"
            self._kinds[name] = cached
        return cached

    def is_date(self, name: str) -> bool:
        return self.table.dtype(name) == DataType.DATE


def _predicate_column(source: _Source, expr: Expr) -> str:
    operand = getattr(expr, "operand", None) or getattr(expr, "left", None)
    if not isinstance(operand, ColumnRef):
        raise UnsupportedSQL("predicates must compare a column")
    name = operand.name
    if name not in source.table:
        raise UnsupportedSQL(f"unknown column {name!r} in WHERE")
    if source.table.dtype(name).is_modality and not isinstance(expr, IsNull):
        raise UnsupportedSQL(f"cannot compare modality column {name!r}")
    return name


def _guard_predicate(source: _Source, expr: Expr, engine: str) -> None:
    """Reject predicate / data combinations whose native or columnar
    evaluation is not provably identical to sqlite's."""
    if isinstance(expr, BoolOp):
        for operand in expr.operands:
            _guard_predicate(source, operand, engine)
        return
    if isinstance(expr, IsNull):
        _predicate_column(source, expr)
        return
    name = _predicate_column(source, expr)
    kind = source.kind(name)
    if kind == "other":
        raise UnsupportedSQL(f"mixed-type column {name!r} in WHERE")

    def check_literal(value: object) -> None:
        cls = _literal_class(value)
        if kind != "empty" and cls != kind:
            # sqlite orders across storage classes; the native engine
            # coerces. Type-mismatched comparisons leave the envelope.
            raise UnsupportedSQL(
                f"{cls} literal against {kind} column {name!r}")
        if (engine == "native" and source.is_date(name) and cls == "str"
                and _strict_iso_date(str(value)) is None):
            # Raw dates vs. a non-ISO string: expressions._compare
            # collapses to False where sqlite compares text.
            raise UnsupportedSQL(
                f"non-ISO literal {value!r} against date column {name!r}")

    if isinstance(expr, Comparison):
        if not isinstance(expr.right, Literal):
            raise UnsupportedSQL("comparison needs a literal right side")
        check_literal(expr.right.value)
    elif isinstance(expr, Between):
        for bound in (expr.low, expr.high):
            if not isinstance(bound, Literal):
                raise UnsupportedSQL("BETWEEN needs literal bounds")
            check_literal(bound.value)
    elif isinstance(expr, InList):
        for value in expr.values:
            check_literal(value)
        if engine == "native" and source.is_date(name):
            # InList membership tests raw dates against strings.
            raise UnsupportedSQL("IN over a date column (native)")
    elif isinstance(expr, Like):
        if kind not in ("str", "empty"):
            raise UnsupportedSQL(f"LIKE over non-text column {name!r}")
    else:
        raise UnsupportedSQL(f"unsupported predicate {type(expr).__name__}")


# ----------------------------------------------------------------------
# Columnar filter kernels
# ----------------------------------------------------------------------

_PY_OPS: dict[str, Callable[[object, object], object]] = {
    "=": operator.eq, "==": operator.eq,
    "!=": operator.ne, "<>": operator.ne,
    "<": operator.lt, "<=": operator.le,
    ">": operator.gt, ">=": operator.ge,
}


def _like_regex(pattern: str) -> re.Pattern:
    regex = re.escape(pattern).replace(r"%", ".*").replace(r"_", ".")
    return re.compile(regex, re.IGNORECASE)


def _numeric_buffer(storage: object) -> tuple[np.ndarray, np.ndarray]:
    """(values, notnull) numpy views over a typed column's buffers."""
    if isinstance(storage, IntColumn):
        values = np.frombuffer(storage.data, dtype=np.int64)
    elif isinstance(storage, DateColumn):
        values = np.frombuffer(storage.data, dtype=np.int64)
    elif isinstance(storage, FloatColumn):
        values = np.frombuffer(storage.data, dtype=np.float64)
    else:  # BoolColumn
        values = np.frombuffer(bytes(storage.data), dtype=np.uint8)
    notnull = np.frombuffer(bytes(storage.nulls), dtype=np.uint8) == 0
    return values, notnull


def _string_codes(storage: StringColumn) -> np.ndarray:
    return np.frombuffer(storage.codes, dtype=np.int32)


def _pool_matches(storage: StringColumn,
                  predicate: Callable[[str], bool]) -> np.ndarray:
    allowed = np.array([i for i, text in enumerate(storage.pool)
                        if predicate(text)], dtype=np.int32)
    return np.isin(_string_codes(storage), allowed)


# Pool → numpy unicode array, memoized.  Pools are immutable once their
# column is inside a table and are shared across takes/joins, so one
# conversion serves every later predicate.  ``None`` marks a pool whose
# strings contain NULs: numpy pads with U+0000, so code-point ordering
# is only identical to Python's for NUL-free strings.  Entries hold the
# pool itself, which both pins ``id()`` and lets staleness be detected.
_POOL_ARRAYS: dict[int, tuple[list[str], np.ndarray | None]] = {}


def _pool_array(pool: list[str]) -> np.ndarray | None:
    entry = _POOL_ARRAYS.get(id(pool))
    if entry is not None and entry[0] is pool \
            and (entry[1] is None or len(entry[1]) == len(pool)):
        return entry[1]
    if len(_POOL_ARRAYS) > 64:
        _POOL_ARRAYS.clear()
    converted = None
    if not any("\x00" in text for text in pool):
        converted = np.array(pool, dtype=str) if pool else \
            np.empty(0, dtype=str)
    _POOL_ARRAYS[id(pool)] = (pool, converted)
    return converted


# Pool → lexicographic rank of each entry, memoized like _POOL_ARRAYS.
# ``ranks[code]`` orders codes the way Python orders the strings, so
# string min/max reduce to integer argmin/argmax instead of sorting the
# kept texts on every aggregate.
_POOL_RANKS: dict[int, tuple[list[str], np.ndarray]] = {}


def _pool_ranks(pool: list[str]) -> np.ndarray | None:
    entry = _POOL_RANKS.get(id(pool))
    if entry is not None and entry[0] is pool \
            and len(entry[1]) == len(pool):
        return entry[1]
    pool_array = _pool_array(pool)
    if pool_array is None:
        return None  # NUL-bearing pool: numpy ordering diverges
    if len(_POOL_RANKS) > 64:
        _POOL_RANKS.clear()
    ranks = np.empty(len(pool), dtype=np.int64)
    ranks[np.argsort(pool_array, kind="stable")] = np.arange(len(pool))
    _POOL_RANKS[id(pool)] = (pool, ranks)
    return ranks


def _comparison_mask(source: _Source, name: str, op: str,
                     literal: object) -> np.ndarray | None:
    storage = source.table.storage(name)
    apply_op = _PY_OPS[op]
    if isinstance(storage, (IntColumn, FloatColumn, BoolColumn)):
        if not isinstance(literal, (int, float)) or isinstance(literal, bool) \
                or (isinstance(literal, int)
                    and not _INT64_MIN <= literal <= _INT64_MAX):
            return None  # adapted row fallback
        values, notnull = _numeric_buffer(storage)
        return apply_op(values, literal) & notnull
    if isinstance(storage, DateColumn):
        parsed = _strict_iso_date(str(literal)) \
            if isinstance(literal, str) else None
        if parsed is None:
            return None  # lexicographic comparison: adapted row fallback
        values, notnull = _numeric_buffer(storage)
        return apply_op(values, parsed.toordinal()) & notnull
    if isinstance(storage, StringColumn):
        if not isinstance(literal, str):
            return None
        if op in ("=", "==", "!=", "<>"):
            # Dictionary-encoded equality: one index probe plus a vector
            # compare on the codes, no pool scan.
            codes = _string_codes(storage)
            code = storage.code_of(literal)
            if op in ("=", "=="):
                return (codes == code if code is not None
                        else np.zeros(len(codes), dtype=bool))
            notnull = codes >= 0
            return notnull if code is None else notnull & (codes != code)
        # Ordered comparisons (< <= > >=): numpy's unicode compare is the
        # same code-point ordering as Python's, so the pool scan runs
        # vectorized instead of through a per-entry lambda.  NUL-bearing
        # pools or literals take the exact per-entry path.
        pool_array = _pool_array(storage.pool)
        if pool_array is not None and "\x00" not in literal:
            allowed = np.flatnonzero(apply_op(pool_array, literal)) \
                .astype(np.int32)
            return np.isin(_string_codes(storage), allowed)
        return _pool_matches(storage,
                             lambda text: bool(apply_op(text, literal)))
    return None


def _compile_mask(source: _Source, expr: Expr) -> np.ndarray | None:
    """A numpy boolean mask for *expr*, or ``None`` when a referenced
    column has no typed kernel (the caller falls back to row evaluation;
    the guards already proved that fallback matches sqlite)."""
    if isinstance(expr, BoolOp):
        masks = []
        for operand in expr.operands:
            mask = _compile_mask(source, operand)
            if mask is None:
                return None
            masks.append(mask)
        combined = masks[0]
        for mask in masks[1:]:
            combined = (combined & mask if expr.op == "and"
                        else combined | mask)
        return combined
    if isinstance(expr, Comparison):
        name = expr.left.name  # type: ignore[union-attr]
        return _comparison_mask(source, name, expr.op,
                                expr.right.value)  # type: ignore[union-attr]
    if isinstance(expr, Between):
        name = expr.operand.name  # type: ignore[union-attr]
        low = _comparison_mask(source, name, ">=",
                               expr.low.value)  # type: ignore[union-attr]
        high = _comparison_mask(source, name, "<=",
                                expr.high.value)  # type: ignore[union-attr]
        if low is None or high is None:
            return None
        return low & high
    if isinstance(expr, InList):
        name = expr.operand.name  # type: ignore[union-attr]
        storage = source.table.storage(name)
        if isinstance(storage, StringColumn):
            # Only string members can equal a pool text; map them to
            # dictionary codes instead of scanning the pool.
            allowed = np.array(
                sorted({code for value in expr.values
                        if isinstance(value, str)
                        and (code := storage.code_of(value)) is not None}),
                dtype=np.int32)
            base = np.isin(_string_codes(storage), allowed)
        else:
            base = None
            for value in expr.values:
                mask = _comparison_mask(source, name, "=", value)
                if mask is None:
                    return None
                base = mask if base is None else base | mask
            if base is None:
                base = np.zeros(source.table.num_rows, dtype=bool)
        if expr.negated:
            return _notnull_mask(source, name) & ~base
        return base
    if isinstance(expr, Like):
        name = expr.operand.name  # type: ignore[union-attr]
        storage = source.table.storage(name)
        if not isinstance(storage, StringColumn):
            return None
        regex = _like_regex(expr.pattern)
        base = _pool_matches(
            storage, lambda text: regex.fullmatch(text) is not None)
        if expr.negated:
            return _notnull_mask(source, name) & ~base
        return base
    if isinstance(expr, IsNull):
        notnull = _notnull_mask(source, expr.operand.name)  # type: ignore[union-attr]
        if notnull is None:
            return None
        return notnull if expr.negated else ~notnull
    return None


def _notnull_mask(source: _Source, name: str) -> np.ndarray | None:
    storage = source.table.storage(name)
    if isinstance(storage, (IntColumn, FloatColumn, BoolColumn, DateColumn)):
        return np.frombuffer(bytes(storage.nulls), dtype=np.uint8) == 0
    if isinstance(storage, StringColumn):
        return _string_codes(storage) >= 0
    return None


def _filter_indices(source: _Source, expr: Expr) -> list[int]:
    mask = _compile_mask(source, expr)
    if mask is not None:
        return np.flatnonzero(mask).tolist()
    columns = {}
    for name in expr.referenced_columns():
        if source.table.dtype(name).is_modality:
            # Only IS NULL can reference modality columns (guarded), and
            # it needs the raw objects, not adapted cells.
            columns[name] = source.table.storage(name).materialize()
        else:
            columns[name] = source.adapted(name)
    indices = []
    for i in range(source.table.num_rows):
        row = {name: values[i] for name, values in columns.items()}
        if expr.evaluate(row):
            indices.append(i)
    return indices


# ----------------------------------------------------------------------
# Ordering / aggregation primitives (sqlite semantics)
# ----------------------------------------------------------------------


def _order_indices(indices: Sequence[int], values: Sequence[object],
                   descending: bool) -> list[int]:
    """Stable sort of *indices* by *values*, with sqlite NULL placement:
    NULLs first ascending, last descending."""
    nulls = [i for i in indices if values[i] is None]
    rest = [i for i in indices if values[i] is not None]
    try:
        rest.sort(key=lambda i: values[i], reverse=descending)
    except TypeError as exc:
        raise UnsupportedSQL("mixed-type ORDER BY column") from exc
    return rest + nulls if descending else nulls + rest


def _ordered_group_keys(keys: Sequence[object],
                        descending: bool) -> list[object]:
    """Group keys in sqlite output order: sorted, NULL group first
    ascending / last descending."""
    has_null = any(k is None for k in keys)
    rest = [k for k in keys if k is not None]
    try:
        rest.sort(reverse=descending)
    except TypeError as exc:
        raise UnsupportedSQL("mixed-type GROUP BY column") from exc
    if not has_null:
        return rest
    return rest + [None] if descending else [None] + rest


def _int_sum_bound(values: Sequence[object], func: str) -> None:
    """Decline integer SUM / AVG whose group sums could leave the range
    where Python and sqlite provably agree (int64 overflow errors for
    SUM, double rounding for AVG)."""
    magnitude = sum(abs(v) for v in values if v is not None)
    limit = _EXACT_FLOAT_INT if func == "avg" else _INT64_MAX
    if magnitude > limit:
        raise UnsupportedSQL(f"{func} beyond exact integer range")


def _agg_over(func: str, distinct: bool, values: list[object]) -> object:
    """One aggregate over adapted *values*, with sqlite's semantics."""
    kept = [v for v in values if v is not None]
    if func == "count":
        return len(set(kept)) if distinct else len(kept)
    if not kept:
        return None
    if func in ("sum", "avg"):
        if all(type(v) is int for v in kept):
            total = sum(kept)
            return total if func == "sum" else total / len(kept)
        if all(type(v) is float for v in kept):
            total = ops.sqlite_float_sum(kept)
            return total if func == "sum" else total / len(kept)
        raise UnsupportedSQL(f"{func} over mixed-type values")
    # min / max
    kinds = {type(v) for v in kept}
    if not (kinds <= {int, float} or kinds == {str}):
        raise UnsupportedSQL(f"{func} over mixed-type values")
    return min(kept) if func == "min" else max(kept)


_AGG_MISS = object()


def _masked_int64(storage: IntColumn | DateColumn,
                  members: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """(raw int64 values, notnull) gathered at *members*."""
    values = np.frombuffer(storage.data, dtype=np.int64)[members]
    notnull = np.frombuffer(bytes(storage.nulls),
                            dtype=np.uint8)[members] == 0
    return values, notnull


def _agg_fast(table: Table, column: str, func: str, distinct: bool,
              members: Sequence[int]) -> object:
    """One aggregate straight off typed storage, or ``_AGG_MISS``.

    Only cases provably identical to :func:`_agg_over` over the adapted
    values run here: counts are non-null counts, int64 min/max/sum are
    exact, date min/max maps through ordinals (ISO strings order the
    same way), and int sums stay well inside the range the guard already
    proved.  Everything else — distinct, floats (NaN ordering, sequential
    rounding), promoted columns — falls back to the adapted-value path.
    """
    if distinct:
        return _AGG_MISS
    storage = table.storage(column)
    if isinstance(storage, (IntColumn, DateColumn)):
        values, notnull = _masked_int64(storage, members)
        if func == "count":
            return int(notnull.sum())
        kept = values[notnull]
        if kept.size == 0:
            return None
        if func in ("min", "max"):
            winner = int(kept.min() if func == "min" else kept.max())
            if isinstance(storage, DateColumn):
                return date.fromordinal(winner).isoformat()
            return winner
        if isinstance(storage, DateColumn):
            return _AGG_MISS  # sum/avg over ISO strings: mixed-type error
        # The guard bounded |sum| well below int64, so numpy's wrapping
        # arithmetic cannot actually wrap here.
        total = int(kept.sum(dtype=np.int64))
        return total if func == "sum" else total / int(kept.size)
    if isinstance(storage, StringColumn):
        codes = _string_codes(storage)[members]
        kept = codes[codes >= 0]
        if func == "count":
            return int(kept.size)
        if func in ("min", "max"):
            if kept.size == 0:
                return None
            ranks = _pool_ranks(storage.pool)
            if ranks is None:
                return _AGG_MISS  # NUL-bearing pool: exact path
            # min/max have no unicode ufunc, but the cached per-pool
            # rank table orders codes like Python orders the strings, so
            # one integer argmin/argmax does it.  Plain str, not
            # np.str_: cell reprs feed the fingerprint.
            kept_ranks = ranks[kept]
            winner = int(np.argmin(kept_ranks) if func == "min"
                         else np.argmax(kept_ranks))
            return str(storage.pool[int(kept[winner])])
        return _AGG_MISS
    if func == "count" and isinstance(storage, (FloatColumn, BoolColumn)):
        notnull = np.frombuffer(bytes(storage.nulls),
                                dtype=np.uint8)[members] == 0
        return int(notnull.sum())
    return _AGG_MISS


def _build_groups(source: _Source, key: str,
                  indices: Sequence[int]) -> dict[object, Sequence[int]]:
    """Group *indices* by the adapted key values, members ascending —
    exactly the dict produced by a setdefault loop over the adapted
    column, built with one stable sort over the typed buffers.

    Float (NaN grouping follows object identity in the dict path) and
    object-promoted keys fall back to that loop.
    """
    storage = source.table.storage(key)
    vectorized = isinstance(storage, (IntColumn, DateColumn, BoolColumn,
                                      StringColumn))
    if vectorized:
        idx = np.asarray(indices, dtype=np.intp)
        if idx.size == 0:
            return {}
        if isinstance(storage, StringColumn):
            raw = _string_codes(storage)[idx].astype(np.int64)
            isnull = raw < 0
        elif isinstance(storage, BoolColumn):
            raw = np.frombuffer(bytes(storage.data),
                                dtype=np.uint8)[idx].astype(np.int64)
            isnull = np.frombuffer(bytes(storage.nulls),
                                   dtype=np.uint8)[idx] == 1
            raw[isnull] = 0
        else:
            raw, notnull = _masked_int64(storage, idx)
            isnull = ~notnull
        # Stored null sentinels are uniform per store (code -1 / raw 0),
        # so (isnull, raw) pairs split the sort into exact groups.
        order = np.lexsort((raw, isnull))
        sorted_raw = raw[order]
        sorted_null = isnull[order]
        breaks = np.flatnonzero((sorted_raw[1:] != sorted_raw[:-1])
                                | (sorted_null[1:] != sorted_null[:-1])) + 1
        groups: dict[object, Sequence[int]] = {}
        for chunk in np.split(order, breaks):
            first = chunk[0]
            if isnull[first]:
                group_key: object = None
            elif isinstance(storage, StringColumn):
                group_key = storage.pool[int(raw[first])]
            elif isinstance(storage, DateColumn):
                group_key = date.fromordinal(int(raw[first])).isoformat()
            else:
                group_key = int(raw[first])
            groups[group_key] = idx[chunk]
        return groups
    key_values = source.adapted(key)
    fallback: dict[object, list[int]] = {}
    for i in indices:
        fallback.setdefault(key_values[i], []).append(i)
    return fallback


def _guard_aggregate(source: _Source, item: AggItem,
                     resolve: Callable[[tuple[str | None, str]], str],
                     selected: Callable[[str], list[object]],
                     indices: Sequence[int] | None = None) -> str | None:
    """Validate one aggregate item; returns the resolved source column
    (``None`` for ``COUNT(*)``).  *indices* (columnar path only) lets
    the int SUM/AVG range check run vectorized on the typed buffers."""
    if item.column is None:
        return None
    name = resolve(item.column)
    dtype = source.table.dtype(name)
    if dtype.is_modality:
        # Tokens are unique per cell, so sqlite's COUNT and
        # COUNT(DISTINCT) both equal the non-null count; every other
        # aggregate would order by token text.
        if item.func != "count":
            raise UnsupportedSQL(f"{item.func} over modality column {name!r}")
        return name
    if item.func in ("sum", "avg"):
        storage = source.table.storage(name)
        if isinstance(storage, FloatColumn):
            return name  # pure floats by construction
        if isinstance(storage, IntColumn) and indices is not None:
            values, notnull = _masked_int64(storage, indices)
            magnitude = float(np.abs(values[notnull]
                                     .astype(np.float64)).sum())
            limit = _EXACT_FLOAT_INT if item.func == "avg" else _INT64_MAX
            if magnitude < limit * 0.99:
                return name  # provably inside the exact range
            # Near the boundary the float approximation cannot decide;
            # the exact integer check does.
            _int_sum_bound(selected(name), item.func)
            return name
        values_list = selected(name)
        kinds = {type(v) for v in values_list if v is not None}
        if kinds and not (kinds == {int} or kinds == {float}):
            raise UnsupportedSQL(
                f"{item.func} needs a pure int or float column")
        if kinds == {int}:
            _int_sum_bound(values_list, item.func)
    return name


# ----------------------------------------------------------------------
# Output assembly
# ----------------------------------------------------------------------


def _dedup_names(names: Sequence[str]) -> list[str]:
    unique: list[str] = []
    counts: dict[str, int] = {}
    for name in names:
        counts[name] = counts.get(name, 0) + 1
        unique.append(f"{name}_{counts[name]}" if counts[name] > 1 else name)
    return unique


def _take_sql_column(storage: object, indices: Sequence[int] | None
                     ) -> tuple[Column, DataType] | None:
    """Gather a projected result column straight from typed storage.

    Only stores whose adapted form equals the raw values qualify (int /
    float / dictionary-encoded strings); the returned dtype is exactly
    what :func:`_infer_sql_dtype` would assign to the gathered list, so
    result assembly can skip the per-cell builder path without changing
    the result's schema, values, or fingerprint.  ``indices=None`` is
    the identity projection: the storage itself is shared (columns are
    immutable once inside a table).
    """
    if not isinstance(storage, (StringColumn, IntColumn, FloatColumn)):
        return None
    taken = storage if indices is None else storage.take(indices)
    if isinstance(taken, StringColumn):
        return taken, DataType.STRING
    # _infer_sql_dtype over {int|float, None}: typed if any value
    # survives, STRING for an all-null (or empty) projection.
    if 0 not in taken.nulls:
        return taken, DataType.STRING
    return taken, (DataType.INTEGER if isinstance(taken, IntColumn)
                   else DataType.FLOAT)


def _build_result(named_columns: list[tuple[str, object,
                                            DataType | None]]) -> Table:
    """Assemble the result table exactly like the sqlite bridge does:
    dtypes are re-inferred from the (adapted) result values, except
    modality columns, which keep their dtype when any object survived.
    A :class:`Column` entry is the :func:`_take_sql_column` fast path:
    its dtype is precomputed and the packed column goes straight into
    the table."""
    names = _dedup_names([name for name, _, _ in named_columns])
    specs = []
    columns = {}
    for unique, (_, values, modality) in zip(names, named_columns):
        if isinstance(values, Column):
            specs.append(ColumnSpec(unique, modality))
        elif modality is not None and any(v is not None for v in values):
            specs.append(ColumnSpec(unique, modality))
        else:
            specs.append(ColumnSpec(unique, _infer_sql_dtype(values)))
        columns[unique] = values
    return Table(Schema(specs), columns)


def sqliteize(table: Table) -> Table:
    """*table* in the sqlite bridge's result representation."""
    named = []
    for name in table.column_names:
        dtype = table.dtype(name)
        if dtype.is_modality:
            named.append((name, table.column(name), dtype))
        else:
            named.append((name, [_adapt_cell(v) for v in table.column(name)],
                          None))
    return _build_result(named)


# ----------------------------------------------------------------------
# Joins (sqlite plan order)
# ----------------------------------------------------------------------


def _index_sort_key(value: object) -> tuple[int, object]:
    """sqlite BINARY index ordering over adapted cells:
    NULL < numeric < text."""
    if value is None:
        return (0, 0)
    if isinstance(value, (int, float)):
        return (1, value)
    return (2, value)


def _sqlite_join(left: Table, right: Table,
                 left_on: str, right_on: str) -> Table:
    """An equi-join with :func:`repro.relational.ops.join`'s shape but
    sqlite's row order for the bridge's join statements.

    sqlite scans the FROM-order left table and probes an automatic
    covering index on the right (verified stable across table sizes), so
    rows are left-row-major and the matches of one key follow the index
    sort: (key, remaining referenced right columns in table order,
    rowid).  Keys match by sqlite value equality (adapted cells), so
    e.g. a bool key equals an int key.
    """
    renames = ops.join_renames(left.column_names, right.column_names,
                               left_on, right_on)
    left_keys = _adapted_column(left, left_on)
    right_keys = _adapted_column(right, right_on)

    order_columns: list[list[object]] = []
    modality_right = False
    for name in right.column_names:
        if name == right_on:
            continue
        if right.dtype(name).is_modality:
            modality_right = True
        else:
            order_columns.append(_adapted_column(right, name))

    index: dict[object, list[int]] = {}
    for j, key in enumerate(right_keys):
        if key is None:
            continue
        index.setdefault(key, []).append(j)
    if modality_right and any(len(rows) > 1 for rows in index.values()):
        # The covering index would order duplicate-key matches by token
        # text, which depends on the executor's registration history.
        raise UnsupportedSQL("join with duplicate keys into a table "
                             "with modality columns")
    for rows in index.values():
        if len(rows) > 1:
            rows.sort(key=lambda j: tuple(_index_sort_key(values[j])
                                          for values in order_columns))

    left_indices: list[int] = []
    right_indices: list[int] = []
    for i, key in enumerate(left_keys):
        if key is None:
            continue
        for j in index.get(key, ()):
            left_indices.append(i)
            right_indices.append(j)

    return _assemble_join(left, right, left_indices, right_indices,
                          renames, right_on if right_on == left_on else None)


def _assemble_join(left: Table, right: Table, left_indices: list[int],
                   right_indices: list[int], renames: dict[str, str],
                   merged_key: str | None) -> Table:
    """The joined table, gathered column by column from both sides'
    storage.  Its schema is the one appending each right column with
    :meth:`Table.with_column` builds: left specs (descriptions, foreign
    keys, primary key kept), then bare right specs; a right name that
    already exists replaces the earlier column at the end and, as
    ``with_column``'s ``project`` does, drops the foreign keys and the
    primary key."""
    schema = left.schema
    specs = {spec.name: spec for spec in schema.columns}
    columns = {name: left.storage(name).take(left_indices)
               for name in left.column_names}
    clashed = False
    for name in right.column_names:
        if name == merged_key:
            continue  # merged into the single left-side key column
        out = renames.get(name, name)
        if out in specs:
            del specs[out], columns[out]
            clashed = True
        dtype = right.dtype(name)
        column = right.storage(name).take(right_indices)
        if isinstance(column, ObjectColumn) and not dtype.is_modality:
            # The gather may have dropped every value that forced object
            # storage; the column then packs like any other result list.
            column = build_column(column.values, dtype)
        specs[out] = ColumnSpec(out, dtype)
        columns[out] = column
    return Table(Schema(list(specs.values()),
                        description=schema.description,
                        foreign_keys=[] if clashed
                        else list(schema.foreign_keys),
                        primary_key=None if clashed else schema.primary_key),
                 columns)


# ----------------------------------------------------------------------
# Statement execution
# ----------------------------------------------------------------------


def _resolve_source(statement: SelectStatement,
                    tables: dict[str, Table]) -> tuple[
                        Table, Callable[[tuple[str | None, str]], str]]:
    """The (possibly joined) source table and a qualified-name resolver."""
    if statement.table not in tables:
        raise UnsupportedSQL(f"unknown table {statement.table!r}")
    left = tables[statement.table]
    join = statement.join
    if join is None:
        def resolve(ref: tuple[str | None, str],
                    _valid=(statement.table,), _table=left) -> str:
            qualifier, name = ref
            if qualifier is not None and qualifier not in _valid:
                raise UnsupportedSQL(f"unknown qualifier {qualifier!r}")
            if name not in _table:
                raise UnsupportedSQL(f"unknown column {name!r}")
            return name
        return left, resolve

    if join.right not in tables:
        raise UnsupportedSQL(f"unknown table {join.right!r}")
    right = tables[join.right]
    if join.using is not None:
        left_on = right_on = join.using
    else:
        left_qual, left_on, right_qual, right_on = join.on  # type: ignore[misc]
        if (left_qual, right_qual) == (join.right, statement.table):
            left_on, right_on = right_on, left_on
        elif (left_qual, right_qual) != (statement.table, join.right):
            raise UnsupportedSQL("join ON qualifiers must name the "
                                 "joined tables")
    if left_on not in left or right_on not in right:
        raise UnsupportedSQL("unknown join key")
    if (left.dtype(left_on).is_modality
            or right.dtype(right_on).is_modality):
        raise UnsupportedSQL("cannot join on a modality column")
    renames = ops.join_renames(left.column_names, right.column_names,
                               left_on, right_on)
    if join.using is not None and renames:
        # sqlite suffixes clashes _2 / _3; ops.join suffixes _right.
        raise UnsupportedSQL("USING join with non-key name clashes")
    if join.using is None and statement.star:
        # SELECT * over ON joins keeps both key columns in sqlite.
        raise UnsupportedSQL("SELECT * over an ON join")
    if statement.where is not None:
        # sqlite's planner picks the outer table from the WHERE clause: a
        # predicate over right-side columns flips the scan to the right
        # table (SCAN right / SEARCH left), reordering the result.  Only
        # predicates confined to left-side (or merged-key) columns are
        # proven to keep the FROM-order plan this join replicates.
        right_side = {renames.get(name, name) for name in right.column_names
                      if not (name == right_on and right_on == left_on)}
        for name in statement.where.referenced_columns():
            if name in right_side:
                raise UnsupportedSQL(
                    "join WHERE over right-side columns: planner-dependent "
                    "row order")
    joined = _sqlite_join(left, right, left_on, right_on)

    mapping: dict[tuple[str | None, str], str] = {}
    for name in left.column_names:
        mapping[(statement.table, name)] = name
    for name in right.column_names:
        if name == right_on and right_on == left_on:
            mapping[(join.right, name)] = left_on
        else:
            mapping[(join.right, name)] = renames.get(name, name)

    if not statement.star:
        # The join's row order is only proven when sqlite's automatic
        # covering index spans every right column, i.e. when the select
        # list references them all (as the bridge's join statements do).
        selected: set[str] = set()
        for item in statement.items:
            ref = (item.column if isinstance(item, AggItem)
                   else (item.qualifier, item.name))
            if ref is None:
                continue
            qualifier, name = ref
            resolved = (mapping.get((qualifier, name))
                        if qualifier is not None else name)
            if resolved is not None:
                selected.add(resolved)
        required = {mapping[(join.right, name)]
                    for name in right.column_names}
        if not required <= selected:
            raise UnsupportedSQL("join select list must reference every "
                                 "right-side column")

    def resolve(ref: tuple[str | None, str], _mapping=mapping,
                _table=joined) -> str:
        qualifier, name = ref
        if qualifier is None:
            if name not in _table:
                raise UnsupportedSQL(f"unknown column {name!r}")
            return name
        resolved = _mapping.get((qualifier, name))
        if resolved is None:
            raise UnsupportedSQL(f"unknown column {qualifier}.{name}")
        return resolved

    return joined, resolve


def _output_items(statement: SelectStatement,
                  source: Table) -> list[object]:
    if statement.star:
        return [ColItem(None, name, None) for name in source.column_names]
    return list(statement.items)


def _split_items(items: list[object]) -> tuple[list[ColItem], list[AggItem]]:
    columns = [item for item in items if isinstance(item, ColItem)]
    aggregates = [item for item in items if isinstance(item, AggItem)]
    return columns, aggregates


def _group_plan(statement: SelectStatement, items: list[object],
                resolve: Callable[[tuple[str | None, str]], str],
                source_table: Table) -> tuple[str, ColItem, list[AggItem],
                                              bool]:
    """Validate a grouped statement; returns (key column, key item,
    aggregate items, descending)."""
    key = resolve(statement.group_by)  # type: ignore[arg-type]
    if source_table.dtype(key).is_modality:
        raise UnsupportedSQL("GROUP BY over a modality column")
    columns, aggregates = _split_items(items)
    if statement.star or len(columns) != 1 or not aggregates:
        raise UnsupportedSQL("grouped select must be key + aggregates")
    key_item = columns[0]
    if items[0] is not key_item or resolve(
            (key_item.qualifier, key_item.name)) != key:
        raise UnsupportedSQL("grouped select key must lead the select list")
    descending = False
    if statement.order_by is not None:
        qualifier, name, descending = statement.order_by
        ordered_on = (name if name == key_item.output_name
                      else resolve((qualifier, name)))
        if ordered_on not in (key, key_item.output_name):
            raise UnsupportedSQL("grouped ORDER BY must use the group key")
    if statement.distinct:
        raise UnsupportedSQL("DISTINCT over a grouped select")
    return key, key_item, aggregates, descending


def _execute_columnar(statement: SelectStatement, table: Table,
                      resolve: Callable[[tuple[str | None, str]], str]
                      ) -> Table:
    source = _Source(table)
    if statement.where is not None:
        _guard_predicate(source, statement.where, "columnar")
        indices = _filter_indices(source, statement.where)
    else:
        indices = list(range(table.num_rows))

    items = _output_items(statement, table)
    names = [item.output_name if isinstance(item, ColItem) else item.alias
             for item in items]
    if len(set(names)) != len(names) and not statement.star:
        raise UnsupportedSQL("duplicate output names")

    def selected(name: str) -> list[object]:
        values = source.adapted(name)
        return [values[i] for i in indices]

    if statement.group_by is not None:
        key, key_item, aggregates, descending = _group_plan(
            statement, items, resolve, table)
        groups = _build_groups(source, key, indices)
        for item in aggregates:
            _guard_aggregate(source, item, resolve, selected, indices)
        ordered_keys = _ordered_group_keys(list(groups), descending)
        if statement.limit is not None:
            ordered_keys = ordered_keys[:statement.limit]
        named: list[tuple[str, list[object], DataType | None]] = [
            (key_item.output_name, ordered_keys, None)]
        for item in aggregates:
            column = None if item.column is None else resolve(item.column)
            out: list[object] = []
            for group_key in ordered_keys:
                members = groups[group_key]
                if column is None:
                    out.append(len(members))
                elif table.dtype(column).is_modality:
                    values = table.storage(column).materialize()
                    out.append(sum(1 for i in members
                                   if values[i] is not None))
                else:
                    value = _agg_fast(table, column, item.func,
                                      item.distinct, members)
                    if value is _AGG_MISS:
                        values = source.adapted(column)
                        value = _agg_over(item.func, item.distinct,
                                          [values[i] for i in members])
                    out.append(value)
            named.append((item.alias, out, None))
        return _build_result(named)

    columns, aggregates = _split_items(items)
    if aggregates:
        if columns or statement.distinct or statement.order_by is not None:
            raise UnsupportedSQL("aggregates mix only with GROUP BY")
        named = []
        for item in aggregates:
            column = _guard_aggregate(source, item, resolve, selected,
                                      indices)
            if item.column is None:
                value: object = len(indices)
            elif table.dtype(column).is_modality:
                values = table.storage(column).materialize()
                value = sum(1 for i in indices if values[i] is not None)
            else:
                value = _agg_fast(table, column, item.func, item.distinct,
                                  indices)
                if value is _AGG_MISS:
                    value = _agg_over(item.func, item.distinct,
                                      selected(column))
            named.append((item.alias, [value], None))
        result = _build_result(named)
        if statement.limit is not None:
            result = result.head(statement.limit)
        return result

    if statement.order_by is not None:
        qualifier, name, descending = statement.order_by
        order_column = resolve((qualifier, name))
        if table.dtype(order_column).is_modality:
            raise UnsupportedSQL("ORDER BY over a modality column")
        indices = _order_indices(indices, source.adapted(order_column),
                                 descending)
    if statement.limit is not None and not statement.distinct:
        indices = indices[:statement.limit]

    identity = (statement.where is None and statement.order_by is None
                and (statement.limit is None
                     or statement.limit >= table.num_rows))
    named = []
    for item in columns:
        column = resolve((item.qualifier, item.name))
        dtype = table.dtype(column)
        if dtype.is_modality:
            values = table.storage(column).materialize()
            named.append((item.output_name,
                          [values[i] for i in indices], dtype))
            continue
        if not statement.distinct:
            taken = _take_sql_column(table.storage(column),
                                     None if identity else indices)
            if taken is not None:
                named.append((item.output_name, taken[0], taken[1]))
                continue
        values = source.adapted(column)
        named.append((item.output_name,
                      [values[i] for i in indices], None))

    if statement.distinct:
        if any(modality is not None for _, _, modality in named):
            raise UnsupportedSQL("DISTINCT over a modality column")
        seen: set[tuple[object, ...]] = set()
        keep: list[int] = []
        for row_index in range(len(indices)):
            row_key = tuple(values[row_index] for _, values, _ in named)
            try:
                fresh = row_key not in seen
            except TypeError as exc:
                raise UnsupportedSQL("unhashable DISTINCT values") from exc
            if fresh:
                seen.add(row_key)
                keep.append(row_index)
        if statement.limit is not None:
            keep = keep[:statement.limit]
        named = [(name, [values[i] for i in keep], modality)
                 for name, values, modality in named]
    return _build_result(named)


def _execute_native(statement: SelectStatement, table: Table,
                    resolve: Callable[[tuple[str | None, str]], str]
                    ) -> Table:
    source = _Source(table)
    working = table
    if statement.where is not None:
        _guard_predicate(source, statement.where, "native")
        working = ops.select(working, statement.where)

    items = _output_items(statement, table)
    names = [item.output_name if isinstance(item, ColItem) else item.alias
             for item in items]
    if len(set(names)) != len(names) and not statement.star:
        raise UnsupportedSQL("duplicate output names")

    def selected(name: str) -> list[object]:
        return [_adapt_cell(v) for v in working.column(name)]

    if statement.group_by is not None:
        key, key_item, aggregates, descending = _group_plan(
            statement, items, resolve, table)
        specs = []
        for item in aggregates:
            column = _guard_aggregate(source, item, resolve, selected)
            if column is None:
                specs.append(("count", "*", item.alias))
            elif table.dtype(column).is_modality or not item.distinct:
                specs.append(("count" if item.func == "count" else item.func,
                              column, item.alias))
            else:
                specs.append(("count_distinct", column, item.alias))
        grouped = ops.group_aggregate(working, [key], specs)
        order = _order_indices(range(grouped.num_rows),
                               [_adapt_cell(v) for v in grouped.column(key)],
                               descending)
        if statement.limit is not None:
            order = order[:statement.limit]
        grouped = grouped.take(order)
        if key_item.output_name != key:
            grouped = grouped.rename({key: key_item.output_name})
        return sqliteize(grouped)

    columns, aggregates = _split_items(items)
    if aggregates:
        if columns or statement.distinct or statement.order_by is not None:
            raise UnsupportedSQL("aggregates mix only with GROUP BY")
        specs = []
        for item in aggregates:
            column = _guard_aggregate(source, item, resolve, selected)
            if column is None:
                specs.append(("count", "*", item.alias))
            elif table.dtype(column).is_modality or not item.distinct:
                specs.append(("count" if item.func == "count" else item.func,
                              column, item.alias))
            else:
                specs.append(("count_distinct", column, item.alias))
        result = ops.group_aggregate(working, [], specs)
        if statement.limit is not None:
            result = ops.limit(result, statement.limit)
        return sqliteize(result)

    if statement.order_by is not None:
        qualifier, name, descending = statement.order_by
        order_column = resolve((qualifier, name))
        if table.dtype(order_column).is_modality:
            raise UnsupportedSQL("ORDER BY over a modality column")
        order = _order_indices(range(working.num_rows),
                               selected(order_column), descending)
        working = working.take(order)
    if statement.limit is not None and not statement.distinct:
        working = ops.limit(working, statement.limit)

    named_raw: list[tuple[str, str]] = []  # (output name, source column)
    for item in columns:
        column = resolve((item.qualifier, item.name))
        if not table.dtype(column).is_modality:
            source.adapted(column)  # reject values sqlite could not bind
        named_raw.append((item.output_name, column))
    unique = _dedup_names([name for name, _ in named_raw])
    specs_out = []
    out_columns = {}
    for out_name, (_, column) in zip(unique, named_raw):
        specs_out.append(ColumnSpec(out_name, working.dtype(column)))
        out_columns[out_name] = working.column(column)
    projected = Table(Schema(specs_out), out_columns)

    if statement.distinct:
        for name in projected.column_names:
            if projected.dtype(name).is_modality:
                raise UnsupportedSQL("DISTINCT over a modality column")
            if _column_kind([_adapt_cell(v)
                             for v in projected.column(name)]) == "other":
                raise UnsupportedSQL("mixed-type DISTINCT column")
        projected = ops.distinct(projected, projected.column_names)
        if statement.limit is not None:
            projected = ops.limit(projected, statement.limit)
    return sqliteize(projected)


def execute(sql: str, tables: dict[str, Table],
            engine: str = "columnar") -> Table:
    """Execute *sql* over *tables* without sqlite.

    *engine* is ``"columnar"`` (vectorized kernels) or ``"native"``
    (row-wise :mod:`repro.relational.ops`).  Raises
    :class:`UnsupportedSQL` when the statement — or the data it touches —
    falls outside the envelope proven byte-identical to the sqlite
    bridge; callers fall back to the bridge.
    """
    statement = parse_select(sql)
    table, resolve = _resolve_source(statement, tables)
    if engine == "native":
        return _execute_native(statement, table, resolve)
    return _execute_columnar(statement, table, resolve)


def join_tables(left: Table, right: Table,
                left_on: str, right_on: str) -> Table:
    """An equi-join with the sqlite bridge's result representation —
    the non-sqlite engines' replacement for ``build_join_sql``."""
    if left_on not in left or right_on not in right:
        raise UnsupportedSQL("unknown join key")
    if left.dtype(left_on).is_modality or right.dtype(right_on).is_modality:
        raise UnsupportedSQL("cannot join on a modality column")
    return sqliteize(_sqlite_join(left, right, left_on, right_on))
