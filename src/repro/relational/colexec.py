"""Columnar SQL execution: run the engine's SELECT dialect without sqlite.

The mapping phase emits SQL from a closed grammar (single-table filters,
USING / ON equi-joins, grouped and whole-table aggregates, ORDER BY +
LIMIT superlatives, DISTINCT projections).  This module parses that
dialect and executes it directly over :class:`repro.data.table.Table`
column storage — vectorized numpy kernels that read the ``data``,
``nulls`` and ``codes`` arrays of the typed stores in
:mod:`repro.data.columns` as they are, and dictionary-coded string
predicates over each pool's shared memo — without copying a single row
into sqlite.

Byte-identical output is the contract.  Results reproduce the sqlite
bridge exactly: the same cell values (dates as ISO strings, bools as
ints), the same inferred result dtypes, the same row order (sqlite's
left-row-major joins, NULLs-first ascending sorts, first-occurrence
DISTINCT), the same duplicate-name suffixing.  Any statement — or data
shape — outside the envelope where that equivalence is *proven* raises
:class:`UnsupportedSQL` and the caller falls back to the bridge, so
correctness never depends on this module being clever enough.  The
envelope is exactly what has a typed kernel: filters run as numpy masks
over typed column buffers, group keys split with one stable sort over
them, and aggregates reduce them; a predicate, group key or aggregate
over storage without such a kernel (object-stored or float columns,
non-ISO date literals, integer sums near the exact bound) declines, and
so does a value sqlite binds differently (a float NaN, bound as NULL).
Ordering, grouping, DISTINCT, COUNT(DISTINCT) and join keys all read one
array, each row's rank among its distinct values in sqlite's order
(:func:`_ranks`); an object-stored column has none and declines, and so
does a join whose keys are stored in different classes (sqlite would
compare them under its affinity rules).
"""

from __future__ import annotations

import functools
import operator
import re
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from datetime import date
from typing import Callable, Sequence, Union

import numpy as np

from repro.data.columns import (BoolColumn, Column, DateColumn, FloatColumn,
                                IntColumn, ObjectColumn, PooledColumn,
                                StringColumn, build_column)
from repro.data.datatypes import DataType
from repro.data.schema import ColumnSpec, Schema
from repro.data.table import Table
from repro.relational.sqlexec import (_infer_sql_dtype, dedup_names,
                                      join_renames)

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
class Literal:
    value: object


@dataclass(frozen=True)
class ColumnRef:
    name: str


@dataclass(frozen=True)
class Comparison:
    op: str
    left: ColumnRef
    right: Literal


@dataclass(frozen=True)
class Between:
    operand: ColumnRef
    low: Literal
    high: Literal


@dataclass(frozen=True)
class Like:
    operand: ColumnRef
    pattern: str
    negated: bool = False


@dataclass(frozen=True)
class InList:
    operand: ColumnRef
    values: tuple[object, ...]
    negated: bool = False


@dataclass(frozen=True)
class IsNull:
    operand: ColumnRef
    negated: bool = False


@dataclass(frozen=True)
class BoolOp:
    op: str  # "and" | "or"
    operands: tuple[Expr, ...]


#: A WHERE clause: ``<column> <predicate>`` leaves under AND / OR.
Expr = Union[Comparison, Between, Like, InList, IsNull, BoolOp]


def _where_column(expr: Expr) -> str:
    """The column a leaf predicate reads."""
    return (expr.left if isinstance(expr, Comparison) else expr.operand).name


def _where_columns(expr: Expr) -> set[str]:
    """Every column a WHERE clause reads."""
    if isinstance(expr, BoolOp):
        return set().union(*map(_where_columns, expr.operands))
    return {_where_column(expr)}


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


#: Parsed statements kept process-wide, keyed by SQL text.
PARSED_SQL_CACHE_SIZE = 512


@functools.lru_cache(maxsize=PARSED_SQL_CACHE_SIZE)
def parse_select(sql: str) -> SelectStatement:
    """Parse *sql*; raises :class:`UnsupportedSQL` outside the dialect.

    A statement is a frozen value and a pure function of its text, so
    the same text returns the same object (a decline is not memoised).
    """
    return _Parser(_tokenize(sql), sql).parse()


# ----------------------------------------------------------------------
# Typed-store guards
# ----------------------------------------------------------------------


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


def _decline_nan(table: Table) -> None:
    """sqlite binds a float NaN as NULL, so a typed float column holding
    NaN would answer differently here: its table declines.  Each float
    store knows whether it holds NaN (:meth:`FloatColumn.has_nan`)."""
    for name in table.column_names:
        storage = table.storage(name)
        if isinstance(storage, FloatColumn) and storage.has_nan():
            raise UnsupportedSQL("float column holds NaN")


def _no_kernel(what: str, storage: Column) -> UnsupportedSQL:
    return UnsupportedSQL(f"{what} over {type(storage).__name__} storage "
                          "has no typed kernel")


# ----------------------------------------------------------------------
# Columnar filter kernels
#
# Typed stores compare their data arrays.  A string predicate decides
# once per pool entry, never per row: equality probes the code index,
# an ordered compare or BETWEEN is a rank cut in the pool's memoised
# Python order (one bisection per bound; Python orders strings as
# sqlite's BINARY collation does, NULs included), IN marks its members'
# codes and LIKE matches each entry once.  One gather by code takes the
# per-entry verdict to the rows.
# ----------------------------------------------------------------------

_PY_OPS: dict[str, Callable[[object, object], object]] = {
    "=": operator.eq, "==": operator.eq,
    "!=": operator.ne, "<>": operator.ne,
    "<": operator.lt, "<=": operator.le,
    ">": operator.gt, ">=": operator.ge,
}


def _like_regex(pattern: str) -> re.Pattern:
    # sqlite's LIKE folds case for ASCII letters only, and its % and _
    # match any character, newlines included.
    regex = re.escape(pattern).replace(r"%", ".*").replace(r"_", ".")
    return re.compile(regex, re.IGNORECASE | re.ASCII | re.DOTALL)


def _pool_gather(storage: StringColumn, verdict: np.ndarray) -> np.ndarray:
    """The rows whose pool entry *verdict* holds: one gather by code from
    the verdict plus a last slot, ``False``, that NULL's code ``-1``
    reads."""
    return np.take(np.append(verdict, False), storage.codes)


def _rank_cut(storage: StringColumn, start: int, stop: int) -> np.ndarray:
    """The rows whose string ranks in ``[start, stop)`` of the pool's
    sorted texts."""
    ranks = storage.pool_order()[1]
    return _pool_gather(storage, (ranks >= start) & (ranks < stop))


def _comparison_mask(storage: Column, op: str,
                     literal: object) -> np.ndarray:
    """``<column> <op> <literal>``; the parser yields int, float and str
    literals only.  A literal of another storage class than the column's
    declines: sqlite orders across storage classes, numpy does not."""
    apply_op = _PY_OPS[op]
    if isinstance(storage, (IntColumn, FloatColumn, BoolColumn)):
        if isinstance(literal, str):
            raise UnsupportedSQL("text literal against a numeric column")
        if isinstance(literal, int) \
                and not _INT64_MIN <= literal <= _INT64_MAX:
            raise UnsupportedSQL("integer literal outside int64")
        return apply_op(storage.data, literal) & ~storage.nulls
    if isinstance(storage, DateColumn):
        parsed = _strict_iso_date(literal) \
            if isinstance(literal, str) else None
        if parsed is None:
            # sqlite would compare the ISO text lexicographically.
            raise UnsupportedSQL("date comparison needs an ISO date literal")
        return apply_op(storage.data, parsed.toordinal()) & ~storage.nulls
    if isinstance(storage, StringColumn):
        if not isinstance(literal, str):
            raise UnsupportedSQL("numeric literal against a text column")
        if op in ("=", "==", "!=", "<>"):
            # Dictionary-encoded equality: one index probe plus a vector
            # compare on the codes, no pool scan.
            codes = storage.codes
            code = storage.code_of(literal)
            if op in ("=", "=="):
                return (codes == code if code is not None
                        else np.zeros(len(codes), dtype=bool))
            notnull = codes >= 0
            return notnull if code is None else notnull & (codes != code)
        # < <= > >=: one bisection of the sorted pool gives the cut.
        texts = storage.pool_order()[0]
        if op in ("<", "<="):
            return _rank_cut(storage, 0, (bisect_left if op == "<"
                                          else bisect_right)(texts, literal))
        return _rank_cut(storage, (bisect_right if op == ">" else
                                   bisect_left)(texts, literal), len(texts))
    raise _no_kernel("a comparison", storage)


def _compile_mask(table: Table, expr: Expr) -> np.ndarray:
    """A numpy boolean mask for *expr* over *table*; raises
    :class:`UnsupportedSQL` when a predicate has no typed kernel."""
    if isinstance(expr, BoolOp):
        return functools.reduce(
            operator.and_ if expr.op == "and" else operator.or_,
            (_compile_mask(table, operand) for operand in expr.operands))
    name = _where_column(expr)
    if name not in table:
        raise UnsupportedSQL(f"unknown column {name!r} in WHERE")
    if table.dtype(name).is_modality and not isinstance(expr, IsNull):
        raise UnsupportedSQL(f"cannot compare modality column {name!r}")
    storage = table.storage(name)
    if isinstance(expr, Comparison):
        return _comparison_mask(storage, expr.op, expr.right.value)
    if isinstance(expr, Between):
        low, high = expr.low.value, expr.high.value
        if isinstance(storage, StringColumn) and isinstance(low, str) \
                and isinstance(high, str):
            # Both cuts fused: one verdict per pool entry, one gather.
            texts = storage.pool_order()[0]
            return _rank_cut(storage, bisect_left(texts, low),
                             bisect_right(texts, high))
        return (_comparison_mask(storage, ">=", low)
                & _comparison_mask(storage, "<=", high))
    if isinstance(expr, IsNull):
        notnull = _notnull_mask(storage)
        return notnull if expr.negated else ~notnull
    if isinstance(expr, InList):
        if isinstance(storage, StringColumn):
            if not all(isinstance(value, str) for value in expr.values):
                raise UnsupportedSQL("numeric IN member against a text "
                                     "column")
            # Map the members to dictionary codes instead of scanning
            # the pool.
            verdict = np.zeros(len(storage.pool), dtype=bool)
            verdict[[code for value in expr.values
                     if (code := storage.code_of(value)) is not None]] = True
            base = _pool_gather(storage, verdict)
        else:
            base = functools.reduce(operator.or_, (
                _comparison_mask(storage, "=", value)
                for value in expr.values))
    else:  # Like
        if not isinstance(storage, StringColumn):
            raise _no_kernel("LIKE", storage)
        regex = _like_regex(expr.pattern)
        pool = storage.pool
        # sqlite's LIKE reads the value as a C string, so a NUL ends it.
        base = _pool_gather(storage, np.fromiter(
            (regex.fullmatch(text.partition("\x00")[0]) is not None
             for text in pool), dtype=bool, count=len(pool)))
    # NOT IN / NOT LIKE: a NULL cell satisfies neither form.
    return _notnull_mask(storage) & ~base if expr.negated else base


def _notnull_mask(storage: Column) -> np.ndarray:
    if isinstance(storage, StringColumn):
        return storage.codes >= 0
    if isinstance(storage, (ObjectColumn, PooledColumn)):
        raise _no_kernel("IS NULL", storage)
    return ~storage.nulls


# ----------------------------------------------------------------------
# Ordering / aggregation primitives (sqlite semantics)
# ----------------------------------------------------------------------


def _sort_keys(storage: Column, rows: np.ndarray | slice
               ) -> tuple[np.ndarray, np.ndarray]:
    """``(valid, keys)`` for *rows* of *storage*: which rows are not NULL,
    and a number per such row that orders as sqlite orders the values.
    A string keys by its rank in the pool's Python order (sqlite's
    BINARY collation), a date by its ordinal and a bool as 0 / 1;
    ``-0.0`` compares equal to ``0.0`` as in sqlite.  An object store
    has no such number and declines."""
    if isinstance(storage, StringColumn):
        codes = storage.codes[rows]
        valid = codes >= 0
        return valid, storage.pool_order()[1][codes[valid]]
    if not isinstance(storage, (IntColumn, FloatColumn, DateColumn,
                                BoolColumn)):
        raise _no_kernel("ordering", storage)
    valid = ~storage.nulls[rows]
    keys = storage.data[rows][valid]
    return valid, keys.astype(np.int64) if keys.dtype == bool else keys


def _ranks(storage: Column, rows: np.ndarray | slice) -> np.ndarray:
    """Each of *rows*' rank among the distinct values they hold: 0 for
    NULL, then 1, 2, ... in sqlite's order (:func:`_sort_keys`).  A
    stable argsort of the ranks is sqlite's ORDER BY and its GROUP BY
    order, and a group's largest rank is its COUNT(DISTINCT)."""
    valid, keys = _sort_keys(storage, rows)
    ranks = np.zeros(len(valid), dtype=np.intp)
    ranks[valid] = np.unique(keys, return_inverse=True)[1] + 1
    return ranks


#: Storage an aggregate has a typed kernel for (COUNT(DISTINCT) reads
#: :func:`_ranks`, and COUNT over a modality column counts objects).
_AGG_KERNELS = {
    "count": (IntColumn, DateColumn, StringColumn, FloatColumn, BoolColumn),
    "sum": (IntColumn,),
    "avg": (IntColumn,),
    "min": (IntColumn, DateColumn, StringColumn),
    "max": (IntColumn, DateColumn, StringColumn),
}


def _aggregate(table: Table, column: str | None, item: AggItem,
               members: Sequence[int]) -> object:
    """One aggregate over the rows *members*, with sqlite's semantics:
    counts are non-null counts, int64 min/max/sum are exact, date
    min/max maps through ordinals (ISO strings order the same way), and
    int sums stay inside the range :func:`_guard_aggregate` proved."""
    if column is None:
        return len(members)
    storage = table.storage(column)
    if table.dtype(column).is_modality:
        # Tokens are unique per cell, so sqlite's COUNT and
        # COUNT(DISTINCT) both equal the non-null count.
        values = storage.materialize()
        return sum(1 for i in np.asarray(members).tolist()
                   if values[i] is not None)
    if item.distinct:
        return int(_ranks(storage, members).max(initial=0))
    func = item.func
    if isinstance(storage, StringColumn):
        codes = storage.codes[members]
        kept = codes[codes >= 0]
        if func == "count":
            return int(kept.size)
        if kept.size == 0:
            return None
        # min/max have no unicode ufunc, but the per-pool order ranks
        # codes as Python (and sqlite's BINARY collation) orders their
        # strings, so one integer argmin/argmax does it.
        kept_ranks = storage.pool_order()[1][kept]
        winner = int(np.argmin(kept_ranks) if func == "min"
                     else np.argmax(kept_ranks))
        return storage.pool[int(kept[winner])]
    isnull = storage.nulls[members]
    if func == "count":
        return len(isnull) - int(np.count_nonzero(isnull))
    kept = storage.data[members][~isnull]
    if kept.size == 0:
        return None
    if func in ("min", "max"):
        winner = int(kept.min() if func == "min" else kept.max())
        if isinstance(storage, DateColumn):
            return date.fromordinal(winner).isoformat()
        return winner
    # The guard bounded |sum| well below int64, so numpy's wrapping
    # arithmetic cannot actually wrap here.
    total = int(kept.sum(dtype=np.int64))
    return total if func == "sum" else total / int(kept.size)


def _build_groups(table: Table, key: str,
                  indices: np.ndarray) -> list[np.ndarray]:
    """*indices* split by the key's value, groups in key order (the NULL
    group first) and members ascending: one stable argsort of the key's
    ranks."""
    storage = table.storage(key)
    if isinstance(storage, FloatColumn):
        raise _no_kernel("GROUP BY", storage)
    ranks = _ranks(storage, indices)
    if not len(ranks):
        return []
    order = np.argsort(ranks, kind="stable")
    return np.split(indices[order],
                    np.flatnonzero(np.diff(ranks[order])) + 1)


def _guard_aggregate(table: Table, item: AggItem,
                     resolve: Callable[[tuple[str | None, str]], str],
                     indices: Sequence[int]) -> str | None:
    """Validate one aggregate item; returns the resolved source column
    (``None`` for ``COUNT(*)``).  *indices* lets the int SUM/AVG range
    check run vectorized on the typed buffers."""
    if item.column is None:
        return None
    name = resolve(item.column)
    storage = table.storage(name)
    if table.dtype(name).is_modality:
        # Every aggregate but COUNT would order by token text.
        if item.func != "count":
            raise UnsupportedSQL(f"{item.func} over modality column {name!r}")
        return name
    if not item.distinct \
            and not isinstance(storage, _AGG_KERNELS[item.func]):
        raise _no_kernel(item.func.upper(), storage)
    if item.func in ("sum", "avg"):
        kept = storage.data[indices][~storage.nulls[indices]]
        magnitude = float(np.abs(kept.astype(np.float64)).sum())
        limit = _EXACT_FLOAT_INT if item.func == "avg" else _INT64_MAX
        if magnitude >= limit * 0.99:
            # Past int64 sqlite's SUM errors; past 2**53 its double AVG
            # rounds differently from Python's exact int arithmetic.
            raise UnsupportedSQL(f"{item.func} near the exact integer bound")
    return name


# ----------------------------------------------------------------------
# Output assembly
# ----------------------------------------------------------------------


def _take_sql_column(storage: Column, indices: Sequence[int] | None
                     ) -> tuple[Column, DataType]:
    """Gather a projected result column straight from typed storage.

    Int / float / dictionary-encoded string stores, whose sqlite cells
    equal the raw values, are gathered as they are; a bool store is
    gathered as the int store of its 0 / 1 cells, and a date store into
    the string column its ISO texts pack into (:func:`_iso_column`).
    The returned dtype is exactly what :func:`_infer_sql_dtype` would
    assign to the gathered cells, so the result has the bridge's
    schema, values and fingerprint.  ``indices=None`` is the identity
    projection: the storage itself is shared (columns are immutable
    once inside a table).  A float ``-0.0`` is gathered as ``0.0``, the
    value sqlite hands the bridge back.  An object store declines.
    """
    if not isinstance(storage, (IntColumn, FloatColumn, BoolColumn,
                                DateColumn, StringColumn)):
        raise _no_kernel("a projection", storage)
    taken = storage if indices is None else storage.take(indices)
    if isinstance(taken, DateColumn):
        # An ISO text is a str, so every projection infers STRING.
        return _iso_column(taken), DataType.STRING
    if isinstance(taken, StringColumn):
        return taken, DataType.STRING
    if isinstance(taken, BoolColumn):
        taken = IntColumn(taken.data.astype(np.int64), taken.nulls)
    # _infer_sql_dtype over {int|float, None}: typed if any value
    # survives, STRING for an all-null (or empty) projection, which the
    # bridge packs as a string store of NULL codes and an empty pool.
    nulls = taken.nulls
    if not len(nulls) or (nulls[0] and nulls.all()):
        return (StringColumn(np.full(len(nulls), -1, dtype=np.int32), []),
                DataType.STRING)
    if isinstance(taken, IntColumn):
        return taken, DataType.INTEGER
    return _positive_zeros(taken), DataType.FLOAT


def _positive_zeros(floats: FloatColumn) -> FloatColumn:
    """*floats* with every ``-0.0`` made ``0.0``; the store itself when
    it holds none, a copy otherwise."""
    data = floats.data
    if not (np.signbit(data) & (data == 0.0)).any():
        return floats
    return FloatColumn(data + 0.0, floats.nulls)


def _iso_column(dates: DateColumn) -> StringColumn:
    """*dates* as the string column the bridge's ISO texts pack into:
    each distinct date formatted once and interned, the pool in
    first-occurrence order, NULL as code ``-1``."""
    valid = ~dates.nulls
    ordinals, first, inverse = np.unique(dates.data[valid],
                                         return_index=True,
                                         return_inverse=True)
    order = np.argsort(first)
    ranks = np.empty(len(order), dtype=np.int32)
    ranks[order] = np.arange(len(order), dtype=np.int32)
    codes = np.full(len(valid), -1, dtype=np.int32)
    codes[valid] = ranks[inverse]
    fromordinal = date.fromordinal
    return StringColumn(codes, [sys.intern(fromordinal(ordinal).isoformat())
                                for ordinal in ordinals[order].tolist()])


def _build_result(named_columns: list[tuple[str, object,
                                            DataType | None]]) -> Table:
    """Assemble the result table exactly like the sqlite bridge does.
    A :class:`Column` entry (a :func:`_take_sql_column` gather or a
    modality take) goes straight into the table with its dtype; a list
    of cells (aggregates, a materialized modality column) gets the dtype
    the bridge infers, except that a modality column keeps its own when
    any object survived.  Every entry is equally long, so the packed
    columns make the table as they are."""
    names = dedup_names([name for name, _, _ in named_columns])
    specs = []
    columns: dict[str, Column] = {}
    for unique, (_, values, modality) in zip(names, named_columns):
        if isinstance(values, Column) or (
                modality is not None and any(v is not None for v in values)):
            dtype = modality
        else:
            dtype = _infer_sql_dtype(values)
        specs.append(ColumnSpec(unique, dtype))
        columns[unique] = build_column(values, dtype)
    return Table._packed(Schema(specs), columns)


# ----------------------------------------------------------------------
# Joins (sqlite plan order)
# ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _JoinIndex:
    """The right side of an equi-join on one key column, as sqlite's
    automatic covering index orders it.

    ``keys`` is the distinct non-null key values in sqlite's order: the
    :func:`_sort_keys` numbers of a numeric or date key, the texts of a
    string key.  Key *k*'s rows are ``rows[starts[k]:starts[k + 1]]``,
    ordered by the remaining non-modality right columns in table order,
    then rowid.
    """

    keys: np.ndarray | list[str]
    starts: np.ndarray
    rows: np.ndarray
    duplicates: bool


def _build_join_index(right: Table, right_on: str) -> _JoinIndex:
    storage = right.storage(right_on)
    valid, keys = _sort_keys(storage, slice(None))
    distinct, numbers = np.unique(keys, return_inverse=True)
    counts = np.bincount(numbers, minlength=len(distinct))
    starts = np.concatenate(([0], np.cumsum(counts))).astype(np.intp)
    duplicates = bool((counts > 1).any())
    rows = np.flatnonzero(valid)
    # lexsort's last key is its primary one, and it is stable: rowid
    # breaks the remaining ties.
    ties = [_ranks(right.storage(name), rows)
            for name in reversed(right.column_names)
            if name != right_on and not right.dtype(name).is_modality
            ] if duplicates else []
    rows = rows[np.lexsort((*ties, numbers))]
    if isinstance(storage, StringColumn):
        texts = storage.pool_order()[0]
        distinct = [texts[rank] for rank in distinct.tolist()]
    return _JoinIndex(distinct, starts, rows, duplicates)


def _probe_codes(index: _JoinIndex, table: Table, name: str) -> np.ndarray:
    """Each row's key number in *index* (``-1``: NULL or no match)."""
    storage = table.storage(name)
    keys = index.keys
    if isinstance(storage, StringColumn):
        def probe() -> np.ndarray:
            found = np.full(len(storage.pool) + 1, -1, dtype=np.intp)
            for code, text in enumerate(storage.pool):
                at = bisect_left(keys, text)
                if at < len(keys) and keys[at] == text:
                    found[code] = at
            return found

        # Each pool entry's key number, kept on the pool for the last
        # few indexes it probed (the index object itself is the key).
        return storage.memo.get("join_probes", index, probe)[storage.codes]
    valid, values = _sort_keys(storage, slice(None))
    codes = np.full(len(valid), -1, dtype=np.intp)
    if len(keys):
        at = np.minimum(np.searchsorted(keys, values), len(keys) - 1)
        codes[valid] = np.where(keys[at] == values, at, -1)
    return codes


def _key_class(storage: Column) -> type:
    """The storage class a join key compares within: sqlite stores bools
    as integers, so the two mix."""
    return IntColumn if isinstance(storage, BoolColumn) else type(storage)


def _sqlite_join(left: Table, right: Table,
                 left_on: str, right_on: str) -> Table:
    """An equi-join with :func:`~repro.relational.sqlexec.build_join_sql`'s
    shape and sqlite's row order for the bridge's join statements.

    sqlite scans the FROM-order left table and probes an automatic
    covering index on the right (verified stable across table sizes), so
    rows are left-row-major and the matches of one key follow the index
    sort: (key, remaining referenced right columns in table order,
    rowid).  Keys match by value within one storage class (a bool key
    equals an int key); keys of different classes decline, since sqlite
    would compare them under its affinity rules (a text ``'07'`` equals
    an integer ``7``).  The right side's index is built once per table
    (the ``join_index`` kind of :attr:`Table.memo`); each left row's
    matches are a range of it, gathered with ``repeat``.
    """
    if _key_class(left.storage(left_on)) \
            is not _key_class(right.storage(right_on)):
        raise UnsupportedSQL("join keys of different storage classes")
    renames = join_renames(left.column_names, right.column_names,
                           left_on, right_on)
    index = right.memo.get("join_index", right_on,
                           lambda: _build_join_index(right, right_on))
    if index.duplicates and any(
            right.dtype(name).is_modality
            for name in right.column_names if name != right_on):
        # The covering index would order duplicate-key matches by token
        # text, which depends on the executor's registration history.
        raise UnsupportedSQL("join with duplicate keys into a table "
                             "with modality columns")
    codes = _probe_codes(index, left, left_on)
    matched = np.flatnonzero(codes >= 0)
    first = index.starts[codes[matched]]
    counts = index.starts[codes[matched] + 1] - first
    left_indices = np.repeat(matched, counts)
    # Row r of the output is match (r - start of its run) of its left row.
    offsets = np.repeat(first - (np.cumsum(counts) - counts), counts)
    right_indices = index.rows[np.arange(len(left_indices)) + offsets]
    return _assemble_join(left, right, left_indices, right_indices,
                          renames, right_on if right_on == left_on else None)


def _assemble_join(left: Table, right: Table, left_indices: Sequence[int],
                   right_indices: Sequence[int], renames: dict[str, str],
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
    # A clash moves the spec and the column to the end alike, so
    # *columns* keeps the schema's order.
    return Table._packed(
        Schema(list(specs.values()), description=schema.description,
               foreign_keys=[] if clashed else list(schema.foreign_keys),
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
    _decline_nan(left)
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
    if join.right == statement.table:
        raise UnsupportedSQL("self-join: sqlite reports its columns as "
                             "ambiguous")
    right = tables[join.right]
    _decline_nan(right)
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
    renames = join_renames(left.column_names, right.column_names,
                           left_on, right_on)
    if join.using is not None and renames:
        # sqlite suffixes clashes _2 / _3; join_renames suffixes _right.
        raise UnsupportedSQL("USING join with non-key name clashes")
    if join.using is None and statement.star:
        # SELECT * over ON joins keeps both key columns in sqlite.
        raise UnsupportedSQL("SELECT * over an ON join")
    if statement.where is not None:
        # sqlite's planner picks the outer table from the WHERE clause: a
        # predicate over right-side columns flips the scan to the right
        # table (SCAN right / SEARCH left), reordering the result, and so
        # does an equality on a merged key, which constrains both sides.
        # Only predicates confined to left-only columns are proven to keep
        # the FROM-order plan this join replicates.
        right_side = {renames.get(name, name) for name in right.column_names}
        if _where_columns(statement.where) & right_side:
            raise UnsupportedSQL("join WHERE over right-side or merged-key "
                                 "columns: planner-dependent row order")
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
    indices = (np.flatnonzero(_compile_mask(table, statement.where))
               if statement.where is not None else np.arange(table.num_rows))

    items = _output_items(statement, table)
    names = [item.output_name if isinstance(item, ColItem) else item.alias
             for item in items]
    if len(set(names)) != len(names) and not statement.star:
        raise UnsupportedSQL("duplicate output names")

    if statement.group_by is not None:
        key, key_item, aggregates, descending = _group_plan(
            statement, items, resolve, table)
        groups = _build_groups(table, key, indices)
        sources = [_guard_aggregate(table, item, resolve, indices)
                   for item in aggregates]
        if descending:
            groups.reverse()
        groups = groups[:statement.limit]
        named: list[tuple[str, object, DataType | None]] = [
            (key_item.output_name, *_take_sql_column(
                table.storage(key), [members[0] for members in groups]))]
        for item, column in zip(aggregates, sources):
            named.append((item.alias,
                          [_aggregate(table, column, item, members)
                           for members in groups], None))
        return _build_result(named)

    columns, aggregates = _split_items(items)
    if aggregates:
        if columns or statement.distinct or statement.order_by is not None:
            raise UnsupportedSQL("aggregates mix only with GROUP BY")
        named = [(item.alias, [_aggregate(
                      table, _guard_aggregate(table, item, resolve, indices),
                      item, indices)], None)
                 for item in aggregates]
        result = _build_result(named)
        if statement.limit is not None:
            result = result.head(statement.limit)
        return result

    sources = [resolve((item.qualifier, item.name)) for item in columns]
    if statement.order_by is not None:
        qualifier, name, descending = statement.order_by
        order_column = resolve((qualifier, name))
        if table.dtype(order_column).is_modality:
            raise UnsupportedSQL("ORDER BY over a modality column")
        ranks = _ranks(table.storage(order_column), indices)
        # Negated, NULL's rank 0 sorts last, as sqlite's DESC has it.
        indices = indices[np.argsort(-ranks if descending else ranks,
                                     kind="stable")]
    if statement.distinct:
        indices = _first_occurrences(table, sources, indices)
    indices = indices[:statement.limit]

    identity = (statement.where is None and statement.order_by is None
                and not statement.distinct
                and len(indices) == table.num_rows)
    named = []
    for item, column in zip(columns, sources):
        storage = table.storage(column)
        dtype = table.dtype(column)
        if dtype.is_modality:
            # A gather shares the pool, and with it the answer memos.
            taken = storage.take(indices)
            if not isinstance(taken, PooledColumn) \
                    or not (taken.codes >= 0).any():
                taken = taken.materialize()  # typed like the bridge
            named.append((item.output_name, taken, dtype))
        else:
            named.append((item.output_name, *_take_sql_column(
                storage, None if identity else indices)))
    return _build_result(named)


def _first_occurrences(table: Table, columns: list[str],
                       indices: np.ndarray) -> np.ndarray:
    """The first of *indices* to hold each distinct row of *columns*:
    each column's ranks are folded into one row number, kept dense so
    the fold never overflows."""
    row = np.zeros(len(indices), dtype=np.intp)
    for name in columns:
        ranks = _ranks(table.storage(name), indices)
        row = np.unique(row * (int(ranks.max(initial=0)) + 1) + ranks,
                        return_inverse=True)[1]
    return indices[np.sort(np.unique(row, return_index=True)[1])]


def execute(sql: str, tables: dict[str, Table]) -> Table:
    """Execute *sql* over *tables* without sqlite.

    Raises :class:`UnsupportedSQL` when the statement — or the data it
    touches — falls outside the envelope proven byte-identical to the
    sqlite bridge; callers fall back to the bridge.
    """
    statement = parse_select(sql)
    table, resolve = _resolve_source(statement, tables)
    return _execute_columnar(statement, table, resolve)
