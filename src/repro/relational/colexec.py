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
Ordering and DISTINCT run over adapted (sqlite-representation) values.
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
from repro.relational.sqlexec import (_adapt_cell, _infer_sql_dtype,
                                      dedup_names, join_renames)

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
# Adapted column access (sqlite cell representation)
# ----------------------------------------------------------------------

_SCALARS = (int, float, str)


def _adapted_column(table: Table, name: str) -> list[object]:
    """The column in sqlite's cell representation (bool→int, date→ISO).

    For int / float / string columns the memoized ``materialize()`` list
    *is* the adapted form, so repeated queries over a warm lake pay
    nothing.  Bool / date / object adaptations are memoized on the table
    (the ``sql_adapted`` kind of :attr:`Table.memo`) for the same
    reason.  Raises :class:`UnsupportedSQL` for object cells sqlite
    could not have bound either, and for a NaN cell, which sqlite binds
    as NULL.  (A typed float column holding NaN never gets here:
    :func:`_decline_nan`.)
    """
    storage = table.storage(name)
    if isinstance(storage, (IntColumn, FloatColumn, StringColumn)):
        return storage.materialize()

    def adapt() -> list[object]:
        adapted = list(map(_adapt_cell, storage.iter_values()))
        if not isinstance(storage, (BoolColumn, DateColumn)):
            # Typed bool / date stores hold nothing else.
            for value in adapted:
                if value is not None and type(value) not in _SCALARS:
                    raise UnsupportedSQL(
                        f"column {name!r} holds non-SQL values "
                        f"({type(value).__name__})")
                if value != value:
                    raise UnsupportedSQL(f"column {name!r} holds NaN")
        return adapted

    return table.memo.get("sql_adapted", name, adapt)


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
    ascending / last descending (keys of one typed store never mix
    types)."""
    rest = sorted((k for k in keys if k is not None), reverse=descending)
    if None not in keys:
        return rest
    return rest + [None] if descending else [None] + rest


#: Storage an aggregate has a typed kernel for (COUNT(DISTINCT) runs
#: over adapted cells, and COUNT over a modality column counts objects).
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
        values = _adapted_column(table, column)
        return len({values[i] for i in np.asarray(members).tolist()}
                   - {None})
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
                  indices: Sequence[int]) -> dict[object, Sequence[int]]:
    """Group *indices* by the adapted key values, members ascending —
    exactly the dict produced by a setdefault loop over the adapted
    column, built with one stable sort over the typed buffers."""
    storage = table.storage(key)
    if not isinstance(storage, (IntColumn, DateColumn, BoolColumn,
                                StringColumn)):
        raise _no_kernel("GROUP BY", storage)
    idx = np.asarray(indices, dtype=np.intp)
    if idx.size == 0:
        return {}
    if isinstance(storage, StringColumn):
        raw = storage.codes[idx]
        isnull = raw < 0
    else:
        raw = storage.data[idx]
        isnull = storage.nulls[idx]
    # Stored null sentinels are uniform per store (code -1 / 0 / False),
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


def _take_sql_column(storage: object, indices: Sequence[int] | None
                     ) -> tuple[Column, DataType] | None:
    """Gather a projected result column straight from typed storage.

    Int / float / dictionary-encoded string stores, whose adapted form
    equals the raw values, are gathered as they are; a date store is
    gathered into the string column its adapted ISO texts pack into
    (:func:`_iso_column`).  The returned dtype is exactly what
    :func:`_infer_sql_dtype` would assign to the gathered list, so
    result assembly can skip the per-cell builder path without changing
    the result's schema, values, or fingerprint.  ``indices=None`` is
    the identity projection: the storage itself is shared (columns are
    immutable once inside a table).  A float ``-0.0`` is gathered as
    ``0.0``, the value sqlite hands the bridge back.
    """
    if isinstance(storage, DateColumn):
        taken = storage if indices is None else storage.take(indices)
        # An ISO text is a str, so every projection infers STRING.
        return _iso_column(taken), DataType.STRING
    if not isinstance(storage, (StringColumn, IntColumn, FloatColumn)):
        return None
    taken = storage if indices is None else storage.take(indices)
    if isinstance(taken, StringColumn):
        return taken, DataType.STRING
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
    """Assemble the result table exactly like the sqlite bridge does:
    dtypes are re-inferred from the (adapted) result values, except
    modality columns, which keep their dtype when any object survived.
    A :class:`Column` entry is the :func:`_take_sql_column` fast path:
    its dtype is precomputed and the packed column goes straight into
    the table.  Every entry is equally long, so the packed columns make
    the table as they are."""
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


def _index_sort_key(value: object) -> tuple[int, object]:
    """sqlite BINARY index ordering over adapted cells:
    NULL < numeric < text."""
    if value is None:
        return (0, 0)
    if isinstance(value, (int, float)):
        return (1, value)
    return (2, value)


@dataclass(frozen=True, eq=False)
class _JoinIndex:
    """The right side of an equi-join on one key column, as sqlite's
    automatic covering index orders it.

    ``lookup`` numbers the distinct non-null adapted keys (Python value
    equality, as sqlite's: a bool key equals an int key); the rows of
    key *k* are ``rows[starts[k]:starts[k + 1]]``, ordered by the
    remaining non-modality right columns in table order, then rowid.
    ``ints`` is the keys sorted as int64, with their numbers, for an
    integer left column to probe with ``searchsorted`` (``None`` unless
    every numeric key is an int64).
    """

    lookup: dict[object, int]
    starts: np.ndarray
    rows: np.ndarray
    duplicates: bool
    ints: tuple[np.ndarray, np.ndarray] | None


def _build_join_index(right: Table, right_on: str) -> _JoinIndex:
    keys = _adapted_column(right, right_on)
    lookup: dict[object, int] = {}
    codes = np.fromiter((-1 if key is None
                         else lookup.setdefault(key, len(lookup))
                         for key in keys), dtype=np.intp, count=len(keys))
    valid = np.flatnonzero(codes >= 0)
    rows = valid[np.argsort(codes[valid], kind="stable")]
    counts = np.bincount(codes[valid], minlength=len(lookup))
    starts = np.concatenate(([0], np.cumsum(counts))).astype(np.intp)
    duplicates = bool((counts > 1).any())
    if duplicates:
        order_columns = [_adapted_column(right, name)
                         for name in right.column_names
                         if name != right_on
                         and not right.dtype(name).is_modality]
        for code in np.flatnonzero(counts > 1).tolist():
            group = rows[starts[code]:starts[code + 1]].tolist()
            group.sort(key=lambda j: tuple(_index_sort_key(values[j])
                                           for values in order_columns))
            rows[starts[code]:starts[code + 1]] = group
    numeric = [(key, code) for key, code in lookup.items()
               if type(key) in (int, float)]
    ints = None
    if all(type(key) is int and _INT64_MIN <= key <= _INT64_MAX
           for key, _ in numeric):
        as_int = np.array([key for key, _ in numeric], dtype=np.int64)
        order = np.argsort(as_int, kind="stable")
        ints = (as_int[order],
                np.array([code for _, code in numeric], dtype=np.intp)[order])
    return _JoinIndex(lookup, starts, rows, duplicates, ints)


def _probe_codes(index: _JoinIndex, table: Table, name: str) -> np.ndarray:
    """Each row's key code in *index* (``-1``: NULL or no match)."""
    storage = table.storage(name)
    lookup = index.lookup
    if isinstance(storage, StringColumn):
        # Each pool entry's key number, kept on the pool for the last
        # few indexes it probed (the index object itself is the key).
        found = storage.memo.get("join_probes", index, lambda: np.array(
            [lookup.get(text, -1) for text in storage.pool] + [-1],
            dtype=np.intp))
        return found[storage.codes]
    if isinstance(storage, IntColumn) and index.ints is not None:
        keys, codes = index.ints
        if not len(keys):
            return np.full(len(storage), -1, dtype=np.intp)
        at = np.minimum(np.searchsorted(keys, storage.data), len(keys) - 1)
        hit = (keys[at] == storage.data) & ~storage.nulls
        return np.where(hit, codes[at], -1)
    if not index.lookup:
        return np.full(len(storage), -1, dtype=np.intp)
    return np.fromiter((-1 if key is None else lookup.get(key, -1)
                        for key in _adapted_column(table, name)),
                       dtype=np.intp, count=len(storage))


def _sqlite_join(left: Table, right: Table,
                 left_on: str, right_on: str) -> Table:
    """An equi-join with :func:`~repro.relational.sqlexec.build_join_sql`'s
    shape and sqlite's row order for the bridge's join statements.

    sqlite scans the FROM-order left table and probes an automatic
    covering index on the right (verified stable across table sizes), so
    rows are left-row-major and the matches of one key follow the index
    sort: (key, remaining referenced right columns in table order,
    rowid).  Keys match by sqlite value equality (adapted cells), so
    e.g. a bool key equals an int key.  The right side's index is built
    once per table (the ``join_index`` kind of :attr:`Table.memo`); each
    left row's matches are a range of it, gathered with ``repeat``.
    """
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
    indices: Sequence[int] = (
        np.flatnonzero(_compile_mask(table, statement.where))
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
        ordered_keys = _ordered_group_keys(list(groups), descending)
        if statement.limit is not None:
            ordered_keys = ordered_keys[:statement.limit]
        named: list[tuple[str, list[object], DataType | None]] = [
            (key_item.output_name, ordered_keys, None)]
        for item, column in zip(aggregates, sources):
            named.append((item.alias,
                          [_aggregate(table, column, item, groups[group_key])
                           for group_key in ordered_keys], None))
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

    if statement.order_by is not None:
        qualifier, name, descending = statement.order_by
        order_column = resolve((qualifier, name))
        if table.dtype(order_column).is_modality:
            raise UnsupportedSQL("ORDER BY over a modality column")
        indices = _order_indices(indices.tolist(),
                                 _adapted_column(table, order_column),
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
            # A gather shares the pool, and with it the answer memos.
            taken = table.storage(column).take(indices)
            if not isinstance(taken, PooledColumn) \
                    or not (taken.codes >= 0).any():
                taken = taken.materialize()  # typed like the bridge
            named.append((item.output_name, taken, dtype))
            continue
        if not statement.distinct:
            taken = _take_sql_column(table.storage(column),
                                     None if identity else indices)
            if taken is not None:
                named.append((item.output_name, taken[0], taken[1]))
                continue
        values = _adapted_column(table, column)
        named.append((item.output_name, [values[i] for i in (
            indices.tolist() if isinstance(indices, np.ndarray)
            else indices)], None))

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


def execute(sql: str, tables: dict[str, Table]) -> Table:
    """Execute *sql* over *tables* without sqlite.

    Raises :class:`UnsupportedSQL` when the statement — or the data it
    touches — falls outside the envelope proven byte-identical to the
    sqlite bridge; callers fall back to the bridge.
    """
    statement = parse_select(sql)
    table, resolve = _resolve_source(statement, tables)
    return _execute_columnar(statement, table, resolve)
