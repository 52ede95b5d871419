"""Physical operator framework.

Every physical operator consumes an :class:`ExecutionContext` (the named
tables produced so far plus the ML model instances) and the argument tuple
chosen by the mapping phase, and produces an :class:`OperatorResult`: an
output table (or plot) plus an *observation* string that is fed back into
the next mapping prompt — the interleaved-execution feedback loop of
Figure 2.

New operators register themselves via :func:`register_operator`; their
*card* (name, purpose, argument format) is injected into the mapping prompt,
which is how the paper plugs in new modalities "as long as we provide all
necessary information about their behavior in the prompt".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.answer_cache import AnswerCache, RenderCache
from repro.data.datatypes import DataType
from repro.data.table import Table
from repro.errors import OperatorError, ReproError, UnknownTableError
from repro.obs.trace import QueryTelemetry
from repro.plotting.spec import PlotSpec
from repro.relational import colexec
from repro.relational.sqlexec import SQLBridge
from repro.text.qa import BartQASim
from repro.vision.blip import Blip2Sim


@dataclass
class ExecutionContext:
    """Mutable state threaded through interleaved plan execution."""

    tables: dict[str, Table] = field(default_factory=dict)
    vision_model: Blip2Sim = field(default_factory=Blip2Sim)
    text_model: BartQASim = field(default_factory=BartQASim)
    #: optional shared :class:`~repro.core.answer_cache.AnswerCache`; when
    #: set, the VQA / TextQA / Image Select operators memoize model answers
    #: through it instead of re-running inference.
    answer_cache: AnswerCache | None = None
    #: optional :class:`~repro.core.answer_cache.RenderCache` (a session
    #: with a cache tier has one); when set, VQA and Image Select take a
    #: lazy image's answer-cache key from it instead of rendering.
    render_cache: RenderCache | None = None
    #: the sqlite :class:`~repro.relational.sqlexec.SQLBridge` statements
    #: colexec declines run on; an engine passes its engine-lifetime
    #: bridge, so a table is re-registered only when its content
    #: fingerprint changes.
    sql_bridge: SQLBridge = field(default_factory=SQLBridge)
    #: optional per-query :class:`~repro.obs.QueryTelemetry`; operators
    #: record cache locality and inference counts into it via
    #: :meth:`count` / :meth:`record_answer_lookup`.
    telemetry: QueryTelemetry | None = None
    #: which relational engine executes SQL / Join steps: ``"columnar"``
    #: runs supported statements in-process
    #: (:mod:`repro.relational.colexec`) and falls back to the sqlite
    #: bridge; ``"sqlite"`` always uses the bridge.
    relational_engine: str = "columnar"

    def __post_init__(self) -> None:
        # The tables the context starts with (a lake's sources) outlive
        # the query; a table bound later is a per-query intermediate.
        self._sources = {id(table): table for table in self.tables.values()}

    def is_source(self, table: Table) -> bool:
        """Whether *table* is one the context started with, which a later
        query can read again (an intermediate dies with its query)."""
        return self._sources.get(id(table)) is table

    def resolve(self, name: str) -> Table:
        if name not in self.tables:
            raise UnknownTableError(name, list(self.tables))
        return self.tables[name]

    def bind(self, name: str, table: Table) -> None:
        self.tables[name] = table

    def execute_sql(self, sql: str, tables: dict[str, Table],
                    operator: str) -> Table:
        """Run one SELECT over *tables*: on colexec's typed kernels unless
        :attr:`relational_engine` is ``"sqlite"`` or colexec declines the
        statement (counted as ``colexec_declined``), else on
        :attr:`sql_bridge` (registrations pruned against :attr:`tables`).
        Counts the engine that answered as ``sql_engine_<engine>``; a
        bridge failure raises :class:`OperatorError` for *operator*."""
        engine = self.relational_engine
        result = None
        if engine != "sqlite":
            try:
                result = colexec.execute(sql, tables)
            except colexec.UnsupportedSQL:
                self.count("colexec_declined")
                engine = "sqlite"
        if result is None:
            try:
                result = self.sql_bridge.execute(sql, tables,
                                                 known=self.tables)
            except ReproError as exc:
                raise OperatorError(str(exc), operator=operator) from exc
        self.count(f"sql_engine_{engine}")
        return result

    def count(self, name: str, value: int = 1) -> None:
        """Bump a telemetry counter; no-op when telemetry is unset."""
        if self.telemetry is not None:
            self.telemetry.count(name, value)

    def record_answer_lookup(self, hit: bool, lookups: int = 1) -> None:
        """Record *lookups* answer-cache lookups with the same outcome
        (a counter appears in the telemetry only once it is non-zero)."""
        if lookups:
            self.count("answer_cache_hits" if hit else "answer_cache_misses",
                       lookups)


@dataclass
class OperatorResult:
    """Output of one physical operator execution."""

    table: Table | None = None
    plot: PlotSpec | None = None
    observation: str = ""


@dataclass(frozen=True)
class OperatorCard:
    """Prompt-facing description of an operator (Figure 3, right side)."""

    name: str
    purpose: str
    argument_format: str
    #: the datatype of the column the operator consumes: the card is shown
    #: in a mapping prompt only when some input table has a column of it.
    #: ``None`` (relational and custom operators) shows it in every prompt.
    reads: DataType | None = None

    def prompt_repr(self) -> str:
        return (f"{self.name}: {self.purpose}\n"
                f"   Arguments: {self.argument_format}")


class PhysicalOperator:
    """Base class for physical operators."""

    card: OperatorCard

    def run(self, context: ExecutionContext, args: list[str]) -> OperatorResult:
        raise NotImplementedError

    @property
    def name(self) -> str:
        return self.card.name

    def require_args(self, args: list[str], count: int) -> list[str]:
        """Validate the argument count; error text mirrors what an LLM would
        see from a crashed tool call."""
        if len(args) != count:
            raise OperatorError(
                f"{self.name} expects {count} arguments "
                f"{self.card.argument_format}, got {len(args)}: "
                f"({'; '.join(args)})",
                operator=self.name)
        return [a.strip() for a in args]

    def require_column(self, context: ExecutionContext, table_name: str,
                       column: str, dtype: DataType) -> Table:
        """The table *table_name*, checked to hold *column* with type
        *dtype* (what a modality operator needs before it reads cells)."""
        table = context.resolve(table_name)
        if column not in table:
            raise OperatorError(
                f"table {table_name!r} has no column {column!r}",
                operator=self.name)
        if table.dtype(column) is not dtype:
            article = "an" if dtype.name[0] in "AEIOU" else "a"
            raise OperatorError(
                f"column {column!r} has type {table.dtype(column).value}, "
                f"but {self.name} needs {article} {dtype.name} column",
                operator=self.name)
        return table


class OperatorRegistry:
    """Operator factories keyed by their prompt card.

    The registry is the only coupling between the engine loop and the
    operator set: the engine asks it for the :class:`OperatorCard` list to
    inject into mapping prompts and resolves the mapping phase's operator
    choice back to a factory.  New operators (joins, date-range filters,
    new modalities) therefore plug in by registering a card + factory —
    no engine internals involved.
    """

    def __init__(self) -> None:
        self._factories: dict[str, Callable[[], PhysicalOperator]] = {}
        self._cards: dict[str, OperatorCard] = {}

    def register(self, factory: Callable[[], PhysicalOperator],
                 card: OperatorCard | None = None) -> None:
        """Register *factory* under *card* (default: the operator's own)."""
        if card is None:
            card = factory().card
        key = card.name.strip().lower()
        self._factories[key] = factory
        self._cards[key] = card

    def __len__(self) -> int:
        return len(self._factories)

    def __contains__(self, name: str) -> bool:
        return name.strip().lower() in self._factories

    def names(self) -> list[str]:
        return [card.name for card in self._cards.values()]

    def cards(self) -> list[OperatorCard]:
        return list(self._cards.values())

    def build(self, name: str) -> PhysicalOperator:
        """Instantiate an operator by (case-insensitive) card name."""
        key = name.strip().lower()
        if key not in self._factories:
            # tolerate the model writing e.g. "SQL (Join)" for "SQL"
            for registered in self._factories:
                if key.startswith(registered) or registered.startswith(key):
                    key = registered
                    break
            else:
                raise OperatorError(
                    f"unknown operator {name!r}; available: "
                    f"{', '.join(self.names())}", operator=name)
        return self._factories[key]()

    def copy(self) -> "OperatorRegistry":
        """A shallow copy — seed a custom registry with the defaults."""
        clone = OperatorRegistry()
        clone._factories = dict(self._factories)
        clone._cards = dict(self._cards)
        return clone


#: Registry the built-in operators register themselves into at import time;
#: engines use it unless an explicit registry is composed in.
DEFAULT_REGISTRY = OperatorRegistry()


def register_operator(factory: Callable[[], PhysicalOperator]) -> None:
    DEFAULT_REGISTRY.register(factory)


def operator_names() -> list[str]:
    return DEFAULT_REGISTRY.names()


def build_operator(name: str) -> PhysicalOperator:
    """Instantiate an operator by (case-insensitive) name."""
    return DEFAULT_REGISTRY.build(name)


def all_cards() -> list[OperatorCard]:
    return DEFAULT_REGISTRY.cards()
