"""The plan synthesizer: the "brain" of the simulated LLM.

This module closes the loop promised by :mod:`repro.llm.nl`: it turns parsed
:class:`~repro.llm.nl.QueryIntent` objects into :class:`LogicalPlan`s written
in the canonical step phrasing of the few-shot examples (Planning Phase), and
it binds those step descriptions to physical operators with concrete
arguments (Mapping Phase).

Join planning walks the schema's foreign-key graph (cross-column keys
like ``players.team = teams.name`` included) breadth-first from the
tables the intent needs, anchored on the query's subject; multi-measure
aggregates compile into one step with one output column per measure; and
typed date-range filters render ``DATE '...'`` literals with the bounds
riding the step's structured ``params``.

:class:`SimulatedBrain` packages both behind the
:class:`~repro.llm.interface.LanguageModel` protocol: it reads rendered chat
prompts — the only channel between CAESURA and the model — recognises which
phase is being asked for via the prompt markers, and answers in the output
format that :mod:`repro.core.parsing` expects.  CAESURA itself never calls
the synthesizer directly.
"""

from __future__ import annotations

import re
import time
from collections import deque
from datetime import date

from repro.core.parsing import (MappingDecision, PromptTable,
                                parse_prompt_tables, parse_request)
from repro.core.plan import LogicalPlan, LogicalStep
from repro.core.prompts import (DISCOVERY_MARKER, ERROR_MARKER,
                                MAPPING_MARKER, PLANNING_MARKER)
from repro.errors import LLMError
from repro.llm.interface import ChatMessage
from repro.llm.nl import (DepictsFilter, QueryIntent, RelationalFilter,
                          parse_query)
from repro.obs.cost import DEFAULT_COST_MODEL
from repro.relational.sqlexec import join_renames

# ----------------------------------------------------------------------
# Schema helpers
# ----------------------------------------------------------------------


def _locate(tables: dict[str, PromptTable],
            column: str) -> tuple[str, str] | None:
    for table in tables.values():
        if column in table.column_names:
            return table.name, column
    return None


def _table_with_dtype(tables: dict[str, PromptTable],
                      dtype: str) -> PromptTable | None:
    for table in tables.values():
        for _name, column_dtype in table.columns:
            if column_dtype == dtype:
                return table
    return None


def _column_with_dtype(table: PromptTable, dtype: str) -> str | None:
    for name, column_dtype in table.columns:
        if column_dtype == dtype:
            return name
    return None


def _anchored(intent: QueryIntent, tables: dict[str, PromptTable],
              table: str | None, column: str) -> tuple[str, str] | None:
    """Re-anchor a naively-located column to the query's subject table.

    ``resolve_noun`` returns the *first* table containing a column name, so
    "the names of players" resolves to ``teams.name`` in a rotowire schema.
    When the subject table also has the column, prefer it.
    """
    subject = intent.subject_table
    if subject and subject in tables and column in tables[subject].column_names:
        return subject, column
    if table and table in tables and column in tables[table].column_names:
        return table, column
    return _locate(tables, column)


def _plural(noun: str) -> str:
    return noun if noun.endswith("s") else noun + "s"


# ----------------------------------------------------------------------
# Join-path search over the foreign-key graph
# ----------------------------------------------------------------------


def _adjacency(tables: dict[str, PromptTable],
               ) -> dict[str, list[tuple[str, str, str]]]:
    """table → [(joinable table, own key column, other side's key column)].

    Edges come from the schema's declared foreign keys — including
    cross-column keys like ``players.team = teams.name`` — with a
    same-name fallback for table pairs that declare no key but share
    exactly one column name.  Declared keys win: the fallback never adds
    an edge between tables a foreign key already connects (the shared
    ``name`` column of ``players`` and ``teams`` is *not* a join key).
    """
    adjacency: dict[str, list[tuple[str, str, str]]] = {n: [] for n in tables}

    def connect(left: str, right: str, left_col: str, right_col: str) -> None:
        if (right, left_col, right_col) not in adjacency[left]:
            adjacency[left].append((right, left_col, right_col))
        if (left, right_col, left_col) not in adjacency[right]:
            adjacency[right].append((left, right_col, left_col))

    for table in tables.values():
        for column, other_table, other_column in table.foreign_keys:
            if other_table in tables:
                connect(table.name, other_table, column, other_column)
    # Fallback: tables sharing exactly one column name are joinable even
    # without a declared foreign key.
    names = list(tables)
    for i, left in enumerate(names):
        for right in names[i + 1:]:
            if any(other == right for other, _l, _r in adjacency[left]):
                continue  # a declared foreign key already connects them
            shared = (set(tables[left].column_names)
                      & set(tables[right].column_names))
            if len(shared) == 1:
                column = shared.pop()
                connect(left, right, column, column)
    return adjacency


def _shortest_path(adjacency: dict[str, list[tuple[str, str, str]]],
                   sources: list[str], target: str,
                   ) -> list[tuple[str, str, str, str]] | None:
    """BFS path from any of *sources* to *target*.

    Returns ``[(parent table, table, parent's key column, table's key
    column)]`` — one entry per table to join in.  The parent table is
    needed because the key column must later be resolved to its
    *current* name in the accumulated join result (an earlier join may
    have ``_right``-renamed it).  *sources* is an ordered list: ties
    between equal-length paths break toward the earliest source, so a
    path anchored on the query's subject table ("players" →
    ``players_to_games`` → ``game_reports``) beats an equally short path
    through a table that merely rode along ("teams" →
    ``teams_to_games`` → ...).  Set iteration order would make that
    choice hash-seed dependent.
    """
    previous: dict[str, tuple[str, str, str] | None] = {
        s: None for s in sources}
    queue = deque(sources)
    while queue:
        node = queue.popleft()
        if node == target:
            break
        for other, near_col, far_col in adjacency.get(node, ()):
            if other not in previous:
                previous[other] = (node, near_col, far_col)
                queue.append(other)
    if target not in previous:
        return None
    path: list[tuple[str, str, str, str]] = []
    node = target
    while previous[node] is not None:
        parent, near_col, far_col = previous[node]  # type: ignore[misc]
        path.append((parent, node, near_col, far_col))
        node = parent
    return list(reversed(path))


# ----------------------------------------------------------------------
# Logical-plan synthesis (Planning Phase)
# ----------------------------------------------------------------------


class _Builder:
    """Accumulates logical steps with unique output-table names."""

    def __init__(self) -> None:
        self.steps: list[LogicalStep] = []
        self._names: dict[str, int] = {}

    def name(self, base: str) -> str:
        count = self._names.get(base, 0) + 1
        self._names[base] = count
        return base if count == 1 else f"{base}_{count}"

    def add(self, description: str, inputs: list[str], output: str,
            new_columns: list[str] | None = None,
            params: dict | None = None) -> str:
        self.steps.append(LogicalStep(
            index=len(self.steps) + 1, description=description,
            inputs=list(inputs), output=output,
            new_columns=list(new_columns or []),
            params=dict(params or {})))
        return output


_OP_PHRASES = {"=": "equals", "!=": "does not equal",
               ">": "is greater than", ">=": "is at least",
               "<": "is less than", "<=": "is at most",
               "contains": "contains"}


def _render_value(value: object) -> str:
    if isinstance(value, bool):
        return f"'{str(value).lower()}'"
    if isinstance(value, date):
        return f"DATE '{value.isoformat()}'"
    if isinstance(value, (int, float)):
        return repr(value)
    return "'" + str(value).replace("'", "''") + "'"


def _emit_select(builder: _Builder, current: str, column: str, op: str,
                 value: object) -> str:
    """Emit a row-selection step.

    ``op == "between"`` takes a ``(low, high)`` bound pair — dates render
    as typed ``DATE '...'`` literals, and the bounds ride the step's
    params as tagged date scalars.
    """
    params: dict = {"column": column, "op": op}
    if op == "between":
        low, high = value  # type: ignore[misc]
        condition = (f"is between {_render_value(low)} "
                     f"and {_render_value(high)}")
        params.update(low=low, high=high)
    else:
        condition = f"{_OP_PHRASES[op]} {_render_value(value)}"
        params["value"] = value
    output = builder.name("selected_table")
    builder.add(
        f"Select only the rows of the '{current}' table where the "
        f"'{column}' column {condition}.", [current], output, params=params)
    return output


def _needed_tables(intent: QueryIntent,
                   tables: dict[str, PromptTable]) -> list[str]:
    """Base tables the plan must join, subject table first when it anchors.

    Row-counting and text-extraction measures are *about* the query's
    subject ("how many players play for teams in ...", "points scored by
    players on teams founded ..."), so an explicitly named subject table
    leads — it becomes the join base and the rows that get counted or
    fed to the extraction operator.
    """
    needed: list[str] = []

    def note(name: str | None) -> None:
        if name and name in tables and name not in needed:
            needed.append(name)

    if intent.subject_explicit and any(
            m.kind in ("count_rows", "text_stat") for m in intent.measures):
        note(intent.subject_table)
    group = intent.group_by
    if group:
        note(group.table)
    for measure in intent.measures:
        note(measure.table)
    for item in intent.filters:
        if isinstance(item, RelationalFilter):
            note(item.table)
    for table, _column in _anchored_select_columns(intent, tables):
        note(table)
    if intent.superlative:
        note(intent.subject_table)
        _agg, by_column, target = intent.superlative
        for column in (by_column, target):
            located = _anchored(intent, tables, None, column)
            if located:
                note(located[0])
    if intent.needs_images:
        image_table = _table_with_dtype(tables, "IMAGE")
        if image_table is None:
            raise LLMError("the query needs images but no IMAGE column "
                           "exists in the schema")
        note(image_table.name)
        adjacency = _adjacency(tables)
        for other, _near_col, _far_col in adjacency[image_table.name]:
            note(other)
    if intent.needs_text:
        text_table = _table_with_dtype(tables, "TEXT")
        if text_table is None:
            raise LLMError("the query needs text documents but no TEXT "
                           "column exists in the schema")
        note(text_table.name)
    if not needed:
        note(intent.subject_table)
    if not needed and tables:
        needed.append(next(iter(tables)))
    return needed


def _anchored_select_columns(intent: QueryIntent,
                             tables: dict[str, PromptTable],
                             ) -> list[tuple[str, str]]:
    anchored: list[tuple[str, str]] = []
    for table, column in intent.select_columns:
        located = _anchored(intent, tables, table, column)
        if located and located not in anchored:
            anchored.append(located)
    return anchored


def _emit_joins(builder: _Builder, needed: list[str],
                tables: dict[str, PromptTable]) -> tuple[str, set[str]]:
    """Join every table in *needed* into one current table.

    Same-name keys emit the classic "on the 'x' column" step (mapped to
    SQL ``JOIN ... USING``); cross-column keys ("players.team =
    teams.name") emit the two-column phrasing mapped to the Join
    operator.  Right-side name clashes follow
    :func:`repro.relational.sqlexec.join_renames`, and the returned column
    set reflects them.
    """
    base = needed[0]
    current = base
    columns = set(tables[base].column_names)
    if len(needed) == 1:
        return current, columns
    adjacency = _adjacency(tables)
    included = [base]                      # ordered: subject/base first
    join_sequence: list[tuple[str, str, str, str]] = []
    for target in needed[1:]:
        if target in included:
            continue
        path = _shortest_path(adjacency, included, target)
        if path is None:
            raise LLMError(
                f"cannot find a join path from {sorted(included)} to "
                f"{target!r}")
        for parent, table, near_col, far_col in path:
            if table not in included:
                join_sequence.append((parent, table, near_col, far_col))
                included.append(table)
    #: (base table, base column) → the column's current name in the
    #: accumulated join result; cross joins ``_right``-rename clashes,
    #: and a later hop out of the renamed side must join on the renamed
    #: column, not the original.
    current_name: dict[tuple[str, str], str] = {
        (base, name): name for name in tables[base].column_names}
    for parent, table, near_col, far_col in join_sequence:
        output = builder.name("joined_table")
        near = current_name.get((parent, near_col), near_col)
        params = {"left": current, "right": table,
                  "left_on": near, "right_on": far_col}
        right_columns = list(tables[table].column_names)
        if near == far_col:
            # SQL ``JOIN ... USING`` merges the key and keeps duplicate
            # names as-is, exactly like before.
            builder.add(
                f"Join the '{current}' and '{table}' tables on the "
                f"'{near}' column.", [current, table], output,
                params=params)
            columns |= set(right_columns)
            for name in right_columns:
                current_name[(table, name)] = name
        else:
            builder.add(
                f"Join the '{current}' and '{table}' tables on the "
                f"'{near}' and '{far_col}' columns.", [current, table],
                output, params=params)
            renames = join_renames(sorted(columns), right_columns,
                                   near, far_col)
            columns |= {renames.get(name, name) for name in right_columns}
            for name in right_columns:
                current_name[(table, name)] = renames.get(name, name)
        current = output
    return current, columns


def _entity_column(intent: QueryIntent, columns: set[str]) -> str:
    group = intent.group_by
    if group and group.column and group.column in columns:
        return group.column
    if "name" in columns:
        return "name"
    raise LLMError("cannot determine the entity column for text extraction")


def synthesize_plan(intent: QueryIntent,
                    tables: dict[str, PromptTable]) -> LogicalPlan:
    """Turn a :class:`QueryIntent` into a :class:`LogicalPlan`.

    The emitted step descriptions follow the canonical templates of the
    few-shot examples, which is exactly the language :func:`map_step`
    understands — the same closed loop a consistent LLM would exhibit.
    """
    if not tables:
        raise LLMError("no tables in scope; cannot plan")
    builder = _Builder()
    needed = _needed_tables(intent, tables)
    current, columns = _emit_joins(builder, needed, tables)

    # Relational filters over existing columns.
    derived_filters: list[RelationalFilter] = []
    for item in intent.filters:
        if not isinstance(item, RelationalFilter):
            continue
        if item.derive:
            derived_filters.append(item)
            continue
        if item.column not in columns:
            raise LLMError(
                f"filter column {item.column!r} is not available after "
                f"joining {needed}")
        current = _emit_select(builder, current, item.column, item.op,
                               item.value)

    # Derived columns (century / decade / year) needed anywhere downstream.
    group = intent.group_by
    measure = intent.measure
    derivations: list[tuple[str, str]] = []

    def need_derivation(derive: str | None, source: str | None) -> None:
        if derive and source and (derive, source) not in derivations:
            derivations.append((derive, source))

    if group:
        need_derivation(group.derive, group.source_column)
    for item in derived_filters:
        need_derivation(item.derive, item.source_column)
    for item in intent.measures:
        need_derivation(item.derive, item.source_column)
    for derive, source in derivations:
        if source not in columns:
            raise LLMError(f"cannot derive {derive!r}: source column "
                           f"{source!r} is not available")
        output = builder.name("derived_table")
        builder.add(
            f"Compute the {derive} from the '{source}' column of the "
            f"'{current}' table into the '{derive}' column.",
            [current], output, [derive])
        columns.add(derive)
        current = output
    for item in derived_filters:
        current = _emit_select(builder, current, item.derive, item.op,
                               item.value)

    # Multi-modal predicates: VQA yes/no column + select.
    image_table = _table_with_dtype(tables, "IMAGE")
    image_column = (_column_with_dtype(image_table, "IMAGE")
                    if image_table else None)
    for item in intent.filters:
        if not isinstance(item, DepictsFilter):
            continue
        if image_column is None or image_column not in columns:
            raise LLMError("a depicts-filter needs an IMAGE column in scope")
        for category in item.categories:
            new_column = f"{category}_depicted"
            output = builder.name("extracted_table")
            builder.add(
                f"Extract whether {category} is depicted in the "
                f"'{image_column}' column of the '{current}' table into "
                f"the '{new_column}' column.",
                [current], output, [new_column])
            columns.add(new_column)
            current = output
            current = _emit_select(builder, current, new_column, "=", "yes")

    # Multi-measure aggregates ("the min, max and avg of 'year'") compile
    # into ONE aggregation step with one output column per measure; a
    # single measure falls through to the classic single-measure steps.
    multi_specs = _multi_measure_specs(intent, tables, columns)

    # Measure extraction from modalities.
    text_table = _table_with_dtype(tables, "TEXT")
    text_column = (_column_with_dtype(text_table, "TEXT")
                   if text_table else None)
    measure_column: str | None = None
    if measure is not None:
        if measure.kind == "vqa_count":
            if image_column is None or image_column not in columns:
                raise LLMError("counting depicted objects needs an IMAGE "
                               "column in scope")
            measure_column = f"num_{measure.category}"
            output = builder.name("extracted_table")
            builder.add(
                f"Extract the number of {_plural(measure.category)} "
                f"depicted in the '{image_column}' column of the "
                f"'{current}' table into the '{measure_column}' column.",
                [current], output, [measure_column])
            columns.add(measure_column)
            current = output
        elif measure.kind == "text_stat":
            if text_column is None or text_column not in columns:
                raise LLMError("extracting statistics needs a TEXT column "
                               "in scope")
            entity = _entity_column(intent, columns)
            measure_column = f"num_{measure.stat}"
            output = builder.name("extracted_table")
            builder.add(
                f"Extract the number of {measure.stat} that each "
                f"<{entity}> recorded from the '{text_column}' column of "
                f"the '{current}' table into the '{measure_column}' column.",
                [current], output, [measure_column])
            columns.add(measure_column)
            current = output
        elif measure.kind == "outcome":
            if text_column is None or text_column not in columns:
                raise LLMError("deciding game outcomes needs a TEXT column "
                               "in scope")
            entity = _entity_column(intent, columns)
            new_column = f"{measure.outcome}_game"
            output = builder.name("extracted_table")
            builder.add(
                f"Extract whether each <{entity}> {measure.outcome} the "
                f"game from the '{text_column}' column of the '{current}' "
                f"table into the '{new_column}' column.",
                [current], output, [new_column])
            columns.add(new_column)
            current = output
            current = _emit_select(builder, current, new_column, "=", "yes")
        elif measure.kind == "column":
            if measure.derive:
                measure_column = measure.derive
            else:
                located = _anchored(intent, tables, measure.table,
                                    measure.column or "")
                if located is None or located[1] not in columns:
                    raise LLMError(
                        f"measure column {measure.column!r} is not available")
                measure_column = located[1]

    # Aggregation.
    value_column: str | None = None
    group_column: str | None = None
    if group is not None:
        group_column = group.derive if group.derive else group.column
        if group_column is None or group_column not in columns:
            raise LLMError(f"group column {group_column!r} is not available")
        if multi_specs:
            phrases, outputs_text = _render_measure_list(multi_specs)
            output = builder.name("grouped_table")
            builder.add(
                f"Group the '{current}' table by '{group_column}' and "
                f"compute {phrases} into the {outputs_text} columns.",
                [current], output, [out for _agg, _col, out in multi_specs],
                params={"by": group_column,
                        "measures": _measure_params(multi_specs)})
            columns = {group_column} | {out for _a, _c, out in multi_specs}
            current = output
        else:
            aggphrase, value_column = _group_aggregation(measure,
                                                         measure_column)
            output = builder.name("grouped_table")
            builder.add(
                f"Group the '{current}' table by '{group_column}' and "
                f"compute the {aggphrase} into the '{value_column}' column.",
                [current], output, [value_column])
            columns = {group_column, value_column}
            current = output
    elif intent.measures and intent.output_kind != "plot":
        if multi_specs:
            phrases, outputs_text = _render_measure_list(multi_specs)
            output = builder.name("result_table")
            builder.add(
                f"Compute {phrases} of the '{current}' table into the "
                f"{outputs_text} columns.",
                [current], output, [out for _agg, _col, out in multi_specs],
                params={"measures": _measure_params(multi_specs)})
            columns = {out for _agg, _col, out in multi_specs}
            current = output
        else:
            current, value_column = _emit_scalar_aggregation(
                builder, current, measure, measure_column)
            columns = {value_column}
    elif intent.superlative is not None:
        current = _emit_superlative(builder, intent, tables, current, columns)
    if (group is None and measure is None and intent.superlative is None
            and not intent.select_columns):
        raise LLMError(
            f"cannot synthesize a plan for {intent.query!r}: no measure, "
            "grouping, superlative, or projection")

    # Projection for list-style queries.
    select_columns = _anchored_select_columns(intent, tables)
    if select_columns and group is None and measure is None:
        names = [column for _table, column in select_columns
                 if column in columns]
        if names:
            rendered = ", ".join(f"'{name}'" for name in names)
            distinct = "distinct " if intent.distinct else ""
            output = builder.name("projected_table")
            builder.add(
                f"Project the {distinct}columns [{rendered}] of the "
                f"'{current}' table.", [current], output)
            columns = set(names)
            current = output

    # Plot.
    if intent.output_kind == "plot":
        if group is not None and group_column and value_column:
            builder.add(
                f"Plot the '{current}' table as a {intent.plot_kind} plot "
                f"with '{group_column}' on the X-axis and '{value_column}' "
                f"on the Y-axis.", [current], "plot")
        elif measure is not None and measure_column:
            builder.add(
                f"Plot the '{current}' table as a hist plot with "
                f"'{measure_column}' on the X-axis and '{measure_column}' "
                f"on the Y-axis.", [current], "plot")
        else:
            raise LLMError(
                f"cannot synthesize a plot for {intent.query!r}: nothing "
                "to put on the axes")

    thought = _render_thought(intent, needed)
    return LogicalPlan(steps=builder.steps, thought=thought)


def _multi_measure_specs(intent: QueryIntent,
                         tables: dict[str, PromptTable],
                         columns: set[str],
                         ) -> list[tuple[str, str, str]] | None:
    """``(agg word, input column, output column)`` triples for a
    multi-measure aggregate, or ``None`` for the single-measure paths.

    Only pure column measures (including derived columns like ``year``)
    compose into one multi-measure step; plots take a single y-measure,
    so multi-measure plots fall back to the first measure.
    """
    measures = intent.measures
    if (len(measures) < 2 or intent.output_kind == "plot"
            or any(m.kind != "column" for m in measures)):
        return None
    specs: list[tuple[str, str, str]] = []
    seen: set[tuple[str, str]] = set()
    for m in measures:
        if m.derive:
            column = m.derive
        else:
            located = _anchored(intent, tables, m.table, m.column or "")
            if located is None or located[1] not in columns:
                raise LLMError(
                    f"measure column {m.column!r} is not available")
            column = located[1]
        agg_word = ("distinct count" if m.agg == "count_distinct"
                    else m.agg)
        if (agg_word, column) in seen:
            continue
        seen.add((agg_word, column))
        specs.append((agg_word, column, f"{m.agg}_{column}"))
    return specs if len(specs) > 1 else None


def _render_measure_list(specs: list[tuple[str, str, str]],
                         ) -> tuple[str, str]:
    """("the min of 'year', ... and the avg of 'year'",
    "'min_year', ... and 'avg_year'") for a multi-measure step."""
    phrases = [f"the {agg} of '{column}'" for agg, column, _out in specs]
    outputs = [f"'{out}'" for _agg, _column, out in specs]
    return _comma_and(phrases), _comma_and(outputs)


def _comma_and(parts: list[str]) -> str:
    if len(parts) == 1:
        return parts[0]
    return ", ".join(parts[:-1]) + " and " + parts[-1]


def _measure_params(specs: list[tuple[str, str, str]]) -> list[dict]:
    return [{"agg": agg, "column": column, "output": out}
            for agg, column, out in specs]


def _group_aggregation(measure, measure_column: str | None,
                       ) -> tuple[str, str]:
    """(aggregation phrase, output column) for a grouped aggregation."""
    if measure is None or measure.kind in ("count_rows", "outcome"):
        return "count of rows", "count"
    if measure.kind == "column":
        if measure.agg == "count_distinct":
            return (f"distinct count of '{measure_column}'",
                    f"distinct_count_{measure_column}")
        if measure.agg == "count":
            return f"count of '{measure_column}'", f"count_{measure_column}"
        return (f"{measure.agg} of '{measure_column}'",
                f"{measure.agg}_{measure_column}")
    agg = measure.agg if measure.agg in ("sum", "avg", "min", "max") else "sum"
    return f"{agg} of '{measure_column}'", f"{agg}_{measure_column}"


def _emit_scalar_aggregation(builder: _Builder, current: str, measure,
                             measure_column: str | None) -> tuple[str, str]:
    if measure.kind in ("count_rows", "outcome"):
        output = builder.name("result_table")
        builder.add(
            f"Count the number of rows of the '{current}' table into the "
            f"'count' column.", [current], output, ["count"])
        return output, "count"
    if measure.agg == "count_distinct":
        agg_word, value_column = ("distinct count",
                                  f"distinct_count_{measure_column}")
    elif measure.agg in ("count", "sum", "avg", "min", "max"):
        agg_word, value_column = measure.agg, f"{measure.agg}_{measure_column}"
    else:
        agg_word, value_column = "sum", f"sum_{measure_column}"
    output = builder.name("result_table")
    builder.add(
        f"Compute the {agg_word} of the '{measure_column}' column of the "
        f"'{current}' table into the '{value_column}' column.",
        [current], output, [value_column])
    return output, value_column


def _emit_superlative(builder: _Builder, intent: QueryIntent,
                      tables: dict[str, PromptTable], current: str,
                      columns: set[str]) -> str:
    agg, by_column, target = intent.superlative
    if by_column not in columns or target not in columns:
        raise LLMError(
            f"superlative columns {by_column!r}/{target!r} are not available")
    direction = "descending" if agg == "max" else "ascending"
    output = builder.name("sorted_table")
    builder.add(
        f"Sort the '{current}' table by the '{by_column}' column in "
        f"{direction} order and keep only the first row.",
        [current], output)
    current = output
    output = builder.name("projected_table")
    builder.add(
        f"Project the columns ['{target}'] of the '{current}' table.",
        [current], output)
    return output


def _render_thought(intent: QueryIntent, needed: list[str]) -> str:
    tables_text = ", ".join(needed) or "the database"
    actions = []
    if len(needed) > 1:
        actions.append("join them")
    if any(isinstance(f, RelationalFilter) for f in intent.filters):
        actions.append("filter the rows")
    if intent.needs_images:
        actions.append("look at the images")
    if intent.needs_text:
        actions.append("read the reports")
    if intent.group_by or intent.measure:
        actions.append("aggregate")
    if intent.output_kind == "plot":
        actions.append("plot the result")
    action_text = ", then ".join(actions) if actions else "read off the answer"
    return f"I need the {tables_text} data; I will {action_text}."


# ----------------------------------------------------------------------
# Step → operator binding (Mapping Phase)
# ----------------------------------------------------------------------

_JOIN_STEP_RE = re.compile(
    r"^Join the '(?P<left>\w+)' and '(?P<right>\w+)' tables on the "
    r"'(?P<col>\w+)' column\.$")
_CROSS_JOIN_STEP_RE = re.compile(
    r"^Join the '(?P<left>\w+)' and '(?P<right>\w+)' tables on the "
    r"'(?P<lcol>\w+)' and '(?P<rcol>\w+)' columns\.$")
_SELECT_STEP_RE = re.compile(
    r"^Select only the rows of the '(?P<t>\w+)' table where the "
    r"'(?P<col>\w+)' column (?P<cond>.+)\.$")
_VQA_NUM_STEP_RE = re.compile(
    r"^Extract the number of (?P<noun>[\w ]+) depicted in the "
    r"'(?P<img>\w+)' column of the '(?P<t>\w+)' table into the "
    r"'(?P<new>\w+)' column\.$")
_VQA_BOOL_STEP_RE = re.compile(
    r"^Extract whether (?P<noun>[\w ]+) is depicted in the '(?P<img>\w+)' "
    r"column of the '(?P<t>\w+)' table into the '(?P<new>\w+)' column\.$")
_TEXT_STAT_STEP_RE = re.compile(
    r"^Extract the number of (?P<stat>points|rebounds|assists) that each "
    r"<(?P<entity>\w+)> recorded from the '(?P<txt>\w+)' column of the "
    r"'(?P<t>\w+)' table into the '(?P<new>\w+)' column\.$")
_TEXT_OUTCOME_STEP_RE = re.compile(
    r"^Extract whether each <(?P<entity>\w+)> (?P<outcome>won|lost) the "
    r"game from the '(?P<txt>\w+)' column of the '(?P<t>\w+)' table into "
    r"the '(?P<new>\w+)' column\.$")
_DERIVE_STEP_RE = re.compile(
    r"^Compute the (?P<derive>century|decade|year) from the '(?P<src>\w+)' "
    r"column of the '(?P<t>\w+)' table into the '(?P<new>\w+)' column\.$")
_GROUP_STEP_RE = re.compile(
    r"^Group the '(?P<t>\w+)' table by '(?P<g>\w+)' and compute the "
    r"(?P<aggphrase>.+) into the '(?P<new>\w+)' column\.$")
_COUNT_ROWS_STEP_RE = re.compile(
    r"^Count the number of rows of the '(?P<t>\w+)' table into the "
    r"'(?P<new>\w+)' column\.$")
_AGG_STEP_RE = re.compile(
    r"^Compute the (?P<agg>count|distinct count|sum|avg|min|max) of the "
    r"'(?P<col>\w+)' column of the '(?P<t>\w+)' table into the "
    r"'(?P<new>\w+)' column\.$")
_AGG_SPEC = r"the (?:count|distinct count|sum|avg|min|max) of '\w+'"
_MULTI_AGG_STEP_RE = re.compile(
    rf"^Compute (?P<specs>{_AGG_SPEC}(?:(?:, | and ){_AGG_SPEC})+) of the "
    rf"'(?P<t>\w+)' table into the (?P<outs>'\w+'(?:(?:, | and )'\w+')+) "
    rf"columns\.$")
_MULTI_GROUP_STEP_RE = re.compile(
    rf"^Group the '(?P<t>\w+)' table by '(?P<g>\w+)' and compute "
    rf"(?P<specs>{_AGG_SPEC}(?:(?:, | and ){_AGG_SPEC})+) into the "
    rf"(?P<outs>'\w+'(?:(?:, | and )'\w+')+) columns\.$")
_AGG_SPEC_ITEM_RE = re.compile(
    r"the (?P<agg>count|distinct count|sum|avg|min|max) of '(?P<col>\w+)'")
_SORT_STEP_RE = re.compile(
    r"^Sort the '(?P<t>\w+)' table by the '(?P<col>\w+)' column in "
    r"(?P<dir>ascending|descending) order and keep only the first row\.$")
_PROJECT_STEP_RE = re.compile(
    r"^Project the (?P<distinct>distinct )?columns \[(?P<cols>.+)\] of the "
    r"'(?P<t>\w+)' table\.$")
_PLOT_STEP_RE = re.compile(
    r"^Plot the '(?P<t>\w+)' table as a (?P<kind>bar|line|scatter|hist) "
    r"plot with '(?P<x>\w+)' on the X-axis and '(?P<y>\w+)' on the "
    r"Y-axis\.$")

_CONDITION_RES = [
    (re.compile(r"^does not equal (?P<v>.+)$"), "!="),
    (re.compile(r"^equals (?P<v>.+)$"), "="),
    (re.compile(r"^is greater than (?P<v>.+)$"), ">"),
    (re.compile(r"^is at least (?P<v>.+)$"), ">="),
    (re.compile(r"^is less than (?P<v>.+)$"), "<"),
    (re.compile(r"^is at most (?P<v>.+)$"), "<="),
    (re.compile(r"^contains (?P<v>.+)$"), "contains"),
]

_BETWEEN_CONDITION_RE = re.compile(
    r"^is between (?P<lo>DATE '[^']+'|'(?:[^']|'')*'|\S+) "
    r"and (?P<hi>DATE '[^']+'|'(?:[^']|'')*'|\S+)$")

_DATE_LITERAL_RE = re.compile(r"^DATE\s+'(?P<iso>[^']+)'$")


def _quote_ident(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


def _parse_condition_value(token: str) -> tuple[object, bool]:
    """Parse a rendered literal; returns (value, is_string).

    Typed ``DATE '...'`` literals come back as their ISO string form —
    sqlite stores and compares dates as TEXT, and ISO strings order
    correctly.
    """
    token = token.strip()
    date_match = _DATE_LITERAL_RE.match(token)
    if date_match:
        return date_match.group("iso"), True
    if len(token) >= 2 and token.startswith("'") and token.endswith("'"):
        return token[1:-1].replace("''", "'"), True
    try:
        return int(token), False
    except ValueError:
        pass
    try:
        return float(token), False
    except ValueError as exc:
        raise LLMError(f"cannot parse literal {token!r}") from exc


def _sql_literal(value: object, is_string: bool) -> str:
    if is_string:
        return "'" + str(value).replace("'", "''") + "'"
    return str(value)


def _agg_sql(agg_word: str, column: str | None) -> str:
    if agg_word == "count of rows":
        return "COUNT(*)"
    if agg_word == "distinct count":
        return f"COUNT(DISTINCT {_quote_ident(column or '')})"
    return f"{agg_word.upper()}({_quote_ident(column or '')})"


def _multi_agg_select_list(specs_text: str, outs_text: str) -> str:
    """SQL select-list for a multi-measure step's spec and output lists."""
    specs = _AGG_SPEC_ITEM_RE.findall(specs_text)
    outs = re.findall(r"'(\w+)'", outs_text)
    if len(specs) != len(outs):
        raise LLMError(
            f"multi-measure step lists {len(specs)} aggregates but "
            f"{len(outs)} output columns")
    return ", ".join(
        f"{_agg_sql(agg, column)} AS {_quote_ident(out)}"
        for (agg, column), out in zip(specs, outs))


def map_step(description: str) -> MappingDecision:
    """Bind one canonical step description to an operator + arguments.

    Raises :class:`LLMError` when the description is outside the grammar —
    the engine's error handler sees this as a mapping failure.
    """
    description = description.strip()

    match = _JOIN_STEP_RE.match(description)
    if match:
        sql = (f"SELECT * FROM {_quote_ident(match.group('left'))} JOIN "
               f"{_quote_ident(match.group('right'))} USING "
               f"({_quote_ident(match.group('col'))})")
        return MappingDecision(
            operator="SQL", arguments=[sql],
            reasoning="Joining two tables on a shared key column is "
                      "relational work, so SQL is the right operator.")

    match = _CROSS_JOIN_STEP_RE.match(description)
    if match:
        return MappingDecision(
            operator="Join",
            arguments=[match.group("left"), match.group("right"),
                       match.group("lcol"), match.group("rcol")],
            reasoning="The join keys have different column names on the "
                      "two sides, which is exactly what the Join operator "
                      "handles.")

    match = _SELECT_STEP_RE.match(description)
    if match:
        condition = match.group("cond").strip()
        between = _BETWEEN_CONDITION_RE.match(condition)
        if between:
            low, low_is_string = _parse_condition_value(between.group("lo"))
            high, high_is_string = _parse_condition_value(between.group("hi"))
            column = _quote_ident(match.group("col"))
            predicate = (f"{column} BETWEEN "
                         f"{_sql_literal(low, low_is_string)} AND "
                         f"{_sql_literal(high, high_is_string)}")
            sql = (f"SELECT * FROM {_quote_ident(match.group('t'))} "
                   f"WHERE {predicate}")
            return MappingDecision(
                operator="SQL", arguments=[sql],
                reasoning="A range predicate over a relational column is "
                          "SQL work; date bounds compare correctly as ISO "
                          "strings.")
        for pattern, op in _CONDITION_RES:
            cond_match = pattern.match(condition)
            if cond_match is None:
                continue
            value, is_string = _parse_condition_value(cond_match.group("v"))
            column = _quote_ident(match.group("col"))
            if op == "contains":
                escaped = str(value).replace("'", "''")
                predicate = f"{column} LIKE '%{escaped}%'"
            else:
                predicate = f"{column} {op} {_sql_literal(value, is_string)}"
            sql = (f"SELECT * FROM {_quote_ident(match.group('t'))} "
                   f"WHERE {predicate}")
            return MappingDecision(
                operator="SQL", arguments=[sql],
                reasoning="Selecting rows by a condition over a relational "
                          "column is SQL work.")
        raise LLMError(f"cannot map selection condition {condition!r}")

    match = _VQA_NUM_STEP_RE.match(description)
    if match:
        question = f"How many {match.group('noun').strip()} are depicted?"
        return MappingDecision(
            operator="Visual Question Answering",
            arguments=[match.group("t"), match.group("img"),
                       match.group("new"), question, "int"],
            reasoning="Counting objects requires looking inside IMAGE "
                      "values, which only Visual Question Answering can do.")

    match = _VQA_BOOL_STEP_RE.match(description)
    if match:
        question = f"Is {match.group('noun').strip()} depicted?"
        return MappingDecision(
            operator="Visual Question Answering",
            arguments=[match.group("t"), match.group("img"),
                       match.group("new"), question, "str"],
            reasoning="Whether something is depicted must be answered from "
                      "the IMAGE column via Visual Question Answering.")

    match = _TEXT_STAT_STEP_RE.match(description)
    if match:
        template = (f"How many {match.group('stat')} did "
                    f"<{match.group('entity')}> record?")
        return MappingDecision(
            operator="Text Question Answering",
            arguments=[match.group("t"), match.group("txt"),
                       match.group("new"), template, "int"],
            reasoning="The statistic is stated inside TEXT documents, so "
                      "Text Question Answering with a question template "
                      "is needed.")

    match = _TEXT_OUTCOME_STEP_RE.match(description)
    if match:
        verb = "win" if match.group("outcome") == "won" else "lose"
        template = f"Did <{match.group('entity')}> {verb}?"
        return MappingDecision(
            operator="Text Question Answering",
            arguments=[match.group("t"), match.group("txt"),
                       match.group("new"), template, "str"],
            reasoning="The game outcome is stated inside TEXT documents, "
                      "so Text Question Answering is needed.")

    match = _DERIVE_STEP_RE.match(description)
    if match:
        transform = (f"extract the {match.group('derive')} from the date "
                     "string")
        return MappingDecision(
            operator="Python",
            arguments=[match.group("t"), match.group("src"),
                       match.group("new"), transform],
            reasoning="Deriving a value from a date string is a "
                      "transformation SQL cannot express; generated Python "
                      "code handles it.")

    match = _GROUP_STEP_RE.match(description)
    if match:
        aggphrase = match.group("aggphrase").strip()
        if aggphrase == "count of rows":
            agg_sql = _agg_sql("count of rows", None)
        else:
            agg_match = re.match(r"^(?P<agg>count|distinct count|sum|avg|"
                                 r"min|max) of '(?P<col>\w+)'$", aggphrase)
            if agg_match is None:
                raise LLMError(
                    f"cannot map aggregation phrase {aggphrase!r}")
            agg_sql = _agg_sql(agg_match.group("agg"), agg_match.group("col"))
        group_column = _quote_ident(match.group("g"))
        sql = (f"SELECT {group_column}, {agg_sql} AS "
               f"{_quote_ident(match.group('new'))} FROM "
               f"{_quote_ident(match.group('t'))} GROUP BY {group_column} "
               f"ORDER BY {group_column}")
        return MappingDecision(
            operator="SQL", arguments=[sql],
            reasoning="Grouping and aggregating relational columns is SQL "
                      "work.")

    match = _COUNT_ROWS_STEP_RE.match(description)
    if match:
        sql = (f"SELECT COUNT(*) AS {_quote_ident(match.group('new'))} "
               f"FROM {_quote_ident(match.group('t'))}")
        return MappingDecision(
            operator="SQL", arguments=[sql],
            reasoning="Counting rows is SQL work.")

    match = _AGG_STEP_RE.match(description)
    if match:
        agg_sql = _agg_sql(match.group("agg"), match.group("col"))
        sql = (f"SELECT {agg_sql} AS {_quote_ident(match.group('new'))} "
               f"FROM {_quote_ident(match.group('t'))}")
        return MappingDecision(
            operator="SQL", arguments=[sql],
            reasoning="Aggregating a relational column is SQL work.")

    match = _MULTI_AGG_STEP_RE.match(description)
    if match:
        select_list = _multi_agg_select_list(match.group("specs"),
                                             match.group("outs"))
        sql = (f"SELECT {select_list} "
               f"FROM {_quote_ident(match.group('t'))}")
        return MappingDecision(
            operator="SQL", arguments=[sql],
            reasoning="Several aggregates over relational columns compute "
                      "in one SQL statement, one output column each.")

    match = _MULTI_GROUP_STEP_RE.match(description)
    if match:
        select_list = _multi_agg_select_list(match.group("specs"),
                                             match.group("outs"))
        group_column = _quote_ident(match.group("g"))
        sql = (f"SELECT {group_column}, {select_list} FROM "
               f"{_quote_ident(match.group('t'))} GROUP BY {group_column} "
               f"ORDER BY {group_column}")
        return MappingDecision(
            operator="SQL", arguments=[sql],
            reasoning="Grouping with several aggregates is SQL work, one "
                      "output column per aggregate.")

    match = _SORT_STEP_RE.match(description)
    if match:
        direction = "DESC" if match.group("dir") == "descending" else "ASC"
        sql = (f"SELECT * FROM {_quote_ident(match.group('t'))} ORDER BY "
               f"{_quote_ident(match.group('col'))} {direction} LIMIT 1")
        return MappingDecision(
            operator="SQL", arguments=[sql],
            reasoning="Sorting and limiting rows is SQL work.")

    match = _PROJECT_STEP_RE.match(description)
    if match:
        names = [part.strip().strip("'")
                 for part in match.group("cols").split(",")]
        rendered = ", ".join(_quote_ident(name) for name in names if name)
        distinct = "DISTINCT " if match.group("distinct") else ""
        sql = (f"SELECT {distinct}{rendered} FROM "
               f"{_quote_ident(match.group('t'))}")
        return MappingDecision(
            operator="SQL", arguments=[sql],
            reasoning="Projecting columns is SQL work.")

    match = _PLOT_STEP_RE.match(description)
    if match:
        return MappingDecision(
            operator="Plot",
            arguments=[match.group("t"), match.group("kind"),
                       match.group("x"), match.group("y")],
            reasoning="The user asked for a visualization, so the Plot "
                      "operator draws the result table.")

    raise LLMError(f"the simulated model cannot map step {description!r}")


# ----------------------------------------------------------------------
# The simulated LLM
# ----------------------------------------------------------------------

_STEP_LINE_RE = re.compile(r"Step\s+(\d+):\s*(.+)")
_ERROR_OCCURRED_RE = re.compile(r"This error occurred:\s*(?P<msg>.+)\s*\Z",
                                re.DOTALL)


class SimulatedBrain:
    """A deterministic, rule-based stand-in for the GPT-4 planner.

    Reads rendered chat prompts exactly like a remote model would, decides
    which phase is being asked for from the prompt markers, and answers in
    the documented output format.  Implements the
    :class:`~repro.llm.interface.LanguageModel` protocol.

    *latency_seconds* emulates the round-trip of a remote endpoint: each
    ``complete`` call blocks that long (GIL-free, like real network /
    inference wait) before answering.  The repo benchmark and the CI
    lane gate use it so concurrency measurements reflect the
    latency-bound behaviour of a production deployment instead of a
    zero-latency simulator; the default of ``0.0`` keeps tests and
    interactive runs instant.

    The brain keeps no mutable state across calls, so one instance may be
    shared by concurrent engines.
    """

    name = "simulated-brain"

    #: the :class:`~repro.llm.interface.LanguageModel` cost hook — the
    #: engine prices this brain's traffic with the default deterministic
    #: char-based estimator, exactly as a real brain would declare its own.
    cost_model = DEFAULT_COST_MODEL

    def __init__(self, latency_seconds: float = 0.0):
        if latency_seconds < 0:
            raise ValueError("latency_seconds must be non-negative")
        self.latency_seconds = latency_seconds

    def complete(self, messages: list[ChatMessage]) -> str:
        if self.latency_seconds:
            time.sleep(self.latency_seconds)
        text = "\n\n".join(message.content for message in messages)
        if MAPPING_MARKER in text:
            return self._complete_mapping(text)
        if PLANNING_MARKER in text:
            return self._complete_planning(text)
        if ERROR_MARKER in text:
            return self._complete_error(text)
        if DISCOVERY_MARKER in text:
            return self._complete_discovery(text)
        raise LLMError("the simulated model does not recognize this prompt")

    # ------------------------------------------------------------------

    def _complete_planning(self, text: str) -> str:
        tables = parse_prompt_tables(text)
        query = parse_request(text)
        intent = parse_query(query, tables)
        plan = synthesize_plan(intent, tables)
        return plan.render()

    def _complete_mapping(self, text: str) -> str:
        matches = _STEP_LINE_RE.findall(text)
        if not matches:
            raise LLMError("mapping prompt contains no step to map")
        index, description = matches[-1]
        decision = map_step(description.strip())
        arguments = "; ".join(decision.arguments)
        return (f"Step {index}: {description.strip()}\n"
                f"Reasoning: {decision.reasoning}\n"
                f"Operator: {decision.operator}\n"
                f"Arguments: ({arguments})")

    def _complete_error(self, text: str) -> str:
        match = _ERROR_OCCURRED_RE.search(text)
        message = (match.group("msg").strip().lower() if match else "")
        update_arguments = ("expects" in message and "arguments" in message)
        different_tool = "unknown operator" in message
        flaw_in_plan = not (update_arguments or different_tool)
        if update_arguments:
            cause = "The operator was called with the wrong argument tuple."
            fix = "Call the operator again with the documented arguments."
        elif different_tool:
            cause = "The chosen operator does not exist."
            fix = "Choose one of the registered operators instead."
        else:
            cause = "The plan references data that is not available."
            fix = "Produce a new plan that only uses the given schema."

        def yes_no(flag: bool) -> str:
            return "Yes" if flag else "No"

        return (f"Answer 1: {cause}\n"
                f"Answer 2: {fix}\n"
                f"Answer 3: {yes_no(flaw_in_plan)}\n"
                f"Answer 4: {yes_no(flaw_in_plan)}\n"
                f"Answer 5: {yes_no(different_tool)}\n"
                f"Answer 6: {yes_no(update_arguments)}")

    def _complete_discovery(self, text: str) -> str:
        tables = parse_prompt_tables(text)
        query = parse_request(text)
        pairs: list[tuple[str, str]] = []

        def note(table: str | None, column: str | None) -> None:
            if (table and column and table in tables
                    and column in tables[table].column_names
                    and (table, column) not in pairs):
                pairs.append((table, column))

        try:
            intent = parse_query(query, tables)
        except LLMError:
            intent = None
        if intent is not None:
            group = intent.group_by
            if group:
                note(group.table, group.column)
                note(group.table, group.source_column)
            for item in intent.filters:
                if isinstance(item, RelationalFilter):
                    column = (item.source_column if item.derive
                              else item.column)
                    if item.table:
                        note(item.table, column)
                    else:
                        located = _locate(tables, column or "")
                        if located:
                            note(*located)
            for measure in intent.measures:
                if measure.kind == "column":
                    note(measure.table,
                         measure.source_column or measure.column)
            for table, column in _anchored_select_columns(intent, tables):
                note(table, column)
            if intent.superlative:
                _agg, by_column, target = intent.superlative
                for column in (by_column, target):
                    located = _anchored(intent, tables, None, column)
                    if located:
                        note(*located)
            if intent.needs_images:
                image_table = _table_with_dtype(tables, "IMAGE")
                if image_table:
                    note(image_table.name,
                         _column_with_dtype(image_table, "IMAGE"))
            if intent.needs_text:
                text_table = _table_with_dtype(tables, "TEXT")
                if text_table:
                    note(text_table.name,
                         _column_with_dtype(text_table, "TEXT"))
        rendered = ", ".join(f"'{table}.{column}'" for table, column in pairs)
        return f"Relevant Columns: [{rendered}]"
