"""Table fingerprints and the registration-memoizing sqlite bridge."""

import pytest

from repro.data.datatypes import DataType
from repro.errors import SQLExecutionError
from repro.data.schema import ColumnSpec, Schema
from repro.data.table import Table
from repro.operators.base import ExecutionContext
from repro.relational.sqlexec import SQLBridge, run_sql
from repro.session import Session


def make_table(values):
    schema = Schema([ColumnSpec("n", DataType.INTEGER)])
    return Table(schema, {"n": values})


# ----------------------------------------------------------------------
# Table.fingerprint
# ----------------------------------------------------------------------


def test_fingerprint_is_content_based():
    assert make_table([1, 2, 3]).fingerprint() == \
        make_table([1, 2, 3]).fingerprint()
    assert make_table([1, 2, 3]).fingerprint() != \
        make_table([1, 2, 4]).fingerprint()


def test_fingerprint_distinguishes_dtype_and_name():
    ints = make_table([1, 2])
    floats = Table(Schema([ColumnSpec("n", DataType.FLOAT)]),
                   {"n": [1, 2]})
    renamed = ints.rename({"n": "m"})
    assert ints.fingerprint() != floats.fingerprint()
    assert ints.fingerprint() != renamed.fingerprint()


def test_fingerprint_covers_images(artwork_lake):
    images = artwork_lake.table("painting_images")
    assert images.fingerprint() == images.fingerprint()
    assert images.head(5).fingerprint() != images.head(6).fingerprint()


# ----------------------------------------------------------------------
# SQLBridge
# ----------------------------------------------------------------------


def test_bridge_registers_once_per_content():
    table = make_table([1, 2, 3])
    with SQLBridge() as bridge:
        first = bridge.execute("SELECT COUNT(*) AS c FROM t", {"t": table})
        second = bridge.execute("SELECT COUNT(*) AS c FROM t", {"t": table})
        assert bridge.registrations == 1
        assert bridge.reuses == 1
    assert first.column("c") == second.column("c") == [3]


def test_bridge_reregisters_on_content_change():
    with SQLBridge() as bridge:
        bridge.execute("SELECT COUNT(*) AS c FROM t",
                       {"t": make_table([1, 2])})
        changed = bridge.execute("SELECT COUNT(*) AS c FROM t",
                                 {"t": make_table([1, 2, 3])})
        assert bridge.registrations == 2
    assert changed.column("c") == [3]


def test_bridge_prunes_stale_names():
    with SQLBridge() as bridge:
        bridge.execute("SELECT * FROM t1", {"t1": make_table([1])})
        # A later query whose context no longer binds t1 must not be able
        # to read the stale registration.
        with pytest.raises(SQLExecutionError):
            bridge.execute("SELECT * FROM t1",
                           {"other": make_table([2])},
                           known={"other": make_table([2])})


def test_bridge_matches_one_shot_run_sql(rotowire_lake):
    sql = ("SELECT name, height_cm FROM players "
           "WHERE height_cm > 200 ORDER BY height_cm DESC")
    tables = {"players": rotowire_lake.table("players")}
    with SQLBridge() as bridge:
        bridged = bridge.execute(sql, tables)
    assert bridged == run_sql(sql, tables)


def test_engine_reuses_registrations_across_batch():
    # Pin the sqlite engine: under the default columnar engine supported
    # statements run in-process and never touch the bridge.
    from repro.core.engine import EngineConfig
    queries = ["How many players are taller than 200?"] * 3
    with Session("rotowire",
                 config=EngineConfig(relational_engine="sqlite")) as session:
        report = session.batch(queries)
        assert report.num_errors == 0
        bridge = session._engine.sql_bridge
        # Three identical queries -> the lake table is copied into sqlite
        # once; the other SQL steps reuse the registration.
        assert bridge.registrations >= 1
        assert bridge.reuses >= 2


def test_bridge_frees_the_objects_of_dropped_tables():
    schema = Schema([ColumnSpec("id", DataType.INTEGER),
                     ColumnSpec("note", DataType.TEXT)])
    first = Table(schema, {"id": [1, 2, 3], "note": ["a", None, "c"]})
    second = Table(schema, {"id": [1, 2], "note": ["x", "y"]})
    with SQLBridge() as bridge:
        bridge.execute("SELECT * FROM t", {"t": first})
        assert len(bridge._objects) == 2
        # Re-registering under the same name drops the old tokens; the
        # token counter keeps counting, so no token text is reused.
        result = bridge.execute("SELECT * FROM t", {"t": second})
        assert len(bridge._objects) == 2
        assert result.column("note") == ["x", "y"]
        assert result.dtype("note") is DataType.TEXT
        assert sorted(bridge._objects) == [2, 3]
        bridge.execute("SELECT * FROM u", {"u": make_table([1])},
                       known={"u": None})
        assert bridge._objects == {}


def test_bridge_object_store_stops_growing_after_one_round():
    # Every artwork round re-registers its intermediate image tables
    # under the same step names; the replaced tokens must be freed.
    from repro.core.engine import EngineConfig
    from repro.testing.workloads import workload
    queries = workload("artwork")
    sizes = []
    with Session("artwork",
                 config=EngineConfig(relational_engine="sqlite")) as session:
        for _ in range(4):
            assert session.batch(queries).num_errors == 0
            sizes.append(len(session._engine.sql_bridge._objects))
    assert sizes[0] > 0
    assert sizes == sizes[:1] * 4, sizes


# ----------------------------------------------------------------------
# Duplicate result column names
# ----------------------------------------------------------------------


@pytest.mark.parametrize("engine", ("columnar", "sqlite"))
def test_a_repeated_name_skips_a_suffix_another_column_takes(engine):
    table = Table(Schema([ColumnSpec("x", DataType.INTEGER),
                          ColumnSpec("y", DataType.INTEGER)]),
                  {"x": [1, 2], "y": [3, 4]})
    context = ExecutionContext(tables={"t": table}, relational_engine=engine)
    result = context.execute_sql("SELECT x, y AS x_2, x FROM t",
                                 context.tables, operator="SQL")
    assert result.column_names == ["x", "x_2", "x_3"]
    assert [result.column(name) for name in result.column_names] == \
        [[1, 2], [3, 4], [1, 2]]
