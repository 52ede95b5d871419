"""One memo facility (:mod:`repro.data.memo`).

Checked here: the race rule (a build runs outside the lock and the
first value stored wins) for a table kind, a pool kind and
``pool_memo``'s scope replacement; a lake's memo never serves across
``DataLake.add``; a bounded kind drops its oldest entry; a kind is read
only through its owner; builds are counted and hits are not, and the
counts reach the metrics snapshot; pickling an owner drops its memo, so
a warm pass leaves every pickle the size it was.
"""

from __future__ import annotations

import pickle
import threading

import numpy as np
import pytest

from repro.core.answer_cache import AnswerCache
from repro.data.catalog import DataLake
from repro.data.columns import PooledColumn, StringColumn
from repro.data.datatypes import DataType
from repro.data.memo import KINDS, Memo, memo_builds
from repro.data.schema import ColumnSpec, Schema
from repro.data.table import Table
from repro.datasets import load_lake
from repro.obs import render_prometheus
from repro.operators.modality import AnswerMemo, pool_memo
from repro.session import Session
from repro.testing.workloads import workload


def small_table() -> Table:
    return Table(Schema([ColumnSpec("name", DataType.STRING),
                         ColumnSpec("count", DataType.INTEGER)]),
                 {"name": ["b", "a", None, "b"], "count": [1, 2, 3, None]})


def race(get_a, get_b):
    """Run two gets whose builds meet at a barrier, so both miss before
    either stores; returns both results."""
    barrier = threading.Barrier(2, timeout=10)
    results = [None, None]

    def build():
        barrier.wait()
        return {}

    def run(index, get):
        results[index] = get(build)

    threads = [threading.Thread(target=run, args=(index, get))
               for index, get in enumerate((get_a, get_b))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results


def test_racing_builders_of_a_table_kind_get_the_first_value_stored():
    table = small_table()
    first, second = race(
        lambda build: table.memo.get("join_index", "name", build),
        lambda build: table.memo.get("join_index", "name", build))
    assert first is second
    first["written"] = 1
    assert table.memo.get("join_index", "name", dict) == {"written": 1}


def test_racing_builders_of_a_pool_kind_share_one_value_across_takes():
    column = small_table().storage("name")
    assert isinstance(column, StringColumn)
    taken = column.take([3, 0])
    index = object()
    first, second = race(
        lambda build: column.memo.get("join_probes", index, build),
        lambda build: taken.memo.get("join_probes", index, build))
    assert first is second
    second["written"] = 1
    assert column.memo.get("join_probes", index, dict) == {"written": 1}


def test_a_memo_of_an_old_scope_is_replaced_once_by_racing_builders():
    storage = small_table().storage("name")
    cache = AnswerCache()

    def fresh_memo():
        return AnswerMemo(len(storage.pool))

    old = pool_memo(storage, cache, ("q", "str"), fresh_memo)
    assert pool_memo(storage, cache, ("q", "str"), _raise) is old
    cache.clear()  # a new scope
    barrier = threading.Barrier(2, timeout=10)

    def make():
        barrier.wait()
        return fresh_memo()

    first, second = race(
        lambda _build: pool_memo(storage, cache, ("q", "str"), make),
        lambda _build: pool_memo(storage.take([0]), cache, ("q", "str"),
                                 make))
    assert first is second and first is not old
    first.store([0], ["answer"])
    assert pool_memo(storage, cache, ("q", "str"), _raise).values[0] \
        == "answer"
    assert len(storage.memo) == 1  # replaced, not kept beside the new one


def test_a_lake_memo_never_serves_after_add():
    lake = DataLake(name="lake").add_table("t", small_table())
    assert lake.memo.get("tables_section", (), lambda: "one") == "one"
    assert lake.memo.get("tables_section", (), lambda: "two") == "one"

    def add_while_building():
        # A build racing an add stores into the memo it started from.
        lake.add_table("u", small_table())
        return "stale"

    lake.memo.get("lake_prompt", (), add_while_building)
    assert lake.memo.get("lake_prompt", (), lambda: "new") == "new"
    assert lake.memo.get("tables_section", (), lambda: "new") == "new"
    before = lake.prompt_repr()
    lake.add_table("v", small_table())
    assert lake.prompt_repr() != before and "v" in lake.prompt_repr()


def test_a_bounded_kind_drops_its_oldest_entry():
    memo = Memo("pool")
    bound = KINDS["join_probes"].bound
    for key in range(bound + 1):
        memo.get("join_probes", key, lambda key=key: key)
    assert len(memo) == bound
    built = []
    assert memo.get("join_probes", 0, lambda: built.append(0) or 0) == 0
    assert built == [0]
    assert memo.get("join_probes", bound, lambda: built.append(1)) == bound
    assert built == [0]


def test_a_kind_is_built_only_through_its_owner():
    with pytest.raises(ValueError, match="belongs to a table"):
        Memo("lake").get("udf", "key", dict)
    with pytest.raises(KeyError):
        Memo("table").get("undeclared", "key", dict)


def test_builds_are_counted_and_hits_are_not():
    table = small_table()
    before = dict(memo_builds)
    assert set(before) == set(KINDS)
    table.memo.get("prompt_line", "t", lambda: "first")
    table.memo.get("prompt_line", "t", lambda: "second")
    with pytest.raises(RuntimeError):
        table.memo.get("fingerprint", (), _raise)
    after = dict(memo_builds)
    assert after["prompt_line"] - before["prompt_line"] == 1
    assert after["fingerprint"] == before["fingerprint"]


def _raise():
    raise RuntimeError("build failed")


def test_memo_builds_reach_the_metrics_snapshot():
    with Session(load_lake("rotowire")) as session:
        session.query("Who is the tallest player?")
        snapshot = session.observability_snapshot()
    builds = snapshot["memo_builds"]
    assert set(builds) == set(KINDS) and builds["tables_section"] >= 1
    text = render_prometheus(snapshot)
    assert "# TYPE repro_memo_builds_total counter" in text
    assert (f'repro_memo_builds_total{{kind="tables_section"}} '
            f'{builds["tables_section"]}') in text


def test_pickling_an_owner_drops_its_memo():
    table = small_table()
    table.fingerprint()
    pool = table.storage("name")
    assert isinstance(pool, PooledColumn)
    pool.code_of("a")
    lake = DataLake(name="lake").add_table("t", table)
    lake.prompt_repr()
    for owner in (table, pool, lake):
        assert len(owner.memo)
        copy = pickle.loads(pickle.dumps(owner))
        assert len(copy.memo) == 0
        assert copy.memo.owner == owner.memo.owner
    copy = pickle.loads(pickle.dumps((pool, pool.take([0]))))
    assert copy[0].memo is copy[1].memo  # a shared pool memo stays shared


@pytest.mark.parametrize("dataset, table_name, pooled_from", [
    ("artwork", "painting_images", ("paintings_metadata", "inception")),
    ("rotowire", "players", ("game_reports", "report")),
])
def test_a_warm_pass_pickles_no_memo(dataset, table_name, pooled_from):
    lake = load_lake(dataset, scale=2)
    # An image keeps its own content digest, and ships with it so a
    # spawned worker keys it without rendering: take every digest first,
    # so only memos could make the pickles grow.
    lake.content_fingerprint()
    table = lake.table(table_name)
    take = lake.table(pooled_from[0]).take(
        np.arange(0, 40, 3)).storage(pooled_from[1])
    assert isinstance(take, PooledColumn)

    def sizes():
        return [len(pickle.dumps(owner)) for owner in (lake, table, take)]

    before = sizes()
    with Session(lake) as session:
        session.batch(workload(dataset))
        session.batch(workload(dataset))
    assert len(take.memo) and len(table.memo) and len(lake.memo)
    assert sizes() == before
