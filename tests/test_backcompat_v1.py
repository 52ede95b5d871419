"""Back-compat: artifacts written by earlier versions still load.

The golden fixtures under ``tests/fixtures/`` were captured from the
pre-columnar row store: table payloads (``Table.to_dict``), per-lake
fingerprints, plan/answer cache files, and raw cachenet frames.  The
columnar ``Table`` must load all of them losslessly and reproduce every
fingerprint byte-for-byte — that is what keeps warmed caches, cachenet
tiers, and archived reports valid across the storage rewrite.  Query
results archived before per-query telemetry existed load through their
legacy keys.
"""

import json
import socket
from pathlib import Path

import pytest

from repro.cachenet.protocol import parse_cache_url, read_frame, write_frame
from repro.cachenet.server import CacheTierServer
from repro.core.answer_cache import AnswerCache
from repro.core.batch import PlanCache
from repro.data.table import Table
from repro.datasets import load_lake
from repro.session import Session

FIXTURES = Path(__file__).parent / "fixtures"


def fixture(name: str):
    return json.loads((FIXTURES / name).read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# Table payloads
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(fixture("v1_tables.json")))
def test_v1_table_payload_roundtrips_losslessly(name):
    golden = fixture("v1_tables.json")[name]
    table = Table.from_dict(golden["payload"])
    assert table.fingerprint() == golden["fingerprint"]
    # to_dict must reproduce the v1 payload byte-identically (including
    # tagged dates and images), so re-saved caches stay interchangeable.
    assert (json.dumps(table.to_dict(), sort_keys=True)
            == json.dumps(golden["payload"], sort_keys=True))


def test_v1_lake_fingerprints_are_reproduced():
    golden = fixture("v1_fingerprints.json")
    for dataset, expected in golden.items():
        lake = load_lake(dataset)
        assert lake.fingerprint() == expected["fingerprint"]
        assert (lake.content_fingerprint()
                == expected["content_fingerprint"])
        for name, fingerprint in expected["table_fingerprints"].items():
            assert lake.sources[name].table.fingerprint() == fingerprint, name


# ----------------------------------------------------------------------
# Cache files
# ----------------------------------------------------------------------


def test_v1_plan_cache_file_loads_and_hits():
    cache = PlanCache.load(FIXTURES / "v1_plan_cache.json")
    entries = fixture("v1_plan_cache.json")["entries"]
    assert len(cache) == len(entries) == 3
    queries = [entry["query"] for entry in entries]
    with Session("rotowire", plan_cache=cache) as session:
        report = session.batch(queries)
    assert report.num_errors == 0
    assert report.cache_misses == 0
    assert all(stat.plan_cache_hit for stat in report.stats)


def test_v1_plan_cache_resaves_identically(tmp_path):
    cache = PlanCache.load(FIXTURES / "v1_plan_cache.json")
    resaved = tmp_path / "resaved.json"
    cache.save(resaved)
    assert (json.loads(resaved.read_text())
            == fixture("v1_plan_cache.json"))


def test_v1_answer_cache_file_warms_a_session():
    cache = AnswerCache.load(FIXTURES / "v1_answer_cache.json")
    assert len(cache) == 120
    with Session("artwork", answer_cache=cache) as session:
        report = session.batch(["How many paintings are depicting a sword?"])
    assert report.num_errors == 0
    assert report.answer_misses == 0
    assert report.answer_hits > 0


# ----------------------------------------------------------------------
# Pre-telemetry records
# ----------------------------------------------------------------------


def test_pre_telemetry_plan_cache_hit_key_loads_into_telemetry(
        rotowire_lake):
    # A result archived before telemetry existed has no "telemetry" key,
    # only the old boolean; from_dict rebuilds the counter state.
    with Session(rotowire_lake) as session:
        result = session.query("How many players are taller than 200?")
    data = result.to_dict()
    assert data["trace"]["plan_cache_hit"] is False
    del data["trace"]["telemetry"]
    data["trace"]["plan_cache_hit"] = True
    restored = type(result).from_dict(data)
    assert restored.telemetry.plan_cache_hit is True


# ----------------------------------------------------------------------
# Cachenet frames
# ----------------------------------------------------------------------


def test_v1_cachenet_frames_replay_against_a_live_tier():
    frames = fixture("v1_cachenet_frames.json")
    tier = CacheTierServer(bind="tcp://127.0.0.1:0").start()
    try:
        family, address = parse_cache_url(tier.url)
        assert family == "tcp"
        with socket.create_connection(address) as sock:
            for frame in frames:
                write_frame(sock, frame)
                reply = read_frame(sock)
                assert reply["ok"], (frame, reply)
            # Every v1 put must be readable back, value-identical.
            for frame in frames:
                if frame["op"] != "put":
                    continue
                request = {"op": "get", "space": frame["space"],
                           "ns": frame.get("ns"), "key": frame["key"]}
                write_frame(sock, request)
                reply = read_frame(sock)
                assert reply["ok"] and reply["hit"], frame
                assert reply["value"] == frame["value"]
    finally:
        tier.stop()
